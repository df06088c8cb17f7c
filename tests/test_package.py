"""The package's public surface is exactly what the README and demos
import, and importing it loads no module that only an oracle needs."""

import ast
import re
import types
from pathlib import Path

import polyview
from conftest import fresh_python

REPO = Path(__file__).resolve().parent.parent


def _readme_and_demo_sources() -> list[str]:
    readme = (REPO / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert blocks, "README has no Python block"
    demos = sorted((REPO / "demos").glob("*.py"))
    assert demos, "no demo scripts found"
    return blocks + [path.read_text() for path in demos]


def _names_imported_from_polyview() -> set[str]:
    names = set()
    for source in _readme_and_demo_sources():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "polyview" and not node.level:
                names.update(alias.name for alias in node.names)
    return names


def test_readme_and_demo_imports_resolve():
    for name in sorted(_names_imported_from_polyview()):
        exec(f"from polyview import {name}", {})


def test_all_is_exactly_the_imported_names():
    # Submodules (`from polyview import streams`) are importable without
    # being listed in __all__.
    names = {
        name for name in _names_imported_from_polyview()
        if not isinstance(getattr(polyview, name), types.ModuleType)
    }
    assert len(polyview.__all__) == len(set(polyview.__all__))
    assert set(polyview.__all__) == names


def test_import_leaves_scipy_linalg_unloaded():
    # The package uses no scipy: the encoder's erf and the matrix MI
    # oracle's Cholesky factors are numpy's, so no scipy module loads even
    # after the oracle runs.
    code = ("import sys, polyview, polyview.cli; "
            "scipy = lambda: any(n.split('.')[0] == 'scipy' for n in sys.modules); "
            "print(scipy()); polyview.mi_via_gaussian_kl(1.0, 1.0, 3); print(scipy())")
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_import_leaves_hashlib_unloaded():
    # hashlib loads OpenSSL's libcrypto. The package does not import it, but
    # numpy.random does: the first streams.stream call imports its
    # bit_generator, which imports secrets, hmac and then _hashlib, and
    # libcrypto then holds about 3.3 MiB of RSS in every run. This test
    # holds at import time only.
    code = "import sys, polyview, polyview.cli; print('_hashlib' in sys.modules)"
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_import_leaves_multiprocessing_unloaded():
    # Only a sweep at --jobs N > 1 starts worker processes, and it imports
    # the process pool when it does; multiprocessing, socket and subprocess
    # stay out of every other process.
    code = "import sys, polyview, polyview.cli; print('multiprocessing' in sys.modules)"
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
