"""Experiment runner: seeded training runs, M-sweeps, variance and validity
studies, aggregation, and the acceptance checks: one function per exact
criterion (01, 02, 03a, 03c, 04, 05), which both tests/test_acceptance.py
and `polyview check` run, grouped into the suites of CHECK_SUITES.

The row dataclasses RunRow and AggregateRow define the output formats: their
field names are the header, and each cell is written and parsed by its
field's annotation (_WRITE, _READ). One routine, _from_json, reads both
levels of a sweep config; RunSpec checks M, the variances and the seed
through its GaussianConfig, which owns those ranges.

Every run is a pure function of its RunSpec: parameters come from the INIT
stream, epoch t trains on the TRAIN_BATCH stream keyed by t, and recorded
epochs evaluate on fresh EVAL_BATCH streams keyed by (epoch, batch index).
Equal specs therefore produce byte-identical CSV files, which also makes
sweeps resumable: a finished per-run file whose rows match its spec is
trusted and skipped. Runs of one sweep that compute the same thing
(Method.at: at M = 2 arithmetic and suffstats run geometric's kernel call,
infonce runs multicrop's) train once.

Evaluation protocol: at each recorded epoch the loss is averaged over
eval_batches fresh held-out batches (never the training batch), and the
bound/gap columns are derived from that average.

The batches of an evaluation row or a study are independent: each is one
task of losses._ordered_map, which may run them on the tile pool, and their
values are reduced in batch order, so no output depends on the thread count.

A fingerprint file beside the fig3 runs holds the sha256 digests of one
training step per M-view method at M = 4 and 10 (step_digests): a change
that moves any bit of a step, in any epoch's arithmetic, changes a digest,
where the CSVs' epoch-0 rows show only the loss-only path. A sweep opens
only its own runs' files and its two state files, and aggregate only *.csv,
so both pass the fingerprint by.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import platform
import time
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from . import streams
from .bounds import bound_from_loss, variance_bound_factor
from .gaussian_world import (
    GaussianConfig,
    mi_via_gaussian_kl,
    sample_batch,
    true_one_vs_rest_mi,
)
from .losses import (
    EmbeddingBatch,
    Method,
    _check_objective,
    _NumericalError,
    _ordered_map,
    compute_loss,
    l2_normalize,
    loss_pair_infonce,
)
from .tinynn import (
    AdamWState,
    TrainConfig,
    _check_types,
    adamw_step,
    finite_difference_grads,
    forward,
    init_params,
    loss_and_grads,
    max_relative_grad_error,
)


class NumericalFailure(RuntimeError):
    """Training hit a non-finite value; carries the partial record."""

    def __init__(self, message: str, record: "RunRecord"):
        super().__init__(message)
        self.record = record


@dataclass(frozen=True)
class RunSpec:
    """Complete description of one training run; determines every output byte."""

    method: Method
    m: int
    k: int = 1024
    sigma0_sq: float = 1.0
    sigma_sq: float = 0.25
    tau: float = 0.5
    train: TrainConfig = TrainConfig()
    seed: int = 0
    eval_batches: int = 16
    record_stride: int = 1

    def __post_init__(self) -> None:
        _check_types(self)
        self.gaussian()  # checks M, the variances and the seed
        if self.k < 2:
            raise ValueError(f"need K >= 2, got {self.k}")
        _check_objective(self.method, self.m, self.tau)
        if self.eval_batches < 1:
            raise ValueError(f"eval_batches must be >= 1, got {self.eval_batches}")
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride}")
        try:  # the key of the last held-out batch
            streams.check_key(self.seed, streams.EVAL_BATCH, b=self.eval_batches - 1)
        except ValueError:
            raise ValueError(f"eval_batches {self.eval_batches} exceeds the held-out streams") from None

    def gaussian(self) -> GaussianConfig:
        return GaussianConfig(sigma0_sq=self.sigma0_sq, sigma_sq=self.sigma_sq, k=self.k,
                              m=self.m, seed=self.seed)

    def true_mi(self) -> float:
        return true_one_vs_rest_mi(self.sigma0_sq, self.sigma_sq, self.m)

    def recorded_epochs(self) -> list[int]:
        """The epochs a run records: 0, every record_stride-th, and the last."""
        last = self.train.epochs
        epochs = list(range(0, last + 1, self.record_stride))
        return epochs if epochs[-1] == last else epochs + [last]


@dataclass(frozen=True)
class RunRow:
    """One recorded epoch. train_loss is None at epoch 0 (nothing trained
    yet); gap = true_mi - bound is signed and never clamped; relative_mi is
    None when the bound is not positive."""

    method: str
    m: int
    k: int
    seed: int
    epoch: int
    train_loss: float | None
    eval_loss: float
    bound: float
    true_mi: float
    gap: float
    relative_mi: float | None


def _fmt(value: float | None) -> str:
    return "NA" if value is None else "%.17g" % value


def _parse(value: str) -> float | None:
    return None if value == "NA" else float(value)


# How a cell is written and read back, keyed by its field's annotation;
# other annotations are written and read with str.
_WRITE = {"float": _fmt, "float | None": _fmt, "bool": lambda value: str(int(value))}
_READ = {"int": int, "float": float, "float | None": _parse}


def _field_names(cls) -> list[str]:
    return [f.name for f in fields(cls)]


def _cells(row) -> list[str]:
    return [_WRITE.get(f.type, str)(getattr(row, f.name)) for f in fields(row)]


def _csv_text(row_type, rows) -> str:
    """A header of row_type's field names, then one line of cells per row."""
    lines = [_field_names(row_type), *map(_cells, rows)]
    return "".join(",".join(cells) + "\n" for cells in lines)


@dataclass(frozen=True)
class RunRecord:
    """All recorded rows of one run, in epoch order."""

    spec: RunSpec
    rows: tuple[RunRow, ...]

    def final(self) -> RunRow:
        if not self.rows:
            raise ValueError("record has no rows")
        return self.rows[-1]

    def to_csv_text(self) -> str:
        return _csv_text(RunRow, self.rows)

    def write(self, path: str) -> None:
        _write_whole(path, self.to_csv_text())


def _write_whole(path: str, text: str) -> None:
    """Replace path by text through path + ".tmp": no write leaves it partial."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_csv_rows(path: str) -> list[RunRow]:
    """Parse a per-run CSV back into rows; raises on a malformed file."""
    parsers = [_READ.get(f.type, str) for f in fields(RunRow)]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _field_names(RunRow):
            raise ValueError(f"{path}: unexpected header {header}")
        rows = []
        for line in reader:
            if len(line) != len(parsers):
                raise ValueError(f"{path}: malformed row {line}")
            rows.append(RunRow(*(parse(cell) for parse, cell in zip(parsers, line))))
    return rows


def _eval_row(spec: RunSpec, params, epoch: int, train_loss: float | None) -> RunRow:
    cfg = spec.gaussian()

    def batch_loss(j: int) -> float:
        batch = sample_batch(cfg, streams.stream(spec.seed, streams.EVAL_BATCH, a=epoch, b=j))
        return compute_loss(spec.method, forward(params, batch.views), spec.tau).total

    eval_loss = float(np.mean(list(_ordered_map(batch_loss, range(spec.eval_batches)))))
    if not math.isfinite(eval_loss):
        raise _NumericalError(f"evaluation loss is {eval_loss}")
    bound = bound_from_loss(spec.method, eval_loss, spec.k, spec.m)
    true_mi = spec.true_mi()
    rel = true_mi / bound if bound > 0 else None
    return RunRow(
        method=spec.method.value,
        m=spec.m,
        k=spec.k,
        seed=spec.seed,
        epoch=epoch,
        train_loss=train_loss,
        eval_loss=eval_loss,
        bound=bound,
        true_mi=true_mi,
        gap=true_mi - bound,
        relative_mi=rel,
    )


def run_training(spec: RunSpec) -> RunRecord:
    """Train the run described by spec, recording epoch 0, every
    record_stride epochs, and the final epoch. Raises NumericalFailure
    (with the partial record) if any loss or parameter goes non-finite or a
    norm fails; any other error propagates."""
    params = init_params(streams.stream(spec.seed, streams.INIT))
    state = AdamWState.initial()
    cfg = spec.gaussian()
    rows: list[RunRow] = []
    recorded = set(spec.recorded_epochs())
    epoch = 0
    try:
        rows.append(_eval_row(spec, params, 0, None))
        for epoch in range(1, spec.train.epochs + 1):
            batch_key = 1 if spec.train.fixed_dataset else epoch
            rng = streams.stream(spec.seed, streams.TRAIN_BATCH, a=batch_key)
            batch = sample_batch(cfg, rng)
            result, grads = loss_and_grads(params, batch.views, spec.method, spec.tau)
            if not math.isfinite(result.total):
                raise _NumericalError(f"training loss is {result.total}")
            params, state = adamw_step(params, grads, state, spec.train)
            if epoch in recorded:
                rows.append(_eval_row(spec, params, epoch, result.total))
    except (_NumericalError, FloatingPointError) as exc:
        raise NumericalFailure(
            f"numerical failure at epoch {epoch}: {exc}",
            RunRecord(spec=spec, rows=tuple(rows)),
        ) from exc

    return RunRecord(spec=spec, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """Cross product of methods x m_values x seeds. Every other field except
    jobs is a RunSpec field, passed to each run, with RunSpec's default."""

    methods: tuple[Method, ...]
    m_values: tuple[int, ...]
    seeds: tuple[int, ...]
    k: int = RunSpec.k
    sigma0_sq: float = RunSpec.sigma0_sq
    sigma_sq: float = RunSpec.sigma_sq
    tau: float = RunSpec.tau
    train: TrainConfig = RunSpec.train
    eval_batches: int = RunSpec.eval_batches
    record_stride: int = RunSpec.record_stride
    jobs: int = 1

    def __post_init__(self) -> None:
        for name in ("methods", "m_values", "seeds"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not (self.methods and self.m_values and self.seeds):
            raise ValueError("methods, m_values, and seeds must be non-empty")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        files = [run_path("", spec) for spec in self.expand()]  # RunSpec checks each run
        if len(set(files)) != len(files):
            raise ValueError(f"methods, m_values and seeds must be distinct: two runs would "
                             f"write {next(f for f in files if files.count(f) > 1)}")

    def expand(self) -> list[RunSpec]:
        shared = {name: getattr(self, name) for name in _SHARED_SETTINGS}
        return [
            RunSpec(method=method, m=m, seed=seed, **shared)
            for method in self.methods
            for m in self.m_values
            for seed in self.seeds
        ]

    def to_json_dict(self) -> dict:
        data = asdict(self)
        data["methods"] = [m.value for m in self.methods]
        data["m_values"] = list(self.m_values)
        data["seeds"] = list(self.seeds)
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "SweepSpec":
        kwargs = _from_json(cls, data, "sweep config")
        kwargs["methods"] = tuple(Method.from_token(t) for t in kwargs["methods"])
        if "train" in kwargs:
            train = _from_json(TrainConfig, kwargs["train"], "train config")
            kwargs["train"] = TrainConfig(**train)
        return cls(**kwargs)


# The RunSpec fields a sweep passes to every run, in RunSpec's order; runs in
# one directory must agree on them.
_SHARED_SETTINGS = tuple(name for name in _field_names(RunSpec) if name in _field_names(SweepSpec))


def _from_json(cls, data, what: str) -> dict:
    """cls's keyword arguments held in the JSON object data, each checked
    against its field's annotation; every message names the object as what.
    A key that is not a field is refused, and so is a missing field that
    has no default."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = set(data).difference(_field_names(cls))
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    for f in fields(cls):
        if f.default is MISSING and f.name not in data:
            raise ValueError(f"{what} missing required key {f.name!r}")
    return {f.name: _checked(f"{what} key {f.name!r}", data[f.name], f.type)
            for f in fields(cls) if f.name in data}


_JSON_KINDS = {"int": int, "float": (int, float), "bool": bool, "Method": str}


def _checked(label: str, value, kind: str):
    """value if it is JSON for a field annotated kind ("int", "float",
    "tuple[int, ...]", ...); booleans count as neither int nor float. A
    refusal's message starts with label."""
    if kind.startswith("tuple["):
        if not isinstance(value, list):
            raise ValueError(f"{label} must be a list, got {value!r}")
        return tuple(_checked(label, v, kind[len("tuple["):-len(", ...]")]) for v in value)
    wanted = _JSON_KINDS.get(kind)
    if wanted and (not isinstance(value, wanted) or (kind != "bool" and isinstance(value, bool))):
        raise ValueError(f"{label} must be {kind}, got {value!r}")
    return value


def run_path(out_dir: str, spec: RunSpec) -> str:
    return os.path.join(
        out_dir, f"{spec.method.value}_m{spec.m:02d}_seed{spec.seed:04d}.csv"
    )


def _is_complete(path: str, spec: RunSpec) -> bool:
    """Whether path holds spec's finished run: every row has spec's method,
    M, K, seed and true MI, and the rows are the epochs spec records."""
    try:
        rows = read_csv_rows(path)
    except (ValueError, OSError):
        return False
    want = (spec.method.value, spec.m, spec.k, spec.seed, spec.true_mi())
    return ([r.epoch for r in rows] == spec.recorded_epochs()
            and all((r.method, r.m, r.k, r.seed, r.true_mi) == want for r in rows))


@dataclass(frozen=True)
class SweepResult:
    spec: RunSpec
    path: str
    status: str  # "ran" | "cached" | "failed"
    message: str = ""


def _computation(spec: RunSpec) -> RunSpec:
    """The run that computes spec's: spec with the method of Method.at."""
    return replace(spec, method=spec.method.at(spec.m))


def _sweep_worker(members: list[tuple[RunSpec, str]]) -> list[SweepResult]:
    """Train the one computation of members, (spec, path) pairs with equal
    _computation, and write each member's rows with its own method cells:
    to its path, or to path + ".partial" on a NumericalFailure."""
    try:
        record, status, message = run_training(_computation(members[0][0])), "ran", ""
    except NumericalFailure as exc:
        record, status, message = exc.record, "failed", str(exc)
    results = []
    for spec, path in members:
        rows = tuple(replace(row, method=spec.method.value) for row in record.rows)
        RunRecord(spec=spec, rows=rows).write(path if status == "ran" else path + ".partial")
        results.append(SweepResult(spec=spec, path=path, status=status, message=message))
    return results


def run_sweep(sweep: SweepSpec, out_dir: str) -> list[SweepResult]:
    """Execute every run of the sweep into out_dir, one CSV per
    (method, M, seed). A complete file from an earlier invocation (its rows
    carry the run's method, M, K, seed, true MI and recorded epochs) is
    trusted, since runs are byte-deterministic, and skipped; failures are
    recorded and the sweep continues. Runs to do that share one computation
    (Method.at: at M = 2 arithmetic and suffstats run geometric's kernel
    call, infonce runs multicrop's) train once; each writes its CSV, or its
    partial record, from that training with its own method cells, and
    reports "ran" or "failed" itself. A directory whose sweep.json records
    other shared run settings, or whose sweep.json or failures.json is
    malformed, is refused with ValueError before anything is written.

    A failed run leaves its partial record in <run>.csv.partial, which goes
    once the run completes. failures.json lists the directory's runs whose
    last attempt failed and that have no CSV; other sweeps' entries are kept.
    The file is absent when there are none."""
    os.makedirs(out_dir, exist_ok=True)
    config_path = os.path.join(out_dir, "sweep.json")
    failures_path = os.path.join(out_dir, "failures.json")
    meta = sweep.to_json_dict()
    if os.path.exists(config_path):
        before = _read_json(config_path, dict)
        differ = [key for key in _SHARED_SETTINGS if before.get(key) != meta[key]]
        if differ:
            raise ValueError(
                f"{out_dir} holds runs made with other settings "
                f"({', '.join(differ)} differ); use a fresh directory"
            )
    failed = _read_failures(failures_path) if os.path.exists(failures_path) else {}
    meta["eval_protocol"] = "fresh held-out batches at each recorded epoch"
    _write_whole(config_path, json.dumps(meta, indent=2, sort_keys=True) + "\n")

    pending: list[tuple[RunSpec, str]] = []
    results: list[SweepResult] = []
    for spec in sweep.expand():
        path = run_path(out_dir, spec)
        if _is_complete(path, spec):
            results.append(SweepResult(spec=spec, path=path, status="cached"))
        else:
            pending.append((spec, path))

    groups: dict[RunSpec, list[tuple[RunSpec, str]]] = {}
    for spec, path in pending:
        groups.setdefault(_computation(spec), []).append((spec, path))
    if sweep.jobs > 1 and len(groups) > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Spawned workers read this at start: max(1, cores // jobs) OpenBLAS
        # threads each, so that together they keep to the machine's cores.
        saved = os.environ.get("OPENBLAS_NUM_THREADS")
        os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, (os.cpu_count() or 1) // sweep.jobs))
        try:
            with ProcessPoolExecutor(max_workers=sweep.jobs,
                                     mp_context=multiprocessing.get_context("spawn")) as pool:
                done = list(pool.map(_sweep_worker, groups.values()))
        finally:
            if saved is None:
                del os.environ["OPENBLAS_NUM_THREADS"]
            else:
                os.environ["OPENBLAS_NUM_THREADS"] = saved
    else:
        done = list(map(_sweep_worker, groups.values()))
    by_path = {r.path: r for group in done for r in group}
    results += [by_path[path] for _, path in pending]

    _record_failures(failures_path, failed, results)
    return results


def _read_json(path: str, kind: type):
    """The JSON value in path; ValueError naming the file unless it is a kind."""
    with open(path) as fh:
        try:
            value = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(value, kind):
        raise ValueError(f"{path} does not hold a JSON {kind.__name__}")
    return value


def _read_failures(failures_path: str) -> dict[str, str]:
    """failures.json's entries as {path: message}."""
    entries = _read_json(failures_path, list)
    if not all(isinstance(e, dict) and set(e) == {"path", "message"}
               and all(isinstance(v, str) for v in e.values()) for e in entries):
        raise ValueError(f'{failures_path} is not a list of {{"path": str, "message": str}}')
    return {e["path"]: e["message"] for e in entries}


def _record_failures(failures_path: str, failed: dict, results: list[SweepResult]) -> None:
    """Update failures.json, whose entries were failed before the sweep, with
    its outcomes, and remove the partial record of every run now complete."""
    failed = {path: message for path, message in failed.items() if not os.path.exists(path)}
    for r in results:
        if r.status == "failed":
            failed[r.path] = r.message
        else:
            failed.pop(r.path, None)
            with contextlib.suppress(FileNotFoundError):
                os.remove(r.path + ".partial")
    if not failed:
        with contextlib.suppress(FileNotFoundError):
            os.remove(failures_path)
        return
    entries = [{"path": path, "message": failed[path]} for path in sorted(failed)]
    _write_whole(failures_path, json.dumps(entries, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggregateRow:
    method: str
    m: int
    n_seeds: int
    bound_mean: float
    bound_std: float
    gap_mean: float
    gap_std: float
    relative_mi_mean: float | None
    relative_mi_std: float | None
    single_seed: bool


@dataclass(frozen=True)
class AggregateTable:
    rows: tuple[AggregateRow, ...]

    def by_group(self) -> dict[tuple[str, int], AggregateRow]:
        return {(r.method, r.m): r for r in self.rows}

    def to_csv_text(self) -> str:
        return _csv_text(AggregateRow, self.rows)

    def to_gnuplot_text(self) -> str:
        """Whitespace table, one block per method (usable as gnuplot index):
        the CSV's cells without single_seed."""
        out = ["# " + " ".join(_field_names(AggregateRow)[:-1]) + "\n"]
        for i, method in enumerate(sorted({r.method for r in self.rows})):
            if i:
                out.append("\n\n")
            out.append(f"# method={method}\n")
            for r in self.rows:
                if r.method == method:
                    out.append(" ".join(_cells(r)[:-1]) + "\n")
        return "".join(out)


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values)
    if arr.size == 1:
        return float(arr[0]), 0.0
    return float(arr.mean()), float(arr.std(ddof=1))


def aggregate(in_dir: str) -> AggregateTable:
    """Group final-epoch rows of every per-run CSV by (method, M) and report
    mean/std over seeds of bound, gap, and relative_mi. Groups with a single
    seed report std = 0 and are flagged. A group whose runs differ in K, in
    their final epoch or in their true MI (which the variances set), or
    repeat a seed, is refused. The CSVs record neither tau nor the number
    of eval batches: only a sweep directory's sweep.json guards those two."""
    paths = sorted(
        os.path.join(in_dir, name)
        for name in os.listdir(in_dir)
        if name.endswith(".csv")
    )
    if not paths:
        raise ValueError(f"no run CSV files found in {in_dir}")
    groups: dict[tuple[str, int], list[RunRow]] = {}
    for path in paths:
        rows = read_csv_rows(path)
        if not rows:
            raise ValueError(f"{path}: no data rows")
        final = max(rows, key=lambda r: r.epoch)
        groups.setdefault((final.method, final.m), []).append(final)

    out = []
    for (method, m), finals in sorted(groups.items()):
        if (len({(r.k, r.epoch, r.true_mi) for r in finals}) > 1
                or len({r.seed for r in finals}) < len(finals)):
            raise ValueError(f"{in_dir}: the {method} M = {m} runs mix K, final epochs or "
                             f"true MI, or repeat a seed")
        bounds_ms = _mean_std([r.bound for r in finals])
        gaps_ms = _mean_std([r.gap for r in finals])
        rels = [r.relative_mi for r in finals if r.relative_mi is not None]
        rel_ms = _mean_std(rels) if rels else (None, None)
        out.append(
            AggregateRow(
                method=method,
                m=m,
                n_seeds=len(finals),
                bound_mean=bounds_ms[0],
                bound_std=bounds_ms[1],
                gap_mean=gaps_ms[0],
                gap_std=gaps_ms[1],
                relative_mi_mean=rel_ms[0],
                relative_mi_std=rel_ms[1],
                single_seed=len(finals) == 1,
            )
        )
    return AggregateTable(rows=tuple(out))


# ---------------------------------------------------------------------------
# Variance and validity studies
# ---------------------------------------------------------------------------


FINGERPRINT_NAME = "fingerprint.json"
_FINGERPRINT_M = (4, 10)


def step_digests() -> dict[str, str]:
    """sha256 digests of the first training step of seed 0 for each M-view
    method at each M of _FINGERPRINT_M, at RunSpec's defaults (fig3's K,
    tau, variances and optimizer), keyed like the run files, e.g.
    "geometric_m10": over the step's gradients, the AdamW-updated parameters
    and compute_loss's per-sample losses at them on the step's batch."""
    # Imported here, so that `import polyview` leaves hashlib and OpenSSL out
    # (a run's first draw loads them anyway, through numpy.random).
    import hashlib

    digests = {}
    for method in Method:
        for m in _FINGERPRINT_M if method is not Method.INFONCE else ():
            spec = RunSpec(method=method, m=m)
            params = init_params(streams.stream(spec.seed, streams.INIT))
            views = sample_batch(spec.gaussian(),
                                 streams.stream(spec.seed, streams.TRAIN_BATCH, a=1)).views
            _, grads = loss_and_grads(params, views, method, spec.tau)
            params, _ = adamw_step(params, grads, AdamWState.initial(), spec.train)
            loss = compute_loss(method, forward(params, views), spec.tau)
            digest = hashlib.sha256()
            for array in (*grads.as_dict().values(), *params.as_dict().values(),
                          loss.per_sample):
                digest.update(array.tobytes())
            digests[f"{method.value}_m{m:02d}"] = digest.hexdigest()
    return digests


def machine() -> dict:
    """What a step's bits depend on besides the code: numpy's version, its
    BLAS build and the CPU, with the core count."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "cpu": cpu, "nproc": os.cpu_count()}


def write_fingerprint(path: str) -> dict:
    """Write {"machine": machine(), "digests": step_digests()} to path as
    JSON, whole, and return it."""
    fingerprint = {"machine": machine(), "digests": step_digests()}
    _write_whole(path, json.dumps(fingerprint, indent=2, sort_keys=True) + "\n")
    return fingerprint


@dataclass(frozen=True)
class VarianceReport:
    """Per-sample loss variances over view draws at fixed latents.

    var_multicrop and var_pair are conditional variances (each batch's
    latents held fixed, only the view noise redrawn), ratio is their
    quotient with its 99% bootstrap CI, and theoretical_factor bounds that
    ratio. total_ratio is the same quotient of total variances across fresh
    batches, which also carry the latent's share that no view averaging
    removes.
    """

    m: int
    k: int
    n_batches: int
    var_multicrop: float
    var_pair: float
    ratio: float
    ci_low: float
    ci_high: float
    theoretical_factor: float
    total_ratio: float

    def lines(self) -> list[str]:
        """Five report lines: header, the two conditional variances, the
        ratio with its CI, and the factor beside the total-variance ratio."""
        return [
            f"multi-crop variance study: M={self.m} K={self.k} batches={self.n_batches}",
            f"  Var[multi-crop per-sample loss | latents] = {self.var_multicrop:.6f}",
            f"  Var[pair per-sample loss | latents]       = {self.var_pair:.6f}",
            f"  ratio = {self.ratio:.6f}   99% bootstrap CI [{self.ci_low:.6f}, {self.ci_high:.6f}]",
            f"  theoretical factor 2(2M-1)/(3M(M-1)) = {self.theoretical_factor:.6f}"
            f"   total-variance ratio = {self.total_ratio:.6f}",
        ]


def variance_study(spec: RunSpec, n_batches: int) -> VarianceReport:
    """Var[per-sample Multi-Crop loss] / Var[per-sample pair loss] over view
    draws at fixed latents, under a frozen random encoder, with a 99%
    bootstrap CI over batches.

    Batch i is drawn from the STUDY stream keyed a = i + 1; a second draw
    keeps its latents and redraws the view noise from key (a = i + 1, b = 1).
    The two draws of a sample's loss are independent given the latents, so
    (L1 - L2)^2 / 2 estimates its conditional variance. That is the
    variance variance_bound_factor bounds: views are conditionally
    independent given the latent, so pair losses on disjoint views are
    uncorrelated only once the latents are fixed. The total variance across
    fresh batches adds Var[E(L | latents)], shared by every pair of a
    sample; its ratio (total_ratio) therefore floors above the factor.

    Whole batches are resampled (per-sample losses share negatives within a
    batch, so samples are not independent); 2000 bootstrap draws.
    """
    if n_batches < 32:
        raise ValueError(f"need at least 32 batches for a stable ratio, got {n_batches}")
    params = init_params(streams.stream(spec.seed, streams.INIT))
    cfg = spec.gaussian()
    k = spec.k
    noise_sd = math.sqrt(spec.sigma_sq)

    def losses(views: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = forward(params, views)
        return (compute_loss(Method.MULTICROP, z, spec.tau).per_sample,
                loss_pair_infonce(z, 0, 1, spec.tau).per_sample)

    def batch_stats(i: int) -> tuple[float, ...]:
        batch = sample_batch(cfg, streams.stream(spec.seed, streams.STUDY, a=i + 1))
        redraw = streams.stream(spec.seed, streams.STUDY, a=i + 1, b=1)
        views2 = batch.latents[:, None] + redraw.normal(0.0, noise_sd, size=(k, spec.m))
        mc, pair = losses(batch.views)
        mc2, pair2 = losses(views2)
        mean_mc, mean_pair = mc.mean(), pair.mean()
        return (
            0.5 * ((mc - mc2) ** 2).sum(), 0.5 * ((pair - pair2) ** 2).sum(),
            mean_mc, ((mc - mean_mc) ** 2).sum(), mean_pair, ((pair - mean_pair) ** 2).sum(),
        )

    # rows: conditional-variance sums (multicrop, pair), then the mean and
    # centred sum of squares of the first draw's losses (multicrop, pair) for
    # the total variances; in C order, so that each row's sum runs along
    # contiguous memory
    stats = np.ascontiguousarray(np.transpose(list(_ordered_map(batch_stats, range(n_batches)))))

    n = n_batches * k
    s = stats.sum(axis=1)
    var_mc = s[0] / n
    var_pair = s[1] / n
    total_mc = _pooled_variance(stats[2], stats[3], k)
    total_pair = _pooled_variance(stats[4], stats[5], k)
    boot_rng = streams.stream(spec.seed, streams.STUDY, a=0, b=1)
    # (2, 2000) resampled conditional sums, one draw of n_batches at a time:
    # all 2000 at once would hold 24 bytes per drawn batch, 2.9 GiB at 65,536
    boot = np.transpose([stats[:2, boot_rng.integers(0, n_batches, n_batches)].sum(axis=-1)
                         for _ in range(2000)])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio, total_ratio = var_mc / var_pair, total_mc / total_pair
        lo, hi = np.quantile(boot[0] / boot[1], [0.005, 0.995])
    # A pair loss that does not vary, as at a large tau where every loss is
    # ln K, leaves the ratios undefined.
    if not np.isfinite([ratio, lo, hi, total_ratio]).all():
        raise ValueError(f"a variance ratio is not finite at tau = {spec.tau}: the pair "
                         f"loss varies too little over these draws")
    return VarianceReport(
        m=spec.m,
        k=k,
        n_batches=n_batches,
        var_multicrop=float(var_mc),
        var_pair=float(var_pair),
        ratio=float(ratio),
        ci_low=float(lo),
        ci_high=float(hi),
        theoretical_factor=variance_bound_factor(spec.m),
        total_ratio=float(total_ratio),
    )


def _pooled_variance(means: np.ndarray, centred: np.ndarray, k: int) -> np.float64:
    """Sample variance of groups of k values each, from every group's mean and
    centred sum of squares, pooled in group order (Chan, Golub and LeVeque's
    update). Unlike E[L^2] - E[L]^2, no term cancels when the values' spread
    is tiny against their mean."""
    mean, sq, n = means[0], centred[0], k
    for group_mean, group_sq in zip(means[1:], centred[1:]):
        delta = group_mean - mean
        n += k
        mean += delta * k / n
        sq += group_sq + delta * delta * (n - k) * k / n
    return sq / (n - 1)


@dataclass(frozen=True)
class ValidityReport:
    method: str
    m: int
    k: int
    n_batches: int
    gap_m: float
    mean_pairwise_gap: float
    diff: float
    diff_stderr: float

    def lines(self) -> list[str]:
        return [
            f"validity study: method={self.method} M={self.m} K={self.k} "
            f"batches={self.n_batches}",
            f"  M-view gap            = {self.gap_m:.6f}",
            f"  mean two-view gap     = {self.mean_pairwise_gap:.6f}",
            f"  difference (M - pair) = {self.diff:.6f} +/- {self.diff_stderr:.6f} (stderr)",
        ]


def validity_study(spec: RunSpec, n_batches: int = 64) -> ValidityReport:
    """Compare the M-view MI gap against the mean of the (M-1) two-view gaps
    under a frozen random encoder.

    The two-view gap for target view beta applies the same objective to the
    sub-batch of views (0, beta) with its M=2 offset, so at M=2 the two
    quantities coincide by construction.
    """
    if n_batches < 2:
        raise ValueError(f"need at least 2 batches, got {n_batches}")
    params = init_params(streams.stream(spec.seed, streams.INIT))
    cfg = spec.gaussian()
    true_m = spec.true_mi()
    true_2 = true_one_vs_rest_mi(spec.sigma0_sq, spec.sigma_sq, 2)

    def batch_gaps(i: int) -> tuple[float, float]:
        rng = streams.stream(spec.seed, streams.STUDY, a=i + 1)
        z = forward(params, sample_batch(cfg, rng).views)
        loss_m = compute_loss(spec.method, z, spec.tau).total
        pair_gaps = []
        for beta in range(1, spec.m):
            sub = EmbeddingBatch(z=np.ascontiguousarray(z.z[:, (0, beta), :]))
            loss_2 = compute_loss(spec.method, sub, spec.tau).total
            pair_gaps.append(true_2 - bound_from_loss(spec.method, loss_2, spec.k, 2))
        return true_m - bound_from_loss(spec.method, loss_m, spec.k, spec.m), np.mean(pair_gaps)

    gap_m, gap_pair = np.ascontiguousarray(
        np.transpose(list(_ordered_map(batch_gaps, range(n_batches)))))
    diff = gap_m - gap_pair
    return ValidityReport(
        method=spec.method.value,
        m=spec.m,
        k=spec.k,
        n_batches=n_batches,
        gap_m=float(gap_m.mean()),
        mean_pairwise_gap=float(gap_pair.mean()),
        diff=float(diff.mean()),
        diff_stderr=float(diff.std(ddof=1) / math.sqrt(n_batches)),
    )


# ---------------------------------------------------------------------------
# Acceptance checks
# ---------------------------------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _unit_batch(rng: np.random.Generator, k: int, m: int, d: int) -> EmbeddingBatch:
    return EmbeddingBatch(z=l2_normalize(rng.standard_normal((k, m, d))))


def criterion_01() -> CheckResult:
    """Closed-form one-vs-rest MI equals the covariance-matrix KL oracle."""
    t0 = time.perf_counter()
    worst = 0.0
    for s0 in (0.25, 0.5, 1.0, 2.0, 4.0):
        for s in (0.25, 0.5, 1.0, 2.0, 4.0):
            for m in range(2, 17):
                diff = abs(
                    true_one_vs_rest_mi(s0, s, m) - mi_via_gaussian_kl(s0, s, m)
                )
                worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    return CheckResult(
        "1",
        worst < 1e-9 and elapsed < 5.0,
        f"max |closed form - matrix KL| = {worst:.3e} over 375 grid points "
        f"in {elapsed:.2f}s (limits 1e-9, 5s)",
    )


def criterion_02() -> CheckResult:
    """Hand-derived encoder gradients match central finite differences."""
    t0 = time.perf_counter()
    shapes = [(2, 2), (4, 3), (3, 4)]
    worst = 0.0
    checked = 0
    for mi, method in enumerate(Method):
        for si, (k, m) in enumerate(shapes):
            if method is Method.INFONCE and m != 2:
                continue  # the pair objective is two-view by contract
            for b in range(10):
                case = mi * 1000 + si * 100 + b
                rng = streams.stream(23, streams.TEST, a=case)
                views = rng.standard_normal((k, m))
                params = init_params(streams.stream(23, streams.INIT, a=case))
                analytic = loss_and_grads(params, views, method, 0.5)[1]
                numeric = finite_difference_grads(params, views, method, 0.5, h=1e-6)
                worst = max(worst, max_relative_grad_error(analytic, numeric))
                checked += 1
    elapsed = time.perf_counter() - t0
    return CheckResult(
        "2",
        worst < 1e-5 and elapsed < 60.0,
        f"max relative error = {worst:.3e} over {checked} batches "
        f"in {elapsed:.1f}s (limits 1e-5, 60s)",
    )


def criterion_03a() -> CheckResult:
    """The arithmetic and geometric objectives coincide at M = 2. Both run
    one kernel call there (Method.at), so this compares one path with
    itself; tests/reference.py's long-double referee still grades
    arithmetic at M = 2 against its own log-mean-exp."""
    worst = 0.0
    for i in range(50):
        rng = streams.stream(29, streams.TEST, a=i)
        z = _unit_batch(rng, 8, 2, 16)
        worst = max(
            worst,
            abs(compute_loss(Method.ARITHMETIC_PVC, z, 0.5).total
                - compute_loss(Method.GEOMETRIC_PVC, z, 0.5).total),
        )
    return CheckResult("3a", worst < 1e-12, f"max |diff| = {worst:.3e} over 50 batches")


def criterion_03c() -> CheckResult:
    """Collapsed embeddings give each objective's sentinel loss and a zero bound."""
    worst_poly = 0.0
    worst_mc = 0.0
    worst_bound = 0.0
    for k, m in ((8, 2), (6, 4), (16, 3)):
        e = np.zeros(12)
        e[0] = 1.0
        z = EmbeddingBatch(z=np.broadcast_to(e, (k, m, 12)).copy())
        sentinel = math.log(k * m - m + 1)
        for method in (Method.ARITHMETIC_PVC, Method.GEOMETRIC_PVC, Method.SUFFSTATS):
            worst_poly = max(worst_poly, abs(compute_loss(method, z, 0.5).total - sentinel))
        worst_mc = max(worst_mc, abs(compute_loss(Method.MULTICROP, z, 0.5).total - math.log(k)))
        worst_bound = max(
            worst_bound,
            abs(bound_from_loss(Method.GEOMETRIC_PVC, sentinel, k, m)),
            abs(bound_from_loss(Method.MULTICROP, math.log(k), k, m)),
        )
    return CheckResult(
        "3c",
        worst_poly < 1e-12 and worst_mc < 1e-12 and worst_bound == 0.0,
        f"collapse |diff|: poly-family {worst_poly:.3e} vs ln(B-M+1), "
        f"multicrop {worst_mc:.3e} vs ln K, |bound| = {worst_bound:.3e}",
    )


def criterion_04() -> CheckResult:
    """The arithmetic objective never exceeds the geometric one (Jensen)."""
    ordered = 0
    strict = 0
    n = 1000
    for i in range(n):
        rng = streams.stream(37, streams.TEST, a=i)
        z = _unit_batch(rng, 8, 3, 8)
        a = compute_loss(Method.ARITHMETIC_PVC, z, 0.5).total
        g = compute_loss(Method.GEOMETRIC_PVC, z, 0.5).total
        ordered += a <= g + 1e-12
        strict += a < g
    return CheckResult(
        "4",
        ordered == n and strict > 0.99 * n,
        f"arithmetic <= geometric on {ordered}/{n}, strict on {strict}/{n}",
    )


def criterion_05() -> CheckResult:
    """Every objective is invariant to view permutations and orthogonal maps."""
    worst = 0.0
    for i in range(100):
        rng = streams.stream(41, streams.TEST, a=i)
        q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        # infonce is two-view; the other four objectives, list(Method)[1:], at M = 4
        for methods, m in (([Method.INFONCE], 2), (list(Method)[1:], 4)):
            z = _unit_batch(rng, 8, m, 16)
            perm = rng.permutation(m)
            zp = EmbeddingBatch(z=np.ascontiguousarray(z.z[:, perm, :]))
            zq = EmbeddingBatch(z=z.z @ q.T)
            for method in methods:
                base = compute_loss(method, z, 0.5).total
                worst = max(
                    worst,
                    abs(compute_loss(method, zp, 0.5).total - base),
                    abs(compute_loss(method, zq, 0.5).total - base),
                )
    return CheckResult(
        "5",
        worst < 1e-12,
        f"max |loss change| = {worst:.3e} under view permutations and a "
        "global orthogonal map, 100 batches, all five objectives",
    )


# The acceptance criteria each `polyview check --suite` runs.
CHECK_SUITES = {
    "oracles": (criterion_01,),
    "grads": (criterion_02,),
    "identities": (criterion_03a, criterion_03c),
    "invariants": (criterion_04, criterion_05),
}
