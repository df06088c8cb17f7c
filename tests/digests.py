"""sha256 digests of the loss kernel's, the encoder's and the gradient
oracle's output bits, one line per family, to show that a change keeps
every bit. Run it against each tree, on the same host:

    PYTHONPATH=<tree>/src python tests/digests.py

Equal lines mean equal bits. The bits follow numpy's build and the CPU
(README, Determinism), so digests from two hosts do not compare. pytest does
not collect this file.

Families:
  compute_loss      per-sample losses
  _loss_and_zgrad   per-sample losses and the z-gradient of their mean
      both: every method (infonce at M = 2 only), tau in {0.5, 1e-3}, on the
      seed-7 init encoder's embeddings and on unit Gaussian rows (d = 32), at
      K = 1024 with M in {2, 4, 10} and at (K, M) = (200, 3), (64, 10),
      (16, 5) and (4, 3)
  loss_pair_infonce per-sample losses of view pairs (0, 1) and (M - 1, 0),
                    on the same rows, shapes and tau
  loss_and_grads    per-sample losses and parameter gradients, encoder
                    rows of the shapes above with K * M <= 4096
  oracle            finite_difference_grads on criterion_02's 130 batches
  stacked           loss-only _per_sample_loss of three batches of unit
                    Gaussian rows (d = 32) stacked on a leading axis, at
                    (K, M) = (129, 3), (257, 2) and (130, 5): several tiles,
                    views split over row blocks and a ragged last block;
                    every method (infonce at M = 2 only), tau as above
  pool tasks        evaluation rows (harness._eval_row: eval_loss and bound)
                    of the seed-7 init encoder at K = 1024, M in {2, 10}, 16
                    batches, every method; variance_study at K = 64, M = 4,
                    64 batches; validity_study of each M-view method at
                    K = 64, M = 4, 16 batches: each batch a task of the pool
  sweep             the run CSVs of two run_sweep calls at K = 64, 3
                    epochs, seeds 0 and 1: every method at M = 2, and the
                    four M-view methods at M = 3
  _erf, gelu        four sets of 262,144 draws (normal at scales 0.5, 2 and
                    5, uniform on [-8, 8]) in chunks of 32,768; gelu(x, dx)
                    gives its values and, with dx = 1, its derivative
"""

from __future__ import annotations

import dataclasses
import hashlib
import tempfile

import numpy as np

from polyview import streams
from polyview.harness import (
    RunSpec,
    SweepSpec,
    _eval_row,
    run_sweep,
    validity_study,
    variance_study,
)
from polyview.losses import (
    EmbeddingBatch,
    Method,
    _loss_and_zgrad,
    _per_sample_loss,
    _view_major,
    compute_loss,
    l2_normalize,
    loss_pair_infonce,
)
from polyview.tinynn import (
    TrainConfig,
    _erf,
    finite_difference_grads,
    forward,
    gelu,
    init_params,
    loss_and_grads,
)

SHAPES = ((1024, 2), (1024, 4), (1024, 10), (200, 3), (64, 10), (16, 5), (4, 3))
STACKED_SHAPES = ((129, 3), (257, 2), (130, 5))
TAUS = (0.5, 1e-3)
SEED = 7
PARAMS = init_params(streams.stream(SEED, streams.INIT))


def views(k: int, m: int) -> np.ndarray:
    return streams.stream(SEED, streams.TEST, a=k, b=m).standard_normal((k, m))


def cases():
    """(method, tau, k, m, rows, embeddings) over the grid of the docstring."""
    for k, m in SHAPES:
        encoder = forward(PARAMS, views(k, m))
        gaussian = EmbeddingBatch(z=l2_normalize(
            streams.stream(SEED, streams.TEST, a=k, b=m + 1000).standard_normal((k, m, 32))))
        for method in Method:
            if method is Method.INFONCE and m != 2:
                continue
            for tau in TAUS:
                yield method, tau, k, m, "encoder", encoder
                yield method, tau, k, m, "gaussian", gaussian


def digest(arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def loss_arrays():
    for method, tau, _, _, _, z in cases():
        yield compute_loss(method, z, tau).per_sample


def zgrad_arrays():
    for method, tau, _, _, _, z in cases():
        result, grad = _loss_and_zgrad(method, z, tau)
        yield result.per_sample
        yield grad


def pair_arrays():
    for method, tau, _, m, _, z in cases():
        if method is Method.MULTICROP:  # each batch once: multicrop runs at every M
            for alpha, beta in ((0, 1), (m - 1, 0)):
                yield loss_pair_infonce(z, alpha, beta, tau).per_sample


def step_arrays():
    for method, tau, k, m, rows, _ in cases():
        if rows == "encoder" and k * m <= 4096:
            result, grads = loss_and_grads(PARAMS, views(k, m), method, tau)
            yield result.per_sample
            yield from grads.as_dict().values()


def oracle_arrays():
    # criterion_02's batches, in its order.
    for mi, method in enumerate(Method):
        for si, (k, m) in enumerate(((2, 2), (4, 3), (3, 4))):
            if method is Method.INFONCE and m != 2:
                continue
            for b in range(10):
                case = mi * 1000 + si * 100 + b
                batch = streams.stream(23, streams.TEST, a=case).standard_normal((k, m))
                params = init_params(streams.stream(23, streams.INIT, a=case))
                yield from finite_difference_grads(params, batch, method, 0.5).as_dict().values()


def stacked_arrays():
    for k, m in STACKED_SHAPES:
        z = l2_normalize(streams.stream(SEED, streams.TEST, a=k, b=m + 2000)
                         .standard_normal((3, k, m, 32)))
        for method in Method:
            if method is Method.INFONCE and m != 2:
                continue
            for tau in TAUS:
                yield _per_sample_loss(method, _view_major(method, z, tau), tau, False)[0]


def pool_arrays():
    for m in (2, 10):
        for method in Method:
            if method is Method.INFONCE and m != 2:
                continue
            row = _eval_row(RunSpec(method=method, m=m, seed=SEED), PARAMS, 0, None)
            yield np.array([row.eval_loss, row.bound])
    reports = [variance_study(RunSpec(method=Method.MULTICROP, m=4, k=64, seed=SEED), 64)]
    reports += [validity_study(RunSpec(method=method, m=4, k=64, seed=SEED), 16)
                for method in Method if method is not Method.INFONCE]
    for report in reports:
        yield np.array([v for v in dataclasses.astuple(report) if isinstance(v, float)])


def sweep_arrays():
    for methods, m in ((tuple(Method), 2), (tuple(Method)[1:], 3)):
        sweep = SweepSpec(methods=methods, m_values=(m,), seeds=(0, 1), k=64,
                          train=TrainConfig(epochs=3))
        with tempfile.TemporaryDirectory() as out:
            for result in run_sweep(sweep, out):
                with open(result.path, "rb") as fh:
                    yield np.frombuffer(fh.read(), dtype=np.uint8)


def draws():
    for i, draw in enumerate((lambda g, n: 0.5 * g.standard_normal(n),
                              lambda g, n: 2.0 * g.standard_normal(n),
                              lambda g, n: 5.0 * g.standard_normal(n),
                              lambda g, n: g.uniform(-8.0, 8.0, n))):
        x = draw(streams.stream(SEED, streams.TEST, a=10_000 + i), 262_144)
        yield from np.split(x, 8)


def gelu_arrays():
    for x in draws():
        dx = np.ones_like(x)
        yield gelu(x, dx)
        yield dx


def main() -> None:
    for name, arrays in (("compute_loss", loss_arrays()), ("_loss_and_zgrad", zgrad_arrays()),
                         ("loss_pair_infonce", pair_arrays()),
                         ("loss_and_grads", step_arrays()), ("oracle", oracle_arrays()),
                         ("stacked", stacked_arrays()),
                         ("pool tasks", pool_arrays()), ("sweep", sweep_arrays()),
                         ("_erf", map(_erf, draws())), ("gelu", gelu_arrays())):
        print(f"{name:17s} {digest(arrays)}")


if __name__ == "__main__":
    main()
