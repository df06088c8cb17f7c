"""Output checks. Each raises CheckFailed, naming the check, on the first
property an output breaks. Expected values come from ``reference`` or from
properties the method must have, never from the program's own helpers."""

from __future__ import annotations

import math

import numpy as np

import reference

HEADER = "method,m,k,seed,epoch,train_loss,eval_loss,bound,true_mi,gap,relative_mi"
GRAD_LIMIT = 1e-5       # the criterion_02 limit
REFERENCE_RTOL = 1e-9   # epoch-0 eval_loss and per-batch loss against the reference
DERIVED_ATOL = 1e-12    # bound, gap, relative_mi and true_mi against their definitions
DIRECTIONAL_TOL = 1e-8  # a step's gradient along a direction against the reference difference


class CheckFailed(Exception):
    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def _require(ok: bool, check: str, detail: str) -> None:
    if not ok:
        raise CheckFailed(check, detail)


def expected_epochs(epochs: int, stride: int) -> list[int]:
    return [0] + [e for e in range(1, epochs + 1) if e % stride == 0 or e == epochs]


def run_file_name(method: str, m: int, seed: int) -> str:
    return f"{method}_m{m:02d}_seed{seed:04d}.csv"


def check_statuses(statuses: dict[str, str], expected_names: list[str]) -> None:
    """Every run of a fresh-directory sweep must run: 'ran', or 'failed' (a
    failed operation, counted apart); never 'cached'."""
    _require(sorted(statuses) == sorted(expected_names), "sweep_runs",
             f"runs {sorted(statuses)} != expected {sorted(expected_names)}")
    for name, status in statuses.items():
        _require(status in ("ran", "failed"), "sweep_status", f"{name} reported {status!r}")


def _number(field: str, check: str, allow_na: bool = False) -> float | None:
    if allow_na and field == "NA":
        return None
    try:
        return float(field)
    except ValueError:
        raise CheckFailed(check, f"{field!r} is not a number") from None


def check_run_csv(text: str, *, method: str, m: int, k: int, seed: int, epochs: int,
                  stride: int, sigma0_sq: float, sigma_sq: float,
                  eval0_reference: float) -> None:
    lines = text.split("\n")
    _require(lines[0] == HEADER, "csv_header", f"header {lines[0]!r}")
    _require(lines[-1] == "", "csv_format", "file does not end with a newline")
    rows = [line.split(",") for line in lines[1:-1]]
    for row in rows:
        _require(len(row) == 11, "csv_format", f"row {row} has {len(row)} fields")
        _require(row[:4] == [method, str(m), str(k), str(seed)], "spec_columns",
                 f"row {row[:4]} != {[method, m, k, seed]}")
    got_epochs = [int(row[4]) for row in rows]
    _require(got_epochs == expected_epochs(epochs, stride), "epochs",
             f"epochs {got_epochs} != {expected_epochs(epochs, stride)}")

    mi = reference.one_vs_rest_mi(sigma0_sq, sigma_sq, m)
    infomax = 0.5 * math.log(1.0 + sigma0_sq / sigma_sq)
    offset = reference.offset(method, k, m)
    for row in rows:
        epoch = int(row[4])
        train = _number(row[5], "train_loss", allow_na=True)
        _require((train is None) == (epoch == 0), "train_loss",
                 f"epoch {epoch}: train_loss {row[5]}")
        _require(train is None or math.isfinite(train), "train_loss",
                 f"epoch {epoch}: train_loss {row[5]}")
        loss = _number(row[6], "eval_loss")
        _require(math.isfinite(loss) and loss > 0.0, "eval_loss",
                 f"epoch {epoch}: eval_loss {row[6]}")
        true_mi = _number(row[8], "true_mi")
        _require(abs(true_mi - mi) <= DERIVED_ATOL and true_mi < infomax, "true_mi",
                 f"epoch {epoch}: true_mi {true_mi!r}, slogdet {mi!r}, infomax {infomax!r}")
        bound = _number(row[7], "bound")
        _require(abs(bound - (offset - loss)) <= DERIVED_ATOL, "bound",
                 f"epoch {epoch}: bound {bound!r} != {offset!r} - {loss!r}")
        gap = _number(row[9], "gap")
        _require(abs(gap - (mi - bound)) <= DERIVED_ATOL, "gap",
                 f"epoch {epoch}: gap {gap!r} != {mi!r} - {bound!r}")
        rel = _number(row[10], "relative_mi", allow_na=True)
        if bound > 0.0:
            _require(rel is not None and abs(rel - mi / bound) <= DERIVED_ATOL * abs(rel),
                     "relative_mi", f"epoch {epoch}: relative_mi {row[10]} != {mi / bound!r}")
        else:
            _require(rel is None, "relative_mi", f"epoch {epoch}: bound {bound!r} <= 0 "
                     f"but relative_mi {row[10]}")
    eval0 = float(rows[0][6])
    _require(abs(eval0 - eval0_reference) <= REFERENCE_RTOL * abs(eval0_reference),
             "eval_loss_reference",
             f"epoch-0 eval_loss {eval0!r} != reference {eval0_reference!r}")


def check_identical(check: str, texts: list[str]) -> None:
    """Repetitions of the same specs must write the same bytes."""
    for i, text in enumerate(texts[1:], start=1):
        _require(text == texts[0], check, f"repetition {i} differs from repetition 0")


def max_relative_error(analytic: dict, numeric: dict) -> float:
    """max over entries of |a - n| / max(1, |a|, |n|)."""
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        worst = max(worst, float((np.abs(a - n) / scale).max()))
    return worst


def check_gradient(case: str, analytic: dict, numeric: dict) -> None:
    """Analytic and central-difference gradients agree within GRAD_LIMIT."""
    error = max_relative_error(analytic, numeric)
    _require(error <= GRAD_LIMIT, "gradient",
             f"{case}: max relative error {error:.3e} > {GRAD_LIMIT:g}")


def check_directional(case: str, analytic: float, numeric: float) -> None:
    """A gradient's projection on a direction agrees with the reference's
    central difference along it: |a - n| / max(1, |a|, |n|) within
    DIRECTIONAL_TOL."""
    error = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
    _require(error <= DIRECTIONAL_TOL, "step_gradient",
             f"{case}: gradient along the direction {analytic!r} != reference {numeric!r}")


def check_loss(case: str, value: float, expected: float) -> None:
    _require(math.isfinite(value) and abs(value - expected) <= REFERENCE_RTOL * abs(expected),
             "loss_reference", f"{case}: loss {value!r} != reference {expected!r}")
