"""Self-test of the benchmark's output checks, in a few seconds.

    python3 perfbench/selftest.py

Runs a small sweep twice and one gradient-check batch through the same
workload code the benchmark uses, checks that the untouched outputs pass,
then checks that each perturbed copy is rejected by the check it targets.
Exits 0 only if every case behaves.
"""

from __future__ import annotations

import copy
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import timed  # noqa: E402

SMALL_SWEEP = {
    "methods": ["multicrop", "geometric"], "m_values": [3], "seeds": [0], "k": 16,
    "train": {"epochs": 2}, "eval_batches": 2, "record_stride": 1,
}
TARGET = "geometric_m03_seed0000.csv"


def _edit_row(outcomes, rnd: int, epoch: int, edit) -> None:
    """Apply edit(fields) to one CSV row of one repetition."""
    lines = outcomes[rnd]["texts"][TARGET].split("\n")
    for i, line in enumerate(lines[1:-1], start=1):
        fields = line.split(",")
        if fields[4] == str(epoch):
            edit(fields)
            lines[i] = ",".join(fields)
    outcomes[rnd]["texts"][TARGET] = "\n".join(lines)


def _in_every_round(edit):
    def apply(outcomes):
        for rnd in range(len(outcomes)):
            edit(outcomes, rnd)
    return apply


def _move_eval_loss(outcomes, rnd):
    """eval_loss at epoch 0 moved by 1e-6, with bound, gap and relative_mi
    rederived from it, so only the reference comparison can notice."""
    def edit(f):
        loss = float(f[6]) + 1e-6
        bound = float(f[7]) - 1e-6
        f[6], f[7] = "%.17g" % loss, "%.17g" % bound
        f[9] = "%.17g" % (float(f[8]) - bound)
        f[10] = "%.17g" % (float(f[8]) / bound) if bound > 0 else "NA"
    _edit_row(outcomes, rnd, 0, edit)


def _wrong_true_mi(outcomes, rnd):
    _edit_row(outcomes, rnd, 1, lambda f: f.__setitem__(8, "%.17g" % (float(f[8]) + 1e-9)))


def _moved_bound(outcomes, rnd):
    _edit_row(outcomes, rnd, 2, lambda f: f.__setitem__(7, "%.17g" % (float(f[7]) + 1e-9)))


def _wrong_k(outcomes, rnd):
    _edit_row(outcomes, rnd, 1, lambda f: f.__setitem__(2, "17"))


def _infinite_eval_loss(outcomes, rnd):
    _edit_row(outcomes, rnd, 2, lambda f: f.__setitem__(6, "inf"))


def _drop_epoch(outcomes, rnd):
    lines = outcomes[rnd]["texts"][TARGET].split("\n")
    outcomes[rnd]["texts"][TARGET] = "\n".join(lines[:2] + lines[3:])


def _header(outcomes, rnd):
    outcomes[rnd]["texts"][TARGET] = outcomes[rnd]["texts"][TARGET].replace("gap,", "gaps,", 1)


def _one_byte(outcomes):
    """The last digit of one train_loss in the second repetition only."""
    def edit(f):
        f[5] = f[5][:-1] + ("1" if f[5][-1] != "1" else "2")
    _edit_row(outcomes, 1, 2, edit)


def _cached(outcomes):
    outcomes[1]["statuses"][TARGET] = "cached"


def _flip_largest(grads: dict) -> dict:
    """A copy of grads with its largest entry's sign flipped."""
    grads = {name: a.copy() for name, a in grads.items()}
    name = max(grads, key=lambda n: float(abs(grads[n]).max()))
    flat = grads[name].reshape(-1)
    i = int(abs(flat).argmax())
    flat[i] = -flat[i]
    return grads


def _flip_gradient(outcomes):
    batch = list(outcomes[0]["batches"][0])
    batch[5] = _flip_largest(batch[5])
    outcomes[0]["batches"][0] = tuple(batch)


def _edited_step_gradient(sweep, edit):
    """The sweep workload, with edit applied to each first-step gradient it
    checks."""
    edited = copy.copy(sweep)
    edited.step_gradient = lambda *args: edit(sweep.step_gradient(*args))
    return edited


def _scaled(grads: dict) -> dict:
    return {name: a * (1.0 + 1e-4) for name, a in grads.items()}


def _moved_loss(outcomes):
    batch = list(outcomes[0]["batches"][0])
    batch[4] *= 1.0 + 1e-8
    outcomes[0]["batches"][0] = tuple(batch)


def _expect(label: str, workload, outcomes, out_dir: str, want: str | None) -> bool:
    try:
        workload.check(outcomes, out_dir)
        got = None
    except checks.CheckFailed as exc:
        got = exc.check
    ok = got == want or (want is not None and got is not None and got.startswith(want + ":"))
    print(f"{'ok  ' if ok else 'FAIL'} {label:48s} expected {want or 'pass'}, got {got or 'pass'}")
    return ok


def main() -> int:
    out = os.path.join(HERE, "out", f"selftest-{os.getpid()}")
    try:
        sweep = workloads.SweepWorkload(SMALL_SWEEP)
        outcomes = [sweep.outcome(sweep.run_round(r, os.path.join(out, f"round{r}"), timed)[0])[1]
                    for r in range(2)]
        grad = workloads.GradCheck(ROOT, seed=0)
        grad.build(1)
        grad.inputs[0] = grad.inputs[0][:1]
        grad_outcomes = [grad.outcome(grad.run_round(0, out, timed)[0])[1]]

        cases = [
            ("untouched sweep outputs", sweep, outcomes, None, None),
            ("eval_loss moved by 1e-6", sweep, outcomes, _in_every_round(_move_eval_loss),
             "eval_loss_reference"),
            ("true_mi off by 1e-9", sweep, outcomes, _in_every_round(_wrong_true_mi), "true_mi"),
            ("bound off by 1e-9", sweep, outcomes, _in_every_round(_moved_bound), "bound"),
            ("spec column k wrong", sweep, outcomes, _in_every_round(_wrong_k), "spec_columns"),
            ("eval_loss not finite", sweep, outcomes, _in_every_round(_infinite_eval_loss),
             "eval_loss"),
            ("an epoch row missing", sweep, outcomes, _in_every_round(_drop_epoch), "epochs"),
            ("header renamed", sweep, outcomes, _in_every_round(_header), "csv_header"),
            ("a run reported cached", sweep, outcomes, _cached, "sweep_status"),
            ("CSV differs by one byte between repetitions", sweep, outcomes, _one_byte,
             "repetition"),
            ("step gradient entry with its sign flipped",
             _edited_step_gradient(sweep, _flip_largest), outcomes, None, "step_gradient"),
            ("step gradient scaled by 1 + 1e-4", _edited_step_gradient(sweep, _scaled),
             outcomes, None, "step_gradient"),
            ("untouched gradient batch", grad, grad_outcomes, None, None),
            ("gradient entry with its sign flipped", grad, grad_outcomes, _flip_gradient,
             "gradient"),
            ("batch loss moved by 1e-8 relative", grad, grad_outcomes, _moved_loss,
             "loss_reference"),
        ]
        results = []
        for label, workload, base, perturb, want in cases:
            trial = copy.deepcopy(base)
            if perturb is not None:
                perturb(trial)
            results.append(_expect(label, workload, trial, out, want))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(f"{sum(results)}/{len(results)} cases behave")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
