"""The three workloads. Each builds its inputs from the benchmark seed, runs
whole rounds of the same operations, and checks what the rounds wrote.

A round is the unit of repetition: every run attempts the same number of
rounds for a given --seconds, so two runs always attempt the same
operations, and traced runs make the same calls. A run makes one round per
ROUND_S of --seconds, and at least two: at BENCHMARK.json's --seconds 20,
two rounds of fig3-m10 (about 12 s each on the 2-core reference machine),
two of fig3-m2-dense (4.5 s) and five of gradcheck (3 s). A full evaluation
(70 runs, 4 + 22 per workload) must end within 57 minutes, also when the
host runs the workloads at half that speed.

A round is timed in parts: one part per round for the sweep workloads, one
per batch for gradcheck. ``run_round`` takes the ``timed`` function of the
worker and returns the round's result with the (wall, cpu) seconds of each
part, in the same order every round.
"""

from __future__ import annotations

import json
import os

import checks
import reference


def rounds_for(workload, seconds: float) -> int:
    """At least two rounds, so that every run has a repetition to compare."""
    return max(2, round(seconds / workload.ROUND_S))


def _fig3_settings(root: str) -> dict:
    with open(os.path.join(root, "configs", "fig3_sweep.json")) as fh:
        return json.load(fh)


class SweepWorkload:
    """Rounds of run_sweep into a fresh directory each; a unit of work is one
    training epoch (one AdamW step plus the evaluation recorded at it)."""

    ROUND_S = 10.0

    def __init__(self, config: dict):
        from polyview.harness import SweepSpec

        self.sweep = SweepSpec.from_json_dict(config)
        self.specs = self.sweep.expand()
        self.units_per_round = len(self.specs) * self.sweep.train.epochs

    def build(self, rounds: int) -> None:
        """The program derives every input from the sweep spec."""

    def warm_up(self, out_dir: str) -> None:
        from polyview import harness

        small = dict(self.sweep.to_json_dict(), k=8, eval_batches=1, record_stride=1)
        small["train"] = dict(small["train"], epochs=1)
        harness.run_sweep(harness.SweepSpec.from_json_dict(small), out_dir)

    def run_round(self, index: int, out_dir: str, timed):
        from polyview import harness

        result, part = timed(lambda: harness.run_sweep(self.sweep, out_dir))
        return result, [part]

    def outcome(self, results) -> tuple[int, dict]:
        """Failed units and what the checks need: each run's status and bytes."""
        statuses = {os.path.basename(r.path): r.status for r in results}
        texts = {}
        for r in results:
            if r.status == "ran":
                with open(r.path, newline="") as fh:
                    texts[os.path.basename(r.path)] = fh.read()
        failed = sum(self.sweep.train.epochs for r in results if r.status == "failed")
        return failed, {"statuses": statuses, "texts": texts}

    def check(self, outcomes: list[dict], out_dir: str) -> None:
        """Runs that failed are counted in `failed` and not checked further."""
        names = [checks.run_file_name(s.method.value, s.m, s.seed) for s in self.specs]
        for outcome in outcomes:
            checks.check_statuses(outcome["statuses"], names)
        for spec, name in zip(self.specs, names):
            texts = [o["texts"][name] for o in outcomes if name in o["texts"]]
            if not texts:
                continue
            eval0 = reference.epoch0_eval_loss(
                spec.method.value, spec.m, spec.k, spec.seed, spec.eval_batches,
                spec.sigma0_sq, spec.sigma_sq, spec.tau)
            for text in texts:
                checks.check_run_csv(
                    text, method=spec.method.value, m=spec.m, k=spec.k,
                    seed=spec.seed, epochs=spec.train.epochs, stride=spec.record_stride,
                    sigma0_sq=spec.sigma0_sq, sigma_sq=spec.sigma_sq, eval0_reference=eval0)
            checks.check_identical(f"repetition:{name}", texts)
        # One run's first step per benchmark run, chosen by the seed, so that
        # consecutive seeds cover every run of the sweep. At M = 10, K = 1024
        # each check costs one loss_and_grads and two reference losses, about
        # 4 s, which the run budget cannot pay for every method.
        i = self.sweep.seeds[0] % len(self.specs)
        self.check_step_gradient(self.specs[i], names[i])

    def step_gradient(self, spec, params: dict, views) -> dict:
        """The program's gradient at a run's first training step, computed
        after the timed rounds with the same function and shapes they time."""
        from polyview.tinynn import MlpParams, loss_and_grads

        return loss_and_grads(MlpParams(**params), views, spec.method, spec.tau)[1].as_dict()

    def check_step_gradient(self, spec, name: str) -> None:
        """The rounds' CSVs record no gradient, so the first step's gradient
        is checked apart: its projection on a unit direction against a
        central difference of the reference loss along it."""
        params, views = reference.first_step_inputs(
            spec.seed, spec.k, spec.m, spec.sigma0_sq, spec.sigma_sq)
        grads = self.step_gradient(spec, params, views)
        direction = reference.probe_direction(grads, spec.seed)
        analytic = sum(float((grads[n] * direction[n]).sum()) for n in direction)
        numeric = reference.directional_derivative(
            spec.method.value, params, views, direction, spec.tau)
        checks.check_directional(name, analytic, numeric)


class Fig3M10(SweepWorkload):
    """fig3 settings at M = 10 for the four M-view objectives, two epochs.

    Two evaluation batches per run (epochs 0 and 2) are the fewest the
    harness records; they take about a third of a round."""

    name = "fig3-m10"

    def __init__(self, root: str, seed: int):
        config = _fig3_settings(root)
        config.update(m_values=[10], seeds=[seed], eval_batches=1, record_stride=2, jobs=1)
        config["train"] = dict(config["train"], epochs=2)
        super().__init__(config)


class Fig3M2Dense(SweepWorkload):
    """All five objectives at M = 2 with the RunSpec defaults: K = 1024,
    every epoch recorded on 16 fresh evaluation batches."""

    name = "fig3-m2-dense"

    def __init__(self, root: str, seed: int):
        super().__init__({
            "methods": ["infonce", "multicrop", "arithmetic", "geometric", "suffstats"],
            "m_values": [2], "seeds": [seed], "train": {"epochs": 2},
        })


class GradCheck:
    """The criterion_02 case set: 130 batches over shapes (2,2), (4,3) and
    (3,4), five methods, tau = 0.5, h = 1e-6, stream seed 23. A round takes
    one batch index b for each of the 13 (method, shape) pairs, so every
    round has the same mix; ten consecutive rounds cover all 130 batches.
    A unit of work is one batch checked: analytic gradient, central
    differences over all 1,120 parameters, and their comparison."""

    name = "gradcheck"
    SHAPES = ((2, 2), (4, 3), (3, 4))
    STREAM_SEED = 23
    TAU = 0.5
    H = 1e-6

    ROUND_S = 4.0

    def __init__(self, root: str, seed: int):
        from polyview.losses import Method

        self.seed = seed
        self.pairs = [
            (mi, method, si, shape)
            for mi, method in enumerate(Method)
            for si, shape in enumerate(self.SHAPES)
            if method is not Method.INFONCE or shape[1] == 2
        ]
        self.units_per_round = len(self.pairs)
        self.inputs: dict[int, list] = {}

    def build(self, rounds: int) -> None:
        from polyview import streams
        from polyview.tinynn import init_params

        for r in range(rounds):
            b = (self.seed + r) % 10
            batch = []
            for mi, method, si, (k, m) in self.pairs:
                case = mi * 1000 + si * 100 + b
                views = streams.stream(self.STREAM_SEED, streams.TEST, a=case).standard_normal((k, m))
                params = init_params(streams.stream(self.STREAM_SEED, streams.INIT, a=case))
                batch.append((case, method, views, params))
            self.inputs[r] = batch

    def warm_up(self, out_dir: str) -> None:
        from polyview import tinynn

        for case, method, views, params in self.inputs[0]:
            tinynn.loss_and_grads(params, views, method, self.TAU)
            tinynn.compute_loss(method, tinynn.forward(params, views), self.TAU)

    def run_round(self, index: int, out_dir: str, timed):
        from polyview import tinynn

        def check_batch(views, method, params):
            result, analytic = tinynn.loss_and_grads(params, views, method, self.TAU)
            numeric = tinynn.finite_difference_grads(params, views, method, self.TAU, h=self.H)
            analytic, numeric = analytic.as_dict(), numeric.as_dict()
            return result.total, analytic, numeric, checks.max_relative_error(analytic, numeric)

        out, parts = [], []
        for case, method, views, params in self.inputs[index]:
            checked, part = timed(lambda: check_batch(views, method, params))
            out.append((case, method, views, params, *checked))
            parts.append(part)
        return out, parts

    def outcome(self, results) -> tuple[int, dict]:
        return 0, {"batches": results}

    def check(self, outcomes: list[dict], out_dir: str) -> None:
        for outcome in outcomes:
            for case, method, views, params, loss, analytic, numeric, _ in outcome["batches"]:
                label = f"case {case} {method.value} {views.shape}"
                checks.check_gradient(label, analytic, numeric)
                expected = reference.loss(
                    method.value, reference.encode(params.as_dict(), views), self.TAU)
                checks.check_loss(label, loss, expected)


WORKLOADS = {w.name: w for w in (Fig3M10, Fig3M2Dense, GradCheck)}
