"""Harness behavior: run records, CSV round trips, sweeps, aggregation,
variance/validity studies, and the self-check suites.

Training runs here are deliberately tiny (K <= 128, a handful of epochs);
the committed results/ dataset covers production scale.
"""

import json
import math
import os
import re
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import at_width
from polyview import harness, losses, streams
from polyview.bounds import bound_from_loss, variance_bound_factor
from polyview.gaussian_world import true_one_vs_rest_mi
from polyview.harness import (
    NumericalFailure,
    RunRecord,
    RunRow,
    RunSpec,
    SweepSpec,
    FINGERPRINT_NAME,
    aggregate,
    machine,
    read_csv_rows,
    run_path,
    run_sweep,
    run_training,
    step_digests,
    validity_study,
    variance_study,
)
from polyview.gaussian_world import sample_batch
from polyview.losses import LossResult, Method, _NumericalError, compute_loss, loss_pair_infonce
from polyview.tinynn import TrainConfig, forward, init_params

REPO = Path(__file__).resolve().parent.parent
# The on-disk header of a per-run CSV, spelled out here as a pin: the code
# derives it from RunRow's field names.
RUN_CSV_HEADER = "method,m,k,seed,epoch,train_loss,eval_loss,bound,true_mi,gap,relative_mi"


def tiny_spec(method=Method.ARITHMETIC_PVC, **kw) -> RunSpec:
    defaults = dict(
        method=method,
        m=2,
        k=8,
        train=TrainConfig(epochs=3),
        seed=0,
        eval_batches=2,
        record_stride=1,
    )
    defaults.update(kw)
    return RunSpec(**defaults)


class TestRunSpec:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(m=1),
            dict(k=1),
            dict(method=Method.INFONCE, m=3),
            dict(sigma0_sq=0.0),
            dict(sigma_sq=-1.0),
            dict(tau=0.0),
            dict(eval_batches=0),
            dict(record_stride=0),
            dict(seed=2**64),
            dict(tau=math.inf),
            dict(tau=1e-310),  # 1/tau overflows to inf
            dict(sigma0_sq=math.inf),
            dict(sigma_sq=math.inf),
            dict(tau=1e-160),  # a squared loss can overflow
        ],
    )
    def test_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError):
            tiny_spec(**kw)

    @pytest.mark.parametrize("kw, message", [
        (dict(seed=True), "seed must be int, got True"),
        (dict(seed=3.0), "seed must be int, got 3.0"),
        (dict(m=2.0), "m must be int, got 2.0"),
        (dict(k=8.0), "k must be int, got 8.0"),
        (dict(eval_batches=1.0), "eval_batches must be int, got 1.0"),
        (dict(record_stride=True), "record_stride must be int, got True"),
        (dict(sigma_sq=True), "sigma_sq must be float, got True"),
        (dict(tau=True), "tau must be float, got True"),
    ], ids=["seed-bool", "seed-float", "m-float", "k-float", "eval_batches-float",
            "record_stride-bool", "sigma_sq-bool", "tau-bool"])
    def test_rejects_wrong_number_types(self, kw, message):
        # seed=True used to run and write "True" into the CSV's seed column,
        # which read_csv_rows refuses; m=2.0 failed mid-run with a TypeError.
        with pytest.raises(ValueError, match=f"^{message}$"):
            tiny_spec(**kw)

    def test_accepts_numpy_integers(self, tmp_path):
        spec = tiny_spec(m=np.int64(2), k=np.int32(8), seed=np.uint64(3),
                         eval_batches=np.int16(1), train=TrainConfig(epochs=np.int64(1)))
        path = run_path(str(tmp_path), spec)
        run_training(spec).write(path)
        assert [(r.seed, r.epoch) for r in read_csv_rows(path)] == [(3, 0), (3, 1)]

    def test_method_must_be_a_method(self):
        # A token is refused here, not by an AttributeError in run_sweep.
        with pytest.raises(ValueError, match="^unknown method: 'geometric'$"):
            RunSpec(method="geometric", m=4)
        with pytest.raises(ValueError, match="^unknown method: 'geometric'$"):
            SweepSpec(methods=("geometric",), m_values=(2,), seeds=(0,))

    @pytest.mark.parametrize("name", ["sigma0_sq", "sigma_sq"])
    def test_infinite_variance_refused_as_not_finite(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got inf$"):
            tiny_spec(**{name: math.inf})

    def test_eval_batches_within_the_stream_range(self):
        # Held-out batch j is drawn from EVAL_BATCH stream index b = j < 2**16.
        assert tiny_spec(eval_batches=65536).eval_batches == 65536
        with pytest.raises(ValueError, match="eval_batches 65537 exceeds"):
            tiny_spec(eval_batches=65537)

    def test_gaussian_config_and_true_mi(self):
        spec = tiny_spec(m=4, k=32, sigma0_sq=2.0, sigma_sq=0.5, seed=9)
        cfg = spec.gaussian()
        assert (cfg.sigma0_sq, cfg.sigma_sq, cfg.k, cfg.m, cfg.seed) == (
            2.0,
            0.5,
            32,
            4,
            9,
        )
        assert spec.true_mi() == true_one_vs_rest_mi(2.0, 0.5, 4)

    def test_infonce_allows_two_views(self):
        tiny_spec(method=Method.INFONCE, m=2)


class TestRunTraining:
    def test_row_schedule_and_consistency(self):
        spec = tiny_spec()
        record = run_training(spec)
        assert [r.epoch for r in record.rows] == [0, 1, 2, 3]
        assert record.final() is record.rows[-1]
        assert record.rows[0].train_loss is None
        for row in record.rows:
            assert row.method == "arithmetic"
            assert (row.m, row.k, row.seed) == (2, 8, 0)
            assert math.isfinite(row.eval_loss)
            assert row.true_mi == spec.true_mi()
            # each row is internally consistent with the bound machinery
            assert row.bound == bound_from_loss(spec.method, row.eval_loss, 8, 2)
            assert row.gap == row.true_mi - row.bound
            if row.bound > 0:
                assert row.relative_mi == row.true_mi / row.bound
            else:
                assert row.relative_mi is None
        for row in record.rows[1:]:
            assert row.train_loss is not None and math.isfinite(row.train_loss)

    def test_record_stride_keeps_final_epoch(self):
        record = run_training(
            tiny_spec(train=TrainConfig(epochs=5), record_stride=2)
        )
        assert [r.epoch for r in record.rows] == [0, 2, 4, 5]

    def test_zero_epochs_records_initial_state_only(self):
        record = run_training(tiny_spec(train=TrainConfig(epochs=0)))
        assert [r.epoch for r in record.rows] == [0]
        assert record.rows[0].train_loss is None

    def test_byte_determinism(self):
        a = run_training(tiny_spec(method=Method.GEOMETRIC_PVC, m=3))
        b = run_training(tiny_spec(method=Method.GEOMETRIC_PVC, m=3))
        assert a.to_csv_text() == b.to_csv_text()

    def test_fixed_dataset_reuses_first_batch(self):
        moving = run_training(tiny_spec())
        fixed = run_training(tiny_spec(train=TrainConfig(epochs=3, fixed_dataset=True)))
        # epoch 1 trains on the same batch either way; later epochs diverge
        assert fixed.rows[1].train_loss == moving.rows[1].train_loss
        assert fixed.rows[2].train_loss != moving.rows[2].train_loss

    def test_small_temperature_trains(self):
        spec = RunSpec(method=Method.GEOMETRIC_PVC, m=4, k=64, tau=1e-3,
                       train=TrainConfig(epochs=3), eval_batches=1)
        record = run_training(spec)
        assert [r.epoch for r in record.rows] == [0, 1, 2, 3]
        assert all(math.isfinite(r.eval_loss) for r in record.rows)

    def test_numerical_failure_carries_partial_record(self):
        spec = tiny_spec(
            train=TrainConfig(learning_rate=1e200, epochs=5), record_stride=50
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure) as excinfo:
                run_training(spec)
        assert "epoch 2" in str(excinfo.value)
        partial = excinfo.value.record
        assert isinstance(partial, RunRecord)
        assert [r.epoch for r in partial.rows] == [0]

    def test_non_numerical_value_error_propagates(self, monkeypatch):
        # A programming error is not a numerical failure: it must not end the
        # run as "numerical failure at epoch N" with a partial record.
        def broken_step(params, grads, state, cfg):
            raise ValueError("gradient shape mismatch for w1")

        monkeypatch.setattr(harness, "adamw_step", broken_step)
        with pytest.raises(ValueError, match="gradient shape mismatch for w1"):
            run_training(tiny_spec())

    def test_eval_failure_also_wrapped(self):
        # with per-epoch recording the blow-up is first seen by the eval pass
        spec = tiny_spec(
            train=TrainConfig(learning_rate=1e200, epochs=5), record_stride=1
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure) as excinfo:
                run_training(spec)
        assert "epoch 1" in str(excinfo.value)
        assert [r.epoch for r in excinfo.value.record.rows] == [0]

    def test_epoch0_eval_failure_also_wrapped(self):
        # Latents of variance 1e308 overflow the encoder's output norms, so
        # the first evaluation fails before anything is recorded.
        spec = tiny_spec(method=Method.GEOMETRIC_PVC, m=3, sigma0_sq=1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailure, match="epoch 0: rows must be unit norm") as excinfo:
                run_training(spec)
        assert excinfo.value.record.rows == ()

    def test_non_finite_eval_loss_is_numerical_failure(self, monkeypatch):
        def nan_loss(method, z, tau):
            return LossResult.from_per_sample(np.full(z.z.shape[0], np.nan))

        monkeypatch.setattr(harness, "compute_loss", nan_loss)
        with pytest.raises(NumericalFailure, match="epoch 0: evaluation loss is nan") as excinfo:
            run_training(tiny_spec())
        assert excinfo.value.record.rows == ()


class TestCsvRoundTrip:
    def test_write_then_read_is_exact(self, tmp_path):
        record = run_training(tiny_spec(method=Method.SUFFSTATS, m=3))
        path = str(tmp_path / "run.csv")
        record.write(path)
        assert read_csv_rows(path) == list(record.rows)
        assert not os.path.exists(path + ".tmp")

    def test_failed_replace_leaves_no_tmp_file(self, tmp_path):
        # The target is a directory, so os.replace fails after the write.
        target = tmp_path / "run.csv"
        target.mkdir()
        record = RunRecord(spec=tiny_spec(), rows=())
        with pytest.raises(OSError):
            record.write(str(target))
        assert sorted(os.listdir(tmp_path)) == ["run.csv"]
        assert target.is_dir() and not os.listdir(target)

    def test_text_format(self):
        record = run_training(tiny_spec(train=TrainConfig(epochs=1)))
        text = record.to_csv_text()
        lines = text.splitlines()
        assert lines[0] == RUN_CSV_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("arithmetic,2,8,0,0,NA,")

    def test_none_fields_round_trip_as_na(self, tmp_path):
        spec = tiny_spec()
        row = RunRow(
            method="arithmetic",
            m=2,
            k=8,
            seed=0,
            epoch=0,
            train_loss=None,
            eval_loss=3.0,
            bound=-0.25,
            true_mi=0.5,
            gap=0.75,
            relative_mi=None,
        )
        path = str(tmp_path / "na.csv")
        RunRecord(spec=spec, rows=(row,)).write(path)
        (back,) = read_csv_rows(path)
        assert back == row
        with open(path) as fh:
            data_line = fh.readlines()[1]
        assert data_line.endswith(",NA\n")

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="unexpected header"):
            read_csv_rows(str(path))

    def test_rejects_short_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(RUN_CSV_HEADER + "\n1,2,3\n")
        with pytest.raises(ValueError, match="malformed row"):
            read_csv_rows(str(path))

    def test_final_of_empty_record_raises(self):
        with pytest.raises(ValueError, match="no rows"):
            RunRecord(spec=tiny_spec(), rows=()).final()


FIG3 = REPO / "results" / "fig3"


class TestCommittedBytes:
    """The committed fig3 results pin both output formats byte for byte."""

    def test_every_run_csv_round_trips(self):
        paths = sorted(FIG3.glob("*.csv"))
        assert len(paths) == 136
        for path in paths:
            rows = read_csv_rows(str(path))
            spec = RunSpec(method=Method.from_token(rows[0].method), m=rows[0].m,
                           k=rows[0].k, seed=rows[0].seed)
            text = RunRecord(spec=spec, rows=tuple(rows)).to_csv_text()
            assert text.encode() == path.read_bytes(), path.name

    def test_aggregate_reproduces_the_summary_tables(self):
        table = aggregate(str(FIG3))
        summary = REPO / "results" / "fig3_summary"
        assert table.to_csv_text().encode() == summary.with_suffix(".csv").read_bytes()
        assert table.to_gnuplot_text().encode() == summary.with_suffix(".dat").read_bytes()

    def test_fingerprint_matches_the_code(self):
        # Eight K = 1024 training steps, about 4 s. The epoch-0 guard of the
        # acceptance tests sees only loss-only evaluations of M = 2 runs.
        with open(FIG3 / FINGERPRINT_NAME) as fh:
            committed = json.load(fh)
        got = step_digests()
        moved = sorted(name for name in got.keys() | committed["digests"].keys()
                       if got.get(name) != committed["digests"].get(name))
        assert not moved, (
            f"the training steps {moved} no longer have the digests of "
            f"results/fig3/{FINGERPRINT_NAME}, written on {committed['machine']} (this "
            f"machine: {machine()}). A step's bits moved, so results/fig3 is stale: "
            "regenerate it with the commands in README's order")


class TestSweepSpec:
    def make(self, **kw):
        defaults = dict(
            methods=(Method.MULTICROP, Method.ARITHMETIC_PVC),
            m_values=(2, 3),
            seeds=(5, 1),
            k=8,
            train=TrainConfig(epochs=2),
            eval_batches=2,
        )
        defaults.update(kw)
        return SweepSpec(**defaults)

    def test_expand_order_is_method_then_m_then_seed(self):
        combos = [(s.method, s.m, s.seed) for s in self.make().expand()]
        assert combos == [
            (Method.MULTICROP, 2, 5),
            (Method.MULTICROP, 2, 1),
            (Method.MULTICROP, 3, 5),
            (Method.MULTICROP, 3, 1),
            (Method.ARITHMETIC_PVC, 2, 5),
            (Method.ARITHMETIC_PVC, 2, 1),
            (Method.ARITHMETIC_PVC, 3, 5),
            (Method.ARITHMETIC_PVC, 3, 1),
        ]

    def test_expand_propagates_shared_settings(self):
        spec = self.make(sigma0_sq=2.0, tau=0.3, record_stride=4)
        for run in spec.expand():
            assert run.k == 8
            assert run.sigma0_sq == 2.0
            assert run.tau == 0.3
            assert run.record_stride == 4
            assert run.train == TrainConfig(epochs=2)

    def test_json_round_trip(self):
        spec = self.make(jobs=2, sigma_sq=0.5)
        text = json.dumps(spec.to_json_dict())
        assert SweepSpec.from_json_dict(json.loads(text)) == spec

    def test_unknown_top_level_key_rejected(self):
        data = self.make().to_json_dict()
        data["bogus"] = 1
        with pytest.raises(ValueError, match="unknown sweep config keys"):
            SweepSpec.from_json_dict(data)

    def test_unknown_train_key_rejected(self):
        data = self.make().to_json_dict()
        data["train"]["lr"] = 0.1
        with pytest.raises(ValueError, match="unknown train config keys"):
            SweepSpec.from_json_dict(data)

    @pytest.mark.parametrize("key", ["tau", "sigma0_sq", "sigma_sq"])
    def test_non_finite_config_value_rejected(self, key):
        text = json.dumps({**self.make().to_json_dict(), key: math.inf})
        assert "Infinity" in text
        with pytest.raises(ValueError, match="finite"):
            SweepSpec.from_json_dict(json.loads(text))

    def test_fig3_config_echo_matches_committed_sweep_json(self):
        with open(REPO / "configs" / "fig3_sweep.json") as fh:
            sweep = SweepSpec.from_json_dict(json.load(fh))
        with open(REPO / "results" / "fig3" / "sweep.json") as fh:
            committed = json.load(fh)
        committed.pop("eval_protocol")
        assert json.dumps(sweep.to_json_dict(), indent=2, sort_keys=True) == json.dumps(
            committed, indent=2, sort_keys=True
        )

    @pytest.mark.parametrize("key,value", [
        ("k", "8"), ("k", True), ("eval_batches", 1.5), ("record_stride", None),
        ("jobs", False), ("m_values", [2.0]), ("m_values", 2), ("seeds", ["0"]),
        ("tau", "0.5"), ("sigma0_sq", True), ("sigma_sq", [0.25]),
    ])
    def test_wrong_value_type_rejected(self, key, value):
        data = {**self.make().to_json_dict(), key: value}
        with pytest.raises(ValueError, match=f"sweep config key '{key}'"):
            SweepSpec.from_json_dict(data)

    @pytest.mark.parametrize("edit,message", [
        (lambda d: [d], "sweep config must be a JSON object"),
        (lambda d: {**d, "train": [3]}, "train config must be a JSON object"),
        (lambda d: {**d, "train": {"epochs": 2.0}},
         "train config key 'epochs' must be int, got 2.0"),
        (lambda d: {**d, "train": {"beta1": True}},
         "train config key 'beta1' must be float, got True"),
    ], ids=["sweep-not-object", "train-not-object", "train-int-type", "train-float-type"])
    def test_each_level_names_itself(self, edit, message):
        # One reader checks the sweep config and its nested train config
        # (the unknown-key and sweep-level type tests above cover the rest);
        # each message names the level it refuses.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepSpec.from_json_dict(edit(self.make().to_json_dict()))

    def test_missing_required_key_rejected(self):
        data = self.make().to_json_dict()
        del data["seeds"]
        with pytest.raises(ValueError, match="missing required key"):
            SweepSpec.from_json_dict(data)

    def test_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            self.make(seeds=(1, 1))
        with pytest.raises(ValueError, match="distinct"):
            self.make(m_values=(2, 2))
        with pytest.raises(ValueError, match="non-empty"):
            self.make(methods=())
        with pytest.raises(ValueError, match="infonce"):
            self.make(methods=(Method.INFONCE,), m_values=(2, 3))
        with pytest.raises(ValueError, match="jobs"):
            self.make(jobs=0)
        with pytest.raises(ValueError, match="eval_batches 65537 exceeds"):
            SweepSpec.from_json_dict({**self.make().to_json_dict(), "eval_batches": 65537})

    def test_duplicate_methods_refused(self):
        # Both runs would write geometric_m02_seed0000.csv.
        data = {**self.make().to_json_dict(), "methods": ["geometric", "geometric"],
                "m_values": [2], "seeds": [0]}
        with pytest.raises(ValueError, match="distinct: two runs would write "
                                             "geometric_m02_seed0000.csv$"):
            SweepSpec.from_json_dict(data)


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """A completed four-run sweep shared by the sweep and aggregate tests.

    Mutating tests must leave every run file complete again on exit.
    """
    out = str(tmp_path_factory.mktemp("sweep"))
    sweep = SweepSpec(
        methods=(Method.ARITHMETIC_PVC, Method.MULTICROP),
        m_values=(2,),
        seeds=(0, 1),
        k=8,
        train=TrainConfig(epochs=2),
        eval_batches=2,
    )
    results = run_sweep(sweep, out)
    assert [r.status for r in results] == ["ran"] * 4
    return sweep, out


class TestRunSweep:
    def test_fingerprint_file_is_passed_by(self, sweep_dir):
        sweep, out = sweep_dir
        before = aggregate(out).to_csv_text()
        path = os.path.join(out, FINGERPRINT_NAME)
        text = json.dumps({"machine": {}, "digests": {"multicrop_m04": "0" * 64}})
        with open(path, "w") as fh:
            fh.write(text)
        try:
            assert [r.status for r in run_sweep(sweep, out)] == ["cached"] * 4
            assert aggregate(out).to_csv_text() == before
            with open(path) as fh:
                assert fh.read() == text
        finally:
            os.remove(path)

    def test_paths_and_config_echo(self, sweep_dir):
        sweep, out = sweep_dir
        names = sorted(n for n in os.listdir(out) if n.endswith(".csv"))
        assert names == [
            "arithmetic_m02_seed0000.csv",
            "arithmetic_m02_seed0001.csv",
            "multicrop_m02_seed0000.csv",
            "multicrop_m02_seed0001.csv",
        ]
        for spec in sweep.expand():
            assert os.path.basename(run_path(out, spec)) in names
        with open(os.path.join(out, "sweep.json")) as fh:
            meta = json.load(fh)
        protocol = meta.pop("eval_protocol")
        assert "held-out" in protocol
        assert meta == sweep.to_json_dict()

    def test_second_invocation_is_fully_cached(self, sweep_dir):
        sweep, out = sweep_dir
        path = run_path(out, sweep.expand()[0])
        with open(path, "rb") as fh:
            before = fh.read()
        results = run_sweep(sweep, out)
        assert [r.status for r in results] == ["cached"] * 4
        with open(path, "rb") as fh:
            assert fh.read() == before

    def test_deleted_run_regenerates_byte_identical(self, sweep_dir):
        sweep, out = sweep_dir
        path = run_path(out, sweep.expand()[0])
        with open(path, "rb") as fh:
            before = fh.read()
        os.remove(path)
        results = run_sweep(sweep, out)
        assert sorted(r.status for r in results) == ["cached"] * 3 + ["ran"]
        with open(path, "rb") as fh:
            assert fh.read() == before

    def test_incomplete_run_is_rerun(self, sweep_dir):
        sweep, out = sweep_dir
        path = run_path(out, sweep.expand()[-1])
        with open(path) as fh:
            lines = fh.readlines()
        with open(path, "w") as fh:
            fh.writelines(lines[:2])  # header plus the epoch-0 row
        results = run_sweep(sweep, out)
        assert sorted(r.status for r in results) == ["cached"] * 3 + ["ran"]
        assert read_csv_rows(path)[-1].epoch == 2

    def test_directory_with_other_settings_is_refused(self, tmp_path):
        out = str(tmp_path)
        first = SweepSpec(methods=(Method.GEOMETRIC_PVC,), m_values=(2,), seeds=(0,),
                          k=16, tau=0.5, train=TrainConfig(epochs=2), eval_batches=1)
        (result,) = run_sweep(first, out)
        assert result.status == "ran"
        saved = {name: (tmp_path / name).read_bytes() for name in os.listdir(out)}
        second = SweepSpec(methods=(Method.GEOMETRIC_PVC,), m_values=(2,), seeds=(0,),
                           k=32, tau=0.1, train=TrainConfig(epochs=2), eval_batches=1)
        with pytest.raises(ValueError, match=r"\(k, tau differ\); use a fresh directory"):
            run_sweep(second, out)
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(out)} == saved
        # Shared settings equal: more methods, views and seeds may join.
        wider = SweepSpec(methods=(Method.GEOMETRIC_PVC, Method.MULTICROP), m_values=(2,),
                          seeds=(0, 1), k=16, tau=0.5, train=TrainConfig(epochs=2),
                          eval_batches=1, jobs=2)
        assert sorted(r.status for r in run_sweep(wider, out)) == ["cached"] + ["ran"] * 3

    def test_unreadable_sweep_json_is_refused(self, tmp_path):
        (tmp_path / "sweep.json").write_text('{"k": 8')
        sweep = SweepSpec(methods=(Method.MULTICROP,), m_values=(2,), seeds=(0,), k=8,
                          train=TrainConfig(epochs=1), eval_batches=1)
        with pytest.raises(ValueError, match="sweep.json is not valid JSON"):
            run_sweep(sweep, str(tmp_path))
        assert os.listdir(tmp_path) == ["sweep.json"]

    def test_sweep_json_that_is_not_an_object_is_refused(self, tmp_path):
        (tmp_path / "sweep.json").write_text("[1]\n")
        sweep = SweepSpec(methods=(Method.MULTICROP,), m_values=(2,), seeds=(0,), k=8,
                          train=TrainConfig(epochs=1), eval_batches=1)
        with pytest.raises(ValueError, match="sweep.json does not hold a JSON dict"):
            run_sweep(sweep, str(tmp_path))
        assert os.listdir(tmp_path) == ["sweep.json"]

    @pytest.mark.parametrize("text, match", [
        ('[{"path": "x", "mess', "is not valid JSON"),
        ("[{}]", "is not a list of"),
        ('[{"path": "x", "message": 3}]', "is not a list of"),
        ('{"a": 1}', "does not hold a JSON list"),
    ], ids=["truncated", "empty-entry", "non-string", "object"])
    def test_malformed_failures_json_is_refused_before_any_run(self, tmp_path, text, match):
        (tmp_path / "failures.json").write_text(text)
        sweep = SweepSpec(methods=(Method.MULTICROP,), m_values=(2,), seeds=(0,), k=8,
                          train=TrainConfig(epochs=1), eval_batches=1)
        with pytest.raises(ValueError, match=f"^{tmp_path / 'failures.json'} {match}"):
            run_sweep(sweep, str(tmp_path))
        assert os.listdir(tmp_path) == ["failures.json"]

    def test_whole_file_write_keeps_the_old_file_on_failure(self, tmp_path):
        path = tmp_path / "failures.json"
        path.write_text("[]\n")
        with pytest.raises(TypeError):
            harness._write_whole(str(path), None)
        assert path.read_text() == "[]\n"
        assert os.listdir(tmp_path) == ["failures.json"]

    def test_sweep_writes_every_file_whole(self, tmp_path, monkeypatch):
        # The run CSVs, partial records, sweep.json and failures.json all go
        # through one .tmp + os.replace helper.
        written, write_whole, train = [], harness._write_whole, harness.run_training

        def recorded(path, text):
            written.append(os.path.basename(path))
            write_whole(path, text)

        def fail_geometric(spec):
            if spec.method is Method.GEOMETRIC_PVC:
                self.failing_training(spec)
            return train(spec)

        monkeypatch.setattr(harness, "_write_whole", recorded)
        monkeypatch.setattr(harness, "run_training", fail_geometric)
        sweep = SweepSpec(methods=(Method.GEOMETRIC_PVC, Method.MULTICROP), m_values=(2,),
                          seeds=(0,), k=8, train=TrainConfig(epochs=1), eval_batches=1)
        assert [r.status for r in run_sweep(sweep, str(tmp_path))] == ["failed", "ran"]
        assert written == ["sweep.json", "geometric_m02_seed0000.csv.partial",
                           "multicrop_m02_seed0000.csv", "failures.json"]
        assert sorted(os.listdir(tmp_path)) == sorted(written)

    def test_jobs_do_not_change_bytes(self, tmp_path):
        sweep = SweepSpec(methods=(Method.SUFFSTATS, Method.MULTICROP), m_values=(3,),
                          seeds=(0,), k=8, train=TrainConfig(epochs=2), eval_batches=1)
        texts = []
        for jobs in (1, 2):
            results = run_sweep(replace(sweep, jobs=jobs), str(tmp_path / f"jobs{jobs}"))
            assert [r.status for r in results] == ["ran", "ran"]
            texts.append([Path(r.path).read_bytes() for r in results])
        assert texts[0] == texts[1]

    def test_failed_run_leaves_partial_and_failures_json(self, tmp_path):
        out = str(tmp_path)
        sweep = SweepSpec(
            methods=(Method.GEOMETRIC_PVC,),
            m_values=(2,),
            seeds=(0,),
            k=8,
            train=TrainConfig(learning_rate=1e200, epochs=4),
            eval_batches=1,
            record_stride=50,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            (result,) = run_sweep(sweep, out)
        assert result.status == "failed"
        assert "numerical failure" in result.message
        partial = result.path + ".partial"
        assert os.path.exists(partial)
        assert not os.path.exists(result.path)
        assert [r.epoch for r in read_csv_rows(partial)] == [0]
        with open(os.path.join(out, "failures.json")) as fh:
            failures = json.load(fh)
        assert failures == [{"message": result.message, "path": result.path}]
        # partial output is not a usable run file
        with pytest.raises(ValueError, match="no run CSV files"):
            aggregate(out)

    @staticmethod
    def failing_training(spec):
        raise NumericalFailure("numerical failure at epoch 0: injected",
                               RunRecord(spec=spec, rows=()))

    def test_completed_run_clears_its_failure(self, tmp_path, monkeypatch):
        # A run that failed and then completed leaves neither its partial
        # record nor a failures.json naming it.
        out = str(tmp_path)
        sweep = SweepSpec(methods=(Method.GEOMETRIC_PVC,), m_values=(2,), seeds=(0,), k=8,
                          train=TrainConfig(epochs=1), eval_batches=1)
        with monkeypatch.context() as patched:
            patched.setattr(harness, "run_training", self.failing_training)
            (failed,) = run_sweep(sweep, out)
        assert failed.status == "failed"
        assert os.path.exists(failed.path + ".partial")
        assert os.path.exists(os.path.join(out, "failures.json"))
        (result,) = run_sweep(sweep, out)
        assert result.status == "ran"
        assert sorted(os.listdir(out)) == ["geometric_m02_seed0000.csv", "sweep.json"]

    def test_other_sweeps_keep_failure_entries(self, tmp_path, monkeypatch):
        out = str(tmp_path)
        one = SweepSpec(methods=(Method.GEOMETRIC_PVC,), m_values=(2,), seeds=(0,), k=8,
                        train=TrainConfig(epochs=1), eval_batches=1)
        two = replace(one, methods=(Method.MULTICROP,))
        with monkeypatch.context() as patched:
            patched.setattr(harness, "run_training", self.failing_training)
            (failed,) = run_sweep(one, out)
        assert [r.status for r in run_sweep(two, out)] == ["ran"]
        with open(os.path.join(out, "failures.json")) as fh:
            assert json.load(fh) == [{"message": failed.message, "path": failed.path}]
        assert os.path.exists(failed.path + ".partial")
        assert [r.status for r in run_sweep(one, out)] == ["ran"]
        assert not os.path.exists(os.path.join(out, "failures.json"))


class TestAggregate:
    def test_groups_means_and_stds(self, sweep_dir):
        sweep, out = sweep_dir
        table = aggregate(out)
        groups = table.by_group()
        assert set(groups) == {("arithmetic", 2), ("multicrop", 2)}
        for (method, m), row in groups.items():
            finals = [
                read_csv_rows(run_path(out, spec))[-1]
                for spec in sweep.expand()
                if spec.method.value == method
            ]
            assert row.n_seeds == 2
            assert not row.single_seed
            gaps = np.array([f.gap for f in finals])
            assert row.gap_mean == pytest.approx(gaps.mean(), abs=1e-15)
            assert row.gap_std == pytest.approx(gaps.std(ddof=1), abs=1e-15)
            bounds = np.array([f.bound for f in finals])
            assert row.bound_mean == pytest.approx(bounds.mean(), abs=1e-15)

    def test_csv_text(self, sweep_dir):
        _, out = sweep_dir
        lines = aggregate(out).to_csv_text().splitlines()
        assert lines[0].startswith("method,m,n_seeds,bound_mean")
        assert len(lines) == 3
        assert all(len(line.split(",")) == 10 for line in lines)

    def test_gnuplot_text_blocks(self, sweep_dir):
        _, out = sweep_dir
        text = aggregate(out).to_gnuplot_text()
        assert text.startswith("# method m n_seeds")
        assert "# method=arithmetic\n" in text
        assert "\n\n\n# method=multicrop\n" in text  # blank-line block break
        data_lines = [
            line for line in text.splitlines() if line and not line.startswith("#")
        ]
        assert len(data_lines) == 2
        assert all(len(line.split()) == 9 for line in data_lines)

    def test_single_seed_group_is_flagged(self, tmp_path):
        record = run_training(tiny_spec(train=TrainConfig(epochs=2)))
        record.write(str(tmp_path / "arithmetic_m02_seed0000.csv"))
        (row,) = aggregate(str(tmp_path)).rows
        assert row.n_seeds == 1
        assert row.single_seed
        assert row.gap_std == 0.0 and row.bound_std == 0.0
        if row.relative_mi_mean is not None:
            assert row.relative_mi_std == 0.0

    @pytest.mark.parametrize("second, name", [
        (dict(k=16, seed=1), "b.csv"), (dict(train=TrainConfig(epochs=3), seed=1), "b.csv"),
        ({}, "copy.csv"), (dict(sigma_sq=0.5, seed=1), "b.csv"),
        (dict(sigma0_sq=2.0, seed=1), "b.csv")],
        ids=["mixed-k", "mixed-final-epoch", "repeated-seed", "mixed-sigma-sq",
             "mixed-sigma0-sq"])
    def test_mixed_group_refused(self, tmp_path, second, name):
        # One (method, M) group must hold one K, one final epoch, one true MI
        # and distinct seeds; otherwise its means would mix runs of other
        # settings. At sigma_sq = 0.25 and 0.5 the true MI reads 0.5108 and
        # 0.2939, and the two runs used to make one row with n_seeds 2.
        first = tiny_spec(method=Method.GEOMETRIC_PVC, train=TrainConfig(epochs=2))
        run_training(first).write(str(tmp_path / "a.csv"))
        run_training(replace(first, **second)).write(str(tmp_path / name))
        with pytest.raises(ValueError, match=r"the geometric M = 2 runs mix K, final epochs or "
                                             r"true MI, or repeat a seed$"):
            aggregate(str(tmp_path))

    def test_empty_dir_rejected(self, tmp_path):
        (tmp_path / "sweep.json").write_text("{}\n")
        (tmp_path / "x.csv.partial").write_text("junk\n")
        with pytest.raises(ValueError, match="no run CSV files"):
            aggregate(str(tmp_path))


class TestVarianceStudy:
    def test_rejects_too_few_batches(self):
        with pytest.raises(ValueError, match="at least 32"):
            variance_study(tiny_spec(m=3, k=64), n_batches=31)

    def test_smoke_report(self):
        spec = tiny_spec(method=Method.MULTICROP, m=3, k=64)
        report = variance_study(spec, n_batches=32)
        assert (report.m, report.k, report.n_batches) == (3, 64, 32)
        assert report.var_multicrop > 0 and report.var_pair > 0
        assert report.ratio == pytest.approx(
            report.var_multicrop / report.var_pair, rel=1e-9
        )
        assert report.ci_low <= report.ratio <= report.ci_high
        assert report.theoretical_factor == variance_bound_factor(3)
        lines = report.lines()
        assert len(lines) == 5
        assert "M=3" in lines[0] and "ratio" in lines[3]
        assert variance_study(spec, n_batches=32) == report  # deterministic

    def test_bootstrap_holds_one_draw_at_a_time(self):
        # All 2000 bootstrap draws at once held 24 bytes per drawn batch:
        # 5.9 MiB here, 2.9 GiB at 65,536 batches.
        spec = tiny_spec(method=Method.MULTICROP, m=2, k=4)
        tracemalloc.start()
        try:
            variance_study(spec, n_batches=128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("tau,seed,rel", [
        (0.5, 0, 1e-12), (1e8, 0, 1e-3), (1e8, 2, 1e-3), (1e10, 3, 1e-3), (1e12, 3, 1e-3)])
    def test_total_ratio_matches_two_pass_reference(self, tau, seed, rel):
        # At a large tau the losses spread by about 1/tau around ln(B - M + 1):
        # E[L^2] - E[L]^2 gave total ratios of -2, -1 and -0.5 at these
        # (tau, seed), and refused tau = 1e8 at seed 2.
        spec = RunSpec(method=Method.MULTICROP, m=3, k=16, tau=tau, seed=seed)
        params = init_params(streams.stream(seed, streams.INIT))
        mc, pair = [], []
        for i in range(32):
            batch = sample_batch(spec.gaussian(), streams.stream(seed, streams.STUDY, a=i + 1))
            z = forward(params, batch.views)
            mc.append(compute_loss(Method.MULTICROP, z, tau).per_sample)
            pair.append(loss_pair_infonce(z, 0, 1, tau).per_sample)
        want = np.var(np.concatenate(mc), ddof=1) / np.var(np.concatenate(pair), ddof=1)
        report = variance_study(spec, n_batches=32)
        assert report.total_ratio > 0
        assert report.total_ratio == pytest.approx(want, rel=rel)


class TestValidityStudy:
    def test_rejects_too_few_batches(self):
        with pytest.raises(ValueError, match="at least 2"):
            validity_study(tiny_spec(k=16), n_batches=1)

    def test_two_view_case_coincides_exactly(self):
        # at M=2 the sub-batch for beta=1 is the whole batch, so the M-view
        # and mean-pairwise gaps are the same number
        report = validity_study(tiny_spec(m=2, k=16), n_batches=4)
        assert report.gap_m == report.mean_pairwise_gap
        assert report.diff == 0.0
        assert report.diff_stderr == 0.0

    def test_smoke_report(self):
        spec = tiny_spec(method=Method.GEOMETRIC_PVC, m=3, k=16)
        report = validity_study(spec, n_batches=4)
        assert (report.method, report.m, report.k, report.n_batches) == (
            "geometric",
            3,
            16,
            4,
        )
        for value in (report.gap_m, report.mean_pairwise_gap, report.diff):
            assert math.isfinite(value)
        assert report.diff == pytest.approx(
            report.gap_m - report.mean_pairwise_gap, abs=1e-12
        )
        assert "method=geometric" in report.lines()[0]


class TestStudiesOverTheTauDomain:
    """Every accepted tau, its log drawn from [ln MIN_TAU, ln of the largest
    double], gives finite study figures or a ValueError, and finite training
    rows or a NumericalFailure."""

    @settings(max_examples=30, deadline=None)
    @given(log_tau=st.floats(math.log(losses.MIN_TAU), math.log(sys.float_info.max)),
           k=st.integers(2, 4), m=st.integers(2, 3), seed=st.integers(0, 99),
           method=st.sampled_from(list(Method)))
    def test_finite_or_refused(self, log_tau, k, m, seed, method):
        spec = tiny_spec(method=method, m=2 if method is Method.INFONCE else m, k=k,
                         seed=seed, tau=max(losses.MIN_TAU, math.exp(log_tau)))
        for study, n_batches in ((variance_study, 32), (validity_study, 3)):
            try:
                report = study(spec, n_batches)
            except ValueError:
                continue
            figures = [v for v in vars(report).values() if isinstance(v, float)]
            assert np.isfinite(figures).all(), report

    @settings(max_examples=30, deadline=None)
    @given(log_tau=st.floats(math.log(losses.MIN_TAU), math.log(sys.float_info.max)),
           k=st.integers(2, 4), m=st.integers(2, 3), seed=st.integers(0, 99),
           method=st.sampled_from(list(Method)))
    def test_training_rows_finite_or_numerical_failure(self, log_tau, k, m, seed, method):
        spec = tiny_spec(method=method, m=2 if method is Method.INFONCE else m, k=k, seed=seed,
                         tau=max(losses.MIN_TAU, math.exp(log_tau)),
                         train=TrainConfig(epochs=2), eval_batches=2)
        try:
            record = run_training(spec)
        except NumericalFailure:
            return
        assert [row.epoch for row in record.rows] == [0, 1, 2]
        figures = [v for row in record.rows for v in vars(row).values() if isinstance(v, float)]
        assert np.isfinite(figures).all(), record.rows


# A kernel call inside a batch task with more than one view tile: at K = 16,
# blocks of sixteen rows make one view per tile.
TASK_ROW_BLOCK = 16
WIDTHS = [1, 2, 4]


def at_widths(monkeypatch, compute):
    """compute() at each pool width of WIDTHS, with short switch intervals
    under threads, and the number of items each width's pool ran."""
    monkeypatch.setattr(losses, "_ROW_BLOCK", TASK_ROW_BLOCK)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return [at_width(monkeypatch, width, compute) for width in WIDTHS]
    finally:
        sys.setswitchinterval(interval)


class TestBatchTasks:
    """Independent batches run as tasks on the tile pool; no output bit
    depends on its width."""

    @pytest.mark.parametrize("method", [Method.MULTICROP, Method.GEOMETRIC_PVC, Method.SUFFSTATS])
    def test_eval_row_equals_serial_loop(self, monkeypatch, method):
        spec = tiny_spec(method=method, m=3, k=16, eval_batches=5)
        params = init_params(streams.stream(0, streams.TEST, a=5))
        monkeypatch.setattr(losses, "_ROW_BLOCK", TASK_ROW_BLOCK)
        losses_by_batch = []
        for j in range(spec.eval_batches):
            batch = sample_batch(spec.gaussian(),
                                 streams.stream(spec.seed, streams.EVAL_BATCH, a=3, b=j))
            losses_by_batch.append(compute_loss(method, forward(params, batch.views), spec.tau).total)
        want = float(np.mean(losses_by_batch))
        for width, (row, ran) in zip(WIDTHS, at_widths(
                monkeypatch, lambda: harness._eval_row(spec, params, 3, 0.25))):
            assert row.eval_loss.hex() == want.hex()
            assert row.bound == bound_from_loss(method, want, spec.k, spec.m)
            # One task per batch; the kernel calls inside them submit nothing.
            assert ran == (spec.eval_batches if width > 1 else 0)

    @pytest.mark.parametrize("method", [Method.ARITHMETIC_PVC, Method.SUFFSTATS])
    def test_run_training_same_bytes_at_every_width(self, monkeypatch, method):
        spec = tiny_spec(method=method, m=3, k=16, eval_batches=3)
        runs = at_widths(monkeypatch, lambda: run_training(spec).to_csv_text())
        assert len({text for text, _ in runs}) == 1
        assert [ran > 0 for _, ran in runs] == [False, True, True]

    def test_variance_report_equals_serial_at_every_width(self, monkeypatch):
        # The serial loop gave these at the same tile size.
        want = harness.VarianceReport(
            m=3, k=16, n_batches=32, var_multicrop=0.035662912458595444,
            var_pair=0.0700387323191826, ratio=0.5091884344232753,
            ci_low=0.41366748993972546, ci_high=0.6327312160796791,
            theoretical_factor=0.5555555555555556, total_ratio=0.6291077793977875)
        spec = RunSpec(method=Method.MULTICROP, m=3, k=16)
        for report, _ in at_widths(monkeypatch, lambda: variance_study(spec, 32)):
            assert report == want

    @pytest.mark.parametrize("method,want", [
        (Method.GEOMETRIC_PVC, (0.3416283560571837, 0.24026538613066512,
                                0.10136296992651854, 0.005318207151279104)),
        (Method.SUFFSTATS, (0.31266230275405227, 0.24026538613066512,
                            0.07239691662338715, 0.00505063052294103)),
    ])
    def test_validity_report_equals_serial_at_every_width(self, monkeypatch, method, want):
        # The serial loop gave these at the same tile size. 13 batches: the
        # pairwise sum of 8 values has the same bits in either order.
        spec = RunSpec(method=method, m=3, k=16)
        for report, _ in at_widths(monkeypatch, lambda: validity_study(spec, 13)):
            assert (report.gap_m, report.mean_pairwise_gap, report.diff,
                    report.diff_stderr) == want

    def test_error_state_reaches_tasks(self, monkeypatch):
        seen = []

        def recording_loss(method, z, tau):
            seen.append((threading.current_thread() is threading.main_thread(), np.geterr()))
            return compute_loss(method, z, tau)

        monkeypatch.setattr(harness, "compute_loss", recording_loss)
        spec = tiny_spec(method=Method.GEOMETRIC_PVC, m=3, k=16, eval_batches=4)
        params = init_params(streams.stream(spec.seed, streams.INIT))
        with np.errstate(all="raise"):
            wanted = np.geterr()
            at_width(monkeypatch, 2, lambda: harness._eval_row(spec, params, 0, None))
        assert len(seen) == 4 and not any(on_main for on_main, _ in seen)
        assert all(state == wanted for _, state in seen)

    @pytest.mark.parametrize("width", [1, 2])
    def test_first_failing_batch_in_order_wins(self, monkeypatch, width):
        # Batch 1 fails late and batch 3 at once: batch 1's error is raised.
        real_stream = streams.stream

        def failing_stream(seed, purpose, a=0, b=0):
            if purpose == streams.EVAL_BATCH and b in (1, 3):
                if b == 1:
                    time.sleep(0.2)
                raise _NumericalError(f"batch {b} failed")
            return real_stream(seed, purpose, a=a, b=b)

        monkeypatch.setattr(streams, "stream", failing_stream)
        spec = tiny_spec(method=Method.GEOMETRIC_PVC, m=3, k=16, eval_batches=4)
        with pytest.raises(NumericalFailure, match="epoch 0: batch 1 failed"):
            at_width(monkeypatch, width, lambda: run_training(spec))


class TestCheckSuites:
    def test_suites_run_the_acceptance_criteria(self):
        assert {suite: [check.__name__ for check in checks]
                for suite, checks in harness.CHECK_SUITES.items()} == {
            "oracles": ["criterion_01"],
            "grads": ["criterion_02"],
            "identities": ["criterion_03a", "criterion_03c"],
            "invariants": ["criterion_04", "criterion_05"],
        }

    # grads (criterion 02, the slowest) already runs once in the acceptance tests
    @pytest.mark.parametrize("suite", ["oracles", "identities", "invariants"])
    def test_suite_passes(self, suite):
        for criterion in harness.CHECK_SUITES[suite]:
            name, ok, detail = criterion()
            assert ok, f"criterion {name}: {detail}"


class TestTrainingSanity:
    def test_training_pulls_eval_loss_below_collapse(self):
        spec = tiny_spec(
            k=128,
            train=TrainConfig(epochs=150),
            record_stride=150,
            eval_batches=8,
        )
        record = run_training(spec)
        first, last = record.rows[0], record.rows[-1]
        collapse = math.log(2 * 128 - 2 + 1)
        assert last.eval_loss < first.eval_loss
        assert last.eval_loss < collapse - 0.05
        assert last.bound > 0
        assert last.relative_mi is not None
