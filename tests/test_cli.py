"""Command-line interface: argument handling, exit codes, and output files.

Exit code contract: 0 success, 1 usage error, 2 numerical failure,
3 self-check suite failure.
"""

import errno
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polyview import cli, harness
from polyview.cli import main
from polyview.harness import (
    CheckResult,
    NumericalFailure,
    RunRecord,
    RunRow,
    RunSpec,
    read_csv_rows,
    run_training,
)
from polyview.losses import Method
from polyview.tinynn import TrainConfig


def make_row(**kw) -> RunRow:
    defaults = dict(
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
    defaults.update(kw)
    return RunRow(**defaults)


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "COMMAND" in capsys.readouterr().out

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_argument(self, capsys):
        assert main(["train", "--method", "arithmetic"]) == 1
        assert "error:" in capsys.readouterr().err


class TestGaussianMi:
    def test_table(self, capsys):
        code = main(
            ["gaussian-mi", "--sigma0-sq", "1", "--sigma-sq", "0.25", "--m-max", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "InfoMax limit" in out
        # frozen closed-form values at the default world
        assert "0.510825623766" in out  # M=2
        assert "0.670586962920" in out  # M=4
        data_lines = [l for l in out.splitlines() if l.strip().startswith(("2", "3", "4"))]
        assert len(data_lines) == 3
        for line in data_lines:
            assert float(line.split()[-1]) < 1e-9  # closed form vs matrix KL

    def test_m_beyond_matrix_oracle_is_labeled(self, capsys):
        assert main(
            ["gaussian-mi", "--sigma0-sq", "1", "--sigma-sq", "1", "--m-max", "65"]
        ) == 0
        assert "beyond matrix oracle" in capsys.readouterr().out

    def test_m_max_too_small(self, capsys):
        assert main(
            ["gaussian-mi", "--sigma0-sq", "1", "--sigma-sq", "1", "--m-max", "1"]
        ) == 1
        assert "--m-max" in capsys.readouterr().err


class TestTrain:
    def test_writes_csv_and_summary_line(self, tmp_path, capsys):
        out = str(tmp_path / "run.csv")
        code = main(
            [
                "train", "--method", "geometric", "--m", "2", "--k", "8",
                "--epochs", "2", "--eval-batches", "2", "--out", out,
            ]
        )
        assert code == 0
        assert [r.epoch for r in read_csv_rows(out)] == [0, 1, 2]
        text = capsys.readouterr().out
        assert "wrote" in text and "bound=" in text and "gap=" in text

    def test_stride_flag(self, tmp_path, capsys):
        out = str(tmp_path / "run.csv")
        assert main(
            [
                "train", "--method", "multicrop", "--m", "2", "--k", "8",
                "--epochs", "3", "--eval-batches", "1", "--stride", "2",
                "--out", out,
            ]
        ) == 0
        assert [r.epoch for r in read_csv_rows(out)] == [0, 2, 3]

    def test_matches_library_run_byte_for_byte(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(
            [
                "train", "--method", "suffstats", "--m", "3", "--k", "8",
                "--epochs", "2", "--eval-batches", "2", "--seed", "4",
                "--out", str(out),
            ]
        ) == 0
        spec = RunSpec(
            method=Method.SUFFSTATS,
            m=3,
            k=8,
            train=TrainConfig(epochs=2),
            seed=4,
            eval_batches=2,
        )
        assert out.read_text() == run_training(spec).to_csv_text()

    def test_invalid_combination_is_usage_error(self, tmp_path, capsys):
        assert main(
            [
                "train", "--method", "infonce", "--m", "3", "--k", "8",
                "--epochs", "1", "--out", str(tmp_path / "x.csv"),
            ]
        ) == 1
        assert "infonce" in capsys.readouterr().err

    def test_eval_batches_beyond_stream_range_refused_before_training(self, tmp_path,
                                                                      capsys, monkeypatch):
        def never(_spec):
            raise AssertionError("trained despite eval batches beyond the stream range")

        monkeypatch.setattr(cli, "run_training", never)
        assert main(
            ["train", "--method", "geometric", "--m", "2", "--k", "8",
             "--eval-batches", "65537", "--out", str(tmp_path / "run.csv")]
        ) == 1
        assert "eval_batches 65537 exceeds" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_missing_output_directory_refused_before_training(self, tmp_path, capsys,
                                                             monkeypatch):
        def never(_spec):
            raise AssertionError("trained despite a missing output directory")

        monkeypatch.setattr(cli, "run_training", never)
        out = tmp_path / "missing_dir" / "run.csv"
        assert main(
            ["train", "--method", "geometric", "--m", "2", "--k", "8", "--out", str(out)]
        ) == 1
        assert "error: train: the directory of --out" in capsys.readouterr().err
        assert not (tmp_path / "missing_dir").exists()

    @pytest.mark.parametrize("suffix", ["", os.sep])
    def test_directory_out_refused_before_training(self, tmp_path, capsys, monkeypatch,
                                                   suffix):
        def never(_spec):
            raise AssertionError("trained despite an --out that is a directory")

        monkeypatch.setattr(cli, "run_training", never)
        out = tmp_path / "runs"
        out.mkdir()
        assert main(
            ["train", "--method", "geometric", "--m", "2", "--k", "8",
             "--out", str(out) + suffix]
        ) == 1
        assert "is a directory" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["runs"]
        assert not os.listdir(out)

    def test_numerical_failure_exits_2_with_partial(self, tmp_path, capsys, monkeypatch):
        out = str(tmp_path / "boom.csv")
        spec = RunSpec(method=Method.ARITHMETIC_PVC, m=2, k=8, train=TrainConfig(epochs=3))
        record = RunRecord(spec=spec, rows=(make_row(),))

        def explode(_spec):
            raise NumericalFailure("numerical failure at epoch 3: boom", record)

        monkeypatch.setattr(cli, "run_training", explode)
        code = main(
            [
                "train", "--method", "arithmetic", "--m", "2", "--k", "8",
                "--epochs", "3", "--out", out,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "epoch 3" in err and "partial record" in err
        assert read_csv_rows(out) == [make_row()]

    def test_epoch0_failure_exits_2_with_empty_record(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--method", "geometric", "--m", "3", "--k", "8",
                         "--epochs", "2", "--sigma0-sq", "1e308", "--out", out])
        assert code == 2
        assert "numerical failure at epoch 0" in capsys.readouterr().err
        assert read_csv_rows(out) == []


@pytest.fixture
def sweep_config(tmp_path):
    config = {
        "methods": ["arithmetic"],
        "m_values": [2],
        "seeds": [0, 1],
        "k": 8,
        "train": {"epochs": 2},
        "eval_batches": 2,
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    return path, config


class TestSweep:
    def test_run_then_cached(self, tmp_path, capsys, sweep_config):
        config_path, _ = sweep_config
        out = str(tmp_path / "runs")
        args = ["sweep", "--config", str(config_path), "--out", out]
        assert main(args) == 0
        text = capsys.readouterr().out
        assert text.count("[ran]") == 2
        assert "sweep complete: 2 ran, 0 cached, 0 failed" in text
        assert main(args) == 0
        assert "sweep complete: 0 ran, 2 cached, 0 failed" in capsys.readouterr().out

    def test_jobs_override(self, tmp_path, capsys, sweep_config):
        config_path, config = sweep_config
        out = str(tmp_path / "runs")
        assert main(
            ["sweep", "--config", str(config_path), "--jobs", "2", "--out", out]
        ) == 0
        with open(f"{out}/sweep.json") as fh:
            assert json.load(fh)["jobs"] == 2

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(
            ["sweep", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        ) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["sweep", "--config", str(bad), "--out", str(tmp_path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_config_not_an_object(self, tmp_path, capsys):
        config_path = tmp_path / "sweep.json"
        config_path.write_text('["multicrop"]')
        assert main(["sweep", "--config", str(config_path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: sweep config must be a JSON object\n"

    @pytest.mark.parametrize("text", ['[{"path": "x", "mess', "[{}]", '{"a": 1}'],
                             ids=["truncated", "empty-entry", "object"])
    def test_malformed_failures_json_is_refused(self, tmp_path, capsys, sweep_config, text):
        config_path, _ = sweep_config
        out = tmp_path / "runs"
        out.mkdir()
        (out / "failures.json").write_text(text)
        assert main(["sweep", "--config", str(config_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {out / 'failures.json'} ")
        assert "Traceback" not in captured.err and captured.out == ""
        assert os.listdir(out) == ["failures.json"]

    def test_unknown_config_key(self, tmp_path, capsys, sweep_config):
        config_path, config = sweep_config
        config["mystery"] = True
        config_path.write_text(json.dumps(config))
        assert main(
            ["sweep", "--config", str(config_path), "--out", str(tmp_path / "runs")]
        ) == 1
        assert "unknown sweep config keys" in capsys.readouterr().err

    def test_wrong_value_type_is_usage_error(self, tmp_path, capsys):
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(
            {"methods": ["multicrop"], "m_values": [2], "seeds": [0], "k": "8"}
        ))
        assert main(
            ["sweep", "--config", str(config_path), "--out", str(tmp_path / "runs")]
        ) == 1
        assert "error: sweep config key 'k' must be int" in capsys.readouterr().err

    def test_failed_run_exits_2(self, tmp_path, capsys):
        config = {
            "methods": ["geometric"],
            "m_values": [2],
            "seeds": [0],
            "k": 8,
            "train": {"learning_rate": 1e200, "epochs": 3},
            "eval_batches": 1,
            "record_stride": 50,
        }
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(config))
        out = str(tmp_path / "runs")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["sweep", "--config", str(config_path), "--out", out])
        assert code == 2
        text = capsys.readouterr().out
        assert "[failed]" in text and "0 ran, 0 cached, 1 failed" in text

    def test_epoch0_failure_is_recorded(self, tmp_path, capsys):
        config = {"methods": ["geometric"], "m_values": [3], "seeds": [0], "k": 8,
                  "sigma0_sq": 1e308, "train": {"epochs": 2}, "eval_batches": 2}
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "runs"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["sweep", "--config", str(config_path), "--out", str(out)])
        assert code == 2
        assert "0 ran, 0 cached, 1 failed" in capsys.readouterr().out
        failures = json.loads((out / "failures.json").read_text())
        assert [f["message"].split(":")[0] for f in failures] == ["numerical failure at epoch 0"]


@pytest.fixture
def fake_runs(tmp_path):
    runs = tmp_path / "runs"
    runs.mkdir()
    spec = RunSpec(
        method=Method.MULTICROP, m=2, k=8, train=TrainConfig(epochs=2),
        eval_batches=2,
    )
    run_training(spec).write(str(runs / "multicrop_m02_seed0000.csv"))
    return runs


class TestReport:
    def test_writes_csv_and_gnuplot_sibling(self, tmp_path, capsys, fake_runs):
        out = tmp_path / "summary.csv"
        assert main(["report", "--in", str(fake_runs), "--out", str(out)]) == 0
        assert "(1 groups)" in capsys.readouterr().out
        assert out.read_text().startswith("method,m,n_seeds,")
        dat = tmp_path / "summary.dat"
        assert dat.read_text().startswith("# method m n_seeds")

    def test_out_equal_to_its_dat_path_refused(self, tmp_path, capsys, fake_runs):
        out = tmp_path / "summary.dat"
        assert main(["report", "--in", str(fake_runs), "--out", str(out)]) == 1
        assert "is also the path of its .dat table" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spelling", ["runs/summary.csv", "runs/./summary.csv",
                                          "link/summary.csv"])
    def test_out_inside_input_directory_refused(self, tmp_path, capsys, fake_runs,
                                                spelling):
        # aggregate reads every *.csv of --in, so a summary written there
        # would break every later report of that directory
        (tmp_path / "link").symlink_to(fake_runs)
        before = sorted(os.listdir(fake_runs))
        out = str(tmp_path / spelling)
        assert main(["report", "--in", str(fake_runs), "--out", out]) == 1
        assert "is inside --in, whose CSVs it reads" in capsys.readouterr().err
        assert sorted(os.listdir(fake_runs)) == before

    def test_failed_second_write_keeps_the_previous_files(self, tmp_path, capsys, fake_runs,
                                                          monkeypatch):
        # The disk fills while the .dat table is written: both summary files
        # keep their previous text whole, and no .tmp file is left behind.
        out = tmp_path / "summary.csv"
        args = ["report", "--in", str(fake_runs), "--out", str(out)]
        assert main(args) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.glob("summary*")}

        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        def full_disk_open(path, mode="r", *rest, **kwargs):
            fh = open(path, mode, *rest, **kwargs)
            if "w" not in mode or ".dat" not in os.path.basename(path):
                return fh
            fh.close()  # created or truncated, as by open
            return FullDisk()

        for module in (cli, harness):
            monkeypatch.setattr(module, "open", full_disk_open, raising=False)
        assert main(args) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.glob("summary*")} == before

    def test_missing_input_directory_is_error(self, tmp_path, capsys):
        out = tmp_path / "summary.csv"
        assert main(["report", "--in", str(tmp_path / "missing_dir"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing_dir" in err
        assert not out.exists()

    def test_missing_out_directory_refused_before_reading(self, tmp_path, capsys, fake_runs,
                                                            monkeypatch):
        def no_aggregate(in_dir):
            raise AssertionError("aggregated before checking --out")

        monkeypatch.setattr(cli, "aggregate", no_aggregate)
        out = tmp_path / "nodir" / "x.csv"
        assert main(["report", "--in", str(fake_runs), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: report: the directory of --out {out} does not exist\n")
        assert not out.parent.exists()

    def test_empty_dir_is_usage_error(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        runs.mkdir()
        assert main(
            ["report", "--in", str(runs), "--out", str(tmp_path / "summary.csv")]
        ) == 1
        assert "no run CSV files" in capsys.readouterr().err


class TestFingerprint:
    def test_writes_digests_and_machine(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "step_digests", lambda: {"geometric_m10": "ab" * 32})
        out = tmp_path / "fingerprint.json"
        assert main(["fingerprint", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out} (1 step digests)\n"
        written = json.loads(out.read_text())
        assert written["digests"] == {"geometric_m10": "ab" * 32}
        assert set(written["machine"]) == {"numpy", "blas", "cpu", "nproc"}

    def test_missing_directory_refused(self, tmp_path, capsys):
        out = tmp_path / "missing" / "fingerprint.json"
        assert main(["fingerprint", "--out", str(out)]) == 1
        assert "does not exist" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_report_passes_the_fingerprint_by(self, tmp_path, capsys, fake_runs):
        without = tmp_path / "without.csv"
        assert main(["report", "--in", str(fake_runs), "--out", str(without)]) == 0
        (fake_runs / "fingerprint.json").write_text('{"machine": {}, "digests": {}}')
        beside = tmp_path / "beside.csv"
        assert main(["report", "--in", str(fake_runs), "--out", str(beside)]) == 0
        assert beside.read_bytes() == without.read_bytes()


class TestStudies:
    def test_variance_study_output(self, capsys):
        assert main(["variance", "--m", "3", "--k", "64", "--batches", "32"]) == 0
        out = capsys.readouterr().out
        assert "multi-crop variance study" in out
        assert "theoretical factor" in out

    def test_variance_study_too_few_batches(self, capsys):
        assert main(["variance", "--m", "3", "--k", "64", "--batches", "8"]) == 1
        assert "at least 32" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["variance", "--m", "3", "--k", "16", "--batches", "32"],
        ["validity", "--method", "geometric", "--m", "3", "--k", "16", "--batches", "4"],
    ])
    def test_tau_with_infinite_reciprocal_is_usage_error(self, capsys, command):
        # Such a tau would make both studies print nan for every figure.
        assert main([*command, "--tau", "1e-310"]) == 1
        assert "tau must be a finite real >= 1.34e-138" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["variance", "--m", "3", "--k", "16", "--batches", "32"],
        ["validity", "--method", "geometric", "--m", "3", "--k", "16", "--batches", "8"],
    ])
    def test_tau_whose_squared_losses_overflow_is_usage_error(self, capsys, command):
        # At this tau the variance study printed inf and nan, and the
        # validity study an inf stderr, and both exited 0.
        assert main([*command, "--tau", "1e-160"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: temperature tau must be a finite real >= 1.34e-138" in captured.err
        assert "got 1e-160" in captured.err

    def test_variance_study_without_pair_loss_variance_is_usage_error(self, capsys):
        # At tau = 1e30 every loss is ln K: the variance ratio is 0 / 0.
        assert main(["variance", "--m", "3", "--k", "16", "--batches", "32",
                     "--tau", "1e30"]) == 1
        assert "a variance ratio is not finite at tau = 1e+30" in capsys.readouterr().err

    def test_validity_study_output(self, capsys):
        assert main(
            ["validity", "--method", "arithmetic", "--m", "2", "--k", "16",
             "--batches", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "validity study" in out and "M-view gap" in out


class TestCheck:
    def test_passing_suite_exits_0(self, capsys):
        assert main(["check", "--suite", "identities"]) == 0
        out = capsys.readouterr().out
        assert "suite identities: PASS" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["check", "--suite", "everything"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_prints_each_criterion_and_exits_3_on_failure(self, capsys, monkeypatch):
        def passing():
            return CheckResult("9a", True, "all fine")

        def failing():
            return CheckResult("9b", False, "off by 1.000e-03")

        monkeypatch.setitem(harness.CHECK_SUITES, "identities", (passing, failing))
        assert main(["check", "--suite", "identities"]) == 3
        assert capsys.readouterr().out.splitlines() == [
            "suite identities:",
            "  [ok  ] criterion 9a: all fine",
            "  [FAIL] criterion 9b: off by 1.000e-03",
            "suite identities: FAIL",
        ]


class TestEntryPoints:
    @pytest.mark.skipif(shutil.which("polyview") is None,
                        reason="no polyview executable on PATH (package not installed)")
    def test_console_script(self):
        proc = subprocess.run(
            ["polyview", "gaussian-mi", "--sigma0-sq", "1", "--sigma-sq", "0.25",
             "--m-max", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "InfoMax limit" in proc.stdout

    def test_console_script_wiring(self, capsys):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["polyview"]
        assert target == "polyview.cli:main"
        module, attr = target.split(":")
        entry = getattr(importlib.import_module(module), attr)
        assert entry(["gaussian-mi", "--sigma0-sq", "1", "--sigma-sq", "0.25",
                      "--m-max", "3"]) == 0
        assert "InfoMax limit" in capsys.readouterr().out

    def test_module_invocation(self):
        # The child imports the package this suite imports. pytest's
        # `pythonpath` setting puts src/ on sys.path but not in the environment.
        src = str(Path(cli.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "polyview", "check", "--suite", "identities"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
