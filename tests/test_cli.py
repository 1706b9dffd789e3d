import hashlib
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qadc.cli import main
from qadc.protocol import CLASSICAL_CSV_HEADER, QUANTUM_CSV_HEADER

BASE_ARGS = ["--n-phases", "6", "--n-shots", "40", "--noiseless"]


def run_cli(args):
    return main([str(a) for a in args])


def read_bytes(path):
    return Path(path).read_bytes()


class TestSimulate:
    def test_writes_datasets_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        old_umask = os.umask(0o022)
        try:
            assert run_cli(["simulate", "--out", out, "--seed", "5", *BASE_ARGS]) == 0
        finally:
            os.umask(old_umask)
        assert (out / "quantum.csv").exists()
        assert (out / "classical.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert set(manifest["files"]) == {"quantum.csv", "classical.csv"}
        assert "sha256" in manifest["files"]["quantum.csv"]
        assert manifest["discard_stats"]["quantum"]["valid"] == 6 * 40
        for name in ("quantum.csv", "classical.csv", "manifest.json"):
            assert stat.S_IMODE((out / name).stat().st_mode) == 0o644

    def test_noiseless_grid_dataset_is_deterministic_expansion(self, tmp_path):
        out = tmp_path / "run"
        assert (
            run_cli(
                ["simulate", "--out", out, "--seed", "5", "--noiseless",
                 "--n-phases", "8", "--n-shots", "25", "--strategy", "quantum"]
            )
            == 0
        )
        rows = (out / "quantum.csv").read_text().splitlines()[1:]
        for row in rows:
            parts = row.split(",")
            j = int(parts[0])
            b1, b2, b3 = (int(x) for x in parts[-3:])
            assert (b1, b2, b3) == ((j >> 2) & 1, (j >> 1) & 1, j & 1)

    def test_byte_identical_repeat(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(["simulate", "--out", out, "--seed", "9", *BASE_ARGS]) == 0
        assert read_bytes(a / "quantum.csv") == read_bytes(b / "quantum.csv")
        assert read_bytes(a / "classical.csv") == read_bytes(b / "classical.csv")
        assert read_bytes(a / "manifest.json") == read_bytes(b / "manifest.json")

    def test_noisy_run_reports_discards_and_mixed_outcomes(self, tmp_path):
        out = tmp_path / "noisy"
        assert (
            run_cli(
                ["simulate", "--out", out, "--seed", "3", "--strategy", "quantum",
                 "--n-phases", "4", "--n-shots", "60", "--set", "noise.delta=0.8",
                 "--set", "noise.brightness=1.0"]
            )
            == 0
        )
        manifest = json.loads((out / "manifest.json").read_text())
        stats = manifest["discard_stats"]["quantum"]
        assert stats["attempts"] > stats["valid"]
        rows = (out / "quantum.csv").read_text().splitlines()[1:]
        outcomes = {tuple(r.split(",")[-3:]) for r in rows}
        assert len(outcomes) > 4  # coherence loss mixes grid outcomes

    def test_sweep_mode(self, tmp_path):
        out = tmp_path / "sweep"
        assert (
            run_cli(
                ["simulate", "--out", out, "--seed", "4", "--strategy", "quantum",
                 "--mode", "sweep", "--noiseless", "--n-phases", "4", "--n-shots", "20"]
            )
            == 0
        )
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["discard_stats"]["quantum"]["matched"] == 4 * 20

    @pytest.mark.parametrize("strategy", ["quantum", "classical"])
    def test_run_without_valid_repetitions_fails(self, tmp_path, capsys, strategy):
        out = tmp_path / "empty"
        code = run_cli(
            ["simulate", "--out", out, "--strategy", strategy, "--set", "noise.eta=0.05",
             "--n-phases", "2", "--n-shots", "5"]
        )
        assert code == 3
        assert f"{strategy}: no valid repetitions" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_config_error_exit_code(self, tmp_path):
        assert run_cli(["simulate", "--out", tmp_path / "x", "--strategy", "quantum",
                        "--set", "noise.delta=1.4"]) == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        assert run_cli(["simulate", "--out", tmp_path / "x",
                        "--set", "noise.nonsense=1"]) == 2

    def test_env_seed_override(self, tmp_path, monkeypatch):
        out = tmp_path / "env"
        monkeypatch.setenv("QADC_SEED", "321")
        assert run_cli(["simulate", "--out", out, "--seed", "5", *BASE_ARGS]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 321

    def test_config_file_round_trip(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_phases": 3, "n_shots": 10,
                                        "noise": {"brightness": 1.0}}))
        out = tmp_path / "run"
        assert run_cli(["simulate", "--out", out, "--config", cfg_path,
                        "--strategy", "quantum"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n_phases"] == 3


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestByteIdentity:
    """Small same-seed runs have pinned output bytes: a change to the CSV
    format, the sampling order or the MI pipeline shows here."""

    NOISELESS_SHA256 = {
        "quantum.csv": "cbec49c4c331e2101cae741c142f65641e620dacf24ff62c853d97616d19b8c5",
        "classical.csv": "21b16beab453cc1e93b5d96375cda00b0b60c7a6c83ec9224c01e9c586b81f2f",
    }
    DEVICE_SHA256 = {
        "quantum.csv": "a4a44b91ef12010a189449235675cd1bb46207a184fdc852dd5ccfbba1ba278b",
    }
    MI_CURVES_SHA256 = "64b4938fb46d84127b22fd02f8df2657eb1856b886cf4dfa42bb62cdcda56a15"

    def test_pinned_dataset_and_curve_bytes(self, tmp_path):
        small = ["--n-phases", "5", "--n-shots", "40", "--seed", "3"]
        noiseless, device = tmp_path / "noiseless", tmp_path / "device"
        assert run_cli(["simulate", "--out", noiseless, "--noiseless",
                        "--strategy", "both", *small]) == 0
        assert run_cli(["simulate", "--out", device, "--device-noise",
                        "--strategy", "quantum", *small]) == 0
        for out, pinned in ((noiseless, self.NOISELESS_SHA256),
                            (device, self.DEVICE_SHA256)):
            assert {name: sha256(out / name) for name in pinned} == pinned
        curves = tmp_path / "analysis"
        assert run_cli(["analyze", "--out", curves, "--quantum", noiseless / "quantum.csv",
                        "--classical", noiseless / "classical.csv", "--seed", "3",
                        "--set", "analysis.n_resamples=20"]) == 0
        assert sha256(curves / "mi_curves.csv") == self.MI_CURVES_SHA256


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    code = run_cli(
        ["simulate", "--out", out, "--seed", "11", "--noiseless",
         "--n-phases", "12", "--n-shots", "220"]
    )
    assert code == 0
    return out


class TestAnalyze:
    def test_curves_and_histograms(self, small_run, tmp_path):
        out = tmp_path / "analysis"
        code = run_cli(
            ["analyze", "--out", out, "--quantum", small_run / "quantum.csv",
             "--classical", small_run / "classical.csv", "--seed", "11",
             "--set", "analysis.n_resamples=30"]
        )
        assert code == 0
        lines = (out / "mi_curves.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "n_shots", "mi_quantum", "mi_quantum_err", "mi_classical",
            "mi_classical_err", "bound_sql", "bound_classical", "bound_quantum",
        ]
        first = lines[1].split(",")
        assert float(first[1]) > 0
        last = lines[-1].split(",")
        # MI approaches the asymptote from above as shots accumulate
        assert float(last[1]) < float(first[1])
        hist = (out / "histogram_quantum.csv").read_text().splitlines()
        assert hist[0] == "phase_index,bin_center_rad,frequency"
        assert len(hist) == 1 + 12 * 8

    def test_quantum_asymptote_exceeds_classical(self, small_run, tmp_path):
        out = tmp_path / "analysis"
        run_cli(["analyze", "--out", out, "--quantum", small_run / "quantum.csv",
                 "--seed", "1", "--set", "analysis.n_resamples=20"])
        lines = (out / "mi_curves.csv").read_text().splitlines()
        cols = lines[1].split(",")
        assert float(cols[7]) > float(cols[6])  # bound_quantum > bound_classical

    def test_missing_inputs_rejected(self, tmp_path):
        assert run_cli(["analyze", "--out", tmp_path / "x", "--seed", "1"]) == 2

    def test_malformed_csv_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("phase_index,phase_rad\n0,0\n")
        assert run_cli(["analyze", "--out", tmp_path / "x", "--quantum", bad]) == 2
        for flag, header in (("--quantum", QUANTUM_CSV_HEADER),
                             ("--classical", CLASSICAL_CSV_HEADER)):
            empty = tmp_path / f"header_only{flag}.csv"
            empty.write_text(header + "\n")
            capsys.readouterr()
            assert run_cli(["analyze", "--out", tmp_path / "x", flag, empty]) == 2
            err = capsys.readouterr().err
            assert f"{empty}: no data rows" in err
            assert err.startswith("input error:")

    def test_missing_dataset_is_input_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert run_cli(["analyze", "--out", tmp_path / "x", "--quantum", missing]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {missing}: cannot read")

    def test_analyze_deterministic(self, small_run, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli(["analyze", "--out", out, "--quantum", small_run / "quantum.csv",
                     "--seed", "2", "--set", "analysis.n_resamples=20"])
            outs.append(read_bytes(out / "mi_curves.csv"))
        assert outs[0] == outs[1]


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    out = tmp_path_factory.mktemp("models")
    code = run_cli(
        ["train", "dae", "--out", out, "--seed", "7",
         "--set", "ml.dae.epochs=80", "--set", "ml.dae.n_train_samples=256"]
    )
    assert code == 0
    code = run_cli(
        ["train", "estimator", "--out", out, "--seed", "7",
         "--set", "ml.estimator.epochs=250",
         "--set", "ml.estimator.n_train_phases=96",
         "--set", "ml.estimator.replicas=2"]
    )
    assert code == 0
    return out


class TestTrainAndReport:
    def test_model_files_and_loss_traces(self, models):
        doc = json.loads((models / "model_dae.json").read_text())
        assert doc["spec"]["widths"] == [128, 64, 32, 16, 32, 64, 128]
        loss_lines = (models / "loss_dae.csv").read_text().splitlines()
        assert loss_lines[0] == "epoch,train_loss"
        assert len(loss_lines) == 1 + 80
        first = float(loss_lines[1].split(",")[1])
        last = float(loss_lines[-1].split(",")[1])
        assert last < first

    def test_train_deterministic(self, models, tmp_path):
        out = tmp_path / "repeat"
        run_cli(["train", "dae", "--out", out, "--seed", "7",
                 "--set", "ml.dae.epochs=80", "--set", "ml.dae.n_train_samples=256"])
        assert read_bytes(out / "model_dae.json") == read_bytes(models / "model_dae.json")

    def test_report_pipeline(self, small_run, models, tmp_path):
        out = tmp_path / "report"
        code = run_cli(
            ["report", "--out", out, "--quantum", small_run / "quantum.csv",
             "--classical", small_run / "classical.csv",
             "--dae", models / "model_dae.json",
             "--estimator", models / "model_estimator.json", "--seed", "7"]
        )
        assert code == 0
        lines = (out / "phase_comparison.csv").read_text().splitlines()
        assert lines[0] == "phi_true,phi_raw_quantum,phi_raw_classical,phi_nn"
        assert len(lines) == 1 + 12
        summary = json.loads((out / "mi_summary.json").read_text())
        assert summary["mi_denoised_marginal"] > 0
        # classical estimates fold into [0, pi]
        for row in lines[1:]:
            val = float(row.split(",")[2])
            assert 0.0 <= val <= np.pi + 1e-9

    def test_report_missing_model_is_clean_error(self, small_run, tmp_path):
        out = tmp_path / "report"
        code = run_cli(
            ["report", "--out", out, "--quantum", small_run / "quantum.csv",
             "--dae", tmp_path / "missing.json", "--seed", "7"]
        )
        assert code == 2
        assert not (out / "phase_comparison.csv").exists()


class TestSelftestAndHelp:
    def test_selftest_passes(self):
        assert run_cli(["selftest"]) == 0

    def test_help_documents_config_keys(self):
        result = subprocess.run(
            [sys.executable, "-m", "qadc.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        for key in ("noise.delta", "noise.g2_two_photon", "n_shots", "seed"):
            assert key in result.stdout
        assert "0.926" in result.stdout  # documented device default
