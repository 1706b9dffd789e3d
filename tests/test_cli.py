import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qadc
from qadc import analysis, cli, ml, protocol
from qadc.cli import main
from qadc.linop import SizeLimitError
from qadc.ml import Network, NetworkSpec
from qadc.photonics import ModelError
from qadc.protocol import CLASSICAL_CSV_HEADER, MAX_PHASES, QUANTUM_CSV_HEADER

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
        assert manifest["discard_stats"]["quantum"]["valid"] == 4 * 20

    # At eta = 0 no source class can be accepted: every step's mixture is empty.
    @pytest.mark.parametrize(
        "strategy, eta",
        [
            pytest.param("quantum", "0.05", id="quantum"),
            pytest.param("classical", "0.05", id="classical"),
            pytest.param("quantum", "0", id="quantum-eta0"),
            pytest.param("classical", "0", id="classical-eta0"),
        ],
    )
    def test_run_without_valid_repetitions_fails(self, tmp_path, capsys, strategy, eta):
        out = tmp_path / "empty"
        code = run_cli(
            ["simulate", "--out", out, "--strategy", strategy, "--set", f"noise.eta={eta}",
             "--n-phases", "2", "--n-shots", "5"]
        )
        assert code == 3
        assert f"{strategy}: no valid repetitions" in capsys.readouterr().err
        assert not out.exists()

    # At eta = 0.1 a repetition needs 7 surviving photons, so it is accepted
    # with A of at most about 1e-7: the cap of 400 x 20 attempts per phase
    # expects far below one valid row over both phases, and the run stops
    # before drawing any.  The sweep is gated by the same feed-forward A(phi).
    @pytest.mark.parametrize("label", ["quantum", "classical", "sweep"])
    def test_hopeless_run_fails_before_any_attempt(self, tmp_path, capsys, monkeypatch, label):
        def never(*args):
            raise AssertionError("an attempt was drawn")

        monkeypatch.setattr(protocol, f"_{label}_chunk", never)
        strategy, mode = ("quantum", "sweep") if label == "sweep" else (label, "direct")
        out = tmp_path / "hopeless"
        code = run_cli(
            ["simulate", "--out", out, "--strategy", strategy, "--mode", mode,
             "--set", "noise.eta=0.1", "--n-phases", "2", "--n-shots", "20"]
        )
        assert code == 3
        assert f"{label}: no valid repetitions expected" in capsys.readouterr().err
        assert not out.exists()

    # Here cap * A(phi) is about 0.88 (quantum) or 0.89 (classical) at each
    # of 40 phases: no phase expects a row, but the run expects about 35, so
    # it draws and keeps the rows it gets, with the short phases reported.
    @pytest.mark.parametrize("strategy, eta", [("quantum", "0.62"), ("classical", "0.418")])
    def test_run_expecting_rows_over_its_phases_succeeds(self, tmp_path, capsys, strategy, eta):
        out = tmp_path / "sparse"
        code = run_cli(
            ["simulate", "--out", out, "--strategy", strategy, "--set", f"noise.eta={eta}",
             "--n-phases", "40", "--n-shots", "1"]
        )
        assert code == 0
        assert f"{strategy}: attempt cap reached before n_shots" in capsys.readouterr().err
        stats = json.loads((out / "manifest.json").read_text())["discard_stats"][strategy]
        assert 0 < stats["valid"] < 40
        assert len(stats["short_phases"]) == 40 - stats["valid"]

    def test_warnings_print_as_one_line(self, tmp_path, capsys):
        shown = warnings.showwarning
        out = tmp_path / "short"
        assert run_cli(["simulate", "--out", out, "--strategy", "both",
                        "--set", "noise.eta=0.45", "--n-phases", "2", "--n-shots", "20"]) == 0
        assert capsys.readouterr().err == (
            "warning: quantum: attempt cap reached before n_shots at 2 phases\n"
        )
        assert warnings.showwarning is shown

    def test_config_error_exit_code(self, tmp_path):
        assert run_cli(["simulate", "--out", tmp_path / "x", "--strategy", "quantum",
                        "--set", "noise.delta=1.4"]) == 2

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_unusable_out_is_output_error(self, tmp_path, capsys, below):
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        out = blocker / below if below else blocker
        code = run_cli(["simulate", "--out", out, "--strategy", "classical",
                        "--n-phases", "2", "--n-shots", "5"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"output error: {out}: "), err
        assert err.count("\n") == 1, err
        assert blocker.read_text() == "kept\n"

    def test_presets_are_exclusive(self, tmp_path, capsys):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exit_:
            run_cli(["simulate", "--out", out, "--device-noise", "--noiseless"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "argument --noiseless: not allowed with argument --device-noise" in err
        assert not out.exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        for section, key, value in (("noise", "nonsense", 1), ("ml.dae", "d_in", 8)):
            item = f"{section}.{key}={value}"
            assert run_cli(["simulate", "--out", tmp_path / "x", "--set", item]) == 2, item
            err = capsys.readouterr().err
            assert err == f"config error: config field {section}: {key} is not a known key\n"

    def test_env_seed_override(self, tmp_path, monkeypatch):
        out = tmp_path / "env"
        monkeypatch.setenv("QADC_SEED", "321")
        assert run_cli(["simulate", "--out", out, "--seed", "5", *BASE_ARGS]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 321

    # Each case: a config file, the command line, and the leaf it must give.
    @pytest.mark.parametrize("doc, args, path, expect", [
        pytest.param({"noise": {"delta": 0.8}}, ["--noiseless"], "noise.delta", 1.0,
                     id="preset-over-file"),
        pytest.param({"noise": {"eta": 0.5}}, ["--device-noise"], "noise.eta", 1.0,
                     id="device-noise-sets-eta"),
        pytest.param({"noise": {"sigma_theta": 0.05}}, ["--device-noise"],
                     "noise.sigma_theta", 0.05, id="device-noise-keeps-programming-errors"),
        pytest.param({"noise": {"condition_on_emission": False}}, ["--noiseless"],
                     "noise.condition_on_emission", False, id="noiseless-keeps-conditioning"),
        pytest.param({}, ["--device-noise", "--set", "noise.delta=0.9"], "noise.delta", 0.9,
                     id="set-over-preset"),
        pytest.param({"n_shots": 4}, ["--n-shots", "3"], "n_shots", 3, id="flag-over-file"),
        pytest.param({}, ["--n-shots", "3", "--set", "n_shots=2"], "n_shots", 2,
                     id="set-over-flag"),
        pytest.param({}, ["--set", "n_shots=2", "--n-shots", "3"], "n_shots", 2,
                     id="set-over-later-flag"),
    ])
    def test_override_precedence(self, tmp_path, doc, args, path, expect):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"strategy": "classical", "n_phases": 2, "n_shots": 5,
                                        **doc}))
        out = tmp_path / "run"
        assert run_cli(["simulate", "--out", out, "--config", cfg_path, *args]) == 0
        value = json.loads((out / "manifest.json").read_text())["config"]
        for key in path.split("."):
            value = value[key]
        assert value == expect and type(value) is type(expect)

    def test_env_seed_overrides_set(self, tmp_path, monkeypatch):
        out = tmp_path / "env"
        monkeypatch.setenv("QADC_SEED", "321")
        assert run_cli(["simulate", "--out", out, "--set", "seed=7", *BASE_ARGS]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 321

    # A flag's value is checked as its config field's: the same one line as --set.
    @pytest.mark.parametrize("flag, value", [
        ("--strategy", "bogus"), ("--mode", "bogus"), ("--n-phases", str(MAX_PHASES + 1)),
        ("--n-phases", "1000000000000"), ("--n-shots", "0"), ("--seed", "-1"),
    ])
    def test_bad_flag_is_its_fields_config_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        key = flag[2:].replace("-", "_")
        assert run_cli(["simulate", "--out", out, flag, value]) == 2
        from_flag = capsys.readouterr().err
        assert run_cli(["simulate", "--out", out, "--set", f"{key}={value}"]) == 2
        assert from_flag == capsys.readouterr().err
        assert from_flag.startswith(f"config error: config field {key}: must be ")
        assert from_flag.count("\n") == 1
        assert not out.exists()

    def test_config_file_round_trip(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_phases": 3, "n_shots": 10,
                                        "noise": {"brightness": 1.0}}))
        out = tmp_path / "run"
        assert run_cli(["simulate", "--out", out, "--config", cfg_path,
                        "--strategy", "quantum"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n_phases"] == 3

    def test_values_take_their_field_type(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(["simulate", "--out", out, "--strategy", "classical",
                        "--n-phases", "2", "--n-shots", "5", "--set", "noise.delta=1"]) == 0
        delta = json.loads((out / "manifest.json").read_text())["config"]["noise"]["delta"]
        assert type(delta) is float

    @pytest.mark.parametrize("error", [ModelError, SizeLimitError])
    def test_model_and_size_failures_are_numerical(self, tmp_path, capsys, monkeypatch, error):
        def fail(config):
            raise error("guard hit")

        monkeypatch.setattr(cli, "simulate_quantum_dataset", fail)
        out = tmp_path / "x"
        assert run_cli(["simulate", "--out", out, "--strategy", "quantum"]) == 3
        assert capsys.readouterr().err == "numerical failure: guard hit\n"
        assert not out.exists()


#: An out-of-range value for every numeric config leaf.
OUT_OF_RANGE = {
    "n_phases": "0",
    "n_shots": "-3",
    "seed": "-1",
    "noise.delta": "1.5",
    "noise.g2_two_photon": "0.5",
    "noise.g2_four_photon": "-0.1",
    "noise.brightness": "0",
    "noise.eta": "1.01",
    "noise.sigma_theta": "-0.1",
    "noise.sigma_phi": "-1",
    "analysis.n_curve_points": "0",
    "analysis.n_resamples": "1",
    "ml.dae.epochs": "0",
    "ml.dae.batch_size": "-1",
    "ml.dae.learning_rate": "0",
    "ml.dae.noise_sigma": "-1",
    "ml.dae.n_train_samples": "0",
    "ml.dae.delta": "3",
    "ml.estimator.epochs": "0",
    "ml.estimator.batch_size": "0",
    "ml.estimator.learning_rate": "-0.001",
    "ml.estimator.noise_sigma": "Infinity",
    "ml.estimator.n_train_phases": "0",
    "ml.estimator.replicas": "0",
    "ml.estimator.delta": "-0.5",
}


def bad_values(field):
    """A wrong-type value and, where the field has a range, one outside it."""
    kind = type(field.default)
    if kind is str:
        return ["5", "true", '"abc"']  # "abc" is none of the choices
    if kind is bool:
        return ['"no"', "1"]
    return ['"abc"', "true", OUT_OF_RANGE[field.path]]


CONFIG_CASES = [
    pytest.param("set", value, field.path, id=f"{field.path}={value}")
    for field in cli.CONFIG_FIELDS
    for value in bad_values(field)
] + [
    pytest.param("file", '{"n_shot": 5}', "n_shot", id="file-unknown-key"),
    pytest.param("file", '{"noise": 5}', "noise", id="file-section-not-object"),
    pytest.param("file", "[1]", None, id="file-not-object"),
    pytest.param("set", str(MAX_PHASES + 1), "n_phases", id="n_phases-above-MAX_PHASES"),
    pytest.param("set", str(cli.MAX_CURVE_POINTS + 1), "analysis.n_curve_points",
                 id="n_curve_points-above-MAX_CURVE_POINTS"),
]


@pytest.mark.parametrize("source, value, path", CONFIG_CASES)
def test_every_config_leaf_is_checked(tmp_path, capsys, source, value, path):
    out = tmp_path / "out"
    if source == "set":
        args = ["--set", f"{path}={value}"]
    else:
        config_file = tmp_path / "cfg.json"
        config_file.write_text(value)
        args = ["--config", config_file]
    if path is None:
        expect = f"config error: config file {config_file}: "
    else:
        section, _, key = path.rpartition(".")
        expect = "config error: config field " + (f"{section}: {key} " if section else f"{key}: ")
    assert run_cli(["simulate", "--out", out, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(expect) and err.count("\n") == 1, err
    if source == "file":
        assert str(config_file) in err
    assert not out.exists()


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestByteIdentity:
    """Small same-seed runs have pinned output bytes: a change to the CSV
    format, the sampling order or the MI pipeline shows here."""

    NOISELESS_SHA256 = {
        "quantum.csv": "901d1934952194d623c9234f174ea1f2a2bf25fbf40caf1f8fce59d082f2458a",
        "classical.csv": "876ce4c94fcc6dbbce25675d80c3d03e4021559d8d3fe78a3d3f558abc866239",
    }
    DEVICE_SHA256 = {
        "quantum.csv": "2cbe7b73911493eb4d9994af56730a4cc00105fb00375c378ec31fdbc28d0485",
    }
    ANALYZE_SHA256 = {
        "mi_curves.csv": "56ce197aab6a1c691f939cddf0e978b6cc154a75d1e16819a421f97cdf9229d1",
        "histogram_quantum.csv": "afaa6f66fce304af8305e9a810bb29907827404df30cb2052fac896e1e4c0a7b",
        "histogram_classical.csv": "5d264fd1ed5aad9d24836b6385f81df6fa75bb30dc8ec30fd114468fdc057bec",
        "phase_estimates_quantum.csv":
            "96811ce6ca0919c1713a65f792bbf907b70912f0b5705f1542784ee8003d2b90",
        "phase_estimates_classical.csv":
            "4e3f05da50f2fd2bc18f3c5ac3be150e1c85a9c6cb0e5d4b70cbe68c39ff5731",
        "manifest.json": "159ca8e83ac8131fd34c52277f2e5e0cce37228168b59be43a9632a8ea2e805d",
    }

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
        pinned = self.ANALYZE_SHA256
        assert {name: sha256(curves / name) for name in pinned} == pinned

    # The manifests hold the discard counters of each run.
    SWEEP_SHA256 = {
        "quantum.csv": "b397e770755da548ed6bcc80008a3f2902a61c849143318203c8045beb5e07c0",
        "manifest.json": "592aebc92ada475f93c02afed9af56a87fd86ef4e065dec2895a2ec56949d864",
    }
    PROGRAMMING_ERROR_SHA256 = {
        "quantum.csv": "2a1f49a908e9b0176bb76a3702beeba11c2f9f3e3966f2b0638a06101e9208ae",
        "classical.csv": "9be05863885afa66e2773cb5d5fc81f9765e135a29c056bbae73d368aa859250",
        "manifest.json": "116b4e923a6a6b513bab2ffb719318ef52bfc11dd220ead748b29f219595e049",
    }

    def test_pinned_sweep_and_programming_error_bytes(self, tmp_path):
        small = ["--device-noise", "--n-phases", "5", "--n-shots", "40", "--seed", "3"]
        sweep, programming = tmp_path / "sweep", tmp_path / "programming"
        assert run_cli(["simulate", "--out", sweep, "--strategy", "quantum",
                        "--mode", "sweep", *small]) == 0
        assert run_cli(["simulate", "--out", programming, "--strategy", "both",
                        "--set", "noise.sigma_theta=0.05", "--set", "noise.sigma_phi=0.05",
                        *small]) == 0
        for out, pinned in ((sweep, self.SWEEP_SHA256),
                            (programming, self.PROGRAMMING_ERROR_SHA256)):
            assert {name: sha256(out / name) for name in pinned} == pinned
        sweep_stats = json.loads((sweep / "manifest.json").read_text())["discard_stats"]
        assert "short_phases" not in sweep_stats["quantum"]

    # Training sums in BLAS matrix products, so these pins also assume the
    # numpy/BLAS build they were recorded with.
    DAE_SHA256 = {
        "model_dae.json": "8078f8ebd87e2203f342e82808343ec542454fca00661509736606c451c4df4e",
        "loss_dae.csv": "b0b2be860622c9d35ed9687350e809f0ce29f75a40f9ace1798f4129a9e9c2a0",
        "manifest.json": "cd079e4b610bf369a7206021675f27aa1c6378c8b2087188e940c674bd410640",
    }
    ESTIMATOR_SHA256 = {
        "model_estimator.json": "2ff858bc1385c9ed381327ef0baad4809e4af8d3a38e7195c8b6453be7107247",
        "loss_estimator.csv": "55759c9ef7f57605212dc46571c3dbba0b996ac1c3563aacad701d6639f927a6",
        "manifest.json": "88a3ee1fbe4398f8993371e3df534d55f7c104fd5f76a1b593a65ad05dd1f559",
    }
    REPORT_SHA256 = {
        "phase_comparison.csv": "2832cbd90283dcf55d590d0c52259625e86affb0b3c9c41b9c865360d5ccffa5",
        "mi_summary.json": "4d86173943ac4aa0fa17c142060a8f5d4771f6ec104b92d598bcb17bac05d093",
    }

    # 384 Adam steps: from step 356 on, 1 - beta1**t is 1.0 and the step
    # leaves out that division.
    ESTIMATOR_384_STEPS_SHA256 = {
        "model_estimator.json": "03d1ea5667f38d5f0bfe78ba28a2c0594f591b0492112e401a5b3a3e0e64e307",
        "loss_estimator.csv": "5ed4e1cadb70e212cefed570e3aebc90c3adbb2951dd99e2a028bec0504afac0",
        "manifest.json": "b0822732bec41acfc6a5488e4e090afb07f5e0dc3153c719a678b753a6dfaab5",
    }

    def test_pinned_training_past_the_first_bias_correction(self, tmp_path):
        assert run_cli(["train", "estimator", "--out", tmp_path, "--seed", "3",
                        "--set", "ml.estimator.epochs=6"]) == 0
        pinned = self.ESTIMATOR_384_STEPS_SHA256
        assert {name: sha256(tmp_path / name) for name in pinned} == pinned

    def test_pinned_training_and_report_bytes(self, tmp_path):
        data, dae, est, report = (tmp_path / name for name in ("data", "dae", "est", "report"))
        assert run_cli(["simulate", "--out", data, "--noiseless", "--strategy", "both",
                        "--n-phases", "5", "--n-shots", "40", "--seed", "3"]) == 0
        assert run_cli(["train", "dae", "--out", dae, "--seed", "3",
                        "--set", "ml.dae.epochs=5", "--set", "ml.dae.n_train_samples=128"]) == 0
        assert run_cli(["train", "estimator", "--out", est, "--seed", "3",
                        "--set", "ml.estimator.epochs=5",
                        "--set", "ml.estimator.n_train_phases=32",
                        "--set", "ml.estimator.replicas=2"]) == 0
        assert run_cli(["report", "--out", report, "--seed", "3",
                        "--quantum", data / "quantum.csv", "--classical", data / "classical.csv",
                        "--dae", dae / "model_dae.json",
                        "--estimator", est / "model_estimator.json"]) == 0
        for out, pinned in ((dae, self.DAE_SHA256), (est, self.ESTIMATOR_SHA256),
                            (report, self.REPORT_SHA256)):
            assert {name: sha256(out / name) for name in pinned} == pinned


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

    def test_phases_without_rows_keep_their_grid(self, tmp_path):
        # Phases 3 and 5 of a 6-phase file keep no row, the last one included.
        data, out = tmp_path / "data", tmp_path / "analysis"
        assert run_cli(["simulate", "--out", data, "--noiseless", "--strategy", "quantum",
                        "--n-phases", "6", "--n-shots", "40", "--seed", "5"]) == 0
        path = data / "quantum.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(l for l in lines if not l.startswith(("3,", "5,"))))
        assert run_cli(["analyze", "--out", out, "--quantum", path, "--seed", "7",
                        "--set", "analysis.n_resamples=20"]) == 0
        rows = [r.split(",") for r in
                (out / "phase_estimates_quantum.csv").read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(6))
        assert float(rows[3][1]) == pytest.approx(np.pi, rel=1e-11)
        assert float(rows[5][1]) == pytest.approx(5 * np.pi / 3, rel=1e-11)
        assert rows[3][2:] == rows[5][2:] == ["nan", "nan"]
        assert "nan" not in str([rows[i] for i in (0, 1, 2, 4)])

    @pytest.mark.parametrize("n_points", [1, 2, 12, cli.MAX_CURVE_POINTS])
    def test_curve_ends_at_the_full_dataset(self, tmp_path, n_points):
        data, out = tmp_path / "data", tmp_path / "analysis"
        assert run_cli(["simulate", "--out", data, "--noiseless", "--strategy", "quantum",
                        "--n-phases", "4", "--n-shots", "20", "--seed", "5"]) == 0
        assert run_cli(["analyze", "--out", out, "--quantum", data / "quantum.csv",
                        "--seed", "7", "--set", "analysis.n_resamples=20",
                        "--set", f"analysis.n_curve_points={n_points}"]) == 0
        rows = (out / "mi_curves.csv").read_text().splitlines()[1:]
        shots = [int(row.split(",")[0]) for row in rows]
        assert shots == cli._curve_points(20, n_points)
        assert len(shots) <= n_points and shots[-1] == 20

    def test_curve_points_above_the_bound_are_a_config_error(self, tmp_path, capsys):
        # Once a numpy memory error: the log-spaced grid was allocated at this size.
        data, out = tmp_path / "data", tmp_path / "analysis"
        assert run_cli(["simulate", "--out", data, "--noiseless", "--strategy", "quantum",
                        "--n-phases", "3", "--n-shots", "50", "--seed", "5"]) == 0
        capsys.readouterr()
        assert run_cli(["analyze", "--out", out, "--quantum", data / "quantum.csv",
                        "--set", "analysis.n_curve_points=10000000000"]) == 2
        assert capsys.readouterr().err == (
            "config error: config field analysis: n_curve_points must be an integer "
            f"from 1 to {cli.MAX_CURVE_POINTS}\n"
        )
        assert not out.exists()

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

    # Phase index 40000 with the phase of a 70000-phase grid implies that grid.
    @pytest.mark.parametrize("index, n_grid", [(3_000_000_000, 1), (20_000_000, 1),
                                               (40_000, 70_000)])
    def test_oversized_phase_grid_is_input_error(self, tmp_path, capsys, index, n_grid):
        path = tmp_path / "classical.csv"
        rad = repr(2 * np.pi * index / n_grid)
        path.write_text(f"{CLASSICAL_CSV_HEADER}\n{index},{rad},0,1,0,1,0,1,0,1\n")
        out = tmp_path / "x"
        assert run_cli(["analyze", "--out", out, "--classical", path]) == 2
        n_phases = max(index + 1, n_grid)
        assert capsys.readouterr().err == (
            f"input error: {path}: its grid of {n_phases} phases exceeds {MAX_PHASES}\n"
        )
        assert not out.exists()

    def test_missing_dataset_is_input_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert run_cli(["analyze", "--out", tmp_path / "x", "--quantum", missing]) == 2
        assert capsys.readouterr().err.startswith(f"input error: {missing}: cannot read")

    def test_failed_analyze_leaves_no_output_directory(self, small_run, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_cli(["analyze", "--out", out, "--quantum", small_run / "quantum.csv",
                        "--set", "analysis.n_resamples=1"]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "stage, key, value",
        [("dae", "epochs", "abc"), ("dae", "batch_size", "2.5"), ("dae", "epochs", "0"),
         ("estimator", "epochs", '"7"'), ("estimator", "batch_size", "null")],
    )
    def test_bad_training_setting_is_config_error(self, tmp_path, capsys, stage, key, value):
        out = tmp_path / "x"
        assert run_cli(["train", stage, "--out", out, "--set", f"ml.{stage}.{key}={value}"]) == 2
        assert capsys.readouterr().err == (
            f"config error: config field ml.{stage}: {key} must be a positive integer\n"
        )
        assert not out.exists()

    def test_rising_loss_prints_one_warning_line(self, tmp_path, capsys):
        # a step size of 1 overshoots, so the last epoch's loss exceeds the first's
        assert run_cli(["train", "estimator", "--out", tmp_path / "x", "--seed", "1",
                        "--set", "ml.estimator.epochs=2", "--set", "ml.estimator.replicas=1",
                        "--set", "ml.estimator.n_train_phases=16",
                        "--set", "ml.estimator.learning_rate=1"]) == 0
        assert re.fullmatch(
            r"warning: train estimator: final loss \S+ above initial \S+\n",
            capsys.readouterr().err,
        )

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

    def test_empty_phase_has_no_estimate(self, small_run, models, tmp_path):
        # Phase 3 keeps no row, as an attempt-cap shortfall can leave it.
        data = tmp_path / "data"
        data.mkdir()
        for name in ("quantum.csv", "classical.csv"):
            lines = (small_run / name).read_text().splitlines(keepends=True)
            (data / name).write_text("".join(l for l in lines if not l.startswith("3,")))
        analysis, report = tmp_path / "analysis", tmp_path / "report"
        assert run_cli(["analyze", "--out", analysis, "--quantum", data / "quantum.csv",
                        "--classical", data / "classical.csv", "--seed", "7",
                        "--set", "analysis.n_resamples=20"]) == 0
        quantum_rows = (analysis / "phase_estimates_quantum.csv").read_text().splitlines()
        classical_rows = (analysis / "phase_estimates_classical.csv").read_text().splitlines()
        assert quantum_rows[1 + 3].endswith(",nan,nan")
        assert classical_rows[1 + 3].endswith(",nan")
        assert "nan" not in "".join(quantum_rows[1:4] + quantum_rows[5:])
        assert run_cli(["report", "--out", report, "--quantum", data / "quantum.csv",
                        "--classical", data / "classical.csv",
                        "--estimator", models / "model_estimator.json", "--seed", "7"]) == 0
        cells = (report / "phase_comparison.csv").read_text().splitlines()[1 + 3].split(",")
        assert cells[1:3] == ["nan", "nan"]
        summary = json.loads((report / "mi_summary.json").read_text())
        assert np.isfinite(summary["raw_rmse_circular"])

    def test_empty_phase_is_left_out_of_the_denoised_mi(self, small_run, models, tmp_path):
        # Phase 3 keeps no row.  The DAE would make a distribution of its empty
        # row; the denoised MI runs over the other eleven phases, as the raw MI does.
        path, report = tmp_path / "quantum.csv", tmp_path / "report"
        lines = (small_run / "quantum.csv").read_text().splitlines(keepends=True)
        path.write_text("".join(l for l in lines if not l.startswith("3,")))
        assert run_cli(["report", "--out", report, "--quantum", path,
                        "--dae", models / "model_dae.json", "--seed", "7"]) == 0
        summary = json.loads((report / "mi_summary.json").read_text())
        table = analysis.table_from_quantum(protocol.read_quantum_csv(path))
        kept = table.n_shots_effective > 0
        assert np.flatnonzero(~kept).tolist() == [3]
        dae = Network.from_json_dict(json.loads((models / "model_dae.json").read_text()))
        rows = ml.dae_denoise(dae, table.probabilities()[kept])
        bits = analysis.marginalize_to_bits(analysis.CondProbTable(table.phases[kept], rows))
        expected = analysis.mutual_information(
            analysis.CondProbTable(bits.phases, bits.probabilities(), kind="b3")
        ).value
        assert summary["mi_denoised_marginal"] == pytest.approx(expected, rel=1e-12)

    def test_nn_estimate_only_at_phases_with_rows(self, models, tmp_path):
        # Phase 3 of an 8-phase file keeps no row: it has neither estimate,
        # and both RMSEs are over the other seven phases.
        data, report = tmp_path / "data", tmp_path / "report"
        assert run_cli(["simulate", "--out", data, "--noiseless", "--strategy", "quantum",
                        "--n-phases", "8", "--n-shots", "50", "--seed", "3"]) == 0
        path = data / "quantum.csv"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(l for l in lines if not l.startswith("3,")))
        assert run_cli(["report", "--out", report, "--quantum", path,
                        "--estimator", models / "model_estimator.json", "--seed", "3"]) == 0
        rows = (report / "phase_comparison.csv").read_text().splitlines()[1:]
        table = np.array([[float(c) for c in row.split(",")] for row in rows])
        truth, raw, nn = table[:, 0], table[:, 1], table[:, 3]
        assert np.isnan(raw[3]) and np.isnan(nn[3])
        kept = np.arange(8) != 3
        assert np.isfinite(raw[kept]).all() and np.isfinite(nn[kept]).all()
        summary = json.loads((report / "mi_summary.json").read_text())
        # The CSV holds 12 significant digits.
        for key, estimate in (("nn_rmse_circular", nn), ("raw_rmse_circular", raw)):
            rmse = ml.circular_rmse(estimate[kept], truth[kept])
            assert summary[key] == pytest.approx(rmse, rel=1e-9, abs=1e-9), key

    def test_estimator_needs_two_phases(self, models, tmp_path, capsys):
        data, out = tmp_path / "data", tmp_path / "report"
        assert run_cli(["simulate", "--out", data, "--noiseless", "--strategy", "quantum",
                        "--n-phases", "1", "--n-shots", "20"]) == 0
        capsys.readouterr()
        code = run_cli(["report", "--out", out, "--quantum", data / "quantum.csv",
                        "--estimator", models / "model_estimator.json"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"input error: {data / 'quantum.csv'}: the estimator needs at least two phases, got 1\n"
        )
        assert not out.exists()

    def test_estimator_needs_the_uniform_grid(self, models, tmp_path, capsys):
        # Phases 0, 1 and 2 rad fit no grid 2 pi i / N: the reader keeps them as
        # three phases, which the estimator's interpolation would misplace.
        data, out = tmp_path / "data", tmp_path / "report"
        assert run_cli(["simulate", "--out", data, "--noiseless", "--strategy", "quantum",
                        "--n-phases", "3", "--n-shots", "20"]) == 0
        path = data / "quantum.csv"
        header, *rows = path.read_text().splitlines(keepends=True)
        path.write_text(header + "".join(
            ",".join([i, f"{int(i)}.0", rest]) for i, _, rest in (r.split(",", 2) for r in rows)
        ))
        capsys.readouterr()
        code = run_cli(["report", "--out", out, "--quantum", path,
                        "--estimator", models / "model_estimator.json"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"input error: {path}: the estimator needs the phases 2 pi i / 3\n"
        )
        assert not out.exists()
        assert run_cli(["report", "--out", out, "--quantum", path]) == 0

    @pytest.mark.parametrize("n_quantum, n_classical", [(5, 3), (3, 5)])
    def test_report_rejects_datasets_on_different_grids(
        self, tmp_path, capsys, n_quantum, n_classical
    ):
        quantum, classical = tmp_path / "q", tmp_path / "c"
        for out, strategy, n_phases in ((quantum, "quantum", n_quantum),
                                        (classical, "classical", n_classical)):
            assert run_cli(["simulate", "--out", out, "--noiseless", "--strategy", strategy,
                            "--n-phases", str(n_phases), "--n-shots", "20"]) == 0
        capsys.readouterr()
        out = tmp_path / "report"
        code = run_cli(["report", "--out", out, "--quantum", quantum / "quantum.csv",
                        "--classical", classical / "classical.csv"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"input error: {classical / 'classical.csv'}: its grid of {n_classical} phases"
            f" differs from the {n_quantum} phases of {quantum / 'quantum.csv'}\n"
        )
        assert not out.exists()

    def test_report_missing_model_is_clean_error(self, small_run, tmp_path):
        out = tmp_path / "report"
        code = run_cli(
            ["report", "--out", out, "--quantum", small_run / "quantum.csv",
             "--dae", tmp_path / "missing.json", "--seed", "7"]
        )
        assert code == 2
        assert not (out / "phase_comparison.csv").exists()

    @pytest.mark.parametrize("flag", ["--dae", "--estimator"])
    def test_bad_model_file_is_input_error(self, small_run, models, tmp_path, capsys, flag):
        good = json.loads((models / "model_estimator.json").read_text())
        no_spec = {key: value for key, value in good.items() if key != "spec"}
        short_weight = json.loads(json.dumps(good))
        short_weight["weights"][1] = short_weight["weights"][1][:-1]
        missing_layer = dict(good, weights=good["weights"][:-1])
        other_net = (models / "model_dae.json" if flag == "--estimator"
                     else models / "model_estimator.json").read_text()
        small_dae = NetworkSpec((8, 64, 32, 16, 32, 64, 8), ("relu",) * 5 + ("linear",))
        dae8 = Network.initialize(small_dae, np.random.default_rng(0)).to_json_dict()
        nan_weight = json.loads(json.dumps(good))
        nan_weight["weights"][0][0] = math.nan
        inf_bias = json.loads((models / "model_dae.json").read_text())
        inf_bias["biases"][2][0] = math.inf
        cases = {
            "missing.json": None,
            "directory.json": "dir",
            "not_json.json": "{not json",
            "binary.json": b"\xff\xfe\x00",
            "list.json": "[1, 2]",
            "no_spec.json": json.dumps(no_spec),
            "short_weight.json": json.dumps(short_weight),
            "missing_layer.json": json.dumps(missing_layer),
            "other_network.json": other_net,
            "dae8.json": json.dumps(dae8),
            "nan_weight.json": json.dumps(nan_weight),
            "inf_bias.json": json.dumps(inf_bias),
        }
        for name, content in cases.items():
            path = tmp_path / name
            if content == "dir":
                path.mkdir()
            elif isinstance(content, bytes):
                path.write_bytes(content)
            elif content is not None:
                path.write_text(content)
            out = tmp_path / f"report_{name}"
            capsys.readouterr()
            code = run_cli(["report", "--out", out, "--quantum", small_run / "quantum.csv",
                            flag, path, "--seed", "7"])
            err = capsys.readouterr().err
            assert code == 2, name
            assert err.startswith(f"input error: {path}: "), err
            assert err.count("\n") == 1, err
            assert not out.exists(), name
            if name == "dae8.json" and flag == "--dae":
                assert err.endswith(": model maps 8 to 8 values, expected 128 to 128\n"), err
            if name in ("nan_weight.json", "inf_bias.json"):
                assert err.endswith(": model weights and biases must be finite\n"), err


# Each failure comes after the command's first output is computed.
@pytest.mark.parametrize("command, failing", [
    pytest.param(["analyze", "--set", "analysis.n_resamples=2"], "mean_quantum_estimates",
                 id="analyze"),
    pytest.param(["report"], "quadrature_mi_quantum", id="report"),
])
def test_failed_command_writes_nothing(small_run, tmp_path, capsys, monkeypatch, command, failing):
    def fail(*args):
        raise ArithmeticError("injected")

    monkeypatch.setattr(cli.analysis, failing, fail)
    out = tmp_path / "x"
    assert run_cli([*command, "--out", out, "--quantum", small_run / "quantum.csv"]) == 3
    assert capsys.readouterr().err == "numerical failure: injected\n"
    assert not out.exists()


def run_python(*args):
    """``python *args`` in a fresh interpreter that imports the tested qadc."""
    package_root = str(Path(qadc.__file__).resolve().parent.parent)
    path = [package_root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )


class TestSelftestAndHelp:
    def test_selftest_passes(self):
        assert run_cli(["selftest"]) == 0

    def test_import_loads_no_scipy(self):
        # Runs never load scipy, not even to solve g2 > 0 for p2.
        result = run_python(
            "-c",
            "import sys, qadc.cli; "
            "qadc.protocol.DEVICE_NOISE.source_model(4); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_import_loads_no_thread_pool(self):
        # Only the MI bootstrap starts a worker thread; it imports the pool itself.
        result = run_python("-c", "import sys, qadc.cli; print('concurrent.futures' in sys.modules)")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_help_documents_config_keys(self):
        result = run_python("-m", "qadc.cli", "--help")
        assert result.returncode == 0
        for key in ("noise.delta", "noise.g2_two_photon", "n_shots", "seed"):
            assert key in result.stdout
        assert "0.926" in result.stdout  # documented device default
        lines = result.stdout.splitlines()
        for field in cli.CONFIG_FIELDS:
            documented = [line for line in lines if line.startswith(f"  {field.path} ")]
            assert len(documented) == 1, field.path
            assert documented[0].endswith(f"(default {json.dumps(field.default)})"), field.path
