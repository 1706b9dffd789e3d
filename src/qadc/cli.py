"""Command-line orchestration: simulate, analyze, train, report, selftest.

Every command reads a JSON run configuration (flags override fields dot-path
style), derives all randomness from a single seed and writes its outputs
atomically together with a manifest sufficient to reproduce the run.  Outputs
are plain CSV/JSON; plotting is out of scope.

Exit codes: 0 ok, 2 configuration error or unreadable input data, 3 numerical
failure or a run with no valid repetitions.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from qadc import analysis, ml
from qadc.photonics import ModelError, PostSelectionEmpty
from qadc.protocol import (
    DEVICE_NOISE,
    NOISELESS,
    DatasetError,
    NoiseConfig,
    ProtocolConfig,
    derive_rng,
    format_float as _fmt,
    read_classical_csv,
    read_quantum_csv,
    simulate_classical_dataset,
    simulate_quantum_dataset,
    simulate_sweep_dataset,
    write_classical_csv,
    write_quantum_csv,
)

SEED_ENV_VAR = "QADC_SEED"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

#: Default run configuration.  The noise block holds the `NoiseConfig`
#: defaults; ``--device-noise`` and ``--noiseless`` overlay the presets below.
DEFAULT_CONFIG = {
    "strategy": "both",
    "n_phases": 99,
    "n_shots": 5377,
    "mode": "direct",
    "noise": asdict(NoiseConfig()),
    "analysis": {
        "n_curve_points": 12,
        "n_resamples": 100,
        "resources_per_shot": 7,
    },
    "ml": {
        "dae": {
            "enabled": True,
            "d_in": 128,
            "epochs": 4000,
            "batch_size": 10,
            "learning_rate": 1e-3,
            "noise_sigma": 0.01,
            "n_train_samples": 1024,
            "delta": 1.0,
        },
        "estimator": {
            "enabled": True,
            "epochs": 4000,
            "batch_size": 10,
            "learning_rate": 1e-3,
            "noise_sigma": 0.01,
            "n_train_phases": 160,
            "replicas": 4,
            "delta": 1.0,
        },
    },
    "seed": 0,
}

#: Measured-platform source values; programming errors and conditioning are
#: left as configured.
DEVICE_NOISE_PRESET = {
    key: value
    for key, value in asdict(DEVICE_NOISE).items()
    if key in ("delta", "g2_two_photon", "g2_four_photon", "brightness", "eta")
}

#: Ideal source and programming; conditioning is left as configured.
NOISELESS_PRESET = {
    key: value
    for key, value in asdict(NOISELESS).items()
    if key != "condition_on_emission"
}

CONFIG_KEY_HELP = {
    "strategy": "quantum | classical | both: which datasets to simulate",
    "n_phases": "number of equally spaced phases in [0, 2pi) (measured run: 99)",
    "n_shots": "valid repetitions per phase (measured run: 5377)",
    "mode": "direct (feed-forward) | sweep (all configurations + matching)",
    "noise.delta": "pairwise photon indistinguishability; device mean 0.926",
    "noise.g2_two_photon": "source g2(0), 2-photon runs; device 5.321e-3",
    "noise.g2_four_photon": "source g2(0), 4-photon runs; device 5.629e-3",
    "noise.brightness": "probability a source time-bin is non-empty; device 0.14",
    "noise.eta": "end-to-end survival probability per photon",
    "noise.sigma_theta": "static programming error of cell reflectance phases (rad)",
    "noise.sigma_phi": "static programming error of cell relative phases (rad)",
    "noise.condition_on_emission": "condition every bin on having fired (default)",
    "analysis.n_curve_points": "log-spaced prefix sizes of the MI curve",
    "analysis.n_resamples": "bootstrap replicates for MI error bars",
    "analysis.resources_per_shot": "qubit resources per repetition (2^t - 1 = 7)",
    "ml.dae.*": "denoising-autoencoder training block (epochs 4000, batch 10)",
    "ml.estimator.*": "phase-regressor training block (epochs 4000, batch 10)",
    "seed": "master seed; env QADC_SEED overrides",
}


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _deep_update(base: dict, overrides: dict) -> dict:
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = value
    return base


def _apply_dot_override(config: dict, path: str, raw_value: str) -> None:
    keys = path.split(".")
    node = config
    for key in keys[:-1]:
        if key not in node or not isinstance(node[key], dict):
            raise ConfigError(f"unknown config section {path!r}")
        node = node[key]
    if keys[-1] not in node:
        raise ConfigError(f"unknown config key {path!r}")
    try:
        node[keys[-1]] = json.loads(raw_value)
    except json.JSONDecodeError:
        node[keys[-1]] = raw_value


def load_config(args) -> dict:
    config = copy.deepcopy(DEFAULT_CONFIG)
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                _deep_update(config, json.load(fh))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
    if getattr(args, "device_noise", False):
        _deep_update(config["noise"], DEVICE_NOISE_PRESET)
    if getattr(args, "noiseless", False):
        _deep_update(config["noise"], NOISELESS_PRESET)
    for flag in ("strategy", "n_phases", "n_shots", "mode", "seed"):
        value = getattr(args, flag, None)
        if value is not None:
            config[flag] = value
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        path, _, raw = item.partition("=")
        _apply_dot_override(config, path.strip(), raw.strip())
    if os.environ.get(SEED_ENV_VAR):
        try:
            config["seed"] = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer")
    validate_config(config)
    return config


def validate_config(config: dict) -> None:
    def fail(path, msg):
        raise ConfigError(f"config field {path}: {msg}")

    if config["strategy"] not in ("quantum", "classical", "both"):
        fail("strategy", "must be quantum, classical or both")
    if config["mode"] not in ("direct", "sweep"):
        fail("mode", "must be direct or sweep")
    for key in ("n_phases", "n_shots"):
        if not isinstance(config[key], int) or config[key] < 1:
            fail(key, "must be a positive integer")
    try:
        noise_config(config)
    except (ValueError, ModelError) as exc:
        fail("noise", str(exc))
    if not isinstance(config["seed"], int):
        fail("seed", "must be an integer")
    for block in ("dae", "estimator"):
        ml_block = config["ml"][block]
        if ml_block["epochs"] < 1 or ml_block["batch_size"] < 1:
            fail(f"ml.{block}", "epochs and batch_size must be positive")


def noise_config(config: dict) -> NoiseConfig:
    noise = config["noise"]
    cfg = NoiseConfig(
        **{key: type(default)(noise[key]) for key, default in DEFAULT_CONFIG["noise"].items()}
    )
    cfg.source_model(4)  # validates the g2 mapping early
    cfg.source_model(2)
    return cfg


def protocol_config(config: dict) -> ProtocolConfig:
    return ProtocolConfig(
        n_phases=config["n_phases"],
        n_shots=config["n_shots"],
        noise=noise_config(config),
        seed=config["seed"],
    )


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def atomic_write(path: Path, content) -> None:
    """Replace ``path`` with ``content`` so that a failure leaves no partial output.

    ``content`` is text, or a callable that writes the file at the path it is
    given.  It is written to a fresh temp file in the same directory, created
    with the mode a plain ``open`` gives (0o666 & ~umask), and then renamed
    over ``path``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}")
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        if isinstance(content, str):
            tmp.write_bytes(content.encode())
        else:
            content(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(out_dir: Path, command: str, config: dict, files: list[Path], extra: dict) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": config["seed"],
        "files": {
            p.name: {"sha256": _sha256(p), "bytes": p.stat().st_size} for p in files
        },
    }
    manifest.update(extra)
    atomic_write(
        out_dir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=1) + "\n"
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    config = load_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    proto = protocol_config(config)
    # Every dataset is simulated before any file is written, so a run that
    # fails on one strategy leaves no outputs.
    datasets = {}
    if config["strategy"] in ("quantum", "both"):
        if config["mode"] == "sweep":
            datasets["quantum"] = (simulate_sweep_dataset(proto), write_quantum_csv)
        else:
            datasets["quantum"] = (simulate_quantum_dataset(proto), write_quantum_csv)
    if config["strategy"] in ("classical", "both"):
        datasets["classical"] = (simulate_classical_dataset(proto), write_classical_csv)
    files = []
    for name, (ds, write) in datasets.items():
        path = out_dir / f"{name}.csv"
        atomic_write(path, lambda p: write(ds, p))
        files.append(path)
    stats = {name: ds.stats for name, (ds, _) in datasets.items()}
    write_manifest(out_dir, "simulate", config, files, {"discard_stats": stats})
    print(f"simulate: wrote {', '.join(p.name for p in files)} to {out_dir}")
    return EXIT_OK


def _curve_points(n_shots: int, n_points: int) -> list[int]:
    if n_shots <= 1:
        return [n_shots]
    points = np.unique(
        np.rint(np.geomspace(10, n_shots, n_points)).astype(int).clip(1, n_shots)
    )
    return [int(k) for k in points]


def _phase_ranks(phase_index, shot_index) -> np.ndarray:
    """Rank of each record within its phase, ordered by shot index."""
    order = np.lexsort((shot_index, phase_index))
    ranks = np.empty(len(order), dtype=np.int64)
    sorted_phases = phase_index[order]
    boundaries = np.flatnonzero(np.diff(sorted_phases)) + 1
    positions = np.arange(len(order))
    starts = np.zeros(len(order), dtype=np.int64)
    starts[boundaries] = positions[boundaries]
    starts = np.maximum.accumulate(starts)
    ranks[order] = positions - starts
    return ranks


def _prefix_counts(phase_index, ranks, codes, n_phases, n_outcomes, k):
    """Per-phase counts over the first k valid records (by shot order)."""
    counts = np.zeros((n_phases, n_outcomes))
    keep = ranks < k
    np.add.at(counts, (phase_index[keep], codes[keep]), 1.0)
    return counts


def cmd_analyze(args) -> int:
    config = load_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    acfg = config["analysis"]
    rng = derive_rng(config["seed"], 101)
    quantum = read_quantum_csv(args.quantum) if args.quantum else None
    classical = read_classical_csv(args.classical) if args.classical else None
    if quantum is None and classical is None:
        raise ConfigError("analyze needs --quantum and/or --classical datasets")

    max_shots = 0
    tables = {}
    if quantum is not None:
        tables["quantum"] = analysis.table_from_quantum(quantum)
        max_shots = max(max_shots, int(tables["quantum"].n_shots_effective.max()))
    if classical is not None:
        tables["classical"] = analysis.table_from_classical(classical)
        max_shots = max(max_shots, int(tables["classical"].n_shots_effective.max()))

    points = _curve_points(max_shots, acfg["n_curve_points"])
    n_res = int(acfg["resources_per_shot"])
    bound_sql = analysis.reference_bounds(n_res)[0]
    bound_classical = analysis.quadrature_mi_classical()
    bound_quantum = analysis.quadrature_mi_quantum()

    datasets = {
        name: ds for name, ds in (("quantum", quantum), ("classical", classical))
        if ds is not None
    }
    ranks = {
        name: _phase_ranks(ds.phase_index, ds.shot_index) for name, ds in datasets.items()
    }
    codes = {
        name: analysis.m_codes(ds.m if name == "quantum" else ds.c)
        for name, ds in datasets.items()
    }
    lines = [
        "n_shots,mi_quantum,mi_quantum_err,mi_classical,mi_classical_err,"
        "bound_sql,bound_classical,bound_quantum"
    ]
    for k in points:
        row = [str(k)]
        for name, ds in (("quantum", quantum), ("classical", classical)):
            if ds is None:
                row += ["nan", "nan"]
                continue
            counts = _prefix_counts(
                ds.phase_index,
                ranks[name],
                codes[name],
                ds.n_phases,
                analysis.M_OUTCOMES,
                k,
            )
            table = analysis.CondProbTable(ds.phases, counts, kind="m7" if name == "quantum" else "c7")
            est = analysis.bootstrap_mi(table, acfg["n_resamples"], rng)
            row += [_fmt(est.value), _fmt(est.stderr)]
        row += [_fmt(bound_sql), _fmt(bound_classical), _fmt(bound_quantum)]
        lines.append(",".join(row))
    curves_path = out_dir / "mi_curves.csv"
    atomic_write(curves_path, "\n".join(lines) + "\n")
    files = [curves_path]

    if quantum is not None:
        hist = analysis.quantum_phase_histograms(tables["quantum"])
        files.append(_write_histogram(out_dir / "histogram_quantum.csv", hist))
        circ, arith = analysis.mean_quantum_estimates(tables["quantum"])
        est_lines = ["phase_index,phase_rad,phi_est_circular,phi_est_arithmetic"]
        for i in range(quantum.n_phases):
            est_lines.append(
                f"{i},{_fmt(quantum.phases[i])},{_fmt(circ[i])},{_fmt(arith[i])}"
            )
        path = out_dir / "phase_estimates_quantum.csv"
        atomic_write(path, "\n".join(est_lines) + "\n")
        files.append(path)
    if classical is not None:
        hist = analysis.classical_phase_histograms(classical)
        files.append(_write_histogram(out_dir / "histogram_classical.csv", hist))
        means = analysis.mean_classical_estimates(classical)
        est_lines = ["phase_index,phase_rad,phi_est_mean"]
        for i in range(classical.n_phases):
            est_lines.append(f"{i},{_fmt(classical.phases[i])},{_fmt(means[i])}")
        path = out_dir / "phase_estimates_classical.csv"
        atomic_write(path, "\n".join(est_lines) + "\n")
        files.append(path)

    write_manifest(out_dir, "analyze", config, files, {})
    print(f"analyze: wrote {', '.join(p.name for p in files)} to {out_dir}")
    return EXIT_OK


def _write_histogram(path: Path, hist: np.ndarray) -> Path:
    lines = ["phase_index,bin_center_rad,frequency"]
    for i, row in enumerate(hist):
        for center, freq in zip(analysis.HISTOGRAM_BIN_CENTERS, row):
            lines.append(f"{i},{_fmt(center)},{_fmt(freq)}")
    atomic_write(path, "\n".join(lines) + "\n")
    return path


def cmd_train(args) -> int:
    config = load_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stage = args.stage
    block = config["ml"][stage]
    cfg = ml.TrainConfig(
        epochs=int(block["epochs"]),
        batch_size=int(block["batch_size"]),
        learning_rate=float(block["learning_rate"]),
        seed=config["seed"],
    )
    rng = derive_rng(config["seed"], 201 if stage == "dae" else 202)
    extra: dict = {}
    if stage == "dae":
        d_in = int(block["d_in"])
        dataset = ml.dae_training_set(
            int(block["n_train_samples"]),
            float(block["noise_sigma"]),
            rng,
            d_in=d_in,
            delta=float(block["delta"]),
        )
        net = ml.Network.initialize(ml.build_dae(d_in), rng)
        trace = ml.train(net, dataset, cfg)
    else:
        net, trace, metrics = ml.train_and_eval_estimator(
            cfg,
            n_train_phases=int(block["n_train_phases"]),
            noise_sigma=float(block["noise_sigma"]),
            replicas=int(block["replicas"]),
            delta=float(block["delta"]),
        )
        extra["metrics"] = {
            "holdout_rmse_circular": metrics["rmse"],
            "holdout_rmse_raw": metrics["rmse_raw"],
            "branch_accuracy": metrics["branch_accuracy"],
        }
        print(
            f"train estimator: held-out rmse {metrics['rmse']:.4f} rad "
            f"(branch accuracy {metrics['branch_accuracy']:.3f})"
        )
    if trace[-1] > trace[0]:
        print(
            f"train {stage}: warning: final loss {trace[-1]:.3g} above initial {trace[0]:.3g}",
            file=sys.stderr,
        )
    model_path = out_dir / f"model_{stage}.json"
    atomic_write(
        model_path,
        json.dumps(net.to_json_dict(cfg, seed=config["seed"]), sort_keys=True) + "\n",
    )
    loss_path = out_dir / f"loss_{stage}.csv"
    atomic_write(
        loss_path,
        "\n".join(["epoch,train_loss"] + [f"{i},{_fmt(l)}" for i, l in enumerate(trace)])
        + "\n",
    )
    write_manifest(out_dir, f"train-{stage}", config, [model_path, loss_path], extra)
    print(f"train {stage}: wrote {model_path.name}, {loss_path.name} to {out_dir}")
    return EXIT_OK


def cmd_report(args) -> int:
    config = load_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, label in ((args.dae, "DAE model"), (args.estimator, "estimator model")):
        if path and not os.path.exists(path):
            raise ConfigError(f"{label} file not found: {path}")
    quantum = read_quantum_csv(args.quantum)
    classical = read_classical_csv(args.classical) if args.classical else None

    table = analysis.table_from_quantum(quantum)
    rows = table.probabilities()
    if args.dae:
        with open(args.dae) as fh:
            dae = ml.Network.from_json_dict(json.load(fh))
        if dae.spec.widths[0] == analysis.M_OUTCOMES:
            denoised_full = ml.dae_denoise(dae, rows)
            marginal_rows = analysis.marginalize_to_bits(
                analysis.CondProbTable(table.phases, denoised_full, kind="m7")
            ).probabilities()
        elif dae.spec.widths[0] == analysis.B_OUTCOMES:
            marginal_rows = ml.dae_denoise(
                dae, analysis.marginalize_to_bits(table).probabilities()
            )
        else:
            raise ConfigError(
                f"DAE input width {dae.spec.widths[0]} matches neither 128 nor 8"
            )
        denoised_table = analysis.CondProbTable(table.phases, marginal_rows, kind="b3")
    else:
        dae = None
        denoised_table = analysis.marginalize_to_bits(table)
        marginal_rows = denoised_table.probabilities()

    phi_nn = None
    if args.estimator:
        with open(args.estimator) as fh:
            est_net = ml.Network.from_json_dict(json.load(fh))
        inputs = ml.estimator_inputs_from_rows(table.phases, marginal_rows)
        phi_nn = ml.forward(est_net, inputs)[:, 0] % analysis.TWO_PI

    circ, _ = analysis.mean_quantum_estimates(table)
    classical_means = (
        analysis.mean_classical_estimates(classical) if classical is not None else None
    )

    lines = ["phi_true,phi_raw_quantum,phi_raw_classical,phi_nn"]
    for i in range(quantum.n_phases):
        cells = [
            _fmt(quantum.phases[i]),
            _fmt(circ[i]),
            _fmt(classical_means[i]) if classical_means is not None else "nan",
            _fmt(phi_nn[i]) if phi_nn is not None else "nan",
        ]
        lines.append(",".join(cells))
    cmp_path = out_dir / "phase_comparison.csv"
    atomic_write(cmp_path, "\n".join(lines) + "\n")

    mi_summary = {
        "mi_raw_full": analysis.mutual_information(table).value,
        "mi_raw_marginal": analysis.mutual_information(
            analysis.marginalize_to_bits(table)
        ).value,
        "mi_denoised_marginal": analysis.mutual_information(denoised_table).value,
        "asymptote_quantum": analysis.quadrature_mi_quantum(),
        "asymptote_classical": analysis.quadrature_mi_classical(),
    }
    if classical is not None:
        mi_summary["mi_classical_full"] = analysis.mutual_information(
            analysis.table_from_classical(classical)
        ).value
    if phi_nn is not None:
        mi_summary["nn_rmse_circular"] = analysis_rmse(phi_nn, quantum.phases)
        mi_summary["raw_rmse_circular"] = analysis_rmse(circ, quantum.phases)
    summary_path = out_dir / "mi_summary.json"
    atomic_write(summary_path, json.dumps(mi_summary, sort_keys=True, indent=1) + "\n")
    write_manifest(out_dir, "report", config, [cmp_path, summary_path], {})
    print(f"report: wrote {cmp_path.name}, {summary_path.name} to {out_dir}")
    return EXIT_OK


def analysis_rmse(predicted: np.ndarray, truth: np.ndarray) -> float:
    return ml.circular_rmse(np.asarray(predicted), np.asarray(truth))


def cmd_selftest(args) -> int:
    """Fast oracle-equivalence and invariant checks (a pytest-free smoke suite)."""
    import qadc.selftest as selftest

    failures = selftest.run()
    if failures:
        for name, msg in failures:
            print(f"selftest FAIL {name}: {msg}")
        return EXIT_NUMERICAL
    print("selftest: all checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _config_epilog() -> str:
    lines = ["configuration keys (JSON config and --set overrides):"]
    for key, doc in CONFIG_KEY_HELP.items():
        lines.append(f"  {key:32s} {doc}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qadc",
        description=__doc__,
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run-configuration file")
        p.add_argument("--seed", type=int, help="master seed (env QADC_SEED overrides)")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="dot-path config override, e.g. --set noise.delta=0.9",
        )
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="simulate protocol datasets")
    common(p)
    p.add_argument("--strategy", choices=("quantum", "classical", "both"))
    p.add_argument("--n-phases", dest="n_phases", type=int)
    p.add_argument("--n-shots", dest="n_shots", type=int)
    p.add_argument("--mode", choices=("direct", "sweep"))
    p.add_argument("--noiseless", action="store_true", help="ideal-source preset")
    p.add_argument(
        "--device-noise",
        dest="device_noise",
        action="store_true",
        help="measured-device noise preset (delta 0.926, g2 ~5e-3, brightness 0.14)",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="MI curves, phase estimates and histograms")
    common(p)
    p.add_argument("--quantum", help="quantum dataset CSV")
    p.add_argument("--classical", help="classical dataset CSV")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("train", help="train the DAE or the phase regressor")
    common(p)
    p.add_argument("stage", choices=("dae", "estimator"))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("report", help="four-way phase comparison and MI summary")
    common(p)
    p.add_argument("--quantum", required=True, help="quantum dataset CSV")
    p.add_argument("--classical", help="classical dataset CSV")
    p.add_argument("--dae", help="trained DAE model JSON")
    p.add_argument("--estimator", help="trained estimator model JSON")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("selftest", help="oracle-equivalence and invariant smoke suite")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DatasetError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ModelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PostSelectionEmpty as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NUMERICAL
    except (
        FloatingPointError,
        ml.TrainingDivergence,
        ArithmeticError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
