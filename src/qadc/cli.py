"""Command-line orchestration: simulate, analyze, train, report, selftest.

Every command reads a JSON run configuration (flags override fields dot-path
style), derives all randomness from a single seed, computes all its outputs and
only then writes them atomically together with a manifest sufficient to
reproduce the run.  Outputs are plain CSV/JSON; plotting is out of scope.

Exit codes: 0 ok, 2 configuration error, unreadable input data or an output
directory that cannot be written, 3 numerical failure or a run with no valid
repetitions.
"""

from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import json
import math
import os
import sys
import warnings
from collections.abc import Callable, Iterator
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from qadc import analysis, ml
from qadc.linop import SizeLimitError
from qadc.photonics import ModelError, PostSelectionEmpty
from qadc.protocol import (
    CLASSICAL_QUBITS,
    MAX_PHASES,
    NOISE_PRESETS,
    NOISELESS,
    DatasetError,
    NoiseConfig,
    ProtocolConfig,
    derive_rng,
    format_float as _fmt,
    grid_phases,
    phases_match,
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

#: Most MI curve points: `_curve_points`' log-spaced grid is a 512 KiB array at this size.
MAX_CURVE_POINTS = 2**16


class ConfigError(ValueError):
    pass


class InputError(ValueError):
    """An input file other than a dataset CSV that cannot be used."""


# ---------------------------------------------------------------------------
# Config fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    """The values a config leaf takes: a JSON type and a range."""

    kind: type  # bool, int, float (a JSON integer becomes a float) or str
    wording: str  # completes "must be ..."
    accepts: Callable[[object], bool] = lambda value: True


def _one_of(kind: type, choices: tuple) -> Domain:
    wording = ", ".join(map(str, choices[:-1])) + f" or {choices[-1]}"
    return Domain(kind, wording, lambda value: value in choices)


BOOL = Domain(bool, "true or false")
NUMBER = Domain(float, "a number", math.isfinite)
POSITIVE_NUMBER = Domain(float, "a positive number", lambda v: 0.0 < v < math.inf)
NON_NEGATIVE_NUMBER = Domain(float, "a non-negative number", lambda v: 0.0 <= v < math.inf)
UNIT_INTERVAL = Domain(float, "a number in [0, 1]", lambda v: 0.0 <= v <= 1.0)
POSITIVE_INT = Domain(int, "a positive integer", lambda v: v >= 1)


@dataclass(frozen=True)
class Field:
    """One leaf of the run configuration: its dot path, default, values and help."""

    path: str
    default: object
    domain: Domain
    help: str


#: Help for the noise leaves, whose defaults come from `NoiseConfig` and whose
#: ranges `NoiseConfig` checks.
_NOISE_HELP = {
    "delta": "pairwise photon indistinguishability",
    "g2_two_photon": "source g2(0) of the 2- and 1-photon runs",
    "g2_four_photon": "source g2(0) of the 4-photon runs",
    "brightness": "probability that a source time-bin is non-empty",
    "eta": "end-to-end survival probability per photon",
    "sigma_theta": "static programming error of cell reflectance phases (rad)",
    "sigma_phi": "static programming error of cell relative phases (rad)",
    "condition_on_emission": "condition every bin on having fired",
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _noise_fields() -> list[Field]:
    """The noise leaves, which default to the noiseless preset."""
    rows = []
    for name, default in asdict(NOISELESS).items():
        help_text = _NOISE_HELP[name] + "".join(
            f"; {_flag(preset)} sets {values[name]}"
            for preset, values in NOISE_PRESETS.items()
            if name in values
        )
        domain = BOOL if type(default) is bool else NUMBER
        rows.append(Field(f"noise.{name}", default, domain, help_text))
    return rows


def _training_fields(stage: str, network: str) -> list[Field]:
    """The leaves that the ``ml.dae`` and ``ml.estimator`` blocks share."""
    train = ml.TrainConfig()
    return [
        Field(f"ml.{stage}.epochs", train.epochs, POSITIVE_INT,
              f"training epochs of the {network}"),
        Field(f"ml.{stage}.batch_size", train.batch_size, POSITIVE_INT, "minibatch size"),
        Field(f"ml.{stage}.learning_rate", train.learning_rate, POSITIVE_NUMBER, "Adam step size"),
        Field(f"ml.{stage}.noise_sigma", 0.01, NON_NEGATIVE_NUMBER,
              "Gaussian corruption of the training rows"),
        Field(f"ml.{stage}.delta", 1.0, UNIT_INTERVAL,
              "indistinguishability of the simulated training rows"),
    ]


_PROTOCOL = ProtocolConfig()

#: Every leaf of the run configuration.  The table gives the defaults, the
#: ``--help`` text, and the type and range each value is checked against.
CONFIG_FIELDS = (
    Field("strategy", "both", _one_of(str, ("quantum", "classical", "both")),
          "which datasets to simulate"),
    Field("n_phases", _PROTOCOL.n_phases,
          Domain(int, f"an integer from 1 to {MAX_PHASES}", lambda v: 1 <= v <= MAX_PHASES),
          "number of equally spaced phases in [0, 2pi)"),
    Field("n_shots", _PROTOCOL.n_shots, POSITIVE_INT,
          "valid repetitions per phase"),
    Field("mode", "direct", _one_of(str, ("direct", "sweep")),
          "feed-forward (direct) or all configurations plus matching (sweep)"),
    *_noise_fields(),
    Field("analysis.n_curve_points", 12,
          Domain(int, f"an integer from 1 to {MAX_CURVE_POINTS}",
                 lambda v: 1 <= v <= MAX_CURVE_POINTS),
          "log-spaced prefix sizes of the MI curve"),
    Field("analysis.n_resamples", 100, Domain(int, "an integer of at least 2", lambda v: v >= 2),
          "bootstrap replicates for MI error bars"),
    *_training_fields("dae", "denoising autoencoder"),
    Field("ml.dae.n_train_samples", 1024, POSITIVE_INT, "training rows"),
    *_training_fields("estimator", "phase regressor"),
    Field("ml.estimator.n_train_phases", 160, POSITIVE_INT, "training phases per replica"),
    Field("ml.estimator.replicas", 4, POSITIVE_INT, "jittered copies of the training grid"),
    Field("seed", _PROTOCOL.seed, Domain(int, "a non-negative integer", lambda v: v >= 0),
          f"master seed; env {SEED_ENV_VAR} overrides"),
)


def _nest(pairs) -> dict:
    tree: dict = {}
    for path, value in pairs:
        *sections, key = path.split(".")
        node = tree
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
    return tree


#: Default run configuration.
DEFAULT_CONFIG = _nest((f.path, f.default) for f in CONFIG_FIELDS)


def _field_error(path: str, problem: str) -> ConfigError:
    section, _, key = path.rpartition(".")
    if section:
        return ConfigError(f"config field {section}: {key} {problem}")
    return ConfigError(f"config field {key}: {problem}")


def _merge(config: dict, overrides: dict, where: str = "") -> None:
    """Copy ``overrides`` into ``config``; every key must exist and sections stay objects."""
    for key, value in overrides.items():
        path = f"{where}.{key}" if where else key
        if key not in config:
            raise _field_error(path, "is not a known key")
        if isinstance(config[key], dict):
            if not isinstance(value, dict):
                raise _field_error(path, "must be an object")
            _merge(config[key], value, path)
        else:
            config[key] = value


def _coerce(field: Field, value):
    """``value`` as a ``field.domain.kind``; a ConfigError names the field otherwise."""
    kind = field.domain.kind
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    # JSON values have exact types, so a bool is not taken for an int.
    if type(value) is not kind or not field.domain.accepts(value):
        raise _field_error(field.path, f"must be {field.domain.wording}")
    return value


def _check(config: dict) -> None:
    """Give every leaf of ``config`` its field's type, checking it on the way."""
    for field in CONFIG_FIELDS:
        *sections, key = field.path.split(".")
        node = config
        for section in sections:
            node = node[section]
        node[key] = _coerce(field, node[key])
    try:
        NoiseConfig(**config["noise"])
    except ValueError as exc:
        raise ConfigError(f"config field noise: {exc}") from None


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config file {path}: cannot read: {exc.strerror or exc}") from None
    except ValueError as exc:  # not JSON, not text, or an integer too long to parse
        raise ConfigError(f"config file {path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path}: must hold a JSON object")
    return doc


def _overrides(args) -> Iterator[tuple[str, object]]:
    """The command line's (dot path, value) overrides, the later ones winning:
    the preset, the flags, the ``--set`` items, then the seed variable."""
    given = vars(args)
    for preset, values in NOISE_PRESETS.items():
        if given.get(preset):
            yield from ((f"noise.{key}", value) for key, value in values.items())
    # A flag's destination is its field's path (`_add_flags`).
    yield from ((f.path, given[f.path]) for f in CONFIG_FIELDS if given.get(f.path) is not None)
    for item in args.set or []:
        path, eq, raw = item.partition("=")
        if not eq:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        try:
            value = json.loads(raw)
        except ValueError:
            value = raw.strip()
        yield path.strip(), value
    if os.environ.get(SEED_ENV_VAR):
        try:
            yield "seed", int(os.environ[SEED_ENV_VAR])
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from None


def load_config(args) -> dict:
    """The run configuration: defaults, then the config file and the command
    line's overrides (`_overrides`), each leaf checked and typed."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if args.config:
        doc = _read_config_file(args.config)
        try:
            _merge(config, doc)
        except ConfigError as exc:
            raise ConfigError(f"{exc} in config file {args.config}") from None
    for path, value in _overrides(args):
        _merge(config, _nest([(path, value)]))
    _check(config)
    return config


def protocol_config(config: dict) -> ProtocolConfig:
    return ProtocolConfig(
        n_phases=config["n_phases"],
        n_shots=config["n_shots"],
        noise=NoiseConfig(**config["noise"]),
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


def write_manifest(command: str, config: dict, files: list[Path], extra: dict) -> str:
    """The text of a manifest: the command, its config and seed, the SHA-256
    and size of each written file in ``files``, and ``extra``."""
    manifest = {
        "command": command,
        "config": config,
        "seed": config["seed"],
        "files": {
            p.name: {"sha256": _sha256(p), "bytes": p.stat().st_size} for p in files
        },
    }
    manifest.update(extra)
    return json.dumps(manifest, sort_keys=True, indent=1) + "\n"


def _publish(out_dir: Path, command: str, config: dict, outputs: dict, extra: dict) -> int:
    """Write ``outputs`` and then the manifest to ``out_dir``, and print one line.

    ``outputs`` maps each file name, in order, to its text or to a writer
    called with the path.  Every command computes all its outputs before it
    calls this, so a run that fails writes nothing.  A file that cannot be
    written is an output error: one stderr line and exit 2.
    """
    paths = [out_dir / name for name in outputs]
    try:
        for path, content in zip(paths, outputs.values()):
            atomic_write(path, content)
        path = out_dir / "manifest.json"
        atomic_write(path, write_manifest(command, config, paths, extra))
    except OSError as exc:
        print(f"output error: {exc.filename or path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{command.replace('-', ' ')}: wrote {', '.join(outputs)} to {out_dir}")
    return EXIT_OK


def _csv(header: str, rows) -> str:
    """``header`` and one line per row; a non-string cell is written with `format_float`."""
    lines = [",".join(c if isinstance(c, str) else _fmt(c) for c in row) for row in rows]
    return "\n".join([header, *lines]) + "\n"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    config = load_config(args)
    proto = protocol_config(config)
    datasets = {}
    if config["strategy"] in ("quantum", "both"):
        sweep = config["mode"] == "sweep"
        simulate = simulate_sweep_dataset if sweep else simulate_quantum_dataset
        datasets["quantum"] = (simulate(proto), write_quantum_csv)
    if config["strategy"] in ("classical", "both"):
        datasets["classical"] = (simulate_classical_dataset(proto), write_classical_csv)
    # Each CSV is streamed to its file by a writer.
    outputs = {f"{n}.csv": functools.partial(write, ds) for n, (ds, write) in datasets.items()}
    stats = {name: ds.stats for name, (ds, _) in datasets.items()}
    return _publish(Path(args.out), "simulate", config, outputs, {"discard_stats": stats})


def _curve_points(n_shots: int, n_points: int) -> list[int]:
    """At most ``n_points`` log-spaced prefix sizes from 10, the last one ``n_shots``."""
    if n_shots <= 1 or n_points == 1:
        return [n_shots]
    points = np.unique(
        np.rint(np.geomspace(10, n_shots, n_points)).astype(int).clip(1, n_shots)
    )
    return [int(k) for k in points]


def cmd_analyze(args) -> int:
    config = load_config(args)
    acfg = config["analysis"]
    rng = derive_rng(config["seed"], 101)
    datasets, tables = {}, {}
    for name, path, read, tabulate in (
        ("quantum", args.quantum, read_quantum_csv, analysis.table_from_quantum),
        ("classical", args.classical, read_classical_csv, analysis.table_from_classical),
    ):
        if path:
            datasets[name] = read(path)
            tables[name] = tabulate(datasets[name])
    if not datasets:
        raise ConfigError("analyze needs --quantum and/or --classical datasets")

    max_shots = max(int(table.n_shots_effective.max()) for table in tables.values())
    points = _curve_points(max_shots, acfg["n_curve_points"])
    bound_sql = analysis.reference_bounds(CLASSICAL_QUBITS)[0]
    bound_classical = analysis.quadrature_mi_classical()
    bound_quantum = analysis.quadrature_mi_quantum()

    prefixes = {name: analysis.prefix_tables(ds, tables[name].kind, points)
                for name, ds in datasets.items()}
    curves = []
    for k in points:
        row = [str(k)]
        for name in ("quantum", "classical"):
            if name not in datasets:
                row += ["nan", "nan"]
                continue
            est = analysis.bootstrap_mi(next(prefixes[name]), acfg["n_resamples"], rng)
            row += [est.value, est.stderr]
        curves.append(row + [bound_sql, bound_classical, bound_quantum])
    del prefixes  # frees the phase ranks before the histograms are built
    header = ("n_shots,mi_quantum,mi_quantum_err,mi_classical,mi_classical_err,"
              "bound_sql,bound_classical,bound_quantum")
    outputs = {"mi_curves.csv": _csv(header, curves)}

    for name, ds in datasets.items():
        if name == "quantum":
            marginal = analysis.marginalize_to_bits(tables[name])
            hist = marginal.probabilities()
            circ, arith = analysis.mean_quantum_estimates(marginal)
            estimates = {"phi_est_circular": circ, "phi_est_arithmetic": arith}
        else:
            hist = analysis.classical_phase_histograms(tables[name])
            estimates = {"phi_est_mean": analysis.mean_classical_estimates(ds)}
        outputs[f"histogram_{name}.csv"] = _csv(
            "phase_index,bin_center_rad,frequency",
            ([str(i), center, freq]
             for i, row in enumerate(hist)
             for center, freq in zip(analysis.HISTOGRAM_BIN_CENTERS, row)),
        )
        outputs[f"phase_estimates_{name}.csv"] = _csv(
            ",".join(["phase_index,phase_rad", *estimates]),
            ([str(i), ds.phases[i], *(e[i] for e in estimates.values())]
             for i in range(ds.n_phases)),
        )
    return _publish(Path(args.out), "analyze", config, outputs, {})


def cmd_train(args) -> int:
    config = load_config(args)
    stage = args.stage
    block = config["ml"][stage]
    cfg = ml.TrainConfig(
        epochs=block["epochs"],
        batch_size=block["batch_size"],
        learning_rate=block["learning_rate"],
        seed=config["seed"],
    )
    extra: dict = {}
    if stage == "dae":
        rng = derive_rng(config["seed"], 201)
        dataset = ml.dae_training_set(
            block["n_train_samples"],
            block["noise_sigma"],
            rng,
            delta=block["delta"],
        )
        net = ml.Network.initialize(ml.build_dae(), rng)
        trace = ml.train(net, dataset, cfg)
    else:
        net, trace, metrics = ml.train_and_eval_estimator(
            cfg,
            n_train_phases=block["n_train_phases"],
            noise_sigma=block["noise_sigma"],
            replicas=block["replicas"],
            delta=block["delta"],
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
        warnings.warn(
            f"train {stage}: final loss {trace[-1]:.3g} above initial {trace[0]:.3g}"
        )
    outputs = {
        f"model_{stage}.json":
            json.dumps(net.to_json_dict(cfg, seed=config["seed"]), sort_keys=True) + "\n",
        f"loss_{stage}.csv": _csv("epoch,train_loss", ([str(i), l] for i, l in enumerate(trace))),
    }
    return _publish(Path(args.out), f"train-{stage}", config, outputs, extra)


def cmd_report(args) -> int:
    config = load_config(args)
    dae = load_model(args.dae, DAE_WIDTHS) if args.dae else None
    est_net = load_model(args.estimator, ESTIMATOR_WIDTHS) if args.estimator else None
    quantum = read_quantum_csv(args.quantum)
    classical = read_classical_csv(args.classical) if args.classical else None
    if classical is not None and not phases_match(classical.phases, quantum.phases):
        # The comparison pairs the two datasets phase by phase.
        raise InputError(
            f"{args.classical}: its grid of {classical.n_phases} phases differs from"
            f" the {quantum.n_phases} phases of {args.quantum}"
        )
    n = quantum.n_phases
    # The estimator's second input row interpolates between the phases 2 pi i / n.
    if est_net is not None and n < 2:
        raise InputError(f"{args.quantum}: the estimator needs at least two phases, got {n}")
    if est_net is not None and not phases_match(quantum.phases, grid_phases(n)):
        raise InputError(f"{args.quantum}: the estimator needs the phases 2 pi i / {n}")

    table = analysis.table_from_quantum(quantum)
    marginal = analysis.marginalize_to_bits(table)
    estimated = table.n_shots_effective > 0  # only phases with rows have an estimate
    if dae is not None:
        denoised_full = ml.dae_denoise(dae, table.probabilities())
        # The DAE makes a distribution of an empty row: keep it empty, as the raw rows are.
        denoised_full[~estimated] = 0.0
        marginal_rows = analysis.marginalize_to_bits(
            analysis.CondProbTable(table.phases, denoised_full, kind="m7")
        ).probabilities()
        denoised_table = analysis.CondProbTable(table.phases, marginal_rows, kind="b3")
    else:
        marginal_rows = marginal.probabilities()

    circ, _ = analysis.mean_quantum_estimates(marginal)
    phi_nn = None
    if est_net is not None:
        inputs = ml.estimator_inputs_from_rows(table.phases, marginal_rows)
        phi_nn = np.where(estimated, ml.forward(est_net, inputs)[:, 0] % analysis.TWO_PI, np.nan)
    classical_means = (
        analysis.mean_classical_estimates(classical) if classical is not None else None
    )

    comparison = _csv(
        "phi_true,phi_raw_quantum,phi_raw_classical,phi_nn",
        ([quantum.phases[i], circ[i],
          classical_means[i] if classical_means is not None else "nan",
          phi_nn[i] if phi_nn is not None else "nan"]
         for i in range(quantum.n_phases)),
    )

    mi_marginal = analysis.mutual_information(marginal).value
    # Without a DAE the denoised b-table is the raw one.
    mi_denoised = mi_marginal if dae is None else analysis.mutual_information(denoised_table).value
    mi_summary = {
        "mi_raw_full": analysis.mutual_information(table).value,
        "mi_raw_marginal": mi_marginal,
        "mi_denoised_marginal": mi_denoised,
        "asymptote_quantum": analysis.quadrature_mi_quantum(),
        "asymptote_classical": analysis.quadrature_mi_classical(),
    }
    if classical is not None:
        mi_summary["mi_classical_full"] = analysis.mutual_information(
            analysis.table_from_classical(classical)
        ).value
    if phi_nn is not None:
        truth = quantum.phases[estimated]
        mi_summary["nn_rmse_circular"] = ml.circular_rmse(phi_nn[estimated], truth)
        mi_summary["raw_rmse_circular"] = ml.circular_rmse(circ[estimated], truth)
    outputs = {
        "phase_comparison.csv": comparison,
        "mi_summary.json": json.dumps(mi_summary, sort_keys=True, indent=1) + "\n",
    }
    return _publish(Path(args.out), "report", config, outputs, {})


#: (input, output) widths of each model given to ``report``.
DAE_WIDTHS = (ml.build_dae().widths[0], ml.build_dae().widths[-1])
ESTIMATOR_WIDTHS = (ml.build_estimator().widths[0], ml.build_estimator().widths[-1])


def load_model(path: str, widths: tuple[int, int]) -> ml.Network:
    """A trained network from its JSON file, mapping ``widths[0]`` to ``widths[1]`` values.

    A file that is missing, unreadable, not JSON, not a model document or a
    model of other widths raises InputError.
    """
    try:
        with open(path, "rb") as fh:
            net = ml.Network.from_json_dict(json.load(fh))
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: not valid JSON: {exc}") from None
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    got = (net.spec.widths[0], net.spec.widths[-1])
    if got != widths:
        expected = f"{widths[0]} to {widths[1]}"
        raise InputError(f"{path}: model maps {got[0]} to {got[1]} values, expected {expected}")
    return net


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
    lines = ["configuration keys (JSON config and --set overrides, each checked):"]
    for f in CONFIG_FIELDS:
        lines.append(f"  {f.path:28s} {f.help} (default {json.dumps(f.default)})")
    return "\n".join(lines)


def _add_flags(parser: argparse.ArgumentParser, *paths: str) -> None:
    """A flag for each config leaf in ``paths``, taking its field's type and help;
    the value is checked with the rest of the config."""
    for field in CONFIG_FIELDS:
        if field.path in paths:
            parser.add_argument(_flag(field.path), dest=field.path,
                                type=field.domain.kind, help=field.help)


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
        _add_flags(p, "seed")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="dot-path config override, e.g. --set noise.delta=0.9",
        )
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="simulate protocol datasets")
    common(p)
    _add_flags(p, "strategy", "n_phases", "n_shots", "mode")
    presets = p.add_mutually_exclusive_group()
    for name, values in NOISE_PRESETS.items():
        settings = ", ".join(f"noise.{key}={value}" for key, value in values.items())
        presets.add_argument(_flag(name), dest=name, action="store_true",
                             help=f"noise preset that sets {settings}")
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


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        return _run(args)


def _run(args) -> int:
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DatasetError, InputError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PostSelectionEmpty as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NUMERICAL
    except (ModelError, SizeLimitError, ml.TrainingDivergence, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
