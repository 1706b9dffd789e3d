"""The benchmark's workloads: fixed lists of ``qadc`` commands and their output checks.

Every command is ``python -m qadc.cli <argv>``; the workload seed reaches the
program only as ``--seed``.  The input size is fixed per workload, so a time
at that size is the throughput statement.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Sizes:
    n_phases: int
    n_shots: int
    dae_epochs: int
    estimator_epochs: int
    # The MI bounds of acceptance criterion 6 only hold on the paper's
    # 99-phase grid with thousands of shots per phase.
    physics_checks: bool


#: The paper's acquisition size.  Training keeps the default architectures,
#: batch size 10 and training-set sizes; only the epochs are cut so that each
#: training command takes 10-15 s at the default cost per step.
FULL = Sizes(n_phases=99, n_shots=5377, dae_epochs=200, estimator_epochs=900, physics_checks=True)
#: Harness smoke size: every command and check runs, in seconds.
TINY = Sizes(n_phases=3, n_shots=50, dae_epochs=2, estimator_epochs=2, physics_checks=False)

ESTIMATOR_PARAMETERS = 6449
MI_BOUND_BITS = 0.02

WORKLOADS = ("simulate_device", "pipeline_noiseless", "train")


@dataclass
class Outcome:
    """What the checks found in one command's output directory."""

    problems: list[str]
    #: Output file digests and discard counts that must repeat at one seed.
    fingerprint: dict
    #: Attempts and valid shots from the manifest's ``discard_stats``.
    counts: dict


@dataclass(frozen=True)
class Command:
    metric: str  # end-to-end metric stem: <metric>_s is this command's wall time
    argv: tuple[str, ...]  # arguments after ``python -m qadc.cli``
    out: Path
    check: Callable[["Command", Sizes], Outcome]


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _read_manifest(out: Path) -> tuple[dict, list[str], dict]:
    """Load the manifest and verify every file it lists against its digest."""
    path = out / "manifest.json"
    if not path.is_file():
        return {}, [f"{out.name}: no manifest.json"], {}
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return {}, [f"{out.name}: manifest.json is not JSON: {exc}"], {}
    problems, digests = [], {}
    for name, entry in manifest.get("files", {}).items():
        f = out / name
        if not f.is_file():
            problems.append(f"{out.name}/{name}: listed in the manifest but missing")
            continue
        digest = sha256(f)
        digests[f"{out.name}/{name}"] = digest
        if digest != entry.get("sha256") or f.stat().st_size != entry.get("bytes"):
            problems.append(f"{out.name}/{name}: sha256 or size differs from the manifest")
    return manifest, problems, digests


def check_simulate(cmd: Command, sizes: Sizes) -> Outcome:
    manifest, problems, digests = _read_manifest(cmd.out)
    strategy = cmd.argv[cmd.argv.index("--strategy") + 1]
    expected = {"quantum": ["quantum"], "classical": ["classical"], "both": ["quantum", "classical"]}[strategy]
    rows = sizes.n_phases * sizes.n_shots
    fingerprint, counts = dict(digests), {"attempts": 0, "valid": 0}
    stats = manifest.get("discard_stats", {})
    for name in expected:
        csv_path = cmd.out / f"{name}.csv"
        if f"{name}.csv" not in manifest.get("files", {}):
            problems.append(f"{name}.csv: not in the manifest")
            continue
        with open(csv_path, "rb") as fh:
            n_rows = fh.read().count(b"\n") - 1
        if n_rows != rows:
            problems.append(f"{name}.csv: {n_rows} rows, expected {rows}")
        st = stats.get(name, {})
        if "short_phases" in st:
            problems.append(f"{name}: short_phases {st['short_phases']}")
        if st.get("valid") != rows:
            problems.append(f"{name}: discard_stats valid {st.get('valid')}, expected {rows}")
        for key in ("attempts", "valid"):
            fingerprint[f"{cmd.out.name}/{name}.{key}"] = st.get(key)
            counts[key] += int(st.get(key) or 0)
    return Outcome(problems, fingerprint, counts)


def check_analyze(cmd: Command, sizes: Sizes) -> Outcome:
    _, problems, digests = _read_manifest(cmd.out)
    curves = cmd.out / "mi_curves.csv"
    if not curves.is_file():
        problems.append("mi_curves.csv: missing")
    else:
        lines = curves.read_text().splitlines()
        header = lines[0].split(",")
        cols = [header.index("mi_quantum"), header.index("mi_classical")]
        if len(lines) < 2:
            problems.append("mi_curves.csv: no curve points")
        for line in lines[1:]:
            cells = line.split(",")
            if not all(math.isfinite(float(cells[c])) for c in cols):
                problems.append(f"mi_curves.csv: non-finite MI in {line!r}")
                break
    return Outcome(problems, digests, {})


def check_report(cmd: Command, sizes: Sizes) -> Outcome:
    _, problems, digests = _read_manifest(cmd.out)
    path = cmd.out / "mi_summary.json"
    if not path.is_file():
        return Outcome(problems + ["mi_summary.json: missing"], digests, {})
    s = json.loads(path.read_text())
    if sizes.physics_checks:
        gap = abs(s["mi_raw_marginal"] - s["asymptote_quantum"])
        if not gap <= MI_BOUND_BITS:
            problems.append(f"mi_raw_marginal is {gap:.4f} bits from asymptote_quantum")
        if not s["mi_raw_full"] > s["mi_classical_full"]:
            problems.append("mi_raw_full does not exceed mi_classical_full")
    return Outcome(problems, digests, {})


def check_train(cmd: Command, sizes: Sizes) -> Outcome:
    _, problems, digests = _read_manifest(cmd.out)
    stage = cmd.argv[1]
    loss_path = cmd.out / f"loss_{stage}.csv"
    model_path = cmd.out / f"model_{stage}.json"
    if not (loss_path.is_file() and model_path.is_file()):
        return Outcome(problems + [f"{stage}: model or loss file missing"], digests, {})
    trace = [float(line.split(",")[1]) for line in loss_path.read_text().splitlines()[1:]]
    if not trace or not all(math.isfinite(x) for x in trace):
        problems.append(f"loss_{stage}.csv: empty or non-finite loss trace")
    elif not trace[-1] < trace[0]:
        problems.append(f"loss_{stage}.csv: final loss {trace[-1]} not below initial {trace[0]}")
    if stage == "estimator":
        model = json.loads(model_path.read_text())
        n_params = sum(len(w) for w in model["weights"]) + sum(len(b) for b in model["biases"])
        if n_params != ESTIMATOR_PARAMETERS:
            problems.append(f"estimator has {n_params} parameters, expected {ESTIMATOR_PARAMETERS}")
    return Outcome(problems, digests, {})


def commands(workload: str, seed: int, sizes: Sizes, round_dir: Path) -> list[Command]:
    """The workload's commands, writing under ``round_dir``, in the order they run."""
    seed_args = ("--seed", str(seed))
    size_args = ("--n-phases", str(sizes.n_phases), "--n-shots", str(sizes.n_shots))

    def simulate(out, *flags):
        argv = ("simulate", *flags, *size_args, *seed_args, "--out", str(out))
        return Command("simulate", argv, out, check_simulate)

    if workload == "simulate_device":
        # Exact-distribution building is about half of acquisition only under
        # device noise.  Classical acquisition ignores the noise, so it is
        # left to pipeline_noiseless.
        return [simulate(round_dir / "sim", "--device-noise", "--strategy", "quantum")]
    if workload == "pipeline_noiseless":
        sim, an, rp = round_dir / "sim", round_dir / "analyze", round_dir / "report"
        data = ("--quantum", str(sim / "quantum.csv"), "--classical", str(sim / "classical.csv"))
        return [
            simulate(sim, "--noiseless", "--strategy", "both"),
            Command("analyze", ("analyze", *data, *seed_args, "--out", str(an)), an, check_analyze),
            Command("report", ("report", *data, *seed_args, "--out", str(rp)), rp, check_report),
        ]
    if workload == "train":
        out = {stage: round_dir / f"train_{stage}" for stage in ("dae", "estimator")}
        epochs = {"dae": sizes.dae_epochs, "estimator": sizes.estimator_epochs}
        return [
            Command(
                f"train_{stage}",
                ("train", stage, "--set", f"ml.{stage}.epochs={epochs[stage]}", *seed_args, "--out", str(out[stage])),
                out[stage],
                check_train,
            )
            for stage in ("dae", "estimator")
        ]
    raise ValueError(f"unknown workload {workload!r}")
