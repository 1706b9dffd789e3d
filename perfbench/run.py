"""qadc benchmark harness.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline_noiseless --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload's commands run as ``python -m qadc.cli``
subprocesses, one at a time (a closed loop with one client), in rounds until
``--seconds`` have passed (at least one round); each end-to-end metric is the
median over rounds.  With ``--trace 1`` one untraced round runs, then the same
commands run in this process through ``qadc.cli.main`` with spans around calls
into each module's public functions, and the per-layer metrics are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names and
units come from ``BENCHMARK.json``.  Scratch files go under
``.perfbench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

from tracing import TRACED, Tracer
from workloads import FULL, TINY, WORKLOADS, Command, Outcome, Sizes, commands

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
#: Every run ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: BLAS runs single-threaded unless the caller sets these.  The matrices are
#: at most 128 wide; on 2 cores the default threaded OpenBLAS made device-noise
#: simulate about 35% slower and its wall time far noisier between runs.
PINNED_BLAS_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Round:
    times: dict[str, float] = field(default_factory=dict)  # command metric -> wall seconds
    peak_rss_mib: float = 0.0
    problems: dict[str, list[str]] = field(default_factory=dict)  # command metric -> problems
    fingerprint: dict = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=lambda: {"attempts": 0, "valid": 0})

    @property
    def total_s(self) -> float:
        return sum(self.times.values())

    def record(self, cmd: Command, wall: float, outcome: Outcome) -> None:
        self.times[cmd.metric] = wall
        if outcome.problems:
            self.problems[cmd.metric] = outcome.problems
        self.fingerprint.update(outcome.fingerprint)
        for key, value in outcome.counts.items():
            self.counts[key] += value


def check(cmd: Command, sizes: Sizes, exit_code: int) -> Outcome:
    if exit_code != 0:
        return Outcome([f"exit code {exit_code}"], {}, {})
    try:
        return cmd.check(cmd, sizes)
    except Exception as exc:  # a malformed output is a failed command, not a harness crash
        return Outcome([f"output check raised {exc!r}"], {}, {})


def child_env(run_dir: Path) -> dict[str, str]:
    tmp = run_dir / "tmp"
    tmp.mkdir(exist_ok=True)
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp))


def run_command(argv: list[str], env: dict, log, deadline: float) -> tuple[float, int, float]:
    """Run one command to completion: (wall seconds, exit code, max RSS in MiB)."""
    log.flush()
    t0 = perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def setup(run_dir: Path, env: dict, log, deadline: float) -> float:
    """Median time to make a scratch directory and import qadc.cli in a fresh interpreter."""
    times = []
    for i in range(SETUP_REPEATS):
        t0 = perf_counter()
        (run_dir / f"setup{i}").mkdir()
        _, code, _ = run_command([sys.executable, "-c", "import qadc.cli"], env, log, deadline)
        if code != 0:
            raise RuntimeError(f"importing qadc.cli failed with exit code {code}; see {log.name}")
        times.append(perf_counter() - t0)
    return statistics.median(times)


def untraced_round(workload: str, seed: int, sizes: Sizes, round_dir: Path, env, log, deadline) -> Round:
    rnd = Round()
    for cmd in commands(workload, seed, sizes, round_dir):
        argv = [sys.executable, "-m", "qadc.cli", *cmd.argv]
        wall, code, rss = run_command(argv, env, log, deadline)
        rnd.peak_rss_mib = max(rnd.peak_rss_mib, rss)
        rnd.record(cmd, wall, check(cmd, sizes, code))
    return rnd


def traced_round(workload: str, seed: int, sizes: Sizes, round_dir: Path, log) -> tuple[Round, Tracer]:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from qadc import cli

    rnd, tracer = Round(), Tracer()
    tracer.install()
    try:
        for cmd in commands(workload, seed, sizes, round_dir):
            t0 = perf_counter()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                with tracer.span(f"cli.{cmd.metric}"):
                    try:
                        code = cli.main(list(cmd.argv))
                    except Exception:
                        traceback.print_exc()
                        code = -1
            rnd.record(cmd, perf_counter() - t0, check(cmd, sizes, code))
    finally:
        tracer.uninstall()
    return rnd, tracer


def repeat_key(workload: str, seed: int, sizes: Sizes) -> str:
    """Names the runs whose outputs must agree: same workload, seed, sizes and sources."""
    digest = hashlib.sha256(repr(sizes).encode())
    for path in sorted((SRC / "qadc").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return f"{workload}-seed{seed}-{digest.hexdigest()[:16]}"


def repeat_problems(kind: str, key: str, values: dict) -> list[str]:
    """Compare values that must repeat at one seed with those of an earlier run of the same sources."""
    path = WORK / "fingerprints" / f"{key}.{kind}.json"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(values, sort_keys=True))
        return []
    before = json.loads(path.read_text())
    return [
        f"{kind} {name}: {before.get(name)} in an earlier run, {values.get(name)} now"
        for name in sorted(set(before) | set(values))
        if before.get(name) != values.get(name)
    ]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def layer_metrics(names: list[str], tracer: Tracer, traced: Round, untraced: Round) -> dict[str, float]:
    summary = tracer.summary()
    special = {
        "protocol.distribution.build_ratio": _ratio(
            summary.get("photonics.full_output_distribution", {}).get("calls", 0),
            summary.get("protocol.StepSimulator.distribution", {}).get("calls", 0),
        ),
        "protocol.acceptance": _ratio(traced.counts["valid"], traced.counts["attempts"]),
        "protocol.attempts": traced.counts["attempts"],
        "protocol.valid": traced.counts["valid"],
        "protocol.csv_bytes_written": tracer.bytes_written,
        "trace.total_s": traced.total_s,
        "trace.untraced_total_s": untraced.total_s,
        "trace.overhead_s": traced.total_s - untraced.total_s,
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]
            continue
        span, _, stat = name.rpartition(".")
        if stat not in ("calls", "s", "self_s") or not (span in TRACED or span.startswith("cli.")):
            raise KeyError(f"per-layer metric {name!r} names no traced span")
        values[name] = summary.get(span, {}).get(stat, 0)
    return values


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def deterministic(values: dict[str, float]) -> dict[str, float]:
    exact = ("protocol.csv_bytes_written", "protocol.attempts", "protocol.valid")
    return {k: v for k, v in values.items() if k.endswith(".calls") or k in exact}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float, help="measure rounds for this long (at least one round)")
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true", help="3 phases x 50 shots and 2 epochs: a smoke check of the harness")
    return p.parse_args(argv)


def measure(args, sizes: Sizes, run_dir: Path, log) -> tuple[float, list[Round], Tracer | None]:
    """Set up, then run untraced rounds for ``args.seconds`` (one round when tracing, then a traced one)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    env = child_env(run_dir)
    setup_s = setup(run_dir, env, log, deadline)
    rounds: list[Round] = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        round_dir = run_dir / f"round{len(rounds)}"
        rounds.append(untraced_round(args.workload, args.seed, sizes, round_dir, env, log, deadline))
        shutil.rmtree(round_dir, ignore_errors=True)
        took = perf_counter() - t0
        if args.trace or perf_counter() - start + took > args.seconds:
            break
    if not args.trace:
        return setup_s, rounds, None
    traced, tracer = traced_round(args.workload, args.seed, sizes, run_dir / "traced", log)
    return setup_s, rounds + [traced], tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in PINNED_BLAS_ENV_VARS:
        os.environ.setdefault(name, "1")
    if not (SRC / "qadc" / "cli.py").is_file():
        print(f"perfbench: no qadc sources at {SRC / 'qadc'}; run from a repository checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    sizes = TINY if args.tiny else FULL
    key = repeat_key(args.workload, args.seed, sizes)

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    log_path = WORK / "logs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.log"
    log_path.parent.mkdir(exist_ok=True)
    try:
        with open(log_path, "w") as log:
            setup_s, rounds, tracer = measure(args, sizes, run_dir, log)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    untraced = rounds if not args.trace else rounds[:1]
    commands_run = [metric for rnd in rounds for metric in rnd.times]
    failed = sum(len(rnd.problems) for rnd in rounds)
    problems = [f"round {i} {m}: {p}" for i, rnd in enumerate(rounds) for m, ps in rnd.problems.items() for p in ps]
    for i, rnd in enumerate(rounds[1:], start=1):
        if rnd.fingerprint != rounds[0].fingerprint:
            problems.append(f"round {i}: outputs differ from round 0 at the same seed")
    problems += repeat_problems("outputs", key, rounds[0].fingerprint)

    e2e = {f"{m}_s": statistics.median(r.times[m] for r in untraced) for m in untraced[0].times}
    e2e.update(
        total_s=statistics.median(r.total_s for r in untraced),
        peak_rss_mb=max(r.peak_rss_mib for r in untraced),
        setup_s=setup_s,
        failed_op_ratio=failed / len(commands_run),
    )
    units = {"peak_rss_mb": "MiB", "failed_op_ratio": "1"}
    if args.trace:
        values = layer_metrics([m["name"] for m in metric_specs], tracer, rounds[-1], rounds[0])
        problems += repeat_problems("counters", key, deterministic(values))
        _write_json(WORK / "traces" / f"{args.workload}-seed{args.seed}.json", {"spans": tracer.spans})
    else:
        values = e2e

    env_record = environment(args.seed)
    record = {
        "workload": args.workload,
        "sizes": vars(sizes),
        "environment": env_record,
        "rounds": len(untraced),
        "end_to_end": e2e,
        "per_layer": values if args.trace else None,
        "problems": problems,
    }
    _write_json(WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)

    print(f"workload {args.workload}: {len(untraced)} untraced round(s), seed {args.seed}")
    for name, value in e2e.items():
        print(f"  {name:<22} {value:12.4f} {units.get(name, 's')}")
    if args.trace:
        for m in metric_specs:
            print(f"  {m['name']:<46} {values[m['name']]:14.6g} {m['unit']}")
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    print("env " + json.dumps(env_record, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": len(commands_run),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs},
    }
    print(json.dumps(result))
    return 0


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
