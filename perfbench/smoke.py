"""Smoke check of the benchmark harness at a tiny size (3 phases x 50 shots, 2 epochs).

Run from the repository root:

    python3 perfbench/smoke.py

It runs every workload untraced and traced, checks the shape of each result
line, checks that a damaged dataset fails the output checks, and checks that
the harness refuses to run in a directory without the qadc sources.  Exits 0
when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import ROOT, SRC, WORK, child_env
from workloads import TINY, WORKLOADS, check_simulate, commands


def harness(args: list[str], root: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def check_results(failures: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
            code, lines = harness(args)
            label = f"{workload} --trace {trace}"
            if code != 0 or not lines:
                failures.append(f"{label}: exit code {code}")
                continue
            result = json.loads(lines[-1])
            wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            elif not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: {result['failed']} of {result['attempted']} failed; see the lines above it")
            elif set(result["metrics"]) != wanted:
                failures.append(f"{label}: metrics {sorted(set(result['metrics']) ^ wanted)} missing or unexpected")


def check_damage_is_caught(failures: list[str]) -> None:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        cmd = commands("simulate_device", 7, TINY, Path(tmp))[0]
        subprocess.run(
            [sys.executable, "-m", "qadc.cli", *cmd.argv],
            env=child_env(Path(tmp)),
            cwd=ROOT,
            check=True,
            capture_output=True,
            timeout=120,
        )
        if check_simulate(cmd, TINY).problems:
            failures.append("an intact simulate output fails its checks")
        csv_path = cmd.out / "quantum.csv"
        lines = csv_path.read_text().splitlines(keepends=True)
        csv_path.write_text("".join(lines[:-1]))
        problems = check_simulate(cmd, TINY).problems
        if not any("rows" in p for p in problems) or not any("sha256" in p for p in problems):
            failures.append(f"a truncated quantum.csv is not caught: {problems}")


def check_bare_directory(failures: list[str]) -> None:
    """Only BENCHMARK.json and perfbench/: the harness must fail without a result."""
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = harness(["--workload", "train", "--seed", "7", "--seconds", "1", "--trace", "0"], bare)
        if code == 0 or any(line.startswith("{") for line in lines):
            failures.append(f"bare directory: exit code {code}, output {lines}")


def main() -> int:
    if not (SRC / "qadc").is_dir():
        print("smoke: run from a repository checkout", file=sys.stderr)
        return 2
    failures: list[str] = []
    check_results(failures)
    check_damage_is_caught(failures)
    check_bare_directory(failures)
    for failure in failures:
        print(f"smoke FAIL: {failure}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
