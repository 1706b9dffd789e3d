"""Committed mutation checks: each mutant must be killed by the tests it names.

Run from anywhere, with the interpreter that runs the test suite::

    python mutants/run.py

Each row of `MUTANTS` gives a file of the repository, an exact text that
must occur in it once, the text that replaces it, and the pytest node ids
that must pass on the unmutated tree and fail on the mutated one.  The
working tree's ``src``, ``tests`` and ``pyproject.toml`` are copied to a
temporary directory, once unmutated and once per mutant, and the named tests
run there with ``PYTHONPATH`` set to the copy's ``src``.  A mutant is killed
when every one of its tests reports a failure; a test that errors, is
skipped, or is never reached (a collection error) does not count.  A mutant
whose old text is missing or ambiguous stops the run before any test runs.

Exit code 0 when the unmutated tree passes every named test and every
mutant is killed, 1 otherwise.  A surviving mutant is a fault of the tests
to report, not a reason to edit the mutant or the tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids that must fail


MUTANTS = (
    Mutant(
        "sweep-1photon-r2-r3-swapped",
        "src/qadc/protocol.py",
        "(f1[:, 1] == b2) & (f1[:, 2] == b3)",
        "(f1[:, 1] == b3) & (f1[:, 2] == b2)",
        ("tests/test_record_law.py::test_device_noise_sweep_records_follow_the_law",),
    ),
    Mutant(
        "law-1photon-flags-swapped",
        "src/qadc/protocol.py",
        "law = reached * p1[b2, b3, b1]",
        "law = reached * p1[b3, b2, b1]",
        (
            "tests/test_record_law.py::test_device_noise_samples_follow_the_law",
            "tests/test_protocol.py::TestMarginalLaws::test_b1_law_conditional",
        ),
    ),
    Mutant(
        "loss-bins-1-2-swapped",
        "src/qadc/protocol.py",
        "losses = [reach1 - law.sum(), p4.sum() - reach1, 1.0 - p4.sum()]",
        "losses = [p4.sum() - reach1, reach1 - law.sum(), 1.0 - p4.sum()]",
        ("tests/test_record_law.py::test_lossy_discards_follow_the_stage_losses",),
    ),
    Mutant(
        "no-pre-flight",
        "src/qadc/protocol.py",
        "    if expected < 1.0:\n",
        "    if False:\n",
        (
            "tests/test_cli.py::TestSimulate::test_hopeless_run_fails_before_any_attempt[quantum]",
            "tests/test_cli.py::TestSimulate::test_hopeless_run_fails_before_any_attempt[classical]",
        ),
    ),
    Mutant(
        "sweep-no-pre-flight",
        "src/qadc/protocol.py",
        '"sweep", _quantum_acceptance, _sweep_cap_scale',
        '"sweep", lambda sim, phi: 1.0, _sweep_cap_scale',
        ("tests/test_cli.py::TestSimulate::test_hopeless_run_fails_before_any_attempt[sweep]",),
    ),
    Mutant(
        "b-positions-swapped",
        "src/qadc/protocol.py",
        "_B_POSITIONS = [6, 5, 3]",
        "_B_POSITIONS = [6, 3, 5]",
        (
            "tests/test_analysis.py::TestHistograms::test_deterministic_phase_mass",
            "tests/test_cli.py::TestByteIdentity::test_pinned_dataset_and_curve_bytes",
            "tests/test_protocol.py::TestDatasetFiles::test_every_record_code_round_trips[quantum]",
        ),
    ),
    Mutant(
        "adam-bias-corrections-folded",
        "src/qadc/ml.py",
        "        correction1 = 1 - ADAM_BETA1**self.t\n"
        "        if correction1 == 1.0:\n"
        "            np.multiply(m, self.cfg.learning_rate, out=step)\n"
        "        else:\n"
        "            np.divide(m, correction1, out=step)\n"
        "            step *= self.cfg.learning_rate\n"
        "        correction2 = 1 - ADAM_BETA2**self.t\n"
        "        if correction2 == 1.0:\n"
        "            np.sqrt(v, out=denom)\n"
        "        else:\n"
        "            np.divide(v, correction2, out=denom)\n"
        "            np.sqrt(denom, out=denom)\n",
        "        np.multiply(m, self.cfg.learning_rate * (1 - ADAM_BETA2**self.t) ** 0.5\n"
        "                    / (1 - ADAM_BETA1**self.t), out=step)\n"
        "        np.sqrt(v, out=denom)\n",
        ("tests/test_ml.py::TestFlatTrainingMatchesReference::test_adam_equals_per_tensor_steps",),
    ),
    Mutant(
        "adam-beta1-correction-skipped-near-one",
        "src/qadc/ml.py",
        "        if correction1 == 1.0:\n",
        "        if abs(correction1 - 1.0) < 1e-9:\n",
        ("tests/test_ml.py::TestFlatTrainingMatchesReference::test_adam_equals_per_tensor_steps",),
    ),
    Mutant(
        "adam-beta2-correction-skipped-near-one",
        "src/qadc/ml.py",
        "        if correction2 == 1.0:\n",
        "        if abs(correction2 - 1.0) < 1e-9:\n",
        ("tests/test_ml.py::TestFlatTrainingMatchesReference::test_adam_equals_per_tensor_steps",),
    ),
    Mutant(
        "relu-mask-keeps-zero-outputs",
        "src/qadc/ml.py",
        "        delta *= post > 0\n",
        "        delta *= post >= 0\n",
        ("tests/test_ml.py::TestFlatTrainingMatchesReference::test_gradients_equal_per_tensor_backprop",),
    ),
    Mutant(
        "reader-no-row-count-check",
        "src/qadc/protocol.py",
        "    if len(table) != n_lines:\n        return None\n",
        "",
        (
            "tests/test_protocol.py::TestReaderPaths::test_paths_agree_on_edited_files[quantum-blank line]",
            "tests/test_protocol.py::TestReaderPaths::test_paths_agree_on_edited_files[classical-blank line]",
        ),
    ),
    Mutant(
        "reader-no-cr-check",
        "src/qadc/protocol.py",
        'if b"\\r" in raw or n_lines < 1:',
        "if n_lines < 1:",
        (
            "tests/test_protocol.py::TestReaderPaths::test_paths_agree_on_edited_files[quantum-stray carriage return]",
            "tests/test_protocol.py::TestReaderPaths::test_paths_agree_on_edited_files[classical-stray carriage return]",
        ),
    ),
    Mutant(
        "4photon-parity-filter-removed",
        "src/qadc/protocol.py",
        "keep4 = f4[:, 0] == (x4 ^ x4 >> 1 ^ x4 >> 2) & 1",
        "keep4 = np.ones(len(c4), dtype=bool)",
        ("tests/test_protocol.py::TestSweepAndMatching::test_step1_parity_filter",),
    ),
    Mutant(
        "2photon-parity-filter-removed",
        "src/qadc/protocol.py",
        "keep2 = f2[:, 0] == c2 >> 1",
        "keep2 = np.ones(len(c2), dtype=bool)",
        ("tests/test_protocol.py::TestSweepAndMatching::test_step1_parity_filter",),
    ),
    Mutant(
        "sweep-configuration-count-doubled",
        "src/qadc/protocol.py",
        "        reps[n] = [math.ceil(pool / rate) if rate > 0 else 0] * len(SWEEP_FLAGS[n])\n",
        "        reps[n] = [math.ceil(pool / rate) if rate > 0 else 0] * len(SWEEP_FLAGS[n])\n"
        "        reps[n][1] *= 2\n",
        ("tests/test_record_law.py::test_device_noise_sweep_records_follow_the_law",),
    ),
    Mutant(
        "sweep-cap-unscaled",
        "src/qadc/protocol.py",
        "phase_cap = cap if cap_scale is None else math.ceil(cap * cap_scale(sim, float(phi)))",
        "phase_cap = cap",
        ("tests/test_protocol.py::TestNoiseChannels::test_sweep_cap_counts_feed_forward_repetitions",),
    ),
    Mutant(
        "stream-match-re-added",
        "src/qadc/protocol.py",
        "_STREAM_SWEEP = 3\n",
        "_STREAM_SWEEP = 3\n_STREAM_MATCH = 4\n",
        ("tests/test_dead_api.py::test_every_private_name_is_referenced",),
    ),
    Mutant(
        "mesh-program-unitary-added",
        "src/qadc/linop.py",
        '                f"({len(self.cells)} cells, expected {len(expected)})"\n            )\n',
        '                f"({len(self.cells)} cells, expected {len(expected)})"\n            )\n'
        "\n    def unitary(self) -> np.ndarray:\n        return mesh_unitary(self)\n",
        ("tests/test_dead_api.py::test_every_unreferenced_public_name_is_allowlisted",),
    ),
    Mutant(
        "mesh-program-distribution-added",
        "src/qadc/linop.py",
        '                f"({len(self.cells)} cells, expected {len(expected)})"\n            )\n',
        '                f"({len(self.cells)} cells, expected {len(expected)})"\n            )\n'
        "\n    def distribution(self) -> np.ndarray:\n        return mesh_unitary(self)\n",
        ("tests/test_dead_api.py::test_every_unreferenced_public_name_is_allowlisted",),
    ),
    Mutant(
        "train-config-from-json-dict-added",
        "src/qadc/ml.py",
        '            raise ValueError("learning rate must be positive")\n',
        '            raise ValueError("learning rate must be positive")\n'
        "\n    @classmethod\n"
        '    def from_json_dict(cls, doc: dict) -> "TrainConfig":\n'
        "        return cls(**doc)\n",
        ("tests/test_dead_api.py::test_every_unreferenced_public_name_is_allowlisted",),
    ),
    Mutant(
        "attempts-counted-past-the-last-kept-repetition",
        "src/qadc/protocol.py",
        "    if need and len(kept) == need:\n        u = u[: kept[-1] + 1]\n",
        "",
        (
            "tests/test_record_law.py::test_recorded_attempts_follow_the_acceptance[quantum]",
            "tests/test_record_law.py::test_recorded_attempts_follow_the_acceptance[classical]",
            "tests/test_sampler_reference.py::test_chunks_stop_at_the_last_needed_repetition[device]",
        ),
    ),
    Mutant(
        "series-without-k0-default",
        "src/qadc/protocol.py",
        "k = max((ensemble.n_photons for _, ensemble in self._classes[n]), default=0)",
        "k = max(ensemble.n_photons for _, ensemble in self._classes[n])",
        (
            "tests/test_cli.py::TestSimulate::test_run_without_valid_repetitions_fails[quantum-eta0]",
            "tests/test_cli.py::TestSimulate::test_run_without_valid_repetitions_fails[classical-eta0]",
        ),
    ),
    Mutant(
        "writer-shot-offset-dropped",
        "src/qadc/protocol.py",
        "texts[block - lo]",
        "texts[block]",
        (
            "tests/test_protocol.py::TestDatasetFiles::test_narrow_shot_indices_round_trip[quantum-1000003]",
            "tests/test_protocol.py::TestDatasetFiles::test_narrow_shot_indices_round_trip[quantum--200]",
            "tests/test_protocol.py::TestDatasetFiles::test_narrow_shot_indices_round_trip[classical-1000003]",
            "tests/test_protocol.py::TestDatasetFiles::test_narrow_shot_indices_round_trip[classical--200]",
        ),
    ),
    Mutant(
        "reader-negative-bits-accepted",
        "src/qadc/protocol.py",
        "if bits.min() < 0 or bits.max() > 1:",
        "if bits.max() > 1:",
        (
            "tests/test_protocol.py::TestReaderPaths::test_paths_agree_on_edited_files[quantum-bit value -1]",
            "tests/test_protocol.py::TestReaderPaths::test_paths_agree_on_edited_files[classical-bit value -1]",
        ),
    ),
    Mutant(
        "bootstrap-zero-row-fallback-dropped",
        "src/qadc/analysis.py",
        "        if ok.all():\n",
        "        if ok.any():\n",
        ("tests/test_analysis.py::TestBootstrapMatchesDenseReference::test_tables[phases-resampled-to-zero]",),
    ),
    Mutant(
        "bootstrap-marginal-over-nonzero-cells",
        "src/qadc/analysis.py",
        "p_m = np.bincount(cols, weights=p, minlength=n_cols) / n_rows",
        "p_m = np.bincount(cols, weights=p, minlength=n_cols) / len(rows)",
        (
            "tests/test_analysis.py::TestBootstrapMatchesDenseReference::test_analyze_curve_tables[quantum]",
            "tests/test_analysis.py::TestBootstrapMatchesDenseReference::test_analyze_curve_tables[classical]",
        ),
    ),
    Mutant(
        # The bare-name scan keeps it through `net.to_json_dict` in cli.cmd_train.
        "mesh-program-to-json-dict-added",
        "src/qadc/linop.py",
        '                f"({len(self.cells)} cells, expected {len(expected)})"\n            )\n',
        '                f"({len(self.cells)} cells, expected {len(expected)})"\n            )\n'
        "\n    def to_json_dict(self) -> dict:\n        return {\"cells\": len(self.cells)}\n",
        ("tests/test_dead_api.py::test_every_unreferenced_public_name_is_allowlisted",),
    ),
    Mutant(
        "cell-theta-reflected-to-0-pi",
        "src/qadc/linop.py",
        '        object.__setattr__(self, "theta", wrap_phase(self.theta))\n',
        "        theta = wrap_phase(self.theta)\n"
        '        object.__setattr__(self, "theta", TWO_PI - theta if theta > math.pi else theta)\n',
        (
            "tests/test_linop.py::TestCell::test_wrapped_cell_keeps_the_unwrapped_unitary",
            "tests/test_cli.py::TestByteIdentity::test_pinned_sweep_and_programming_error_bytes",
        ),
    ),
)


def junit_key(node_id: str) -> tuple[str, str]:
    """The (classname, name) pair that pytest's JUnit XML gives a node id."""
    path, *parts = node_id.split("::")
    module = path.removesuffix(".py").replace("/", ".")
    return ".".join([module, *parts[:-1]]), parts[-1]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=ignore)
        else:
            shutil.copy2(source, dest / name)


def outcomes(tree: Path, node_ids: list[str]) -> dict[str, str]:
    """Run ``node_ids`` in ``tree``: each id's outcome, or "missing" if it did not run."""
    report = tree / "junit.xml"
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"--junitxml={report}", *node_ids],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    found = {}
    if report.exists():
        for case in ET.parse(report).iter("testcase"):
            tags = {child.tag for child in case}
            outcome = next((t for t in ("failure", "error", "skipped") if t in tags), "passed")
            found[(case.get("classname"), case.get("name"))] = outcome
    return {node: found.get(junit_key(node), "missing") for node in node_ids}


def check_texts() -> None:
    for mutant in MUTANTS:
        count = (ROOT / mutant.path).read_text().count(mutant.old)
        if count != 1:
            raise SystemExit(
                f"mutant {mutant.name}: its old text occurs {count} times in {mutant.path}"
            )


def main() -> int:
    check_texts()
    start = time.perf_counter()
    ok = True
    with tempfile.TemporaryDirectory(prefix="qadc-mutants-") as tmp:
        base = Path(tmp) / "unmutated"
        copy_tree(base)
        named = sorted({node for m in MUTANTS for node in m.tests})
        for node, outcome in outcomes(base, named).items():
            if outcome != "passed":
                print(f"UNMUTATED {outcome.upper()}: {node}")
                ok = False
        if not ok:
            print("the unmutated tree must pass every named test; no mutant was run")
            return 1
        for mutant in MUTANTS:
            tree = Path(tmp) / mutant.name
            copy_tree(tree)
            target = tree / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
            results = outcomes(tree, list(mutant.tests))
            killed = all(outcome == "failure" for outcome in results.values())
            ok &= killed
            print(f"{'killed  ' if killed else 'SURVIVED'} {mutant.name}")
            if not killed:
                for node, outcome in results.items():
                    print(f"    {outcome}: {node}")
            shutil.rmtree(tree)
    print(f"{len(MUTANTS)} mutants in {time.perf_counter() - start:.0f} s: "
          f"{'all killed' if ok else 'some survived'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
