"""Fast built-in consistency checks behind the `qadc selftest` command.

A trimmed version of the test suite's oracle-equivalence and invariant
checks, suitable for a quick install sanity pass (a few seconds).
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np

from qadc import analysis, linop, ml, photonics


def _random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :].conj()


def _random_gram(n: int, rng: np.random.Generator) -> photonics.GramMatrix:
    z = rng.normal(size=(n, n + 1)) + 1j * rng.normal(size=(n, n + 1))
    z /= np.linalg.norm(z, axis=1)[:, None]
    return photonics.GramMatrix(z @ z.conj().T)


def _naive_permanent(m: np.ndarray) -> complex:
    n = m.shape[0]
    return complex(
        sum(np.prod([m[i, p[i]] for i in range(n)]) for p in permutations(range(n)))
    ) if n else complex(1.0)


def run() -> list[tuple[str, str]]:
    """Run all checks; returns (name, message) pairs for failures."""
    failures: list[tuple[str, str]] = []

    def check(name: str, fn):
        try:
            fn()
        except Exception as exc:  # pragma: no cover - failure reporting
            failures.append((name, str(exc)))

    rng = np.random.default_rng(20240801)

    def permanent_check():
        for n in (0, 1, 2, 3, 4, 5):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            fast = linop.permanent(m)
            slow = _naive_permanent(m)
            if abs(fast - slow) > 1e-12 * max(1.0, abs(slow)):
                raise AssertionError(f"n={n}: {fast} vs {slow}")

    check("permanent-vs-naive", permanent_check)

    def fast_vs_oracle():
        for n in (2, 3):
            for _ in range(10):
                u = _random_unitary(n + 1, rng)
                ens = photonics.PhotonEnsemble(tuple(range(n)), _random_gram(n, rng))
                marg = photonics.oracle_full_state(u, ens).spatial_marginals()
                for counts, p_oracle in marg.items():
                    modes = [m for m, c in enumerate(counts) for _ in range(c)]
                    if len(set(modes)) != len(modes):
                        continue
                    p_fast = photonics.output_probability(u, ens, tuple(modes))
                    if abs(p_fast - p_oracle) > 1e-10:
                        raise AssertionError(f"{counts}: {p_fast} vs {p_oracle}")

    check("fast-vs-oracle", fast_vs_oracle)

    def hom_check():
        cell = linop.MZCell(0, 0, math.pi / 2, 0.0)
        u = linop.cell_unitary(cell)
        for delta in (0.0, 0.25, 0.5, 0.75, 1.0):
            ens = photonics.PhotonEnsemble((0, 1), photonics.uniform_gram(delta, 2))
            p = photonics.output_probability(u, ens, (0, 1))
            if abs(p - (1 - delta) / 2) > 1e-10:
                raise AssertionError(f"delta={delta}: {p}")

    check("hom-dip", hom_check)

    def ghz_check():
        for n, succ in ((2, 0.5), (4, 0.125)):
            prog = linop.build_step_program("prep", n)
            state = photonics.oracle_full_state(
                linop.mesh_unitary(prog),
                photonics.ensemble_from_parts(linop.GHZ_INPUT_MODES[n], (), 1.0),
            )
            ds = photonics.postselect_dualrail(state, linop.logical_rail_pairs(n))
            fid = photonics.state_fidelity(ds, photonics.ghz_target(n))
            if fid < 1 - 1e-10 or abs(ds.success_prob - succ) > 1e-9:
                raise AssertionError(f"n={n}: fid={fid}, succ={ds.success_prob}")

    check("ghz-preparation", ghz_check)

    def mi_check():
        counts = np.zeros((8, 8))
        np.fill_diagonal(counts, 100)
        table = analysis.CondProbTable(analysis.HISTOGRAM_BIN_CENTERS, counts, kind="b3")
        if abs(analysis.mutual_information(table).value - 3.0) > 1e-12:
            raise AssertionError("bijection table MI is not 3 bits")

    check("mi-bijection", mi_check)

    def grad_check():
        spec = ml.NetworkSpec((3, 6, 2), ("tanh", "linear"))
        net = ml.Network.initialize(spec, rng)
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(5, 2))
        dw, _, _ = ml.gradients(net, x, y)
        h = 1e-5
        w = net.weights[0]
        for i in (0, 1):
            orig = w[i, 0]
            w[i, 0] = orig + h
            _, _, lp = ml.gradients(net, x, y)
            w[i, 0] = orig - h
            _, _, lm = ml.gradients(net, x, y)
            w[i, 0] = orig
            fd = (lp - lm) / (2 * h)
            if abs(fd - dw[0][i, 0]) > 1e-4 * max(1e-8, abs(fd)):
                raise AssertionError("gradient mismatch")

    check("gradcheck", grad_check)

    return failures
