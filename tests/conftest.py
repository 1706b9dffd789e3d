"""Shared helpers: independent oracles and random-instance generators."""

import math
from itertools import permutations

import numpy as np
import pytest

from qadc.analysis import MIEstimate, _mi_from_probabilities, mutual_information
from qadc.photonics import GramMatrix


def naive_permanent(matrix) -> complex:
    """Reference n!-sum permanent, independent of the Ryser implementation."""
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    if n == 0:
        return complex(1.0)
    return complex(
        sum(np.prod([m[i, p[i]] for i in range(n)]) for p in permutations(range(n)))
    )


def distribution_dict(counts, probs) -> dict:
    """``{count pattern: probability}`` view of a (counts, probs) distribution, in row order."""
    return {tuple(int(c) for c in row): float(p) for row, p in zip(counts, probs)}


def dense_probabilities(cum_probs):
    """Accepted probability of every outcome code from a step's cumulative distribution."""
    return np.diff(cum_probs, prepend=0.0)


def dense_bootstrap_mi(table, n_resamples: int, rng: np.random.Generator) -> MIEstimate:
    """Reference bootstrap: Poisson-resample every cell of the kept rows, zero or not.

    The dense form of `qadc.analysis.bootstrap_mi`: a replicate with some
    all-zero rows drops them, one with only zero rows is left out.
    """
    point = mutual_information(table)
    counts = table.counts[table.n_shots_effective > 0]
    values = []
    for _ in range(n_resamples):
        resampled = rng.poisson(counts).astype(float)
        totals = resampled.sum(axis=1)
        ok = totals > 0
        if ok.any():
            values.append(_mi_from_probabilities(resampled[ok] / totals[ok, None]))
    stderr = float(np.std(values, ddof=1)) if len(values) > 1 else math.nan
    return MIEstimate(point.value, stderr, len(values))


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase fixing."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :].conj()


def random_gram(n: int, rng: np.random.Generator) -> GramMatrix:
    """Random valid (complex, full-rank) Gram matrix with unit diagonal."""
    z = rng.normal(size=(n, n + 2)) + 1j * rng.normal(size=(n, n + 2))
    z /= np.linalg.norm(z, axis=1)[:, None]
    return GramMatrix(z @ z.conj().T)


@pytest.fixture
def rng():
    return np.random.default_rng(20250811)


#: Bit weight of each column of a 7-bit record row, m6 (or c6) the high bit.
_RECORD_PLACES = 1 << np.arange(6, -1, -1)


def record_bits(codes):
    """[n, 7] int8 rows m6..m0 (or c6..c0) of 7-bit record codes."""
    return ((np.asarray(codes)[:, None] & _RECORD_PLACES) > 0).astype(np.int8)


def record_codes(bits):
    """Codes of [k, n] bit rows, the first column high.

    The rows are 7-bit records m6..m0 (or c6..c0), or the outcome bits of an
    n-qubit step, qubit 0 first.
    """
    bits = np.asarray(bits, dtype=np.int64)
    return bits @ (1 << np.arange(bits.shape[-1] - 1, -1, -1))


def b_code(b1: int, b2: int, b3: int) -> int:
    """b-index of the informative bits: column of a b-table, estimate 2 pi j / 8."""
    return 4 * b1 + 2 * b2 + b3


def b_bits(ds):
    """The (b1, b2, b3) columns of a quantum dataset: m0, m1 and m3.

    The rows m6..m0 of ``ds.records`` hold them at columns 6, 5 and 3.  The
    literal is kept apart from ``protocol._B_POSITIONS`` so that the tests
    read the paper's bit positions rather than the writer's constant.
    """
    return record_bits(ds.records)[:, [6, 5, 3]]


def wrap_difference(a: float, b: float) -> float:
    """Signed circular difference a - b in (-pi, pi]."""
    d = (a - b) % (2 * math.pi)
    return d - 2 * math.pi if d > math.pi else d


def moduli_fidelity(u, v) -> float:
    """Cosine similarity of the entry-wise moduli of two matrices.

    Returns ``sum |u_ij||v_ij| / sqrt(sum |u_ij|^2 * sum |v_ij|^2)``, which is
    1 exactly when the moduli coincide and 0 for disjoint support.
    """
    a = np.abs(np.asarray(u))
    b = np.abs(np.asarray(v))
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    denom = math.sqrt(float(np.sum(a * a)) * float(np.sum(b * b)))
    if denom == 0.0:
        raise ValueError("moduli fidelity undefined for zero matrices")
    return float(np.sum(a * b) / denom)


def physical_rail_pairs(n_qubits: int) -> tuple[tuple[int, int], ...]:
    """Plain (even, odd) mode pairs of each qubit, ignoring the logical frame."""
    return tuple((2 * k, 2 * k + 1) for k in range(n_qubits))


def physical_ghz_target(n_qubits: int) -> np.ndarray:
    """The probe in the physical (even rail = 0) frame: (|0101...> + |1010...>)/sqrt(2)."""
    vec = np.zeros(2**n_qubits, dtype=complex)
    a = int("".join("01"[k % 2] for k in range(n_qubits)), 2)
    b = int("".join("10"[k % 2] for k in range(n_qubits)), 2)
    vec[a] = vec[b] = 1.0 / math.sqrt(2.0)
    return vec


def norm_squared(state) -> float:
    """Squared norm of an explicit `MultimodeState`."""
    return float(sum(abs(a) ** 2 for a in state.amplitudes.values()))


def sample_survivors(model, count: int, n_bins: int, rng, conditioned: bool = False):
    """Draw ``count`` realizations of ``n_bins`` source bins.

    Returns two [count, n_bins] bool masks: the main photon of a bin was
    emitted and survived, and a second photon was emitted in it and survived.
    Each bin emits 0/1/2 photons with (p0, p1, p2) and each photon survives
    with probability eta.  ``conditioned`` conditions every bin on having
    fired, so only the doubling is drawn.  A Monte Carlo cross-check of
    `qadc.photonics.class_probabilities`.
    """
    shape = (count, n_bins)
    if conditioned:
        p_all = model.emission_probability
        if p_all <= 0:
            raise ValueError("conditioned source needs non-zero brightness")
        doubled = rng.random(shape) < model.p2 / p_all
        main_alive = rng.random(shape) < model.eta
    else:
        u = rng.random(shape)
        doubled = u >= model.p0 + model.p1
        main_alive = (u >= model.p0) & (rng.random(shape) < model.eta)
    extra_alive = doubled & (rng.random(shape) < model.eta)
    return main_alive, extra_alive
