"""Raw-data estimators, conditional-probability tables and mutual information.

Tables hold per-phase outcome counts; probabilities are plug-in frequencies
N_m / n_shots and the phase average realizes the uniform prior over the
sampled grid.  Bootstrap errors resample per-cell counts from Poisson laws.
Only the observed (non-zero) cells are drawn: a Poisson law of mean 0 gives 0
without consuming the generator, so the replicates and the generator's stream
are those of drawing every cell.
Independent quadrature oracles evaluate the analytic noiseless likelihood
chains on dense grids; they share no code with the sampling pipeline and
anchor the acceptance suite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from qadc.protocol import _B_FROM_M, Dataset

TWO_PI = 2.0 * math.pi

#: Qubit resources consumed per repetition (2**t - 1 with t = 3 probe groups).
RESOURCES_PER_SHOT = 7

M_OUTCOMES = 128
B_OUTCOMES = 8


@dataclass(frozen=True)
class CondProbTable:
    """Counts of outcome strings per phase-grid point.

    ``counts[i, k]`` is the number of occurrences of outcome ``k`` at phase
    ``phases[i]``; float entries are allowed so corrupted or denoised
    probability rows (with unit row sums) can flow through the same analysis.
    ``kind`` records the outcome encoding: "m7" for 7-bit strings indexed
    m6..m0 big-endian, "b3" for (b1, b2, b3) indexed 4*b1 + 2*b2 + b3 (so
    column j corresponds to the estimate 2*pi*j/8) and "c7" for classical
    strings indexed c6..c0.
    """

    phases: np.ndarray
    counts: np.ndarray
    kind: str = "m7"

    def __post_init__(self):
        phases = np.array(self.phases, dtype=float)
        counts = np.array(self.counts, dtype=float)
        phases.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 2 or counts.shape[0] != phases.shape[0]:
            raise ValueError("counts must be [n_phases, n_outcomes]")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def n_shots_effective(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def probabilities(self) -> np.ndarray:
        """Row-normalized plug-in probabilities; zero rows stay zero."""
        totals = self.n_shots_effective
        safe = np.where(totals > 0, totals, 1.0)
        return self.counts / safe[:, None]


@dataclass(frozen=True)
class MIEstimate:
    value: float
    stderr: float = 0.0
    n_resamples: int = 0

    def __post_init__(self):
        if self.value < -1e-9:
            raise ValueError(f"mutual information {self.value} below clip")
        object.__setattr__(self, "value", max(0.0, self.value))
        if self.stderr < 0:
            raise ValueError("stderr must be non-negative")


def _table(ds: Dataset, kind: str, keep=slice(None)) -> CondProbTable:
    """Per-phase counts of the records of ``ds`` that ``keep`` selects (default: all)."""
    counts = np.zeros((ds.n_phases, M_OUTCOMES))
    np.add.at(counts, (ds.phase_index[keep], ds.records[keep]), 1.0)
    return CondProbTable(ds.phases, counts, kind=kind)


def table_from_quantum(ds: Dataset) -> CondProbTable:
    return _table(ds, "m7")


def table_from_classical(ds: Dataset) -> CondProbTable:
    return _table(ds, "c7")


def marginalize_to_bits(table: CondProbTable) -> CondProbTable:
    """Sum counts over the four non-informative bits of a 7-bit table."""
    if table.kind != "m7":
        raise ValueError(f"can only marginalize 7-bit quantum tables, got {table.kind}")
    counts = np.zeros((table.counts.shape[0], B_OUTCOMES))
    np.add.at(counts.T, _B_FROM_M, table.counts.T)
    return CondProbTable(table.phases, counts, kind="b3")


# ---------------------------------------------------------------------------
# Phase estimators
# ---------------------------------------------------------------------------


#: Number of ones in every 7-bit code.
_ONES = np.array([bin(c).count("1") for c in range(M_OUTCOMES)])


def classical_estimates(codes: np.ndarray) -> np.ndarray:
    """Interferometric estimates 2*arccos(sqrt(N0/7)) of 7-bit record codes, in [0, pi].

    The digital estimate of a b-index j is ``HISTOGRAM_BIN_CENTERS[j]``.
    """
    n0 = 7 - _ONES[codes]
    return 2.0 * np.arccos(np.sqrt(n0 / 7.0))


def circular_mean(angles: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Mean direction of angles in radians, wrapped to [0, 2*pi)."""
    a = np.asarray(angles, dtype=float)
    w = np.ones_like(a) if weights is None else np.asarray(weights, dtype=float)
    s = float(np.sum(w * np.sin(a)))
    c = float(np.sum(w * np.cos(a)))
    return float(np.arctan2(s, c) % TWO_PI)


# ---------------------------------------------------------------------------
# Mutual information
# ---------------------------------------------------------------------------


def _mi_from_probabilities(p_cond: np.ndarray) -> float:
    """Plug-in mutual information in bits from per-phase outcome distributions."""
    p_m = p_cond.mean(axis=0)
    mask = p_cond > 0
    ratios = np.divide(
        p_cond, p_m[None, :], out=np.ones_like(p_cond), where=mask
    )
    terms = np.where(mask, p_cond * np.log2(ratios), 0.0)
    return float(terms.sum(axis=1).mean())


def mutual_information(table: CondProbTable) -> MIEstimate:
    """I(m : phi) with a uniform prior quadrature over the sampled phases.

    Zero-count outcomes contribute 0 (plug-in convention, no pseudo-counts);
    phases with no valid shots are excluded with a warning.
    """
    totals = table.n_shots_effective
    keep = totals > 0
    if not np.any(keep):
        raise ValueError("table has no valid shots at any phase")
    if not np.all(keep):
        warnings.warn(f"{int((~keep).sum())} phases with zero valid shots excluded")
    p_cond = table.probabilities()[keep]
    return MIEstimate(_mi_from_probabilities(p_cond))


def _sparse_mi(rows: np.ndarray, cols: np.ndarray, p: np.ndarray, shape) -> float:
    """``_mi_from_probabilities`` of the table that is ``p`` at (``rows``, ``cols``), 0 elsewhere.

    Every row must be a distribution.  The cells are in row-major order, so
    ``bincount`` adds each column's entries row by row, as ``mean(axis=0)``
    does, and the terms are summed over full rows: the result has the same
    bits as the dense computation.
    """
    n_rows, n_cols = shape
    p_m = np.bincount(cols, weights=p, minlength=n_cols) / n_rows
    hit = p > 0
    r, c, q = rows[hit], cols[hit], p[hit]
    terms = np.zeros(shape)
    terms[r, c] = q * np.log2(q / p_m[c])
    return float(terms.sum(axis=1).mean())


def bootstrap_mi(
    table: CondProbTable, n_resamples: int, rng: np.random.Generator
) -> MIEstimate:
    """Bootstrap the MI by Poisson-resampling every count cell.

    The counting statistics of each cell are Poissonian, so replicates draw
    counts with the observed means and recompute the plug-in estimate; the
    reported error is the sample standard deviation over replicates.  A
    replicate whose cells all resample to 0 has no estimate and is left out of
    the spread; ``n_resamples`` of the result counts the replicates kept, and
    with fewer than two the error is NaN.

    Only the observed cells are drawn.  numpy's Poisson sampler returns 0 for
    a mean of 0 without drawing a random number, so this gives the replicates
    of drawing every cell and leaves ``rng`` in the same state.
    """
    if n_resamples < 2:
        raise ValueError("need at least two bootstrap resamples")
    point = mutual_information(table)
    keep = table.n_shots_effective > 0
    counts = table.counts[keep]
    rows, cols = np.nonzero(counts)
    means = counts[rows, cols]
    values = []
    for _ in range(n_resamples):
        drawn = rng.poisson(means).astype(float)
        totals = np.bincount(rows, weights=drawn, minlength=counts.shape[0])
        ok = totals > 0
        if ok.all():
            values.append(_sparse_mi(rows, cols, drawn / totals[rows], counts.shape))
        elif ok.any():
            # A phase resampled to no shots: drop its row as the dense estimate does.
            full = np.zeros(counts.shape)
            full[rows, cols] = drawn
            values.append(_mi_from_probabilities(full[ok] / totals[ok, None]))
    stderr = float(np.std(values, ddof=1)) if len(values) > 1 else math.nan
    return MIEstimate(point.value, stderr, len(values))


def reference_bounds(n_resources: int) -> tuple[float, float]:
    """Digital information bounds (classical, quantum) = (log2(N)/2, log2(N))."""
    if n_resources < 1:
        raise ValueError("resource count must be positive")
    return (0.5 * math.log2(n_resources), math.log2(n_resources))


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------

#: Bin centers of the 8 digital estimates 2*pi*j/8.
HISTOGRAM_BIN_CENTERS = TWO_PI * np.arange(8) / 8.0


def quantum_phase_histograms(table: CondProbTable) -> np.ndarray:
    """Per-phase frequencies of the 8 digital estimates, rows normalized.

    Accepts a 7-bit table (marginalized internally) or a b-table; column j is
    the bin centered at 2*pi*j/8, which coincides with the digital estimate of
    the b-index j.
    """
    if table.kind == "m7":
        table = marginalize_to_bits(table)
    if table.kind != "b3":
        raise ValueError("need a quantum table")
    return table.probabilities()


def classical_phase_histograms(ds: Dataset) -> np.ndarray:
    """Per-phase frequencies of classical estimates in the same 8-bin layout.

    Each estimate (in [0, pi]) is assigned to the nearest of the 8 digital bin
    centers; the 128 codes are binned once and each record looks its bin up.
    """
    codes = np.arange(M_OUTCOMES)
    diffs = np.abs(classical_estimates(codes)[:, None] - HISTOGRAM_BIN_CENTERS[None, :])
    diffs = np.minimum(diffs, TWO_PI - diffs)
    bins = np.argmin(diffs, axis=1)
    counts = np.zeros((ds.n_phases, 8))
    np.add.at(counts, (ds.phase_index, bins[ds.records]), 1.0)
    return CondProbTable(ds.phases, counts, kind="b3").probabilities()


# ---------------------------------------------------------------------------
# Analytic likelihoods and quadrature oracles
# ---------------------------------------------------------------------------


def bit_chain_probabilities(phi, delta: float = 1.0) -> np.ndarray:
    """Noise-model likelihoods p(b | phi) of the 8 informative-bit outcomes.

    The chain multiplies the three conditional laws; partial distinguishability
    scales the fringe visibilities to delta**2 (4-photon), delta (2-photon)
    and 1 (single photon).  Output axis is the b-index 4*b1 + 2*b2 + b3; a
    vector ``phi`` yields a [len(phi), 8] array.
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    v3, v2 = delta**2, delta
    out = np.empty((phi.shape[0], 8))
    for code in range(8):
        b1, b2, b3 = (code >> 2) & 1, (code >> 1) & 1, code & 1
        p3 = 0.5 * (1.0 + (1 - 2 * b3) * v3 * np.cos(4 * phi))
        p2 = 0.5 * (1.0 + (1 - 2 * b2) * v2 * np.cos(2 * phi - math.pi * b3 / 2))
        p1 = 0.5 * (
            1.0 + (1 - 2 * b1) * np.cos(phi - math.pi * b2 / 2 - math.pi * b3 / 4)
        )
        out[:, code] = p3 * p2 * p1
    return out


def classical_string_probabilities(phi) -> np.ndarray:
    """Likelihoods of the 128 classical outcome strings, p(1) = sin^2(phi/2)."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    p1 = np.sin(phi / 2.0) ** 2
    return p1[:, None] ** _ONES[None, :] * (1 - p1)[:, None] ** (7 - _ONES)[None, :]


def quadrature_mi_quantum(delta: float = 1.0, n_nodes: int = 20000) -> float:
    """Noiseless-model asymptotic MI of the digital protocol (bits).

    Independent oracle: uniform quadrature of the analytic likelihood chain
    over [0, 2*pi) with at least 1e4 nodes.
    """
    if n_nodes < 10000:
        raise ValueError("quadrature oracle requires at least 1e4 nodes")
    phi = TWO_PI * np.arange(n_nodes) / n_nodes
    return _mi_from_probabilities(bit_chain_probabilities(phi, delta))


def quadrature_mi_classical(n_nodes: int = 20000) -> float:
    """Asymptotic MI of the 7-qubit classical strategy (bits)."""
    if n_nodes < 10000:
        raise ValueError("quadrature oracle requires at least 1e4 nodes")
    phi = TWO_PI * np.arange(n_nodes) / n_nodes
    return _mi_from_probabilities(classical_string_probabilities(phi))


def mean_quantum_estimates(table: CondProbTable) -> tuple[np.ndarray, np.ndarray]:
    """(circular mean, arithmetic mean) of the digital estimate per phase.

    Both are NaN at a phase without rows, which has no estimate.
    """
    hist = quantum_phase_histograms(table)
    circ = np.array(
        [circular_mean(HISTOGRAM_BIN_CENTERS, row) for row in hist]
    )
    arith = hist @ HISTOGRAM_BIN_CENTERS
    empty = table.n_shots_effective == 0
    circ[empty] = arith[empty] = np.nan
    return circ, arith


def mean_classical_estimates(ds: Dataset) -> np.ndarray:
    """Arithmetic mean of the classical estimate per phase (image in [0, pi]).

    NaN at a phase without rows, which has no estimate.
    """
    sums = np.zeros(ds.n_phases)
    counts = np.zeros(ds.n_phases)
    np.add.at(sums, ds.phase_index, classical_estimates(ds.records))
    np.add.at(counts, ds.phase_index, 1.0)
    means = np.full(ds.n_phases, np.nan)
    return np.divide(sums, counts, out=means, where=counts > 0)
