"""Raw-data estimators, conditional-probability tables and mutual information.

Tables hold per-phase outcome counts, each counted by one ``bincount``
(`_per_phase`, which also sums the classical means), and the MI curves' tables
of each phase's first k shots come from `prefix_tables` alone; probabilities
are plug-in frequencies N_m / n_shots and the phase average realizes the
uniform prior over the sampled grid.  The record layout and the phase grid are
`qadc.protocol`'s.  Both phase histograms fold a 7-bit table into the 8
digital bins (`_fold`): the quantum b-marginal by the b-index, the classical
one by each code's nearest bin.  Bootstrap errors resample per-cell counts
from Poisson laws.  Only the observed (non-zero) cells are drawn: a Poisson
law of mean 0 gives 0 without consuming the generator, so the replicates and
the generator's stream are those of drawing every cell.  The point estimate
and every replicate are scored by one sparse kernel (`_sparse_mi`).  The
calling thread draws the replicates in order and one worker thread, joined
before `bootstrap_mi` returns, scores each while the next is drawn; scores are
collected in draw order, so the result and the generator's end state do not
depend on thread scheduling.  Independent quadrature oracles evaluate the
analytic noiseless likelihood chains on dense grids with their own dense
kernel (`_mi_from_probabilities`); they share no MI code with the sampling
pipeline and anchor the acceptance suite.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from qadc.linop import TWO_PI
from qadc.protocol import _B_FROM_M, _RECORD_BITS, CLASSICAL_QUBITS, Dataset, grid_phases

#: 7-bit records (m6..m0 or c6..c0) and informative-bit outcomes (b1, b2, b3).
M_OUTCOMES = len(_RECORD_BITS)
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


def _per_phase(phase_index, keys, n_phases: int, n_keys: int, weights) -> np.ndarray:
    """[n_phases, n_keys] sums of ``weights`` (counts if None) per (phase, key) of each record.

    One ``bincount`` over ``phase_index * n_keys + keys``, which adds the
    weights in record order; ``minlength`` keeps the trailing phases without
    records.
    """
    flat = np.bincount(phase_index * n_keys + keys, weights, minlength=n_phases * n_keys)
    return flat.reshape(n_phases, n_keys)


def _table(ds: Dataset, kind: str) -> CondProbTable:
    """Per-phase counts of the records of ``ds``."""
    counts = _per_phase(ds.phase_index, ds.records, ds.n_phases, M_OUTCOMES, None)
    return CondProbTable(ds.phases, counts, kind=kind)


def table_from_quantum(ds: Dataset) -> CondProbTable:
    return _table(ds, "m7")


def table_from_classical(ds: Dataset) -> CondProbTable:
    return _table(ds, "c7")


def prefix_tables(ds: Dataset, kind: str, sizes) -> Iterator[CondProbTable]:
    """The table of each phase's first k records in shot order, for each k of ``sizes``,
    counted when it is asked for; the ranks are held until the generator is dropped."""
    order = np.lexsort((ds.shot_index, ds.phase_index))
    ranks = np.empty_like(order)
    ranks[order] = np.arange(len(order))  # the position in that order
    del order  # not held while the tables are counted
    counts = np.bincount(ds.phase_index)
    ranks -= (np.cumsum(counts) - counts)[ds.phase_index]  # less where the record's phase starts
    for k in sizes:
        keep = ranks < k
        counts = _per_phase(ds.phase_index[keep], ds.records[keep], ds.n_phases, M_OUTCOMES, None)
        yield CondProbTable(ds.phases, counts, kind=kind)


#: Bin centers of the 8 digital estimates 2*pi*j/8.
HISTOGRAM_BIN_CENTERS = grid_phases(B_OUTCOMES)


def _fold(table: CondProbTable, kind: str, bins: np.ndarray) -> CondProbTable:
    """The b-table of a 7-bit table of ``kind``: column ``c`` summed into bin ``bins[c]``."""
    if table.kind != kind:
        raise ValueError(f"can only fold {kind} tables into bins, got {table.kind}")
    counts = np.zeros((table.counts.shape[0], B_OUTCOMES))
    np.add.at(counts.T, bins, table.counts.T)
    return CondProbTable(table.phases, counts, kind="b3")


def marginalize_to_bits(table: CondProbTable) -> CondProbTable:
    """Sum counts over the four non-informative bits of a 7-bit quantum table."""
    return _fold(table, "m7", _B_FROM_M)


def classical_phase_histograms(table: CondProbTable) -> np.ndarray:
    """Per-phase frequencies of classical estimates in the same 8-bin layout.

    Each estimate (in [0, pi]) is assigned to the nearest of the 8 digital bin
    centers, so the classical table's columns fold into the bins of their codes.
    """
    codes = np.arange(M_OUTCOMES)
    diffs = np.abs(classical_estimates(codes)[:, None] - HISTOGRAM_BIN_CENTERS[None, :])
    diffs = np.minimum(diffs, TWO_PI - diffs)
    return _fold(table, "c7", np.argmin(diffs, axis=1)).probabilities()


# ---------------------------------------------------------------------------
# Phase estimators
# ---------------------------------------------------------------------------


#: Number of ones in every 7-bit code.
_ONES = _RECORD_BITS.sum(axis=1)


def classical_estimates(codes: np.ndarray) -> np.ndarray:
    """Interferometric estimates 2*arccos(sqrt(N0/7)) of 7-bit record codes, in [0, pi].

    The digital estimate of a b-index j is ``HISTOGRAM_BIN_CENTERS[j]``.
    """
    n0 = CLASSICAL_QUBITS - _ONES[codes]
    return 2.0 * np.arccos(np.sqrt(n0 / CLASSICAL_QUBITS))


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


#: Rows per block in which `_mi_from_probabilities` gathers its terms.
_MI_BLOCK_ROWS = 1024


def _mi_from_probabilities(p_cond: np.ndarray, columns=slice(None)) -> float:
    """Plug-in MI in bits of per-phase outcome distributions ``p_cond[:, columns]``.

    The quadratures' dense kernel.  Outcomes of equal likelihoods may share a
    column of ``p_cond``: the terms are computed on its columns in row blocks
    and gathered into the full outcome layout before each row's sum, so the
    sums have the bits of the full table's.
    """
    p_m = p_cond.mean(axis=0)
    sums = np.empty(len(p_cond))
    for lo in range(0, len(p_cond), _MI_BLOCK_ROWS):
        p = p_cond[lo : lo + _MI_BLOCK_ROWS]
        mask = p > 0
        # One work array: the ratio is 1 where p is 0, so its log term stays 0.0.
        terms = np.divide(p, p_m[None, :], out=np.ones_like(p), where=mask)
        np.log2(terms, out=terms)
        np.multiply(terms, p, out=terms, where=mask)
        sums[lo : lo + _MI_BLOCK_ROWS] = terms[:, columns].sum(axis=1)
    return float(sums.mean())


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
    counts = table.counts
    rows, cols = np.nonzero(counts)
    return MIEstimate(_sparse_mi(rows, cols, counts[rows, cols], totals, counts.shape[1]))


def _sparse_mi(
    rows: np.ndarray, cols: np.ndarray, counts: np.ndarray, totals: np.ndarray, n_cols: int
) -> float:
    """Plug-in MI in bits of the table holding ``counts`` at (``rows``, ``cols``), 0 elsewhere.

    ``totals`` are the row sums; rows of total 0 are left out and the cells
    renumbered among the kept rows.  The cells are in row-major order, so
    ``bincount`` adds each column's entries row by row, as a dense
    ``mean(axis=0)`` does, and the terms are summed over full rows: the result
    has the bits of `_mi_from_probabilities` on the kept, normalized rows.
    Integer counts give the bits of their float values.
    """
    keep = totals > 0
    kept = keep[rows]
    p = counts[kept] / totals[rows[kept]]
    rows, cols = (np.cumsum(keep) - 1)[rows[kept]], cols[kept]
    n_rows = int(np.count_nonzero(keep))
    p_m = np.bincount(cols, weights=p, minlength=n_cols) / n_rows
    hit = p > 0
    rows, cols, p = rows[hit], cols[hit], p[hit]
    terms = np.zeros(n_rows * n_cols)
    terms[rows * n_cols + cols] = p * np.log2(p / p_m[cols])
    return float(terms.reshape(n_rows, n_cols).sum(axis=1).mean())


#: Drawn replicates that `bootstrap_mi` leaves with the worker before it waits for a score.
_IN_FLIGHT = 2


def bootstrap_mi(
    table: CondProbTable, n_resamples: int, rng: np.random.Generator
) -> MIEstimate:
    """Bootstrap the MI by Poisson-resampling every count cell.

    The counting statistics of each cell are Poissonian, so replicates draw
    counts with the observed means and recompute the plug-in estimate; the
    reported error is the sample standard deviation over replicates.  A phase
    that resamples to no shots is left out of its replicate.  A replicate
    whose cells all resample to 0 has no estimate and is left out of the
    spread; ``n_resamples`` of the result counts the replicates kept, and with
    fewer than two the error is NaN.

    Only the observed cells are drawn.  numpy's Poisson sampler returns 0 for
    a mean of 0 without drawing a random number, so this gives the replicates
    of drawing every cell and leaves ``rng`` in the same state.

    The calling thread makes every draw, in replicate order; one worker
    thread, started and joined within the call, scores each replicate while
    the next is drawn.  At most ``_IN_FLIGHT + 1`` replicates wait for their
    score, and the scores are collected in draw order, so the result does not
    depend on thread scheduling.  An error raised while scoring is raised
    here.
    """
    if n_resamples < 2:
        raise ValueError("need at least two bootstrap resamples")
    point = mutual_information(table)
    n_rows, n_cols = table.counts.shape
    rows, cols = np.nonzero(table.counts)
    means = table.counts[rows, cols]

    def score(drawn):
        totals = np.bincount(rows, weights=drawn, minlength=n_rows)
        return _sparse_mi(rows, cols, drawn, totals, n_cols) if totals.any() else None

    # Imported here, so that a command that never bootstraps does not load it.
    from concurrent.futures import ThreadPoolExecutor

    scored, pending = [], deque()
    with ThreadPoolExecutor(max_workers=1) as worker:
        for _ in range(n_resamples):
            pending.append(worker.submit(score, rng.poisson(means)))
            if len(pending) > _IN_FLIGHT:
                scored.append(pending.popleft().result())
        while pending:
            scored.append(pending.popleft().result())
    values = [v for v in scored if v is not None]
    stderr = float(np.std(values, ddof=1)) if len(values) > 1 else math.nan
    return MIEstimate(point.value, stderr, len(values))


def reference_bounds(n_resources: int) -> tuple[float, float]:
    """Digital information bounds (classical, quantum) = (log2(N)/2, log2(N))."""
    if n_resources < 1:
        raise ValueError("resource count must be positive")
    return (0.5 * math.log2(n_resources), math.log2(n_resources))


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


def classical_string_probabilities(phi, ones: np.ndarray = _ONES) -> np.ndarray:
    """Likelihoods of classical strings holding ``ones`` ones, p(1) = sin^2(phi/2).

    The 7 outcomes are i.i.d., so a string's likelihood depends on its
    Hamming weight alone; the default is every one of the 128 strings.
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    p1 = np.sin(phi / 2.0) ** 2
    out = p1[:, None] ** ones[None, :]
    out *= (1 - p1)[:, None] ** (CLASSICAL_QUBITS - ones)[None, :]
    return out


def quadrature_mi_quantum(delta: float = 1.0, n_nodes: int = 20000) -> float:
    """Noiseless-model asymptotic MI of the digital protocol (bits).

    Independent oracle: uniform quadrature of the analytic likelihood chain
    over [0, 2*pi) with at least 1e4 nodes.
    """
    if n_nodes < 10000:
        raise ValueError("quadrature oracle requires at least 1e4 nodes")
    return _mi_from_probabilities(bit_chain_probabilities(grid_phases(n_nodes), delta))


def quadrature_mi_classical(n_nodes: int = 20000) -> float:
    """Asymptotic MI of the 7-qubit classical strategy (bits), from the 8 weight classes."""
    if n_nodes < 10000:
        raise ValueError("quadrature oracle requires at least 1e4 nodes")
    weights = classical_string_probabilities(grid_phases(n_nodes), np.arange(CLASSICAL_QUBITS + 1))
    return _mi_from_probabilities(weights, _ONES)


def mean_quantum_estimates(table: CondProbTable) -> tuple[np.ndarray, np.ndarray]:
    """(circular mean, arithmetic mean) of the digital estimate per phase of a b-table.

    Column j of the table is the estimate ``HISTOGRAM_BIN_CENTERS[j]``.  Both
    means are NaN at a phase without rows, which has no estimate.
    """
    hist = table.probabilities()
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
    sums = _per_phase(ds.phase_index, 0, ds.n_phases, 1, classical_estimates(ds.records))[:, 0]
    counts = _per_phase(ds.phase_index, 0, ds.n_phases, 1, None)[:, 0]
    means = np.full(ds.n_phases, np.nan)
    return np.divide(sums, counts, out=means, where=counts > 0)
