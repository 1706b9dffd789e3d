"""Multiphoton output statistics under realistic source noise.

Partial distinguishability is carried by a Gram matrix of internal-state
overlaps.  Two independent routes compute output statistics:

* a fast double-permutation formula (`output_probability`,
  `full_output_distribution`) summing over photon-permutation pairs weighted
  by Gram entries; a distribution is a pair of arrays, the count patterns
  [K, n_modes] and their probabilities [K], and
* an explicit oracle (`oracle_full_state`) that factors the Gram matrix by
  pivoted Cholesky, embeds each photon's internal state in an orthonormal
  basis and builds the exact bosonic state on spatial x internal modes.

The oracle is deliberately slow and small (desk-scale guard) and exists to
validate the fast route and to produce post-selected dual-rail density
matrices.  Source imperfections (multiphoton emission, loss) are modelled on
top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations

import numpy as np

from qadc.linop import SizeLimitError

PSD_PIVOT_TOL = 1e-12
PROB_CLIP = 1e-10
REALNESS_TOL = 1e-10
ORACLE_MAX_PHOTONS = 4
ORACLE_MAX_MODES = 8
FORMULA_MAX_PHOTONS = 6
G2_GUARD = 0.1
_FACTORIALS = np.array([math.factorial(c) for c in range(FORMULA_MAX_PHOTONS + 1)], float)
#: dtype of the count patterns, which plans hold for a whole run.
_COUNT = np.int8


class ModelError(ValueError):
    """Source-model parameters outside the validity of the mapping."""


class PostSelectionEmpty(RuntimeError):
    """Post-selection keeps nothing: a zero-probability pattern, or a run without valid shots."""


def _clip_probability(p, context: str):
    """Clip roundoff negatives to zero, elementwise; larger negativity is a bug."""
    low = np.min(p)
    if low < -PROB_CLIP:
        raise FloatingPointError(f"{context}: probability {low} below -{PROB_CLIP}")
    return np.where(p < 0.0, 0.0, p)


def pivoted_cholesky(s: np.ndarray) -> np.ndarray:
    """Pivoted Cholesky factor L (rows x rank) with S = L L^dagger.

    Handles rank-deficient positive semidefinite matrices; raises ModelError
    if a residual diagonal entry is negative beyond `PSD_PIVOT_TOL`.
    """
    s = np.asarray(s, dtype=complex)
    n = s.shape[0]
    low = np.zeros((n, n), dtype=complex)
    d = np.real(np.diag(s)).copy() if n else np.zeros(0)
    done = np.zeros(n, dtype=bool)
    rank = 0
    for k in range(n):
        d_masked = np.where(done, -np.inf, d)
        j = int(np.argmax(d_masked)) if n else 0
        if n == 0 or d_masked[j] <= PSD_PIVOT_TOL:
            if n and np.any(d[~done] < -PSD_PIVOT_TOL):
                raise ModelError("matrix is not positive semidefinite")
            break
        done[j] = True
        low[j, k] = math.sqrt(d[j])
        rest = ~done
        if np.any(rest):
            col = (s[rest, j] - low[rest, :k] @ low[j, :k].conj()) / low[j, k]
            low[rest, k] = col
            d[rest] -= np.abs(col) ** 2
        rank = k + 1
    return low[:, :rank]


@dataclass(frozen=True)
class GramMatrix:
    """Matrix of pairwise internal-state overlaps S_ij = <psi_i|psi_j>.

    Must be Hermitian with unit diagonal and positive semidefinite (verified
    by pivoted Cholesky).  Near-singular matrices are allowed; the internal
    space simply becomes rank deficient.
    """

    entries: np.ndarray

    def __post_init__(self):
        s = np.array(self.entries, dtype=complex)
        s.setflags(write=False)
        object.__setattr__(self, "entries", s)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ModelError(f"Gram matrix must be square, got {s.shape}")
        n = s.shape[0]
        if n and not np.allclose(s, s.conj().T, atol=1e-10):
            raise ModelError("Gram matrix must be Hermitian")
        if n and np.max(np.abs(np.diag(s) - 1.0)) > 1e-9:
            raise ModelError("Gram matrix must have a unit diagonal")
        pivoted_cholesky(s)  # raises on indefinite input

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def internal_vectors(self) -> np.ndarray:
        """Rows are internal-state coefficient vectors over an orthonormal basis.

        With C = conj(L) for the pivoted Cholesky factor L, the vectors satisfy
        <chi_i|chi_j> = S_ij exactly.
        """
        return np.conj(pivoted_cholesky(self.entries))


def uniform_gram(delta: float, n: int) -> GramMatrix:
    """Gram matrix with a common pairwise indistinguishability Delta.

    S_ij = sqrt(Delta) + (1 - sqrt(Delta)) * delta_ij, so every photon pair has
    overlap |S_ij|^2 = Delta.
    """
    if not 0.0 <= delta <= 1.0:
        raise ModelError(f"delta must lie in [0, 1], got {delta}")
    root = math.sqrt(delta)
    s = np.full((n, n), root, dtype=complex)
    np.fill_diagonal(s, 1.0)
    return GramMatrix(s)


@dataclass(frozen=True)
class PhotonEnsemble:
    """Input photons: spatial mode per photon plus their Gram matrix."""

    input_modes: tuple[int, ...]
    gram: GramMatrix

    def __post_init__(self):
        object.__setattr__(self, "input_modes", tuple(int(m) for m in self.input_modes))
        if len(self.input_modes) != self.gram.n:
            raise ModelError(
                f"{len(self.input_modes)} photons but Gram matrix of size {self.gram.n}"
            )
        if any(m < 0 for m in self.input_modes):
            raise ModelError("input modes must be non-negative")

    @property
    def n_photons(self) -> int:
        return len(self.input_modes)


@dataclass(frozen=True)
class SourceModel:
    """Per-time-bin emission model of the single-photon source.

    ``p0/p1/p2`` are the probabilities of 0/1/2 photons in a bin (a second
    photon in a bin is internally orthogonal to every other photon) and
    ``eta`` the end-to-end survival probability of each photon, with loss
    commuted to the input.
    """

    p0: float
    p1: float
    p2: float
    eta: float = 1.0

    def __post_init__(self):
        for name, val in (("p0", self.p0), ("p1", self.p1), ("p2", self.p2)):
            if not 0.0 <= val <= 1.0:
                raise ModelError(f"{name} = {val} outside [0, 1]")
        if abs(self.p0 + self.p1 + self.p2 - 1.0) > 1e-9:
            raise ModelError("p0 + p1 + p2 must equal 1")
        if not 0.0 <= self.eta <= 1.0:
            raise ModelError(f"eta = {self.eta} outside [0, 1]")

    @property
    def emission_probability(self) -> float:
        """Probability that a bin is non-empty."""
        return self.p1 + self.p2


def g2_to_probs(g2: float, brightness: float) -> tuple[float, float, float]:
    """Map measured (g2, brightness) to per-bin probabilities (p0, p1, p2).

    Model: brightness B = p1 + p2 (probability of a non-empty bin) and
    g2 = 2 p2 / (p1 + 2 p2)^2, solved in closed form for p2.  Valid for small
    g2 only (guarded below 0.1); (p0, p1, p2) may also be supplied directly
    to bypass this mapping.
    """
    if g2 < 0.0 or g2 >= G2_GUARD:
        raise ModelError(f"g2 = {g2} outside the small-g2 model guard [0, {G2_GUARD})")
    if not 0.0 < brightness <= 1.0:
        raise ModelError(f"brightness = {brightness} outside (0, 1]")
    if g2 == 0.0:
        return (1.0 - brightness, brightness, 0.0)

    # p2 is the smaller root of g2 (B + p2)^2 = 2 p2, written without cancellation.
    # Under the guards the discriminant h^2 - (g2 B)^2 = 1 - 2 g2 B exceeds 0.8.
    h = 1.0 - g2 * brightness
    p2 = g2 * brightness**2 / (h + math.sqrt(h * h - (g2 * brightness) ** 2))
    return (1.0 - brightness, brightness - p2, p2)


def class_probabilities(
    model: SourceModel, n_bins: int, conditioned: bool = False
) -> np.ndarray:
    """Exact probability of every survival key of ``n_bins`` bins, [2**(2 n_bins)].

    Bit k of a key: the main photon of bin k was emitted and survived; bit
    n_bins + k: a second photon was emitted in bin k and survived.  Each bin
    emits 0/1/2 photons with (p0, p1, p2), or with ``conditioned`` 1/2 in
    proportion to (p1, p2), and each photon survives with probability eta.
    Bins are independent, so a key's probability is a product over bins of
    one 2 x 2 (main, extra) table.
    """
    eta = model.eta
    if conditioned:
        p_all = model.emission_probability
        if p_all <= 0:
            raise ValueError("conditioned source needs non-zero brightness")
        extra = model.p2 / p_all * eta
        table = np.outer([1.0 - eta, eta], [1.0 - extra, extra])
    else:
        p0, p1, p2 = model.p0, model.p1, model.p2
        table = np.array(
            [
                [p0 + (p1 + p2 * (1.0 - eta)) * (1.0 - eta), p2 * (1.0 - eta) * eta],
                [(p1 + p2 * (1.0 - eta)) * eta, p2 * eta * eta],
            ]
        )
    keys = np.arange(1 << (2 * n_bins))
    probs = np.ones(len(keys))
    for k in range(n_bins):
        probs *= table[(keys >> k) & 1, (keys >> (n_bins + k)) & 1]
    return probs


def ensemble_from_parts(
    mains: tuple[int, ...], extras: tuple[int, ...], delta: float
) -> PhotonEnsemble:
    """Ensemble of uniform-Delta main photons plus fully distinguishable extras."""
    n_m, n_e = len(mains), len(extras)
    n = n_m + n_e
    s = np.eye(n, dtype=complex)
    if n_m:
        s[:n_m, :n_m] = uniform_gram(delta, n_m).entries
    return PhotonEnsemble(tuple(mains) + tuple(extras), GramMatrix(s))


# ---------------------------------------------------------------------------
# Fast route: double-permutation interference formula
# ---------------------------------------------------------------------------


def _distinguishable_blocks(gram: GramMatrix) -> list[list[int]]:
    """Connected components of photons under non-zero Gram coupling.

    Mutually orthogonal blocks share no coherence, so their output count
    distributions convolve independently.
    """
    n = gram.n
    adj = np.abs(gram.entries) > PSD_PIVOT_TOL
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and adj[i, j]:
                    seen[j] = True
                    stack.append(j)
        blocks.append(sorted(comp))
    return blocks


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, marked read-only: plans hand it to every caller."""
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class _Block:
    """What the double-permutation sum of one coherent block needs besides the unitary.

    ``flat`` [n_perm, K, k] indexes the raveled unitary at (output mode of
    photon slot j of pattern p, input mode of photon perm[f][j]); ``w``
    [n_perm, n_perm] holds the Gram weights prod_k S[sigma(k), tau(k)];
    ``counts`` [K, n_modes] are the output count patterns and ``divisor`` [K]
    the product of their factorials.
    """

    flat: np.ndarray
    w: np.ndarray
    counts: np.ndarray
    divisor: np.ndarray


def _block_plan(n_modes: int, in_modes: tuple[int, ...], gram_entries: np.ndarray) -> _Block:
    """The unitary-independent part of `_block_distribution` for one coherent block."""
    k = len(in_modes)
    if k > FORMULA_MAX_PHOTONS:
        raise SizeLimitError(f"interference formula guard: {k} photons in one block")
    pats = np.array(list(combinations_with_replacement(range(n_modes), k)), dtype=np.intp)
    perms = np.array(list(permutations(range(k))), dtype=np.intp)
    cols = np.asarray(in_modes, dtype=np.intp)[perms]  # [n_perm, k]
    counts = _read_only((pats[:, :, None] == np.arange(n_modes)).sum(axis=1, dtype=_COUNT))
    return _Block(
        flat=pats[None, :, :] * n_modes + cols[:, None, :],
        w=np.prod(gram_entries[perms[:, None, :], perms[None, :, :]], axis=2),
        counts=counts,
        divisor=_FACTORIALS[counts].prod(axis=1),
    )


def _block_distribution(u: np.ndarray, block: _Block) -> tuple[np.ndarray, np.ndarray]:
    """Output count distribution of one coherent photon block under ``u``.

    P(d) = (1 / prod_m mu_m!) * sum_{sigma,tau} prod_k S[sigma(k), tau(k)]
           * conj(U[d_k, s_sigma(k)]) * U[d_k, s_tau(k)]
    over all output multisets d, where mu are the output multiplicities.  The
    conjugation sits on the sigma side so complex Gram matrices reproduce the
    explicit state construction; for real S both orientations coincide.

    Returns the count patterns [K, n_modes] and their probabilities [K].
    """
    v = np.prod(np.take(u, block.flat), axis=2)  # [n_perm, K]
    probs = np.einsum("fp,gp,fg->p", v.conj(), v, block.w)
    if np.max(np.abs(probs.imag)) > REALNESS_TOL:
        raise FloatingPointError("interference probabilities acquired imaginary parts")
    return block.counts, _clip_probability(probs.real / block.divisor, "block distribution")


@dataclass(frozen=True)
class _Prefix:
    """One prefix of the convolution: its last block and how its patterns merge.

    Pattern pair (i, j) of the previous prefix's patterns and the block's,
    row-major, is output pattern ``index[i * K_block + j]`` of ``counts``.
    """

    key: tuple
    block: _Block
    index: np.ndarray
    counts: np.ndarray


def _merge(key: tuple, counts: np.ndarray, block: _Block) -> _Prefix:
    """The prefix that convolves the patterns ``counts`` with those of ``block``."""
    # A pattern's code is its counts as digits in base (photons so far) + 1;
    # no digit can carry, so the code of a sum of patterns is the sum of codes.
    base = int(counts[0].sum() + block.counts[0].sum()) + 1
    radix = base ** np.arange(counts.shape[1], dtype=np.int64)
    codes = (counts @ radix)[:, None] + (block.counts @ radix)[None, :]
    # Patterns keep the order of their first appearance, and each sum adds its
    # terms in row-major order: the arithmetic of the pairwise loop over
    # (pattern, block pattern), term by term, for any radix.
    _, first, inverse = np.unique(codes.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.argsort(order)
    pair = first[order]
    n_block = len(block.counts)
    merged = counts[pair // n_block] + block.counts[pair % n_block]
    return _Prefix(key, block, rank[inverse], _read_only(merged))


class PatternPlans:
    """The parts of `full_output_distribution` that do not depend on the unitary.

    For each ensemble on ``n_modes`` modes, keyed by (n_modes, input modes,
    Gram matrix bytes), the chain of its convolution prefixes; each prefix,
    keyed by n_modes and the (input modes, Gram sub-block bytes) of its
    blocks, holds its last block's patterns, permutation indices and Gram
    weights and the merge of its patterns with the prefix before it.
    Ensembles that share leading blocks share those prefixes.  Held for as
    long as its owner builds distributions; it grows with the distinct
    ensembles, never with the unitaries.
    """

    def __init__(self):
        self._chains: dict = {}
        self._prefixes: dict = {}

    def chain(self, n_modes: int, ensemble: PhotonEnsemble) -> tuple[_Prefix, ...]:
        """The convolution prefixes of ``ensemble`` on ``n_modes`` modes, in order."""
        key = (n_modes, ensemble.input_modes, ensemble.gram.entries.tobytes())
        if key not in self._chains:
            self._chains[key] = tuple(self._build_chain(n_modes, ensemble))
        return self._chains[key]

    def _build_chain(self, n_modes: int, ensemble: PhotonEnsemble):
        key: tuple = (n_modes,)
        counts = np.zeros((1, n_modes), dtype=_COUNT)
        for block in _distinguishable_blocks(ensemble.gram):
            modes = tuple(ensemble.input_modes[i] for i in block)
            sub = ensemble.gram.entries[np.ix_(block, block)]
            key += (modes, sub.tobytes())
            if key not in self._prefixes:
                self._prefixes[key] = _merge(key, counts, _block_plan(n_modes, modes, sub))
            counts = self._prefixes[key].counts
            yield self._prefixes[key]


def full_output_distribution(
    u: np.ndarray,
    ensemble: PhotonEnsemble,
    memo: dict | None = None,
    plans: PatternPlans | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Probability of every output count pattern for the full ensemble.

    Returns ``(counts, probs)``: the count patterns as an int8 array
    [K, n_modes], each pattern once, and their probabilities as a float64
    array [K].  Ensembles of more than 127 photons raise SizeLimitError.
    The ensemble is split into mutually orthogonal blocks whose distributions
    are computed by the double-permutation formula and convolved: every
    pattern row of one block is added to every row of the next, and equal
    sums are merged.  Validated against `oracle_full_state` spatial marginals
    in the acceptance suite.

    ``plans`` holds what does not depend on ``u`` (`PatternPlans`): the
    blocks, their patterns, permutations and Gram weights, and the merge of
    every convolution prefix.  A run that builds many unitaries keeps one, so
    that each unitary costs only its block sums and one weighted
    ``bincount`` per prefix.  ``memo`` holds each prefix's probabilities,
    keyed by the bytes of ``u`` and the prefix, so ensembles that share
    leading blocks under one unitary (the source classes of one step
    program: the same main photons plus a few distinguishable extras) build
    and convolve them once; a device-noise run builds 255 blocks in place of
    555.  A merge does not depend on the pattern codes' radix, so ensembles
    of any photon count can share a prefix, and the result has the same bits
    with or without a memo or plans.  Without them fresh ones are used.  The
    arrays returned may be held by the memo or the plans and must not be
    modified.
    """
    u = np.asarray(u, dtype=complex)
    n_modes = u.shape[0]
    if any(m >= n_modes for m in ensemble.input_modes):
        raise ValueError("input mode index out of range for the unitary")
    n_photons = ensemble.n_photons
    if n_photons > np.iinfo(_COUNT).max or (n_photons + 1) ** n_modes > 2**63:
        raise SizeLimitError(f"count patterns of {n_photons} photons on {n_modes} modes")
    chain = (plans if plans is not None else PatternPlans()).chain(n_modes, ensemble)
    if memo is None:
        memo = {}
    unitary = u.tobytes()
    probs = np.ones(1)
    for prefix in chain:
        key = (unitary, prefix.key)
        if key not in memo:
            _, block_probs = _block_distribution(u, prefix.block)
            memo[key] = np.bincount(prefix.index, weights=np.outer(probs, block_probs).ravel())
        probs = memo[key]
    counts = chain[-1].counts if chain else np.zeros((1, n_modes), dtype=_COUNT)
    return counts, probs


def output_probability(
    u: np.ndarray, ensemble: PhotonEnsemble, output_modes: tuple[int, ...]
) -> float:
    """Probability of detecting the listed output modes (one entry per photon).

    The count pattern of the listed modes, repeated modes included, is looked
    up in `full_output_distribution`.
    """
    n_modes = np.shape(u)[0]
    outs = tuple(int(m) for m in output_modes)
    if len(outs) != ensemble.n_photons:
        raise ValueError(
            f"{len(outs)} output modes for {ensemble.n_photons} photons"
        )
    if any(m < 0 or m >= n_modes for m in outs):
        raise ValueError("output mode index out of range")
    pattern = np.bincount(np.asarray(outs, dtype=np.intp), minlength=n_modes)
    counts, probs = full_output_distribution(u, ensemble)
    return min(1.0, float(probs[(counts == pattern).all(axis=1)].sum()))


# ---------------------------------------------------------------------------
# Oracle route: explicit state on spatial x internal modes
# ---------------------------------------------------------------------------


class MultimodeState:
    """Bosonic state as amplitudes over Fock patterns on (spatial x internal) modes.

    Keys of ``amplitudes`` are occupation tuples of length
    ``n_modes * n_internal``; slot ``m * n_internal + c`` is spatial mode m with
    internal basis state c.
    """

    def __init__(self, n_modes: int, n_internal: int, amplitudes: dict):
        self.n_modes = n_modes
        self.n_internal = max(1, n_internal)
        self.amplitudes = amplitudes

    def spatial_marginals(self) -> dict[tuple[int, ...], float]:
        """Probability of each spatial count pattern, internal modes traced out."""
        out: dict[tuple[int, ...], float] = {}
        r = self.n_internal
        for key, amp in self.amplitudes.items():
            spatial = tuple(
                int(sum(key[m * r : (m + 1) * r])) for m in range(self.n_modes)
            )
            out[spatial] = out.get(spatial, 0.0) + abs(amp) ** 2
        return out


def oracle_full_state(u: np.ndarray, ensemble: PhotonEnsemble) -> MultimodeState:
    """Exact output state built photon by photon (independent validation route).

    The Gram matrix is factored S = L L^dagger by pivoted Cholesky (rank
    deficiency allowed); photon j's internal state becomes conj(L[j]) over an
    orthonormal internal basis.  Each creation operator is transported through
    the interferometer and applied to the vacuum with bosonic sqrt(n+1)
    factors, so amplitudes carry the correct multiplicities.
    """
    u = np.asarray(u, dtype=complex)
    n_modes = u.shape[0]
    n = ensemble.n_photons
    if n > ORACLE_MAX_PHOTONS:
        raise SizeLimitError(f"oracle guard: {n} photons exceeds {ORACLE_MAX_PHOTONS}")
    if n_modes > ORACLE_MAX_MODES:
        raise SizeLimitError(f"oracle guard: {n_modes} modes exceeds {ORACLE_MAX_MODES}")
    if any(m >= n_modes for m in ensemble.input_modes):
        raise ValueError("input mode index out of range")
    internal = ensemble.gram.internal_vectors()
    rank = max(1, internal.shape[1] if n else 1)
    n_slots = n_modes * rank
    amps: dict[tuple[int, ...], complex] = {(0,) * n_slots: 1.0 + 0.0j}
    for j in range(n):
        comps = []
        for m in range(n_modes):
            um = u[m, ensemble.input_modes[j]]
            if um == 0.0:
                continue
            for c in range(internal.shape[1] if n else 0):
                coef = um * internal[j, c]
                if coef != 0.0:
                    comps.append((m * rank + c, coef))
        new: dict[tuple[int, ...], complex] = {}
        for key, amp in amps.items():
            for slot, coef in comps:
                occ = key[slot]
                new_key = key[:slot] + (occ + 1,) + key[slot + 1 :]
                new[new_key] = new.get(new_key, 0.0) + amp * coef * math.sqrt(occ + 1)
        amps = new
    return MultimodeState(n_modes, rank, amps)


# ---------------------------------------------------------------------------
# Dual-rail post-selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualRailState:
    """Post-selected dual-rail register: density matrix plus success probability."""

    n_qubits: int
    rho: np.ndarray
    success_prob: float

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        dim = 2 ** self.n_qubits
        if rho.shape != (dim, dim):
            raise ValueError(f"density matrix shape {rho.shape} for {self.n_qubits} qubits")
        if not np.allclose(rho, rho.conj().T, atol=1e-9):
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-9:
            raise ValueError("density matrix must have unit trace")
        if np.min(np.linalg.eigvalsh(rho)) < -1e-9:
            raise ValueError("density matrix must be positive semidefinite")
        if not 0.0 <= self.success_prob <= 1.0:
            raise ValueError("success probability must lie in [0, 1]")


def postselect_dualrail(
    state: MultimodeState, pairs: tuple[tuple[int, int], ...]
) -> DualRailState:
    """Project onto exactly one photon per rail pair and trace out internal modes.

    Qubit k reads 0 when the photon sits in ``pairs[k][0]``.  Events with any
    photon outside the listed rails are rejected (strict post-selection).
    Raises PostSelectionEmpty when no amplitude survives.
    """
    flat = [m for pair in pairs for m in pair]
    if len(set(flat)) != len(flat):
        raise ValueError("rail pairs must be disjoint")
    n_q = len(pairs)
    r = state.n_internal
    rail_set = set(flat)
    by_internal: dict[tuple[int, ...], np.ndarray] = {}
    success = 0.0
    dim = 2 ** n_q
    for key, amp in state.amplitudes.items():
        occ = np.asarray(key).reshape(state.n_modes, r)
        mode_counts = occ.sum(axis=1)
        if any(mode_counts[m] for m in range(state.n_modes) if m not in rail_set):
            continue
        bits = []
        labels = []
        ok = True
        for rail0, rail1 in pairs:
            c0, c1 = int(mode_counts[rail0]), int(mode_counts[rail1])
            if c0 + c1 != 1:
                ok = False
                break
            rail = rail1 if c1 else rail0
            bits.append(1 if c1 else 0)
            labels.append(int(np.argmax(occ[rail])))
        if not ok:
            continue
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        vec = by_internal.setdefault(tuple(labels), np.zeros(dim, dtype=complex))
        vec[idx] += amp
        success += abs(amp) ** 2
    if success <= 1e-30:
        raise PostSelectionEmpty("post-selection pattern has zero probability")
    rho = np.zeros((dim, dim), dtype=complex)
    for vec in by_internal.values():
        rho += np.outer(vec, vec.conj())
    rho /= success
    return DualRailState(n_q, rho, float(success))


def state_fidelity(state: DualRailState, target: np.ndarray) -> float:
    """Fidelity <target|rho|target> of a dual-rail state with a pure target."""
    t = np.asarray(target, dtype=complex).ravel()
    if t.shape[0] != state.rho.shape[0]:
        raise ValueError(
            f"target dimension {t.shape[0]} vs density matrix {state.rho.shape[0]}"
        )
    val = float(np.real(t.conj() @ state.rho @ t))
    return min(1.0, float(_clip_probability(val, "state fidelity")))


def ghz_target(n_qubits: int) -> np.ndarray:
    """The ideal probe (|0...0> + |1...1>)/sqrt(2) in the logical qubit register."""
    vec = np.zeros(2**n_qubits, dtype=complex)
    vec[0] = vec[-1] = 1.0 / math.sqrt(2.0)
    return vec
