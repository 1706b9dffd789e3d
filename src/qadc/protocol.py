"""Execution of the digital protocol and the classical baseline.

A quantum repetition chains three experiments (4-, 2-, 1-photon) with genuine
feed-forward: the informative bit of each stage selects the dialed inverse
rotations of the next.  The alternative acquisition mode runs every control
configuration independently and reassembles valid 7-bit strings afterwards
(`simulate_sweep_dataset`, matching in `_match_arrays`), mirroring how a
post-selected platform implements feed-forward.  Each sweep chunk runs a block
of 4-photon attempts and sizes the 2- and 1-photon draws from the exact
acceptances, so that the three pools it matches are expected to be equally
long.

All strategies run through one per-phase loop (`_acquire`) on arrays of
attempts (`_quantum_chunk`, `_sweep_chunk`, `_classical_chunk`) and return one
`Dataset` type, whose 7-bit records are the codes of m6..m0 or c6..c0.  Each
chunk returns only what it keeps, at most the records still needed: the
attempt indices in ascending order and their record codes, and the attempts
it used.
Outcomes come from exact distributions per (experiment, phase, control
flags), each the mixture over the source realization classes (which photons
survive, which bins add a second photon) weighted by their exact
probabilities: the source class is summed over, never drawn.  Attempts are independent, so a
feed-forward or classical repetition is drawn whole from its exact record law
(`StepSimulator.record_law`): the step mixtures composed along the
feed-forward tree, or seven independent 1-photon steps.  A repetition costs
one uniform, and an accepted one a ``searchsorted`` over its 128 records.
Only the sweep samples step by step (`StepSimulator.sample_step`), with the
same one-uniform sampler (`_draw_records`) over a step's outcome codes, and
matches those codes into records.
Distributions and laws are memoized, so sampling large shot counts is cheap;
the memo behaves as a pure cache.

The phase enters only as ``e^{i phi}`` on each logical-|1> rail, so with k
photons in a class every accepted-outcome probability is a trigonometric
polynomial of degree <= k in phi (double-permutation formula).  Without
programming errors the class mixture of each (experiment, flags) is therefore
built exactly at 2k + 1 equispaced nodes once, k the largest photon count of
its classes, and one DFT turns it into a series evaluated at any phase; with
programming errors every phase has its own perturbed program and the mixture
is built there directly.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qadc.linop import (
    GHZ_INPUT_MODES,
    build_step_program,
    logical_rail_pairs,
    mesh_unitary,
    perturb_program,
)
from qadc.photonics import (
    G2_GUARD,
    PhotonEnsemble,
    PostSelectionEmpty,
    SourceModel,
    class_probabilities,
    ensemble_from_parts,
    full_output_distribution,
    g2_to_probs,
)

PROBE_SIZES = (4, 2, 1)
CLASSICAL_QUBITS = 7  # 2**t - 1 with t = 3
_B_POSITIONS = [6, 5, 3]  # columns of m (m6..m0) that hold (b1, b2, b3)
MAX_ATTEMPT_FACTOR = 400  # attempts allowed per phase, in units of n_shots

QUANTUM_CSV_HEADER = (
    "phase_index,phase_rad,shot_index,m6,m5,m4,m3,m2,m1,m0,b1,b2,b3"
)
CLASSICAL_CSV_HEADER = "phase_index,phase_rad,shot_index,c6,c5,c4,c3,c2,c1,c0"

_STREAM_QUANTUM = 1
_STREAM_CLASSICAL = 2
_STREAM_SWEEP = 3
_STREAM_PERTURB = 5

#: Dialed control-flag combinations per experiment in the configuration sweep,
#: as (sigma_z, r2, r3) triples: 2 + 4 + 4 = 10 configurations.
SWEEP_FLAGS = {
    4: ((0, 0, 0), (1, 0, 0)),
    2: ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)),
    1: ((0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)),
}

_MAX_EXTRAS = 2  # >2 surviving same-bin extra photons: discard (prob < 1e-7)


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible random stream for a (seed, key...) address."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    )


def _float_key(x: float) -> tuple[int, int]:
    bits = int(np.float64(x).view(np.uint64))
    return (bits >> 32, bits & 0xFFFFFFFF)


@dataclass(frozen=True)
class NoiseConfig:
    """Noise knobs of the simulated platform.

    ``delta`` is the common pairwise photon indistinguishability, ``g2_*`` the
    second-order correlations of the source for the two- and four-photon
    experiments (the single-photon stages use the two-photon value),
    ``brightness`` the non-empty-bin probability, ``eta`` the per-photon
    end-to-end survival and ``sigma_theta/phi`` static programming errors.
    With ``condition_on_emission`` (default) bins are conditioned on having
    fired, which rescales (p1, p2) by the brightness and keeps acceptance
    rates desk-scale; set it False for the unconditioned source.
    """

    delta: float = 1.0
    g2_two_photon: float = 0.0
    g2_four_photon: float = 0.0
    brightness: float = 1.0
    eta: float = 1.0
    sigma_theta: float = 0.0
    sigma_phi: float = 0.0
    condition_on_emission: bool = True

    def __post_init__(self):
        # Every field's check names it: the CLI reports these as config errors.
        g2_range = f"[0, {G2_GUARD})"
        for name, ok, interval in (
            ("delta", 0.0 <= self.delta <= 1.0, "[0, 1]"),
            ("g2_two_photon", 0.0 <= self.g2_two_photon < G2_GUARD, g2_range),
            ("g2_four_photon", 0.0 <= self.g2_four_photon < G2_GUARD, g2_range),
            ("brightness", 0.0 < self.brightness <= 1.0, "(0, 1]"),
            ("eta", 0.0 <= self.eta <= 1.0, "[0, 1]"),
            ("sigma_theta", self.sigma_theta >= 0.0, "[0, inf)"),
            ("sigma_phi", self.sigma_phi >= 0.0, "[0, inf)"),
        ):
            if not ok:
                raise ValueError(f"{name} = {getattr(self, name)} outside {interval}")

    def source_model(self, n_photons: int) -> SourceModel:
        g2 = self.g2_four_photon if n_photons == 4 else self.g2_two_photon
        return SourceModel(*g2_to_probs(g2, self.brightness), self.eta)


NOISELESS = NoiseConfig()

#: Defaults measured on the experimental platform (mean pairwise
#: indistinguishability of the six photon pairs, source correlations and
#: brightness of the quantum-dot source).
DEVICE_NOISE = NoiseConfig(
    delta=0.926,
    g2_two_photon=5.321e-3,
    g2_four_photon=5.629e-3,
    brightness=0.14,
    eta=1.0,
)


@dataclass(frozen=True)
class ProtocolConfig:
    """Grid, repetition and noise settings of one acquisition run."""

    n_phases: int = 99
    n_shots: int = 5377
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    seed: int = 0

    def __post_init__(self):
        if self.n_phases < 1:
            raise ValueError("need at least one phase")
        if self.n_shots < 1:
            raise ValueError("need at least one shot")

    def phases(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n_phases) / self.n_phases


def _place(n: int) -> np.ndarray:
    """Bit weight of each qubit in an outcome code, qubit 0 the highest."""
    return 1 << np.arange(n - 1, -1, -1)


_N_RECORDS = 1 << CLASSICAL_QUBITS
#: [128, 7] int8 bits m6..m0 (or c6..c0) of every 7-bit record code.
_RECORD_BITS = ((np.arange(_N_RECORDS)[:, None] & _place(CLASSICAL_QUBITS)) > 0).astype(np.int8)
#: b-index 4 b1 + 2 b2 + b3 of every 7-bit record code.
_B_FROM_M = _RECORD_BITS[:, _B_POSITIONS] @ _place(3)


def _tree_indices() -> tuple[np.ndarray, ...]:
    """Per record m6..m0: the codes and flags of its three feed-forward steps.

    The 4-photon code holds (m6, m5, m4) and a last bit that makes its parity
    b3 = m3; the 2-photon step runs with flags (0, b3, 0) and code (x0, x1)
    with x0 = m2 and b2 = m1 = x0 ^ x1; the 1-photon step runs with flags
    (0, b2, b3) and gives b1 = m0.
    """
    m6, m5, m4, b3, x0, b2, b1 = _RECORD_BITS.T.astype(np.intp)
    code4 = m6 << 3 | m5 << 2 | m4 << 1 | (m6 ^ m5 ^ m4 ^ b3)
    return code4, b3, x0 << 1 | (x0 ^ b2), b2, b1


_TREE = _tree_indices()


class StepSimulator:
    """Builds programs, derives exact outcome distributions and samples them.

    Programming errors are static per run: each (experiment, phase, flags)
    program receives one frozen perturbation drawn from a stream derived from
    the run seed, modelling miscalibration rather than per-shot jitter.

    The source realization of an attempt is a class: which main photons
    survive and which bins add a surviving second photon.  A step's
    distribution is the class mixture ``sum_class w * P(outcome, accepted |
    class)`` with the weights of `class_probabilities`, summed in `_mixture`
    and memoized per (n, phase bits, flags).  Without programming errors a
    miss evaluates the mixture's Fourier series per (n, flags), built once
    from `_mixture` at 2k + 1 nodes; with them the mixture is built at the
    phase.  Classes that can never be accepted are left out, so their weight
    is discarded with the other rejected attempts.  `record_law` composes the
    step distributions into the law of a whole repetition, memoized per
    (strategy, phase bits).
    """

    def __init__(self, noise: NoiseConfig, seed: int):
        self.noise = noise
        self.seed = seed
        self._dists: dict = {}
        self._laws: dict = {}
        self._series: dict = {}
        self._perturbed = noise.sigma_theta > 0 or noise.sigma_phi > 0
        self._classes = {n: self._weighted_classes(n) for n in PROBE_SIZES}

    # -- programs -----------------------------------------------------------

    def unitary(self, n: int, phi: float, flags: tuple[int, int, int]) -> np.ndarray:
        program = build_step_program(
            "full",
            n,
            phi,
            sigma_z=bool(flags[0]),
            r2=bool(flags[1]),
            r3=bool(flags[2]),
        )
        if self._perturbed:
            flag_code = flags[0] * 4 + flags[1] * 2 + flags[2]
            rng = derive_rng(self.seed, _STREAM_PERTURB, n, flag_code, *_float_key(phi))
            program = perturb_program(
                program, self.noise.sigma_theta, self.noise.sigma_phi, rng
            )
        return mesh_unitary(program)

    # -- source realization classes ------------------------------------------

    def class_parts(self, n: int, key: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        channels = GHZ_INPUT_MODES[n]
        mains = tuple(channels[k] for k in range(n) if key & (1 << k))
        extras = tuple(channels[k] for k in range(n) if key & (1 << (n + k)))
        return mains, extras

    def _class_ensemble(self, n: int, class_key: int) -> PhotonEnsemble | None:
        """The class's photons, or None when it can never be accepted."""
        mains, extras = self.class_parts(n, class_key)
        if len(mains) + len(extras) < n or len(extras) > _MAX_EXTRAS:
            return None
        return ensemble_from_parts(mains, extras, self.noise.delta)

    def _weighted_classes(self, n: int) -> list[tuple[float, PhotonEnsemble]]:
        """(weight, photons) of every class of weight > 0 that can be accepted."""
        noise = self.noise
        weights = class_probabilities(noise.source_model(n), n, noise.condition_on_emission)
        classes = []
        for key in np.flatnonzero(weights > 0.0).tolist():
            ensemble = self._class_ensemble(n, key)
            if ensemble is not None:
                classes.append((float(weights[key]), ensemble))
        return classes

    # -- distributions --------------------------------------------------------

    def distribution(self, n: int, phi: float, flags: tuple[int, int, int]) -> np.ndarray:
        """Cumulative class-mixture accepted probability over the 2**n outcome codes at ``phi``.

        The last entry is the acceptance.  Roundoff negatives of the series
        are clipped to 0; a code of probability 0 leaves a zero-width step,
        which ``searchsorted(..., side="right")`` never picks.
        """
        key = (n, _float_key(phi), flags)
        if key not in self._dists:
            if self._perturbed:
                probs = self._mixture(n, self.unitary(n, phi, flags))
            else:
                coef = self._mixed_series(n, flags)
                probs = (np.exp(1j * np.arange(len(coef)) * phi) @ coef).real
            self._dists[key] = np.cumsum(np.where(probs < 0.0, 0.0, probs))
        return self._dists[key]

    def _accepted(self, n: int, u: np.ndarray, ensemble: PhotonEnsemble) -> np.ndarray:
        """Accepted probability of every outcome code (qubit 0 the high bit), [2**n]."""
        counts, probs = full_output_distribution(u, ensemble)
        # Accepted: no photon off the rails and exactly one occupied rail per
        # pair; the bit is set when that rail is the pair's second.
        rail0, rail1 = np.array(logical_rail_pairs(n)).T
        off_rails = np.ones(u.shape[0], dtype=bool)
        off_rails[rail0] = off_rails[rail1] = False
        hit = counts > 0
        accepted = ~hit[:, off_rails].any(axis=1) & (
            hit[:, rail0] != hit[:, rail1]
        ).all(axis=1)
        return np.bincount(
            hit[accepted][:, rail1] @ _place(n), weights=probs[accepted], minlength=1 << n
        )

    def _mixture(self, n: int, u: np.ndarray) -> np.ndarray:
        """Class mixture of `_accepted` under the step unitary ``u``, [2**n]."""
        probs = np.zeros(1 << n)
        for weight, ensemble in self._classes[n]:
            probs += weight * self._accepted(n, u, ensemble)
        return probs

    def _mixed_series(self, n: int, flags: tuple[int, int, int]) -> np.ndarray:
        """One-sided Fourier coefficients c_0..c_k of the class mixture, [k + 1, 2**n].

        With at most k photons in a class every accepted probability is a
        trigonometric polynomial of degree <= k in phi, so the mixture's
        values at 2k + 1 equispaced nodes fix it.  Without classes k is 0.
        """
        key = (n, flags)
        if key not in self._series:
            k = max((ensemble.n_photons for _, ensemble in self._classes[n]), default=0)
            n_nodes = 2 * k + 1
            nodes = 2.0 * math.pi * np.arange(n_nodes) / n_nodes
            values = np.stack(
                [self._mixture(n, self.unitary(n, float(x), flags)) for x in nodes]
            )
            # DFT over the nodes; the integer reduction keeps every angle below 2 pi.
            turns = np.outer(np.arange(k + 1), np.arange(n_nodes)) % n_nodes
            coef = np.exp(-2j * math.pi * turns / n_nodes) @ values / n_nodes
            coef[1:] *= 2.0  # c_{-m} = conj(c_m) for real values
            self._series[key] = coef
        return self._series[key]

    def record_law(self, strategy: str, phi: float) -> np.ndarray:
        """Cumulative law of one ``"quantum"`` or ``"classical"`` repetition at ``phi``.

        The first 128 entries run over the 7-bit records (m6..m0 or c6..c0,
        the first bit high), so entry 127 is the acceptance A(phi).  A
        quantum law then holds the repetitions lost at the 1-, the 2- and the
        4-photon step, in that order; a classical law, seven independent
        1-photon steps with flags (0, 0, 0), holds its losses in one bin.  A
        bin lost to roundoff is clipped to 0, so the entries never decrease.
        """
        key = (strategy, _float_key(phi))
        if key not in self._laws:

            def step(n, flags):
                return np.diff(self.distribution(n, phi, flags), prepend=0.0)

            if strategy == "quantum":
                code4, b3, code2, b2, b1 = _TREE
                p4 = step(4, (0, 0, 0))
                p2 = np.stack([step(2, (0, v, 0)) for v in (0, 1)])
                p1 = np.array([[step(1, (0, r2, r3)) for r3 in (0, 1)] for r2 in (0, 1)])
                reached = p4[code4] * p2[b3, code2]  # before the 1-photon step
                law = reached * p1[b2, b3, b1]
                # The even records (m0 = 0) hold each 4- and 2-photon outcome
                # pair once; the 2-photon step is reached with sum(p4).
                reach1 = reached[::2].sum()
                losses = [reach1 - law.sum(), p4.sum() - reach1, 1.0 - p4.sum()]
            else:
                law = step(1, (0, 0, 0))[_RECORD_BITS].prod(axis=1)
                losses = [1.0 - law.sum()]
            self._laws[key] = np.cumsum(np.append(law, np.maximum(losses, 0.0)))
        return self._laws[key]

    # -- sampling --------------------------------------------------------------

    def sample_step(
        self,
        n: int,
        phi: float,
        flags: tuple[int, int, int],
        count: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run ``count`` attempts and return the ones post-selection accepts.

        Returns ``(rows, codes)``: the accepted attempt indices in ascending
        order and their uint8 outcome codes (qubit 0 the high bit).  Attempt
        i draws one uniform through `_draw_records`, which picks its outcome
        from the class mixture's cumulative `distribution` or, past the
        acceptance, discards it.  The source class is never drawn: the
        mixture already sums over it.
        """
        return _draw_records(self.distribution(n, phi, flags), 1 << n, count, count, rng)[1:]


# ---------------------------------------------------------------------------
# Feed-forward acquisition
# ---------------------------------------------------------------------------


@dataclass
class Dataset:
    """The valid 7-bit records of a quantum or a classical run, in phase order."""

    n_phases: int
    phases: np.ndarray
    phase_index: np.ndarray  # [n_records]
    # Feed-forward and classical: the attempt index; gaps are discarded
    # repetitions.  Sweep: the 4-photon attempts of earlier chunks plus the
    # rank among its chunk's matches.
    shot_index: np.ndarray  # [n_records]
    records: np.ndarray  # [n_records] uint8 codes of m6..m0 or c6..c0, the first bit high
    stats: dict = field(default_factory=dict)


def _draw_records(
    cum: np.ndarray, n_codes: int, count: int, need: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One uniform per repetition against the cumulative law ``cum``.

    The first ``n_codes`` entries of ``cum`` run over the outcome codes: 128
    for a `record_law`, 2**n for a step `distribution`.  Returns the
    uniforms of the repetitions used, the first ``need`` accepted
    repetitions in ascending order and their uint8 codes.  All ``count``
    uniforms are drawn; once ``need`` (> 0) are accepted, the repetitions
    after the last of them are not used.
    """
    u = rng.random(count)
    kept = np.flatnonzero(u < cum[n_codes - 1])[:need]
    if need and len(kept) == need:
        u = u[: kept[-1] + 1]
    codes = np.searchsorted(cum[:n_codes], u[kept], side="right")
    return u, kept, codes.astype(np.uint8)


def _quantum_chunk(
    sim: StepSimulator, phi: float, count: int, need: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Simulate ``count`` feed-forward repetitions; the valid ones and their m codes.

    A discarded repetition among those used is counted at the step that lost
    it; uniforms past the 2-photon loss bin, roundoff included, count as
    4-photon losses.
    """
    cum = sim.record_law("quantum", phi)
    u, kept, m = _draw_records(cum, _N_RECORDS, count, need, rng)
    past1, past2 = (int(np.count_nonzero(u < edge)) for edge in cum[_N_RECORDS : _N_RECORDS + 2])
    stats = {
        "attempts": len(u),
        "discard_4": len(u) - past2,
        "discard_2": past2 - past1,
        "discard_1": past1 - len(kept),
    }
    return kept, m, stats


def _acquire(config: ProtocolConfig, stream: int, chunk, label: str, acceptance, cap_scale=None):
    """Per-phase acquisition loop shared by every strategy.

    Each phase draws from its own ``derive_rng(seed, stream, phase)`` stream
    and calls ``chunk(sim, phi, count, need, rng) -> (kept, records, stats)``
    on at most 4096 attempts at a time, where ``kept`` holds the indices of at
    most ``need`` valid attempts in ascending order and ``records`` their
    codes.  ``stats["attempts"]`` is the number of attempts the chunk used and
    the other entries count within them; every entry is summed into the run's
    stats.  Records are kept until n_shots or the cap of ``MAX_ATTEMPT_FACTOR
    * n_shots`` attempts, times ``cap_scale(sim, phi)`` if given.  Phases left
    short go to ``stats["short_phases"]`` with a warning; a run without any
    row raises PostSelectionEmpty.  A run that expects fewer than one valid
    repetition in all, the sum over phases of cap * ``acceptance(sim, phi)``,
    raises PostSelectionEmpty before any attempt.  The messages start with
    ``label``.
    """
    sim = StepSimulator(config.noise, config.seed)
    cap = config.n_shots * MAX_ATTEMPT_FACTOR
    expected = cap * sum(acceptance(sim, float(phi)) for phi in config.phases())
    if expected < 1.0:
        raise PostSelectionEmpty(
            f"{label}: no valid repetitions expected over the {config.n_phases}"
            f" phases ({expected:.3g} within the attempt cap)"
        )
    stats = {"attempts": 0, "valid": 0}
    counts, shots, rows = [], [], []
    for p_idx, phi in enumerate(config.phases()):
        rng = derive_rng(config.seed, stream, p_idx)
        phase_cap = cap if cap_scale is None else math.ceil(cap * cap_scale(sim, float(phi)))
        have = attempts = 0
        while have < config.n_shots and attempts < phase_cap:
            kept, records, chunk_stats = chunk(
                sim, float(phi), min(4096, phase_cap - attempts), config.n_shots - have, rng
            )
            shots.append(attempts + kept)
            rows.append(records)
            have += len(kept)
            attempts += chunk_stats["attempts"]
            for key, value in chunk_stats.items():
                stats[key] = stats.get(key, 0) + value
        stats["valid"] += have
        counts.append(have)
    if not stats["valid"]:
        raise PostSelectionEmpty(
            f"{label}: no valid repetitions at any of the {config.n_phases} phases"
        )
    short_phases = [p for p, have in enumerate(counts) if have < config.n_shots]
    if short_phases:
        warnings.warn(
            f"{label}: attempt cap reached before n_shots at {len(short_phases)} phases"
        )
        stats["short_phases"] = short_phases
    return Dataset(
        config.n_phases,
        config.phases(),
        np.repeat(np.arange(config.n_phases, dtype=np.int64), counts),
        np.concatenate(shots).astype(np.int64, copy=False),
        np.concatenate(rows),
        stats,
    )


def _quantum_acceptance(sim: StepSimulator, phi: float) -> float:
    """A(phi): the chance that a feed-forward repetition yields a record."""
    return sim.record_law("quantum", phi)[_N_RECORDS - 1]


def simulate_quantum_dataset(config: ProtocolConfig) -> Dataset:
    """Run the feed-forward protocol until n_shots valid repetitions per phase."""
    return _acquire(config, _STREAM_QUANTUM, _quantum_chunk, "quantum", _quantum_acceptance)


# ---------------------------------------------------------------------------
# Configuration sweep and post-processing
# ---------------------------------------------------------------------------


def _match_arrays(four, two, one, rng: np.random.Generator) -> np.ndarray:
    """Match the sweep's outcomes into records; the uint8 codes of the valid m.

    ``four``, ``two`` and ``one`` are each a ``(codes, flags)`` pair: the
    outcome codes of one experiment's accepted attempts (qubit 0 the high
    bit) and the [k, 3] dialed (sigma_z, r2, r3) of each.  A record m6..m0
    is its 4-, 2- and 1-photon codes, in that order.
    """
    (c4, f4), (c2, f2), (c1, f1) = four, two, one
    # Step 1: drop outcomes whose dialed correction contradicts the parity of
    # the measured control bits.
    x4 = c4 >> 1  # the control bits m6, m5, m4
    keep4 = f4[:, 0] == (x4 ^ x4 >> 1 ^ x4 >> 2) & 1
    keep2 = f2[:, 0] == c2 >> 1
    c4, f4, c2, f2 = c4[keep4], f4[keep4], c2[keep2], f2[keep2]
    # Step 2: pool survivors per experiment in randomized order, keeping flags.
    perm4 = rng.permutation(len(c4))
    perm2 = rng.permutation(len(c2))
    perm1 = rng.permutation(len(c1))
    c4, f4 = c4[perm4], f4[perm4]
    c2, f2 = c2[perm2], f2[perm2]
    c1, f1 = c1[perm1], f1[perm1]
    # Step 3: zip homologous entries; keep triples whose dialed rotations agree
    # with the informative bits produced by the other experiments.
    n = min(len(c4), len(c2), len(c1))
    c4, c2, c1, f2, f1 = c4[:n], c2[:n], c1[:n], f2[:n], f1[:n]
    b3 = c4 & 1
    b2 = c2 & 1
    agree = (f2[:, 1] == b3) & (f1[:, 1] == b2) & (f1[:, 2] == b3)
    return (c4 << 3 | c2 << 1 | c1)[agree].astype(np.uint8)


def _sweep_chunk(
    sim: StepSimulator, phi: float, count: int, need: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Run the 10 sweep configurations and match their outcomes into records.

    The two 4-photon configurations share ``count`` attempts.  Every 2- and
    1-photon configuration then runs one common number of attempts, sized
    from the exact acceptances so that each experiment's parity-filtered pool
    is expected to be as long as the 4-photon one; equal counts within an
    experiment keep the matched records on the feed-forward law.  Record i
    of the chunk is numbered i, so the chunk's indices are match ranks, not
    attempts: it keeps its first ``need`` records and counts all ``count``
    4-photon attempts as used.
    """

    def accepted(n, flags):
        return float(sim.distribution(n, phi, flags)[-1])

    reps = {4: (count // 2, count - count // 2)}
    pool = sum(r * accepted(4, f) for r, f in zip(reps[4], SWEEP_FLAGS[4])) / 2
    for n, kept in ((2, 0.5), (1, 1.0)):  # parity filters keep half; none at n = 1
        rate = kept * sum(accepted(n, f) for f in SWEEP_FLAGS[n])
        reps[n] = [math.ceil(pool / rate) if rate > 0 else 0] * len(SWEEP_FLAGS[n])
    pools = []
    for n in PROBE_SIZES:
        codes = [sim.sample_step(n, phi, f, r, rng)[1] for r, f in zip(reps[n], SWEEP_FLAGS[n])]
        counts = [len(c) for c in codes]
        pools.append((np.concatenate(codes), np.repeat(SWEEP_FLAGS[n], counts, axis=0)))
    records = _match_arrays(*pools, rng)[:need]
    return np.arange(len(records)), records, {"attempts": count}


def _sweep_cap_scale(sim: StepSimulator, phi: float) -> float:
    """max(1, 16 A / acc4): a repetition yields A(phi) records and a 4-photon
    sweep attempt about acc4 / 16, acc4 the mean 4-photon acceptance."""
    acc4 = np.mean([sim.distribution(4, phi, f)[-1] for f in SWEEP_FLAGS[4]])
    a16 = 16.0 * _quantum_acceptance(sim, phi)
    return a16 / acc4 if a16 > acc4 else 1.0


def simulate_sweep_dataset(config: ProtocolConfig) -> Dataset:
    """Quantum dataset via the configuration sweep plus matching post-processing."""
    return _acquire(
        config, _STREAM_SWEEP, _sweep_chunk, "sweep", _quantum_acceptance, _sweep_cap_scale
    )


# ---------------------------------------------------------------------------
# Classical baseline
# ---------------------------------------------------------------------------


def _classical_chunk(
    sim: StepSimulator, phi: float, count: int, need: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Simulate ``count`` classical repetitions: a lost photon discards all 7 bits."""
    u, kept, c = _draw_records(sim.record_law("classical", phi), _N_RECORDS, count, need, rng)
    return kept, c, {"attempts": len(u)}


def simulate_classical_dataset(config: ProtocolConfig) -> Dataset:
    """Run the classical baseline until n_shots valid repetitions per phase."""
    return _acquire(
        config, _STREAM_CLASSICAL, _classical_chunk, "classical",
        lambda sim, phi: sim.record_law("classical", phi)[_N_RECORDS - 1],
    )


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    """Text form of every float written to an output file."""
    return f"{float(x):.12g}"


class DatasetError(ValueError):
    """A dataset file that cannot be read: bad header, row, bit value or layout."""


def _tails(columns) -> np.ndarray:
    """The ``,b,b,...\n`` row tail of every 7-bit record code: its bits at ``columns``."""
    rows = _RECORD_BITS[:, columns].tolist()
    return np.array([("," + ",".join(map(str, row)) + "\n").encode() for row in rows])


_QUANTUM_TAILS = _tails([*range(CLASSICAL_QUBITS), *_B_POSITIONS])
_CLASSICAL_TAILS = _tails(list(range(CLASSICAL_QUBITS)))


def _write_dataset(path, header: str, ds: Dataset, tails: np.ndarray) -> None:
    """Write ``header`` and one CSV row per record of ``ds``, ending in ``tails[record]``.

    Each run of rows with equal ``phase_index`` is formatted as one block: the
    ``phase_index,phase_rad,`` prefix once, then the shot indices as
    fixed-width byte strings, each joined to its record's tail.  Blocks are
    built one at a time, so no whole-file copy is held.  When the range from
    the smallest to the largest shot index holds no more values than there are
    rows, each value in it is formatted once into a table that the blocks
    index; a wider range is formatted block by block.
    """
    index = ds.phase_index
    bounds = [0, *(np.flatnonzero(index[1:] != index[:-1]) + 1), len(index)]
    shots, lo, texts = ds.shot_index, 0, None
    if len(shots):
        lo, hi = int(shots.min()), int(shots.max())
        if hi - lo < len(shots):
            width = max(len(str(lo)), len(str(hi)))
            texts = np.arange(lo, hi + 1, dtype=np.int64).astype(f"S{width}")
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start, stop in zip(bounds[:-1], bounds[1:]):
            if start == stop:
                continue
            p = int(index[start])
            prefix = f"{p},{format_float(ds.phases[p])},".encode()
            block = shots[start:stop]
            block = block.astype("S20") if texts is None else texts[block - lo]
            rows = np.char.add(block, tails[ds.records[start:stop]])
            # prefix.join puts the prefix before every row but the first.
            fh.write(prefix + prefix.join(rows.tolist()))


def write_quantum_csv(ds: Dataset, path) -> None:
    _write_dataset(path, QUANTUM_CSV_HEADER, ds, _QUANTUM_TAILS)


def write_classical_csv(ds: Dataset, path) -> None:
    _write_dataset(path, CLASSICAL_CSV_HEADER, ds, _CLASSICAL_TAILS)


@contextlib.contextmanager
def _open_dataset(path, header: str):
    """Open a dataset file, check its header line and yield it at the first row."""
    with open(path, newline="") as fh:
        first = fh.readline().strip()
        if first != header:
            raise DatasetError(f"{path}: unexpected header {first!r}")
        yield fh


def _parse_rows(path, header: str, n_cols: int):
    """Row-by-row parser: (phase_index, phase_rad, shot_index, bits) columns.

    Every malformed line fails with its line number.  This is the reference
    for ``_load_columns``, and the path that names the row of a bad file.
    """
    phase_index, phase_rad, shot_index, bits = [], [], [], []
    with _open_dataset(path, header) as fh:
        for lineno, line in enumerate(fh, start=2):
            parts = line.strip().split(",")
            if len(parts) != n_cols:
                raise DatasetError(f"{path}: row {lineno}: expected {n_cols} columns")
            try:
                ints = [int(parts[0]), int(parts[2]), *(int(x) for x in parts[3:])]
                if not -(2**63) <= min(ints) <= max(ints) < 2**63:
                    raise ValueError("integer out of the int64 range")
                phase_rad.append(float(parts[1]))
            except ValueError as exc:
                raise DatasetError(f"{path}: row {lineno}: {exc}") from None
            phase_index.append(ints[0])
            shot_index.append(ints[1])
            bits.append(ints[2:])
    return (
        np.array(phase_index, dtype=np.int64),
        np.array(phase_rad, dtype=np.float64),
        np.array(shot_index, dtype=np.int64),
        np.array(bits, dtype=np.int64).reshape(-1, n_cols - 3),
    )


def _load_columns(path, header: str, n_cols: int):
    """The columns of ``_parse_rows`` in one ``np.loadtxt`` pass, or None.

    None means the file needs the row parser: it has a CR, no data line, a
    line that does not parse as exactly ``n_cols`` int/float/int... fields,
    or a blank line (``loadtxt`` skips those, so the row count differs).
    """
    raw = Path(path).read_bytes()
    n_lines = raw.count(b"\n") + (not raw.endswith(b"\n")) - 1
    if b"\r" in raw or n_lines < 1:
        return None
    del raw
    dtype = [
        ("phase_index", np.int64),
        ("phase_rad", np.float64),
        ("shot_index", np.int64),
        ("bits", np.int64, (n_cols - 3,)),
    ]
    with _open_dataset(path, header) as fh, warnings.catch_warnings():
        warnings.simplefilter("error")  # e.g. integers parsed via float
        try:
            table = np.loadtxt(fh, delimiter=",", comments=None, dtype=dtype, ndmin=1)
        except (ValueError, Warning):
            return None
    if len(table) != n_lines:
        return None
    return tuple(table[name] for name, *_ in dtype)


def _grid_size(seen: np.ndarray, values: np.ndarray) -> int:
    """Size N of the grid 2 pi i / N holding phase ``values`` at ascending indices ``seen``.

    N is read off the largest index and must place every value; it exceeds
    that index + 1 when trailing phases have no rows, but at most twice.
    Values that fit no such grid give the largest index + 1.
    """
    top, rad = int(seen[-1]), float(values[-1])
    ratio = 2.0 * math.pi * top / rad if rad > 0.0 else 0.0
    if not top + 0.5 <= ratio < 2 * top + 2.5:
        return top + 1
    n = round(ratio)
    on_grid = np.allclose(values, 2.0 * math.pi * seen / n, rtol=1e-9, atol=1e-12)
    return n if on_grid else top + 1


def _parse_dataset(path, header: str) -> Dataset:
    n_cols = header.count(",") + 1
    try:
        columns = _load_columns(path, header, n_cols)
        if columns is None:
            columns = _parse_rows(path, header, n_cols)
    except OSError as exc:
        raise DatasetError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not a text file: {exc}") from None
    phase_index, phase_rad, shot_index, bits = columns
    if not len(phase_index):
        raise DatasetError(f"{path}: no data rows")
    if bits.min() < 0 or bits.max() > 1:
        raise DatasetError(f"{path}: bit columns must be 0/1")
    if phase_index.min() < 0:
        raise DatasetError(f"{path}: phase_index must be non-negative")
    # The last row of each phase index sets its phase value.
    seen, last = np.unique(phase_index[::-1], return_index=True)
    values = phase_rad[::-1][last]
    n_phases = _grid_size(seen, values)
    phases = 2.0 * math.pi * np.arange(n_phases) / n_phases
    phases[seen] = values
    records = bits[:, :CLASSICAL_QUBITS] @ _place(CLASSICAL_QUBITS)
    b = bits[:, CLASSICAL_QUBITS:]
    if b.size and np.any(b @ _place(b.shape[1]) != _B_FROM_M[records]):
        raise DatasetError(f"{path}: b columns disagree with the frozen m positions")
    return Dataset(
        n_phases,
        phases,
        np.ascontiguousarray(phase_index),
        np.ascontiguousarray(shot_index),
        records.astype(np.uint8),
    )


def read_quantum_csv(path) -> Dataset:
    return _parse_dataset(path, QUANTUM_CSV_HEADER)


def read_classical_csv(path) -> Dataset:
    return _parse_dataset(path, CLASSICAL_CSV_HEADER)
