"""Shot-by-shot execution of the digital protocol and the classical baseline.

A quantum repetition chains three experiments (4-, 2-, 1-photon) with genuine
feed-forward: the informative bit of each stage selects the dialed inverse
rotations of the next.  The alternative acquisition mode runs every control
configuration independently and reassembles valid 7-bit strings afterwards
(`run_configuration_sweep` + `match_configurations`), mirroring how a
post-selected platform implements feed-forward.

Outcome distributions per (program, source realization class) are exact and
memoized, so sampling large shot counts is cheap; the memo behaves as a pure
cache keyed by the program settings and the realized ensemble.
"""

from __future__ import annotations

import contextlib
import functools
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
    PostSelectionEmpty,
    SourceModel,
    ensemble_from_parts,
    full_output_distribution,
    g2_to_probs,
    sample_survivors,
)

PROBE_SIZES = (4, 2, 1)
N_PROBE_GROUPS = 3
CLASSICAL_QUBITS = 7  # 2**t - 1 with t = 3
_B_POSITIONS = [6, 5, 3]  # columns of m (m6..m0) that hold (b1, b2, b3)

QUANTUM_CSV_HEADER = (
    "phase_index,phase_rad,shot_index,m6,m5,m4,m3,m2,m1,m0,b1,b2,b3"
)
CLASSICAL_CSV_HEADER = "phase_index,phase_rad,shot_index,c6,c5,c4,c3,c2,c1,c0"

_STREAM_QUANTUM = 1
_STREAM_CLASSICAL = 2
_STREAM_SWEEP = 3
_STREAM_MATCH = 4
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
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta = {self.delta} outside [0, 1]")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta = {self.eta} outside [0, 1]")
        if self.sigma_theta < 0 or self.sigma_phi < 0:
            raise ValueError("programming-error sigmas must be non-negative")

    def source_model(self, n_photons: int) -> SourceModel:
        g2 = self.g2_four_photon if n_photons == 4 else self.g2_two_photon
        p0, p1, p2 = g2_to_probs(g2, self.brightness) if g2 > 0 else (
            1.0 - self.brightness,
            self.brightness,
            0.0,
        )
        return SourceModel(p0, p1, p2, self.eta, g2=g2, brightness=self.brightness)


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
    max_attempt_factor: int = 400
    sweep_rep_factor: int = 80

    def __post_init__(self):
        if self.n_phases < 1:
            raise ValueError("need at least one phase")
        if self.n_shots < 1:
            raise ValueError("need at least one shot")
        if self.max_attempt_factor < 1 or self.sweep_rep_factor < 1:
            raise ValueError("attempt factors must be positive")

    def phases(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n_phases) / self.n_phases


@dataclass(frozen=True)
class StepOutcome:
    """Measured bits of one experiment run under dialed control flags."""

    experiment: int
    flags: tuple[int, int, int]  # (sigma_z, r2, r3)
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.experiment not in PROBE_SIZES:
            raise ValueError(f"experiment tag {self.experiment} not in {PROBE_SIZES}")
        if len(self.bits) != self.experiment:
            raise ValueError("bit count must equal the experiment size")


@dataclass(frozen=True)
class ShotRecord:
    """One valid protocol repetition: the 7-bit string m and its (b1, b2, b3)."""

    m: tuple[int, ...]
    b: tuple[int, int, int]

    def __post_init__(self):
        if len(self.m) != 7:
            raise ValueError("m must hold 7 bits")
        if self.b != (self.m[6], self.m[5], self.m[3]):
            raise ValueError("b must equal (m0, m1, m3)")

    @classmethod
    def from_m(cls, m: tuple[int, ...]) -> "ShotRecord":
        m = tuple(int(x) for x in m)
        return cls(m, (m[6], m[5], m[3]))


@dataclass(frozen=True)
class StepDistribution:
    """Exact accepted-outcome distribution of one experiment configuration."""

    outcomes: np.ndarray  # [K, n_qubits] uint8 logical bits
    cum_probs: np.ndarray  # [K] cumulative accepted probability
    discard_prob: float


class StepSimulator:
    """Builds programs, derives exact outcome distributions and samples them.

    Programming errors are static per run: each (experiment, phase, flags)
    program receives one frozen perturbation drawn from a stream derived from
    the run seed, modelling miscalibration rather than per-shot jitter.
    """

    def __init__(self, noise: NoiseConfig, seed: int):
        self.noise = noise
        self.seed = seed
        self._programs: dict = {}
        self._dists: dict = {}
        self._sources = {n: noise.source_model(n) for n in PROBE_SIZES}

    # -- programs -----------------------------------------------------------

    def unitary(self, n: int, phi: float, flags: tuple[int, int, int]) -> np.ndarray:
        key = (n, _float_key(phi), flags)
        if key not in self._programs:
            program = build_step_program(
                "full",
                n,
                phi,
                sigma_z=bool(flags[0]),
                r2=bool(flags[1]),
                r3=bool(flags[2]),
            )
            if self.noise.sigma_theta > 0 or self.noise.sigma_phi > 0:
                flag_code = flags[0] * 4 + flags[1] * 2 + flags[2]
                rng = derive_rng(
                    self.seed, _STREAM_PERTURB, n, flag_code, *_float_key(phi)
                )
                program = perturb_program(
                    program, self.noise.sigma_theta, self.noise.sigma_phi, rng
                )
            self._programs[key] = mesh_unitary(program)
        return self._programs[key]

    # -- source realization classes ------------------------------------------

    def sample_class_keys(self, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
        """Realization class per attempt, encoded as main|extra survival masks.

        Bit k: main photon of bin k survived; bit n+k: a second photon was
        emitted in bin k and survived.  Conditioned mode redraws empty bins.
        """
        main_alive, extra_alive = sample_survivors(
            self._sources[n], count, n, rng, self.noise.condition_on_emission
        )
        weights = 1 << np.arange(n)
        return (main_alive @ weights).astype(np.int64) | (
            (extra_alive @ weights).astype(np.int64) << n
        )

    def class_parts(self, n: int, key: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        channels = GHZ_INPUT_MODES[n]
        mains = tuple(channels[k] for k in range(n) if key & (1 << k))
        extras = tuple(channels[k] for k in range(n) if key & (1 << (n + k)))
        return mains, extras

    # -- distributions --------------------------------------------------------

    def distribution(
        self, n: int, phi: float, flags: tuple[int, int, int], class_key: int
    ) -> StepDistribution:
        key = (n, _float_key(phi), flags, class_key)
        if key in self._dists:
            return self._dists[key]
        mains, extras = self.class_parts(n, class_key)
        dist = self._compute_distribution(n, phi, flags, mains, extras)
        self._dists[key] = dist
        return dist

    def _compute_distribution(
        self,
        n: int,
        phi: float,
        flags: tuple[int, int, int],
        mains: tuple[int, ...],
        extras: tuple[int, ...],
    ) -> StepDistribution:
        pairs = logical_rail_pairs(n)
        empty = StepDistribution(
            np.zeros((0, n), dtype=np.uint8), np.zeros(0), 1.0
        )
        if len(mains) + len(extras) < n or len(extras) > _MAX_EXTRAS:
            return empty
        u = self.unitary(n, phi, flags)
        ensemble = ensemble_from_parts(mains, extras, self.noise.delta)
        full = full_output_distribution(u, ensemble)
        rails = {m for pair in pairs for m in pair}
        outside = [m for m in range(u.shape[0]) if m not in rails]
        acc: dict[tuple[int, ...], float] = {}
        discard = 0.0
        for counts, p in full.items():
            if p == 0.0:
                continue
            if any(counts[m] for m in outside):
                discard += p
                continue
            bits = []
            ok = True
            for rail0, rail1 in pairs:
                c0 = counts[rail0] > 0
                c1 = counts[rail1] > 0
                if c0 == c1:
                    ok = False
                    break
                bits.append(1 if c1 else 0)
            if ok:
                key = tuple(bits)
                acc[key] = acc.get(key, 0.0) + p
            else:
                discard += p
        if not acc:
            return empty
        outcomes = np.array(sorted(acc), dtype=np.uint8)
        probs = np.array([acc[tuple(row)] for row in outcomes])
        return StepDistribution(outcomes, np.cumsum(probs), float(discard))

    # -- sampling --------------------------------------------------------------

    def sample_step(
        self,
        n: int,
        phi: float,
        flags: tuple[int, int, int],
        count: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Draw ``count`` outcomes; rows of -1 mark post-selection discards."""
        out = np.full((count, n), -1, dtype=np.int8)
        if count == 0:
            return out
        keys = self.sample_class_keys(n, count, rng)
        draws = rng.random(count)
        for key in np.unique(keys):
            sel = keys == key
            dist = self.distribution(n, phi, flags, int(key))
            if dist.outcomes.shape[0] == 0:
                continue
            idx = np.searchsorted(dist.cum_probs, draws[sel], side="right")
            hit = idx < dist.outcomes.shape[0]
            rows = np.where(sel)[0][hit]
            out[rows] = dist.outcomes[idx[hit]]
        return out


# ---------------------------------------------------------------------------
# Feed-forward acquisition
# ---------------------------------------------------------------------------


@dataclass
class QuantumDataset:
    n_phases: int
    phases: np.ndarray
    phase_index: np.ndarray  # [n_records]
    shot_index: np.ndarray  # attempt index; gaps are discarded repetitions
    m: np.ndarray  # [n_records, 7] bits m6..m0
    stats: dict = field(default_factory=dict)

    @property
    def b(self) -> np.ndarray:
        """(b1, b2, b3) columns derived from the frozen m positions."""
        return self.m[:, _B_POSITIONS]


@dataclass
class ClassicalDataset:
    n_phases: int
    phases: np.ndarray
    phase_index: np.ndarray
    shot_index: np.ndarray
    c: np.ndarray  # [n_records, 7] bits c6..c0
    stats: dict = field(default_factory=dict)


def _quantum_chunk(
    sim: StepSimulator, phi: float, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, dict]:
    """Simulate ``count`` feed-forward attempts; invalid rows are all -1."""
    m = np.full((count, 7), -1, dtype=np.int8)
    stats = {"discard_4": 0, "discard_2": 0, "discard_1": 0}
    bits4 = sim.sample_step(4, phi, (0, 0, 0), count, rng)
    ok4 = bits4[:, 0] >= 0
    stats["discard_4"] = int(count - ok4.sum())
    b3 = np.zeros(count, dtype=np.int8)
    b3[ok4] = bits4[ok4].sum(axis=1) % 2  # parity correction folds sigma_z

    bits2 = np.full((count, 2), -1, dtype=np.int8)
    for v in (0, 1):
        sel = ok4 & (b3 == v)
        if sel.any():
            bits2[sel] = sim.sample_step(2, phi, (0, v, 0), int(sel.sum()), rng)
    ok2 = ok4 & (bits2[:, 0] >= 0)
    stats["discard_2"] = int(ok4.sum() - ok2.sum())
    b2 = np.zeros(count, dtype=np.int8)
    b2[ok2] = bits2[ok2, 0] ^ bits2[ok2, 1]  # sigma_z as a flip by the control bit

    bits1 = np.full((count, 1), -1, dtype=np.int8)
    for r2v in (0, 1):
        for r3v in (0, 1):
            sel = ok2 & (b2 == r2v) & (b3 == r3v)
            if sel.any():
                bits1[sel] = sim.sample_step(1, phi, (0, r2v, r3v), int(sel.sum()), rng)
    ok1 = ok2 & (bits1[:, 0] >= 0)
    stats["discard_1"] = int(ok2.sum() - ok1.sum())

    m[ok1, 0:3] = bits4[ok1, 0:3]
    m[ok1, 3] = b3[ok1]
    m[ok1, 4] = bits2[ok1, 0]
    m[ok1, 5] = b2[ok1]
    m[ok1, 6] = bits1[ok1, 0]
    return m, stats


def _assemble(
    cls, config: ProtocolConfig, counts, shots, rows, stats, label: str, shortfall: str
):
    """Build a dataset from per-phase row counts and shot-index/bit-row chunks.

    Phases left with fewer than n_shots rows go to ``stats["short_phases"]``
    with a warning; a dataset without any row raises PostSelectionEmpty.  Both
    messages start with ``label``, the strategy that produced the rows.
    """
    if not sum(counts):
        raise PostSelectionEmpty(
            f"{label}: no valid repetitions at any of the {config.n_phases} phases"
        )
    short_phases = [p for p, have in enumerate(counts) if have < config.n_shots]
    if short_phases:
        warnings.warn(f"{label}: {shortfall} at {len(short_phases)} phases")
        stats["short_phases"] = short_phases
    return cls(
        config.n_phases,
        config.phases(),
        np.repeat(np.arange(config.n_phases, dtype=np.int64), counts),
        np.concatenate(shots).astype(np.int64, copy=False),
        np.concatenate(rows),
        stats,
    )


def _acquire(cls, config: ProtocolConfig, stream: int, chunk, label: str):
    """Per-phase acquisition loop shared by the quantum and classical strategies.

    Each phase draws from its own ``derive_rng(seed, stream, phase)`` stream
    and calls ``chunk(sim, phi, count, rng) -> (rows, stats)`` on at most 4096
    attempts at a time (rows of -1 are discards), keeping valid rows until
    n_shots or the cap of ``max_attempt_factor * n_shots`` attempts.
    """
    sim = StepSimulator(config.noise, config.seed)
    cap = config.n_shots * config.max_attempt_factor
    stats = {"attempts": 0, "valid": 0}
    counts, shots, rows = [], [], []
    for p_idx, phi in enumerate(config.phases()):
        rng = derive_rng(config.seed, stream, p_idx)
        have = attempts = 0
        while have < config.n_shots and attempts < cap:
            count = min(4096, cap - attempts)
            bits, chunk_stats = chunk(sim, float(phi), count, rng)
            keep = np.flatnonzero(bits[:, 0] >= 0)[: config.n_shots - have]
            shots.append(attempts + keep)
            rows.append(bits[keep])
            have += len(keep)
            attempts += count
            for key, value in chunk_stats.items():
                stats[key] = stats.get(key, 0) + value
        stats["attempts"] += attempts
        stats["valid"] += have
        counts.append(have)
    return _assemble(
        cls, config, counts, shots, rows, stats, label, "attempt cap reached before n_shots"
    )


def simulate_quantum_dataset(config: ProtocolConfig) -> QuantumDataset:
    """Run the feed-forward protocol until n_shots valid repetitions per phase."""
    return _acquire(QuantumDataset, config, _STREAM_QUANTUM, _quantum_chunk, "quantum")


def run_quantum_shot(
    phi: float, config: ProtocolConfig, rng: np.random.Generator
) -> ShotRecord | None:
    """One feed-forward repetition; None reports a discarded shot."""
    sim = _shot_simulator(config.noise, config.seed)
    m, _ = _quantum_chunk(sim, float(phi), 1, rng)
    if m[0, 0] < 0:
        return None
    return ShotRecord.from_m(tuple(int(x) for x in m[0]))


@functools.lru_cache(maxsize=32)
def _shot_simulator(noise: NoiseConfig, seed: int) -> StepSimulator:
    # Single-shot helpers share one simulator per (noise, seed) so repeated
    # calls reuse cached distributions; the cache is pure.
    return StepSimulator(noise, seed)


# ---------------------------------------------------------------------------
# Configuration sweep and post-processing
# ---------------------------------------------------------------------------


def run_configuration_sweep(
    phi: float, config: ProtocolConfig, rng: np.random.Generator
) -> list[StepOutcome]:
    """One repetition of every control configuration, no feed-forward."""
    sim = _shot_simulator(config.noise, config.seed)
    outcomes = []
    for n in PROBE_SIZES:
        for flags in SWEEP_FLAGS[n]:
            bits = sim.sample_step(n, float(phi), flags, 1, rng)[0]
            if bits[0] >= 0:
                outcomes.append(StepOutcome(n, flags, tuple(int(x) for x in bits)))
    return outcomes


def _match_arrays(
    four_bits: np.ndarray,
    four_flags: np.ndarray,
    two_bits: np.ndarray,
    two_flags: np.ndarray,
    one_bits: np.ndarray,
    one_flags: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Array core of the matching pipeline; returns the valid m rows."""
    # Step 1: drop outcomes whose dialed correction contradicts the parity of
    # the measured control bits.
    if len(four_bits):
        keep4 = four_flags[:, 0] == (four_bits[:, 0:3].sum(axis=1) % 2)
        four_bits, four_flags = four_bits[keep4], four_flags[keep4]
    if len(two_bits):
        keep2 = two_flags[:, 0] == two_bits[:, 0]
        two_bits, two_flags = two_bits[keep2], two_flags[keep2]
    # Step 2: pool survivors per experiment in randomized order, keeping flags.
    perm4 = rng.permutation(len(four_bits))
    perm2 = rng.permutation(len(two_bits))
    perm1 = rng.permutation(len(one_bits))
    four_bits, four_flags = four_bits[perm4], four_flags[perm4]
    two_bits, two_flags = two_bits[perm2], two_flags[perm2]
    one_bits, one_flags = one_bits[perm1], one_flags[perm1]
    # Step 3: zip homologous entries; keep triples whose dialed rotations agree
    # with the informative bits produced by the other experiments.
    n = min(len(four_bits), len(two_bits), len(one_bits))
    if n == 0:
        return np.zeros((0, 7), dtype=np.int8)
    four_bits, two_bits, one_bits = four_bits[:n], two_bits[:n], one_bits[:n]
    two_flags, one_flags = two_flags[:n], one_flags[:n]
    b3 = four_bits[:, 3]
    b2 = two_bits[:, 1]
    agree = (
        (two_flags[:, 1] == b3) & (one_flags[:, 1] == b2) & (one_flags[:, 2] == b3)
    )
    m = np.concatenate(
        [four_bits[agree], two_bits[agree], one_bits[agree]], axis=1
    ).astype(np.int8)
    return m


def match_configurations(
    outcomes: list[StepOutcome], rng: np.random.Generator
) -> list[ShotRecord]:
    """Assemble valid 7-bit strings from configuration-sweep outcomes.

    Implements the three-step pipeline: parity filtering per dialed
    configuration, randomized pooling per experiment and agreement-checked
    zipping of homologous entries.  Empty pools simply yield no records.
    """
    groups: dict[int, tuple[list, list]] = {n: ([], []) for n in PROBE_SIZES}
    for o in outcomes:
        groups[o.experiment][0].append(o.bits)
        groups[o.experiment][1].append(o.flags)

    def arrays(n):
        bits, flags = groups[n]
        if not bits:
            return (np.zeros((0, n), dtype=np.int8), np.zeros((0, 3), dtype=np.int8))
        return (np.asarray(bits, dtype=np.int8), np.asarray(flags, dtype=np.int8))

    m = _match_arrays(*arrays(4), *arrays(2), *arrays(1), rng=rng)
    return [ShotRecord.from_m(tuple(int(x) for x in row)) for row in m]


def simulate_sweep_dataset(config: ProtocolConfig) -> QuantumDataset:
    """Dataset via the configuration sweep plus matching post-processing."""
    sim = StepSimulator(config.noise, config.seed)
    stats = {"repetitions": 0, "matched": 0}
    reps = config.n_shots * config.sweep_rep_factor
    counts, shots, rows = [], [], []
    for p_idx, phi in enumerate(config.phases()):
        rng = derive_rng(config.seed, _STREAM_SWEEP, p_idx)
        pools = {}
        for n in PROBE_SIZES:
            bit_list, flag_list = [], []
            for flags in SWEEP_FLAGS[n]:
                bits = sim.sample_step(n, float(phi), flags, reps, rng)
                ok = bits[:, 0] >= 0
                bit_list.append(bits[ok])
                flag_list.append(np.tile(np.asarray(flags, dtype=np.int8), (int(ok.sum()), 1)))
            pools[n] = (
                np.concatenate(bit_list, axis=0),
                np.concatenate(flag_list, axis=0),
            )
        match_rng = derive_rng(config.seed, _STREAM_MATCH, p_idx)
        m = _match_arrays(
            *pools[4], *pools[2], *pools[1], rng=match_rng
        )[: config.n_shots]
        counts.append(len(m))
        shots.append(np.arange(len(m)))
        rows.append(m)
        stats["repetitions"] += reps
        stats["matched"] += len(m)
    return _assemble(
        QuantumDataset,
        config,
        counts,
        shots,
        rows,
        stats,
        "sweep",
        "fewer than n_shots matched records",
    )


# ---------------------------------------------------------------------------
# Classical baseline
# ---------------------------------------------------------------------------


def _classical_chunk(
    sim: StepSimulator, phi: float, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, dict]:
    bits = sim.sample_step(1, phi, (0, 0, 0), count * CLASSICAL_QUBITS, rng)
    bits = bits.reshape(count, CLASSICAL_QUBITS)
    bad = (bits < 0).any(axis=1)
    bits[bad] = -1  # a lost photon discards the whole 7-bit repetition
    return bits, {}


def run_classical_shot(
    phi: float, config: ProtocolConfig, rng: np.random.Generator
) -> tuple[int, ...] | None:
    """One classical repetition: 7 independent single-photon passes."""
    sim = _shot_simulator(config.noise, config.seed)
    bits, _ = _classical_chunk(sim, float(phi), 1, rng)
    bits = bits[0]
    if bits[0] < 0:
        return None
    return tuple(int(x) for x in bits)


def simulate_classical_dataset(config: ProtocolConfig) -> ClassicalDataset:
    """Run the classical baseline until n_shots valid repetitions per phase."""
    return _acquire(
        ClassicalDataset, config, _STREAM_CLASSICAL, _classical_chunk, "classical"
    )


# ---------------------------------------------------------------------------
# Dataset files
# ---------------------------------------------------------------------------


def format_float(x: float) -> str:
    """Text form of every float written to an output file."""
    return f"{float(x):.12g}"


class DatasetError(ValueError):
    """A dataset file that cannot be read: bad header, row, bit value or layout."""


def _write_dataset(path, header: str, ds, bits: np.ndarray, columns) -> None:
    """Write ``header`` and one CSV row per record of ``ds``, with ``bits[:, columns]``.

    Each run of rows with equal ``phase_index`` is formatted as one block: the
    ``phase_index,phase_rad,`` prefix once, the shot indices as fixed-width
    byte strings and the 0/1 columns as a uint8 block of ``,b,b,...\n``.
    Blocks are built one at a time, so no whole-file copy is held.
    """
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ValueError("bit columns must be 0/1")
    width = 2 * len(columns) + 1
    index = ds.phase_index
    bounds = [0, *(np.flatnonzero(index[1:] != index[:-1]) + 1), len(bits)]
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start, stop in zip(bounds[:-1], bounds[1:]):
            if start == stop:
                continue
            p = int(index[start])
            prefix = f"{p},{format_float(ds.phases[p])},".encode()
            tail = np.empty((stop - start, width), dtype=np.uint8)
            tail[:, 0:-1:2] = ord(",")
            tail[:, 1::2] = bits[start:stop, columns] + ord("0")
            tail[:, -1] = ord("\n")
            rows = np.char.add(
                ds.shot_index[start:stop].astype("S20"), tail.view(f"S{width}")[:, 0]
            )
            # prefix.join puts the prefix before every row but the first.
            fh.write(prefix + prefix.join(rows.tolist()))


def write_quantum_csv(ds: QuantumDataset, path) -> None:
    _write_dataset(path, QUANTUM_CSV_HEADER, ds, ds.m, [*range(7), *_B_POSITIONS])


def write_classical_csv(ds: ClassicalDataset, path) -> None:
    _write_dataset(path, CLASSICAL_CSV_HEADER, ds, ds.c, list(range(CLASSICAL_QUBITS)))


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


def _parse_dataset(path, header, bit_cols):
    try:
        columns = _load_columns(path, header, 3 + bit_cols)
        if columns is None:
            columns = _parse_rows(path, header, 3 + bit_cols)
    except OSError as exc:
        raise DatasetError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{path}: not a text file: {exc}") from None
    phase_index, phase_rad, shot_index, bits = columns
    if not len(phase_index):
        raise DatasetError(f"{path}: no data rows")
    if np.any((bits != 0) & (bits != 1)):
        raise DatasetError(f"{path}: bit columns must be 0/1")
    if phase_index.min() < 0:
        raise DatasetError(f"{path}: phase_index must be non-negative")
    n_phases = int(phase_index.max()) + 1
    phases = 2.0 * math.pi * np.arange(n_phases) / n_phases
    # The last row of each phase index sets its phase value.
    seen, last = np.unique(phase_index[::-1], return_index=True)
    phases[seen] = phase_rad[::-1][last]
    return (
        n_phases,
        phases,
        np.ascontiguousarray(phase_index),
        np.ascontiguousarray(shot_index),
        bits.astype(np.int8),
    )


def read_quantum_csv(path) -> QuantumDataset:
    n_phases, phases, phase_index, shot_index, bits = _parse_dataset(
        path, QUANTUM_CSV_HEADER, 10
    )
    m = bits[:, :7]
    b = bits[:, 7:]
    if np.any(b != m[:, _B_POSITIONS]):
        raise DatasetError(f"{path}: b columns disagree with the frozen m positions")
    return QuantumDataset(n_phases, phases, phase_index, shot_index, m)


def read_classical_csv(path) -> ClassicalDataset:
    n_phases, phases, phase_index, shot_index, bits = _parse_dataset(
        path, CLASSICAL_CSV_HEADER, 7
    )
    return ClassicalDataset(n_phases, phases, phase_index, shot_index, bits)
