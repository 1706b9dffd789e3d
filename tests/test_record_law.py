"""The exact feed-forward record law, used as the judge of the sampler.

P(m, accepted | phi) over the 128 values of m6..m0 is composed from the
exact step distributions along the feed-forward tree:

* the 4-photon step gives (m6, m5, m4) and b3 = m3 by parity;
* the 2-photon step runs with flags (0, b3, 0): m2 = x0 and b2 = m1 = x0 ^ x1;
* the 1-photon step runs with flags (0, b2, b3) and gives b1 = m0.

A classical repetition is seven independent 1-photon steps with flags
(0, 0, 0).  The laws here read only `StepSimulator.distribution`, never
`sample_step` or `record_law`, so they check the samplers against something
other than themselves.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

from conftest import dense_probabilities
from qadc.analysis import (
    CondProbTable,
    bit_chain_probabilities,
    marginalize_to_bits,
    mutual_information,
    quadrature_mi_classical,
    quadrature_mi_quantum,
    table_from_classical,
    table_from_quantum,
)
from qadc.protocol import (
    DEVICE_NOISE,
    NoiseConfig,
    ProtocolConfig,
    StepSimulator,
    _quantum_chunk,
    derive_rng,
    simulate_classical_dataset,
    simulate_quantum_dataset,
    simulate_sweep_dataset,
)

THREE_SIGMA_ALPHA = 0.0026998  # two-sided 3-sigma tail probability, as criterion 4
LAW_SEED = 8128
#: Device noise with every photon surviving with probability 0.7, so that
#: repetitions are lost at every step.
LOSSY_DEVICE_NOISE = replace(DEVICE_NOISE, eta=0.7)
ATTEMPTS_SEED = 1601


def step_law(sim, n, phi, flags):
    """Accepted probability of each outcome code of one step, mixed over source classes."""
    return dense_probabilities(sim.distribution(n, phi, flags))


def record_law(sim, phi):
    """P(m, accepted | phi) over the 128 codes of m (m6 the high bit)."""
    p4 = step_law(sim, 4, phi, (0, 0, 0))
    p2 = {b3: step_law(sim, 2, phi, (0, b3, 0)) for b3 in (0, 1)}
    p1 = {
        (b2, b3): step_law(sim, 1, phi, (0, b2, b3)) for b2 in (0, 1) for b3 in (0, 1)
    }
    law = np.zeros(128)
    for c4 in range(16):
        b3 = bin(c4).count("1") % 2
        for c2 in range(4):
            x0, b2 = c2 >> 1, (c2 >> 1) ^ (c2 & 1)
            for b1 in (0, 1):
                m = (c4 >> 1) << 4 | b3 << 3 | x0 << 2 | b2 << 1 | b1
                law[m] = p4[c4] * p2[b3][c2] * p1[(b2, b3)][b1]
    return law


def stage_losses(sim, phi):
    """Probability that a feed-forward repetition is lost at each step, by discard key."""
    p4 = step_law(sim, 4, phi, (0, 0, 0))
    lost = {"discard_4": 1.0 - p4.sum(), "discard_2": 0.0, "discard_1": 0.0}
    for c4 in range(16):
        b3 = bin(c4).count("1") % 2
        p2 = step_law(sim, 2, phi, (0, b3, 0))
        lost["discard_2"] += p4[c4] * (1.0 - p2.sum())
        for c2 in range(4):
            b2 = (c2 >> 1) ^ (c2 & 1)
            p1 = step_law(sim, 1, phi, (0, b2, b3))
            lost["discard_1"] += p4[c4] * p2[c2] * (1.0 - p1.sum())
    return lost


def classical_law(sim, phi):
    """P(c, accepted | phi) over the 128 codes of c (c6 the high bit)."""
    p1 = step_law(sim, 1, phi, (0, 0, 0))
    law = np.ones(128)
    for c in range(128):
        for q in range(7):
            law[c] *= p1[(c >> (6 - q)) & 1]
    return law


def law_table(noise, phases):
    sim = StepSimulator(noise, seed=LAW_SEED)
    return np.stack([record_law(sim, float(phi)) for phi in phases])


def test_noiseless_law_is_the_bit_chain():
    phases = [*(2 * math.pi * np.arange(99) / 99), 0.1234, 2.5, 5.9]
    laws = law_table(NoiseConfig(), phases)
    assert np.abs(laws.sum(axis=1) - 1.0 / 16.0).max() <= 1e-12
    marginal = marginalize_to_bits(CondProbTable(phases, laws)).probabilities()
    assert np.abs(marginal - bit_chain_probabilities(phases)).max() <= 1e-12


def test_distinguishability_law_mi_matches_quadrature():
    delta = 0.926
    phases = 2 * math.pi * np.arange(2000) / 2000
    laws = law_table(NoiseConfig(delta=delta), phases)
    marginal = marginalize_to_bits(CondProbTable(phases, laws))
    chain = bit_chain_probabilities(phases, delta)
    assert np.abs(marginal.probabilities() - chain).max() <= 1e-12
    mi = mutual_information(marginal).value
    assert abs(mi - quadrature_mi_quantum(delta)) <= 1e-6


def exact_mi(noise):
    """Exact MI of the b1 b2 b3 marginal of the record law on the 99-phase grid."""
    phases = 2 * math.pi * np.arange(99) / 99
    table = CondProbTable(phases, law_table(noise, phases))
    return mutual_information(marginalize_to_bits(table)).value


def assert_strictly_falling(noises):
    mis = [exact_mi(noise) for noise in noises]
    assert all(b < a for a, b in zip(mis, mis[1:])), mis


class TestExactNoiseStatements:
    """Criterion 6's sampled noise statements, from the exact law (about 3 s, 2 cores).

    Criterion 6's delta and g2 settings, and an eta sweep at g2 0.02, with no
    sampling spread: each statement holds exactly or fails.
    """

    def test_mi_falls_with_distinguishability(self):
        assert_strictly_falling(
            [NoiseConfig(delta=d, brightness=1.0) for d in (1.0, 0.9, 0.8, 0.6)]
        )

    def test_small_delta_falls_below_the_classical_quadrature(self):
        assert exact_mi(NoiseConfig(delta=0.1, brightness=1.0)) < quadrature_mi_classical()

    def test_mi_falls_with_g2(self):
        assert_strictly_falling(
            [
                NoiseConfig(g2_two_photon=g2, g2_four_photon=g2, brightness=0.14, eta=0.85)
                for g2 in (0.0, 0.02, 0.06)
            ]
        )

    def test_mi_falls_with_loss(self):
        # Loss alone only thins the accepted repetitions; with a second
        # photon in some bins, a lost main photon can be replaced by an
        # extra one, whose share of the accepted repetitions grows with loss.
        assert_strictly_falling(
            [
                NoiseConfig(g2_two_photon=0.02, g2_four_photon=0.02, brightness=0.14, eta=eta)
                for eta in (1.0, 0.85, 0.7)
            ]
        )


def classical_mi(noise):
    """Exact MI of the classical record law on the 99-phase grid."""
    phases = 2 * math.pi * np.arange(99) / 99
    sim = StepSimulator(noise, seed=LAW_SEED)
    laws = np.stack([classical_law(sim, float(phi)) for phi in phases])
    return mutual_information(CondProbTable(phases, laws)).value


class TestExactClassicalMi:
    """The classical strategy's exact MI, pinned (99-phase grid, 7-bit records)."""

    NOISELESS_MI = 1.3154289611733951

    def test_noiseless_value(self):
        assert abs(classical_mi(NoiseConfig()) - self.NOISELESS_MI) <= 1e-12

    @pytest.mark.parametrize(
        "noise",
        [NoiseConfig(eta=0.7), NoiseConfig(eta=0.3), NoiseConfig(delta=0.5)],
        ids=["eta0.7", "eta0.3", "delta0.5"],
    )
    def test_loss_and_distinguishability_leave_it(self, noise):
        # Every qubit is one photon: loss only thins the accepted repetitions
        # and distinguishability has nothing to act on.
        assert abs(classical_mi(noise) - classical_mi(NoiseConfig())) <= 1e-15

    def test_two_photon_bins_raise_it(self):
        # Post-selection accepts a two-photon bin only when both photons
        # leave by the same rail, which sharpens the accepted law.
        noise = NoiseConfig(g2_two_photon=0.02, brightness=0.14)
        assert abs(classical_mi(noise) - 1.3156025645) <= 1e-10


MI_SEED = 2718


def test_device_noise_sampled_mi_matches_the_exact_law():
    # The 7-bit plug-in MI of a 99 x 5377 device-noise run, less Miller's
    # first-order bias (128 - 1) / (2 N ln 2) at N = 5377 shots per phase,
    # against the exact MI.  The bound is 4 standard deviations of the
    # plug-in MI to first order: each phase's row is multinomial with N
    # draws, so the variance is sum_phi Var_{m|phi}[log2 p(m|phi) / p(m)]
    # / (K^2 N) over the K phases, computed from the exact law.
    n_phases, n_shots = 99, 5377
    config = ProtocolConfig(n_phases=n_phases, n_shots=n_shots, noise=DEVICE_NOISE, seed=MI_SEED)
    ds = simulate_quantum_dataset(config)
    sampled = mutual_information(table_from_quantum(ds)).value
    laws = law_table(DEVICE_NOISE, ds.phases)
    exact = mutual_information(CondProbTable(ds.phases, laws)).value
    p = laws / laws.sum(axis=1, keepdims=True)
    live = p > 0
    info = np.log2(p, where=live, out=np.zeros_like(p)) - np.log2(p.mean(axis=0))
    spread = (p * info**2).sum(axis=1) - (p * info).sum(axis=1) ** 2
    sd = math.sqrt(spread.sum() / (n_phases**2 * n_shots))
    bias = (128 - 1) / (2 * n_shots * math.log(2))
    z = (sampled - bias - exact) / sd
    assert abs(z) < 4.0, f"sampled {sampled:.5f}, exact {exact:.5f}, sd {sd:.5f}: z {z:.2f}"


def assert_follows_law(counts, law, phase):
    """Per-phase 3-sigma chi-square of sampled record counts against the law.

    Cells of law < 1e-12 must be empty; cells expected below 5 are pooled
    into one.  A law with one live cell (the classical string at phase 0)
    leaves nothing more to test.
    """
    expected = counts.sum() * law / law.sum()
    dead = law < 1e-12
    assert counts[dead].sum() == 0
    keep = ~dead & (expected >= 5.0)
    pooled = ~dead & ~keep
    obs, exp = counts[keep], expected[keep]
    if pooled.any():
        obs = np.append(obs, counts[pooled].sum())
        exp = np.append(exp, expected[pooled].sum())
    if len(obs) == 1:
        return
    stat = float(((obs - exp) ** 2 / exp).sum())
    threshold = chi2.ppf(1 - THREE_SIGMA_ALPHA, df=len(obs) - 1)
    assert stat < threshold, f"phase {phase}: chi2 {stat:.1f} > {threshold:.1f}"


def test_device_noise_samples_follow_the_law():
    n_shots = 20000
    config = ProtocolConfig(n_phases=5, n_shots=n_shots, noise=DEVICE_NOISE, seed=LAW_SEED)
    ds = simulate_quantum_dataset(config)
    counts = table_from_quantum(ds).counts
    laws = law_table(DEVICE_NOISE, ds.phases)
    for i, law in enumerate(laws):
        assert counts[i].sum() == n_shots
        assert_follows_law(counts[i], law, i)
        # Acceptance: n_shots successes in the attempts up to the last kept one.
        accept = law.sum()
        attempts = int(ds.shot_index[ds.phase_index == i][-1]) + 1
        z = (n_shots - attempts * accept) / math.sqrt(attempts * accept * (1 - accept))
        assert abs(z) < 4.0, f"phase {i}: acceptance z {z:.2f}"


def test_device_noise_sweep_records_follow_the_law():
    # sigma_z sits just before the Hadamard layer, so a dialed sigma_z is an
    # exact outcome flip under any source noise and the parity-filtered,
    # matched sweep records follow the feed-forward law.  Attempts count
    # something else in the sweep, so acceptance is not checked.
    n_shots = 20000
    config = ProtocolConfig(n_phases=5, n_shots=n_shots, noise=DEVICE_NOISE, seed=LAW_SEED)
    ds = simulate_sweep_dataset(config)
    counts = table_from_quantum(ds).counts
    laws = law_table(DEVICE_NOISE, ds.phases)
    for i, law in enumerate(laws):
        assert counts[i].sum() == n_shots
        assert_follows_law(counts[i], law, i)


def test_lossy_classical_samples_follow_the_law():
    n_shots = 20000
    config = ProtocolConfig(
        n_phases=5, n_shots=n_shots, noise=LOSSY_DEVICE_NOISE, seed=LAW_SEED
    )
    ds = simulate_classical_dataset(config)
    counts = table_from_classical(ds).counts
    sim = StepSimulator(LOSSY_DEVICE_NOISE, seed=LAW_SEED)
    for i, phi in enumerate(ds.phases):
        law = classical_law(sim, float(phi))
        assert counts[i].sum() == n_shots
        assert_follows_law(counts[i], law, i)
        accept = law.sum()
        attempts = int(ds.shot_index[ds.phase_index == i][-1]) + 1
        z = (n_shots - attempts * accept) / math.sqrt(attempts * accept * (1 - accept))
        assert abs(z) < 4.0, f"phase {i}: acceptance z {z:.2f}"


@pytest.mark.parametrize(
    "simulate, noise, law",
    [
        pytest.param(simulate_quantum_dataset, DEVICE_NOISE, record_law, id="quantum"),
        pytest.param(simulate_classical_dataset, LOSSY_DEVICE_NOISE, classical_law,
                     id="classical"),
    ],
)
def test_recorded_attempts_follow_the_acceptance(simulate, noise, law):
    # A run counts the attempts of each phase up to its last kept repetition.
    # n valid repetitions at acceptance A take n plus a negative binomial
    # number of discards: mean n / A and variance n (1 - A) / A**2 attempts.
    n_shots, n_phases = 2000, 9
    config = ProtocolConfig(n_phases=n_phases, n_shots=n_shots, noise=noise, seed=ATTEMPTS_SEED)
    ds = simulate(config)
    sim = StepSimulator(noise, seed=ATTEMPTS_SEED)
    accept = np.array([law(sim, float(phi)).sum() for phi in ds.phases])
    mean = float((n_shots / accept).sum())
    sd = math.sqrt(float((n_shots * (1 - accept) / accept**2).sum()))
    z = (ds.stats["attempts"] - mean) / sd
    assert ds.stats["valid"] == n_phases * n_shots
    assert abs(z) < 4.0, f"attempts {ds.stats['attempts']}, expected {mean:.0f}: z {z:.2f}"
    if "discard_4" in ds.stats:
        lost = sum(ds.stats[key] for key in ("discard_4", "discard_2", "discard_1"))
        assert ds.stats["attempts"] == ds.stats["valid"] + lost


def test_lossy_discards_follow_the_stage_losses():
    # Fixed-size chunks, so each discard count is binomial in the attempts.
    count = 100_000
    sim = StepSimulator(LOSSY_DEVICE_NOISE, seed=LAW_SEED)
    for p, phi in enumerate(2 * math.pi * np.arange(5) / 5):
        _, _, stats = _quantum_chunk(sim, float(phi), count, count, derive_rng(LAW_SEED, 15, p))
        for key, prob in stage_losses(sim, float(phi)).items():
            z = (stats[key] - count * prob) / math.sqrt(count * prob * (1 - prob))
            assert abs(z) < 4.0, f"phase {p}: {key} z {z:.2f}"
