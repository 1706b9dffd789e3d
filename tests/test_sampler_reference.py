"""The shipped samplers against full-mask samplers of the same laws.

`reference_sample_step` draws one step from its class-mixture distribution
(`StepSimulator.distribution`) with one uniform per attempt, holds a -1 row
for every discarded attempt, picks each outcome code by counting the
cumulative steps at or below its uniform and spells the code out bit by bit;
`sample_step` (the sweep's sampler) must keep the same attempts with the codes
of the same bits and leave the generator in the same state.

`reference_chunk` does the same for a whole feed-forward or classical
repetition, from a record law that the loops of `reference_record_law`
compose from the step distributions, never from `StepSimulator.record_law`;
`_quantum_chunk` and `_classical_chunk` must keep the same repetitions with
the same rows, stop at the same repetition once enough are kept, give the
same attempt and discard counts and leave the generator in the same state.  The staged samplers of before, one `reference_sample_step` per
feed-forward stage on the survivors of the stage before, stay as a
statistical comparator: a two-sample 3-sigma chi-square against the chunks.
"""

import math

import numpy as np
import pytest
from scipy.stats import chi2

from conftest import record_bits, record_codes
from qadc.protocol import (
    DEVICE_NOISE,
    CLASSICAL_QUBITS,
    NOISELESS,
    PROBE_SIZES,
    SWEEP_FLAGS,
    NoiseConfig,
    StepSimulator,
    _classical_chunk,
    _quantum_chunk,
    derive_rng,
)

THREE_SIGMA_ALPHA = 0.0026998  # two-sided 3-sigma tail probability, as criterion 4
#: Discard bins of the quantum reference law, after the 128 records.
LOSSES = ("discard_1", "discard_2", "discard_4")


def reference_sample_step(sim, n, phi, flags, count, rng):
    """``count`` outcomes; rows of -1 mark post-selection discards."""
    out = np.full((count, n), -1, dtype=np.int8)
    cum_probs = sim.distribution(n, phi, flags)
    draws = rng.random(count)
    codes = (cum_probs[None, :] <= draws[:, None]).sum(axis=1)
    for i in range(count):
        code = int(codes[i])
        if code < len(cum_probs):
            out[i] = [(code >> (n - 1 - q)) & 1 for q in range(n)]
    return out


def reference_record_law(sim, strategy, phi):
    """Probabilities of the 128 records (first bit high), then of each discard bin.

    Quantum: a record m6..m0 runs the 4-photon step with code (m6, m5, m4, x)
    of parity b3 = m3, the 2-photon step with flags (0, b3, 0) and code
    (x0, x1), x0 = m2 and b2 = m1 = x0 ^ x1, and the 1-photon step with flags
    (0, b2, b3) and outcome b1 = m0; the bins after the records hold the
    repetitions lost at the 1-, the 2- and the 4-photon step.  Classical:
    seven independent 1-photon steps with flags (0, 0, 0), then one bin.
    """

    def step(n, flags):
        cum = sim.distribution(n, phi, flags)
        return [cum[0], *(cum[k] - cum[k - 1] for k in range(1, len(cum)))]

    law = [0.0] * 128
    if strategy == "classical":
        p1 = step(1, (0, 0, 0))
        for c in range(128):
            p = 1.0
            for q in range(CLASSICAL_QUBITS):
                p *= p1[(c >> (CLASSICAL_QUBITS - 1 - q)) & 1]
            law[c] = p
        return law + [1.0 - sum(law)]
    losses = [0.0, 0.0, 0.0]
    p4 = step(4, (0, 0, 0))
    losses[2] = 1.0 - sum(p4)
    for c4 in range(16):
        b3 = bin(c4).count("1") % 2
        p2 = step(2, (0, b3, 0))
        losses[1] += p4[c4] * (1.0 - sum(p2))
        for c2 in range(4):
            x0, b2 = c2 >> 1, (c2 >> 1) ^ (c2 & 1)
            p1 = step(1, (0, b2, b3))
            losses[0] += p4[c4] * p2[c2] * (1.0 - sum(p1))
            for b1 in (0, 1):
                m = (c4 >> 1) << 4 | b3 << 3 | x0 << 2 | b2 << 1 | b1
                law[m] = p4[c4] * p2[c2] * p1[b1]
    return law + losses


def reference_chunk(sim, strategy, phi, count, need, rng):
    """``count`` repetitions of a full-mask record-law sampler: (rows, stats).

    Rows of -1 mark discards; a uniform at or past the last cumulative step
    counts as a loss of the last bin.  Once ``need`` repetitions are valid,
    the ones after the last of them are dropped before counting.
    """
    cum, total = [], 0.0
    for p in reference_record_law(sim, strategy, phi):
        total += p
        cum.append(total)
    draws = rng.random(count)
    codes = (np.array(cum)[None, :] <= draws[:, None]).sum(axis=1)
    valid = np.flatnonzero(codes < 128)
    if need <= len(valid):
        count = int(valid[need - 1]) + 1
        codes = codes[:count]
    out = np.full((count, 7), -1, dtype=np.int8)
    for i in range(count):
        code = int(codes[i])
        if code < 128:
            out[i] = [(code >> (6 - q)) & 1 for q in range(7)]
    if strategy == "classical":
        return out, {"attempts": count}
    lost = np.minimum(codes[codes >= 128] - 128, 2)
    losses = {key: int(np.count_nonzero(lost == k)) for k, key in enumerate(LOSSES)}
    return out, {"attempts": count, **losses}


def staged_quantum_chunk(sim, phi, count, rng):
    """The feed-forward stages drawn one by one: (rows, stats), -1 rows for discards."""
    m = np.full((count, 7), -1, dtype=np.int8)
    stats = {"discard_4": 0, "discard_2": 0, "discard_1": 0}
    bits4 = reference_sample_step(sim, 4, phi, (0, 0, 0), count, rng)
    ok4 = bits4[:, 0] >= 0
    stats["discard_4"] = int(count - ok4.sum())
    b3 = np.zeros(count, dtype=np.int8)
    b3[ok4] = bits4[ok4].sum(axis=1) % 2

    bits2 = np.full((count, 2), -1, dtype=np.int8)
    for v in (0, 1):
        sel = ok4 & (b3 == v)
        if sel.any():
            bits2[sel] = reference_sample_step(sim, 2, phi, (0, v, 0), int(sel.sum()), rng)
    ok2 = ok4 & (bits2[:, 0] >= 0)
    stats["discard_2"] = int(ok4.sum() - ok2.sum())
    b2 = np.zeros(count, dtype=np.int8)
    b2[ok2] = bits2[ok2, 0] ^ bits2[ok2, 1]

    bits1 = np.full((count, 1), -1, dtype=np.int8)
    for r2v in (0, 1):
        for r3v in (0, 1):
            sel = ok2 & (b2 == r2v) & (b3 == r3v)
            if sel.any():
                bits1[sel] = reference_sample_step(
                    sim, 1, phi, (0, r2v, r3v), int(sel.sum()), rng
                )
    ok1 = ok2 & (bits1[:, 0] >= 0)
    stats["discard_1"] = int(ok2.sum() - ok1.sum())

    m[ok1, 0:3] = bits4[ok1, 0:3]
    m[ok1, 3] = b3[ok1]
    m[ok1, 4] = bits2[ok1, 0]
    m[ok1, 5] = b2[ok1]
    m[ok1, 6] = bits1[ok1, 0]
    return m, stats


def staged_classical_chunk(sim, phi, count, rng):
    bits = reference_sample_step(sim, 1, phi, (0, 0, 0), count * CLASSICAL_QUBITS, rng)
    bits = bits.reshape(count, CLASSICAL_QUBITS)
    bits[(bits < 0).any(axis=1)] = -1
    return bits, {}


NOISE = {
    "noiseless": NOISELESS,
    "device": DEVICE_NOISE,
    # Lossy unconditioned bins with multiphoton emission: many classes in
    # each mixture, next to classes with too few photons to ever be accepted.
    "unconditioned": NoiseConfig(
        delta=0.926,
        g2_two_photon=0.05,
        g2_four_photon=0.05,
        brightness=0.5,
        eta=0.6,
        condition_on_emission=False,
    ),
    "conditioned_loss": NoiseConfig(eta=0.7),
    "programming": NoiseConfig(sigma_theta=0.05, sigma_phi=0.05),
}
COUNTS = (0, 1, 7, 4096)
PHASES = (0.0, 2 * math.pi * 37 / 99, 4.9)
CHUNKS = {"quantum": _quantum_chunk, "classical": _classical_chunk}
STAGED = {"quantum": staged_quantum_chunk, "classical": staged_classical_chunk}


def same_state(rng, ref_rng):
    return rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("name", NOISE)
def test_sample_step_equals_reference(name):
    sim = StepSimulator(NOISE[name], seed=9)
    for p, phi in enumerate(PHASES):
        for n in PROBE_SIZES:
            for f, flags in enumerate(SWEEP_FLAGS[n]):
                for count in COUNTS:
                    rng, ref_rng = derive_rng(9, p, n, f, count), derive_rng(9, p, n, f, count)
                    rows, codes = sim.sample_step(n, phi, flags, count, rng)
                    expected = reference_sample_step(sim, n, phi, flags, count, ref_rng)
                    assert same_state(rng, ref_rng)
                    ok = np.flatnonzero(expected[:, 0] >= 0)
                    assert np.array_equal(rows, ok)
                    assert codes.dtype == np.uint8 and codes.shape == (len(ok),)
                    assert np.array_equal(codes, record_codes(expected[ok]))
    if name == "unconditioned":
        assert sum(len(sim._classes[n]) for n in PROBE_SIZES) > 50


@pytest.mark.parametrize("name", NOISE)
def test_chunks_equal_reference(name):
    sim = StepSimulator(NOISE[name], seed=9)
    for p, phi in enumerate(PHASES):
        for count in COUNTS:
            rng, ref_rng = derive_rng(9, 100 + p, count), derive_rng(9, 100 + p, count)
            need = max(count, 1)  # `_acquire` asks every chunk for n_shots >= 1 records
            for strategy, chunk in CHUNKS.items():
                kept, rows, stats = chunk(sim, phi, count, need, rng)
                expected, stats_ref = reference_chunk(sim, strategy, phi, count, need, ref_rng)
                assert same_state(rng, ref_rng)
                ok = np.flatnonzero(expected[:, 0] >= 0)
                assert np.array_equal(kept, ok)
                assert rows.dtype == np.uint8 and np.array_equal(record_bits(rows), expected[ok])
                assert stats == stats_ref


@pytest.mark.parametrize("name", NOISE)
def test_chunks_stop_at_the_last_needed_repetition(name):
    # A chunk that reaches its needed count counts attempts and discards only
    # up to the last repetition it keeps, but draws all its uniforms.
    sim = StepSimulator(NOISE[name], seed=9)
    count = 4096
    for p, phi in enumerate(PHASES):
        for need in (1, 3, 40):
            rng, ref_rng = derive_rng(9, 400 + p, need), derive_rng(9, 400 + p, need)
            for strategy, chunk in CHUNKS.items():
                kept, rows, stats = chunk(sim, phi, count, need, rng)
                expected, stats_ref = reference_chunk(sim, strategy, phi, count, need, ref_rng)
                assert same_state(rng, ref_rng)
                ok = np.flatnonzero(expected[:, 0] >= 0)
                assert len(ok) <= need and np.array_equal(kept, ok)
                assert np.array_equal(record_bits(rows), expected[ok])
                assert stats == stats_ref


def outcome_counts(rows, stats):
    """Counts of the 128 records, then of each discard bin in ``stats``."""
    valid = rows[rows[:, 0] >= 0]
    counts = np.bincount(record_codes(valid), minlength=128)
    discards = [stats[key] for key in LOSSES] if LOSSES[0] in stats else [len(rows) - len(valid)]
    return np.append(counts, discards)


@pytest.mark.parametrize("name", NOISE)
def test_chunks_follow_the_staged_sampler(name):
    # Two multinomial samples of one law: the chi-square of their difference
    # over the cells seen at least 10 times, the rarer cells pooled into one.
    sim = StepSimulator(NOISE[name], seed=9)
    count = 100_000
    for p, phi in enumerate(PHASES):
        for s, (strategy, chunk) in enumerate(CHUNKS.items()):
            kept, rows, stats = chunk(sim, phi, count, count, derive_rng(9, 200 + p, s))
            full = np.full((count, 7), -1, dtype=np.int8)
            full[kept] = record_bits(rows)
            a = outcome_counts(full, stats)
            b = outcome_counts(*STAGED[strategy](sim, phi, count, derive_rng(9, 300 + p, s)))
            assert a.sum() == b.sum() == count
            seen = a + b >= 10
            obs_a, obs_b = a[seen], b[seen]
            if (~seen & (a + b > 0)).any():
                obs_a = np.append(obs_a, a[~seen].sum())
                obs_b = np.append(obs_b, b[~seen].sum())
            stat = float(((obs_a - obs_b) ** 2 / (obs_a + obs_b)).sum())
            # One live cell (a deterministic record) gives stat 0 at any df.
            threshold = chi2.ppf(1 - THREE_SIGMA_ALPHA, df=max(len(obs_a) - 1, 1))
            assert stat < threshold, (
                f"{strategy} at phase {p}: chi2 {stat:.1f} > {threshold:.1f}"
            )
