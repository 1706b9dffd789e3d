"""The feed-forward sampler against a full-mask sampler of the same law.

The reference functions below draw from the same class-mixture distributions
(`StepSimulator.distribution`) with one uniform per attempt, but hold an
array of -1 rows for every attempt, pick each outcome code by counting the
cumulative steps at or below its uniform, spell the code out bit by bit, and
select each feed-forward group by a mask of full length.  The shipped sampler
uses one `searchsorted`, the precomputed outcome rows and compacted survivor
arrays, and returns only the accepted attempts; with the same generator state
it must keep the same attempts with the same bits, give the same discard
counts and leave the generator in the same state.
"""

import math

import numpy as np
import pytest

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


def reference_quantum_chunk(sim, phi, count, rng):
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


def reference_classical_chunk(sim, phi, count, rng):
    bits = reference_sample_step(sim, 1, phi, (0, 0, 0), count * CLASSICAL_QUBITS, rng)
    bits = bits.reshape(count, CLASSICAL_QUBITS)
    bad = (bits < 0).any(axis=1)
    bits[bad] = -1
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
                    rows, bits = sim.sample_step(n, phi, flags, count, rng)
                    expected = reference_sample_step(sim, n, phi, flags, count, ref_rng)
                    assert same_state(rng, ref_rng)
                    ok = np.flatnonzero(expected[:, 0] >= 0)
                    assert np.array_equal(rows, ok)
                    assert bits.dtype == np.int8 and bits.shape == (len(ok), n)
                    assert np.array_equal(bits, expected[ok])
    if name == "unconditioned":
        assert sum(len(sim._classes[n]) for n in PROBE_SIZES) > 50


@pytest.mark.parametrize("name", NOISE)
def test_chunks_equal_reference(name):
    sim = StepSimulator(NOISE[name], seed=9)
    for p, phi in enumerate(PHASES):
        for count in COUNTS:
            rng, ref_rng = derive_rng(9, 100 + p, count), derive_rng(9, 100 + p, count)
            kept, m, stats = _quantum_chunk(sim, phi, count, rng)
            m_ref, stats_ref = reference_quantum_chunk(sim, phi, count, ref_rng)
            assert same_state(rng, ref_rng)
            ok = np.flatnonzero(m_ref[:, 0] >= 0)
            assert np.array_equal(kept, ok)
            assert m.dtype == np.int8 and np.array_equal(m, m_ref[ok])
            assert stats == stats_ref
            kept, c, _ = _classical_chunk(sim, phi, count, rng)
            c_ref, _ = reference_classical_chunk(sim, phi, count, ref_rng)
            assert same_state(rng, ref_rng)
            ok = np.flatnonzero(c_ref[:, 0] >= 0)
            assert np.array_equal(kept, ok)
            assert c.dtype == np.int8 and np.array_equal(c, c_ref[ok])
