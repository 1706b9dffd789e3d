import math
import warnings
from itertools import product

import numpy as np
import pytest

from conftest import b_code, dense_bootstrap_mi, record_bits, record_codes, wrap_difference
from qadc import analysis, cli
from qadc.analysis import (
    CondProbTable,
    HISTOGRAM_BIN_CENTERS,
    MIEstimate,
    bit_chain_probabilities,
    bootstrap_mi,
    circular_mean,
    classical_estimates,
    classical_phase_histograms,
    classical_string_probabilities,
    marginalize_to_bits,
    mean_classical_estimates,
    mean_quantum_estimates,
    mutual_information,
    quadrature_mi_classical,
    quadrature_mi_quantum,
    quantum_phase_histograms,
    reference_bounds,
    table_from_quantum,
)
from qadc.protocol import (
    Dataset,
    NoiseConfig,
    ProtocolConfig,
    simulate_classical_dataset,
    simulate_quantum_dataset,
)

TWO_PI = 2 * math.pi
NOISELESS = NoiseConfig(delta=1.0, brightness=1.0)


def grid(n):
    return TWO_PI * np.arange(n) / n


def quantum_estimate(b1, b2, b3):
    return HISTOGRAM_BIN_CENTERS[b_code(b1, b2, b3)]


def classical_estimate(bits):
    return classical_estimates(record_codes([bits]))[0]


class TestEstimators:
    def test_quantum_examples(self):
        assert quantum_estimate(0, 0, 0) == pytest.approx(0.0)
        assert quantum_estimate(1, 0, 1) == pytest.approx(5 * math.pi / 4)
        assert quantum_estimate(0, 0, 1) == pytest.approx(math.pi / 4)

    def test_quantum_exhaustive_image(self):
        values = {
            quantum_estimate(*b) for b in product((0, 1), repeat=3)
        }
        assert values == {TWO_PI * j / 8 for j in range(8)}

    def test_quantum_matches_closed_form_exhaustively(self):
        for b1, b2, b3 in product((0, 1), repeat=3):
            expected = TWO_PI * (b1 / 2 + b2 / 4 + b3 / 8)
            assert quantum_estimate(b1, b2, b3) == pytest.approx(expected)

    def test_classical_extremes(self):
        assert classical_estimate((0,) * 7) == pytest.approx(0.0)
        assert classical_estimate((1,) * 7) == pytest.approx(math.pi)

    def test_classical_example(self):
        val = classical_estimate((0, 0, 0, 0, 1, 1, 1))
        assert val == pytest.approx(2 * math.acos(math.sqrt(4 / 7)), abs=1e-12)
        assert val == pytest.approx(1.427, abs=2e-3)

    def test_classical_exhaustive_closed_form_and_range(self):
        codes = np.arange(128, dtype=np.uint8)
        for row, val in zip(record_bits(codes), classical_estimates(codes)):
            expected = 2 * math.acos(math.sqrt(list(row).count(0) / 7))
            assert val == pytest.approx(expected, abs=1e-12)
            assert 0.0 <= val <= math.pi


class TestTables:
    def test_table_from_quantum_counts(self):
        cfg = ProtocolConfig(n_phases=4, n_shots=50, noise=NOISELESS, seed=2)
        ds = simulate_quantum_dataset(cfg)
        table = table_from_quantum(ds)
        assert table.counts.shape == (4, 128)
        assert np.allclose(table.n_shots_effective, 50)

    def test_marginalization_preserves_counts(self):
        cfg = ProtocolConfig(n_phases=4, n_shots=80, noise=NOISELESS, seed=3)
        table = table_from_quantum(simulate_quantum_dataset(cfg))
        marg = marginalize_to_bits(table)
        assert marg.counts.shape == (4, 8)
        assert np.allclose(marg.n_shots_effective, table.n_shots_effective)

    def test_single_outcome_marginal_projection(self):
        counts = np.zeros((1, 128))
        m = (1, 0, 1, 1, 0, 1, 0)  # m6..m0
        code = int("".join(map(str, m)), 2)
        counts[0, code] = 13
        marg = marginalize_to_bits(CondProbTable([0.0], counts, kind="m7"))
        assert marg.counts[0, b_code(m[6], m[5], m[3])] == 13
        assert marg.counts.sum() == 13

    def test_uniform_table_stays_uniform(self):
        counts = np.full((3, 128), 2.0)
        marg = marginalize_to_bits(CondProbTable(grid(3), counts, kind="m7"))
        assert np.allclose(marg.counts, 32.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CondProbTable([0.0], [[-1.0, 1.0]])


class TestMutualInformation:
    def test_phase_independent_table_gives_zero(self):
        counts = np.tile([[5.0, 7.0, 3.0, 1.0]], (6, 1))
        table = CondProbTable(grid(6), counts, kind="b3")
        assert mutual_information(table).value == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_bijection_is_three_bits(self):
        counts = np.zeros((8, 8))
        np.fill_diagonal(counts, 250)
        table = CondProbTable(grid(8), counts, kind="b3")
        assert mutual_information(table).value == 3.0

    def test_mi_bounded_by_outcome_entropy(self, rng):
        for _ in range(20):
            counts = rng.integers(0, 30, size=(12, 8)).astype(float)
            counts[0, 0] += 1  # avoid empty table
            table = CondProbTable(grid(12), counts, kind="b3")
            value = mutual_information(table).value
            assert 0.0 <= value <= 3.0 + 1e-12

    def test_marginal_mi_never_exceeds_full(self, rng):
        for seed in range(5):
            cfg = ProtocolConfig(
                n_phases=8,
                n_shots=300,
                noise=NoiseConfig(delta=0.8, brightness=1.0),
                seed=seed,
            )
            table = table_from_quantum(simulate_quantum_dataset(cfg))
            assert (
                mutual_information(marginalize_to_bits(table)).value
                <= mutual_information(table).value + 1e-9
            )

    def test_random_tables_data_processing(self, rng):
        for _ in range(10):
            counts = rng.poisson(6.0, size=(10, 128)).astype(float)
            table = CondProbTable(grid(10), counts, kind="m7")
            full = mutual_information(table).value
            marg = mutual_information(marginalize_to_bits(table)).value
            assert marg <= full + 1e-9

    def test_zero_shot_phase_excluded_with_warning(self):
        counts = np.zeros((3, 8))
        counts[0, 1] = counts[1, 2] = 10
        table = CondProbTable(grid(3), counts, kind="b3")
        with pytest.warns(UserWarning, match="zero valid shots"):
            est = mutual_information(table)
        assert est.value == pytest.approx(1.0)

    def test_estimate_clipping(self):
        with pytest.raises(ValueError):
            MIEstimate(-1.0)
        assert MIEstimate(-1e-12).value == 0.0


class TestPlugInBias:
    def test_bias_positive_and_shrinking_with_shots(self):
        # Monte-Carlo against the grid value of the analytic noiseless model:
        # the plug-in estimator overshoots on average, less so at more shots
        phases = grid(33)
        p = bit_chain_probabilities(phases)
        exact = analysis._mi_from_probabilities(p)
        rng = np.random.default_rng(20)
        biases = []
        for n_shots in (150, 3000):
            vals = []
            for _ in range(25):
                counts = np.stack(
                    [rng.multinomial(n_shots, row / row.sum()) for row in p]
                ).astype(float)
                table = CondProbTable(phases, counts, kind="b3")
                vals.append(mutual_information(table).value)
            biases.append(np.mean(vals) - exact)
        assert biases[0] > biases[1] > 0.0


class TestBootstrap:
    def test_stderr_shrinks_with_shots(self):
        rng_master = np.random.default_rng(10)
        errs = []
        for n_shots in (100, 1000, 10000):
            phases = grid(16)
            p = bit_chain_probabilities(phases)
            counts = np.stack(
                [rng_master.multinomial(n_shots, row / row.sum()) for row in p]
            ).astype(float)
            table = CondProbTable(phases, counts, kind="b3")
            est = bootstrap_mi(table, 60, np.random.default_rng(4))
            errs.append(est.stderr)
        # roughly 1/sqrt(n): each decade shrinks the error by ~sqrt(10)
        assert errs[1] < errs[0] < 1.0
        assert errs[2] < errs[1]
        assert errs[0] / errs[2] == pytest.approx(10.0, rel=1.0)

    def test_mean_consistent_between_replicate_counts(self):
        phases = grid(12)
        p = bit_chain_probabilities(phases)
        counts = 500 * p
        table = CondProbTable(phases, counts, kind="b3")
        a = bootstrap_mi(table, 10, np.random.default_rng(1))
        b = bootstrap_mi(table, 200, np.random.default_rng(2))
        assert a.value == b.value  # point estimate is resample-independent
        assert abs(a.stderr - b.stderr) < 3 * b.stderr

    def test_all_zero_replicates_left_out(self):
        # Each replicate of a 4 x 1-count table resamples every cell to 0 with
        # probability e^-4; such a replicate has no MI and no place in the spread.
        table = CondProbTable(grid(4), np.eye(4, 8), kind="b3")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = bootstrap_mi(table, 200, np.random.default_rng(0))
        assert 0 < est.n_resamples < 200
        assert math.isfinite(est.stderr) and est.stderr > 0.0

    def test_needs_two_resamples(self):
        table = CondProbTable([0.0], [[5.0, 5.0]], kind="b3")
        with pytest.raises(ValueError):
            bootstrap_mi(table, 1, np.random.default_rng(0))


def assert_bootstrap_matches_dense(table, n_resamples, rng):
    """``bootstrap_mi`` equals the dense reference and leaves ``rng`` in its state."""
    reference_rng = np.random.default_rng()
    reference_rng.bit_generator.state = rng.bit_generator.state
    got = bootstrap_mi(table, n_resamples, rng)
    want = dense_bootstrap_mi(table, n_resamples, reference_rng)
    assert (got.value, got.n_resamples) == (want.value, want.n_resamples)
    assert got.stderr == want.stderr or (math.isnan(got.stderr) and math.isnan(want.stderr))
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def _sparse_float_counts():
    counts = 4.0 * np.random.default_rng(3).random((9, 128))
    counts[counts < 2.5] = 0.0
    return counts


class TestBootstrapMatchesDenseReference:
    """Drawing only the observed cells keeps every replicate and the generator state."""

    @pytest.mark.parametrize(
        "simulate",
        [simulate_quantum_dataset, simulate_classical_dataset],
        ids=["quantum", "classical"],
    )
    def test_analyze_curve_tables(self, simulate):
        ds = simulate(ProtocolConfig(n_phases=12, n_shots=300, noise=NOISELESS, seed=5))
        ranks = cli._phase_ranks(ds.phase_index, ds.shot_index)
        rng = np.random.default_rng(101)
        for k in cli._curve_points(300, 12):
            table = analysis._table(ds, "m7", ranks < k)
            assert (table.counts == 0).mean() > 0.5
            assert_bootstrap_matches_dense(table, 100, rng)

    @pytest.mark.parametrize(
        "counts",
        [
            pytest.param(np.eye(4, 8), id="phases-resampled-to-zero"),
            pytest.param(np.vstack([np.zeros(128), np.arange(128.0) % 3]), id="zero-shot-phase"),
            pytest.param(_sparse_float_counts(), id="float-counts"),
        ],
    )
    def test_tables(self, counts):
        table = CondProbTable(grid(len(counts)), counts, kind="b3")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "1 phases with zero valid shots excluded")
            assert_bootstrap_matches_dense(table, 200, np.random.default_rng(7))


class TestBounds:
    def test_examples(self):
        assert reference_bounds(8) == pytest.approx((1.5, 3.0))
        assert reference_bounds(1) == pytest.approx((0.0, 0.0))
        classical, quantum = reference_bounds(99)
        assert classical == pytest.approx(3.3146783, abs=1e-6)
        assert quantum == pytest.approx(6.6293566, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            reference_bounds(0)


class TestHistograms:
    def test_rows_normalized(self):
        cfg = ProtocolConfig(n_phases=6, n_shots=200, noise=NOISELESS, seed=6)
        table = table_from_quantum(simulate_quantum_dataset(cfg))
        hist = quantum_phase_histograms(table)
        assert hist.shape == (6, 8)
        assert np.allclose(hist.sum(axis=1), 1.0, atol=1e-12)

    def test_deterministic_phase_mass(self):
        cfg = ProtocolConfig(n_phases=8, n_shots=100, noise=NOISELESS, seed=7)
        table = table_from_quantum(simulate_quantum_dataset(cfg))
        hist = quantum_phase_histograms(table)
        # at grid phase j all mass sits in bin j (phi_est = 2 pi j / 8)
        assert np.allclose(hist, np.eye(8), atol=1e-12)

    def test_neighbor_bins_carry_most_mass_at_generic_phase(self):
        phases = grid(33)
        rows = bit_chain_probabilities(phases)
        for i, phi in enumerate(phases):
            order = np.argsort(rows[i])[::-1]
            top_two = HISTOGRAM_BIN_CENTERS[order[:2]]
            dists = [abs(wrap_difference(c, phi)) for c in top_two]
            assert min(dists) < math.pi / 4 + 1e-9

    def test_classical_histogram_binning(self):
        cfg = ProtocolConfig(n_phases=5, n_shots=300, noise=NOISELESS, seed=8)
        ds = simulate_classical_dataset(cfg)
        hist = classical_phase_histograms(ds)
        assert hist.shape == (5, 8)
        assert np.allclose(hist.sum(axis=1), 1.0)
        # classical estimates live in [0, pi]: bins past pi stay empty
        assert np.allclose(hist[:, 5:], 0.0)


    def test_classical_bins_of_every_code(self):
        # Phase 0 holds each code once, phase 1 code c (c % 5 + 1) times, so a
        # code put in a wrong bin changes a frequency.
        codes = np.arange(128)
        repeats = np.concatenate([np.ones(128, dtype=int), codes % 5 + 1])
        records = np.repeat(np.concatenate([codes, codes]), repeats).astype(np.uint8)
        phase_index = np.repeat([0, 1], [128, int(repeats[128:].sum())])
        ds = Dataset(2, grid(2), phase_index, np.arange(len(records)), records)
        counts = np.zeros((2, 8))
        for p, estimate in zip(phase_index, classical_estimates(records)):
            distance = [abs(wrap_difference(estimate, c)) for c in HISTOGRAM_BIN_CENTERS]
            counts[p, int(np.argmin(distance))] += 1
        hist = classical_phase_histograms(ds)
        assert np.array_equal(hist, counts / counts.sum(axis=1, keepdims=True))


class TestAnalyticLikelihoods:
    def test_rows_are_distributions(self):
        rows = bit_chain_probabilities(grid(50), delta=0.7)
        assert np.all(rows >= -1e-12)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)

    def test_grid_determinism_in_likelihoods(self):
        rows = bit_chain_probabilities(grid(8))
        for j in range(8):
            code = b_code((j >> 2) & 1, (j >> 1) & 1, j & 1)
            assert rows[j, code] == pytest.approx(1.0, abs=1e-12)

    def test_classical_strings_are_distributions(self):
        rows = classical_string_probabilities(grid(40))
        assert np.allclose(rows.sum(axis=1), 1.0)

    def test_quadrature_oracle_values(self):
        iq = quadrature_mi_quantum()
        ic = quadrature_mi_classical()
        assert iq > ic > 0.0
        assert iq == pytest.approx(quadrature_mi_quantum(n_nodes=40000), abs=1e-4)
        assert ic == pytest.approx(quadrature_mi_classical(n_nodes=40000), abs=1e-4)

    def test_quadrature_node_guard(self):
        with pytest.raises(ValueError):
            quadrature_mi_quantum(n_nodes=100)

    def test_marginal_periodicities(self):
        # informative marginals repeat with periods pi/2, pi and 2 pi
        phis = np.linspace(0, TWO_PI, 40, endpoint=False)
        rows = bit_chain_probabilities(phis)
        p_b3 = rows[:, 1::2].sum(axis=1)  # b3 = 1 columns
        shifted = bit_chain_probabilities((phis + math.pi / 2) % TWO_PI)
        assert np.allclose(p_b3, shifted[:, 1::2].sum(axis=1), atol=1e-12)
        p_b2 = rows[:, [2, 3, 6, 7]].sum(axis=1)
        shifted_pi = bit_chain_probabilities((phis + math.pi) % TWO_PI)
        assert np.allclose(p_b2, shifted_pi[:, [2, 3, 6, 7]].sum(axis=1), atol=1e-12)
        assert not np.allclose(p_b2, shifted[:, [2, 3, 6, 7]].sum(axis=1), atol=1e-3)


class TestMeanEstimates:
    def test_circular_mean_basics(self):
        assert circular_mean(np.array([0.1, -0.1 % TWO_PI])) == pytest.approx(0.0, abs=1e-12)
        assert circular_mean(np.array([math.pi / 2])) == pytest.approx(math.pi / 2)

    def test_oscillation_bounded_noiselessly(self):
        phases = grid(99)
        rows = bit_chain_probabilities(phases)
        table = CondProbTable(phases, 10000 * rows, kind="b3")
        circ, arith = mean_quantum_estimates(table)
        devs = [abs(wrap_difference(c, p)) for c, p in zip(circ, phases)]
        assert max(devs) <= math.pi / 4
        assert max(devs) > 0.01  # the oscillation is intrinsic, not zero

    def test_empty_phase_has_no_quantum_estimate(self):
        phases = grid(4)
        counts = 100 * bit_chain_probabilities(phases)
        counts[2] = 0.0
        circ, arith = mean_quantum_estimates(CondProbTable(phases, counts, kind="b3"))
        assert math.isnan(circ[2]) and math.isnan(arith[2])
        assert np.isfinite(np.delete(circ, 2)).all() and np.isfinite(np.delete(arith, 2)).all()

    def test_classical_means_match_closed_form(self):
        # Phase 1 has no rows: it has no mean and its histogram row stays zero.
        rng = np.random.default_rng(9)
        phase_index = np.array([0, 2, 0, 2, 2, 3, 0])
        c = rng.integers(0, 2, size=(len(phase_index), 7)).astype(np.int8)
        ds = Dataset(4, grid(4), phase_index, np.arange(7), record_codes(c).astype(np.uint8))
        means = mean_classical_estimates(ds)
        for i in (0, 2, 3):
            rows = c[phase_index == i]
            values = [2 * math.acos(math.sqrt(list(r).count(0) / 7)) for r in rows]
            assert means[i] == pytest.approx(np.mean(values), abs=1e-12)
        assert math.isnan(means[1])
        hist = classical_phase_histograms(ds)
        assert np.all(hist[1] == 0.0)
        assert np.allclose(np.delete(hist, 1, axis=0).sum(axis=1), 1.0)
