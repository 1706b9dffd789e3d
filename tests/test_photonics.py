import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import chi2

from conftest import (
    distribution_dict,
    naive_permanent,
    norm_squared,
    physical_ghz_target,
    physical_rail_pairs,
    random_gram,
    random_unitary,
    sample_survivors,
)
from qadc import photonics
from qadc.linop import (
    GHZ_INPUT_MODES,
    MZCell,
    SizeLimitError,
    build_step_program,
    cell_unitary,
    logical_rail_pairs,
    mesh_unitary,
)
from qadc.photonics import (
    DualRailState,
    GramMatrix,
    ModelError,
    PhotonEnsemble,
    PostSelectionEmpty,
    SourceModel,
    class_probabilities,
    ensemble_from_parts,
    full_output_distribution,
    g2_to_probs,
    ghz_target,
    oracle_full_state,
    output_probability,
    pivoted_cholesky,
    postselect_dualrail,
    state_fidelity,
    uniform_gram,
)
from qadc.protocol import DEVICE_NOISE, NoiseConfig, StepSimulator


def balanced_splitter():
    return cell_unitary(MZCell(0, 0, math.pi / 2, 0.0))


class TestGram:
    def test_uniform_gram_extremes(self):
        assert np.allclose(uniform_gram(1.0, 3).entries, np.ones((3, 3)))
        assert np.allclose(uniform_gram(0.0, 3).entries, np.eye(3))

    def test_uniform_gram_quarter(self):
        s = uniform_gram(0.25, 2).entries
        assert s[0, 1] == pytest.approx(0.5)
        assert abs(s[0, 1]) ** 2 == pytest.approx(0.25)

    def test_delta_out_of_range(self):
        with pytest.raises(ModelError):
            uniform_gram(1.5, 2)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ModelError):
            GramMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ModelError):
            GramMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rank_deficient_allowed(self):
        s = uniform_gram(1.0, 4)
        low = pivoted_cholesky(s.entries)
        assert low.shape[1] == 1
        assert np.allclose(low @ low.conj().T, s.entries, atol=1e-12)

    def test_internal_vectors_reproduce_overlaps(self, rng):
        g = random_gram(4, rng)
        c = g.internal_vectors()
        overlaps = np.conj(c) @ c.T
        assert np.allclose(overlaps, g.entries, atol=1e-10)

    def test_ensemble_size_mismatch(self):
        with pytest.raises(ModelError):
            PhotonEnsemble((0, 1, 2), uniform_gram(1.0, 2))


class TestOutputProbability:
    def test_single_photon(self, rng):
        u = random_unitary(4, rng)
        ens = PhotonEnsemble((2,), uniform_gram(1.0, 1))
        for d in range(4):
            assert output_probability(u, ens, (d,)) == pytest.approx(
                abs(u[d, 2]) ** 2, abs=1e-12
            )

    def test_hom_suppression(self):
        u = balanced_splitter()
        ens = PhotonEnsemble((0, 1), uniform_gram(1.0, 2))
        assert output_probability(u, ens, (0, 1)) == pytest.approx(0.0, abs=1e-12)

    def test_hom_coincidence_law(self):
        u = balanced_splitter()
        for delta in (0.0, 0.25, 0.5, 0.75, 1.0):
            ens = PhotonEnsemble((0, 1), uniform_gram(delta, 2))
            p = output_probability(u, ens, (0, 1))
            assert p == pytest.approx((1 - delta) / 2, abs=1e-10)

    def test_mode_out_of_range(self, rng):
        u = random_unitary(3, rng)
        ens = PhotonEnsemble((0, 1), uniform_gram(0.5, 2))
        with pytest.raises(ValueError):
            output_probability(u, ens, (0, 3))

    def test_fast_path_matches_oracle_marginals(self, rng):
        for n in (2, 3):
            for _ in range(25):
                u = random_unitary(n + 1, rng)
                ens = PhotonEnsemble(tuple(range(n)), random_gram(n, rng))
                marginals = oracle_full_state(u, ens).spatial_marginals()
                for counts, p_oracle in marginals.items():
                    modes = [m for m, c in enumerate(counts) for _ in range(c)]
                    if len(set(modes)) != len(modes):
                        continue
                    p_fast = output_probability(u, ens, tuple(modes))
                    assert p_fast == pytest.approx(p_oracle, abs=1e-10)

    def test_pattern_of_zero_probability(self):
        # each photon stays in its input mode, so every other pattern of the
        # right size has probability exactly 0
        u = np.eye(4)
        ens = ensemble_from_parts((0, 1), (2,), 0.8)
        assert output_probability(u, ens, (0, 1, 2)) == 1.0
        for modes in ((0, 1, 3), (0, 0, 2), (3, 3, 3), (1, 2, 3)):
            assert output_probability(u, ens, modes) == 0.0

    def test_colliding_output_via_oracle(self, rng):
        u = balanced_splitter()
        for delta in (0.0, 0.6, 1.0):
            ens = PhotonEnsemble((0, 1), uniform_gram(delta, 2))
            p = output_probability(u, ens, (0, 0))
            assert p == pytest.approx((1 + delta) / 4, abs=1e-10)


class TestFullDistribution:
    def test_normalization_random_instances(self, rng):
        for n, m in ((2, 3), (3, 4), (3, 8)):
            u = random_unitary(m, rng)
            ens = PhotonEnsemble(tuple(range(n)), random_gram(n, rng))
            dist = distribution_dict(*full_output_distribution(u, ens))
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_matches_oracle_including_collisions(self, rng):
        for _ in range(10):
            u = random_unitary(4, rng)
            ens = PhotonEnsemble((0, 1, 2), random_gram(3, rng))
            dist = distribution_dict(*full_output_distribution(u, ens))
            marginals = oracle_full_state(u, ens).spatial_marginals()
            for counts, p in marginals.items():
                assert dist.get(counts, 0.0) == pytest.approx(p, abs=1e-10)

    def test_orthogonal_extras_factorize(self, rng):
        # a photon orthogonal to the rest routes independently: the joint
        # distribution equals the convolution computed by hand
        u = random_unitary(4, rng)
        ens = ensemble_from_parts((0, 1), (2,), 0.7)
        dist = distribution_dict(*full_output_distribution(u, ens))
        main = distribution_dict(
            *full_output_distribution(u, ensemble_from_parts((0, 1), (), 0.7))
        )
        extra = np.abs(u[:, 2]) ** 2
        for counts, p in dist.items():
            total = 0.0
            for m in range(4):
                if counts[m] > 0:
                    reduced = list(counts)
                    reduced[m] -= 1
                    total += main.get(tuple(reduced), 0.0) * extra[m]
            assert p == pytest.approx(total, abs=1e-10)

    def test_indistinguishable_limit_is_permanent_statistics(self, rng):
        u = random_unitary(4, rng)
        ens = PhotonEnsemble((0, 1, 2), uniform_gram(1.0, 3))
        dist = distribution_dict(*full_output_distribution(u, ens))
        for counts, p in dist.items():
            modes = [m for m, c in enumerate(counts) for _ in range(c)]
            sub = u[np.ix_(modes, [0, 1, 2])]
            mult = np.prod([math.factorial(c) for c in counts])
            expected = abs(naive_permanent(sub)) ** 2 / mult
            assert p == pytest.approx(expected, abs=1e-10)

    def test_distinguishable_limit_is_classical_permanent(self, rng):
        u = random_unitary(4, rng)
        ens = PhotonEnsemble((0, 1, 2), uniform_gram(0.0, 3))
        dist = distribution_dict(*full_output_distribution(u, ens))
        probs = np.abs(u) ** 2
        for counts, p in dist.items():
            modes = [m for m, c in enumerate(counts) for _ in range(c)]
            sub = probs[np.ix_(modes, [0, 1, 2])]
            mult = np.prod([math.factorial(c) for c in counts])
            expected = naive_permanent(sub).real / mult
            assert p == pytest.approx(expected, abs=1e-10)


def reference_convolution(u, ens) -> dict:
    """Pairwise dict merge of the block distributions, the reference arithmetic."""
    dist = {(0,) * u.shape[0]: 1.0}
    for block in photonics._distinguishable_blocks(ens.gram):
        modes = tuple(ens.input_modes[i] for i in block)
        sub = ens.gram.entries[np.ix_(block, block)]
        block_dist = distribution_dict(*photonics._block_distribution(u, modes, sub))
        merged = {}
        for c1, p1 in dist.items():
            for c2, p2 in block_dist.items():
                key = tuple(a + b for a, b in zip(c1, c2))
                merged[key] = merged.get(key, 0.0) + p1 * p2
        dist = merged
    return dist


class TestDistributionArrays:
    @pytest.mark.parametrize(
        "mains, extras", [((), ()), ((0,), ()), ((0, 1, 2), ()), ((0, 2), (1,)),
                          ((0, 1, 2, 3), (1, 3)), ((), (0, 2)), ((1, 2, 3), (0,))]
    )
    def test_format(self, rng, mains, extras):
        u = random_unitary(5, rng)
        counts, probs = full_output_distribution(u, ensemble_from_parts(mains, extras, 0.9))
        n = len(mains) + len(extras)
        assert counts.dtype.kind == "i" and counts.shape == (math.comb(n + 4, n), 5)
        assert probs.dtype == np.float64 and probs.shape == (len(counts),)
        assert (counts.sum(axis=1) == n).all() and (counts >= 0).all()
        assert len(np.unique(counts, axis=0)) == len(counts)
        assert (probs >= 0).all() and probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_convolution_equals_pairwise_merge(self, rng):
        for mains, extras in (((0, 1), (2,)), ((0, 1, 2, 3), (4, 6)), ((1, 3, 5), (0, 5)),
                              ((), (0, 1, 2))):
            u = random_unitary(8, rng)
            ens = ensemble_from_parts(mains, extras, 0.926)
            dist = distribution_dict(*full_output_distribution(u, ens))
            assert list(dist.items()) == list(reference_convolution(u, ens).items())


def assert_same_bits(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestConvolutionMemo:
    """A memo shared by many builds gives the bits of building each alone."""

    @pytest.mark.parametrize(
        "noise",
        [
            pytest.param(DEVICE_NOISE, id="device"),
            # Lost main photons: classes with a 3- or 2-photon main block.
            pytest.param(replace(DEVICE_NOISE, condition_on_emission=False, eta=0.8),
                         id="unconditioned"),
        ],
    )
    def test_source_classes_share_one_memo(self, noise):
        sim = StepSimulator(noise, seed=1)
        u = sim.unitary(4, 2.0 * math.pi * 3 / 13, (0, 0, 0))
        ensembles = [ensemble for _, ensemble in sim._classes[4]]
        blocks = [photonics._distinguishable_blocks(e.gram) for e in ensembles]
        main_sizes = {len(b[0]) for b in blocks}
        if noise is DEVICE_NOISE:
            assert len(ensembles) == 11 and main_sizes == {4}
        else:
            assert main_sizes == {2, 3, 4}
        memo = {}
        for ensemble in ensembles:
            got = full_output_distribution(u, ensemble, memo)
            assert_same_bits(got, full_output_distribution(u, ensemble))
        # Some prefixes were reused rather than built again.
        assert len(memo) < sum(len(b) for b in blocks)

    def test_memo_keys_the_unitary(self, rng):
        ens = ensemble_from_parts((0, 2, 4, 6), (1, 5), 0.9)
        memo = {}
        for u in (random_unitary(8, rng), random_unitary(8, rng)):
            assert_same_bits(
                full_output_distribution(u, ens, memo), full_output_distribution(u, ens)
            )

    def test_memo_keys_the_gram_block(self, rng):
        u = random_unitary(8, rng)
        memo = {}
        for delta in (0.5, 0.9):
            ens = ensemble_from_parts((0, 2, 4, 6), (3,), delta)
            assert_same_bits(
                full_output_distribution(u, ens, memo), full_output_distribution(u, ens)
            )


class TestOracle:
    def test_oracle_normalization(self, rng):
        for _ in range(5):
            u = random_unitary(5, rng)
            ens = PhotonEnsemble((0, 2, 4), random_gram(3, rng))
            state = oracle_full_state(u, ens)
            assert norm_squared(state) == pytest.approx(1.0, abs=1e-9)
            assert sum(state.spatial_marginals().values()) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_size_guard(self, rng):
        u = random_unitary(8, rng)
        with pytest.raises(SizeLimitError):
            oracle_full_state(u, PhotonEnsemble((0, 1, 2, 3, 4), uniform_gram(1.0, 5)))

    def test_empty_ensemble(self, rng):
        u = random_unitary(3, rng)
        state = oracle_full_state(u, PhotonEnsemble((), GramMatrix(np.zeros((0, 0)))))
        assert state.spatial_marginals() == {(0, 0, 0): pytest.approx(1.0)}


class TestPostSelection:
    def prep_state(self, n, delta):
        prog = build_step_program("prep", n)
        u = mesh_unitary(prog)
        ens = ensemble_from_parts(GHZ_INPUT_MODES[n], (), delta)
        return oracle_full_state(u, ens)

    def test_ideal_ghz4(self):
        ds = postselect_dualrail(self.prep_state(4, 1.0), physical_rail_pairs(4))
        assert ds.success_prob == pytest.approx(0.125, abs=1e-10)
        fid = state_fidelity(ds, physical_ghz_target(4))
        assert fid >= 1 - 1e-10

    def test_distinguishable_ghz4_is_incoherent_mixture(self):
        ds = postselect_dualrail(self.prep_state(4, 0.0), physical_rail_pairs(4))
        target = np.zeros((16, 16))
        target[0b0101, 0b0101] = 0.5
        target[0b1010, 0b1010] = 0.5
        assert np.allclose(ds.rho, target, atol=1e-9)
        fid = state_fidelity(ds, physical_ghz_target(4))
        assert fid == pytest.approx(0.5, abs=1e-9)

    def test_fidelity_monotone_in_delta(self):
        deltas = np.linspace(0, 1, 9)
        fids = [
            state_fidelity(
                postselect_dualrail(self.prep_state(4, d), logical_rail_pairs(4)),
                ghz_target(4),
            )
            for d in deltas
        ]
        assert all(b - a > -1e-12 for a, b in zip(fids, fids[1:]))
        assert fids[0] == pytest.approx(0.5, abs=1e-9)
        assert fids[-1] == pytest.approx(1.0, abs=1e-10)
        # ring coherence carries the squared overlap: F = (1 + delta^2) / 2
        for d, f in zip(deltas, fids):
            assert f == pytest.approx((1 + d**2) / 2, abs=1e-9)

    def test_single_photon_plus_state(self):
        prog = build_step_program("prep", 1)
        state = oracle_full_state(
            mesh_unitary(prog), ensemble_from_parts((0,), (), 1.0)
        )
        ds = postselect_dualrail(state, ((0, 1),))
        assert ds.success_prob == pytest.approx(1.0, abs=1e-10)
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        assert state_fidelity(ds, plus) == pytest.approx(1.0, abs=1e-10)

    def test_empty_postselection_raises(self, rng):
        # two photons forced into the same pair can never show one per pair
        u = np.eye(4, dtype=complex)
        ens = ensemble_from_parts((0, 1), (), 1.0)
        state = oracle_full_state(u, ens)
        with pytest.raises(PostSelectionEmpty):
            postselect_dualrail(state, ((0, 1), (2, 3)))

    def test_dualrail_invariants_enforced(self):
        with pytest.raises(ValueError):
            DualRailState(1, np.array([[0.7, 0], [0, 0.7]]), 0.5)
        with pytest.raises(ValueError):
            DualRailState(1, np.array([[1.5, 0], [0, -0.5]]), 0.5)

    def test_maximally_mixed_fidelity(self):
        ds = DualRailState(2, np.eye(4) / 4, 1.0)
        assert state_fidelity(ds, ghz_target(2)) == pytest.approx(0.25)


class TestSourceModel:
    def test_probability_sum_enforced(self):
        with pytest.raises(ModelError):
            SourceModel(0.5, 0.4, 0.3)

    def test_g2_zero_mapping(self):
        assert g2_to_probs(0.0, 0.14) == pytest.approx((0.86, 0.14, 0.0))

    def test_g2_measured_value_first_order(self):
        g2, b = 5.321e-3, 0.14
        p0, p1, p2 = g2_to_probs(g2, b)
        assert p2 > 0
        assert p0 + p1 + p2 == pytest.approx(1.0, abs=1e-12)
        # solved system reproduces itself and the first-order ratio
        assert 2 * p2 / (p1 + 2 * p2) ** 2 == pytest.approx(g2, rel=1e-9)
        assert p2 / p1 == pytest.approx(g2 * b / 2, rel=0.02)

    def test_g2_guard(self):
        with pytest.raises(ModelError):
            g2_to_probs(0.2, 0.14)

    def test_g2_closed_form_root_solves_the_model(self):
        from scipy.optimize import brentq

        rng = np.random.default_rng(12)
        pairs = [(5.321e-3, 0.14), (5.629e-3, 0.14)]  # the DEVICE_NOISE values
        pairs += zip(rng.uniform(1e-9, 0.1, 1500), rng.uniform(1e-6, 1.0, 1500))
        pairs += zip(10 ** rng.uniform(-9, -1, 1000), 10 ** rng.uniform(-6, 0, 1000))
        for g2, b in pairs:
            g2, b = float(g2), float(b)
            p0, p1, p2 = g2_to_probs(g2, b)
            assert (p0, p1) == (1.0 - b, b - p2), (g2, b)
            # Relative residual of the quadratic g2 (B + p2)^2 = 2 p2.
            assert abs(g2 * (b + p2) ** 2 - 2.0 * p2) <= 2e-15 * 2.0 * p2, (g2, b)
            xtol, rtol = 1e-16, 1e-14
            root = brentq(lambda x: 2.0 * x / (b + x) ** 2 - g2, 0.0, b, xtol=xtol, rtol=rtol)
            assert abs(p2 - root) <= xtol + rtol * p2, (g2, b)

    def test_sample_source_ideal(self, rng):
        model = SourceModel(0.0, 1.0, 0.0, eta=1.0)
        for conditioned in (False, True):
            main, extra = sample_survivors(model, 50, 4, rng, conditioned)
            assert main.shape == extra.shape == (50, 4)
            assert main.all() and not extra.any()
        ens = ensemble_from_parts((0, 2, 4, 6), (), 0.8)
        assert np.allclose(ens.gram.entries, uniform_gram(0.8, 4).entries)

    def test_sample_source_pure_multiphoton(self, rng):
        model = SourceModel(0.0, 0.0, 1.0, eta=1.0)
        for conditioned in (False, True):
            main, extra = sample_survivors(model, 50, 1, rng, conditioned)
            assert main.all() and extra.all()
        ens = ensemble_from_parts((3,), (3,), 1.0)
        assert ens.input_modes == (3, 3)
        assert ens.gram.entries[0, 1] == pytest.approx(0.0)

    def test_sample_source_loss_rate(self):
        model = SourceModel(0.0, 1.0, 0.0, eta=0.5)
        main, extra = sample_survivors(model, 1500, 4, np.random.default_rng(4))
        counts = main.sum(axis=1) + extra.sum(axis=1)
        mean = np.mean(counts)
        sigma = math.sqrt(4 * 0.5 * 0.5 / 1500)
        assert abs(mean - 2.0) < 3 * sigma

    # (name, noise) pairs: each source model with its conditioning mode.
    CLASS_SETTINGS = [
        ("noiseless", NoiseConfig()),
        ("device", DEVICE_NOISE),
        ("unconditioned", NoiseConfig(
            brightness=0.5, g2_two_photon=0.05, g2_four_photon=0.05, eta=0.6,
            condition_on_emission=False,
        )),
        ("conditioned_loss", replace(DEVICE_NOISE, eta=0.7)),
    ]

    @pytest.mark.parametrize("noise", [n for _, n in CLASS_SETTINGS],
                             ids=[name for name, _ in CLASS_SETTINGS])
    @pytest.mark.parametrize("n_bins", [1, 2, 4])
    def test_class_probabilities_match_sampled_keys(self, noise, n_bins):
        """Exact key weights against `sample_survivors` key frequencies (3-sigma chi-square)."""
        model, conditioned = noise.source_model(n_bins), noise.condition_on_emission
        weights = class_probabilities(model, n_bins, conditioned)
        assert weights.shape == (1 << (2 * n_bins),)
        assert abs(weights.sum() - 1.0) <= 1e-12
        draws = 200_000
        rng = np.random.default_rng(3141)
        main, extra = sample_survivors(model, draws, n_bins, rng, conditioned)
        place = 1 << np.arange(n_bins)
        keys = main @ place + (extra @ place << n_bins)
        counts = np.bincount(keys, minlength=len(weights))
        expected = draws * weights
        assert counts[weights == 0.0].sum() == 0
        keep = expected >= 5.0
        pooled = (weights > 0.0) & ~keep
        obs, exp = counts[keep], expected[keep]
        if pooled.any():  # cells expected below 5 are pooled into one
            obs = np.append(obs, counts[pooled].sum())
            exp = np.append(exp, expected[pooled].sum())
        if len(obs) < 2:
            assert obs.sum() == draws
            return
        stat = float(((obs - exp) ** 2 / exp).sum())
        assert stat < chi2.ppf(1 - 0.0026998, df=len(obs) - 1)
