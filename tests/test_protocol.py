import math
import re
import warnings
from functools import partial

import numpy as np
import pytest

from conftest import (
    b_bits,
    dense_probabilities,
    distribution_dict,
    record_bits,
    record_codes,
    sample_survivors,
    traced_peak,
)
from qadc import photonics, protocol
from qadc.linop import GHZ_INPUT_MODES, logical_rail_pairs
from qadc.photonics import (
    class_probabilities,
    ensemble_from_parts,
    full_output_distribution,
)
from qadc.protocol import (
    CLASSICAL_CSV_HEADER,
    QUANTUM_CSV_HEADER,
    DatasetError,
    NoiseConfig,
    DEVICE_NOISE,
    PROBE_SIZES,
    ProtocolConfig,
    StepSimulator,
    SWEEP_FLAGS,
    _classical_chunk,
    _match_arrays,
    _quantum_chunk,
    derive_rng,
    read_classical_csv,
    read_quantum_csv,
    simulate_classical_dataset,
    simulate_quantum_dataset,
    simulate_sweep_dataset,
    write_classical_csv,
    write_quantum_csv,
)

NOISELESS = NoiseConfig(delta=1.0, brightness=1.0)


def noiseless_config(n_phases=8, n_shots=200, seed=1):
    return ProtocolConfig(n_phases=n_phases, n_shots=n_shots, noise=NOISELESS, seed=seed)


class TestConfig:
    def test_phase_grid(self):
        cfg = noiseless_config(n_phases=4)
        assert np.allclose(cfg.phases(), [0, math.pi / 2, math.pi, 3 * math.pi / 2])

    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(n_phases=0)
        with pytest.raises(ValueError):
            ProtocolConfig(n_phases=protocol.MAX_PHASES + 1)
        assert ProtocolConfig(n_phases=protocol.MAX_PHASES).n_phases == protocol.MAX_PHASES
        with pytest.raises(ValueError):
            NoiseConfig(delta=1.2)


class TestGridDeterminism:
    def test_grid_phases_give_binary_expansion(self):
        cfg = noiseless_config(n_phases=8, n_shots=150, seed=3)
        ds = simulate_quantum_dataset(cfg)
        for j in range(8):
            rows = b_bits(ds)[ds.phase_index == j]
            assert len(rows) == 150
            expected = ((j >> 2) & 1, (j >> 1) & 1, j & 1)
            assert set(map(tuple, rows.tolist())) == {expected}

    def test_dataset_deterministic(self):
        a = simulate_quantum_dataset(noiseless_config(seed=9, n_shots=50))
        b = simulate_quantum_dataset(noiseless_config(seed=9, n_shots=50))
        assert np.array_equal(a.records, b.records)
        assert np.array_equal(a.shot_index, b.shot_index)

    def test_different_seed_differs(self):
        a = simulate_quantum_dataset(noiseless_config(seed=9, n_shots=50))
        b = simulate_quantum_dataset(noiseless_config(seed=10, n_shots=50))
        assert not np.array_equal(a.shot_index, b.shot_index)


@pytest.fixture(scope="module")
def dataset():
    cfg = ProtocolConfig(n_phases=17, n_shots=4000, noise=NOISELESS, seed=12)
    return simulate_quantum_dataset(cfg)


class TestMarginalLaws:
    def test_b3_law(self, dataset):
        for j in range(dataset.n_phases):
            phi = dataset.phases[j]
            rows = b_bits(dataset)[dataset.phase_index == j]
            p_hat = np.mean(rows[:, 2] == 0)
            p = math.cos(2 * phi) ** 2
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / len(rows))
            assert abs(p_hat - p) < max(4 * sigma, 5e-3)

    def test_b2_law_conditional(self, dataset):
        for j in (2, 5, 9, 14):
            phi = dataset.phases[j]
            rows = b_bits(dataset)[dataset.phase_index == j]
            for b3 in (0, 1):
                sel = rows[rows[:, 2] == b3]
                if len(sel) < 200:
                    continue
                p_hat = np.mean(sel[:, 1] == 0)
                p = math.cos(phi - math.pi * b3 / 4) ** 2
                sigma = math.sqrt(max(p * (1 - p), 1e-12) / len(sel))
                assert abs(p_hat - p) < max(4 * sigma, 8e-3)

    def test_b1_law_conditional(self, dataset):
        for j in (3, 8, 12):
            phi = dataset.phases[j]
            rows = b_bits(dataset)[dataset.phase_index == j]
            for b2 in (0, 1):
                for b3 in (0, 1):
                    sel = rows[(rows[:, 1] == b2) & (rows[:, 2] == b3)]
                    if len(sel) < 200:
                        continue
                    p_hat = np.mean(sel[:, 0] == 0)
                    p = math.cos(phi / 2 - math.pi * b2 / 4 - math.pi * b3 / 8) ** 2
                    sigma = math.sqrt(max(p * (1 - p), 1e-12) / len(sel))
                    assert abs(p_hat - p) < max(4 * sigma, 1.2e-2)

    def test_discard_rate_phase_independent(self, dataset):
        # noiseless post-selection rates do not depend on the phase:
        # chi-square across the grid under the pooled acceptance rate
        attempts = np.array(
            [
                dataset.shot_index[dataset.phase_index == j].max() + 1
                for j in range(dataset.n_phases)
            ],
            dtype=float,
        )
        pooled = 4000 * dataset.n_phases / attempts.sum()
        assert abs(pooled - 1 / 16) < 0.01  # 1/8 (4-photon) x 1/2 (2-photon)
        z = (4000 - attempts * pooled) / np.sqrt(attempts * pooled * (1 - pooled))
        stat = float(np.sum(z**2))
        from scipy.stats import chi2

        assert stat < chi2.ppf(1 - 0.0027, df=dataset.n_phases - 1)

    def test_simulated_marginal_periodicities(self, dataset):
        # informative marginals repeat with periods pi/2 (b3) and pi (b2);
        # grid index shifts of 17/4-ish are unavailable, so compare the same
        # law through phases phi and phi + pi using the analytic chain checked
        # above plus a direct simulated comparison on aligned pairs
        n = dataset.n_phases
        p_b3 = np.zeros(n)
        p_b2 = np.zeros(n)
        for j in range(n):
            rows = b_bits(dataset)[dataset.phase_index == j]
            p_b3[j] = np.mean(rows[:, 2])
            p_b2[j] = np.mean(rows[:, 1])
        phases = dataset.phases
        analytic_b3 = 0.5 * (1 - np.cos(4 * phases))
        analytic_b2_quarter = 0.5 * (
            1
            - 0.5 * (1 + np.cos(4 * phases)) * np.cos(2 * phases)
            - 0.5 * (1 - np.cos(4 * phases)) * np.cos(2 * phases - math.pi / 2)
        )
        assert np.max(np.abs(p_b3 - analytic_b3)) < 0.03
        assert np.max(np.abs(p_b2 - analytic_b2_quarter)) < 0.03
        # the analytic forms make the periods explicit
        shifted = np.cos(4 * (phases + math.pi / 2))
        assert np.allclose(np.cos(4 * phases), shifted, atol=1e-12)

    def test_junk_bits_uniform(self, dataset):
        m = record_bits(dataset.records)
        for col in (0, 1, 2, 4):  # m6 m5 m4 m2
            frac = np.mean(m[:, col])
            assert abs(frac - 0.5) < 0.01


def valid_rows(chunk, phi, n_valid, rng, chunk_size=64):
    """The first ``n_valid`` valid rows of noiseless ``chunk`` calls at ``phi``."""
    sim = StepSimulator(NOISELESS, seed=1)
    rows, have = [], 0
    while have < n_valid:
        _, records, _ = chunk(sim, phi, chunk_size, chunk_size, rng)
        rows.append(records)
        have += len(rows[-1])
    return np.concatenate(rows)[:n_valid]


class TestSingleShotApis:
    """Repetition laws, checked on the array chunks that acquisition runs."""

    def test_run_quantum_shot_at_pi(self):
        codes = valid_rows(_quantum_chunk, math.pi, 20, derive_rng(5, 0))
        assert codes.dtype == np.uint8
        assert (record_bits(codes)[:, [6, 5, 3]] == (1, 0, 0)).all()

    def test_run_quantum_shot_at_quarter(self):
        m = record_bits(valid_rows(_quantum_chunk, math.pi / 4, 20, derive_rng(6, 0)))
        assert (m[:, [6, 5, 3]] == (0, 0, 1)).all()

    def test_classical_shot_extremes(self):
        sim = StepSimulator(NOISELESS, seed=1)
        rng = derive_rng(7, 0)
        for phi, bit in ((0.0, 0), (math.pi, 1)):
            kept, codes, _ = _classical_chunk(sim, phi, 10, 10, rng)
            assert np.array_equal(kept, np.arange(10))  # no discards
            assert (record_bits(codes) == bit).all()  # every bit deterministic

    def test_classical_binomial_at_half(self):
        sim = StepSimulator(NOISELESS, seed=1)
        kept, codes, _ = _classical_chunk(sim, math.pi / 2, 3000, 3000, derive_rng(8, 0))
        bits = record_bits(codes)
        assert len(kept) == len(bits) == 3000
        totals = bits.sum(axis=1)
        mean = np.mean(totals)
        sigma = math.sqrt(7 * 0.25 / 3000)
        assert abs(mean - 3.5) < 4 * sigma


class TestDistinguishabilityEffects:
    def test_delta_zero_b3_uniform(self):
        cfg = ProtocolConfig(
            n_phases=4,
            n_shots=3000,
            noise=NoiseConfig(delta=0.0, brightness=1.0),
            seed=21,
        )
        ds = simulate_quantum_dataset(cfg)
        for j in range(4):
            rows = b_bits(ds)[ds.phase_index == j]
            frac = np.mean(rows[:, 2])
            assert abs(frac - 0.5) < 4 * math.sqrt(0.25 / len(rows))

    def test_delta_visibility_law(self):
        delta = 0.7
        cfg = ProtocolConfig(
            n_phases=6,
            n_shots=5000,
            noise=NoiseConfig(delta=delta, brightness=1.0),
            seed=22,
        )
        ds = simulate_quantum_dataset(cfg)
        for j in (1, 4):
            phi = ds.phases[j]
            rows = b_bits(ds)[ds.phase_index == j]
            p_hat = np.mean(rows[:, 2] == 0)
            p = 0.5 * (1 + delta**2 * math.cos(4 * phi))
            sigma = math.sqrt(p * (1 - p) / len(rows))
            assert abs(p_hat - p) < 4 * sigma


class TestSweepAndMatching:
    def test_sweep_runs_ten_configurations(self):
        assert sum(len(v) for v in SWEEP_FLAGS.values()) == 10
        sim = StepSimulator(NOISELESS, seed=1)
        rng = derive_rng(30, 0)
        seen = set()
        for n in PROBE_SIZES:
            for flags in SWEEP_FLAGS[n]:
                rows, _ = sim.sample_step(n, 0.9, flags, 200, rng)
                if len(rows):
                    seen.add((n, flags))
        assert seen == {
            (n, flags) for n in SWEEP_FLAGS for flags in SWEEP_FLAGS[n]
        }

    @staticmethod
    def match(four, two, one, rng):
        """``_match_arrays`` on (bits, flags) row lists per experiment, as bit rows."""
        pairs = []
        for n, outcomes in ((4, four), (2, two), (1, one)):
            codes = record_codes(np.array([bits for bits, _ in outcomes]).reshape(-1, n))
            flags = np.array([flags for _, flags in outcomes], dtype=np.int8).reshape(-1, 3)
            pairs.append((codes.astype(np.uint8), flags))
        codes = _match_arrays(*pairs, rng)
        assert codes.dtype == np.uint8
        return record_bits(codes)

    def test_step1_parity_filter(self):
        # Each call holds one row that only its parity filter drops and that
        # would otherwise agree with every other row.  The filtered pool is
        # the shortest, so the zip keeps exactly one record; without the
        # filter, that pool and the zip both hold two.
        kept4 = ((1, 0, 0, 1), (1, 0, 0))  # parity 1 with sigma_z on: kept, b3 = 1
        dropped4 = ((0, 1, 0, 1), (0, 0, 0))  # parity 1, sigma_z off: dropped
        kept2 = ((0, 1), (0, 1, 0))  # r1 = b1: kept; r2 = b3, b2 = 1
        dropped2 = ((1, 1), (0, 1, 0))  # r1 != b1: dropped
        one = ((1,), (0, 1, 1))  # (r2, r3) = (b2, b3) = (1, 1)
        record = [1, 0, 0, 1, 0, 1, 1]
        m = self.match([kept4, dropped4], [kept2, kept2], [one, one], derive_rng(31, 0))
        assert m.tolist() == [record]
        m = self.match([kept4, kept4], [kept2, dropped2], [one, one], derive_rng(31, 1))
        assert m.tolist() == [record]

    def test_step3_agreement(self):
        m = self.match(
            four=[((1, 0, 0, 1), (1, 0, 0))],  # b3 = 1
            two=[((0, 1), (0, 1, 0))],  # r2 = 1 == b3, b2 = 1
            one=[((1,), (0, 1, 1))],  # (r2, r3) = (b2, b3) = (1, 1)
            rng=derive_rng(32, 0),
        )
        assert m.tolist() == [[1, 0, 0, 1, 0, 1, 1]]
        assert m[0, [6, 5, 3]].tolist() == [1, 1, 1]

    def test_matched_statistics_against_analytic_law(self):
        cfg = ProtocolConfig(n_phases=8, n_shots=600, noise=NOISELESS, seed=35)
        ds = simulate_sweep_dataset(cfg)
        # grid phases stay deterministic through the matching pipeline
        for j in range(8):
            rows = b_bits(ds)[ds.phase_index == j]
            expected = ((j >> 2) & 1, (j >> 1) & 1, j & 1)
            assert set(map(tuple, rows.tolist())) == {expected}


class TestNoiseChannels:
    def test_device_noise_preset_runs(self):
        cfg = ProtocolConfig(n_phases=3, n_shots=400, noise=DEVICE_NOISE, seed=41)
        ds = simulate_quantum_dataset(cfg)
        assert ds.stats["valid"] == 3 * 400

    def test_eta_increases_discards(self):
        base = ProtocolConfig(
            n_phases=2, n_shots=300, noise=NoiseConfig(delta=1.0, brightness=1.0), seed=42
        )
        lossy = ProtocolConfig(
            n_phases=2,
            n_shots=300,
            noise=NoiseConfig(delta=1.0, brightness=1.0, eta=0.7),
            seed=42,
        )
        a = simulate_quantum_dataset(base)
        b = simulate_quantum_dataset(lossy)
        assert b.stats["attempts"] > 1.5 * a.stats["attempts"]

    @pytest.mark.parametrize(
        "simulate", [simulate_quantum_dataset, simulate_classical_dataset, simulate_sweep_dataset]
    )
    def test_attempt_cap_records_short_phases(self, simulate, monkeypatch):
        # 1400 attempts per phase at eta = 0.7 leave every strategy short of
        # 200 valid repetitions, but no dataset empty; the sweep's cap in
        # feed-forward-equivalent repetitions gives it feed-forward's budget.
        label = simulate.__name__.split("_")[1]
        monkeypatch.setattr(protocol, "MAX_ATTEMPT_FACTOR", 7)
        cfg = ProtocolConfig(n_phases=2, n_shots=200, noise=NoiseConfig(eta=0.7))
        with pytest.warns(UserWarning, match=f"^{label}: attempt cap .* at 2 phases$"):
            ds = simulate(cfg)
        assert ds.stats["short_phases"] == [0, 1]
        assert 0 < ds.stats["valid"] < 2 * 200

    def test_sweep_cap_counts_feed_forward_repetitions(self):
        # At eta = 0.7 a 4-photon sweep attempt yields about 1/2.74 of a
        # record per feed-forward repetition's worth: a cap of 20,000 4-photon
        # attempts per phase kept only 67 of these 100 records.
        cfg = ProtocolConfig(n_phases=2, n_shots=50, seed=2, noise=NoiseConfig(eta=0.7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = simulate_sweep_dataset(cfg)
        assert ds.stats["valid"] == 2 * 50
        assert "short_phases" not in ds.stats

    def test_programming_noise_breaks_grid_determinism(self):
        cfg = ProtocolConfig(
            n_phases=8,
            n_shots=400,
            noise=NoiseConfig(delta=1.0, brightness=1.0, sigma_theta=0.08, sigma_phi=0.08),
            seed=43,
        )
        ds = simulate_quantum_dataset(cfg)
        for j in range(8):
            per_phase = set(map(tuple, b_bits(ds)[ds.phase_index == j].tolist()))
            assert len(per_phase) > 1

    def test_unconditioned_source_matches_brightness(self):
        noise = NoiseConfig(delta=1.0, brightness=0.5, condition_on_emission=False)
        model = noise.source_model(1)
        main, _ = sample_survivors(model, 40000, 1, derive_rng(44, 0))
        emitted = np.mean(main[:, 0])
        assert abs(emitted - 0.5) < 0.01
        # Keys 1 and 3 hold the surviving main photon of the one bin.
        weights = class_probabilities(model, 1, conditioned=False)
        assert abs(weights[[1, 3]].sum() - 0.5) <= 1e-15


def fixed_draw(need, acceptance):
    """The reference draw: 4,096 attempts at a time, whatever the need."""
    return 4096


LOSSY_UNCONDITIONED = NoiseConfig(
    brightness=0.5, eta=0.6, g2_two_photon=0.02, g2_four_photon=0.02, condition_on_emission=False
)


class TestDrawSizeChangesNoDataset:
    """A phase drawn at once gives the dataset of the same phase drawn 4,096 attempts at a time.

    Each phase's attempts take one uniform each, in order, from the phase's
    own stream, so records, shot indices, discard stats and short phases must
    not depend on how many uniforms a draw takes.  Quantum phases draw
    600 / A(phi) and classical ones 6,000 / A(phi) attempts, both above
    4,096, and end mid-draw; under the unconditioned lossy source every phase
    runs into its attempt cap.
    """

    SIMULATE = {"quantum": simulate_quantum_dataset, "classical": simulate_classical_dataset}
    CHUNK = {"quantum": "_quantum_chunk", "classical": "_classical_chunk"}
    N_SHOTS = {"quantum": 600, "classical": 6000}

    def run(self, monkeypatch, strategy, noise, n_phases=3):
        """The dataset and the (attempts drawn, attempts used) of each chunk."""
        draws = []
        chunk = getattr(protocol, self.CHUNK[strategy])

        def spied(sim, phi, count, need, rng):
            kept, records, stats = chunk(sim, phi, count, need, rng)
            draws.append((count, stats["attempts"]))
            return kept, records, stats

        config = ProtocolConfig(
            n_phases=n_phases, n_shots=self.N_SHOTS[strategy], noise=noise, seed=7
        )
        with monkeypatch.context() as patch:
            patch.setattr(protocol, self.CHUNK[strategy], spied)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # the short phases
                return self.SIMULATE[strategy](config), draws

    def check(self, monkeypatch, strategy, noise):
        got, draws = self.run(monkeypatch, strategy, noise)
        with monkeypatch.context() as patch:
            patch.setattr(protocol, "_phase_draw", fixed_draw)
            want, fixed = self.run(monkeypatch, strategy, noise)
        assert max(count for count, _ in fixed) == 4096
        assert max(count for count, _ in draws) > 4096
        assert len(draws) < len(fixed)
        for name in ("phase_index", "shot_index", "records"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert got.stats == want.stats
        return got, draws

    @pytest.mark.parametrize("strategy", ["quantum", "classical"])
    @pytest.mark.parametrize(
        "noise",
        [
            pytest.param(NOISELESS, id="noiseless"),
            pytest.param(DEVICE_NOISE, id="device"),
            pytest.param(
                NoiseConfig(delta=0.9, brightness=0.5, sigma_theta=0.05, sigma_phi=0.05),
                id="programming",
            ),
        ],
    )
    def test_need_met_mid_draw(self, monkeypatch, strategy, noise):
        got, draws = self.check(monkeypatch, strategy, noise)
        assert "short_phases" not in got.stats
        # Each phase's last draw holds uniforms past its last record.
        assert sum(used < count for count, used in draws) == got.n_phases

    @pytest.mark.parametrize("strategy", ["quantum", "classical"])
    def test_phases_at_the_attempt_cap(self, monkeypatch, strategy):
        got, draws = self.check(monkeypatch, strategy, LOSSY_UNCONDITIONED)
        assert got.stats["short_phases"] == [0, 1, 2]
        cap = protocol.MAX_ATTEMPT_FACTOR * self.N_SHOTS[strategy]
        assert got.stats["attempts"] == 3 * cap
        assert sum(count for count, _ in draws) == 3 * cap

    @pytest.mark.parametrize("strategy", ["quantum", "classical"])
    def test_zero_acceptance_at_a_phase(self, monkeypatch, strategy):
        # Every repetition at phase 0 is lost: it draws DRAW_MAX at a time up
        # to its cap, where an A(phi) of 0 must not be divided by.
        record_law = StepSimulator.record_law

        def lost_at_zero(self, strategy, phi):
            cum = record_law(self, strategy, phi)
            if phi != 0.0:
                return cum
            lost = np.zeros_like(cum)
            lost[protocol._N_RECORDS :] = 1.0  # a quantum law's loss bins
            return lost

        monkeypatch.setattr(StepSimulator, "record_law", lost_at_zero)
        got, draws = self.check(monkeypatch, strategy, NOISELESS)
        assert got.stats["short_phases"] == [0]
        assert not np.any(got.phase_index == 0)
        assert draws[0] == (protocol.DRAW_MAX, protocol.DRAW_MAX)

    def test_the_sweep_keeps_its_chunk(self, monkeypatch):
        # The sweep matches its records chunk by chunk, so its bytes depend on
        # where its chunks start: it runs SWEEP_CHUNK 4-photon attempts at a
        # time where a phase draw would take more.
        counts = []
        chunk = protocol._sweep_chunk

        def spied(sim, phi, count, need, rng):
            counts.append(count)
            return chunk(sim, phi, count, need, rng)

        monkeypatch.setattr(protocol, "_sweep_chunk", spied)
        ds = simulate_sweep_dataset(ProtocolConfig(n_phases=2, n_shots=600, noise=NOISELESS))
        assert ds.stats["valid"] == 2 * 600
        assert set(counts) == {protocol.SWEEP_CHUNK}
        assert len(counts) > 2 * 10
        assert protocol._phase_draw(600, 1 / 16) > protocol.SWEEP_CHUNK

    def test_draw_sizes(self):
        assert protocol._phase_draw(1, 1.0) == protocol.SWEEP_CHUNK
        assert protocol._phase_draw(5377, 1 / 16) == math.ceil((5377 + 4 * math.sqrt(5377)) * 16)
        for acceptance in (0.0, 1e-300, 1e-3):
            assert protocol._phase_draw(5377, acceptance) == protocol.DRAW_MAX
        assert protocol._sweep_draw(5377, 1 / 16) == protocol.SWEEP_CHUNK == 4096


class TestAcquisitionHoldsEachRowOnce:
    """Acquisition writes each chunk's rows into the run's final arrays.

    Every phase keeps at most n_shots rows, so the shot indices and records
    of the run are allocated once and the dataset holds their filled prefix.
    """

    @pytest.mark.parametrize(
        "simulate, noise",
        [
            pytest.param(simulate_quantum_dataset, NOISELESS, id="quantum-noiseless"),
            pytest.param(simulate_quantum_dataset, DEVICE_NOISE, id="quantum-device"),
            pytest.param(simulate_classical_dataset, NOISELESS, id="classical"),
        ],
    )
    def test_peak_is_the_dataset_and_a_little(self, simulate, noise):
        config = ProtocolConfig(n_phases=99, n_shots=3000, noise=noise, seed=1)
        ds, peak = traced_peak(lambda: simulate(config))
        assert len(ds.records) == 99 * 3000
        own = ds.phase_index.nbytes + ds.shot_index.nbytes + ds.records.nbytes
        assert peak <= own + 2 * 2**20

    @pytest.mark.parametrize("strategy", ["quantum", "classical"])
    def test_capped_run_holds_only_its_rows(self, strategy):
        # Every phase runs into its attempt cap, so the run fills only part of
        # the n_phases * n_shots rows it allocated.
        config = ProtocolConfig(n_phases=3, n_shots=600, noise=LOSSY_UNCONDITIONED, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the short phases
            ds = TestDrawSizeChangesNoDataset.SIMULATE[strategy](config)
        assert ds.stats["short_phases"] == [0, 1, 2]
        valid = ds.stats["valid"]
        assert 0 < valid < 3 * 600
        assert len(ds.phase_index) == len(ds.shot_index) == len(ds.records) == valid
        for p in range(3):
            shots = ds.shot_index[ds.phase_index == p]
            assert np.all(np.diff(shots) > 0)
            assert shots[-1] < protocol.MAX_ATTEMPT_FACTOR * 600


def class_parts(n, class_key):
    """Input channels of the main and the second photons of a class key.

    Bit k of the key keeps the main photon of bin k, bit n + k adds its
    second photon; bin k feeds input channel ``GHZ_INPUT_MODES[n][k]``.
    """
    channels = GHZ_INPUT_MODES[n]
    mains = [channels[k] for k in range(n) if (class_key // 2**k) % 2]
    extras = [channels[k] for k in range(n) if (class_key // 2 ** (n + k)) % 2]
    return tuple(mains), tuple(extras)


def accepted_class(n, class_key):
    """Whether a class can pass post-selection: at least n photons, at most two extras."""
    mains, extras = class_parts(n, class_key)
    return len(mains) + len(extras) >= n and len(extras) <= 2


def class_accepted(sim, n, phi, flags, class_key):
    """Accepted probability of each outcome code of one class, [2**n], built at ``phi``."""
    if not accepted_class(n, class_key):
        return np.zeros(1 << n)
    ensemble = ensemble_from_parts(*class_parts(n, class_key), sim.noise.delta)
    return sim._accepted(n, sim.unitary(n, phi, flags), ensemble)


def direct_mixture(sim, n, phi, flags):
    """Class mixture with every class built from the program at ``phi``, [2**n]."""
    noise = sim.noise
    weights = class_probabilities(noise.source_model(n), n, noise.condition_on_emission)
    mixture = np.zeros(1 << n)
    for class_key in np.flatnonzero(weights > 0.0).tolist():
        mixture += weights[class_key] * class_accepted(sim, n, phi, flags, class_key)
    return mixture


def reference_step_distribution(sim, n, phi, flags, class_key):
    """Post-selection of one class, one count pattern at a time."""
    empty = (np.zeros((0, n), dtype=np.uint8), np.zeros(0))
    if not accepted_class(n, class_key):
        return empty
    mains, extras = class_parts(n, class_key)
    u = sim.unitary(n, phi, flags)
    ensemble = ensemble_from_parts(mains, extras, sim.noise.delta)
    full = distribution_dict(*full_output_distribution(u, ensemble))
    pairs = logical_rail_pairs(n)
    rails = {m for pair in pairs for m in pair}
    outside = [m for m in range(u.shape[0]) if m not in rails]
    acc = {}
    for counts, p in full.items():
        if p == 0.0 or any(counts[m] for m in outside):
            continue
        bits = []
        for rail0, rail1 in pairs:
            c0 = counts[rail0] > 0
            c1 = counts[rail1] > 0
            if c0 == c1:
                break
            bits.append(1 if c1 else 0)
        else:
            key = tuple(bits)
            acc[key] = acc.get(key, 0.0) + p
    if not acc:
        return empty
    outcomes = np.array(sorted(acc), dtype=np.uint8)
    probs = np.array([acc[tuple(row)] for row in outcomes])
    return outcomes, np.cumsum(probs)


def test_post_selection_equals_pattern_loop():
    sim = StepSimulator(DEVICE_NOISE, seed=5)
    for phi in 2 * math.pi * np.arange(3) / 3:
        for n in PROBE_SIZES:
            for flags in SWEEP_FLAGS[n]:
                for class_key in range(1 << (2 * n)):
                    acc = class_accepted(sim, n, phi, flags, class_key)
                    codes = np.flatnonzero(acc > 0.0)
                    outcomes, cum_probs = reference_step_distribution(
                        sim, n, phi, flags, class_key
                    )
                    assert np.array_equal(codes, record_codes(outcomes))
                    assert np.array_equal(np.cumsum(acc[codes]), cum_probs)


class TestPhaseSeries:
    """Without programming errors, distributions come from a Fourier series in phi."""

    # Every 11th phase of the 99-point grid, and phases off every grid.
    PHASES = [*(2 * math.pi * np.arange(0, 99, 11) / 99), 0.1234, 2.5, 5.9]

    def check_mixture(self, noise):
        sim = StepSimulator(noise, seed=1)
        for n in PROBE_SIZES:
            for flags in SWEEP_FLAGS[n]:
                for phi in self.PHASES:
                    got = dense_probabilities(sim.distribution(n, phi, flags))
                    want = direct_mixture(sim, n, phi, flags)
                    assert np.abs(got - want).max() <= 1e-14

    @pytest.mark.parametrize("delta", [0.0, 0.5, 0.926, 1.0])
    def test_series_equals_direct_builder(self, delta):
        self.check_mixture(
            NoiseConfig(delta=delta, g2_two_photon=5e-3, g2_four_photon=5e-3, brightness=0.14)
        )

    def test_lost_main_photons_carry_weight(self):
        # At eta < 1 the classes with a lost main photon enter the mixture.
        noise = NoiseConfig(
            delta=0.926, g2_two_photon=5e-3, g2_four_photon=5e-3, brightness=0.14, eta=0.9
        )
        # Mains of bins 0-2 and an extra photon in bin 0: four photons, accepted at times.
        weights = class_probabilities(noise.source_model(4), 4, conditioned=True)
        assert weights[0b0001_0111] > 0.0
        self.check_mixture(noise)

    # Noiseless: one class per step, 2k + 1 nodes for the 4-photon flags, the
    # two 2-photon flags and the four 1-photon flags.  Device noise: every
    # class of a step at the 2k + 1 nodes of its largest class (k = n + 2):
    # 11 classes at n = 4, 4 at n = 2 and 2 at n = 1.
    #
    # Blocks: the classes of one program share the blocks and convolution
    # prefixes of their common photons, so each node builds its main block
    # once and each extra one-photon block once per distinct prefix before
    # it; 555 blocks without the sharing.  Noiseless, one block per build.
    #
    # Block plans: one per convolution prefix of the run, whatever the
    # unitary; noiseless, the one block of each step size.  Device noise: at
    # n = 4 the main block, then 4 prefixes with one extra and 6 with two; at
    # n = 2 the main block and 3 prefixes with extras; at n = 1, 2 prefixes.
    @pytest.mark.parametrize(
        "noise, n_phases, builds, blocks, plans",
        [
            pytest.param(NOISELESS, 9, 9 + 2 * 5 + 4 * 3, 31, 3, id="9"),
            pytest.param(NOISELESS, 33, 9 + 2 * 5 + 4 * 3, 31, 3, id="33"),
            pytest.param(DEVICE_NOISE, 9, 13 * 11 + 2 * 9 * 4 + 4 * 5 * 2, 255, 11 + 4 + 2,
                         id="device-9"),
            pytest.param(DEVICE_NOISE, 33, 13 * 11 + 2 * 9 * 4 + 4 * 5 * 2, 255, 11 + 4 + 2,
                         id="device-33"),
        ],
    )
    def test_builds_do_not_grow_with_the_grid(
        self, monkeypatch, noise, n_phases, builds, blocks, plans
    ):
        calls, block_calls, plan_calls = [], [], []
        block_distribution = photonics._block_distribution
        block_plan = photonics._block_plan

        def counted(*args):
            calls.append(1)
            return full_output_distribution(*args)

        def counted_block(*args):
            block_calls.append(1)
            return block_distribution(*args)

        def counted_plan(*args):
            plan_calls.append(1)
            return block_plan(*args)

        monkeypatch.setattr(protocol, "full_output_distribution", counted)
        monkeypatch.setattr(photonics, "_block_distribution", counted_block)
        monkeypatch.setattr(photonics, "_block_plan", counted_plan)
        simulate_quantum_dataset(
            ProtocolConfig(n_phases=n_phases, n_shots=50, noise=noise, seed=1)
        )
        assert len(calls) == builds
        assert len(block_calls) == blocks
        assert len(plan_calls) == plans

    def test_mixture_shares_builds_without_changing_bits(self):
        # One simulator, several series nodes of each step: the memo of one
        # `_mixture` call must not serve another unitary.
        sim = StepSimulator(DEVICE_NOISE, seed=1)
        for n in PROBE_SIZES:
            for flags in SWEEP_FLAGS[n][:2]:
                for phi in (0.0, 2.0 * math.pi / 13, 2.5):
                    u = sim.unitary(n, phi, flags)
                    want = np.zeros(1 << n)
                    for weight, ensemble in sim._classes[n]:
                        want += weight * sim._accepted(n, u, ensemble)
                    assert np.array_equal(sim._mixture(n, u), want)

    def test_programming_errors_build_directly(self, monkeypatch):
        def no_series(*args):
            raise AssertionError("series built under programming errors")

        monkeypatch.setattr(StepSimulator, "_mixed_series", no_series)
        noise = NoiseConfig(delta=0.9, brightness=0.5, sigma_theta=0.05)
        simulate_quantum_dataset(ProtocolConfig(n_phases=3, n_shots=20, noise=noise, seed=2))
        sim = StepSimulator(noise, seed=2)
        for phi in (0.0, 2.5):
            for n in PROBE_SIZES:
                for flags in SWEEP_FLAGS[n]:
                    want = np.cumsum(direct_mixture(sim, n, phi, flags))
                    assert np.array_equal(sim.distribution(n, phi, flags), want)


class TestDatasetFiles:
    def test_quantum_round_trip(self, tmp_path):
        ds = simulate_quantum_dataset(noiseless_config(n_phases=4, n_shots=30))
        path = tmp_path / "q.csv"
        write_quantum_csv(ds, path)
        back = read_quantum_csv(path)
        assert back.n_phases == 4
        assert np.array_equal(back.records, ds.records)
        assert np.array_equal(back.shot_index, ds.shot_index)
        assert np.allclose(back.phases, ds.phases)

    def test_classical_round_trip(self, tmp_path):
        ds = simulate_classical_dataset(noiseless_config(n_phases=4, n_shots=30))
        path = tmp_path / "c.csv"
        write_classical_csv(ds, path)
        back = read_classical_csv(path)
        assert np.array_equal(back.records, ds.records)

    @staticmethod
    def check_written_lines(path, kind, shot_index):
        """Write two phases holding all 128 codes with ``shot_index``, check every line, read back."""
        _, write, read, _ = DATASET_KINDS[kind]
        codes = np.concatenate([np.arange(128), np.arange(128)[::-1]]).astype(np.uint8)
        phase_index = np.repeat(np.arange(2), 128)
        ds = protocol.Dataset(np.array([0.0, math.pi]), phase_index, shot_index, codes)
        write(ds, path)
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == 256
        for line, p, shot, code in zip(lines, phase_index, shot_index, codes.tolist()):
            m = [(code >> k) & 1 for k in range(6, -1, -1)]  # m6..m0 or c6..c0
            if kind == "quantum":
                m += [m[6], m[5], m[3]]  # b1, b2, b3 = m0, m1, m3
            bits = ",".join(map(str, m))
            assert line == f"{p},{protocol.format_float(ds.phases[p])},{shot},{bits}"
        back = read(path)
        assert back.records.dtype == np.uint8
        assert np.array_equal(back.records, codes)
        assert np.array_equal(back.phase_index, phase_index)
        assert np.array_equal(back.shot_index, shot_index)

    @pytest.mark.parametrize("kind", ["quantum", "classical"])
    def test_every_record_code_round_trips(self, tmp_path, kind):
        # Each of two phases holds all 128 codes, which no noiseless run
        # reaches; every written line is checked against its own rendering.
        # The shot indices span more values than there are rows.
        self.check_written_lines(tmp_path / "all.csv", kind, 7 * np.arange(256) + 10**15)

    @pytest.mark.parametrize("first", [10**6 + 3, -200])
    @pytest.mark.parametrize("kind", ["quantum", "classical"])
    def test_narrow_shot_indices_round_trip(self, tmp_path, kind, first):
        # 256 distinct shot indices from ``first`` on, out of order, so the
        # writer formats them from its table of every value in their span;
        # from -200 the widest text ("-200") is the smallest value's.
        shot_index = first + (37 * np.arange(256)) % 256
        self.check_written_lines(tmp_path / "narrow.csv", kind, shot_index)

    def test_shot_index_preserves_gaps(self, tmp_path):
        ds = simulate_quantum_dataset(noiseless_config(n_phases=1, n_shots=100))
        idx = ds.shot_index
        assert idx.max() > 99  # discards leave gaps in the attempt numbering
        assert len(np.unique(idx)) == len(idx)

    @pytest.mark.parametrize(
        "edit, n_phases",
        [
            ({}, 3),  # phase 2 has no row; phase 1 at 2 pi / 3 fixes the 3-phase grid
            ({1: "1e-300"}, 2),  # a tiny phase must not put the grid far beyond the rows
            ({0: "0.5"}, 2),  # phase 0 fits no grid 2 pi i / N
        ],
    )
    def test_grid_size_from_phase_values(self, tmp_path, edit, n_phases):
        path = tmp_path / "q.csv"
        write_quantum_csv(simulate_quantum_dataset(noiseless_config(n_phases=3, n_shots=5)), path)
        header, *lines = path.read_text().splitlines(keepends=True)
        rows = [line.split(",", 2) for line in lines if not line.startswith("2,")]
        path.write_text(header + "".join(
            f"{p},{edit.get(int(p), rad)},{rest}" for p, rad, rest in rows
        ))
        assert read_quantum_csv(path).n_phases == n_phases

    def test_phase_value_is_read_from_its_last_row(self, tmp_path):
        # Phase 1's rows come in two runs between phase 0's, and each carries
        # its own phase text: the value is that of its last row, which ends
        # its second run and is not the file's last row.
        path = tmp_path / "q.csv"
        write_quantum_csv(simulate_quantum_dataset(noiseless_config(n_phases=2, n_shots=4)), path)
        header, *lines = path.read_text().splitlines(keepends=True)
        zeros = [line for line in lines if line.startswith("0,")]
        ones = [line.split(",", 2) for line in lines if line.startswith("1,")]
        ones = [f"1,{rad},{rest}" for rad, (_, _, rest) in zip(["1.0", "2.0", "2.5", "3.0"], ones)]
        path.write_text(header + "".join(ones[:2] + zeros[:2] + ones[2:] + zeros[2:]))
        ds = read_quantum_csv(path)
        assert ds.phases.tolist() == [0.0, 3.0]
        assert ds.phase_index.tolist() == [1, 1, 0, 0, 1, 1, 0, 0]

    def test_malformed_csv_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        ds = simulate_quantum_dataset(noiseless_config(n_phases=1, n_shots=5))
        write_quantum_csv(ds, path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0]  # drop one column of row 4
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="row 4"):
            read_quantum_csv(path)


def _edit_line(text, lineno, edit):
    lines = text.split("\n")
    lines[lineno - 1] = edit(lines[lineno - 1])
    return "\n".join(lines)


def _set_column(line, col, value):
    parts = line.split(",")
    parts[col] = value(parts[col])
    return ",".join(parts)


def _move_rows(text, index, n_grid):
    """Every data row of ``text`` at ``phase_index`` ``index``, the phase of
    that index on a grid of ``n_grid`` phases."""
    header, *rows = text.split("\n")
    rad = repr(2 * math.pi * index / n_grid)
    return "\n".join([header, *(f"{index},{rad}," + row.split(",", 2)[2] if row else row
                                 for row in rows)])


#: The ``expect`` of an edit that is read, with the edited shot indices.
SHOTS_EDITED = "read with the edited shot indices"

#: (kind, name of the edit, edit of the file text, expect): None when the file
#: reads back as written, SHOTS_EDITED, or the rejection message.
READER_CASES = [
    (kind, name, edit, expect)
    for kind in ("quantum", "classical")
    for name, edit, expect in [
        ("blank line", partial(_edit_line, lineno=4, edit=lambda line: "\n" + line),
         r"row 4: expected \d+ columns"),
        ("comment line", partial(_edit_line, lineno=4, edit=lambda line: "#" + line),
         r"row 4: invalid literal for int"),
        ("float in int column",
         partial(_edit_line, lineno=4, edit=partial(_set_column, col=2, value=lambda v: v + ".0")),
         r"row 4: invalid literal for int"),
        ("crlf line endings", lambda t: t.replace("\n", "\r\n"), None),
        ("stray carriage return", partial(_edit_line, lineno=4, edit=lambda line: line + "\r\r"),
         r"row 5: expected \d+ columns"),
        ("trailing spaces", lambda t: t.replace("\n", "  \n"), None),
        ("missing column", partial(_edit_line, lineno=5, edit=lambda line: line.rsplit(",", 1)[0]),
         r"row 5: expected \d+ columns"),
        ("extra column", partial(_edit_line, lineno=5, edit=lambda line: line + ",0"),
         r"row 5: expected \d+ columns"),
        ("bit value 2",
         partial(_edit_line, lineno=3, edit=partial(_set_column, col=5, value=lambda v: "2")),
         "bit columns must be 0/1"),
        ("bit value -1",
         partial(_edit_line, lineno=3, edit=partial(_set_column, col=5, value=lambda v: "-1")),
         "bit columns must be 0/1"),
        ("no final newline", lambda t: t.rstrip("\n"), None),
        ("negative phase index",
         partial(_edit_line, lineno=3, edit=partial(_set_column, col=0, value=lambda v: "-1")),
         "phase_index must be non-negative"),
        ("negative shot index",
         partial(_edit_line, lineno=4, edit=partial(_set_column, col=2, value=lambda v: "-" + v)),
         SHOTS_EDITED),
        # 15 digits are the most that the one-pass reader reads; it leaves 16 to the row parser.
        ("15-digit shot index",
         partial(_edit_line, lineno=4, edit=partial(_set_column, col=2, value=lambda v: v.zfill(15))),
         None),
        ("16-digit shot index",
         partial(_edit_line, lineno=4, edit=partial(_set_column, col=2, value=lambda v: v.zfill(16))),
         None),
        ("plus sign on shot index",
         partial(_edit_line, lineno=4, edit=partial(_set_column, col=2, value=lambda v: "+" + v)),
         None),
        ("phase index 007",
         partial(_edit_line, lineno=4, edit=partial(_set_column, col=0, value=lambda v: v.zfill(3))),
         None),
        ("phase text changes inside a block",
         partial(_edit_line, lineno=4, edit=partial(_set_column, col=1, value=lambda v: "1")),
         None),
        # Rows 3 and 4 differ only by the NUL: a prefix is compared by its length too.
        ("trailing NUL in phase text",
         partial(_edit_line, lineno=4, edit=partial(_set_column, col=1, value=lambda v: v + "\0")),
         r"row 4: could not convert string to float"),
        ("carriage return in phase text",
         partial(_edit_line, lineno=4, edit=partial(_set_column, col=1, value=lambda v: v + "\r")),
         r"row 4: expected \d+ columns"),
        ("non-ASCII phase text",  # an Arabic-Indic zero, which float() reads
         partial(_edit_line, lineno=4, edit=partial(_set_column, col=1, value=lambda v: "\u0660")),
         None),
        ("semicolon between bits",
         partial(_edit_line, lineno=4, edit=lambda line: line[:-2] + ";" + line[-1]),
         r"row 4: expected \d+ columns"),
        ("nan phase",
         partial(_edit_line, lineno=3, edit=partial(_set_column, col=1, value=lambda v: "nan")),
         "phase_rad must be finite"),
        ("infinite phase",
         partial(_edit_line, lineno=3, edit=partial(_set_column, col=1, value=lambda v: "inf")),
         "phase_rad must be finite"),
        ("shot index beyond int64",
         partial(_edit_line, lineno=3, edit=partial(_set_column, col=2, value=lambda v: "9" * 20)),
         "row 3: integer out of the int64 range"),
        ("phase index 3000000000",
         partial(_edit_line, lineno=3,
                 edit=partial(_set_column, col=0, value=lambda v: "3000000000")),
         "its grid of 3000000001 phases exceeds 65536"),
        ("phase index 20000000", partial(_move_rows, index=20_000_000, n_grid=1),
         "its grid of 20000001 phases exceeds 65536"),
        # Index 40000 placed on a grid of 70000 phases, whose last 29999 have no rows.
        ("inferred grid above the limit", partial(_move_rows, index=40_000, n_grid=70_000),
         "its grid of 70000 phases exceeds 65536"),
    ]
] + [
    ("quantum", "b disagrees with m",
     partial(_edit_line, lineno=3, edit=partial(_set_column, col=-1, value=lambda v: str(1 - int(v)))),
     "b columns disagree"),
]

DATASET_KINDS = {
    "quantum": (simulate_quantum_dataset, write_quantum_csv, read_quantum_csv,
                QUANTUM_CSV_HEADER),
    "classical": (simulate_classical_dataset, write_classical_csv, read_classical_csv,
                  CLASSICAL_CSV_HEADER),
}


class TestReaderPaths:
    """The one-pass reader agrees with the row parser, or defers to it."""

    @pytest.mark.parametrize("index", [protocol.MAX_PHASES - 1, 40_000])
    def test_grid_of_max_phases_is_read(self, tmp_path, index):
        path = tmp_path / "data.csv"
        ds = simulate_classical_dataset(noiseless_config(n_phases=1, n_shots=3))
        write_classical_csv(ds, path)
        path.write_text(_move_rows(path.read_text(), index, protocol.MAX_PHASES))
        ds = read_classical_csv(path)
        assert ds.n_phases == protocol.MAX_PHASES
        assert ds.phases[index] == 2 * math.pi * index / protocol.MAX_PHASES

    @pytest.mark.parametrize("kind", sorted(DATASET_KINDS))
    def test_written_file_loads_in_one_pass(self, tmp_path, kind):
        simulate, write, _, header = DATASET_KINDS[kind]
        path = tmp_path / "data.csv"
        write(simulate(noiseless_config(n_phases=3, n_shots=4)), path)
        n_cols = len(header.split(","))
        fast = protocol._load_columns(path, header, n_cols)
        assert fast is not None
        rows = protocol._parse_rows(path, header, n_cols)
        for got, want in zip(fast[:3], rows[:3]):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        # The row parser's bits are int64; the one-pass reader's are their uint8 digits.
        assert fast[3].dtype == np.uint8
        assert np.array_equal(fast[3], rows[3])

    @pytest.mark.parametrize(
        "first, one_pass",
        [(-(10**15) + 1, True), (10**15 - 256, True), (10**15, False)],
        ids=["15 digits and a sign", "15 digits", "16 digits"],
    )
    def test_shot_index_digits_at_the_edge_of_the_one_pass_reader(self, tmp_path, first, one_pass):
        path = tmp_path / "data.csv"
        TestDatasetFiles.check_written_lines(path, "classical", first + np.arange(256))
        fast = protocol._load_columns(path, CLASSICAL_CSV_HEADER, 10)
        assert (fast is not None) == one_pass
        if one_pass:
            for got, want in zip(fast, protocol._parse_rows(path, CLASSICAL_CSV_HEADER, 10)):
                assert np.array_equal(got, want)

    @staticmethod
    def assert_read_as_the_rows(path, header):
        n_cols = len(header.split(","))
        fast = protocol._load_columns(path, header, n_cols)
        assert fast is not None
        for got, want in zip(fast, protocol._parse_rows(path, header, n_cols)):
            assert np.array_equal(got, want)

    def test_phase_change_on_a_chunk_seam(self, tmp_path, monkeypatch):
        # A block ends with the last row of phase 0, so the next block starts
        # phase 1: its first row's prefix is compared with the last row of the
        # block before.
        n_rows = 600
        phase_index = (np.arange(n_rows) >= 300).astype(np.int64)
        codes = np.random.default_rng(5).integers(0, 128, n_rows).astype(np.uint8)
        ds = protocol.Dataset(np.array([0.0, math.pi]), phase_index, np.arange(n_rows), codes)
        path = tmp_path / "data.csv"
        write_classical_csv(ds, path)
        text = path.read_bytes()
        seam = text.index(b"\n1,") + 1 - len(CLASSICAL_CSV_HEADER + "\n")
        monkeypatch.setattr(protocol, "_CHUNK_BYTES", seam)
        self.assert_read_as_the_rows(path, CLASSICAL_CSV_HEADER)

    @pytest.mark.parametrize("kind", sorted(DATASET_KINDS))
    def test_every_block_size_of_a_short_file(self, tmp_path, monkeypatch, kind):
        # Sizes from 1 byte put a seam at every byte: rows longer than a block,
        # rows split by a seam, and phase 0's rows ("0,0,...") shorter than the
        # window that reads their end, whose window reaches back across a seam.
        # The largest holds the whole file in one block.
        simulate, write, _, header = DATASET_KINDS[kind]
        path = tmp_path / "data.csv"
        write(simulate(noiseless_config(n_phases=3, n_shots=4)), path)
        data = path.read_bytes()[len(header) + 1 :]
        width = protocol._SHOT_WIDTH + 2 * (len(header.split(",")) - 3)
        assert min(map(len, data.split(b"\n"))) < width
        for size in range(1, len(data) + 2):
            monkeypatch.setattr(protocol, "_CHUNK_BYTES", size)
            self.assert_read_as_the_rows(path, header)

    @pytest.mark.parametrize("size", [61, 4097])
    @pytest.mark.parametrize("kind", sorted(DATASET_KINDS))
    def test_multi_phase_file_across_blocks(self, tmp_path, monkeypatch, kind, size):
        simulate, write, _, header = DATASET_KINDS[kind]
        path = tmp_path / "data.csv"
        write(simulate(noiseless_config(n_phases=9, n_shots=60)), path)
        monkeypatch.setattr(protocol, "_CHUNK_BYTES", size)
        self.assert_read_as_the_rows(path, header)

    @pytest.mark.parametrize("size", [61, 4097])
    @pytest.mark.parametrize(
        "kind, edit",
        [pytest.param(k, e, id=f"{k}-{n}") for k, n, e, _ in READER_CASES],
    )
    def test_blocks_agree_on_edited_files(self, tmp_path, monkeypatch, kind, edit, size):
        # The files are shorter than the default block, which reads each in one.
        simulate, write, _, header = DATASET_KINDS[kind]
        path = tmp_path / "data.csv"
        write(simulate(noiseless_config(n_phases=3, n_shots=4)), path)
        path.write_bytes(edit(path.read_bytes().decode()).encode())
        assert path.stat().st_size < protocol._CHUNK_BYTES
        n_cols = len(header.split(","))
        whole = protocol._load_columns(path, header, n_cols)
        monkeypatch.setattr(protocol, "_CHUNK_BYTES", size)
        fast = protocol._load_columns(path, header, n_cols)
        assert (fast is None) == (whole is None)
        if fast is not None:
            for got, want in zip(fast, protocol._parse_rows(path, header, n_cols)):
                assert got.shape == want.shape
                assert np.array_equal(got, want, equal_nan=True)

    def test_peak_is_a_few_blocks_above_the_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        write_quantum_csv(simulate_quantum_dataset(noiseless_config(n_phases=99, n_shots=1200)), path)
        assert path.stat().st_size > 4 * protocol._CHUNK_BYTES
        columns, peak = traced_peak(lambda: protocol._load_columns(path, QUANTUM_CSV_HEADER, 13))
        assert len(columns[0]) == 99 * 1200
        assert peak <= sum(c.nbytes for c in columns) + 4 * protocol._CHUNK_BYTES

    def test_dataset_holds_no_index_copies_above_the_columns(self, tmp_path):
        # Each phase's value is looked up among the run ends of its index, so
        # no sort or reversed copy of the index column is made, and the check
        # of the b columns gathers one byte per row: what it holds stays
        # under 4 bytes per row.
        path = tmp_path / "data.csv"
        write_quantum_csv(simulate_quantum_dataset(noiseless_config(n_phases=99, n_shots=3000)), path)
        _, load_peak = traced_peak(lambda: protocol._load_columns(path, QUANTUM_CSV_HEADER, 13))
        ds, peak = traced_peak(lambda: read_quantum_csv(path))
        assert len(ds.records) == 99 * 3000
        assert peak <= load_peak + ds.shot_index.nbytes // 2

    @pytest.mark.parametrize(
        "kind, edit, expect",
        [pytest.param(k, e, x, id=f"{k}-{n}") for k, n, e, x in READER_CASES],
    )
    def test_paths_agree_on_edited_files(self, tmp_path, kind, edit, expect):
        simulate, write, read, header = DATASET_KINDS[kind]
        ds = simulate(noiseless_config(n_phases=3, n_shots=4))
        path = tmp_path / "data.csv"
        write(ds, path)
        path.write_bytes(edit(path.read_bytes().decode()).encode())
        n_cols = len(header.split(","))
        fast = protocol._load_columns(path, header, n_cols)
        try:
            rows = protocol._parse_rows(path, header, n_cols)
        except DatasetError as exc:
            assert fast is None
            assert expect is not None and re.search(expect, str(exc))
            with pytest.raises(DatasetError) as info:
                read(path)
            assert str(info.value) == str(exc)
            return
        if fast is not None:
            for got, want in zip(fast, rows):
                assert np.array_equal(got, want, equal_nan=True)
        if expect not in (None, SHOTS_EDITED):
            with pytest.raises(DatasetError, match=expect):
                read(path)
            return
        back = read(path)
        assert np.array_equal(back.phase_index, ds.phase_index)
        assert np.array_equal(back.shot_index, rows[2] if expect is SHOTS_EDITED else ds.shot_index)
        assert np.array_equal(back.records, ds.records)
        assert np.allclose(back.phases, ds.phases)
