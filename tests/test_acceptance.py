"""Acceptance suite: one test per criterion, printed pass/fail lines.

Each criterion is exercised at its stated tolerance; statistical checks use
fixed seeds so the suite is deterministic.  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import chi2

from conftest import (
    b_bits,
    b_code,
    distribution_dict,
    moduli_fidelity,
    naive_permanent,
    random_gram,
    random_unitary,
    record_bits,
)
from qadc import ml
from qadc.analysis import (
    CondProbTable,
    HISTOGRAM_BIN_CENTERS,
    bit_chain_probabilities,
    classical_estimates,
    marginalize_to_bits,
    mutual_information,
    quadrature_mi_classical,
    quadrature_mi_quantum,
    table_from_classical,
    table_from_quantum,
)
from qadc.cli import main as cli_main
from qadc.linop import (
    GHZ_INPUT_MODES,
    build_step_program,
    logical_rail_pairs,
    mesh_unitary,
    permanent,
)
from qadc.photonics import (
    PhotonEnsemble,
    ensemble_from_parts,
    full_output_distribution,
    ghz_target,
    oracle_full_state,
    output_probability,
    postselect_dualrail,
    state_fidelity,
    uniform_gram,
)
from qadc.protocol import (
    NoiseConfig,
    ProtocolConfig,
    StepSimulator,
    _quantum_chunk,
    _sweep_chunk,
    derive_rng,
    simulate_classical_dataset,
    simulate_quantum_dataset,
)

TWO_PI = 2 * math.pi
NOISELESS = NoiseConfig(delta=1.0, brightness=1.0)
THREE_SIGMA_ALPHA = 0.0026998  # two-sided 3-sigma tail probability


@contextmanager
def criterion(number: int, name: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS [{time.time() - start:.1f}s]")


def b_distribution(b: np.ndarray) -> np.ndarray:
    codes = b[:, 0] * 4 + b[:, 1] * 2 + b[:, 2]
    return np.bincount(codes, minlength=8) / len(codes)


def test_criterion_1_permanent_oracle():
    with criterion(1, "permanent oracle"):
        rng = np.random.default_rng(1001)
        start = time.time()
        for i in range(100):
            n = 1 + i % 6
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            fast = permanent(m)
            slow = naive_permanent(m)
            assert abs(fast - slow) <= 1e-12 * max(1.0, abs(slow))
        assert time.time() - start < 5.0


def test_criterion_2_distinguishability_physics():
    with criterion(2, "distinguishability physics"):
        start = time.time()
        rng = np.random.default_rng(1002)

        # fast double-permutation route vs the Cholesky-embedding oracle
        for n in (2, 3):
            for _ in range(100):
                n_modes = int(rng.integers(n + 1, 7))
                u = random_unitary(n_modes, rng)
                modes = tuple(
                    sorted(rng.choice(n_modes, size=n, replace=False).tolist())
                )
                ens = PhotonEnsemble(modes, random_gram(n, rng))
                marginals = oracle_full_state(u, ens).spatial_marginals()
                for counts, p_oracle in marginals.items():
                    out = [m for m, c in enumerate(counts) for _ in range(c)]
                    if len(set(out)) != len(out):
                        continue
                    p_fast = output_probability(u, ens, tuple(out))
                    assert abs(p_fast - p_oracle) <= 1e-10

        # Hong-Ou-Mandel coincidence law on a balanced splitter
        splitter = mesh_unitary(
            build_step_program("prep", 1)
        )[:2, :2]  # the preparation splitter block
        for delta in (0.0, 0.25, 0.5, 0.75, 1.0):
            ens = PhotonEnsemble((0, 1), uniform_gram(delta, 2))
            p = output_probability(splitter, ens, (0, 1))
            assert abs(p - (1 - delta) / 2) <= 1e-10

        # limits: Delta=1 permanent statistics, Delta=0 classical permanent
        u = random_unitary(5, rng)
        ins = (0, 1, 3)
        for delta, reference in ((1.0, u), (0.0, np.abs(u) ** 2)):
            ens = PhotonEnsemble(ins, uniform_gram(delta, 3))
            dist = distribution_dict(*full_output_distribution(u, ens))
            for counts, p in dist.items():
                out = [m for m, c in enumerate(counts) for _ in range(c)]
                sub = reference[np.ix_(out, ins)]
                mult = np.prod([math.factorial(c) for c in counts])
                if delta == 1.0:
                    expected = abs(naive_permanent(sub)) ** 2 / mult
                else:
                    expected = naive_permanent(sub).real / mult
                assert abs(p - expected) <= 1e-10
        assert time.time() - start < 60.0


def test_criterion_3_ghz_preparation():
    with criterion(3, "GHZ preparation"):
        for n, success in ((2, 0.5), (4, 0.125)):
            u = mesh_unitary(build_step_program("prep", n))
            state = oracle_full_state(
                u, ensemble_from_parts(GHZ_INPUT_MODES[n], (), 1.0)
            )
            ds = postselect_dualrail(state, logical_rail_pairs(n))
            assert state_fidelity(ds, ghz_target(n)) >= 1 - 1e-10
            assert abs(ds.success_prob - success) <= 1e-9

        u4 = mesh_unitary(build_step_program("prep", 4))
        state0 = oracle_full_state(
            u4, ensemble_from_parts(GHZ_INPUT_MODES[4], (), 0.0)
        )
        ds0 = postselect_dualrail(state0, logical_rail_pairs(4))
        assert abs(state_fidelity(ds0, ghz_target(4)) - 0.5) <= 1e-9

        fids = []
        for delta in np.linspace(0.0, 1.0, 9):
            state = oracle_full_state(
                u4, ensemble_from_parts(GHZ_INPUT_MODES[4], (), float(delta))
            )
            fids.append(
                state_fidelity(
                    postselect_dualrail(state, logical_rail_pairs(4)), ghz_target(4)
                )
            )
        assert all(b - a > -1e-12 for a, b in zip(fids, fids[1:]))

        # informational: programmed-vs-programmed moduli fidelity on Haar pairs
        rng = np.random.default_rng(1003)
        vals = [
            moduli_fidelity(random_unitary(8, rng), random_unitary(8, rng))
            for _ in range(40)
        ]
        assert all(0.0 < v < 1.0 for v in vals)
        print(
            f"[acceptance]   Haar moduli-fidelity over 40 pairs: "
            f"mean {np.mean(vals):.4f}, std {np.std(vals):.4f}"
        )


def test_criterion_4_protocol_correctness():
    with criterion(4, "protocol correctness"):
        start = time.time()

        # deterministic grid: phi = 2 pi j / 8 yields b = binary(j) exactly
        cfg = ProtocolConfig(n_phases=8, n_shots=1000, noise=NOISELESS, seed=1004)
        ds = simulate_quantum_dataset(cfg)
        assert ds.stats["valid"] == 8000
        for j in range(8):
            rows = b_bits(ds)[ds.phase_index == j]
            expected = ((j >> 2) & 1, (j >> 1) & 1, j & 1)
            assert set(map(tuple, rows.tolist())) == {expected}

        # marginal laws on a 33-phase grid at 1e4 shots: per-phase multinomial
        # chi-square against the analytic chain at the 3-sigma level
        cfg = ProtocolConfig(n_phases=33, n_shots=10000, noise=NOISELESS, seed=1005)
        ds = simulate_quantum_dataset(cfg)
        marg = marginalize_to_bits(table_from_quantum(ds))
        expected_rows = bit_chain_probabilities(ds.phases)
        for i in range(33):
            counts = marg.counts[i]
            n = counts.sum()
            probs = expected_rows[i]
            dead = probs < 1e-12
            assert counts[dead].sum() == 0
            live = ~dead
            if live.sum() < 2:
                continue
            expected = n * probs[live]
            stat = float(((counts[live] - expected) ** 2 / expected).sum())
            threshold = chi2.ppf(1 - THREE_SIGMA_ALPHA, df=int(live.sum() - 1))
            assert stat < threshold, f"phase {i}: chi2 {stat:.1f} > {threshold:.1f}"

        # the three stated conditional laws, pooled per phase (4-sigma guard)
        for i in (3, 11, 19, 27):
            phi = ds.phases[i]
            rows = b_bits(ds)[ds.phase_index == i]
            p3 = np.mean(rows[:, 2] == 0)
            law3 = math.cos(2 * phi) ** 2
            se = math.sqrt(max(law3 * (1 - law3), 1e-12) / len(rows))
            assert abs(p3 - law3) < max(4 * se, 1e-3)
            for b3 in (0, 1):
                sel = rows[rows[:, 2] == b3]
                if len(sel) < 300:
                    continue
                law2 = math.cos(phi - math.pi * b3 / 4) ** 2
                se = math.sqrt(max(law2 * (1 - law2), 1e-12) / len(sel))
                assert abs(np.mean(sel[:, 1] == 0) - law2) < max(4 * se, 2e-3)
                for b2 in (0, 1):
                    sel2 = sel[sel[:, 1] == b2]
                    if len(sel2) < 300:
                        continue
                    law1 = (
                        math.cos(phi / 2 - math.pi * b2 / 4 - math.pi * b3 / 8) ** 2
                    )
                    se = math.sqrt(max(law1 * (1 - law1), 1e-12) / len(sel2))
                    assert abs(np.mean(sel2[:, 0] == 0) - law1) < max(4 * se, 4e-3)

        assert time.time() - start < 600.0


def test_criterion_5_pipeline_equivalence():
    with criterion(5, "pipeline equivalence"):
        sim = StepSimulator(NOISELESS, seed=1006)
        max_z = 0.0
        for phase_tag, phi in ((0, TWO_PI * 13 / 99), (1, 3 * math.pi / 8)):
            # feed-forward route
            rng = derive_rng(1006, 10 + phase_tag)
            records = []
            while len(records) < 10000:
                _, m, _ = _quantum_chunk(sim, phi, 8192, 8192, rng)
                records.extend(m.tolist())
            b_ff = record_bits(records[:10000])[:, [6, 5, 3]]

            # configuration sweep + matching route: the production chunk
            rng2 = derive_rng(1006, 20 + phase_tag)
            _, matched, _ = _sweep_chunk(sim, phi, 1_600_000, 10000, rng2)
            assert len(matched) == 10000
            b_sw = record_bits(matched)[:, [6, 5, 3]]

            d_ff = b_distribution(b_ff)
            d_sw = b_distribution(b_sw)
            tv = 0.5 * float(np.abs(d_ff - d_sw).sum())
            assert tv <= 0.02, f"phi={phi:.3f}: TV {tv:.4f}"
            for k in range(8):
                p = 0.5 * (d_ff[k] + d_sw[k])
                if p <= 0:
                    continue
                se = math.sqrt(2 * p * (1 - p) / 10000)
                max_z = max(max_z, abs(d_ff[k] - d_sw[k]) / se)
        print(f"[acceptance]   pipeline equivalence max per-outcome z: {max_z:.2f}")
        assert max_z < 4.0


def test_criterion_6_mutual_information():
    with criterion(6, "mutual information"):
        # deterministic bijection table is exactly 3 bits
        counts = np.zeros((8, 8))
        np.fill_diagonal(counts, 777)
        bijection = CondProbTable(TWO_PI * np.arange(8) / 8, counts, kind="b3")
        assert abs(mutual_information(bijection).value - 3.0) <= 1e-12

        # sampled noiseless MI vs the independent quadrature oracle
        istar_q = quadrature_mi_quantum(n_nodes=20000)
        istar_c = quadrature_mi_classical(n_nodes=20000)
        cfg = ProtocolConfig(n_phases=99, n_shots=10000, noise=NOISELESS, seed=1007)
        ds_q = simulate_quantum_dataset(cfg)
        mi_q = mutual_information(marginalize_to_bits(table_from_quantum(ds_q))).value
        assert abs(mi_q - istar_q) <= 0.02, f"sampled {mi_q} vs oracle {istar_q}"

        ds_c = simulate_classical_dataset(cfg)
        mi_c = mutual_information(table_from_classical(ds_c)).value
        assert mi_q > mi_c
        print(
            f"[acceptance]   noiseless MI: quantum {mi_q:.4f} "
            f"(oracle {istar_q:.4f}), classical {mi_c:.4f} (oracle {istar_c:.4f})"
        )

        # indistinguishability sweep: monotone degradation, eventual crossover
        def sampled_mi(noise, seed):
            cfg = ProtocolConfig(n_phases=33, n_shots=3000, noise=noise, seed=seed)
            ds = simulate_quantum_dataset(cfg)
            return mutual_information(
                marginalize_to_bits(table_from_quantum(ds))
            ).value

        delta_mis = [
            sampled_mi(NoiseConfig(delta=d, brightness=1.0), 1008)
            for d in (1.0, 0.9, 0.8, 0.6)
        ]
        assert all(b < a for a, b in zip(delta_mis, delta_mis[1:])), delta_mis
        mi_small_delta = sampled_mi(NoiseConfig(delta=0.1, brightness=1.0), 1009)
        assert mi_small_delta < istar_c
        print(
            "[acceptance]   MI vs delta {1,0.9,0.8,0.6,0.1}: "
            + ", ".join(f"{v:.3f}" for v in delta_mis + [mi_small_delta])
        )

        # multiphoton sweep: growing g2 keeps eroding the information
        g2_mis = [
            sampled_mi(
                NoiseConfig(
                    delta=1.0,
                    g2_two_photon=g2,
                    g2_four_photon=g2,
                    brightness=0.14,
                    eta=0.85,
                ),
                1010,
            )
            for g2 in (0.0, 0.02, 0.06)
        ]
        assert all(b < a for a, b in zip(g2_mis, g2_mis[1:])), g2_mis
        print(
            "[acceptance]   MI vs g2 {0,0.02,0.06}: "
            + ", ".join(f"{v:.3f}" for v in g2_mis)
        )


def test_criterion_7_estimators():
    with criterion(7, "estimators"):
        quantum_values = set()
        for code in range(8):
            b = ((code >> 2) & 1, (code >> 1) & 1, code & 1)
            value = HISTOGRAM_BIN_CENTERS[b_code(*b)]
            assert value == pytest.approx(
                TWO_PI * (b[0] / 2 + b[1] / 4 + b[2] / 8), abs=1e-15
            )
            quantum_values.add(round(value, 12))
        assert quantum_values == {round(TWO_PI * j / 8, 12) for j in range(8)}
        assert max(quantum_values) > math.pi  # spans [0, 2 pi)

        classical_values = set()
        all_codes = np.arange(128, dtype=np.uint8)
        for bits, value in zip(record_bits(all_codes), classical_estimates(all_codes)):
            n0 = list(bits).count(0)
            assert value == pytest.approx(2 * math.acos(math.sqrt(n0 / 7)), abs=1e-12)
            classical_values.add(round(value, 12))
        assert min(classical_values) >= 0.0
        assert max(classical_values) <= math.pi + 1e-12


def test_criterion_8_ml_stack():
    with criterion(8, "ml stack"):
        start = time.time()

        # backprop vs central finite differences
        rng = np.random.default_rng(1011)
        spec = ml.NetworkSpec((5, 8, 6, 2), ("sigmoid", "tanh", "linear"))
        net = ml.Network.initialize(spec, rng)
        x = rng.normal(size=(7, 5))
        y = rng.normal(size=(7, 2))
        dw, db, _ = ml.gradients(net, x, y)
        h = 1e-5
        worst = 0.0
        for li in range(3):
            for arr, grad in ((net.weights[li], dw[li]), (net.biases[li], db[li])):
                flat = arr.ravel()
                for idx in range(0, flat.size, max(1, flat.size // 6)):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    _, _, lp = ml.gradients(net, x, y)
                    flat[idx] = orig - h
                    _, _, lm = ml.gradients(net, x, y)
                    flat[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    worst = max(worst, abs(fd - grad.ravel()[idx]) / max(1e-8, abs(fd)))
        assert worst <= 1e-4

        # regressor parameter count
        estimator = ml.Network.initialize(ml.build_estimator(), rng)
        assert estimator.n_parameters == 6449

        # noiseless held-out accuracy at the default training configuration
        net, _, metrics = ml.train_and_eval_estimator(
            ml.TrainConfig(epochs=4000, batch_size=10, learning_rate=1e-3, seed=1012)
        )
        assert metrics["rmse"] <= 0.05, metrics["rmse"]
        assert metrics["branch_accuracy"] >= 0.95
        print(
            f"[acceptance]   noiseless regressor: rmse {metrics['rmse']:.4f} rad, "
            f"branch accuracy {metrics['branch_accuracy']:.3f}"
        )

        # noisy preset: NN-refined beats the raw digital estimator and the
        # denoised tables carry at least the raw information, per seed
        rng = np.random.default_rng(1013)
        dae_set = ml.dae_training_set(1024, 0.01, rng)
        dae = ml.Network.initialize(ml.build_dae(), rng)
        ml.train(dae, dae_set, ml.TrainConfig(epochs=300, batch_size=10, seed=1013))
        noisy_net, _, _ = ml.train_and_eval_estimator(
            ml.TrainConfig(epochs=700, batch_size=10, seed=1014),
            n_train_phases=120,
            replicas=3,
            delta=0.9,
        )
        noise = NoiseConfig(
            delta=0.9, g2_two_photon=5e-3, g2_four_photon=5e-3, brightness=0.14
        )
        nn_wins = 0
        mi_wins = 0
        for seed in range(10):
            cfg = ProtocolConfig(
                n_phases=33, n_shots=10000, noise=noise, seed=2000 + seed
            )
            ds = simulate_quantum_dataset(cfg)
            table = table_from_quantum(ds)
            mi_raw = mutual_information(marginalize_to_bits(table)).value
            denoised_rows = ml.dae_denoise(dae, table.probabilities())
            denoised_marg = marginalize_to_bits(
                CondProbTable(table.phases, denoised_rows, kind="m7")
            )
            mi_denoised = mutual_information(denoised_marg).value
            raw_estimates = HISTOGRAM_BIN_CENTERS[
                b_bits(ds)[:, 0] * 4 + b_bits(ds)[:, 1] * 2 + b_bits(ds)[:, 2]
            ]
            raw_rmse = ml.circular_rmse(raw_estimates, ds.phases[ds.phase_index])
            inputs = ml.estimator_inputs_from_rows(
                table.phases, denoised_marg.probabilities()
            )
            phi_nn = ml.forward(noisy_net, inputs)[:, 0] % TWO_PI
            nn_rmse = ml.circular_rmse(phi_nn, table.phases)
            nn_wins += nn_rmse < raw_rmse
            mi_wins += mi_denoised >= mi_raw
        assert nn_wins >= 9, f"NN beat raw on {nn_wins}/10 seeds"
        assert mi_wins >= 9, f"denoising kept MI on {mi_wins}/10 seeds"
        print(f"[acceptance]   noisy preset: NN wins {nn_wins}/10, MI wins {mi_wins}/10")
        assert time.time() - start < 900.0


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "determinism"):
        args = [
            "simulate", "--seed", "31", "--noiseless",
            "--n-phases", "5", "--n-shots", "60",
        ]
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli_main([*args, "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("quantum.csv", "classical.csv", "manifest.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

        train_args = [
            "train", "dae", "--seed", "31",
            "--set", "ml.dae.epochs=25", "--set", "ml.dae.n_train_samples=128",
        ]
        model_bytes = []
        for name in ("ma", "mb"):
            out = tmp_path / name
            assert cli_main([*train_args, "--out", str(out)]) == 0
            model_bytes.append((out / "model_dae.json").read_bytes())
        assert model_bytes[0] == model_bytes[1]

        analyze_bytes = []
        for name in ("xa", "xb"):
            out = tmp_path / name
            assert (
                cli_main(
                    ["analyze", "--seed", "31", "--out", str(out),
                     "--quantum", str(outs[0] / "quantum.csv"),
                     "--set", "analysis.n_resamples=25"]
                )
                == 0
            )
            analyze_bytes.append((out / "mi_curves.csv").read_bytes())
        assert analyze_bytes[0] == analyze_bytes[1]
