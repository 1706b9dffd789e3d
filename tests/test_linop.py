import math

import numpy as np
import pytest

from conftest import moduli_fidelity, naive_permanent, random_unitary
from qadc.linop import (
    LayoutError,
    MZCell,
    MeshProgram,
    SizeLimitError,
    build_step_program,
    cell_unitary,
    logical_rail_pairs,
    mesh_unitary,
    permanent,
    perturb_program,
    rectangular_layout,
    wrap_phase,
)

TWO_PI = 2 * math.pi


class TestPermanent:
    def test_identity_2x2(self):
        assert permanent(np.eye(2)) == pytest.approx(1.0)

    def test_2x2_by_definition(self):
        assert permanent([[1, 2], [3, 4]]) == pytest.approx(10.0)

    def test_all_ones_3x3(self):
        assert permanent(np.ones((3, 3))) == pytest.approx(6.0)

    def test_empty_matrix(self):
        assert permanent(np.zeros((0, 0))) == pytest.approx(1.0)

    def test_matches_naive_on_random_complex(self, rng):
        for n in range(1, 7):
            for _ in range(10):
                m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                fast = permanent(m)
                slow = naive_permanent(m)
                assert abs(fast - slow) <= 1e-12 * max(1.0, abs(slow))

    def test_zero_row_gives_zero(self, rng):
        for n in range(2, 7):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            m[rng.integers(n)] = 0.0
            assert abs(permanent(m)) < 1e-12

    def test_row_linearity(self, rng):
        for _ in range(5):
            n = 4
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            b = a.copy()
            c = a.copy()
            row = rng.normal(size=n) + 1j * rng.normal(size=n)
            alpha = complex(rng.normal(), rng.normal())
            b[2] = row
            c[2] = a[2] + alpha * row
            expected = permanent(a) + alpha * permanent(b)
            assert abs(permanent(c) - expected) < 1e-10 * max(1.0, abs(expected))

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            permanent(np.eye(13))


class TestCell:
    def test_cross_configuration(self):
        u = cell_unitary(MZCell(0, 0, 0.0, 0.0))
        assert abs(u[0, 0]) ** 2 == pytest.approx(0.0, abs=1e-15)
        assert abs(u[0, 1]) ** 2 == pytest.approx(1.0)

    def test_balanced_splitter(self):
        u = cell_unitary(MZCell(0, 0, math.pi / 2, 0.0))
        assert abs(u[0, 0]) ** 2 == pytest.approx(0.5)

    def test_unitarity_over_angle_grid(self):
        for theta in np.linspace(0, math.pi, 7):
            for phi in np.linspace(0, TWO_PI, 7, endpoint=False):
                u = cell_unitary(MZCell(0, 0, theta, phi))
                assert np.linalg.norm(u.conj().T @ u - np.eye(2)) < 1e-12

    def test_reflectance_law(self):
        for theta in np.linspace(0, math.pi, 33):
            u = cell_unitary(MZCell(0, 0, theta, 1.3))
            assert abs(u[0, 0]) ** 2 == pytest.approx(math.sin(theta / 2) ** 2, abs=1e-12)

    def test_identity_cell_is_exact_identity(self):
        u = cell_unitary(MZCell(0, 0, math.pi, math.pi))  # the padding cell
        assert np.allclose(u, np.eye(2), atol=1e-15)

    def test_angle_wrapping(self):
        cell = MZCell(0, 0, -0.3, -1.0)
        assert 0.0 <= cell.theta < TWO_PI
        assert 0.0 <= cell.phi < TWO_PI
        # wrapping preserves the reflectance
        assert math.sin(cell.theta / 2) ** 2 == pytest.approx(math.sin(0.15) ** 2)
        assert wrap_phase(TWO_PI) == 0.0

    def test_wrapped_cell_keeps_the_unwrapped_unitary(self):
        # A programming error on a bar (pi) or cross (0) cell keeps its sign:
        # reflecting theta to 2 pi - theta would keep R but not the unitary.
        thetas = np.concatenate([np.linspace(-TWO_PI + 0.01, 2 * TWO_PI - 0.01, 37),
                                 [math.pi - 0.05, math.pi + 0.05, -0.05, 0.05]])
        for theta in thetas:
            for phi in (0.0, 1.3, math.pi):
                half = theta / 2
                expected = 1j * np.exp(1j * half) * np.array(
                    [[np.exp(1j * phi) * math.sin(half), math.cos(half)],
                     [np.exp(1j * phi) * math.cos(half), -math.sin(half)]]
                )
                u = cell_unitary(MZCell(0, 0, theta, phi))
                assert np.allclose(u, expected, rtol=0.0, atol=1e-12), (theta, phi)

    def test_layer_parity_constraint(self):
        with pytest.raises(LayoutError):
            MZCell(0, 1, 0.0, 0.0)


class TestMesh:
    def test_full_layout_sizes(self):
        assert len(rectangular_layout(8)) == 28
        assert len(rectangular_layout(2)) == 1
        assert len(rectangular_layout(4)) == 6

    def test_eight_mode_program_has_28_cells(self):
        prog = build_step_program("prep", 4)
        assert prog.n_modes == 8
        assert len(prog.cells) == 28

    def test_all_bar_is_identity_up_to_diagonal_phase(self):
        cells = tuple(
            MZCell(layer, top, math.pi, 0.0) for layer, top in rectangular_layout(8)
        )
        prog = MeshProgram(8, cells)
        u = mesh_unitary(prog)
        off = u - np.diag(np.diag(u))
        assert np.linalg.norm(off) < 1e-12
        assert np.allclose(np.abs(np.diag(u)), 1.0)

    def test_single_cell_program_equals_cell_unitary(self):
        cell = MZCell(0, 0, 1.1, 2.2)
        prog = MeshProgram(2, (cell,))
        assert np.allclose(mesh_unitary(prog), cell_unitary(cell), atol=1e-15)

    def test_mesh_unitarity(self, rng):
        for _ in range(5):
            cells = tuple(
                MZCell(layer, top, rng.uniform(0, math.pi), rng.uniform(0, TWO_PI))
                for layer, top in rectangular_layout(8)
            )
            u = mesh_unitary(MeshProgram(8, cells))
            assert np.linalg.norm(u.conj().T @ u - np.eye(8)) <= 1e-10

    def test_layout_validation_rejects_duplicates(self):
        coords = rectangular_layout(8)
        cells = [MZCell(l, t, 0.1, 0.2) for l, t in coords]
        cells[1] = cells[0]
        with pytest.raises(LayoutError):
            MeshProgram(8, tuple(cells))


class TestModuliFidelity:
    def test_self_fidelity(self, rng):
        u = random_unitary(6, rng)
        assert moduli_fidelity(u, u) == pytest.approx(1.0)

    def test_disjoint_support(self):
        u = np.eye(4)
        v = np.roll(np.eye(4), 1, axis=0)
        assert moduli_fidelity(u, v) == pytest.approx(0.0)

    def test_haar_pairs_land_strictly_inside(self, rng):
        values = [
            moduli_fidelity(random_unitary(8, rng), random_unitary(8, rng))
            for _ in range(20)
        ]
        assert all(0.0 < v < 1.0 for v in values)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            moduli_fidelity(np.eye(2), np.eye(3))


class TestPerturbation:
    def test_zero_sigma_is_identity(self, rng):
        prog = build_step_program("full", 4, 1.0)
        assert perturb_program(prog, 0.0, 0.0, rng) == prog

    def test_fixed_seed_reproducible(self):
        prog = build_step_program("full", 4, 1.0)
        a = perturb_program(prog, 0.01, 0.01, np.random.default_rng(5))
        b = perturb_program(prog, 0.01, 0.01, np.random.default_rng(5))
        assert a == b
        assert a != prog

    def test_original_program_unchanged(self, rng):
        prog = build_step_program("full", 4, 1.0)
        perturb_program(prog, 0.1, 0.1, rng)
        assert prog == build_step_program("full", 4, 1.0)

    def test_fidelity_decreases_with_sigma_on_average(self):
        prog = build_step_program("full", 4, 0.9)
        u0 = mesh_unitary(prog)

        def mean_fidelity(sigma, n=60):
            rng = np.random.default_rng(17)
            vals = [
                moduli_fidelity(u0, mesh_unitary(perturb_program(prog, sigma, sigma, rng)))
                for _ in range(n)
            ]
            return np.mean(vals)

        f_small, f_large = mean_fidelity(0.02), mean_fidelity(0.08)
        assert f_large < f_small < 1.0


class TestStepPrograms:
    def test_unsupported_size(self):
        with pytest.raises(ValueError):
            build_step_program("full", 3)

    def test_unknown_step(self):
        with pytest.raises(ValueError):
            build_step_program("warmup", 4)

    def test_invalid_flags_for_experiment(self):
        with pytest.raises(ValueError):
            build_step_program("full", 4, r2=True)
        with pytest.raises(ValueError):
            build_step_program("full", 1, sigma_z=True)
        with pytest.raises(ValueError):
            build_step_program("full", 2, r3=True)

    def test_single_photon_flags_off_is_deterministic_rail0(self):
        # preparation splitter followed by the Hadamard splitter restores rail 0
        prog = build_step_program("full", 1, 0.0)
        u = mesh_unitary(prog)
        assert abs(u[0, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_r2_flag_adds_quarter_phase(self):
        # the informative-qubit |1> rail of the 2-photon step picks up -pi/2:
        # dialed . base^dagger conjugates diag(exp(-i pi/2), 1) by the final
        # Hadamard splitter, so its informative block has those eigenvalues
        base = mesh_unitary(build_step_program("full", 2, 0.0))
        dialed = mesh_unitary(build_step_program("full", 2, 0.0, r2=True))
        diff = dialed @ base.conj().T
        outside = diff.copy()
        outside[2:4, 2:4] = np.eye(2)
        assert np.linalg.norm(outside - np.eye(8)) < 1e-12
        eig = np.linalg.eigvals(diff[2:4, 2:4])
        eig = sorted(eig, key=lambda z: z.imag)
        assert abs(eig[0] - np.exp(-1j * math.pi / 2)) < 1e-9
        assert abs(eig[1] - 1.0) < 1e-9

    def test_logical_pairs_cover_disjoint_rails(self):
        for n in (1, 2, 4):
            pairs = logical_rail_pairs(n)
            flat = [m for p in pairs for m in p]
            assert sorted(flat) == list(range(2 * n))
