"""Complex linear algebra for the programmable interferometer.

The processor is modelled as a rectangular mesh of Mach-Zehnder unit cells.
Each cell consists of two balanced couplers and two reconfigurable phases:
``theta`` sets the reflectance ``R = sin^2(theta/2)`` and ``phi`` is a pure
phase on the cell's first (top) input mode.  Programs for the protocol steps
are built constructively on the 8-mode, 28-cell layout; arbitrary-unitary
decomposition is intentionally out of scope.

Cell matrix convention (fixed once, all tests depend on it)::

    U(theta, phi) = i e^{i theta/2} [[e^{i phi} sin(theta/2),  cos(theta/2)],
                                     [e^{i phi} cos(theta/2), -sin(theta/2)]]

so ``theta = 0`` is the cross configuration (R = 0), ``theta = pi/2`` a
balanced splitter and ``theta = pi`` the bar configuration.  U has period
2*pi in theta and in phi, and cells store both wrapped to [0, 2*pi).
Reflecting theta to 2*pi - theta keeps R but not U (it gives D U D with
D = diag(1, -1), up to a global phase), so it is not used.  A cell with
``theta = pi, phi = pi`` is exactly the 2x2 identity, which is how unused
cells of the full layout are padded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

PERMANENT_SIZE_LIMIT = 12

#: Spatial modes feeding each experiment (one photon source channel each).
GHZ_INPUT_MODES = {4: (0, 2, 4, 6), 2: (0, 2), 1: (0,)}

#: Number of modes of the processor the protocol programs target.
PROCESSOR_MODES = 8


class LayoutError(ValueError):
    """Cell coordinates do not form a valid rectangular layout."""


class SizeLimitError(ValueError):
    """A desk-scale size guard was exceeded."""


def wrap_phase(phi: float) -> float:
    """Reduce an angle to the canonical interval [0, 2*pi)."""
    out = math.fmod(float(phi), TWO_PI)
    if out < 0.0:
        out += TWO_PI
    if out >= TWO_PI:
        out = 0.0
    return out


@dataclass(frozen=True)
class MZCell:
    """One Mach-Zehnder unit cell of the rectangular mesh.

    ``layer`` and ``top_mode`` locate the cell: it couples the adjacent mode
    pair ``(top_mode, top_mode + 1)`` within its layer.  Both angles are
    stored wrapped to [0, 2*pi), a period of the cell unitary in each, so a
    programming error keeps its sign across the bar and cross settings.
    """

    layer: int
    top_mode: int
    theta: float
    phi: float

    def __post_init__(self):
        if self.layer < 0 or self.top_mode < 0:
            raise LayoutError(f"negative cell position ({self.layer}, {self.top_mode})")
        if (self.top_mode % 2) != (self.layer % 2):
            raise LayoutError(
                f"cell at layer {self.layer} cannot sit on top mode {self.top_mode}"
            )
        object.__setattr__(self, "theta", wrap_phase(self.theta))
        object.__setattr__(self, "phi", wrap_phase(self.phi))


def rectangular_layout(n_modes: int) -> list[tuple[int, int]]:
    """Cell coordinates (layer, top_mode) of the full rectangular layout.

    Layers alternate between even pairs (0,1), (2,3), ... and odd pairs
    (1,2), (3,4), ...; ``n_modes`` layers give n(n-1)/2 cells (28 for 8 modes).
    """
    if n_modes < 1:
        raise LayoutError("need at least one mode")
    coords = []
    for layer in range(n_modes):
        for top in range(layer % 2, n_modes - 1, 2):
            coords.append((layer, top))
    return coords


@dataclass(frozen=True)
class MeshProgram:
    """Ordered settings of every cell of a rectangular mesh.

    The cell list must cover the full rectangular layout of ``n_modes`` exactly
    once (28 cells for 8 modes); unused cells are padded to identity by the
    program builders.  Photon inputs are not part of a program: the protocol
    feeds `GHZ_INPUT_MODES`.
    """

    n_modes: int
    cells: tuple[MZCell, ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        expected = rectangular_layout(self.n_modes)
        got = sorted((c.layer, c.top_mode) for c in self.cells)
        if got != sorted(expected):
            raise LayoutError(
                f"cells do not cover the {self.n_modes}-mode rectangular layout "
                f"({len(self.cells)} cells, expected {len(expected)})"
            )


def permanent(matrix) -> complex:
    """Matrix permanent by the Ryser subset-sum scheme with Gray-code updates.

    O(2^n * n) time; guarded at n <= 12 so oversized requests fail loudly
    instead of stalling.  The permanent of the empty (0x0) matrix is 1.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"permanent needs a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > PERMANENT_SIZE_LIMIT:
        raise SizeLimitError(f"permanent guard: n = {n} exceeds {PERMANENT_SIZE_LIMIT}")
    if n == 0:
        return complex(1.0)
    row_sums = np.zeros(n, dtype=complex)
    total = 0.0 + 0.0j
    gray = 0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        j = (gray ^ new_gray).bit_length() - 1
        if new_gray & (1 << j):
            row_sums += a[:, j]
        else:
            row_sums -= a[:, j]
        gray = new_gray
        sign = -1.0 if (bin(gray).count("1") % 2) else 1.0
        total += sign * np.prod(row_sums)
    if n % 2:
        total = -total
    return complex(total)


def cell_unitary(cell: MZCell) -> np.ndarray:
    """2x2 unitary of one cell in the fixed convention (see module docstring)."""
    half = 0.5 * cell.theta
    s, c = math.sin(half), math.cos(half)
    ephi = np.exp(1j * cell.phi)
    pref = 1j * np.exp(1j * half)
    return pref * np.array([[ephi * s, c], [ephi * c, -s]], dtype=complex)


def mesh_unitary(program: MeshProgram) -> np.ndarray:
    """Compose all cell unitaries in layer order into the full mode transformation.

    Row index is the output mode, column index the input mode.  Cells within a
    layer touch disjoint mode pairs, so their order is immaterial.
    """
    n = program.n_modes
    u = np.eye(n, dtype=complex)
    for cell in sorted(program.cells, key=lambda c: (c.layer, c.top_mode)):
        block = cell_unitary(cell)
        layer_u = np.eye(n, dtype=complex)
        m = cell.top_mode
        layer_u[m : m + 2, m : m + 2] = block
        u = layer_u @ u
    return u


def perturb_program(
    program: MeshProgram,
    sigma_theta: float,
    sigma_phi: float,
    rng: np.random.Generator,
) -> MeshProgram:
    """Apply independent zero-mean Gaussian programming errors to every cell.

    Offsets are drawn per cell (all thetas first, then all phis) so a fixed
    seed reproduces the same perturbed program.  The input program is not
    modified.
    """
    if sigma_theta < 0 or sigma_phi < 0:
        raise ValueError("perturbation sigmas must be non-negative")
    cells = sorted(program.cells, key=lambda c: (c.layer, c.top_mode))
    d_theta = rng.normal(0.0, sigma_theta, size=len(cells))
    d_phi = rng.normal(0.0, sigma_phi, size=len(cells))
    new_cells = tuple(
        MZCell(c.layer, c.top_mode, c.theta + dt, c.phi + dp)
        for c, dt, dp in zip(cells, d_theta, d_phi)
    )
    return MeshProgram(program.n_modes, new_cells)


# ---------------------------------------------------------------------------
# Protocol step programs
#
# Dual-rail qubits sit on adjacent mode pairs: qubit k on modes (2k, 2k+1).
# GHZ-type probes are prepared by one layer of balanced splitters on the input
# pairs followed by one layer of crossings; post-selecting one photon per pair
# leaves exactly two surviving routing branches, the patterns |0101...> and
# |1010...>.  The logical frame absorbs that pattern: the logical |0> rail of
# qubit k is the rail it occupies in the |0101...> branch, so the prepared
# state reads (|0...0> + |1...1>)/sqrt(2) logically.
# ---------------------------------------------------------------------------

#: Logical (rail0, rail1) mode pairs per experiment size, qubit order 0..n-1.
_LOGICAL_PAIRS = {
    4: ((0, 1), (3, 2), (4, 5), (7, 6)),
    2: ((0, 1), (3, 2)),
    1: ((0, 1),),
}

STEP_IDS = ("prep", "full")


def logical_rail_pairs(n_qubits: int) -> tuple[tuple[int, int], ...]:
    """(logical-0 rail, logical-1 rail) mode pair of each qubit."""
    if n_qubits not in _LOGICAL_PAIRS:
        raise ValueError(f"unsupported probe size {n_qubits}, expected 1, 2 or 4")
    return _LOGICAL_PAIRS[n_qubits]


def build_step_program(
    step: str,
    n_qubits: int,
    phase: float = 0.0,
    *,
    sigma_z: bool = False,
    r2: bool = False,
    r3: bool = False,
) -> MeshProgram:
    """Build the full 8-mode program of one protocol step.

    ``step`` is ``"prep"`` (probe preparation only, for state characterisation)
    or ``"full"`` (preparation, phase encoding, conditional phases and the
    final Hadamard layer).  ``phase`` is the encoded optical phase.  The
    control flags select conditional operations valid for the experiment:
    ``sigma_z`` for the 4- and 2-photon steps, ``r2`` (phase -pi/2) for the
    2- and 1-photon steps and ``r3`` (phase -pi/4) for the 1-photon step.

    Layer plan (8 layers, 28 cells, unused cells identity):

    ====== =====================================================
    layer  role
    ====== =====================================================
    0      balanced splitters on the input pairs
    1      crossings closing the preparation ring
    2, 3   phase encoding on each qubit's logical |1> rail
    4, 5   conditional sigma_z / R_l phases
    6      Hadamard layer (balanced splitter per measured pair)
    7      unused
    ====== =====================================================
    """
    if step not in STEP_IDS:
        raise ValueError(f"unknown step id {step!r}, expected one of {STEP_IDS}")
    pairs = logical_rail_pairs(n_qubits)
    if sigma_z and n_qubits == 1:
        raise ValueError("sigma_z is not a 1-photon control")
    if r2 and n_qubits == 4:
        raise ValueError("r2 is not a 4-photon control")
    if r3 and n_qubits != 1:
        raise ValueError("r3 is only a 1-photon control")

    settings: dict[tuple[int, int], tuple[float, float]] = {
        coord: (math.pi, math.pi) for coord in rectangular_layout(PROCESSOR_MODES)
    }

    # Preparation: splitters on the input pairs, crossings closing the ring.
    for k in range(n_qubits):
        settings[(0, 2 * k)] = (math.pi / 2, 0.0)
    if n_qubits == 2:
        settings[(1, 1)] = (0.0, math.pi)
    elif n_qubits == 4:
        settings[(1, 1)] = (0.0, 0.0)
        settings[(1, 3)] = (0.0, math.pi)
        settings[(1, 5)] = (0.0, 0.0)
    # The crossing phases are fixed so both surviving branches carry equal
    # amplitude, giving (|0...0> + |1...1>)/sqrt(2) with a plus sign.

    if step == "full":
        # Phase encoding on each logical |1> rail: a bar cell with
        # phi = pi + x applies exp(i x) to its top mode only.
        for _, rail1 in pairs:
            layer = 3 if rail1 % 2 else 2
            settings[(layer, rail1)] = (math.pi, math.pi + phase)

        # Conditional phases on the informative qubit of each experiment.
        if n_qubits == 4:
            cond = math.pi if sigma_z else 0.0
            settings[(4, 6)] = (math.pi, math.pi + cond)
        elif n_qubits == 2:
            cond = (math.pi if sigma_z else 0.0) + (-math.pi / 2 if r2 else 0.0)
            settings[(4, 2)] = (math.pi, math.pi + cond)
        else:
            cond = (-math.pi / 2 if r2 else 0.0) + (-math.pi / 4 if r3 else 0.0)
            settings[(5, 1)] = (math.pi, math.pi + cond)

        # Hadamard layer; inverted qubits (logical 0 on the odd rail) need
        # phi = pi so rail clicks reproduce the X-basis statistics.
        for k, (rail0, _) in enumerate(pairs):
            inverted = rail0 % 2 == 1
            settings[(6, 2 * k)] = (math.pi / 2, math.pi if inverted else 0.0)

    cells = tuple(
        MZCell(layer, top, *settings[(layer, top)])
        for (layer, top) in rectangular_layout(PROCESSOR_MODES)
    )
    return MeshProgram(PROCESSOR_MODES, cells)
