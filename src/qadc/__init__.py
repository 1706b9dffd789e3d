"""Digital phase estimation on a programmable 8-mode photonic processor.

Desk-scale simulator for a three-stage (4-, 2-, 1-photon) digital
phase-estimation protocol on a rectangular Mach-Zehnder mesh, together with
the classical interferometric baseline, mutual-information analysis and a
from-scratch neural refinement stack (denoising autoencoder plus phase
regressor).
"""

from qadc.linop import (
    MZCell,
    MeshProgram,
    build_step_program,
    cell_unitary,
    mesh_unitary,
    permanent,
    perturb_program,
)
from qadc.photonics import (
    GramMatrix,
    PhotonEnsemble,
    SourceModel,
    DualRailState,
    g2_to_probs,
    oracle_full_state,
    output_probability,
    postselect_dualrail,
    state_fidelity,
    uniform_gram,
)

__version__ = "0.1.0"
