"""Digital phase estimation on a programmable 8-mode photonic processor.

Desk-scale simulator for a three-stage (4-, 2-, 1-photon) digital
phase-estimation protocol on a rectangular Mach-Zehnder mesh, together with
the classical interferometric baseline, mutual-information analysis and a
from-scratch neural refinement stack (denoising autoencoder plus phase
regressor).
"""
