"""Shared helpers: independent oracles and random-instance generators."""

from itertools import permutations

import numpy as np
import pytest

from qadc.photonics import GramMatrix


def naive_permanent(matrix) -> complex:
    """Reference n!-sum permanent, independent of the Ryser implementation."""
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    if n == 0:
        return complex(1.0)
    return complex(
        sum(np.prod([m[i, p[i]] for i in range(n)]) for p in permutations(range(n)))
    )


def distribution_dict(counts, probs) -> dict:
    """``{count pattern: probability}`` view of a (counts, probs) distribution, in row order."""
    return {tuple(int(c) for c in row): float(p) for row, p in zip(counts, probs)}


def dense_probabilities(cum_probs):
    """Accepted probability of every outcome code from a step's cumulative distribution."""
    return np.diff(cum_probs, prepend=0.0)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase fixing."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :].conj()


def random_gram(n: int, rng: np.random.Generator) -> GramMatrix:
    """Random valid (complex, full-rank) Gram matrix with unit diagonal."""
    z = rng.normal(size=(n, n + 2)) + 1j * rng.normal(size=(n, n + 2))
    z /= np.linalg.norm(z, axis=1)[:, None]
    return GramMatrix(z @ z.conj().T)


@pytest.fixture
def rng():
    return np.random.default_rng(20250811)
