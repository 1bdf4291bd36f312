"""Random Hermitian matrices, Kraus sets and unitaries for the tests (the
library draws only random densities, in ``core.random_density``)."""

from __future__ import annotations

import numpy as np

from oqctrl.core import herm


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return herm(a)


def random_kraus(n: int, n_ops: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random trace-preserving Kraus set via QR orthonormalization.

    The stacked (n_ops*n, n) block matrix is drawn Gaussian and
    orthonormalized, so the constraint holds to machine precision.
    """
    z = rng.standard_normal((n_ops * n, n)) + 1j * rng.standard_normal((n_ops * n, n))
    q, _ = np.linalg.qr(z)
    return [q[i * n : (i + 1) * n, :].copy() for i in range(n_ops)]


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
