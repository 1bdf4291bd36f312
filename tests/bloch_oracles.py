"""Test oracle for the qubit reachable-set sampler: the closed-form affine
Bloch generator of the damped qubit, written out by hand.  The sampler
derives the same flow from ``lindblad.affine_generator``; this form checks
it."""

from __future__ import annotations

import numpy as np

from oqctrl.core import STRUCTURAL_TOL
from oqctrl.lindblad import SystemModel


def qubit_bloch_generator(system: SystemModel, gamma: float, u, n) -> tuple[np.ndarray, np.ndarray]:
    """Affine Bloch-picture generator dr/dt = A r + b of the damped qubit.

    Expects the two-level model of ``lindblad.qubit_system`` (energies
    (0, omega), dipole mu sigma_x) with transition coupling ``gamma`` and
    downward / upward rates ``gamma (n + 1)`` / ``gamma n``:

        A = [[-G/2,   w,      0   ],          b = (0, 0, gamma)
             [ -w,   -G/2,  -2 mu u],
             [  0,   2 mu u,  -G  ]],   G = gamma (2 n + 1).

    ``u`` and ``n`` broadcast against each other; for arrays of shape S the
    results stack to shapes S + (3, 3) and S + (3,).
    """
    assert system.dim == 2 and gamma > 0
    u, n = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(n, dtype=float))
    v = system.dipole
    assert max(abs(v[0, 0]), abs(v[1, 1]), abs(v[0, 1].imag)) <= STRUCTURAL_TOL, "dipole must be mu sigma_x"
    mu = float(v[0, 1].real)
    omega = float(system.energies[1] - system.energies[0])
    big_g = gamma * (2.0 * n + 1.0)
    a = np.zeros(u.shape + (3, 3))
    a[..., 0, 0] = a[..., 1, 1] = -0.5 * big_g
    a[..., 0, 1], a[..., 1, 0] = omega, -omega
    a[..., 1, 2], a[..., 2, 1] = -2.0 * mu * u, 2.0 * mu * u
    a[..., 2, 2] = -big_g
    b = np.zeros(u.shape + (3,))
    b[..., 2] = gamma
    return a, b
