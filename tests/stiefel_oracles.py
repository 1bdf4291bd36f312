"""Test oracles for the Stiefel ascent: the objective and gradient written
product by product, as they were before ``stiefel`` grouped them on one
kernel, the QR retraction through numpy's ``qr``, which ``stiefel.retract``
computes as Cholesky-QR, a manifold curve whose second-order Taylor term
``stiefel.hessian_apply`` must reproduce, and the plain gradient ascent that
``stiefel.maximize`` ran before it stepped along a preconditioned direction."""

from __future__ import annotations

import numpy as np

from oqctrl import stiefel
from oqctrl.core import (ARMIJO_C, BACKTRACK, STIEFEL_STEP_CAP, STIEFEL_STEP_FLOOR,
                         STIEFEL_STEP_UNDERFLOW, spectral_step)
from oqctrl.stiefel import _lifted as lifted


def objective(s: np.ndarray, rho: np.ndarray, observable: np.ndarray) -> float:
    r"""J(S) = Re Tr[S^dag (I \otimes O) S rho]."""
    return float(np.trace(s.conj().T @ lifted(observable, s) @ rho).real)


def gradient(s: np.ndarray, rho: np.ndarray, observable: np.ndarray) -> np.ndarray:
    r"""(2I - S S^dag)(I \otimes O) S rho - S rho S^dag (I \otimes O) S, with its
    six products of N^3 rows."""
    os_ = lifted(observable, s)
    osr = os_ @ rho
    return 2.0 * osr - s @ (s.conj().T @ osr) - s @ rho @ (s.conj().T @ os_)


def retract(s: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Thin QR of S + step by ``numpy.linalg.qr``, with R's diagonal made positive."""
    q, r = np.linalg.qr(s + step)
    d = np.diagonal(r)
    if np.any(np.abs(d) < 1e-14):
        raise ValueError("S + step is rank deficient; retraction undefined")
    return q * (d / np.abs(d))


def _polar(x: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(x.conj().T @ x)
    return x @ (v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T)


def hessian_curve(s: np.ndarray, delta: np.ndarray, t: float) -> np.ndarray:
    """Manifold curve through S with velocity ``delta`` whose second-order
    Taylor term matches ``stiefel.hessian_apply``.

    Implemented as the polar retraction of
    ``S + t dS + (t^2/4)(dS W - S W^2)`` with ``W = S^dag dS``; its initial
    acceleration is the average of the embedded-geodesic and
    canonical-geodesic accelerations, which is the curve family the
    closed-form Hessian differentiates along.  At critical points the
    quadratic model holds for any retraction.
    """
    w = s.conj().T @ delta
    correction = 0.25 * t * t * (delta @ w - s @ w @ w)
    return _polar(s + t * delta + correction)


def gradient_ascent(rho, observable, max_iter: int = 2000, grad_tol: float = 1e-8,
                    seed: int = 0) -> float:
    """The slow path: Armijo ascent along the gradient itself, with a
    Barzilai-Borwein trial step from the last move and gradient change, that
    ends when the gradient norm drops below ``grad_tol``, the line search
    underflows or ``max_iter`` is spent.  Returns the final J."""
    r = np.asarray(rho, dtype=complex)
    o = np.asarray(observable, dtype=complex)
    s = stiefel.random_stiefel(r.shape[0], np.random.default_rng(seed))
    j, os_, w = stiefel._products(s, r, o)
    step = stiefel.INITIAL_STEP
    s_prev = g_prev = None
    for _ in range(max_iter):
        g = stiefel._gradient(s, r, os_, w)
        gnorm = float(np.linalg.norm(g))
        if gnorm < grad_tol:
            break
        if g_prev is not None:
            step = spectral_step(s - s_prev, g - g_prev, step, STIEFEL_STEP_FLOOR, STIEFEL_STEP_CAP)
        t = step
        while t >= STIEFEL_STEP_UNDERFLOW:
            cand = stiefel.retract(s, t * g)
            j_cand, os_cand, w_cand = stiefel._products(cand, r, o)
            if j_cand >= j + ARMIJO_C * t * gnorm**2:
                break
            t *= BACKTRACK
        else:
            break
        s_prev, g_prev = s, g
        s, j, os_, w = cand, j_cand, os_cand, w_cand
        step = min(t / BACKTRACK, STIEFEL_STEP_CAP)
    return j
