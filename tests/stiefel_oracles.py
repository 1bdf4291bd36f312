"""Test oracles for the Stiefel ascent: the objective and gradient written
product by product, as they were before ``stiefel`` grouped them on one
kernel, the QR retraction through numpy's ``qr``, which ``stiefel.retract``
computes as Cholesky-QR, and a manifold curve whose
second-order Taylor term ``stiefel.hessian_apply`` must reproduce."""

from __future__ import annotations

import numpy as np

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
