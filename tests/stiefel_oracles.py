"""Test oracle for the closed-form Stiefel Hessian: a manifold curve whose
second-order Taylor term ``stiefel.hessian_apply`` must reproduce."""

from __future__ import annotations

import numpy as np


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
