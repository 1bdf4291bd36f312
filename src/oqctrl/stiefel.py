r"""Channel optimization over the complex Stiefel manifold.

A trace-preserving Kraus set ``{K_1 .. K_{N^2}}`` stacks into the N^3 x N
matrix ``S = [K_1; ...; K_{N^2}]`` with ``S^dag S = I_N``, a point of the
complex Stiefel manifold.  The expectation of an observable after the
channel,

    J(S) = Tr[S rho S^dag (I \otimes O)],

is maximized by retraction-based gradient ascent.  Gradient and Hessian are
evaluated in closed form; the ambient metric is Re Tr(X^dag Y).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .core import (STIEFEL_STEP_CAP, STIEFEL_STEP_FLOOR, STIEFEL_STEP_UNDERFLOW,
                   DimensionMismatchError, ascent, herm, kraus_constraint_residual,
                   require_finite, run_lockstep, run_multistart, validate_density)
from .lindblad import VALIDATION_TOL

STIEFEL_TOL = 1e-10
GAP_TOL = 1e-12  # converged once the bound on J minus J <= GAP_TOL max(1, ||O||_2)
TANGENCY_TOL = 1e-8  # largest |S^dag dS + dS^dag S| of a tangent vector
# critical-point classification: Rayleigh samples from a fixed seed, the
# curvature band counted as flat, and the largest gradient norm of a critical point
CLASSIFY_SAMPLES = 200
CURVATURE_TOL = 1e-7
CRITICAL_GRAD_TOL = 1e-6


def _check_point(s: np.ndarray) -> int:
    if s.ndim != 2:
        raise DimensionMismatchError("Stiefel point must be a matrix")
    n = s.shape[1]
    if s.shape[0] != n**3:
        raise DimensionMismatchError(f"expected an N^3 x N matrix, got {s.shape}")
    return n


def stiefel_residual(s: np.ndarray) -> float:
    """Frobenius norm of S^dag S - I."""
    n = _check_point(s)
    return float(np.linalg.norm(s.conj().T @ s - np.eye(n)))


def tangency_residual(s: np.ndarray, delta: np.ndarray) -> float:
    """Frobenius norm of S^dag dS + dS^dag S."""
    w = s.conj().T @ delta
    return float(np.linalg.norm(w + w.conj().T))


def stiefel_from_kraus(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Stack a Kraus set (padded with zero blocks to N^2 operators)."""
    if len(kraus) == 0:
        raise ValueError("empty Kraus operator list")
    n = np.asarray(kraus[0]).shape[0]
    if len(kraus) > n**2:
        raise ValueError(f"at most {n**2} Kraus operators fit an N={n} channel")
    residual = kraus_constraint_residual(kraus)
    if residual > STIEFEL_TOL:
        raise ValueError(f"Kraus constraint residual {residual:.3e} exceeds {STIEFEL_TOL:.3e}")
    s = np.zeros((n**3, n), dtype=complex)
    for i, k in enumerate(kraus):
        s[i * n : (i + 1) * n, :] = np.asarray(k, dtype=complex)
    return s


def kraus_from_stiefel(s: np.ndarray) -> list[np.ndarray]:
    """Unstack a Stiefel point into its N^2 Kraus blocks."""
    n = _check_point(s)
    return [s[i * n : (i + 1) * n, :].copy() for i in range(n**2)]


def random_stiefel(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random point: QR orthonormalization of a Gaussian matrix."""
    z = rng.standard_normal((n**3, n)) + 1j * rng.standard_normal((n**3, n))
    q, _ = np.linalg.qr(z)
    return q


def _lifted(observable: np.ndarray, x: np.ndarray) -> np.ndarray:
    r"""(I \otimes O) X, block by block: O times each N-row block of X.

    One GEMM of O with the N x N^3 "wide" matrix [X_1 ... X_{N^2}] saves at
    most about 8 us a call at N = 6, and the 8 starts of an N = 6
    :func:`maximize` run make about 170 calls in all, so the batched product
    stays."""
    n = x.shape[1]
    return (observable @ x.reshape(-1, n, n)).reshape(x.shape)


def _operands(s: np.ndarray, rho, observable) -> tuple[np.ndarray, np.ndarray]:
    """rho and the observable as finite complex arrays, checked against the point."""
    n = _check_point(s)
    r = require_finite(np.asarray(rho, dtype=complex), "rho")
    o = require_finite(np.asarray(observable, dtype=complex), "observable")
    if r.shape != (n, n) or o.shape != (n, n):
        raise DimensionMismatchError("state/observable dimensions do not match the point")
    return r, o


def _products(s: np.ndarray, r: np.ndarray, o: np.ndarray):
    r"""The products J and its gradient share: J = Re Tr(W rho), OS = (I \otimes O) S
    and W = S^dag OS (N x N)."""
    os_ = _lifted(o, s)
    w = s.conj().T @ os_
    return float(np.trace(w @ r).real), os_, w


def _gradient(s: np.ndarray, r: np.ndarray, os_: np.ndarray, w: np.ndarray) -> np.ndarray:
    """2 OS rho - S(W rho + rho W) from the products of :func:`_products`."""
    return 2.0 * (os_ @ r) - s @ (w @ r + r @ w)


def objective(s: np.ndarray, rho, observable) -> float:
    r"""J(S) = Tr[S rho S^dag (I \otimes O)]."""
    return _products(s, *_operands(s, rho, observable))[0]


def gradient(s: np.ndarray, rho, observable) -> np.ndarray:
    r"""Ambient gradient (2I - S S^dag)(I \otimes O) S rho - S rho S^dag (I \otimes O) S.

    Under the metric Re Tr(X^dag Y) this equals the tangent projection of the
    unconstrained gradient, so it is tangent up to roundoff; directional
    derivatives along tangent vectors are Re <gradient, dS>.  It is evaluated
    as 2 OS rho - S(W rho + rho W) with OS = (I \otimes O) S and W = S^dag OS,
    the same expression grouped, for any S.
    """
    r, o = _operands(s, rho, observable)
    _, os_, w = _products(s, r, o)
    return _gradient(s, r, os_, w)


def hessian_apply(s: np.ndarray, delta: np.ndarray, rho, observable) -> np.ndarray:
    """Closed-form Hessian action on a tangent vector (ambient output).

    The quadratic form Re <dS, hessian_apply(S, dS)> equals the second
    derivative of J along manifold curves at critical points of J (where it
    is curve-independent); away from criticality it matches curves whose
    initial acceleration averages the embedded-geodesic and canonical-geodesic
    ones.  Linear in ``delta``.
    """
    n = _check_point(s)
    if delta.shape != s.shape:
        raise DimensionMismatchError("tangent vector shape does not match the point")
    res = tangency_residual(s, delta)
    if res > TANGENCY_TOL:
        raise ValueError(f"delta is not tangent (residual {res:.3e})")
    r = np.asarray(rho, dtype=complex)
    o = np.asarray(observable, dtype=complex)
    os_, od = _lifted(o, s), _lifted(o, delta)
    sd = s.conj().T
    dd = delta.conj().T
    return (
        2.0 * od @ r
        - delta @ sd @ os_ @ r
        - delta @ r @ sd @ os_
        - s @ sd @ od @ r
        + s @ sd @ delta @ sd @ os_ @ r
        - s @ r @ dd @ os_
        + os_ @ r @ dd @ s
    )


def project_tangent(s: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Tangent projection Z - S herm(S^dag Z); idempotent."""
    _check_point(s)
    if z.shape != s.shape:
        raise DimensionMismatchError("ambient matrix shape does not match the point")
    return z - s @ herm(s.conj().T @ z)


def retract(s: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Thin-QR retraction of X = S + step with the R diagonal made positive,
    computed as Cholesky-QR: X^dag X = R^dag R and Q = X R^-1.  For a tangent
    step X^dag X = I + step^dag step >= I, so the ascent never meets an
    ill-conditioned factorization.  The Gram matrix squares X's condition
    number, so a failed factorization or a squared pivot below
    1e-14 ||X||_F^2 counts as rank deficient (rounding left at most 4.4 eps
    on 6000 rank-deficient sums, N = 2..6)."""
    _check_point(s)
    if step.shape != s.shape:
        raise DimensionMismatchError("step shape does not match the point")
    x = s + step
    gram = np.dot(x.T, x.conj())  # conj(X^dag X), whose lower Cholesky factor is R^T
    try:
        r = np.linalg.cholesky(gram).T
        # pivots and ||X||_F^2 = Tr(gram) as Python floats: the cheapest test
        if min(r.diagonal().real.tolist()) ** 2 >= 1e-14 * sum(gram.diagonal().real.tolist()):
            return np.dot(x, np.linalg.inv(r))
    except np.linalg.LinAlgError:
        pass
    raise ValueError("S + step is rank deficient; retraction undefined")


@dataclass
class OptimizationReport:
    """Result of a single gradient-ascent run; ``gap`` is the attainable
    maximum of J (see :func:`maximize`) minus J at the final point."""

    iterations: int
    objective_value: float
    objective_history: np.ndarray
    gradient_norms: np.ndarray
    steps: np.ndarray
    converged: bool
    point: np.ndarray
    gap: float
    stalled: bool = False
    stall_message: str = ""


def _metric(r: np.ndarray):
    """What the ascent needs of rho, from one ``eigh`` of herm(rho): its
    eigenvalues lam and eigenvectors V, the projector Pi onto its support
    (eigenvalues at or below N eps lambda_max(rho) count as zero) and the
    coefficients c_ik = 2(l_k - l_i)/(l_i + l_k) of :func:`_direction`, with
    l the eigenvalues set to zero off the support and c = 0 where both are
    zero, so that |c_ik| <= 2."""
    lam, v = np.linalg.eigh(herm(r))
    keep = lam > r.shape[0] * np.finfo(float).eps * max(lam[-1], 0.0)
    pi = v[:, keep] @ v[:, keep].conj().T
    kept = np.where(keep, lam, 0.0)
    total = kept[:, None] + kept[None, :]
    c = 2.0 * (kept[None, :] - kept[:, None]) / np.where(total > 0, total, 1.0)
    return lam, v, pi, c


def _direction(s: np.ndarray, g: np.ndarray, os_: np.ndarray, w: np.ndarray,
               metric: tuple) -> tuple[np.ndarray, float]:
    r"""The ascent direction D and its slope Re <G, D> >= 0.

    D is the Riemannian gradient of J under the metric Re Tr(X^dag Y rho) of
    Mishra and Sepulchre, taken on rho's support: Re Tr(D^dag X rho) =
    Re <G, X> for every tangent X.  Its normal part (I - S S^dag) G rho^+ is
    written 2(OS - S W) Pi, so that no eigenvalue of rho divides anything,
    and its part S A inside the span of S solves (A rho + rho A)/2 = S^dag G
    = W rho - rho W, that is A = V (c o V^dag W V) V^dag.  Both parts are
    bounded by the observable, whatever rho's small eigenvalues."""
    _, v, pi, c = metric
    vh = v.conj().T
    a = v @ (c * (vh @ w @ v)) @ vh
    d = 2.0 * (os_ @ pi) + s @ (a - 2.0 * (w @ pi))
    return d, float(np.vdot(g, d).real)


def maximize(
    rho,
    observable,
    max_iter: int = 2000,
    grad_tol: float = 1e-8,
    seed: int | None = 0,
) -> OptimizationReport:
    """Riemannian ascent of J over the Stiefel manifold for a density ``rho``.

    The step goes along the preconditioned direction of :func:`_direction`,
    the Riemannian gradient under the metric Re Tr(X^dag Y rho) (Mishra and
    Sepulchre, SIAM J. Optim. 26, 635 (2016)): the gradient carries a right
    factor rho, so along rho's small eigen-directions it is small and plain
    gradient ascent crawls there; the metric undoes that factor on rho's
    support, and stays bounded however small rho's kept eigenvalues are.
    The line search is :func:`oqctrl.core.ascent` with the slope Re <G, D>,
    the QR retraction as its move (a rank-deficient one is a failed trial)
    and the Barzilai-Borwein step from the change of D.  Each trial point is
    evaluated by one :func:`_products` call, whose J, OS and W an accepted
    trial hands to its gradient.  The gradient is used without a tangent
    projection (at a point with S^dag S = I, S^dag G = W rho - rho W is
    anti-Hermitian).

    ``rho`` must be a density to ``lindblad.VALIDATION_TOL`` (else
    ValueError).  J is at most lambda_max(herm O) Tr(rho) (with rho's
    negative eigenvalues, if any, weighted by lambda_min), so ``gap``, that
    bound minus J, is an optimality certificate.  A run has converged when
    its gap is at most ``GAP_TOL`` max(1, ||herm O||_2) + |w_-| (lambda_max
    - lambda_min)(herm O), w_- being rho's negative weight (the direction
    leaves the columns on rho's negative eigen-directions alone, so J can
    stop that far below the bound), or its gradient norm is below
    ``grad_tol``; ``grad_tol`` = 0 turns both stops off.  A line-search
    underflow (as when J sits at its floating-point maximum and no stop has
    fired) ends the run with ``stalled=True`` and a diagnostic message.
    """
    if require_finite(max_iter, "max_iter") < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")
    require_finite(grad_tol, "grad_tol")
    r = np.asarray(rho, dtype=complex)
    s = random_stiefel(r.shape[0], np.random.default_rng(seed))
    r, o = _operands(s, r, observable)
    # the gap certificate and the sign of the slope hold only for a density
    report = validate_density(r, VALIDATION_TOL)
    if not report.ok:
        raise ValueError(f"rho is not a density matrix ({report.worst})")
    metric = _metric(r)
    # J <= the attainable maximum, lambda_max(herm O) times rho's positive
    # weight plus lambda_min(herm O) times its negative weight
    spectrum = np.linalg.eigvalsh(herm(o))
    lam = metric[0]
    negative = float(lam[lam < 0].sum())
    bound = float(spectrum[-1] * lam[lam > 0].sum() + spectrum[0] * negative)
    gap_tol = (GAP_TOL * max(1.0, float(np.abs(spectrum).max()))
               - negative * float(spectrum[-1] - spectrum[0]))

    def move(x, t, d):
        try:
            return retract(x, t * d)
        except ValueError:  # a trial too long to orthonormalize fails like any other
            return None

    def trials(rows, points):
        return [(products[0], products) for products in (_products(p, r, o) for p in points)]

    def iterates(rows, points, auxes):
        [s], [aux] = points, auxes
        j, os_, w = aux or _products(s, r, o)
        g = _gradient(s, r, os_, w)
        gnorm = float(np.linalg.norm(g))
        if grad_tol > 0 and (bound - j <= gap_tol or gnorm < grad_tol):
            return [(j, None, 0.0, None, gnorm, True)]
        d, slope = _direction(s, g, os_, w, metric)
        return [(j, d, slope, d, gnorm, False)]

    [run] = run_lockstep(
        [ascent(s, 1.0, move, max_iter, STIEFEL_STEP_CAP, STIEFEL_STEP_FLOOR, STIEFEL_STEP_UNDERFLOW)],
        trials, iterates,
    )
    return OptimizationReport(run.iterations, run.value, run.history, run.gradient_norms, run.steps,
                              run.converged, run.point, bound - run.value, bool(run.message), run.message)


def _maximize_block(rho, observable, kwargs: dict, seeds) -> list[OptimizationReport]:
    return [maximize(rho, observable, seed=s, **kwargs) for s in seeds]


def multistart_maximize(
    rho, observable, starts: int, seed: int = 0, workers: int = 1, **kwargs
) -> list[OptimizationReport]:
    """Independent :func:`maximize` runs, one per child seed of ``seed``
    (see :func:`oqctrl.core.run_multistart`); independent of ``workers``.
    The runs stay one at a time: the fused kernel works on dense N^3 x N
    points, so call overhead is a small share of a run.  A lock-step
    prototype that stacked the 8 starts of an N = 6 ascent ran within the
    timing spread of the per-start loop, and its stacked products made a
    start's result depend on its batch, so stacking the runs does not pay."""
    return run_multistart(partial(_maximize_block, rho, observable, kwargs), starts, seed, workers)


def classify_critical_point(s: np.ndarray, rho, observable) -> str:
    """Signature of the Hessian at a critical point by Rayleigh sampling.

    Draws ``CLASSIFY_SAMPLES`` random unit tangent directions and inspects
    the quotients Re <dS, Hess dS>: all below ``CURVATURE_TOL`` means a
    maximum, all above ``-CURVATURE_TOL`` a minimum, mixed signs a saddle, and
    everything inside that band is flat to within tolerance
    ("indefinite-tolerance").
    """
    _check_point(s)
    g = project_tangent(s, gradient(s, rho, observable))
    gnorm = float(np.linalg.norm(g))
    if gnorm >= CRITICAL_GRAD_TOL:
        raise ValueError(f"not a critical point: tangent gradient norm {gnorm:.3e}")
    rng = np.random.default_rng(0)
    quotients = np.empty(CLASSIFY_SAMPLES)
    for k in range(CLASSIFY_SAMPLES):
        z = rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape)
        d = project_tangent(s, z)
        d /= np.linalg.norm(d)
        h = hessian_apply(s, d, rho, observable)
        quotients[k] = float(np.real(np.sum(d.conj() * h)))
    if np.all(np.abs(quotients) <= CURVATURE_TOL):
        return "indefinite-tolerance"
    if np.all(quotients <= CURVATURE_TOL):
        return "maximum"
    if np.all(quotients >= -CURVATURE_TOL):
        return "minimum"
    return "saddle"
