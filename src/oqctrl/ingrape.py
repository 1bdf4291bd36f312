"""Gradient optimization of piecewise-constant coherent/incoherent pulses.

State-transfer runs maximize Tr[rho(T) O]; gate runs minimize a process
infidelity 1 - F with

    F = Tr[Choi(Phi) Choi(U)] / N^2,

Choi matrices normalized to trace N, which is phase-insensitive and equals 1
exactly when the channel implements the target unitary.  Both objectives are
linear in the end-to-end superoperator, so exact gradients follow from the
adjoint (forward/backward) decomposition with Frechet derivatives of the
per-segment matrix exponentials.  Each segment needs one Van Loan block
[[A, lam^T], [0, A]] with the adjoint lam^T in the corner: by the identity
sum(lam o L(A, E)) = sum(L(A, lam^T)^T o E) for the Frechet derivative L,
its top-right block gives the derivative along both the coherent and the
incoherent direction (see :func:`grape_gradient`).

Superoperators here act on the real coordinates of Hermitian matrices in the
orthonormal basis of :func:`core.hermitian_basis`, where a GKSL generator is
a real matrix, so every stack exponential is real.  The descent keeps the
forward pass of the line-search trial it accepts, and the gradient at the
new iterate reuses its segment propagators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg import expm

from .core import (
    ARMIJO_C,
    BACKTRACK,
    PULSE_STEP_CAP,
    PULSE_STEP_UNDERFLOW,
    DimensionMismatchError,
    hermitian_basis,
    run_multistart,
    spectral_step,
    vec,
)
# build_liouvillian: perfbench's test_tracer_rebinds_imported_names_and_restores_them calls it here
from .lindblad import DecoherenceModel, SystemModel, affine_generator, build_liouvillian


@dataclass(frozen=True)
class ControlVector:
    """Flattened pulse parameters (u_1..u_M, n_1..n_M) on a uniform grid."""

    u: np.ndarray
    n: np.ndarray
    dt: float

    def __post_init__(self):
        uu = np.atleast_1d(np.asarray(self.u, dtype=float))
        nn = np.atleast_1d(np.asarray(self.n, dtype=float))
        if uu.shape != nn.shape or uu.ndim != 1:
            raise DimensionMismatchError("u and n must be equal-length vectors")
        if np.any(nn < 0):
            raise ValueError("incoherent controls must be nonnegative")
        if not (np.all(np.isfinite(uu)) and np.all(np.isfinite(nn)) and np.isfinite(self.dt)):
            raise ValueError("controls must be finite")
        if self.dt <= 0 and uu.size > 0:
            raise ValueError("segment duration must be positive")
        object.__setattr__(self, "u", uu)
        object.__setattr__(self, "n", nn)

    @property
    def n_segments(self) -> int:
        return self.u.size


@dataclass(frozen=True, kw_only=True)
class PulseProblem:
    """Pulse grid, control bounds and models shared by both problem kinds.

    Both controls enter the GKSL generator linearly,

        L(u, n) = L0 + u Du + n Dn,

    so the triple is built once per problem (at construction) and every segment
    generator is one broadcast away.  The cache lives in the instance
    ``__dict__`` and travels with the problem when it is pickled.  Each kind
    defines ``pairing`` = (offset, sign, P) with objective
    = offset + sign * sum(P * G) on the end-to-end superoperator G, both
    real in Hermitian coordinates; the sign, exactly +1 or -1, is also the
    direction of improvement.
    """

    system: SystemModel
    decoherence: DecoherenceModel
    n_segments: int
    dt: float
    u_bounds: tuple[float, float] = (-1.0, 1.0)
    n_max: float = 1.0

    def __post_init__(self):
        if self.u_bounds[0] >= self.u_bounds[1]:
            raise ValueError("u bounds must satisfy u_min < u_max")
        if self.n_max < 0:
            raise ValueError("n_max must be nonnegative")
        # built now, so a dipole that is Hermitian only to a tolerance above
        # roundoff fails at construction, not in the first evaluation
        self.affine_generator

    @cached_property
    def affine_generator(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (L0, Du, Dn) of :func:`lindblad.affine_generator`, once per problem."""
        return affine_generator(self.system, self.decoherence)

    def _real_pairing(self, pairing: np.ndarray) -> np.ndarray:
        """Re(conj(T) P T^T): sum(P o G) for G in column-stacked coordinates
        equals sum(conj(T) P T^T o T G T^dag), and the propagator T G T^dag
        is real."""
        t = hermitian_basis(self.system.dim)
        return np.ascontiguousarray(np.real(t.conj() @ pairing @ t.T))


@dataclass(frozen=True, kw_only=True)
class StateTransferProblem(PulseProblem):
    """Maximize the expectation of ``observable`` at the horizon."""

    rho0: np.ndarray
    observable: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho0", np.asarray(self.rho0, dtype=complex))
        object.__setattr__(self, "observable", np.asarray(self.observable, dtype=complex))
        super().__post_init__()

    @cached_property
    def pairing(self) -> tuple[float, float, np.ndarray]:
        return 0.0, 1.0, self._real_pairing(np.outer(vec(self.observable).conj(), vec(self.rho0)))


@dataclass(frozen=True, kw_only=True)
class GateProblem(PulseProblem):
    """Minimize the process infidelity against a target unitary."""

    target: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.target, dtype=complex)
        n = u.shape[0]
        if u.shape != (n, n) or np.linalg.norm(u.conj().T @ u - np.eye(n)) > 1e-12:
            raise ValueError("target must be unitary to 1e-12")
        object.__setattr__(self, "target", u)
        super().__post_init__()

    @cached_property
    def pairing(self) -> tuple[float, float, np.ndarray]:
        return 1.0, -1.0, self._real_pairing(_gate_pairing(self.target))


def choi_of_unitary(u: np.ndarray) -> np.ndarray:
    n = u.shape[0]
    choi = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            choi += np.kron(e, u @ e @ u.conj().T)
    return choi


def _gate_pairing(target: np.ndarray) -> np.ndarray:
    """Matrix P with Tr[Choi(G) Choi(U)] / N^2 = sum_ab P[a,b] G[a,b].

    Under column stacking P = kron(U, conj(U)) / N^2: entry
    (l N + k, j N + i) is U[l, j] conj(U[k, i]) / N^2.
    """
    n = target.shape[0]
    return np.kron(target, target.conj()) / n**2


def _segment_generators(problem: PulseProblem, controls: ControlVector) -> np.ndarray:
    """All M segment generators L0 + u_m Du + n_m Dn in one broadcast."""
    l0, du, dn = problem.affine_generator
    return l0 + controls.u[:, None, None] * du + controls.n[:, None, None] * dn


class ForwardPass(NamedTuple):
    """One pulse's forward pass: the segment exponents A_k = dt L_k, their
    propagators G_k = exp(A_k), the forward products forward[k] =
    G_{k-1} ... G_0 (k = 0..M, so forward[M] is the end-to-end
    superoperator) and the objective value there."""

    value: float
    exponents: np.ndarray
    segments: np.ndarray
    forward: np.ndarray


def forward_pass(controls: ControlVector, problem: PulseProblem) -> ForwardPass:
    """The forward pass of ``controls``: one stack exponential of the M
    segment generators and the M forward products."""
    offset, sign, pairing = problem.pairing
    exponents = _segment_generators(problem, controls) * controls.dt
    segments = expm(exponents)
    forward = np.empty((controls.n_segments + 1,) + pairing.shape)
    forward[0] = np.eye(pairing.shape[0])
    for k, g in enumerate(segments):
        forward[k + 1] = g @ forward[k]
    value = offset + sign * float(np.sum(pairing * forward[-1]))
    return ForwardPass(value, exponents, segments, forward)


def objective_value(controls: ControlVector, problem: PulseProblem) -> float:
    """Tr[rho(T) O] for state transfer; 1 - Tr[Choi(Phi) Choi(U)]/N^2, in
    [0, 1] and 0 iff the pulse implements the target up to global phase, for
    a gate."""
    return forward_pass(controls, problem).value


def grape_gradient(
    controls: ControlVector, problem: PulseProblem, trial: ForwardPass | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """Objective value and its exact gradient wrt (u_m, n_m).

    With segment k's exponent A_k = dt L_k, the forward products
    F_k = G_{k-1} ... G_0 and the backward products B_{k+1} = G_{M-1} ...
    G_{k+1}, a segment parameter with generator direction D moves the
    objective by sign * sum(lam_k o L(A_k, dt D)), where
    lam_k = B_{k+1}^T P F_k^T and L(A, E) is the Frechet derivative of the
    exponential.  Since L(A, E) = int_0^1 e^{sA} E e^{(1-s)A} ds and the
    trace is cyclic,

        sum(lam o L(A, E)) = sum(L(A, lam^T)^T o E),

    so one adjoint block exp([[A_k, lam_k^T], [0, A_k]]), whose top-right
    block is X_k = L(A_k, lam_k^T), gives both directions:
    g[k] = sign * dt * sum(X_k^T o D) for D = Du and D = Dn.  ``trial``, the
    :func:`forward_pass` of these same controls if the caller has it, saves
    the M segment propagators (d^2 x d^2); the M adjoint blocks
    (2d^2 x 2d^2) make the call's one stack exponential.
    """
    _, sign, pairing = problem.pairing
    if trial is None:
        trial = forward_pass(controls, problem)
    value, exponents, segments, forward = trial
    m, d2 = controls.n_segments, pairing.shape[0]
    backward = np.empty_like(forward)  # backward[k] = G_{M-1} ... G_k
    backward[m] = np.eye(d2)
    for k in range(m - 1, -1, -1):
        backward[k] = backward[k + 1] @ segments[k]

    blocks = np.zeros((m, 2 * d2, 2 * d2))
    blocks[:, :d2, :d2] = blocks[:, d2:, d2:] = exponents
    blocks[:, :d2, d2:] = forward[:m] @ pairing.T @ backward[1:]  # lam_k^T
    adjoint = expm(blocks)[:, :d2, d2:]
    _, du, dn = problem.affine_generator
    grad_u, grad_n = sign * controls.dt * np.einsum("kji,dij->dk", adjoint, np.stack([du, dn]))
    return value, grad_u, grad_n


@dataclass
class PulseRunResult:
    """Single optimization run: final pulse, objective trace, convergence."""

    controls: ControlVector
    objective_value: float
    objective_history: np.ndarray
    iterations: int
    converged: bool
    stalled: bool = False
    stall_message: str = ""


def _clip(u: np.ndarray, n: np.ndarray, dt: float, problem: PulseProblem) -> ControlVector:
    """The controls (u, n, dt) clipped into the problem's bounds."""
    lo, hi = problem.u_bounds
    return ControlVector(u=np.clip(u, lo, hi), n=np.clip(n, 0.0, problem.n_max), dt=dt)


def optimize_run(
    problem: PulseProblem,
    initial: ControlVector,
    max_iter: int = 1000,
    grad_tol: float = 1e-7,
) -> PulseRunResult:
    """Projected-gradient descent (ascent for state transfer) with Armijo
    backtracking and bound clipping; the objective history is monotone.

    From the second iteration on, each line search starts at the spectral
    (Barzilai-Borwein) step of the last accepted move in (u, n) and the
    change in gradient (:func:`oqctrl.core.spectral_step`), which makes this
    the spectral projected gradient method of Birgin, Martinez and Raydan
    (2000); twice the last accepted step is the fallback.  A line-search
    underflow (no step down to ``PULSE_STEP_UNDERFLOW`` satisfies the Armijo
    condition) ends the run with ``stalled=True`` and a diagnostic message.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")
    direction = problem.pairing[1]
    lo, hi = problem.u_bounds
    cur = _clip(initial.u, initial.n, initial.dt, problem)
    value, gu, gn = grape_gradient(cur, problem)
    history = [value]
    step = 1.0
    converged = False
    stalled = False
    stall_message = ""
    prev = None
    for it in range(1, max_iter + 1):
        if prev is not None:
            dx = np.concatenate([cur.u - prev[0].u, cur.n - prev[0].n])
            dg = np.concatenate([gu - prev[1], gn - prev[2]])
            step = spectral_step(dx, dg, step, PULSE_STEP_UNDERFLOW, PULSE_STEP_CAP)
        pu = direction * gu
        pn = direction * gn
        # drop components that push against an active bound
        pu[(cur.u >= hi) & (pu > 0)] = 0.0
        pu[(cur.u <= lo) & (pu < 0)] = 0.0
        pn[(cur.n >= problem.n_max) & (pn > 0)] = 0.0
        pn[(cur.n <= 0.0) & (pn < 0)] = 0.0
        gnorm2 = float(np.sum(pu**2) + np.sum(pn**2))
        if np.sqrt(gnorm2) < grad_tol:
            converged = True
            break
        t = step
        accepted = False
        while t >= PULSE_STEP_UNDERFLOW:
            cand = _clip(cur.u + t * pu, cur.n + t * pn, cur.dt, problem)
            trial = forward_pass(cand, problem)
            if direction * (trial.value - value) >= ARMIJO_C * t * gnorm2:
                accepted = True
                break
            t *= BACKTRACK
        if not accepted:
            stalled = True
            stall_message = (
                f"line search underflow at iteration {it}: "
                f"objective={value:.12g}, |grad|={np.sqrt(gnorm2):.3e}"
            )
            break
        prev = cur, gu, gn
        cur = cand
        value, gu, gn = grape_gradient(cur, problem, trial)
        history.append(value)
        step = min(t / BACKTRACK, PULSE_STEP_CAP)
    return PulseRunResult(
        controls=cur,
        objective_value=value,
        objective_history=np.array(history),
        iterations=it,
        converged=converged,
        stalled=stalled,
        stall_message=stall_message,
    )


@dataclass(frozen=True)
class ClusterReport:
    """1-D single-linkage clusters: split sorted values at gaps > gap_tol."""

    centers: np.ndarray
    counts: np.ndarray
    gap_tol: float

    @property
    def n_clusters(self) -> int:
        return self.centers.size


def cluster_report(values: Sequence[float], gap_tol: float) -> ClusterReport:
    if not gap_tol >= 0:
        raise ValueError(f"gap_tol must be >= 0, got {gap_tol!r}")
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.size == 0:
        raise ValueError("cannot cluster an empty value list")
    splits = np.where(np.diff(vals) > gap_tol)[0]
    groups = np.split(vals, splits + 1)
    centers = np.array([g.mean() for g in groups])
    counts = np.array([g.size for g in groups], dtype=int)
    return ClusterReport(centers=centers, counts=counts, gap_tol=gap_tol)


@dataclass
class LandscapeScan:
    """Multistart scan: per-run records plus a cluster summary."""

    initial_controls: list[ControlVector]
    final_values: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    final_controls: list[ControlVector]
    clusters: ClusterReport

    @property
    def best_value(self) -> float:
        return float(self.final_values.min())


def _random_controls(problem: PulseProblem, rng: np.random.Generator) -> ControlVector:
    lo, hi = problem.u_bounds
    return ControlVector(
        u=rng.uniform(lo, hi, problem.n_segments),
        n=rng.uniform(0.0, problem.n_max, problem.n_segments) if problem.n_max > 0
        else np.zeros(problem.n_segments),
        dt=problem.dt,
    )


def _scan_start(problem: PulseProblem, max_iter: int, grad_tol: float, seed: int):
    start = _random_controls(problem, np.random.default_rng(seed))
    return start, optimize_run(problem, start, max_iter=max_iter, grad_tol=grad_tol)


def optimize_pulse(
    problem: PulseProblem,
    starts: int,
    max_iter: int = 1000,
    seed: int = 0,
    grad_tol: float = 1e-7,
    gap_tol: float = 0.02,
    workers: int = 1,
) -> LandscapeScan:
    """Multistart pulse optimization with deterministic per-start seeds.

    Results are aggregated in start order and clustered on the sorted final
    values, so the scan is independent of worker scheduling.
    """
    outcomes = run_multistart(
        partial(_scan_start, problem, max_iter, grad_tol), starts, seed, workers
    )
    initials, results = map(list, zip(*outcomes))
    finals = np.array([r.objective_value for r in results])
    return LandscapeScan(
        initial_controls=initials,
        final_values=finals,
        converged=np.array([r.converged for r in results]),
        iterations=np.array([r.iterations for r in results]),
        final_controls=[r.controls for r in results],
        clusters=cluster_report(finals, gap_tol),
    )
