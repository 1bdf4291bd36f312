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
a real matrix, so every stack exponential is real; each is one
:func:`core.expm_stack` call, which treats every slice alone.  The descent
keeps the forward pass of the line-search trial it accepts, and the gradient
at the new iterate reuses its segment propagators.  A multistart scan runs its
starts in lock-step: each line-search round exponentiates the segments of
every start still searching in one stack, and each round of accepted
iterates makes one adjoint stack for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple, Sequence

import numpy as np
# expm is unused here: perfbench's EXPM_CALLERS and its
# test_tracer_rebinds_imported_names_and_restores_them look it up in this module
from scipy.linalg import expm

from .core import (
    ARMIJO_C,
    BACKTRACK,
    PULSE_STEP_CAP,
    PULSE_STEP_UNDERFLOW,
    STRUCTURAL_TOL,
    DimensionMismatchError,
    expm_stack,
    hermitian_coordinates,
    require_finite,
    run_multistart,
    spectral_step,
    validate_density,
    vec,
)
# build_liouvillian: perfbench's test_tracer_rebinds_imported_names_and_restores_them calls it here
from .lindblad import VALIDATION_TOL, DecoherenceModel, SystemModel, affine_generator, build_liouvillian


@dataclass(frozen=True)
class ControlVector:
    """Flattened pulse parameters (u_1..u_M, n_1..n_M) on a uniform grid."""

    u: np.ndarray
    n: np.ndarray
    dt: float

    def __post_init__(self):
        uu = require_finite(np.atleast_1d(np.asarray(self.u, dtype=float)), "u")
        nn = require_finite(np.atleast_1d(np.asarray(self.n, dtype=float)), "n")
        require_finite(self.dt, "dt")
        if uu.shape != nn.shape or uu.ndim != 1:
            raise DimensionMismatchError("u and n must be equal-length vectors")
        if np.any(nn < 0):
            raise ValueError("incoherent controls must be nonnegative")
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
    defines ``pairing`` = (offset, sign, P), also built at construction, with
    objective = offset + sign * sum(P * G) on the end-to-end superoperator G,
    both real in Hermitian coordinates (P = T conj(P_c) T^dag for the
    column-stacked P_c); the sign, exactly +1 or -1, is also the direction
    of improvement.
    """

    system: SystemModel
    decoherence: DecoherenceModel
    n_segments: int
    dt: float
    u_bounds: tuple[float, float] = (-1.0, 1.0)
    n_max: float = 1.0

    def __post_init__(self):
        # zero segments is the zero horizon, whose objective is defined, but
        # there is nothing to optimize (optimize_starts rejects it)
        if self.n_segments < 0:
            raise ValueError(f"n_segments must be >= 0, got {self.n_segments!r}")
        for name in ("dt", "u_bounds", "n_max"):
            require_finite(getattr(self, name), name)
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt!r}")
        if self.u_bounds[0] >= self.u_bounds[1]:
            raise ValueError("u bounds must satisfy u_min < u_max")
        if self.n_max < 0:
            raise ValueError("n_max must be nonnegative")
        # built now, after the checks above, so that Hermiticity only to a
        # tolerance above roundoff fails at construction, not in an evaluation
        self.affine_generator
        self.pairing

    @cached_property
    def affine_generator(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (L0, Du, Dn) of :func:`lindblad.affine_generator`, once per problem."""
        return affine_generator(self.system, self.decoherence)

    def _square(self, name: str) -> np.ndarray:
        """Field ``name`` as a finite complex matrix of the system's dimension."""
        m, d = require_finite(np.asarray(getattr(self, name), dtype=complex), name), self.system.dim
        if m.shape != (d, d):
            raise DimensionMismatchError(f"{name} must be {d} x {d}, got shape {m.shape}")
        object.__setattr__(self, name, m)
        return m


@dataclass(frozen=True, kw_only=True)
class StateTransferProblem(PulseProblem):
    """Maximize the expectation of ``observable`` at the horizon."""

    rho0: np.ndarray
    observable: np.ndarray

    def __post_init__(self):
        report = validate_density(self._square("rho0"), VALIDATION_TOL)
        if not report.ok:
            raise ValueError(f"rho0 is not a density matrix ({report.worst})")
        o = self._square("observable")
        if np.max(np.abs(o - o.conj().T)) > STRUCTURAL_TOL:
            raise ValueError("observable must be Hermitian")
        super().__post_init__()

    @cached_property
    def pairing(self) -> tuple[float, float, np.ndarray]:
        pairing = np.outer(vec(self.observable).conj(), vec(self.rho0))
        return 0.0, 1.0, hermitian_coordinates(pairing.conj())


@dataclass(frozen=True, kw_only=True)
class GateProblem(PulseProblem):
    """Minimize the process infidelity against a target unitary."""

    target: np.ndarray

    def __post_init__(self):
        u = self._square("target")
        if np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])) > 1e-12:
            raise ValueError("target must be unitary to 1e-12")
        super().__post_init__()

    @cached_property
    def pairing(self) -> tuple[float, float, np.ndarray]:
        return 1.0, -1.0, hermitian_coordinates(_gate_pairing(self.target).conj())


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


class ForwardPass(NamedTuple):
    """The forward passes of k pulses, each field with a leading start axis:
    the values, the segment exponents A_j = dt L_j, their propagators
    G_j = exp(A_j) and the forward products forward[:, j] = G_{j-1} ... G_0
    (j = 0..M, so forward[:, M] is the end-to-end superoperator)."""

    value: np.ndarray
    exponents: np.ndarray
    segments: np.ndarray
    forward: np.ndarray


def forward_stack(problem: PulseProblem, u: np.ndarray, n: np.ndarray, dt: np.ndarray) -> ForwardPass:
    """The forward passes of the k pulses with controls ``u``, ``n`` (k x M)
    and segment durations ``dt`` (k,): every segment generator
    L0 + u Du + n Dn in one broadcast, one :func:`core.expm_stack` of the
    k M exponents and the M forward products of all k pulses.  Each pulse's
    result is bit for bit the same whatever else is in the stack."""
    offset, sign, pairing = problem.pairing
    l0, du, dn = problem.affine_generator
    (k, m), d2 = u.shape, pairing.shape[0]
    exponents = (l0 + u[..., None, None] * du + n[..., None, None] * dn) * dt[:, None, None, None]
    segments = expm_stack(exponents.reshape(k * m, d2, d2)).reshape(exponents.shape)
    forward = np.empty((k, m + 1, d2, d2))
    forward[:, 0] = np.eye(d2)
    for j in range(m):
        forward[:, j + 1] = segments[:, j] @ forward[:, j]
    value = offset + sign * np.sum((pairing * forward[:, m]).reshape(k, -1), axis=1)
    return ForwardPass(value, exponents, segments, forward)


def gradient_stack(
    problem: PulseProblem, u: np.ndarray, n: np.ndarray, dt: np.ndarray,
    trial: ForwardPass | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Objective values and exact gradients wrt (u_j, n_j) of the k pulses
    of :func:`forward_stack`, as arrays (k,), (k, M) and (k, M).

    With segment j's exponent A_j = dt L_j, the forward products
    F_j = G_{j-1} ... G_0 and the backward products B_{j+1} = G_{M-1} ...
    G_{j+1}, a segment parameter with generator direction D moves the
    objective by sign * sum(lam_j o L(A_j, dt D)), where
    lam_j = B_{j+1}^T P F_j^T and L(A, E) is the Frechet derivative of the
    exponential.  Since L(A, E) = int_0^1 e^{sA} E e^{(1-s)A} ds and the
    trace is cyclic,

        sum(lam o L(A, E)) = sum(L(A, lam^T)^T o E),

    so one adjoint block exp([[A_j, lam_j^T], [0, A_j]]), whose top-right
    block is X_j = L(A_j, lam_j^T), gives both directions:
    g[j] = sign * dt * sum(X_j^T o D) for D = Du and D = Dn.  ``trial``, the
    :func:`forward_stack` of these same controls if the caller has it, saves
    the k M segment propagators (d^2 x d^2); the k M adjoint blocks
    (2d^2 x 2d^2) make the call's one :func:`core.expm_stack`.
    """
    _, sign, pairing = problem.pairing
    if trial is None:
        trial = forward_stack(problem, u, n, dt)
    value, exponents, segments, forward = trial
    (k, m), d2 = u.shape, pairing.shape[0]
    backward = np.empty_like(forward)  # backward[:, j] = G_{M-1} ... G_j
    backward[:, m] = np.eye(d2)
    for j in range(m - 1, -1, -1):
        backward[:, j] = backward[:, j + 1] @ segments[:, j]

    blocks = np.zeros((k, m, 2 * d2, 2 * d2))
    blocks[..., :d2, :d2] = blocks[..., d2:, d2:] = exponents
    blocks[..., :d2, d2:] = forward[:, :m] @ pairing.T @ backward[:, 1:]  # lam_j^T
    adjoint = expm_stack(blocks.reshape(k * m, 2 * d2, 2 * d2)).reshape(blocks.shape)[..., :d2, d2:]
    _, du, dn = problem.affine_generator
    directions = np.stack([du, dn])
    # one contraction per pulse: a batched einsum may sum in another order
    # (it does for M = 1), which would tie a pulse's bits to its stack
    grad = np.stack([sign * h * np.einsum("kji,dij->dk", x, directions) for h, x in zip(dt, adjoint)])
    return value, grad[:, 0], grad[:, 1]


def _one(controls: ControlVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``controls`` as a stack of one pulse."""
    return controls.u[None], controls.n[None], np.array([controls.dt])


def objective_value(controls: ControlVector, problem: PulseProblem) -> float:
    """Tr[rho(T) O] for state transfer; 1 - Tr[Choi(Phi) Choi(U)]/N^2, in
    [0, 1] and 0 iff the pulse implements the target up to global phase, for
    a gate."""
    return float(forward_stack(problem, *_one(controls)).value[0])


def grape_gradient(
    controls: ControlVector, problem: PulseProblem
) -> tuple[float, np.ndarray, np.ndarray]:
    """Objective value and its exact gradient wrt (u_m, n_m) of one pulse
    (see :func:`gradient_stack`)."""
    value, grad_u, grad_n = gradient_stack(problem, *_one(controls))
    return float(value[0]), grad_u[0], grad_n[0]


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


def optimize_run(
    problem: PulseProblem,
    initial: ControlVector,
    max_iter: int = 1000,
    grad_tol: float = 1e-7,
) -> PulseRunResult:
    """Projected-gradient descent (ascent for state transfer) with Armijo
    backtracking and bound clipping from one start; the objective history
    is monotone.  The one-start case of :func:`optimize_starts`."""
    return optimize_starts(problem, [initial], max_iter, grad_tol)[0]


def optimize_starts(
    problem: PulseProblem,
    initials: Sequence[ControlVector],
    max_iter: int = 1000,
    grad_tol: float = 1e-7,
) -> list[PulseRunResult]:
    """Projected-gradient descent from each of ``initials`` (same M), all
    starts in lock-step: every line-search round evaluates the trials of
    all starts still searching with one :func:`forward_stack`, and every
    round of accepted iterates takes one :func:`gradient_stack`.

    Everything else is per start, so a start's result is bit for bit the
    same whichever starts share its stacks.  From the second iteration on,
    each line search starts at the spectral (Barzilai-Borwein) step of the
    last accepted move in (u, n) and the change in gradient
    (:func:`oqctrl.core.spectral_step`), which makes this the spectral
    projected gradient method of Birgin, Martinez and Raydan (2000); twice
    the last accepted step is the fallback.  Components that push against an
    active bound are dropped, a start whose projected gradient norm is below
    ``grad_tol`` has converged, and a line-search underflow (no step down to
    ``PULSE_STEP_UNDERFLOW`` satisfies the Armijo condition) ends a start
    with ``stalled=True`` and a diagnostic message; either way the start
    leaves the stacks and the others go on.
    """
    if require_finite(max_iter, "max_iter") < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")
    require_finite(grad_tol, "grad_tol")
    if any(c.n_segments < 1 for c in initials):
        raise ValueError("n_segments must be >= 1 to optimize a pulse")
    direction = problem.pairing[1]
    lo, hi = problem.u_bounds
    n_max = problem.n_max
    k = len(initials)
    u = np.clip(np.stack([c.u for c in initials]), lo, hi)
    n = np.clip(np.stack([c.n for c in initials]), 0.0, n_max)
    dt = np.array([c.dt for c in initials])
    value, gu, gn = gradient_stack(problem, u, n, dt)
    history = [[v] for v in value]
    step = np.ones(k)
    prev = None  # (u, n, gu, gn) before the last accepted move
    iterations = [max_iter] * k
    converged = [False] * k
    stall_messages = [""] * k
    live = np.arange(k)
    for it in range(1, max_iter + 1):
        if prev is not None:
            dx = np.concatenate([u[live] - prev[0][live], n[live] - prev[1][live]], axis=1)
            dg = np.concatenate([gu[live] - prev[2][live], gn[live] - prev[3][live]], axis=1)
            for row, s in enumerate(live):
                step[s] = spectral_step(dx[row], dg[row], step[s], PULSE_STEP_UNDERFLOW, PULSE_STEP_CAP)
        pu, pn = direction * gu[live], direction * gn[live]
        # drop components that push against an active bound
        cu, cn = u[live], n[live]
        pu[((cu >= hi) & (pu > 0)) | ((cu <= lo) & (pu < 0))] = 0.0
        pn[((cn >= n_max) & (pn > 0)) | ((cn <= 0.0) & (pn < 0))] = 0.0
        gnorm2 = np.sum(pu**2, axis=1) + np.sum(pn**2, axis=1)
        done = np.sqrt(gnorm2) < grad_tol
        for s in live[done]:
            iterations[s], converged[s] = it, True
        searching = ~done
        live, pu, pn, gnorm2 = live[searching], pu[searching], pn[searching], gnorm2[searching]
        if live.size == 0:
            break
        # line-search rounds over the rows of ``live``; ``kept`` collects
        # each start's accepted trial
        t = step[live].copy()
        pending = np.flatnonzero(t >= PULSE_STEP_UNDERFLOW)
        accepted = np.zeros(live.size, dtype=bool)
        cand_u, cand_n, kept = np.empty_like(pu), np.empty_like(pn), None
        while pending.size:
            s = live[pending]
            tp = t[pending, None]
            ru = np.clip(u[s] + tp * pu[pending], lo, hi)
            rn = np.clip(n[s] + tp * pn[pending], 0.0, n_max)
            trial = forward_stack(problem, ru, rn, dt[s])
            ok = direction * (trial.value - value[s]) >= ARMIJO_C * t[pending] * gnorm2[pending]
            if kept is None:
                kept = ForwardPass(*(np.empty((live.size,) + f.shape[1:]) for f in trial))
            for dst, f in zip((cand_u, cand_n) + kept, (ru, rn) + trial):
                dst[pending[ok]] = f[ok]
            accepted[pending[ok]] = True
            pending = pending[~ok]
            t[pending] *= BACKTRACK
            pending = pending[t[pending] >= PULSE_STEP_UNDERFLOW]
        for row in np.flatnonzero(~accepted):
            s = live[row]
            iterations[s] = it
            stall_messages[s] = (
                f"line search underflow at iteration {it}: "
                f"objective={float(value[s]):.12g}, |grad|={float(np.sqrt(gnorm2[row])):.3e}"
            )
        live, t = live[accepted], t[accepted]
        if live.size == 0:
            break
        prev = u.copy(), n.copy(), gu.copy(), gn.copy()
        u[live], n[live] = cand_u[accepted], cand_n[accepted]
        trial = ForwardPass(*(f[accepted] for f in kept))
        value[live], gu[live], gn[live] = gradient_stack(problem, u[live], n[live], dt[live], trial)
        for s in live:
            history[s].append(value[s])
        step[live] = np.minimum(t / BACKTRACK, PULSE_STEP_CAP)
    return [
        PulseRunResult(
            controls=ControlVector(u=u[s], n=n[s], dt=initials[s].dt),
            objective_value=float(value[s]),
            objective_history=np.array(history[s]),
            iterations=iterations[s],
            converged=converged[s],
            stalled=bool(stall_messages[s]),
            stall_message=stall_messages[s],
        )
        for s in range(k)
    ]


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
    if require_finite(gap_tol, "gap_tol") < 0:
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


def _scan_block(problem: PulseProblem, max_iter: int, grad_tol: float, seeds: Sequence[int]):
    """(start, result) per seed: the random starts of ``seeds`` run in
    lock-step by :func:`optimize_starts`."""
    starts = [_random_controls(problem, np.random.default_rng(s)) for s in seeds]
    return list(zip(starts, optimize_starts(problem, starts, max_iter, grad_tol)))


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

    Each worker runs its contiguous block of starts in lock-step (all of
    them serially).  A start's result does not depend on the other starts
    of its block, and results are aggregated in start order and clustered
    on the sorted final values, so the scan is independent of ``workers``.
    """
    outcomes = run_multistart(
        partial(_scan_block, problem, max_iter, grad_tol), starts, seed, workers
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
