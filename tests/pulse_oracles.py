"""Test oracles for the pulse problems: the Choi matrix of a superoperator,
the gate infidelity of an arbitrary superoperator, the final state through
the density-matrix propagator instead of the superoperator pairing, the
complex objective and gradient path in column-stacked coordinates that the
real Hermitian-coordinate path replaced, and the per-start descent that the
lock-step one replaced (with the line search that starts from twice the last
accepted step, which the spectral step replaced, as an option).  The complex
oracles exponentiate with scipy's ``expm``, an independent kernel compared to
a tolerance; the per-start ones with ``core.expm_stack``, the library's
kernel, so that they match the lock-step descent bit for bit."""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from oqctrl.core import (
    ARMIJO_C,
    BACKTRACK,
    PULSE_STEP_CAP,
    PULSE_STEP_UNDERFLOW,
    DimensionMismatchError,
    expm_stack,
    spectral_step,
    unvec,
    vec,
)
from oqctrl.ingrape import (
    ControlVector,
    GateProblem,
    PulseProblem,
    PulseRunResult,
    StateTransferProblem,
    _gate_pairing,
)
from oqctrl.lindblad import (
    ControlSchedule,
    build_liouvillian,
    hamiltonian_superoperator,
    propagate_schedule,
)


def choi_of_superoperator(g: np.ndarray) -> np.ndarray:
    r"""Choi matrix sum_ij E_ij \otimes Phi(E_ij); trace N for TP maps."""
    n = int(round(np.sqrt(g.shape[0])))
    choi = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            choi += np.kron(e, unvec(g @ vec(e)))
    return choi


def superoperator_infidelity(g: np.ndarray, target: np.ndarray) -> float:
    """1 - Tr[Choi(G) Choi(U)]/N^2 for an arbitrary channel superoperator."""
    n = target.shape[0]
    if g.shape != (n * n, n * n):
        raise DimensionMismatchError("superoperator and target dimensions differ")
    pairing = _gate_pairing(target)
    return 1.0 - float(np.real(np.sum(pairing * g)))


def final_state(controls: ControlVector, problem: StateTransferProblem) -> np.ndarray:
    """rho(T) through the density-matrix propagator (cross-check path)."""
    if controls.n_segments == 0:
        return problem.rho0.copy()
    schedule = ControlSchedule(
        durations=np.full(controls.n_segments, controls.dt), u=controls.u, n=controls.n
    )
    traj = propagate_schedule(problem.system, problem.decoherence, schedule, problem.rho0)
    return traj[-1]


def vec_affine_generator(problem: PulseProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L0, Du, Dn) in column-stacked coordinates, complex."""
    l0 = build_liouvillian(problem.system, problem.decoherence, 0.0, 0.0)
    dn = build_liouvillian(problem.system, problem.decoherence, 0.0, 1.0) - l0
    return l0, hamiltonian_superoperator(problem.system.dipole), dn


def vec_pairing(problem: PulseProblem) -> tuple[float, float, np.ndarray]:
    """(offset, sign, P) with objective offset + sign * Re sum(P o G) on the
    column-stacked end-to-end superoperator G."""
    if isinstance(problem, GateProblem):
        return 1.0, -1.0, _gate_pairing(problem.target)
    return 0.0, 1.0, np.outer(vec(problem.observable).conj(), vec(problem.rho0))


def _vec_exponents(controls: ControlVector, problem: PulseProblem) -> np.ndarray:
    l0, du, dn = vec_affine_generator(problem)
    return (l0 + controls.u[:, None, None] * du + controls.n[:, None, None] * dn) * controls.dt


def vec_objective_value(controls: ControlVector, problem: PulseProblem) -> float:
    """The objective through the column-stacked end-to-end superoperator."""
    offset, sign, pairing = vec_pairing(problem)
    g = np.eye(pairing.shape[0], dtype=complex)
    for e in expm(_vec_exponents(controls, problem)):
        g = e @ g
    return offset + sign * float(np.real(np.sum(pairing * g)))


def vec_grape_gradient(
    controls: ControlVector, problem: PulseProblem
) -> tuple[float, np.ndarray, np.ndarray]:
    """Objective and adjoint gradient with complex column-stacked
    superoperators: one segment stack and one Van Loan adjoint stack."""
    m = controls.n_segments
    offset, sign, pairing = vec_pairing(problem)
    _, du, dn = vec_affine_generator(problem)
    d2 = du.shape[0]
    exponents = _vec_exponents(controls, problem)
    segs = expm(exponents)
    forward = np.empty((m + 1, d2, d2), dtype=complex)  # forward[k] = G_{k-1} ... G_0
    backward = np.empty_like(forward)  # backward[k] = G_{M-1} ... G_k
    forward[0] = backward[m] = np.eye(d2)
    for k in range(m):
        forward[k + 1] = segs[k] @ forward[k]
        backward[m - 1 - k] = backward[m - k] @ segs[m - 1 - k]
    blocks = np.zeros((m, 2 * d2, 2 * d2), dtype=complex)
    blocks[:, :d2, :d2] = blocks[:, d2:, d2:] = exponents
    blocks[:, :d2, d2:] = forward[:m] @ pairing.T @ backward[1:]
    adjoint = expm(blocks)[:, :d2, d2:]
    grad_u, grad_n = sign * controls.dt * np.real(
        np.einsum("kji,dij->dk", adjoint, np.stack([du, dn]))
    )
    value = offset + sign * float(np.real(np.sum(pairing * forward[m])))
    return value, grad_u, grad_n


def forward_pass(controls: ControlVector, problem: PulseProblem):
    """One pulse's (value, exponents, segments, forward products), one 2-D
    product at a time (the per-start form of ``ingrape.forward_stack``)."""
    offset, sign, pairing = problem.pairing
    l0, du, dn = problem.affine_generator
    exponents = (l0 + controls.u[:, None, None] * du + controls.n[:, None, None] * dn) * controls.dt
    segments = expm_stack(exponents)
    forward = np.empty((controls.n_segments + 1,) + pairing.shape)
    forward[0] = np.eye(pairing.shape[0])
    for k, g in enumerate(segments):
        forward[k + 1] = g @ forward[k]
    value = offset + sign * float(np.sum(pairing * forward[-1]))
    return value, exponents, segments, forward


def grape_gradient(controls: ControlVector, problem: PulseProblem, trial=None):
    """One pulse's objective and adjoint gradient from its
    :func:`forward_pass` (the per-start form of ``ingrape.gradient_stack``)."""
    _, sign, pairing = problem.pairing
    value, exponents, segments, forward = trial or forward_pass(controls, problem)
    m, d2 = controls.n_segments, pairing.shape[0]
    backward = np.empty_like(forward)  # backward[k] = G_{M-1} ... G_k
    backward[m] = np.eye(d2)
    for k in range(m - 1, -1, -1):
        backward[k] = backward[k + 1] @ segments[k]
    blocks = np.zeros((m, 2 * d2, 2 * d2))
    blocks[:, :d2, :d2] = blocks[:, d2:, d2:] = exponents
    blocks[:, :d2, d2:] = forward[:m] @ pairing.T @ backward[1:]
    adjoint = expm_stack(blocks)[:, :d2, d2:]
    _, du, dn = problem.affine_generator
    grad_u, grad_n = sign * controls.dt * np.einsum("kji,dij->dk", adjoint, np.stack([du, dn]))
    return value, grad_u, grad_n


def clip_controls(u: np.ndarray, n: np.ndarray, dt: float, problem: PulseProblem) -> ControlVector:
    """The controls (u, n, dt) clipped into the problem's bounds."""
    lo, hi = problem.u_bounds
    return ControlVector(u=np.clip(u, lo, hi), n=np.clip(n, 0.0, problem.n_max), dt=dt)


def per_start_optimize_run(
    problem: PulseProblem,
    initial: ControlVector,
    max_iter: int = 1000,
    grad_tol: float = 1e-7,
    spectral: bool = True,
) -> PulseRunResult:
    """``ingrape.optimize_run`` as one start's own loop: the same projected
    descent, Armijo backtracking and spectral first step, with each trial a
    :func:`forward_pass` of its own and each accepted iterate's gradient a
    :func:`grape_gradient` of its own.  With ``spectral=False`` every line
    search starts from twice the last accepted step instead (capped at
    1e4).  Evaluations go through this module's ``forward_pass``,
    ``grape_gradient`` and ``expm_stack``, so a patch there sees them."""
    direction = problem.pairing[1]
    lo, hi = problem.u_bounds
    cur = clip_controls(initial.u, initial.n, initial.dt, problem)
    value, gu, gn = grape_gradient(cur, problem)
    history = [value]
    step = 1.0
    converged = False
    stall_message = ""
    prev = None
    for it in range(1, max_iter + 1):
        if spectral and prev is not None:
            dx = np.concatenate([cur.u - prev[0].u, cur.n - prev[0].n])
            dg = np.concatenate([gu - prev[1], gn - prev[2]])
            step = spectral_step(dx, dg, step, PULSE_STEP_UNDERFLOW, PULSE_STEP_CAP)
        pu, pn = direction * gu, direction * gn
        pu[((cur.u >= hi) & (pu > 0)) | ((cur.u <= lo) & (pu < 0))] = 0.0
        pn[((cur.n >= problem.n_max) & (pn > 0)) | ((cur.n <= 0.0) & (pn < 0))] = 0.0
        gnorm2 = float(np.sum(pu**2) + np.sum(pn**2))
        if np.sqrt(gnorm2) < grad_tol:
            converged = True
            break
        t = step
        while t >= PULSE_STEP_UNDERFLOW:
            cand = clip_controls(cur.u + t * pu, cur.n + t * pn, cur.dt, problem)
            trial = forward_pass(cand, problem)
            if direction * (trial[0] - value) >= ARMIJO_C * t * gnorm2:
                break
            t *= BACKTRACK
        else:
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
        stalled=bool(stall_message),
        stall_message=stall_message,
    )


def doubling_optimize_run(
    problem: PulseProblem, initial: ControlVector, max_iter: int, grad_tol: float = 1e-7
) -> np.ndarray:
    """The objective history of the descent whose line search starts from
    twice the last accepted step, not from the spectral step."""
    return per_start_optimize_run(problem, initial, max_iter, grad_tol, spectral=False).objective_history
