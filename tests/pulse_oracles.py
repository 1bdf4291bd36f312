"""Test oracles for the pulse problems: the Choi matrix of a superoperator,
the gate infidelity of an arbitrary superoperator, the final state through
the density-matrix propagator instead of the superoperator pairing, the
complex objective and gradient path in column-stacked coordinates that the
real Hermitian-coordinate path replaced, and the descent whose line search
starts from twice the last accepted step, which the spectral step replaced."""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from oqctrl import ingrape
from oqctrl.core import ARMIJO_C, BACKTRACK, DimensionMismatchError, unvec, vec
from oqctrl.ingrape import (
    ControlVector,
    GateProblem,
    PulseProblem,
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


def doubling_optimize_run(
    problem: PulseProblem, initial: ControlVector, max_iter: int, grad_tol: float = 1e-7
) -> np.ndarray:
    """The objective history of ``ingrape.optimize_run`` with each line
    search started from twice the last accepted step (capped at 1e4), not
    from the spectral step; evaluations go through the module's
    ``forward_pass`` and ``grape_gradient``, so a patch there sees them."""
    direction = problem.pairing[1]
    lo, hi = problem.u_bounds
    cur = ingrape._clip(initial.u, initial.n, initial.dt, problem)
    value, gu, gn = ingrape.grape_gradient(cur, problem)
    history = [value]
    step = 1.0
    for _ in range(max_iter):
        pu, pn = direction * gu, direction * gn
        pu[((cur.u >= hi) & (pu > 0)) | ((cur.u <= lo) & (pu < 0))] = 0.0
        pn[((cur.n >= problem.n_max) & (pn > 0)) | ((cur.n <= 0.0) & (pn < 0))] = 0.0
        gnorm2 = float(np.sum(pu**2) + np.sum(pn**2))
        if np.sqrt(gnorm2) < grad_tol:
            break
        t = step
        while t >= 1e-16:
            cand = ingrape._clip(cur.u + t * pu, cur.n + t * pn, cur.dt, problem)
            trial = ingrape.forward_pass(cand, problem)
            if direction * (trial.value - value) >= ARMIJO_C * t * gnorm2:
                break
            t *= BACKTRACK
        else:
            break
        cur = cand
        value, gu, gn = ingrape.grape_gradient(cur, problem, trial)
        history.append(value)
        step = min(t / BACKTRACK, 1e4)
    return np.array(history)
