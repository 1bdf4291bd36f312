"""Test oracles for the pulse problems: the Choi matrix of a superoperator,
the gate infidelity of an arbitrary superoperator, and the final state through
the density-matrix propagator instead of the superoperator pairing."""

from __future__ import annotations

import numpy as np

from oqctrl.core import DimensionMismatchError, unvec, vec
from oqctrl.ingrape import ControlVector, StateTransferProblem, _gate_pairing
from oqctrl.lindblad import ControlSchedule, propagate_schedule


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
