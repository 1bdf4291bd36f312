"""Every model constructor rejects a NaN or an infinity in the field that
holds it, and every solver, report or state check in its tolerances, rates,
iteration limit and slack, through core.require_finite, naming that field or
argument."""

import numpy as np
import pytest

from oqctrl import stiefel
from oqctrl.core import PAULI_X, PAULI_Z, hermitian_coordinates, require_finite, validate_density
from oqctrl.ingrape import (ControlVector, GateProblem, StateTransferProblem, cluster_report,
                            optimize_pulse, optimize_starts)
from oqctrl.kraussearch import (ChannelAlphabet, RationalComplexMatrix, bounded_reachability,
                                canonical_state_key)
from oqctrl.lindblad import ControlSchedule, DecoherenceModel, SystemModel, cardano_eigenvalues
from oqctrl.reachable import SamplerConfig, coverage_map, unreachable_report

NAN, INF = float("nan"), float("inf")
COUPLINGS = np.array([[0.0, 0.1], [0.1, 0.0]])
ENERGIES = np.array([0.0, 1.0])
HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def pulse_problem(kind="gate", **fields):
    common = dict(
        system=SystemModel(energies=ENERGIES, dipole=PAULI_X),
        decoherence=DecoherenceModel(couplings=COUPLINGS),
        n_segments=2, dt=0.5, u_bounds=(-1.0, 1.0), n_max=1.0,
    )
    if kind == "gate":
        return GateProblem(**{"target": HADAMARD, **common, **fields})
    return StateTransferProblem(**{"rho0": np.eye(2) / 2, "observable": PAULI_Z, **common, **fields})


def schedule(**fields):
    return ControlSchedule(**{"durations": [1.0, 1.0], "u": [0.0, 0.5], "n": [0.0, 1.0], **fields})


# (field, build): build() puts a non-finite number in that field
NON_FINITE = {
    "system-dipole-nan": ("dipole", lambda: SystemModel(energies=ENERGIES, dipole=NAN * PAULI_X)),
    "system-dipole-inf": (
        "dipole", lambda: SystemModel(energies=ENERGIES, dipole=np.diag([INF, 0.0])),
    ),
    "decoherence-epsilon-nan": ("epsilon", lambda: DecoherenceModel(COUPLINGS, epsilon=NAN)),
    "decoherence-epsilon-inf": ("epsilon", lambda: DecoherenceModel(COUPLINGS, epsilon=INF)),
    "decoherence-coupling-inf": (
        "couplings", lambda: DecoherenceModel(np.array([[0.0, INF], [INF, 0.0]])),
    ),
    "schedule-u-nan": ("u", lambda: schedule(u=[0.0, NAN])),
    "schedule-duration-inf": ("durations", lambda: schedule(durations=[1.0, INF])),
    "schedule-n-inf": ("n", lambda: schedule(n=[INF, 0.0])),
    "sampler-u-max-inf": ("u_max", lambda: SamplerConfig(u_max=INF)),
    "sampler-omega-inf": ("omega", lambda: SamplerConfig(omega=INF)),
    "sampler-duration-inf": ("duration_range", lambda: SamplerConfig(duration_range=(0.01, INF))),
    "gate-u-bound-nan": ("u_bounds", lambda: pulse_problem(u_bounds=(NAN, 1.0))),
    "gate-n-max-nan": ("n_max", lambda: pulse_problem(n_max=NAN)),
    "gate-n-max-inf": ("n_max", lambda: pulse_problem(n_max=INF)),
    "gate-target-nan": ("target", lambda: pulse_problem(target=np.array([[NAN, 0], [0, 1]]))),
    "state-observable-nan": (
        "observable", lambda: pulse_problem("state", observable=np.array([[1, 0], [0, NAN]])),
    ),
    "superoperator-nan": ("superoperator", lambda: hermitian_coordinates(np.full((4, 4), NAN))),
    "stiefel-observable-nan": (
        "observable",
        lambda: stiefel.objective(
            stiefel.random_stiefel(2, np.random.default_rng(0)), np.eye(2) / 2, NAN * PAULI_Z
        ),
    ),
    "stiefel-rho-inf": (
        "rho", lambda: stiefel.maximize(np.array([[INF, 0], [0, 0]]), PAULI_Z, max_iter=2),
    ),
    "controls-dt-nan": ("dt", lambda: ControlVector(u=[0.0], n=[0.0], dt=NAN)),
    "cardano-nan": ("matrix entries", lambda: cardano_eigenvalues(np.diag([1.0, NAN, 0.0]))),
}


@pytest.mark.parametrize("case", list(NON_FINITE))
def test_non_finite_field_rejected_at_construction(case):
    field, build = NON_FINITE[case]
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        build()


RHO = np.array([[0.6, 0.1], [0.1, 0.4]])
GROUND_EXACT = RationalComplexMatrix.from_literals([[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
EXCITED_EXACT = RationalComplexMatrix.from_literals([[[0, 0], [0, 0]], [[0, 0], [1, 0]]])
GRID = coverage_map(np.eye(3), 4)


def flip_search(mode, tol):
    alphabet = ChannelAlphabet.from_kraus_lists(
        [[RationalComplexMatrix.from_literals([[[0, 0], [1, 0]], [[1, 0], [0, 0]]])]]
    )
    return bounded_reachability(alphabet, GROUND_EXACT, EXCITED_EXACT, 2, mode=mode, tol=tol)


def state_starts(**limits):
    return optimize_starts(
        pulse_problem("state"), [ControlVector(u=[0.0, 0.5], n=[0.0, 0.5], dt=0.5)], **limits
    )


# (argument, call): call() passes a non-finite number in that argument
NON_FINITE_ARGUMENTS = {
    "stiefel-grad-tol-nan": ("grad_tol", lambda: stiefel.maximize(RHO, PAULI_Z, grad_tol=NAN)),
    "stiefel-max-iter-nan": ("max_iter", lambda: stiefel.maximize(RHO, PAULI_Z, max_iter=NAN)),
    "starts-grad-tol-nan": ("grad_tol", lambda: state_starts(grad_tol=NAN)),
    "starts-max-iter-nan": ("max_iter", lambda: state_starts(max_iter=NAN)),
    "starts-max-iter-inf": ("max_iter", lambda: state_starts(max_iter=INF)),
    "scan-grad-tol-nan": ("grad_tol", lambda: optimize_pulse(pulse_problem(), 2, grad_tol=NAN)),
    "scan-max-iter-nan": ("max_iter", lambda: optimize_pulse(pulse_problem(), 2, max_iter=NAN)),
    "cluster-gap-tol-nan": ("gap_tol", lambda: cluster_report([0.1, 0.2], NAN)),
    "unreachable-slack-nan": ("slack", lambda: unreachable_report(GRID, 0.1, 1.0, slack=NAN)),
    # an infinite gamma made an infinite bound that any grid passed, a NaN one a NaN bound
    "unreachable-gamma-inf": ("gamma", lambda: unreachable_report(GRID, INF, 1.0)),
    "unreachable-gamma-nan": ("gamma", lambda: unreachable_report(GRID, NAN, 1.0)),
    "unreachable-omega-nan": ("omega", lambda: unreachable_report(GRID, 0.1, NAN)),
    "unreachable-omega-inf": ("omega", lambda: unreachable_report(GRID, 0.1, INF)),
    # a NaN tol failed the maximally mixed state, an infinite one passed any matrix
    "validate-tol-nan": ("tol", lambda: validate_density(np.eye(2) / 2, tol=NAN)),
    "validate-tol-inf": ("tol", lambda: validate_density(np.eye(2) / 2, tol=INF)),
    # a NaN tol fails the search's positivity check, as test_kraus_search matches
    "search-tol-inf-exact": ("tol", lambda: flip_search("exact", INF)),
    "search-tol-inf-float": ("tol", lambda: flip_search("float", INF)),
    "state-key-tol-inf": ("tol", lambda: canonical_state_key(GROUND_EXACT, "exact", INF)),
}


@pytest.mark.parametrize("case", list(NON_FINITE_ARGUMENTS))
def test_non_finite_argument_rejected_at_entry(case):
    argument, call = NON_FINITE_ARGUMENTS[case]
    with pytest.raises(ValueError, match=f"^{argument} must be finite$"):
        call()


@pytest.mark.parametrize("value", [1.0, -0.0, 1e308, np.array([1.0, 2j]), (0.5, -3)])
def test_finite_value_is_returned_unchanged(value):
    assert require_finite(value, "x") is value


def test_non_finite_state_is_reported_as_such():
    # the eigenvalues of a matrix with a NaN entry mean nothing, so they are skipped
    report = validate_density(np.array([[0.5, 0.0], [0.0, NAN]]))
    assert not report.ok
    assert report.worst == "finite"
    assert np.isnan(report.min_eigenvalue)
