import numpy as np
import pytest
from scipy.linalg import expm, expm_frechet

from oqctrl import core, ingrape, lindblad
from oqctrl.core import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DimensionMismatchError,
    expectation,
    hermitian_basis,
    random_density,
    unvec,
    vec,
)
from oqctrl.ingrape import (
    ControlVector,
    GateProblem,
    StateTransferProblem,
    choi_of_unitary,
    cluster_report,
    grape_gradient,
    objective_value,
    optimize_pulse,
    optimize_run,
)
from oqctrl.lindblad import (
    DecoherenceModel,
    SystemModel,
    affine_generator,
    build_liouvillian,
    qubit_decoherence,
    qubit_system,
)

import pulse_oracles
from pulse_oracles import (
    choi_of_superoperator,
    clip_controls,
    doubling_optimize_run,
    final_state,
    superoperator_infidelity,
    vec_grape_gradient,
    vec_objective_value,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)])


def closed_qubit(mu=1.0):
    """Driftless qubit with no dissipation (energies 0, couplings 0)."""
    system = SystemModel(np.array([0.0, 0.0]), mu * PAULI_X)
    dec = DecoherenceModel(np.zeros((2, 2)), epsilon=0.0)
    return system, dec


def gate_problem(target, m=10, dt=0.5, gamma=1e-4, u_max=5.0, n_max=1.0, omega=1.0, mu=1.0):
    return GateProblem(
        system=qubit_system(omega, mu),
        decoherence=qubit_decoherence(gamma),
        target=target,
        n_segments=m,
        dt=dt,
        u_bounds=(-u_max, u_max),
        n_max=n_max,
    )


class TestStateObjective:
    def test_zero_horizon(self):
        system, dec = closed_qubit()
        rng = np.random.default_rng(0)
        rho0 = random_density(2, rng)
        problem = StateTransferProblem(
            system=system, decoherence=dec, rho0=rho0, observable=PAULI_Z,
            n_segments=0, dt=1.0,
        )
        controls = ControlVector(np.zeros(0), np.zeros(0), 1.0)
        assert objective_value(controls, problem) == pytest.approx(
            expectation(rho0, PAULI_Z), abs=1e-12
        )

    def test_rabi_pulse_flips_sigma_z(self):
        # closed system, constant drive: <sigma_z>(T) = cos(2 mu u T); the
        # pi-pulse 2 mu u T = pi flips the sign
        mu, u = 1.0, 0.8
        system, dec = closed_qubit(mu)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        for segments in (1, 4):
            t_total = np.pi / (2 * mu * u)
            problem = StateTransferProblem(
                system=system, decoherence=dec, rho0=rho0, observable=PAULI_Z,
                n_segments=segments, dt=t_total / segments,
            )
            controls = ControlVector(np.full(segments, u), np.zeros(segments), t_total / segments)
            assert objective_value(controls, problem) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_two_by_two_exponential_oracle(self):
        mu, u, t = 1.0, 0.33, 1.7
        system, dec = closed_qubit(mu)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        problem = StateTransferProblem(
            system=system, decoherence=dec, rho0=rho0, observable=PAULI_Z,
            n_segments=1, dt=t,
        )
        controls = ControlVector(np.array([u]), np.zeros(1), t)
        unitary = expm(-1j * mu * u * t * PAULI_X)
        oracle = expectation(unitary @ rho0 @ unitary.conj().T, PAULI_Z)
        assert objective_value(controls, problem) == pytest.approx(oracle, abs=1e-12)

    def test_relaxation_restores_ground_expectation(self):
        problem = StateTransferProblem(
            system=qubit_system(1.0, 1.0), decoherence=qubit_decoherence(0.5),
            rho0=np.eye(2, dtype=complex) / 2, observable=PAULI_Z,
            n_segments=1, dt=100.0,
        )
        controls = ControlVector(np.zeros(1), np.zeros(1), 100.0)
        assert objective_value(controls, problem) == pytest.approx(1.0, abs=1e-8)

    def test_superoperator_path_matches_density_path(self):
        rng = np.random.default_rng(1)
        problem = StateTransferProblem(
            system=qubit_system(1.0, 1.0), decoherence=qubit_decoherence(0.1),
            rho0=random_density(2, rng), observable=PAULI_Y,
            n_segments=4, dt=0.3,
        )
        controls = ControlVector(rng.uniform(-1, 1, 4), rng.uniform(0, 1, 4), 0.3)
        via_pairing = objective_value(controls, problem)
        via_density = expectation(final_state(controls, problem), PAULI_Y)
        assert via_pairing == pytest.approx(via_density, abs=1e-12)


class TestGateInfidelity:
    def test_exact_identity_is_zero(self):
        system, dec = closed_qubit()
        problem = GateProblem(
            system=system, decoherence=dec, target=np.eye(2, dtype=complex),
            n_segments=3, dt=0.4,
        )
        controls = ControlVector(np.zeros(3), np.zeros(3), 0.4)
        assert objective_value(controls, problem) == pytest.approx(0.0, abs=1e-12)

    def test_identity_channel_against_bit_flip_target(self):
        system, dec = closed_qubit()
        problem = GateProblem(
            system=system, decoherence=dec, target=PAULI_X,
            n_segments=2, dt=0.1,
        )
        controls = ControlVector(np.zeros(2), np.zeros(2), 0.1)
        assert objective_value(controls, problem) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase_ignored(self):
        system, dec = closed_qubit()
        base = GateProblem(system=system, decoherence=dec,
                           target=HADAMARD, n_segments=2, dt=0.3)
        phased = GateProblem(system=system, decoherence=dec,
                             target=np.exp(1j * 0.7) * HADAMARD, n_segments=2, dt=0.3)
        rng = np.random.default_rng(2)
        controls = ControlVector(rng.uniform(-1, 1, 2), np.zeros(2), 0.3)
        assert objective_value(controls, base) == pytest.approx(
            objective_value(controls, phased), abs=1e-12
        )

    def test_depolarizing_channel_infidelity(self):
        # Choi of the completely depolarizing channel against any unitary:
        # fidelity 1/4, infidelity 0.75
        paulis = [np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z]
        g = sum(np.kron(p.conj(), p) for p in paulis) / 4.0
        rng = np.random.default_rng(3)
        for u in (np.eye(2, dtype=complex), HADAMARD, T_GATE):
            assert superoperator_infidelity(g, u) == pytest.approx(0.75, abs=1e-12)
        rho = random_density(2, rng)
        out = (g @ rho.reshape(-1, order="F")).reshape(2, 2, order="F")
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)

    def test_choi_of_identity_superoperator(self):
        choi = choi_of_superoperator(np.eye(4, dtype=complex))
        np.testing.assert_allclose(choi, choi_of_unitary(np.eye(2)), atol=1e-14)
        assert np.trace(choi).real == pytest.approx(2.0)

    def test_infidelity_within_unit_interval(self):
        rng = np.random.default_rng(4)
        problem = gate_problem(T_GATE, m=4, dt=0.3, gamma=0.05)
        for _ in range(20):
            controls = ControlVector(rng.uniform(-5, 5, 4), rng.uniform(0, 1, 4), 0.3)
            value = objective_value(controls, problem)
            assert -1e-12 <= value <= 1.0 + 1e-12

    def test_non_unitary_target_rejected(self):
        system, dec = closed_qubit()
        with pytest.raises(ValueError, match="unitary"):
            GateProblem(system=system, decoherence=dec,
                        target=np.diag([1.0, 0.5]), n_segments=1, dt=0.1)


class TestProblemBounds:
    # both kinds check their bounds in the shared PulseProblem base
    @pytest.mark.parametrize("kind", ["state", "gate"])
    @pytest.mark.parametrize(
        "bounds, words",
        [({"u_bounds": (1.0, 1.0)}, "u_min < u_max"), ({"u_bounds": (2.0, -2.0)}, "u_min < u_max"),
         ({"n_max": -0.5}, "n_max")],
    )
    def test_bad_bounds_rejected(self, kind, bounds, words):
        system, dec = closed_qubit()
        common = dict(system=system, decoherence=dec, n_segments=2, dt=0.5, **bounds)
        with pytest.raises(ValueError, match=words):
            if kind == "gate":
                GateProblem(target=HADAMARD, **common)
            else:
                StateTransferProblem(rho0=np.eye(2) / 2, observable=PAULI_Z, **common)


class TestProblemInputs:
    # every argument is checked when the problem is built, before the pairing
    # that reads it, and the message names the argument
    @pytest.mark.parametrize("kind", ["state", "gate"])
    @pytest.mark.parametrize(
        "grid, words",
        [({"n_segments": -1}, "n_segments"), ({"dt": 0.0}, "dt"), ({"dt": -1.0}, "dt"),
         ({"dt": np.nan}, "dt"), ({"dt": np.inf}, "dt")],
    )
    def test_bad_grid_rejected(self, kind, grid, words):
        system, dec = closed_qubit()
        common = dict(system=system, decoherence=dec, **{"n_segments": 2, "dt": 0.5, **grid})
        with pytest.raises(ValueError, match=words):
            if kind == "gate":
                GateProblem(target=HADAMARD, **common)
            else:
                StateTransferProblem(rho0=np.eye(2) / 2, observable=PAULI_Z, **common)

    def test_zero_segments_are_not_optimized(self):
        # a zero-segment problem is the zero horizon (test_zero_horizon), but
        # a scan of it has nothing to move and would report converged starts
        with pytest.raises(ValueError, match="n_segments must be >= 1"):
            optimize_pulse(gate_problem(T_GATE, m=0), starts=2, max_iter=5)

    @pytest.mark.parametrize(
        "field, value, words",
        [("rho0", np.eye(3) / 3, "rho0 must be 2 x 2"),
         ("rho0", np.eye(2), r"rho0 is not a density matrix \(trace\)"),
         ("rho0", np.diag([1.5, -0.5]), r"rho0 is not a density matrix \(positivity\)"),
         ("observable", np.diag([1.0, 0.0, -1.0]), "observable must be 2 x 2"),
         ("observable", np.array([[0, 1], [0, 0]]), "observable must be Hermitian")],
    )
    def test_bad_state_transfer_argument_rejected(self, field, value, words):
        system, dec = closed_qubit()
        states = {"rho0": np.eye(2) / 2, "observable": PAULI_Z, field: value}
        with pytest.raises(ValueError, match=words):
            StateTransferProblem(system=system, decoherence=dec, n_segments=2, dt=0.5, **states)

    def test_target_of_another_dimension_rejected(self):
        system, dec = closed_qubit()
        with pytest.raises(DimensionMismatchError, match="target must be 2 x 2"):
            GateProblem(system=system, decoherence=dec, target=np.eye(3), n_segments=2, dt=0.5)

    def test_observable_hermitian_only_above_roundoff_fails_when_built(self):
        # Hermitian to STRUCTURAL_TOL, so the argument check passes, but the
        # pairing is real in Hermitian coordinates only to roundoff
        system, dec = closed_qubit()
        observable = PAULI_Z + np.array([[0, 1e-11], [0, 0]])
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            StateTransferProblem(system=system, decoherence=dec, rho0=np.eye(2) / 2,
                                 observable=observable, n_segments=2, dt=0.5)


class TestGradient:
    @pytest.mark.parametrize("kind", ["gate", "state"])
    def test_finite_difference_agreement(self, kind):
        rng = np.random.default_rng(5)
        m = 4
        if kind == "gate":
            problem = gate_problem(HADAMARD, m=m, dt=0.4, gamma=0.05)
        else:
            problem = StateTransferProblem(
                system=qubit_system(1.0, 1.0), decoherence=qubit_decoherence(0.05),
                rho0=random_density(2, rng), observable=PAULI_Z,
                n_segments=m, dt=0.4,
            )
        controls = ControlVector(rng.uniform(-1, 1, m), rng.uniform(0.1, 0.9, m), 0.4)
        value, gu, gn = grape_gradient(controls, problem)
        assert value == pytest.approx(objective_value(controls, problem), abs=1e-14)
        h = 1e-5
        for k in range(m):
            e = np.zeros(m)
            e[k] = h
            up = objective_value(ControlVector(controls.u + e, controls.n, 0.4), problem)
            dn = objective_value(ControlVector(controls.u - e, controls.n, 0.4), problem)
            assert gu[k] == pytest.approx((up - dn) / (2 * h), rel=1e-5, abs=1e-10)
            up = objective_value(ControlVector(controls.u, controls.n + e, 0.4), problem)
            dn = objective_value(ControlVector(controls.u, controls.n - e, 0.4), problem)
            assert gn[k] == pytest.approx((up - dn) / (2 * h), rel=1e-5, abs=1e-10)

    def test_gradient_zero_at_exact_optimum(self):
        system, dec = closed_qubit()
        problem = GateProblem(
            system=system, decoherence=dec, target=np.eye(2, dtype=complex),
            n_segments=3, dt=0.2,
        )
        controls = ControlVector(np.zeros(3), np.zeros(3), 0.2)
        value, gu, gn = grape_gradient(controls, problem)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert np.max(np.abs(gu)) < 1e-10
        assert np.max(np.abs(gn)) < 1e-10

    def test_decoupled_incoherent_direction(self):
        # epsilon = 0 switches the environment off: the n components are
        # invariant directions and their gradient vanishes identically
        system = qubit_system(1.0, 1.0)
        dec = DecoherenceModel(np.array([[0.0, 0.7], [0.7, 0.0]]), epsilon=0.0)
        problem = GateProblem(system=system, decoherence=dec, target=HADAMARD,
                              n_segments=3, dt=0.3)
        rng = np.random.default_rng(6)
        controls = ControlVector(rng.uniform(-1, 1, 3), rng.uniform(0, 1, 3), 0.3)
        _, _, gn = grape_gradient(controls, problem)
        np.testing.assert_allclose(gn, 0.0, atol=1e-14)

    def test_fifty_random_problems(self):
        # componentwise agreement with central differences, M up to 8
        rng = np.random.default_rng(50)
        worst = 0.0
        for _ in range(50):
            m = int(rng.integers(2, 9))
            gamma = float(rng.uniform(0.01, 0.2))
            if rng.random() < 0.5:
                problem = gate_problem(HADAMARD, m=m, dt=float(rng.uniform(0.2, 0.6)),
                                       gamma=gamma)
            else:
                problem = StateTransferProblem(
                    system=qubit_system(1.0, 1.0), decoherence=qubit_decoherence(gamma),
                    rho0=random_density(2, rng), observable=PAULI_Z,
                    n_segments=m, dt=float(rng.uniform(0.2, 0.6)),
                )
            controls = ControlVector(rng.uniform(-1, 1, m), rng.uniform(0.1, 0.9, m),
                                     problem.dt)
            _, gu, gn = grape_gradient(controls, problem)
            h = 1e-5
            k = int(rng.integers(m))  # one random component per problem
            e = np.zeros(m)
            e[k] = h
            fd_u = (objective_value(ControlVector(controls.u + e, controls.n, problem.dt), problem)
                    - objective_value(ControlVector(controls.u - e, controls.n, problem.dt), problem)) / (2 * h)
            fd_n = (objective_value(ControlVector(controls.u, controls.n + e, problem.dt), problem)
                    - objective_value(ControlVector(controls.u, controls.n - e, problem.dt), problem)) / (2 * h)
            scale_u = max(abs(fd_u), 1e-6)
            scale_n = max(abs(fd_n), 1e-6)
            worst = max(worst, abs(gu[k] - fd_u) / scale_u, abs(gn[k] - fd_n) / scale_n)
        assert worst < 1e-5

    def test_refinement_invariance(self):
        # doubling M with halved dt and repeated values is the same pulse
        rng = np.random.default_rng(7)
        problem_c = gate_problem(HADAMARD, m=3, dt=0.5, gamma=0.02)
        problem_f = gate_problem(HADAMARD, m=6, dt=0.25, gamma=0.02)
        u = rng.uniform(-1, 1, 3)
        n = rng.uniform(0, 1, 3)
        coarse = ControlVector(u, n, 0.5)
        fine = ControlVector(np.repeat(u, 2), np.repeat(n, 2), 0.25)
        assert objective_value(coarse, problem_c) == pytest.approx(
            objective_value(fine, problem_f), abs=1e-10
        )


class TestOptimization:
    def test_identity_target_converges_at_start(self):
        system, dec = closed_qubit()
        problem = GateProblem(
            system=system, decoherence=dec, target=np.eye(2, dtype=complex),
            n_segments=3, dt=0.2,
        )
        result = optimize_run(problem, ControlVector(np.zeros(3), np.zeros(3), 0.2))
        assert result.converged
        assert result.iterations == 1
        assert result.objective_value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_needs_an_iteration(self, max_iter):
        problem = gate_problem(HADAMARD, m=3, dt=0.5, gamma=1e-3)
        start = ControlVector(np.zeros(3), np.zeros(3), 0.5)
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            optimize_run(problem, start, max_iter=max_iter)

    def test_monotone_descent(self):
        rng = np.random.default_rng(8)
        problem = gate_problem(HADAMARD, m=6, dt=0.5, gamma=1e-3)
        start = ControlVector(rng.uniform(-5, 5, 6), rng.uniform(0, 1, 6), 0.5)
        result = optimize_run(problem, start, max_iter=100)
        assert np.all(np.diff(result.objective_history) <= 0)

    def test_bounds_respected(self):
        rng = np.random.default_rng(9)
        problem = gate_problem(HADAMARD, m=6, dt=0.5, gamma=1e-3, u_max=0.5, n_max=0.3)
        start = ControlVector(rng.uniform(-0.5, 0.5, 6), rng.uniform(0, 0.3, 6), 0.5)
        result = optimize_run(problem, start, max_iter=60)
        assert np.all(np.abs(result.controls.u) <= 0.5 + 1e-15)
        assert np.all(result.controls.n >= 0)
        assert np.all(result.controls.n <= 0.3 + 1e-15)

    def test_line_search_underflow_is_flagged(self, monkeypatch):
        # an objective that never satisfies Armijo forces the underflow
        problem = gate_problem(HADAMARD, m=3, dt=0.5, gamma=1e-3)
        start = ControlVector(np.array([0.3, -0.2, 0.1]), np.full(3, 0.5), 0.5)
        real = ingrape.forward_stack
        monkeypatch.setattr(
            ingrape, "forward_stack",
            lambda p, u, n, dt: real(p, u, n, dt)._replace(value=np.full(len(u), 2.0)),
        )
        result = optimize_run(problem, start, max_iter=50)
        assert result.stalled and not result.converged
        assert result.iterations == 1
        assert "underflow" in result.stall_message
        assert result.objective_history.size == 1

    def test_converged_run_is_not_stalled(self):
        system, dec = closed_qubit()
        problem = GateProblem(
            system=system, decoherence=dec, target=np.eye(2, dtype=complex),
            n_segments=3, dt=0.2,
        )
        result = optimize_run(problem, ControlVector(np.zeros(3), np.zeros(3), 0.2))
        assert result.converged and not result.stalled and result.stall_message == ""

    def test_hadamard_synthesis_small_scan(self):
        problem = gate_problem(HADAMARD, m=10, dt=0.5, gamma=1e-4, u_max=5.0)
        scan = optimize_pulse(problem, starts=3, max_iter=500, seed=3)
        assert scan.best_value < 1e-3
        assert scan.clusters.counts.sum() == 3

    def test_scan_deterministic(self):
        problem = gate_problem(HADAMARD, m=4, dt=0.5, gamma=1e-3)
        a = optimize_pulse(problem, starts=2, max_iter=40, seed=5)
        b = optimize_pulse(problem, starts=2, max_iter=40, seed=5)
        np.testing.assert_array_equal(a.final_values, b.final_values)

    def test_scan_independent_of_worker_count(self):
        problem = gate_problem(HADAMARD, m=3, dt=0.5, gamma=1e-3)
        serial = optimize_pulse(problem, starts=3, max_iter=30, seed=6, workers=1)
        parallel = optimize_pulse(problem, starts=3, max_iter=30, seed=6, workers=2)
        np.testing.assert_array_equal(serial.final_values, parallel.final_values)
        np.testing.assert_array_equal(serial.iterations, parallel.iterations)


def gate_pairing_loop(target):
    """Oracle for the closed-form pairing: P with Tr[Choi(G) Choi(U)] =
    sum_ab P[a,b] G[a,b], assembled entry by entry from Choi(U)."""
    n = target.shape[0]
    cu = choi_of_unitary(target)
    p = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for k in range(n):
            for j in range(n):
                for l in range(n):
                    p[k + n * l, i + n * j] += cu[j * n + l, i * n + k]
    return p


def haar_unitary(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def qutrit_ladder(couplings, epsilon):
    system = SystemModel(
        np.array([0.0, 1.0, 1.9]),
        np.array([[0, 1, 0], [1, 0, np.sqrt(2)], [0, np.sqrt(2), 0]], dtype=complex),
    )
    return system, DecoherenceModel(np.asarray(couplings, dtype=float), epsilon=epsilon)


MODELS = {
    "qubit": (qubit_system(1.0, 0.7), qubit_decoherence(0.05)),
    "qubit-uncoupled": (qubit_system(1.0, 0.7), qubit_decoherence(0.0)),
    "qutrit-eps": qutrit_ladder([[0, 0.05, 0.02], [0.05, 0, 0.08], [0.02, 0.08, 0]], 0.6),
    "qutrit-zero-pair": qutrit_ladder([[0, 0.05, 0.0], [0.05, 0, 0.08], [0.0, 0.08, 0]], 2.5),
    "qutrit-strong": qutrit_ladder([[0, 0.05, 0.02], [0.05, 0, 0.08], [0.02, 0.08, 0]], 2.5),
}


def random_problem(kind, system, dec, m, dt, rng):
    """A gate problem with a Haar-random target, or a state problem with a
    random initial state and a diagonal observable."""
    if kind == "gate":
        return GateProblem(system=system, decoherence=dec,
                           target=haar_unitary(system.dim, rng), n_segments=m, dt=dt)
    observable = np.diag(np.linspace(-1.0, 1.0, system.dim)).astype(complex)
    return StateTransferProblem(system=system, decoherence=dec,
                                rho0=random_density(system.dim, rng),
                                observable=observable, n_segments=m, dt=dt)


def _zero_controls(rng, m):
    return np.zeros(m), np.zeros(m)


def _uniform_controls(rng, m):
    return rng.uniform(-1, 1, m), rng.uniform(0, 1, m)


# (models, M, dt, controls drawn from (rng, M)) where the adjoint block is
# most likely to lose accuracy
FRAGILE = {
    # |dt L|_1 is about 30, so the exponential scales and squares several times
    "large-norm": (
        MODELS["qutrit-eps"], 6, 3.0,
        lambda rng, m: (2.0 * rng.choice([-1.0, 1.0], m), rng.uniform(0, 1, m)),
    ),
    # a purely Hamiltonian generator with repeated eigenvalues
    "zero-controls-no-couplings": (qutrit_ladder(np.zeros((3, 3)), 0.0), 5, 0.4, _zero_controls),
    "degenerate-energies": (
        (
            SystemModel(np.array([0.0, 1.0, 1.0]), MODELS["qutrit-eps"][0].dipole),
            DecoherenceModel(0.05 * (1.0 - np.eye(3)), epsilon=0.0),
        ),
        5, 0.4, _zero_controls,
    ),
    "near-degenerate-energies": (
        (
            SystemModel(np.array([0.0, 1.0, 1.0 + 1e-9]), MODELS["qutrit-eps"][0].dipole),
            DecoherenceModel(0.05 * (1.0 - np.eye(3)), epsilon=0.0),
        ),
        5, 0.4, _zero_controls,
    ),
    # the grid of the qutrit state-transfer benchmark workload
    "twenty-segments": (
        MODELS["qutrit-eps"], 20, 0.5, _uniform_controls,
    ),
}


def per_segment_path(controls, problem):
    """Objective and gradient with every segment generator rebuilt by
    build_liouvillian and Frechet derivatives from scipy (slow-path oracle)."""
    sys_, dec = problem.system, problem.decoherence
    dt, m = controls.dt, controls.n_segments
    gens = [build_liouvillian(sys_, dec, float(u), float(n)) for u, n in zip(controls.u, controls.n)]
    l0 = build_liouvillian(sys_, dec, 0.0, 0.0)
    du = build_liouvillian(sys_, dec, 1.0, 0.0) - l0
    dn = build_liouvillian(sys_, dec, 0.0, 1.0) - l0
    segs = [expm(g * dt) for g in gens]
    d2 = l0.shape[0]

    def chain(ops):
        out = np.eye(d2, dtype=complex)
        for op in ops:
            out = op @ out
        return out

    def objective(g):
        if isinstance(problem, GateProblem):
            n = problem.target.shape[0]
            overlap = np.trace(choi_of_superoperator(g) @ choi_of_unitary(problem.target))
            return 1.0 - float(np.real(overlap)) / n**2
        return float(np.real(np.trace(unvec(g @ vec(problem.rho0)) @ problem.observable)))

    value = objective(chain(segs))
    grads = []
    for direction in (du, dn):
        grad = np.empty(m)
        for k in range(m):
            dseg = expm_frechet(gens[k] * dt, direction * dt, compute_expm=False)
            dg = chain(segs[k + 1:]) @ dseg @ chain(segs[:k])
            # both objectives are affine in G, so the derivative is the
            # objective of dG minus its offset
            grad[k] = objective(dg) - objective(np.zeros((d2, d2)))
        grads.append(grad)
    return value, grads[0], grads[1]


class TestAffineFastPath:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_closed_form_gate_pairing(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(3):
            u = haar_unitary(n, rng)
            np.testing.assert_allclose(
                ingrape._gate_pairing(u), gate_pairing_loop(u) / n**2, rtol=0, atol=1e-15
            )

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_affine_generator_matches_build_liouvillian(self, name):
        system, dec = MODELS[name]
        l0, du, dn = affine_generator(system, dec)
        assert l0.dtype == du.dtype == dn.dtype == np.float64
        t = hermitian_basis(system.dim)
        rng = np.random.default_rng(41)
        for u, n in [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)] + [
            (rng.uniform(-3, 3), rng.uniform(0, 2)) for _ in range(5)
        ]:
            np.testing.assert_allclose(
                t.conj().T @ (l0 + u * du + n * dn) @ t, build_liouvillian(system, dec, u, n),
                rtol=0, atol=1e-13,
            )

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_problem_uses_lindblads_affine_generator(self, name):
        system, dec = MODELS[name]
        problem = GateProblem(system=system, decoherence=dec,
                              target=np.eye(system.dim, dtype=complex), n_segments=1, dt=0.1)
        for got, want in zip(problem.affine_generator, affine_generator(system, dec), strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize("kind", ["gate", "state"])
    def test_objective_and_gradient_match_per_segment_path(self, name, kind):
        system, dec = MODELS[name]
        rng = np.random.default_rng(42)
        m, dt = 5, 0.4
        problem = random_problem(kind, system, dec, m, dt, rng)
        controls = ControlVector(rng.uniform(-1, 1, m), rng.uniform(0, 1, m), dt)
        value, gu, gn = grape_gradient(controls, problem)
        ref_value, ref_gu, ref_gn = per_segment_path(controls, problem)
        assert objective_value(controls, problem) == pytest.approx(ref_value, abs=1e-12)
        assert value == pytest.approx(ref_value, abs=1e-12)
        np.testing.assert_allclose(gu, ref_gu, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gn, ref_gn, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", sorted(FRAGILE))
    @pytest.mark.parametrize("kind", ["gate", "state"])
    def test_gradient_matches_per_segment_path_where_the_adjoint_block_is_fragile(
        self, case, kind
    ):
        # the adjoint block carries lam^T, not dt*Du or dt*Dn, in its corner;
        # it must match scipy's expm_frechet to 1e-12 (absolute) also where
        # expm squares several times or the generator has repeated eigenvalues
        (system, dec), m, dt, draw = FRAGILE[case]
        rng = np.random.default_rng(44)
        problem = random_problem(kind, system, dec, m, dt, rng)
        controls = ControlVector(*draw(rng, m), dt)
        value, gu, gn = grape_gradient(controls, problem)
        ref_value, ref_gu, ref_gn = per_segment_path(controls, problem)
        assert value == pytest.approx(ref_value, abs=1e-12)
        np.testing.assert_allclose(gu, ref_gu, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gn, ref_gn, rtol=0, atol=1e-12)

    def test_gradient_makes_one_propagator_and_one_adjoint_exponential(self, monkeypatch):
        shapes = []
        real = ingrape.expm_stack
        monkeypatch.setattr(ingrape, "expm_stack", lambda a: shapes.append(a.shape) or real(a))
        system, dec = MODELS["qutrit-eps"]
        m = 7
        problem = random_problem("gate", system, dec, m, 0.4, np.random.default_rng(45))
        grape_gradient(ControlVector(np.full(m, 0.3), np.full(m, 0.2), 0.4), problem)
        assert shapes == [(m, 9, 9), (m, 18, 18)]

    @pytest.mark.parametrize("case", sorted(MODELS) + sorted(FRAGILE))
    @pytest.mark.parametrize("kind", ["gate", "state"])
    def test_real_coordinates_match_the_complex_vec_path(self, case, kind):
        if case in MODELS:
            (system, dec), m, dt, draw = MODELS[case], 5, 0.4, _uniform_controls
        else:
            (system, dec), m, dt, draw = FRAGILE[case]
        rng = np.random.default_rng(47)
        problem = random_problem(kind, system, dec, m, dt, rng)
        controls = ControlVector(*draw(rng, m), dt)
        value, gu, gn = grape_gradient(controls, problem)
        ref_value, ref_gu, ref_gn = vec_grape_gradient(controls, problem)
        assert objective_value(controls, problem) == pytest.approx(
            vec_objective_value(controls, problem), abs=1e-12
        )
        assert value == pytest.approx(ref_value, abs=1e-12)
        np.testing.assert_allclose(gu, ref_gu, rtol=0, atol=1e-12)
        np.testing.assert_allclose(gn, ref_gn, rtol=0, atol=1e-12)

    def test_generator_must_be_real_in_hermitian_coordinates(self):
        # a dipole Hermitian to 1e-10 passes SystemModel's 1e-9 check, but its
        # commutator has an imaginary part far above roundoff
        dipole = PAULI_X + 1e-10j * np.diag([1.0, 0.0])
        system = SystemModel(np.array([0.0, 1.0]), dipole)
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            GateProblem(system=system, decoherence=qubit_decoherence(0.1),
                        target=HADAMARD, n_segments=2, dt=0.1)

    def test_one_segment_stack_per_trial_and_one_adjoint_stack_per_iterate(self, monkeypatch):
        shapes, trials, steps = [], [], []
        real_expm, real_forward = ingrape.expm_stack, ingrape.forward_stack
        real_gradient = ingrape.gradient_stack

        def gradient(problem, u, n, dt, trial=None):
            first = len(shapes)
            out = real_gradient(problem, u, n, dt, trial)
            steps.append((trial is not None, shapes[first:]))
            return out

        monkeypatch.setattr(ingrape, "expm_stack", lambda a: shapes.append(a.shape) or real_expm(a))
        monkeypatch.setattr(
            ingrape, "forward_stack", lambda p, u, n, dt: trials.append(u) or real_forward(p, u, n, dt)
        )
        monkeypatch.setattr(ingrape, "gradient_stack", gradient)
        m = 6
        problem = gate_problem(T_GATE, m=m, dt=0.5, gamma=1e-3)
        rng = np.random.default_rng(48)
        start = ControlVector(rng.uniform(-5, 5, m), rng.uniform(0, 1, m), 0.5)
        result = optimize_run(problem, start, max_iter=20)
        accepted = result.objective_history.size - 1
        segment, adjoint = (m, 4, 4), (m, 8, 8)
        assert accepted >= 10 and len(trials) > accepted + 1
        # every trial, the start's forward pass included, is one M-slice stack
        # of one start
        assert all(u.shape == (1, m) for u in trials)
        assert shapes.count(segment) == len(trials)
        assert shapes.count(adjoint) == len(steps) == accepted + 1
        assert len(shapes) == len(trials) + accepted + 1
        # only the start computes its own segments; each accepted iterate
        # reuses its trial's
        assert steps[0] == (False, [segment, adjoint])
        assert all(step == (True, [adjoint]) for step in steps[1:])

    @pytest.mark.parametrize("kind", ["gate", "state"])
    def test_reusing_the_trial_changes_no_bit(self, monkeypatch, kind):
        system, dec = MODELS["qutrit-eps"]
        rng = np.random.default_rng(49)
        problem = random_problem(kind, system, dec, 5, 0.4, rng)
        start = ControlVector(rng.uniform(-1, 1, 5), rng.uniform(0, 1, 5), 0.4)
        reused = optimize_run(problem, start, max_iter=30)
        real = ingrape.gradient_stack
        monkeypatch.setattr(
            ingrape, "gradient_stack", lambda problem, u, n, dt, trial=None: real(problem, u, n, dt)
        )
        recomputed = optimize_run(problem, start, max_iter=30)
        assert reused.objective_history.size > 10
        assert reused.objective_history.tobytes() == recomputed.objective_history.tobytes()
        assert reused.controls.u.tobytes() == recomputed.controls.u.tobytes()
        assert reused.controls.n.tobytes() == recomputed.controls.n.tobytes()

    def test_precompute_is_built_once_per_problem(self, monkeypatch):
        # the triple is built by lindblad.affine_generator, which looks the
        # builder up in lindblad's namespace
        calls = []
        real = lindblad.build_liouvillian
        monkeypatch.setattr(lindblad, "build_liouvillian", lambda *a: calls.append(a) or real(*a))
        problem = gate_problem(T_GATE, m=4, dt=0.3, gamma=0.01)
        rng = np.random.default_rng(43)
        start = ControlVector(rng.uniform(-1, 1, 4), rng.uniform(0, 1, 4), 0.3)
        optimize_run(problem, start, max_iter=10)
        assert len(calls) == 2


class TestSpectralStep:
    """The line search starts at the spectral step, not at twice the last
    accepted step; counted in forward passes, not timed."""

    @staticmethod
    def tgate_scan_starts():
        # the benchmark's tgate-scan problem: T gate, M = 10, dt = 0.3,
        # |u| <= 2, n <= 1, six random starts per seed
        problem = gate_problem(T_GATE, m=10, dt=0.3, gamma=0.01, u_max=2.0, n_max=1.0)
        seeds = [ss.generate_state(1)[0] for seed in (3, 4) for ss in
                 np.random.SeedSequence(seed).spawn(6)]
        return problem, [ingrape._random_controls(problem, np.random.default_rng(s))
                         for s in seeds]

    def forward_passes_per_iterate(self, run) -> float:
        problem, starts = self.tgate_scan_starts()
        accepted = sum(run(problem, start).size - 1 for start in starts)
        return len(self.passes) / accepted

    def test_about_one_forward_pass_per_accepted_iterate(self, monkeypatch):
        # one forward pass per start in each forward stack
        self.passes = []
        real = ingrape.forward_stack
        monkeypatch.setattr(ingrape, "forward_stack",
                            lambda p, u, n, dt: self.passes.extend(u) or real(p, u, n, dt))
        ratio = self.forward_passes_per_iterate(
            lambda p, s: optimize_run(p, s, max_iter=40).objective_history
        )
        assert ratio <= 1.3

    def test_doubling_reference_needs_about_two(self, monkeypatch):
        self.passes = []
        real = pulse_oracles.forward_pass
        monkeypatch.setattr(pulse_oracles, "forward_pass",
                            lambda c, p: self.passes.append(c) or real(c, p))
        ratio = self.forward_passes_per_iterate(
            lambda p, s: doubling_optimize_run(p, s, max_iter=40)
        )
        assert ratio >= 1.8

    def test_first_iterate_matches_the_reference(self):
        # both searches start at step 1 before there is a previous move
        problem, starts = self.tgate_scan_starts()
        for start in starts:
            ours = optimize_run(problem, start, max_iter=1).objective_history
            ref = doubling_optimize_run(problem, start, max_iter=1)
            assert ours.tobytes() == ref.tobytes()

    def test_step_comes_from_the_last_move_and_gradient_change(self, monkeypatch):
        seen = []
        real = core.spectral_step
        monkeypatch.setattr(core, "spectral_step",
                            lambda *a: seen.append(a) or real(*a))
        problem, starts = self.tgate_scan_starts()
        result = optimize_run(problem, starts[0], max_iter=5)
        assert len(seen) == result.iterations - 1 == 4
        x0 = clip_controls(starts[0].u, starts[0].n, starts[0].dt, problem)
        x1 = optimize_run(problem, starts[0], max_iter=1).controls
        (_, gu0, gn0), (_, gu1, gn1) = grape_gradient(x0, problem), grape_gradient(x1, problem)
        dx, dg, _, floor, cap = seen[0]
        assert dx.tobytes() == np.concatenate([x1.u - x0.u, x1.n - x0.n]).tobytes()
        assert dg.tobytes() == np.concatenate([gu1 - gu0, gn1 - gn0]).tobytes()
        assert (floor, cap) == (ingrape.PULSE_STEP_UNDERFLOW, ingrape.PULSE_STEP_CAP)


def assert_same_run(a, b):
    """Two PulseRunResults agree bit for bit."""
    assert a.controls.u.tobytes() == b.controls.u.tobytes()
    assert a.controls.n.tobytes() == b.controls.n.tobytes()
    assert a.controls.dt == b.controls.dt
    assert np.float64(a.objective_value).tobytes() == np.float64(b.objective_value).tobytes()
    assert a.objective_history.tobytes() == b.objective_history.tobytes()
    assert (a.iterations, a.converged, a.stalled, a.stall_message) == (
        b.iterations, b.converged, b.stalled, b.stall_message
    )


def lockstep_case(case, kind):
    """The case's problem and six starts: the case's own draw, then five
    uniform draws."""
    if case in MODELS:
        (system, dec), m, dt, draw = MODELS[case], 5, 0.4, _uniform_controls
    else:
        (system, dec), m, dt, draw = FRAGILE[case]
    rng = np.random.default_rng(53)
    problem = random_problem(kind, system, dec, m, dt, rng)
    starts = [ControlVector(*draw(rng, m), dt)]
    starts += [ControlVector(*_uniform_controls(rng, m), dt) for _ in range(5)]
    return problem, starts


def mixed_endings():
    """A closed qubit steered to the identity with grad_tol 1e-12 and
    max_iter 4: start 0 converges at iteration 1, start 1 stalls at
    iteration 3 and start 2 at iteration 4, while starts 3 and 4 run on to
    the cap.  The endings hang on roundoff: seed 296 gives them under the
    Taylor-16 expm_stack, and a change of kernel may need a new seed."""
    system, dec = closed_qubit()
    problem = GateProblem(system=system, decoherence=dec, target=np.eye(2, dtype=complex),
                          n_segments=3, dt=0.2)
    rng = np.random.default_rng(296)
    starts = [ControlVector(np.zeros(3), np.zeros(3), 0.2)] + [
        ControlVector(rng.uniform(-1, 1, 3) * scale, rng.uniform(0, 1, 3), 0.2)
        for scale in (0.05, 0.3, 1.0, 1.0)
    ]
    return problem, starts, dict(max_iter=4, grad_tol=1e-12)


class TestLockStep:
    """A scan's starts run in lock-step, one stack per line-search round,
    and each start's result is the one it gets alone."""

    MAX_ITER = 12

    @pytest.mark.parametrize("case", sorted(MODELS) + sorted(FRAGILE))
    @pytest.mark.parametrize("kind", ["gate", "state"])
    def test_a_start_does_not_depend_on_its_batch(self, case, kind):
        problem, starts = lockstep_case(case, kind)
        batch = ingrape.optimize_starts(problem, starts, self.MAX_ITER)
        for start, run in zip(starts, batch):
            assert_same_run(run, optimize_run(problem, start, self.MAX_ITER))
            assert_same_run(run, pulse_oracles.per_start_optimize_run(problem, start, self.MAX_ITER))

    @pytest.mark.parametrize("case", sorted(MODELS) + sorted(FRAGILE))
    @pytest.mark.parametrize("kind", ["gate", "state"])
    def test_a_scan_does_not_depend_on_workers(self, case, kind):
        problem, _ = lockstep_case(case, kind)
        serial = optimize_pulse(problem, starts=6, max_iter=self.MAX_ITER, seed=54, workers=1)
        pooled = optimize_pulse(problem, starts=6, max_iter=self.MAX_ITER, seed=54, workers=2)
        assert serial.final_values.tobytes() == pooled.final_values.tobytes()
        assert serial.iterations.tobytes() == pooled.iterations.tobytes()
        assert serial.converged.tobytes() == pooled.converged.tobytes()
        for k, start in enumerate(serial.initial_controls):
            alone = optimize_run(problem, start, self.MAX_ITER)
            for scan in (serial, pooled):
                assert scan.initial_controls[k].u.tobytes() == start.u.tobytes()
                assert scan.final_controls[k].u.tobytes() == alone.controls.u.tobytes()
                assert scan.final_controls[k].n.tobytes() == alone.controls.n.tobytes()
                assert scan.final_values[k] == alone.objective_value
                assert scan.iterations[k] == alone.iterations

    def test_starts_that_converge_or_stall_leave_and_the_others_go_on(self):
        problem, starts, options = mixed_endings()
        batch = ingrape.optimize_starts(problem, starts, **options)
        endings = [(r.iterations, r.converged, r.stalled) for r in batch]
        assert endings == [(1, True, False), (3, False, True), (4, False, True),
                           (4, False, False), (4, False, False)]
        for start, run in zip(starts, batch):
            assert_same_run(run, optimize_run(problem, start, **options))
            assert_same_run(run, pulse_oracles.per_start_optimize_run(problem, start, **options))

    @staticmethod
    def oracle_rounds(monkeypatch, problem, starts, options):
        """Per start, the segment stacks (trials) before each of its adjoint
        stacks and after the last one, from the per-start oracle; and its
        total segment and adjoint slices."""
        d2 = problem.pairing[2].shape[0]
        groups, slices = [], [0, 0]
        real = pulse_oracles.expm_stack

        def counted(a):
            adjoint = a.shape[-1] == 2 * d2
            slices[adjoint] += a.shape[0]
            if adjoint:
                groups[-1].append(0)
            else:
                groups[-1][-1] += 1
            return real(a)

        monkeypatch.setattr(pulse_oracles, "expm_stack", counted)
        for start in starts:
            groups.append([0])
            pulse_oracles.per_start_optimize_run(problem, start, **options)
        monkeypatch.undo()
        return groups, slices

    @pytest.mark.parametrize("setting", ["tgate-scan", "mixed-endings"])
    def test_one_forward_stack_per_round_and_one_adjoint_stack_per_round_of_iterates(
        self, monkeypatch, setting
    ):
        if setting == "tgate-scan":
            problem, starts = TestSpectralStep.tgate_scan_starts()
            starts, options = starts[:6], dict(max_iter=40)
        else:
            problem, starts, options = mixed_endings()
        groups, oracle_slices = self.oracle_rounds(monkeypatch, problem, starts, options)
        # lock-step round j of iteration i runs every start that makes a j-th
        # trial in iteration i; iteration i's adjoint stack holds every start
        # that accepts in it
        width = max(len(g) for g in groups)
        rounds = sum(max(g[i] if i < len(g) else 0 for g in groups) for i in range(width))
        iterates = max(len(g) for g in groups) - 1

        d2 = problem.pairing[2].shape[0]
        calls, slices = [], [0, 0]
        real = ingrape.expm_stack

        def counted(a):
            adjoint = a.shape[-1] == 2 * d2
            calls.append(adjoint)
            slices[adjoint] += a.shape[0]
            return real(a)

        monkeypatch.setattr(ingrape, "expm_stack", counted)
        ingrape.optimize_starts(problem, starts, **options)
        assert calls.count(False) == rounds
        assert calls.count(True) == iterates
        assert slices == oracle_slices
        if setting == "tgate-scan":
            # lock-step cuts the calls at least fivefold
            assert len(calls) * 5 <= sum(sum(g) + len(g) - 1 for g in groups)


class TestClusterReport:
    def test_two_groups(self):
        report = cluster_report([0.1, 0.1001, 0.5], gap_tol=0.01)
        assert report.n_clusters == 2
        np.testing.assert_allclose(report.centers, [0.10005, 0.5], atol=1e-12)
        np.testing.assert_array_equal(report.counts, [2, 1])

    def test_all_equal_is_one_cluster(self):
        report = cluster_report([0.3, 0.3, 0.3, 0.3], gap_tol=1e-6)
        assert report.n_clusters == 1
        assert report.counts[0] == 4

    def test_fine_grid_is_one_cluster(self):
        values = np.linspace(0.0, 1.0, 101)  # spacing 0.01 < gap_tol
        report = cluster_report(values, gap_tol=0.02)
        assert report.n_clusters == 1
        assert report.counts[0] == 101

    def test_counts_sum_to_run_count(self):
        rng = np.random.default_rng(10)
        values = rng.uniform(0, 1, 57)
        report = cluster_report(values, gap_tol=0.01)
        assert report.counts.sum() == 57

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cluster_report([], gap_tol=0.1)

    @pytest.mark.parametrize("gap_tol", [-1.0, -1e-300, float("nan")])
    def test_negative_or_nan_gap_rejected(self, gap_tol):
        # a negative gap would report [0.3, 0.3, 0.3] as three clusters
        with pytest.raises(ValueError, match="gap_tol"):
            cluster_report([0.3, 0.3, 0.3], gap_tol=gap_tol)

    def test_zero_gap_merges_only_equal_values(self):
        report = cluster_report([0.3, 0.3, 0.4], gap_tol=0.0)
        np.testing.assert_array_equal(report.counts, [2, 1])
