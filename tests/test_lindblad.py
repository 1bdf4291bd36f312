import numpy as np
import pytest
from scipy.linalg import expm

from oqctrl.core import (
    DimensionMismatchError,
    bloch_from_density,
    density_from_bloch,
    random_density,
    vec,
)
from oqctrl.lindblad import (
    ControlSchedule,
    DecoherenceModel,
    DegenerateNullSpaceError,
    PropagationFailure,
    SystemModel,
    build_liouvillian,
    cardano_eigenvalues,
    decoherence_rate,
    propagate_schedule,
    propagate_segment,
    qubit_decoherence,
    qubit_system,
    stationary_state,
    transition_pairs,
)


def random_model(n, rng, gamma_scale=0.2):
    energies = np.sort(rng.uniform(0.0, 2.0, n))
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v = 0.5 * (v + v.conj().T)
    a = rng.uniform(0.0, gamma_scale, (n, n))
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 0.0)
    return SystemModel(energies, v), DecoherenceModel(a, epsilon=1.0)


class TestDecoherenceRate:
    def test_emission_with_occupation(self):
        model = DecoherenceModel(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert decoherence_rate(model, 1, 0, 3.0) == pytest.approx(8.0)

    def test_absorption_with_occupation(self):
        model = DecoherenceModel(np.array([[0.0, 2.0], [2.0, 0.0]]))
        assert decoherence_rate(model, 0, 1, 3.0) == pytest.approx(6.0)

    def test_vacuum_absorption_vanishes(self):
        model = DecoherenceModel(np.array([[0.0, 5.0], [5.0, 0.0]]))
        assert decoherence_rate(model, 0, 1, 0.0) == 0.0

    def test_vacuum_emission_is_coupling(self):
        model = DecoherenceModel(np.array([[0.0, 5.0], [5.0, 0.0]]))
        assert decoherence_rate(model, 1, 0, 0.0) == pytest.approx(5.0)

    def test_same_level_raises(self):
        model = qubit_decoherence(1.0)
        with pytest.raises(ValueError):
            decoherence_rate(model, 1, 1, 0.0)

    def test_negative_occupation_raises(self):
        model = qubit_decoherence(1.0)
        with pytest.raises(ValueError):
            decoherence_rate(model, 1, 0, -0.1)


class TestBuildLiouvillian:
    def test_unitary_case_matches_conjugation(self):
        # gamma = 0: exp(Lt) vec(rho) = vec(e^{-iHt} rho e^{iHt})
        system = SystemModel(np.array([0.5, -0.5]), np.zeros((2, 2)))
        dec = DecoherenceModel(np.zeros((2, 2)))
        gen = build_liouvillian(system, dec, 0.0, 0.0)
        rng = np.random.default_rng(3)
        rho = random_density(2, rng)
        t = 0.7
        h = system.h0
        expected = expm(-1j * h * t) @ rho @ expm(1j * h * t)
        got = propagate_segment(gen, rho, t)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_vacuum_qubit_kernel_is_ground_state(self):
        gen = build_liouvillian(qubit_system(1.0, 1.0), qubit_decoherence(0.5), 0.0, 0.0)
        ground = np.diag([1.0, 0.0]).astype(complex)
        assert np.linalg.norm(gen @ vec(ground)) < 1e-12

    def test_trace_functional_is_left_null_vector(self):
        rng = np.random.default_rng(4)
        for n in (2, 3):
            system, dec = random_model(n, rng)
            gen = build_liouvillian(system, dec, rng.uniform(-1, 1), rng.uniform(0, 2))
            trace_vec = vec(np.eye(n)).conj()
            assert np.max(np.abs(trace_vec @ gen)) < 1e-12

    def test_trace_derivative_vanishes_on_random_state(self):
        rng = np.random.default_rng(5)
        system, dec = random_model(3, rng)
        gen = build_liouvillian(system, dec, 0.3, 0.7)
        rho = random_density(3, rng)
        drho = gen @ vec(rho)
        assert abs(np.sum(drho.reshape(3, 3, order="F").diagonal())) < 1e-12

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError):
            build_liouvillian(qubit_system(1.0, 1.0), qubit_decoherence(0.1), 0.0, -1.0)

    def test_per_transition_occupations(self):
        rng = np.random.default_rng(6)
        system, dec = random_model(3, rng)
        pairs = transition_pairs(3)
        occ = rng.uniform(0, 1, len(pairs))
        gen = build_liouvillian(system, dec, 0.0, occ)
        assert gen.shape == (9, 9)
        with pytest.raises(DimensionMismatchError):
            build_liouvillian(system, dec, 0.0, occ[:-1])


class TestPropagation:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(0)
        rho = random_density(2, rng)
        gen = build_liouvillian(qubit_system(1.0, 1.0), qubit_decoherence(0.3), 0.2, 0.4)
        np.testing.assert_allclose(propagate_segment(gen, rho, 0.0), rho)

    def test_negative_time_raises(self):
        gen = build_liouvillian(qubit_system(1.0, 1.0), qubit_decoherence(0.3), 0.0, 0.0)
        with pytest.raises(ValueError):
            propagate_segment(gen, np.eye(2) / 2, -0.1)

    def test_excited_population_decays_exponentially(self):
        # closed form: u = 0, n = 0 gives p_excited(t) = e^{-gamma t}
        gamma, t = 0.37, 1.9
        gen = build_liouvillian(qubit_system(1.0, 1.0), qubit_decoherence(gamma), 0.0, 0.0)
        out = propagate_segment(gen, np.diag([0.0, 1.0]).astype(complex), t)
        assert out[1, 1].real == pytest.approx(np.exp(-gamma * t), abs=1e-12)

    def test_unitary_rotation_matches_rodrigues(self):
        # free drift rotates the Bloch vector about z by angle omega * t
        omega, t = 1.3, 0.9
        system = qubit_system(omega, 1.0)
        dec = DecoherenceModel(np.zeros((2, 2)))
        gen = build_liouvillian(system, dec, 0.0, 0.0)
        r0 = np.array([0.6, 0.1, 0.5])
        out = propagate_segment(gen, density_from_bloch(r0), t)
        c, s = np.cos(omega * t), np.sin(omega * t)
        rot = np.array([[c, s, 0], [-s, c, 0], [0, 0, 1.0]])
        np.testing.assert_allclose(bloch_from_density(out), rot @ r0, atol=1e-12)

    def test_semigroup_property(self):
        rng = np.random.default_rng(8)
        gen = build_liouvillian(qubit_system(1.0, 0.7), qubit_decoherence(0.2), 0.5, 0.3)
        rho = random_density(2, rng)
        one_shot = propagate_segment(gen, rho, 1.1)
        split = propagate_segment(gen, propagate_segment(gen, rho, 0.4), 0.7)
        assert np.max(np.abs(one_shot - split)) < 1e-10

    def test_empty_schedule_returns_initial(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        schedule = ControlSchedule(np.zeros(0), np.zeros(0), np.zeros(0))
        traj = propagate_schedule(qubit_system(1.0, 1.0), qubit_decoherence(0.1), schedule, rho)
        assert len(traj) == 1
        np.testing.assert_allclose(traj[0], rho)

    def test_segment_split_invariance(self):
        rng = np.random.default_rng(9)
        system, dec = qubit_system(1.0, 1.0), qubit_decoherence(0.15)
        rho = random_density(2, rng)
        whole = ControlSchedule(np.array([1.4]), np.array([0.8]), np.array([0.6]))
        halves = ControlSchedule(np.array([0.7, 0.7]), np.array([0.8, 0.8]), np.array([0.6, 0.6]))
        a = propagate_schedule(system, dec, whole, rho)[-1]
        b = propagate_schedule(system, dec, halves, rho)[-1]
        assert np.max(np.abs(a - b)) < 1e-10

    def test_detailed_balance_stationary_state(self):
        # p_excited / p_ground -> n/(n+1) after long evolution
        system, dec = qubit_system(1.0, 1.0), qubit_decoherence(0.8)
        schedule = ControlSchedule(np.array([200.0]), np.array([0.0]), np.array([1.0]))
        final = propagate_schedule(system, dec, schedule, np.eye(2, dtype=complex) / 2)[-1]
        np.testing.assert_allclose(final, np.diag([2.0 / 3.0, 1.0 / 3.0]), atol=1e-8)

    def test_trajectory_states_stay_valid(self):
        rng = np.random.default_rng(10)
        for n in (2, 3):
            system, dec = random_model(n, rng)
            m = 5
            schedule = ControlSchedule(
                rng.uniform(0.1, 1.0, m), rng.uniform(-1, 1, m), rng.uniform(0, 1, m)
            )
            traj = propagate_schedule(system, dec, schedule, random_density(n, rng))
            for state in traj:
                assert abs(np.trace(state) - 1) < 1e-10
                assert np.linalg.eigvalsh(state).min() > -1e-9

    def test_bloch_contractivity(self):
        # distance between two trajectories is non-increasing when gamma > 0
        system, dec = qubit_system(1.0, 0.9), qubit_decoherence(0.4)
        rng = np.random.default_rng(12)
        m = 6
        schedule = ControlSchedule(
            rng.uniform(0.2, 1.0, m), rng.uniform(-1, 1, m), rng.uniform(0, 1.5, m)
        )
        t1 = propagate_schedule(system, dec, schedule, random_density(2, rng))
        t2 = propagate_schedule(system, dec, schedule, random_density(2, rng))
        dists = [
            np.linalg.norm(bloch_from_density(a) - bloch_from_density(b))
            for a, b in zip(t1, t2)
        ]
        for earlier, later in zip(dists, dists[1:]):
            assert later <= earlier + 1e-12

    @pytest.mark.parametrize("columns", [1, 2, 4])
    def test_wrong_occupation_column_count_raises(self, columns):
        # a qutrit has three level pairs; one occupation row per segment
        # must give one column for each of them
        rng = np.random.default_rng(13)
        system, dec = random_model(3, rng)
        schedule = ControlSchedule(np.array([0.5, 0.5]), np.zeros(2), np.full((2, columns), 0.3))
        with pytest.raises(DimensionMismatchError):
            propagate_schedule(system, dec, schedule, random_density(3, rng))

    def test_blowup_reported(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        schedule = ControlSchedule(np.array([1.0]), np.array([0.0]), np.array([0.0]))
        with pytest.raises(PropagationFailure):
            propagate_schedule(qubit_system(1.0, 1.0), qubit_decoherence(0.1), schedule, bad)


class TestCardano:
    def test_diagonal(self):
        roots = sorted(cardano_eigenvalues(np.diag([1.0, 2.0, 3.0])).real)
        np.testing.assert_allclose(roots, [1, 2, 3], atol=1e-12)

    def test_rotation_generator_spectrum(self):
        omega = 2.0
        m = np.array([[0, -omega, 0], [omega, 0, 0], [0, 0, 0.0]])
        roots = cardano_eigenvalues(m)
        got = sorted(roots, key=lambda z: (round(z.real, 10), round(z.imag, 10)))
        np.testing.assert_allclose(got, [-2j, 0, 2j], atol=1e-12)

    def test_repeated_root(self):
        roots = np.sort(cardano_eigenvalues(np.diag([1.0, 1.0, 2.0])).real)
        np.testing.assert_allclose(roots, [1, 1, 2], atol=1e-10)

    def test_matches_generic_eigensolver(self):
        rng = np.random.default_rng(14)
        key = lambda z: (round(z.real, 12), round(z.imag, 12))
        for _ in range(500):
            m = rng.uniform(-1, 1, (3, 3))
            ours = sorted(cardano_eigenvalues(m), key=key)
            ref = sorted(np.linalg.eigvals(m), key=key)
            assert np.max(np.abs(np.array(ours) - np.array(ref))) < 1e-10

    def test_characteristic_residual(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            m = rng.uniform(-3, 3, (3, 3))
            scale = 1.0 + np.linalg.norm(m) ** 3
            for lam in cardano_eigenvalues(m):
                assert abs(np.linalg.det(m - lam * np.eye(3))) < 1e-8 * scale

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            cardano_eigenvalues(np.array([[np.inf, 0, 0], [0, 1, 0], [0, 0, 1]]))


class TestStationaryState:
    def test_vacuum_ground_state(self):
        rho = stationary_state(qubit_system(1.0, 1.0), qubit_decoherence(0.3), 0.0, 0.0)
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-10)

    def test_detailed_balance(self):
        rho = stationary_state(qubit_system(1.0, 1.0), qubit_decoherence(0.3), 0.0, 1.0)
        np.testing.assert_allclose(rho, np.diag([2.0 / 3.0, 1.0 / 3.0]), atol=1e-10)

    def test_infinite_temperature_limit(self):
        rho = stationary_state(qubit_system(1.0, 1.0), qubit_decoherence(0.3), 0.0, 1e6)
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-6)

    def test_agrees_with_long_time_propagation(self):
        rng = np.random.default_rng(16)
        system, dec = random_model(3, rng, gamma_scale=0.5)
        u, n = 0.4, 0.6
        rho_ss = stationary_state(system, dec, u, n)
        gen = build_liouvillian(system, dec, u, n)
        assert np.linalg.norm(gen @ vec(rho_ss)) < 1e-10
        far = propagate_segment(gen, random_density(3, rng), 400.0)
        assert np.max(np.abs(far - rho_ss)) < 1e-6

    def test_degenerate_null_space_reported(self):
        # no dissipation: every density matrix commuting with H is stationary
        system = qubit_system(1.0, 1.0)
        dec = DecoherenceModel(np.zeros((2, 2)))
        with pytest.raises(DegenerateNullSpaceError):
            stationary_state(system, dec, 0.0, 0.0)
