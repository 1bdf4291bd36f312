import numpy as np
import pytest

from oqctrl import stiefel
from oqctrl.core import (
    PAULI_Z,
    apply_kraus,
    expectation,
    random_density,
)
from oqctrl.stiefel import (
    classify_critical_point,
    gradient,
    hessian_apply,
    kraus_from_stiefel,
    maximize,
    multistart_maximize,
    objective,
    project_tangent,
    random_stiefel,
    retract,
    stiefel_from_kraus,
    stiefel_residual,
    tangency_residual,
)

from random_matrices import random_hermitian, random_kraus, random_unitary
import stiefel_oracles
from stiefel_oracles import hessian_curve


def inner(a, b):
    return float(np.real(np.sum(a.conj() * b)))


def random_tangent(s, rng):
    z = rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape)
    d = project_tangent(s, z)
    return d / np.linalg.norm(d)


def replace_channel_point(v):
    """Stiefel point of the channel rho -> |v><v| (K_i = |v><i|)."""
    n = v.size
    kraus = [np.outer(v, np.eye(n)[i]) for i in range(n)]
    return stiefel_from_kraus(kraus)


def fit_slope(ts, errs):
    return np.polyfit(np.log(ts), np.log(np.asarray(errs) + 1e-300), 1)[0]


class TestStacking:
    def test_identity_padding(self):
        s = stiefel_from_kraus([np.eye(2, dtype=complex)])
        assert s.shape == (8, 2)
        assert stiefel_residual(s) < 1e-15
        np.testing.assert_allclose(s[:2], np.eye(2))
        np.testing.assert_allclose(s[2:], 0)

    def test_padding_equivalence(self):
        k = [np.eye(2, dtype=complex)]
        padded = k + [np.zeros((2, 2), dtype=complex)] * 3
        np.testing.assert_allclose(stiefel_from_kraus(k), stiefel_from_kraus(padded))

    def test_random_kraus_residual(self):
        rng = np.random.default_rng(0)
        for n in (2, 3):
            s = stiefel_from_kraus(random_kraus(n, n * n, rng))
            assert stiefel_residual(s) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        kraus = random_kraus(2, 4, rng)
        back = kraus_from_stiefel(stiefel_from_kraus(kraus))
        for a, b in zip(kraus, back):
            np.testing.assert_allclose(a, b)

    def test_violating_set_rejected(self):
        with pytest.raises(ValueError):
            stiefel_from_kraus([1.1 * np.eye(2, dtype=complex)])


class TestObjective:
    def test_identity_channel_reduces_to_expectation(self):
        rng = np.random.default_rng(2)
        rho = random_density(2, rng)
        obs = random_hermitian(2, rng)
        s = stiefel_from_kraus([np.eye(2, dtype=complex)])
        assert objective(s, rho, obs) == pytest.approx(expectation(rho, obs), abs=1e-12)

    def test_replace_channel_reaches_max_eigenvalue(self):
        rng = np.random.default_rng(3)
        obs = random_hermitian(3, rng)
        w, v = np.linalg.eigh(obs)
        s = replace_channel_point(v[:, -1])
        rho = random_density(3, rng)
        assert objective(s, rho, obs) == pytest.approx(w[-1], abs=1e-12)

    def test_matches_kraus_form(self):
        rng = np.random.default_rng(4)
        for n in (2, 3):
            kraus = random_kraus(n, n * n, rng)
            rho = random_density(n, rng)
            obs = random_hermitian(n, rng)
            via_kraus = expectation(apply_kraus(kraus, rho), obs)
            via_stiefel = objective(stiefel_from_kraus(kraus), rho, obs)
            assert via_stiefel == pytest.approx(via_kraus, abs=1e-12)

    def test_bounded_by_spectrum(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 4))
            s = random_stiefel(n, rng)
            rho = random_density(n, rng)
            obs = random_hermitian(n, rng)
            w = np.linalg.eigvalsh(obs)
            j = objective(s, rho, obs)
            assert w[0] - 1e-9 <= j <= w[-1] + 1e-9


class TestGradient:
    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(6)
        for n in (2, 3):
            for _ in range(10):
                s = random_stiefel(n, rng)
                rho = random_density(n, rng)
                obs = random_hermitian(n, rng)
                g = gradient(s, rho, obs)
                d = random_tangent(s, rng)
                t = 1e-5
                fd = (objective(retract(s, t * d), rho, obs)
                      - objective(retract(s, -t * d), rho, obs)) / (2 * t)
                assert fd == pytest.approx(inner(g, d), rel=1e-6)

    def test_gradient_is_tangent(self):
        rng = np.random.default_rng(7)
        s = random_stiefel(3, rng)
        g = gradient(s, random_density(3, rng), random_hermitian(3, rng))
        assert tangency_residual(s, g) < 1e-12
        assert np.max(np.abs(project_tangent(s, g) - g)) < 1e-12

    def test_zero_at_replace_channel_maximizer(self):
        rng = np.random.default_rng(8)
        obs = random_hermitian(3, rng)
        _, v = np.linalg.eigh(obs)
        s = replace_channel_point(v[:, -1])
        rho = random_density(3, rng)  # full rank
        g = project_tangent(s, gradient(s, rho, obs))
        assert np.linalg.norm(g) < 1e-8

    def test_constant_objective_gives_zero_gradient(self):
        rng = np.random.default_rng(9)
        n = 3
        s = random_stiefel(n, rng)
        g = gradient(s, np.eye(n) / n, np.eye(n))
        assert np.max(np.abs(g)) < 1e-12

    def test_gauge_invariance(self):
        # remixing K_i -> sum_j U_ij K_j is S -> (U kron I) S; J and the
        # gradient norm are unchanged
        rng = np.random.default_rng(10)
        n = 2
        s = random_stiefel(n, rng)
        rho = random_density(n, rng)
        obs = random_hermitian(n, rng)
        u = random_unitary(n * n, rng)
        s2 = np.kron(u, np.eye(n)) @ s
        assert stiefel_residual(s2) < 1e-12
        assert objective(s2, rho, obs) == pytest.approx(objective(s, rho, obs), abs=1e-12)
        g1 = np.linalg.norm(gradient(s, rho, obs))
        g2 = np.linalg.norm(gradient(s2, rho, obs))
        assert g2 == pytest.approx(g1, abs=1e-10)


class TestHessian:
    def test_zero_direction(self):
        rng = np.random.default_rng(11)
        s = random_stiefel(2, rng)
        h = hessian_apply(s, np.zeros_like(s), random_density(2, rng), random_hermitian(2, rng))
        assert np.max(np.abs(h)) == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(12)
        s = random_stiefel(2, rng)
        rho = random_density(2, rng)
        obs = random_hermitian(2, rng)
        d1 = random_tangent(s, rng)
        d2 = random_tangent(s, rng)
        a, b = 0.7, -1.3
        lhs = hessian_apply(s, a * d1 + b * d2, rho, obs)
        rhs = a * hessian_apply(s, d1, rho, obs) + b * hessian_apply(s, d2, rho, obs)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_non_tangent_direction_rejected(self):
        rng = np.random.default_rng(13)
        s = random_stiefel(2, rng)
        with pytest.raises(ValueError, match="tangent"):
            hessian_apply(s, s.copy(), random_density(2, rng), random_hermitian(2, rng))

    def test_quadratic_model_along_hessian_curve(self):
        # generic point: remainder of the second-order model is O(t^3)
        rng = np.random.default_rng(14)
        for n in (2, 3):
            s = random_stiefel(n, rng)
            rho = random_density(n, rng)
            obs = random_hermitian(n, rng)
            d = random_tangent(s, rng)
            g = gradient(s, rho, obs)
            q = inner(d, hessian_apply(s, d, rho, obs))
            ts = np.geomspace(1e-2, 1e-3, 6)
            errs = [
                abs(objective(hessian_curve(s, d, t), rho, obs)
                    - objective(s, rho, obs) - t * inner(g, d) - 0.5 * t * t * q)
                for t in ts
            ]
            assert fit_slope(ts, errs) == pytest.approx(3.0, abs=0.2)

    def test_second_difference_at_critical_point(self):
        # at a critical point the quadratic form is curve independent and the
        # QR-retracted second difference must match to 1e-4 relative
        rng = np.random.default_rng(15)
        obs = random_hermitian(3, rng)
        _, v = np.linalg.eigh(obs)
        s = replace_channel_point(v[:, 1])
        rho = random_density(3, rng)
        d = random_tangent(s, rng)
        q = inner(d, hessian_apply(s, d, rho, obs))
        h = 1e-3
        j0 = objective(s, rho, obs)
        fd = (objective(retract(s, h * d), rho, obs) - 2 * j0
              + objective(retract(s, -h * d), rho, obs)) / h**2
        assert fd == pytest.approx(q, rel=1e-4)

    def test_quadratic_model_at_critical_point_with_retract(self):
        rng = np.random.default_rng(16)
        obs = random_hermitian(3, rng)
        _, v = np.linalg.eigh(obs)
        s = replace_channel_point(v[:, 1])
        rho = random_density(3, rng)
        d = random_tangent(s, rng)
        q = inner(d, hessian_apply(s, d, rho, obs))
        j0 = objective(s, rho, obs)
        ts = np.geomspace(1e-2, 1e-3, 6)
        errs = [
            abs(objective(retract(s, t * d), rho, obs) - j0 - 0.5 * t * t * q) for t in ts
        ]
        assert fit_slope(ts, errs) >= 2.8


def dense_lifted(observable):
    """kron(I_{N^2}, O), the N^3 x N^3 lift the blockwise product replaces."""
    n = observable.shape[0]
    return np.kron(np.eye(n**2), observable)


class TestDenseLiftOracle:
    # the formulas with the lifted observable as one dense matrix, as they
    # were computed before the blockwise product
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_blockwise_equals_dense(self, n):
        rng = np.random.default_rng(100 + n)
        s = random_stiefel(n, rng)
        r = random_density(n, rng)
        o = random_hermitian(n, rng)
        d = random_tangent(s, rng)
        big = dense_lifted(o)
        sd, dd = s.conj().T, d.conj().T
        j = np.trace(s @ r @ sd @ big).real
        g = 2.0 * big @ s @ r - s @ (sd @ big @ s @ r) - s @ r @ (sd @ big @ s)
        h = (
            2.0 * big @ d @ r
            - d @ sd @ big @ s @ r
            - d @ r @ sd @ big @ s
            - s @ sd @ big @ d @ r
            + s @ sd @ d @ sd @ big @ s @ r
            - s @ r @ dd @ big @ s
            + big @ s @ r @ dd @ s
        )
        assert abs(objective(s, r, o) - j) < 1e-12
        assert np.max(np.abs(gradient(s, r, o) - g)) < 1e-12
        assert np.max(np.abs(hessian_apply(s, d, r, o) - h)) < 1e-12

    def test_observable_of_another_dimension_rejected(self):
        rng = np.random.default_rng(7)
        s = random_stiefel(2, rng)
        with pytest.raises(ValueError):
            gradient(s, random_density(2, rng), random_hermitian(4, rng))


def random_ambient(n, rng):
    """A Gaussian N^3 x N matrix, off the manifold."""
    return rng.standard_normal((n**3, n)) + 1j * rng.standard_normal((n**3, n))


class TestFusedKernel:
    """The objective and gradient share one product kernel, and the ascent
    evaluates it once per trial point with no projection."""

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("on_manifold", [True, False])
    def test_matches_the_product_by_product_oracle(self, n, on_manifold):
        # the grouped gradient is an identity for any S, not only on the manifold
        rng = np.random.default_rng(300 + n)
        for _ in range(5):
            s = random_stiefel(n, rng) if on_manifold else random_ambient(n, rng)
            rho, obs = random_density(n, rng), random_hermitian(n, rng)
            scale = max(1.0, np.linalg.norm(s, 2)) ** 3 * np.linalg.norm(obs, 2)
            j = stiefel_oracles.objective(s, rho, obs)
            g = stiefel_oracles.gradient(s, rho, obs)
            assert abs(objective(s, rho, obs) - j) <= 1e-12 * scale
            assert np.max(np.abs(gradient(s, rho, obs) - g)) <= 1e-12 * scale

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_every_iterate_is_on_the_manifold_with_a_tangent_gradient(self, monkeypatch, n):
        seen = []
        real = stiefel._gradient

        def recorded(s, *args):
            seen.append((s, real(s, *args)))
            return seen[-1][1]

        monkeypatch.setattr(stiefel, "_gradient", recorded)
        rng = np.random.default_rng(310 + n)
        report = maximize(random_density(n, rng), random_hermitian(n, rng), seed=n, max_iter=60)
        assert len(seen) == report.iterations
        for s, g in seen:
            assert tangency_residual(s, g) <= 1e-12
            assert stiefel_residual(s) < 1e-10

    def test_one_kernel_and_one_retraction_per_trial(self, monkeypatch):
        calls = {"lifted": 0, "retract": 0, "qr": 0, "cholesky": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        def forbidden(*args):
            raise AssertionError("the ascent loop calls a public kernel")

        monkeypatch.setattr(stiefel, "_lifted", counted("lifted", stiefel._lifted))
        monkeypatch.setattr(stiefel, "retract", counted("retract", stiefel.retract))
        monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        for name in ("objective", "gradient", "project_tangent"):
            monkeypatch.setattr(stiefel, name, forbidden)
        # the first start takes every first trial, the second backtracks
        for rng_seed, seed, backtracks in ((321, 4, False), (322, 0, True)):
            calls.update(dict.fromkeys(calls, 0))
            rng = np.random.default_rng(rng_seed)
            report = maximize(random_density(3, rng), random_hermitian(3, rng), seed=seed)
            assert report.converged
            trials = calls["retract"]
            # every accepted step took at least one trial
            assert trials >= report.steps.size == report.iterations - 1
            assert (trials > report.steps.size) == backtracks
            assert calls["lifted"] == 1 + trials
            # one Cholesky factorization per trial; numpy's QR only for the random start
            assert calls["cholesky"] == trials
            assert calls["qr"] == 1


class TestProjectionRetraction:
    def test_projecting_the_point_gives_zero(self):
        rng = np.random.default_rng(17)
        s = random_stiefel(2, rng)
        assert np.max(np.abs(project_tangent(s, s))) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(18)
        s = random_stiefel(3, rng)
        z = rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape)
        once = project_tangent(s, z)
        twice = project_tangent(s, once)
        assert np.max(np.abs(once - twice)) < 1e-12
        assert tangency_residual(s, once) < 1e-12

    def test_retract_zero_is_identity(self):
        rng = np.random.default_rng(19)
        s = random_stiefel(3, rng)
        np.testing.assert_allclose(retract(s, np.zeros_like(s)), s, atol=1e-13)

    def test_retract_first_order_agreement(self):
        rng = np.random.default_rng(20)
        s = random_stiefel(2, rng)
        d = random_tangent(s, rng)
        ts = np.geomspace(1e-2, 1e-4, 5)
        errs = [np.linalg.norm(retract(s, t * d) - (s + t * d)) for t in ts]
        assert fit_slope(ts, errs) == pytest.approx(2.0, abs=0.1)

    def test_retract_satisfies_constraint(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            s = random_stiefel(2, rng)
            z = rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape)
            z /= max(1.0, np.linalg.norm(z))
            assert stiefel_residual(retract(s, z)) < 1e-12


class TestRetractionOracle:
    """``retract`` against the numpy-``qr`` retraction of ``stiefel_oracles``."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_numpy_qr(self, n, order):
        rng = np.random.default_rng(30 + n)
        for real_step in (False, True):
            s = np.asarray(random_stiefel(n, rng), order=order)
            z = rng.standard_normal(s.shape)
            if not real_step:
                z = z + 1j * rng.standard_normal(s.shape)
            step = np.asarray(0.5 * z / np.linalg.norm(z), order=order)
            q = retract(s, step)
            assert np.max(np.abs(q - stiefel_oracles.retract(s, step))) <= 1e-14
            assert stiefel_residual(q) < 1e-13
            # S + step = Q R with R upper triangular and a positive real diagonal
            r = q.conj().T @ (s + step)
            assert np.max(np.abs(np.tril(r, -1))) < 1e-13
            assert np.all(r.diagonal().real > 0)
            assert np.max(np.abs(r.diagonal().imag)) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rank_deficient_sum_rejected_like_the_oracle(self, n):
        s = random_stiefel(n, np.random.default_rng(40 + n))
        deficient = s.copy()
        deficient[:, -1] = deficient[:, 0] if n > 1 else 0.0
        for step in (-s, deficient - s):
            for retraction in (retract, stiefel_oracles.retract):
                with pytest.raises(ValueError, match="rank deficient"):
                    retraction(s, step)


class TestMaximize:
    def test_identity_observable_converges_immediately(self):
        rng = np.random.default_rng(22)
        report = maximize(random_density(2, rng), np.eye(2), seed=0)
        assert report.converged
        assert report.iterations == 1
        assert report.objective_value == pytest.approx(1.0, abs=1e-12)

    def test_qubit_reaches_top_eigenvalue(self):
        rng = np.random.default_rng(23)
        report = maximize(random_density(2, rng), PAULI_Z, seed=1, grad_tol=1e-7)
        assert report.converged
        assert report.objective_value == pytest.approx(1.0, abs=1e-6)

    def test_stall_at_floating_point_optimum_is_diagnosed(self):
        # an unreachable gradient tolerance (no norm is below 0) must end in
        # a diagnosed stall, not an endless loop or an exception
        rng = np.random.default_rng(230)
        report = maximize(random_density(2, rng), PAULI_Z, seed=1, grad_tol=0.0)
        assert not report.converged
        assert report.stalled
        assert "underflow" in report.stall_message
        assert report.objective_value == pytest.approx(1.0, abs=1e-8)

    def test_monotone_history_and_constraint(self):
        rng = np.random.default_rng(24)
        report = maximize(random_density(3, rng), random_hermitian(3, rng), seed=2)
        assert np.all(np.diff(report.objective_history) >= 0)
        assert stiefel_residual(report.point) < 1e-10

    def test_multistart_all_reach_global_maximum(self):
        rng = np.random.default_rng(25)
        rho = random_density(3, rng)
        obs = random_hermitian(3, rng)
        lam_max = np.linalg.eigvalsh(obs).max()
        reports = multistart_maximize(rho, obs, starts=5, seed=7, grad_tol=1e-7)
        for rep in reports:
            assert rep.converged
            assert rep.objective_value == pytest.approx(lam_max, abs=1e-5)

    @pytest.mark.parametrize("scale, shift, worst", [(3.0, 0.0, "trace"), (1.0, 0.4, "positivity")])
    def test_non_density_rho_rejected(self, scale, shift, worst):
        # with Tr(rho) = 3 the gap stop would fire far below the maximum
        rng = np.random.default_rng(5)
        rho = scale * random_density(3, rng) + shift * np.diag([1.0, -1.0, 0.0])
        with pytest.raises(ValueError, match=f"not a density matrix \\({worst}\\)"):
            maximize(rho, random_hermitian(3, rng))

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_needs_an_iteration(self, max_iter):
        rng = np.random.default_rng(28)
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            maximize(random_density(2, rng), PAULI_Z, max_iter=max_iter)

    def test_multistart_needs_a_start(self):
        rng = np.random.default_rng(29)
        with pytest.raises(ValueError, match="starts"):
            multistart_maximize(random_density(2, rng), PAULI_Z, starts=0)

    def test_multistart_deterministic(self):
        rng = np.random.default_rng(26)
        rho = random_density(2, rng)
        obs = random_hermitian(2, rng)
        a = multistart_maximize(rho, obs, starts=3, seed=11)
        b = multistart_maximize(rho, obs, starts=3, seed=11)
        for ra, rb in zip(a, b):
            assert ra.objective_value == rb.objective_value
            assert ra.iterations == rb.iterations

    def test_step_comes_from_the_last_move_and_direction_change(self, monkeypatch):
        seen = []
        real = stiefel.spectral_step
        monkeypatch.setattr(stiefel, "spectral_step", lambda *a: seen.append(a) or real(*a))
        rng = np.random.default_rng(27)
        rho, obs = random_density(3, rng), random_hermitian(3, rng)
        report = maximize(rho, obs, seed=3, max_iter=3)
        assert len(seen) == report.iterations - 1 == 2
        s0 = random_stiefel(3, np.random.default_rng(3))
        s1 = maximize(rho, obs, seed=3, max_iter=1).point
        d0, d1 = (direction(s, rho, obs)[1] for s in (s0, s1))
        dx, dg, _, floor, cap = seen[0]
        assert dx.tobytes() == (s1 - s0).tobytes() and dg.tobytes() == (d1 - d0).tobytes()
        assert (floor, cap) == (stiefel.STIEFEL_STEP_FLOOR, stiefel.STIEFEL_STEP_CAP)

    def test_gap_stop_fires_above_a_positive_grad_tol(self):
        rng = np.random.default_rng(321)
        rho, obs = random_density(3, rng), random_hermitian(3, rng)
        report = maximize(rho, obs, seed=4, grad_tol=1e-8)
        spectrum = np.linalg.eigvalsh(obs)
        tol = stiefel.GAP_TOL * max(1.0, np.abs(spectrum).max())
        assert report.converged and not report.stalled
        assert report.gradient_norms[-1] >= 1e-8
        assert report.gap == pytest.approx(spectrum[-1] - report.objective_value, abs=1e-14)
        assert 0 < report.gap <= tol

    def test_nearly_singular_rho_converges(self):
        # smallest eigenvalue of rho 6.2e-5: plain gradient ascent ended
        # capped at 2000 iterations, 7.7e-6 below lambda_max
        rng = np.random.default_rng(1014)
        rho, obs = random_density(6, rng), random_hermitian(6, rng)
        report = maximize(rho, obs, seed=14)
        assert report.converged
        assert report.iterations <= 60
        assert report.gap <= stiefel.GAP_TOL

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("eps", [1e-6, 1e-10, 1e-13])
    def test_rho_with_a_tiny_eigenvalue_converges(self, n, eps):
        # with the eigenvalue kept on rho's support, a direction with a factor
        # 1/eps made the first retraction rank deficient (eps <= 1e-10) or
        # crawled for 2000 iterations (eps = 1e-6)
        rho, obs = nearly_singular_problem(eps, np.random.default_rng(620 + n), n)
        tol = stiefel.GAP_TOL * max(1.0, np.abs(np.linalg.eigvalsh(obs)).max())
        for seed in range(4):
            report = maximize(rho, obs, seed=seed)
            assert report.converged
            assert report.iterations <= 40
            assert report.gap <= tol

    def test_rank_deficient_retraction_is_a_failed_trial(self, monkeypatch):
        calls = []
        real = stiefel.retract

        def first_fails(s, step):
            calls.append(step)
            if len(calls) == 1:
                raise ValueError("S + step is rank deficient; retraction undefined")
            return real(s, step)

        monkeypatch.setattr(stiefel, "retract", first_fails)
        rng = np.random.default_rng(321)
        report = maximize(random_density(3, rng), random_hermitian(3, rng), seed=4)
        assert report.converged
        assert np.array_equal(calls[1], stiefel.BACKTRACK * calls[0])
        assert report.steps[0] <= stiefel.INITIAL_STEP * stiefel.BACKTRACK

    @pytest.mark.parametrize("shift", [-3.0, 3.0], ids=["negative", "positive"])
    def test_gap_is_taken_from_what_j_optimizes(self, shift):
        # Tr(rho) = 1 - 1e-8 and O Hermitian only to 1e-10, both inside the
        # tolerances maximize accepts: the bound is lambda_max(herm O) Tr(rho)
        rng = np.random.default_rng(630)
        rho = (1.0 - 1e-8) * random_density(3, rng)
        hermitian = random_hermitian(3, rng) + shift * np.eye(3)
        skew = 1e-10j * random_hermitian(3, rng)
        lam = np.linalg.eigvalsh(hermitian)
        tol = stiefel.GAP_TOL * max(1.0, np.abs(lam).max())
        bound = lam[-1] * np.trace(rho).real
        for seed in range(3):
            report = maximize(rho, hermitian + skew, seed=seed)
            assert report.converged
            assert report.gap == pytest.approx(bound - report.objective_value, abs=1e-14)
            assert -tol <= report.gap <= tol

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_rank_deficient_rho_converges(self, rank):
        rho, obs = low_rank_problem(rank, np.random.default_rng(540 + rank))
        tol = stiefel.GAP_TOL * max(1.0, np.abs(np.linalg.eigvalsh(obs)).max())
        for seed in range(3):
            report = maximize(rho, obs, seed=seed)
            assert report.converged
            assert report.iterations <= 40
            assert report.gap <= tol

    @pytest.mark.parametrize("rng_seed", [404, 405, 406, 407])
    def test_gradient_ascent_oracle_reaches_the_same_maximum(self, rng_seed):
        rng = np.random.default_rng(rng_seed)
        rho, obs = random_density(3, rng), random_hermitian(3, rng)
        lam_max = np.linalg.eigvalsh(obs).max()
        for seed in range(3):
            slow = stiefel_oracles.gradient_ascent(rho, obs, seed=seed)
            fast = maximize(rho, obs, seed=seed)
            assert fast.converged
            assert abs(slow - lam_max) <= 1e-10
            assert abs(fast.objective_value - lam_max) <= 1e-10


def nearly_singular_problem(eps, rng, n=4):
    """A density whose smallest eigenvalue is about ``eps`` and a random
    observable at dimension ``n``."""
    u = random_unitary(n, rng)
    p = rng.uniform(0.2, 1.0, n)
    p[-1] = eps
    rho = (u * (p / p.sum())) @ u.conj().T
    return rho, random_hermitian(n, rng)


def low_rank_problem(rank, rng, n=4):
    """A rank-``rank`` density and a random observable at dimension ``n``."""
    u = random_unitary(n, rng)
    p = np.zeros(n)
    p[:rank] = rng.uniform(0.2, 1.0, rank)
    rho = (u * (p / p.sum())) @ u.conj().T
    return rho, random_hermitian(n, rng)


def direction(s, rho, obs):
    """G, D and the slope at S, from the kernels ``maximize`` evaluates there."""
    r, o = np.asarray(rho, dtype=complex), np.asarray(obs, dtype=complex)
    _, os_, w = stiefel._products(s, r, o)
    g = stiefel._gradient(s, r, os_, w)
    return (g, *stiefel._direction(s, g, os_, w, stiefel._metric(r)))


class TestDirection:
    """The preconditioned ascent direction: the Riemannian gradient of the
    metric Re Tr(X^dag Y rho), checked against ``np.linalg.pinv``."""

    @pytest.mark.parametrize("rank", [4, 1, 2, 3])
    def test_gradient_of_the_rho_metric(self, rank):
        rng = np.random.default_rng(600 + rank)
        rho, obs = low_rank_problem(rank, rng)
        pinv = np.linalg.pinv(rho, hermitian=True)
        _, _, pi, _ = stiefel._metric(rho)
        assert np.max(np.abs(pi - pinv @ rho)) <= 1e-12
        for _ in range(5):
            s = random_stiefel(4, rng)
            g, d, slope = direction(s, rho, obs)
            scale = np.linalg.norm(g) * np.linalg.norm(d)
            assert tangency_residual(s, d) <= 1e-12
            # the part normal to span(S) is that of G rho^+
            normal = g @ pinv - s @ (s.conj().T @ g @ pinv)
            assert np.max(np.abs(d - s @ (s.conj().T @ d) - normal)) <= 1e-12 * np.linalg.norm(d)
            # Re Tr(D^dag X rho) = Re <G, X> for tangent X
            for _ in range(3):
                x = random_tangent(s, rng)
                assert abs(inner(d, x @ rho) - inner(g, x)) <= 1e-12 * scale
            assert slope == pytest.approx(inner(g, d), rel=1e-12)
            assert slope == pytest.approx(inner(d, d @ rho), rel=1e-12)

    @pytest.mark.parametrize("eps", [1e-6, 1e-10, 1e-15])
    def test_bounded_when_rho_is_nearly_singular(self, eps):
        # G rho^+ has entries of order 1/eps in the span of S; D stays of the
        # order of the observable
        rng = np.random.default_rng(610)
        rho, obs = nearly_singular_problem(eps, rng)
        for _ in range(5):
            s = random_stiefel(4, rng)
            g, d, _ = direction(s, rho, obs)
            assert np.linalg.norm(g @ np.linalg.pinv(rho, hermitian=True)) >= 1e-3 / eps
            assert np.linalg.norm(d) <= 6.0 * np.sqrt(4) * np.linalg.norm(obs, 2)


class TestClassification:
    @pytest.fixture()
    def spectrum(self):
        rng = np.random.default_rng(27)
        obs = random_hermitian(3, rng)
        rho = random_density(3, rng)  # full rank
        _, v = np.linalg.eigh(obs)
        return rho, obs, v

    def test_top_eigenvector_is_maximum(self, spectrum):
        rho, obs, v = spectrum
        assert classify_critical_point(replace_channel_point(v[:, -1]), rho, obs) == "maximum"

    def test_bottom_eigenvector_is_minimum(self, spectrum):
        rho, obs, v = spectrum
        assert classify_critical_point(replace_channel_point(v[:, 0]), rho, obs) == "minimum"

    def test_middle_eigenvector_is_saddle(self, spectrum):
        rho, obs, v = spectrum
        assert classify_critical_point(replace_channel_point(v[:, 1]), rho, obs) == "saddle"

    def test_non_critical_point_rejected(self, spectrum):
        rho, obs, _ = spectrum
        rng = np.random.default_rng(28)
        with pytest.raises(ValueError, match="critical"):
            classify_critical_point(random_stiefel(3, rng), rho, obs)
