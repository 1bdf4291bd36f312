import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from oqctrl import core, ingrape
from oqctrl.core import (
    PAULI_X,
    PAULI_Z,
    DimensionMismatchError,
    apply_kraus,
    bloch_from_density,
    density_from_bloch,
    expectation,
    expm_stack,
    hermitian_basis,
    hermitian_coordinates,
    kraus_constraint_residual,
    random_density,
    run_multistart,
    spectral_step,
    validate_density,
    vec,
)
from oqctrl.lindblad import (
    DecoherenceModel,
    SystemModel,
    build_liouvillian,
    hamiltonian_superoperator,
)

from random_matrices import random_hermitian, random_kraus, random_unitary
from test_ingrape import FRAGILE, MODELS, random_problem

I2 = np.eye(2, dtype=complex)


class TestValidateDensity:
    def test_maximally_mixed_accepts(self):
        report = validate_density(I2 / 2, tol=1e-12)
        assert report.ok

    def test_pure_diagonal_accepts(self):
        assert validate_density(np.diag([1.0, 0.0]).astype(complex)).ok

    def test_negative_eigenvalue_rejects(self):
        report = validate_density(np.diag([1.5, -0.5]).astype(complex))
        assert not report.ok
        assert report.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)
        assert report.worst == "positivity"

    def test_off_diagonal_indefinite_rejects(self):
        # eigenvalues 0.5 +- 0.6 by the 2x2 closed form
        rho = np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex)
        report = validate_density(rho)
        assert not report.ok
        assert report.min_eigenvalue == pytest.approx(-0.1, abs=1e-12)
        closed_form = np.array([0.5 - 0.6, 0.5 + 0.6])
        np.testing.assert_allclose(np.linalg.eigvalsh(rho), closed_form, atol=1e-12)

    def test_trace_violation_reported(self):
        report = validate_density(np.diag([0.8, 0.1]).astype(complex))
        assert not report.ok
        assert report.worst == "trace"

    def test_non_square_raises(self):
        with pytest.raises(DimensionMismatchError):
            validate_density(np.zeros((2, 3)))

    def test_dimension_one_raises(self):
        with pytest.raises(DimensionMismatchError):
            validate_density(np.array([[1.0]]))

    def test_bad_tol_raises(self):
        with pytest.raises(ValueError):
            validate_density(I2 / 2, tol=0.0)


class TestBlochMaps:
    def test_center_is_maximally_mixed(self):
        np.testing.assert_allclose(bloch_from_density(I2 / 2), [0, 0, 0], atol=1e-15)

    def test_ground_state_is_north_pole(self):
        np.testing.assert_allclose(
            bloch_from_density(np.diag([1.0, 0.0])), [0, 0, 1], atol=1e-15
        )

    def test_plus_state_is_x_axis(self):
        plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        np.testing.assert_allclose(bloch_from_density(plus), [1, 0, 0], atol=1e-15)

    def test_south_pole_density(self):
        np.testing.assert_allclose(
            density_from_bloch([0, 0, -1]), np.diag([0.0, 1.0]), atol=1e-15
        )

    def test_unit_vector_gives_pure_state(self):
        rho = density_from_bloch([0.6, 0.0, 0.8])
        purity = np.trace(rho @ rho).real
        assert purity == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(rho)), [0.0, 1.0], atol=1e-12
        )

    def test_round_trip_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rho = random_density(2, rng)
            back = density_from_bloch(bloch_from_density(rho))
            assert np.max(np.abs(back - rho)) < 1e-12

    def test_outside_ball_rejected(self):
        with pytest.raises(ValueError):
            density_from_bloch([1.2, 0.0, 0.0])

    def test_wrong_dim_raises(self):
        with pytest.raises(DimensionMismatchError):
            bloch_from_density(np.eye(3) / 3)


class TestKraus:
    def test_identity_channel(self):
        rng = np.random.default_rng(0)
        rho = random_density(2, rng)
        np.testing.assert_allclose(apply_kraus([I2], rho), rho, atol=1e-15)

    def test_bit_flip(self):
        out = apply_kraus([PAULI_X], np.diag([1.0, 0.0]).astype(complex))
        np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-15)

    def test_replace_channel_resets_any_state(self):
        # K1 = |0><0|, K2 = |0><1|: sum K^dag K = I, output always |0><0|
        k1 = np.array([[1, 0], [0, 0]], dtype=complex)
        k2 = np.array([[0, 1], [0, 0]], dtype=complex)
        assert kraus_constraint_residual([k1, k2]) < 1e-15
        rng = np.random.default_rng(1)
        for _ in range(5):
            rho = random_density(2, rng)
            np.testing.assert_allclose(
                apply_kraus([k1, k2], rho), np.diag([1.0, 0.0]), atol=1e-12
            )

    def test_non_trace_preserving_rejected(self):
        with pytest.raises(ValueError, match="residual"):
            apply_kraus([1.1 * I2], I2 / 2)

    def test_residual_zero_for_unitary_mixture(self):
        assert kraus_constraint_residual([I2 / np.sqrt(2), PAULI_Z / np.sqrt(2)]) < 1e-15

    def test_residual_scaled_identity(self):
        # sum K^dag K = 1.21 I, residual = 0.21 * sqrt(2)
        assert kraus_constraint_residual([1.1 * I2]) == pytest.approx(
            0.21 * np.sqrt(2), abs=1e-12
        )

    def test_trace_and_positivity_preserved_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            kraus = random_kraus(n, int(rng.integers(1, n * n + 1)), rng)
            rho = random_density(n, rng)
            out = apply_kraus(kraus, rho)
            assert abs(np.trace(out) - 1) < 1e-12
            assert np.linalg.eigvalsh(0.5 * (out + out.conj().T)).min() > -1e-10

    def test_residual_invariant_under_remixing(self):
        # OSR non-uniqueness: K_i -> sum_j U_ij K_j leaves the constraint sum
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(2, n * n + 1))
            kraus = random_kraus(n, m, rng)
            u = random_unitary(m, rng)
            remixed = [
                sum(u[i, j] * kraus[j] for j in range(m)) for i in range(m)
            ]
            assert kraus_constraint_residual(remixed) == pytest.approx(
                kraus_constraint_residual(kraus), abs=1e-12
            )

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_kraus([np.eye(3)], I2 / 2)


class TestExpectation:
    def test_mixed_state_zero(self):
        assert expectation(I2 / 2, PAULI_Z) == pytest.approx(0.0, abs=1e-15)

    def test_ground_state_one(self):
        assert expectation(np.diag([1.0, 0.0]), PAULI_Z) == pytest.approx(1.0)

    def test_bloch_component_readout(self):
        rho = 0.5 * (I2 + 0.6 * PAULI_X + 0.8 * PAULI_Z)
        assert expectation(rho, PAULI_X) == pytest.approx(0.6, abs=1e-14)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            expectation(I2 / 2, np.eye(3))


class TestHermitianBasis:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_unitary_with_real_coordinates_for_hermitian_matrices(self, d):
        t = hermitian_basis(d)
        np.testing.assert_allclose(t @ t.conj().T, np.eye(d * d), rtol=0, atol=1e-15)
        a = random_hermitian(d, np.random.default_rng(60 + d))
        j, k = np.triu_indices(d, 1)
        expected = np.concatenate(
            [np.diagonal(a).real, np.sqrt(2) * a[j, k].real, np.sqrt(2) * a[k, j].imag]
        )
        # compared as complex numbers: the imaginary parts must vanish too
        np.testing.assert_allclose(t @ vec(a), expected, rtol=0, atol=1e-14)

    def test_qubit_coordinates_are_scaled_bloch_components(self):
        r = np.array([0.3, -0.5, 0.6])
        coords = hermitian_basis(2) @ vec(density_from_bloch(r))
        expected = [(1 + r[2]) / 2, (1 - r[2]) / 2, r[0] / np.sqrt(2), r[1] / np.sqrt(2)]
        np.testing.assert_allclose(coords, expected, rtol=0, atol=1e-15)

    def test_gksl_generator_is_real_in_hermitian_coordinates(self):
        dipole = np.array([[0, 1, 0], [1, 0, 1j], [0, -1j, 0]])
        system = SystemModel(np.array([0.0, 1.0, 1.9]), dipole)
        dec = DecoherenceModel(0.1 * (1.0 - np.eye(3)), epsilon=0.6)
        gen = build_liouvillian(system, dec, 0.7, 0.3)
        real = hermitian_coordinates(gen)
        assert real.dtype == np.float64
        t = hermitian_basis(3)
        np.testing.assert_allclose(t.conj().T @ real @ t, gen, rtol=0, atol=1e-14)

    def test_superoperator_that_breaks_hermiticity_rejected(self):
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            hermitian_coordinates(hamiltonian_superoperator(np.array([[0, 1], [0, 0]])))


class TestSpectralStep:
    def test_ratio_of_inner_products(self):
        dx, dg = np.array([1.0, 2.0]), np.array([3.0, 1.0])
        assert spectral_step(dx, dg, 7.0, 1e-10, 1e3) == 5.0 / 10.0

    def test_negative_curvature_takes_the_absolute_value(self):
        dx, dg = np.array([1.0, 2.0]), np.array([-3.0, -1.0])
        assert spectral_step(dx, dg, 7.0, 1e-10, 1e3) == 0.5

    def test_complex_inputs_use_the_real_inner_product(self):
        # Re <dx, dg> = Re(conj(1j) * 2j) = 2, <dg, dg> = 4
        dx, dg = np.array([[1j]]), np.array([[2j]])
        assert spectral_step(dx, dg, 7.0, 1e-10, 1e3) == 0.5

    def test_zero_gradient_change_keeps_the_step(self):
        assert spectral_step(np.ones(3), np.zeros(3), 7.0, 1e-10, 1e3) == 7.0

    def test_orthogonal_change_keeps_the_step(self):
        # <dx, dg> = 0 gives a zero ratio, which is not a step
        dx, dg = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert spectral_step(dx, dg, 7.0, 1e-10, 1e3) == 7.0

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_ratio_keeps_the_step(self, bad):
        dx, dg = np.array([bad, 1.0]), np.array([1.0, 1.0])
        assert spectral_step(dx, dg, 7.0, 1e-10, 1e3) == 7.0

    def test_overflowing_ratio_keeps_the_step(self):
        # a finite <dg, dg> so small that the ratio overflows to infinity
        dx, dg = np.array([1e300]), np.array([1e-160])
        assert spectral_step(dx, dg, 7.0, 1e-10, 1e3) == 7.0

    def test_clamped_at_both_ends(self):
        dx = np.array([1.0])
        assert spectral_step(dx, np.array([1e-6]), 7.0, 1e-10, 1e3) == 1e3
        assert spectral_step(dx, np.array([1e12]), 7.0, 1e-10, 1e3) == 1e-10
        assert spectral_step(dx, np.array([1.0]), 7.0, 1e-10, 1e3) == 1.0


def _tag_block(seeds):
    """Each seed with the block it came in, so a test can see the blocks."""
    return [(seed, tuple(seeds)) for seed in seeds]


class TestRunMultistart:
    def test_one_block_when_serial(self):
        out = run_multistart(_tag_block, starts=5, seed=3)
        seeds = [seed for seed, _ in out]
        assert len(set(seeds)) == 5
        assert all(block == tuple(seeds) for _, block in out)

    @pytest.mark.parametrize("workers, sizes", [(2, [2, 3]), (3, [1, 2, 2]), (8, [1] * 5)])
    def test_contiguous_blocks_per_worker_in_start_order(self, workers, sizes):
        serial = [seed for seed, _ in run_multistart(_tag_block, starts=5, seed=3)]
        out = run_multistart(_tag_block, starts=5, seed=3, workers=workers)
        assert [seed for seed, _ in out] == serial
        blocks = list(dict.fromkeys(block for _, block in out))
        assert [len(b) for b in blocks] == sizes
        assert [seed for b in blocks for seed in b] == serial

    def test_needs_a_start(self):
        with pytest.raises(ValueError, match="starts must be >= 1"):
            run_multistart(_tag_block, starts=0, seed=3)


def expm_error(got, want):
    """Largest relative Frobenius error ||got - want|| / max(1, ||want||) of a stack."""
    scale = np.maximum(1.0, np.linalg.norm(want, axis=(1, 2)))
    return float(np.max(np.linalg.norm(got - want, axis=(1, 2)) / scale))


def jordan_like(eigenvalue, spread=0.0):
    """A 4x4 similar, by a fixed rotation, to eigenvalue * I + the nilpotent
    shift (one Jordan block), with its eigenvalues moved ``spread`` apart.
    The rotation keeps it off scipy's triangular path, which on the
    triangular form with eigenvalues 1e-8 apart is off by about 5e-9."""
    q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 4)))
    return q @ (eigenvalue * np.eye(4) + np.eye(4, k=1) + np.diag(np.arange(4) * spread)) @ q.T


def mixed_norm_stack(count, rng):
    """Real 4x4 slices whose 1-norms spread from 1e-3 to 200, so their
    scaling powers run from 0 to 9."""
    a = rng.standard_normal((count, 4, 4))
    scales = np.exp(rng.uniform(np.log(1e-3), np.log(200.0), count))
    return a * (scales / np.abs(a).sum(axis=1).max(axis=1))[:, None, None]


def van_loan_blocks(case, kind):
    """The (M, 2d^2, 2d^2) adjoint stack that ``ingrape.grape_gradient``
    exponentiates for ``case``: ((system, decoherence), M, dt, draw)."""
    (system, dec), m, dt, draw = case
    rng = np.random.default_rng(44)
    problem = random_problem(kind, system, dec, m, dt, rng)
    stacks, real = [], ingrape.expm_stack
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingrape, "expm_stack", lambda a: stacks.append(a) or real(a))
        ingrape.grape_gradient(ingrape.ControlVector(*draw(rng, m), dt), problem)
    return stacks[-1]


def taylor_16_per_coefficient(x):
    """T_16(X_i) per slice by the Paterson-Stockmeyer steps of ``core._taylor_16``,
    one scaled power and one diagonal add at a time (the slow-path oracle)."""
    x2 = x @ x
    x3 = x2 @ x
    x4 = x2 @ x2
    p = core._TAYLOR_16[16] * x4
    for i in (3, 2, 1, 0):
        if i < 3:
            p = p @ x4
        for k, xk in enumerate((x, x2, x3), 1):
            p += core._TAYLOR_16[4 * i + k] * xk
        # p is a fresh product, so the reshape is a view: its diagonal, strided
        p.reshape(len(p), -1)[:, :: x.shape[1] + 1] += core._TAYLOR_16[4 * i]
    return p


# the fragile lock-step cases of test_ingrape (qutrits) and the large-norm
# draw on a qubit
VAN_LOAN_CASES = {
    "qubit-large-norm": (MODELS["qubit"],) + FRAGILE["large-norm"][1:],
    **{name: FRAGILE[name] for name in
       ("large-norm", "near-degenerate-energies", "degenerate-energies")},
}


class TestExpmStack:
    # scipy's expm is the oracle: it takes a stack one slice at a time
    @pytest.mark.parametrize("case", list(VAN_LOAN_CASES))
    @pytest.mark.parametrize("kind", ["gate", "state"])
    def test_ingrape_van_loan_blocks(self, case, kind):
        blocks = van_loan_blocks(VAN_LOAN_CASES[case], kind)
        d2 = VAN_LOAN_CASES[case][0][0].dim ** 2
        assert blocks.shape[1:] == (2 * d2, 2 * d2) and blocks.dtype == float
        assert expm_error(expm_stack(blocks), expm(blocks)) <= 1e-12

    def test_qutrit_gksl_generators(self):
        # the segment exponents of the qutrit-gksl benchmark's simulate call:
        # a three-level ladder, random u, one occupation per level pair
        system = SystemModel(
            np.array([0.0, 1.0, 1.9]),
            np.array([[0, 1, 0], [1, 0, np.sqrt(2)], [0, np.sqrt(2), 0]], dtype=complex),
        )
        dec = DecoherenceModel(np.array([[0.0, 0.05, 0.02], [0.05, 0.0, 0.08], [0.02, 0.08, 0.0]]))
        rng = np.random.default_rng(12)
        a = np.stack([
            build_liouvillian(system, dec, rng.uniform(-1, 1), rng.uniform(0, 1, 3))
            * rng.uniform(0.05, 0.5)
            for _ in range(200)
        ])
        assert a.shape == (200, 9, 9) and a.dtype == complex
        assert expm_error(expm_stack(a), expm(a)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 4, 9])
    @pytest.mark.parametrize("kind", [float, complex])
    def test_gaussian_stacks_of_unit_norm(self, n, kind):
        rng = np.random.default_rng(100 + n)
        a = rng.standard_normal((200, n, n))
        if kind is complex:
            a = a + 1j * rng.standard_normal((200, n, n))
        norms = rng.uniform(0.0, 1.0, 200) / np.abs(a).sum(axis=1).max(axis=1)
        a = a * norms[:, None, None]
        got = expm_stack(a)
        assert got.dtype == np.result_type(kind, float)
        assert expm_error(got, expm(a)) <= 1e-14

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 10.0])
    @pytest.mark.parametrize("eigenvalue", [-0.5, 0.0, 1j])
    def test_repeated_eigenvalue(self, scale, eigenvalue):
        # a Jordan block, and the same with eigenvalues 1e-9 apart
        a = scale * np.stack([jordan_like(eigenvalue), jordan_like(eigenvalue, 1e-9)])
        assert expm_error(expm_stack(a), expm(a)) <= 1e-12

    def test_six_or_more_squarings(self):
        # a damped rotation generator with a Jordan part: ||A||_1 > 2^5 theta_16,
        # so the kernel squares at least six times
        rotation = np.kron(np.eye(2), [[0.0, -1.0], [1.0, 0.0]])
        a = 100.0 * (rotation + np.eye(4, k=2) - 0.01 * np.eye(4))
        assert np.abs(a).sum(axis=0).max() > 2**5 * core._THETA_16
        assert expm_error(expm_stack(a[None]), expm(a)[None]) <= 1e-12

    def test_complex_generator(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(3, rng)
        a = np.stack([-1j * h * t for t in (0.1, 1.0, 30.0)]).astype(np.complex64)
        got = expm_stack(a)
        assert got.dtype == np.complex128
        assert expm_error(got, expm(a.astype(complex))) <= 1e-12

    def test_empty_stack(self):
        out = expm_stack(np.zeros((0, 3, 3)))
        assert out.shape == (0, 3, 3) and out.dtype == float

    @pytest.mark.parametrize("kind", [float, complex])
    def test_zero_slice_gives_the_identity_bit_for_bit(self, kind):
        a = np.zeros((3, 4, 4), dtype=kind)
        a[1] = np.eye(4, k=1)
        out = expm_stack(a)
        for i in (0, 2):
            assert np.array_equal(out[i], np.eye(4)) and not np.signbit(out[i].real).any()

    def test_slice_is_bit_identical_alone_and_in_any_stack(self, monkeypatch):
        rows = core.EXPM_CHUNK_ELEMENTS // 16
        a = mixed_norm_stack(rows + 40, np.random.default_rng(11))
        stacked = expm_stack(a)
        for i in (0, rows - 2, rows - 1, rows, rows + 1, rows + 39):
            assert np.array_equal(expm_stack(a[i : i + 1])[0], stacked[i])
        assert np.array_equal(expm_stack(a[::-1])[::-1], stacked)
        monkeypatch.setattr(core, "EXPM_CHUNK_ELEMENTS", 7 * 16)
        assert np.array_equal(expm_stack(a), stacked)

    @pytest.mark.parametrize("a", [np.diag([800.0, 0.0]), np.diag([np.nan, 0.0])])
    def test_non_finite_exponential_is_named(self, a):
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="^matrix exponential must be finite$"):
                expm_stack(np.stack([np.zeros((2, 2)), a]))

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3, 4), (2, 0, 0)])
    def test_stack_of_square_matrices_required(self, shape):
        with pytest.raises(DimensionMismatchError, match="expm_stack"):
            expm_stack(np.zeros(shape))

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 9])
    @pytest.mark.parametrize("kind", [float, complex])
    def test_taylor_16_matches_the_per_coefficient_loop(self, n, kind):
        # 1-norms from 0 to theta_16, the range expm_stack evaluates T_16 on;
        # within 4 ulps of each slice's largest entry (2 seen)
        rng = np.random.default_rng(200 + n)
        x = rng.standard_normal((500, n, n))
        if kind is complex:
            x = x + 1j * rng.standard_normal((500, n, n))
        x *= (rng.uniform(0.0, core._THETA_16, 500) / np.abs(x).sum(axis=1).max(axis=1))[:, None, None]
        got, want = core._taylor_16(x), taylor_16_per_coefficient(x)
        scale = np.abs(want).max(axis=(1, 2), keepdims=True)
        assert got.dtype == want.dtype
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)

    def test_theta_16_is_the_unit_roundoff_backward_error_bound(self):
        # h(x) = log(e^-x T_16(x)) = sum_{k>16} c_k x^k, exactly to degree 60
        # from T h' = T' - T (T = T_16); the backward error of a slice of
        # 1-norm theta is at most sum |c_k| theta^(k-1) of its norm
        t = [Fraction(1, math.factorial(k)) for k in range(17)] + [Fraction(0)] * 44
        dh = [Fraction(0)] * 60  # dh[n]: the x^n coefficient of h'
        for n in range(60):
            dh[n] = (n + 1) * t[n + 1] - t[n] - sum(t[n - j] * dh[j] for j in range(n))
        assert not any(dh[:16])
        c = {k: dh[k - 1] / k for k in range(17, 61)}

        def bound(theta):
            return sum(abs(ck) * Fraction(theta) ** (k - 1) for k, ck in c.items())

        assert bound(core._THETA_16) <= Fraction(1, 2**53)
        assert bound(core._THETA_16 * (1 + 1e-5)) > Fraction(1, 2**53)
        assert np.array_equal(core._TAYLOR_16, [float(x) for x in t[:17]])

    def test_no_linear_solve(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("expm_stack solved a linear system")

        a = mixed_norm_stack(600, np.random.default_rng(12))
        want = [expm_stack(a), expm_stack(a * 1j)]
        monkeypatch.setattr(np.linalg, "solve", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        assert np.array_equal(expm_stack(a), want[0])
        assert np.array_equal(expm_stack(a * 1j), want[1])
