import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import expm

from oqctrl import reachable
from oqctrl.cli import main
from oqctrl.core import (bloch_from_density, density_from_bloch, expm_stack, hermitian_basis,
                         random_density, vec)
from oqctrl.lindblad import (
    ControlSchedule,
    build_liouvillian,
    propagate_schedule,
    propagate_segment,
    qubit_decoherence,
    qubit_system,
)
from oqctrl.reachable import (
    BLOCH_FROM_HERMITIAN,
    CoverageGrid,
    SamplerConfig,
    _merged,
    _segment_counts,
    _segment_draws,
    _segment_maps,
    bloch_generator,
    coverage_map,
    run_reachability_study,
    sample_reachable,
    unreachable_report,
)
from oqctrl.serialization import write_csv

from bloch_oracles import qubit_bloch_generator

GROUND = np.diag([1.0, 0.0]).astype(complex)
EXCITED = np.diag([0.0, 1.0]).astype(complex)


def small_cfg(**kw):
    defaults = dict(gamma=0.05, n_samples=200, seed=3, segment_range=(1, 5))
    defaults.update(kw)
    return SamplerConfig(**defaults)


def one_shot_draw(cfg):
    """All random segment data for a run, reproducible from cfg.seed: the
    segment counts, then u, n and log dt of every segment, each in one draw."""
    rng = np.random.default_rng(cfg.seed)
    nseg = _segment_counts(cfg, rng)
    total = int(nseg.sum())
    u = rng.uniform(-cfg.u_max, cfg.u_max, size=total)
    n = rng.uniform(0.0, cfg.n_max, size=total)
    lo = np.log(cfg.duration_range[0] / cfg.omega)
    hi = np.log(cfg.duration_range[1] / cfg.omega)
    dt = np.exp(rng.uniform(lo, hi, size=total))
    return nseg, u, n, dt


def drawn_schedules(cfg):
    """The schedules the sampler propagates, one per sample."""
    nseg, u, n, dt = one_shot_draw(cfg)
    offset = 0
    for count in nseg:
        count = int(count)
        yield ControlSchedule(
            durations=dt[offset : offset + count],
            u=u[offset : offset + count],
            n=n[offset : offset + count],
        )
        offset += count


def sample_reachable_per_point(cfg, rho0):
    """Reference sampler: each sample's segment maps applied one at a time."""
    r0 = bloch_from_density(rho0)
    nseg, u, n, dt = one_shot_draw(cfg)
    maps = _segment_maps(bloch_generator(cfg), u, n, dt)
    points = np.empty((int(nseg.sum()) + cfg.n_samples, 3))
    offset = 0
    k = 0
    start = np.array([r0[0], r0[1], r0[2], 1.0])
    for count in nseg:
        v = start
        points[k] = v[:3]
        k += 1
        for _ in range(int(count)):
            v = maps[offset] @ v
            points[k] = v[:3]
            k += 1
            offset += 1
    return points[:k]


def bloch_flow(cfg, u, n):
    """A, b and the last row of the sampler's augmented generator at (u, n)."""
    g0, gu, gn = bloch_generator(cfg)
    g = g0 + u * gu + n * gn
    return g[:3, :3], g[:3, 3], g[3]


class TestBlochGenerator:
    def test_matches_liouvillian_derivative(self):
        # defining identity: d bloch / dt from the Bloch form equals the
        # Bloch image of the density-matrix derivative
        rng = np.random.default_rng(13)
        cfg = SamplerConfig(omega=1.7, mu=0.8, gamma=0.33)
        system, dec = qubit_system(cfg.omega, cfg.mu), qubit_decoherence(cfg.gamma)
        for _ in range(20):
            u = rng.uniform(-2, 2)
            n = rng.uniform(0, 3)
            a, b, _ = bloch_flow(cfg, u, n)
            gen = build_liouvillian(system, dec, u, n)
            rho = random_density(2, rng)
            r = bloch_from_density(rho)
            drho = (gen @ vec(rho)).reshape(2, 2, order="F")
            lhs = a @ r + b
            rhs = bloch_from_density(drho)  # Tr(drho sigma_a), drho Hermitian
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_structure_at_zero_drive(self):
        gamma, n = 0.5, 0.7
        a, b, last = bloch_flow(SamplerConfig(omega=2.0, mu=1.0, gamma=gamma), 0.0, n)
        big_g = gamma * (2 * n + 1)
        np.testing.assert_allclose(np.diag(a), [-big_g / 2, -big_g / 2, -big_g])
        assert a[0, 1] == pytest.approx(2.0) and a[1, 0] == pytest.approx(-2.0)
        assert a[2, 0] == a[0, 2] == 0.0
        np.testing.assert_allclose(b, [0.0, 0.0, gamma])
        # the trace is conserved exactly, not up to roundoff
        assert np.array_equal(last, np.zeros(4))

    def test_fixed_point_tends_to_center_for_large_n(self):
        a, b, _ = bloch_flow(SamplerConfig(omega=1.0, mu=1.0, gamma=0.4), 0.0, 1e6)
        fixed = np.linalg.solve(a, -b)
        assert np.linalg.norm(fixed) < 1e-6

    def test_trajectory_consistency_long_run(self):
        # Bloch flow and density flow agree over 10 time units
        cfg = SamplerConfig(omega=1.0, mu=1.0, gamma=0.25)
        u, n = 0.6, 0.8
        a, b, _ = bloch_flow(cfg, u, n)
        gen = build_liouvillian(qubit_system(cfg.omega, cfg.mu), qubit_decoherence(cfg.gamma), u, n)
        rho = density_from_bloch([0.3, -0.2, 0.4])
        aug = np.zeros((4, 4))
        aug[:3, :3] = a
        aug[:3, 3] = b
        r_aug = np.array([0.3, -0.2, 0.4, 1.0])
        for t in np.linspace(0.5, 10.0, 20):
            r_bloch = (expm(aug * t) @ r_aug)[:3]
            r_dens = bloch_from_density(propagate_segment(gen, rho, t))
            assert np.max(np.abs(r_bloch - r_dens)) < 1e-9

    @pytest.mark.parametrize("u", [-10.0, 0.0, 3.7, 10.0])
    @pytest.mark.parametrize("n", [0.0, 0.4, 1.0, 1e3, 1e6])
    def test_matches_closed_form_oracle(self, u, n):
        rng = np.random.default_rng(17)
        for _ in range(10):
            cfg = SamplerConfig(
                omega=rng.uniform(0.1, 5.0), mu=rng.uniform(0.1, 3.0), gamma=rng.uniform(1e-3, 1.0)
            )
            a, b, last = bloch_flow(cfg, u, n)
            a_ref, b_ref = qubit_bloch_generator(qubit_system(cfg.omega, cfg.mu), cfg.gamma, u, n)
            tol = 1e-15 * max(1.0, float(np.abs(a_ref).max()))
            assert np.abs(a - a_ref).max() <= tol
            assert np.abs(b - b_ref).max() <= tol
            assert np.array_equal(last, np.zeros(4))

    def test_bloch_from_hermitian_maps_coordinates_to_bloch_and_trace(self):
        # S c = (x, y, z, Tr rho) for the Hermitian coordinates c = T vec(rho),
        # also for a matrix of trace other than 1
        rng = np.random.default_rng(18)
        t = hermitian_basis(2)
        for scale in (1.0, 1.0, 1.0, 2.5):
            rho = scale * random_density(2, rng)
            c = t @ vec(rho)
            assert np.max(np.abs(c.imag)) < 1e-15
            want = np.append(bloch_from_density(rho), np.trace(rho).real)
            np.testing.assert_allclose(BLOCH_FROM_HERMITIAN @ c.real, want, rtol=0, atol=1e-15)


class TestSampler:
    def test_ball_confinement(self):
        pts = sample_reachable(small_cfg(n_samples=2000), GROUND)
        assert np.linalg.norm(pts, axis=1).max() <= 1.0 + 1e-9

    def test_deterministic(self):
        cfg = small_cfg()
        a = sample_reachable(cfg, GROUND)
        b = sample_reachable(cfg, GROUND)
        np.testing.assert_array_equal(a, b)

    def test_matches_density_matrix_propagator(self):
        # the Bloch-coordinate fast path must agree with propagate_schedule
        cfg = small_cfg(n_samples=10)
        system = qubit_system(cfg.omega, cfg.mu)
        dec = qubit_decoherence(cfg.gamma)
        points = sample_reachable(cfg, GROUND)
        k = 0
        for schedule in drawn_schedules(cfg):
            trajectory = propagate_schedule(system, dec, schedule, GROUND)
            for state in trajectory:
                np.testing.assert_allclose(
                    points[k], bloch_from_density(state), atol=1e-9
                )
                k += 1
        assert k == len(points)

    @pytest.mark.parametrize("segment_range", [(1, 1), (3, 3), (1, 5), (1, 20)])
    @pytest.mark.parametrize("n_samples", [1, 2000])
    def test_lock_step_equals_per_point_loop(self, segment_range, n_samples):
        cfg = small_cfg(segment_range=segment_range, n_samples=n_samples, seed=11)
        for rho0 in (GROUND, density_from_bloch([0.3, -0.4, 0.5])):
            fast = sample_reachable(cfg, rho0)
            assert np.array_equal(fast, sample_reachable_per_point(cfg, rho0))

    def test_memory_scales_with_samples_not_segments(self):
        # the maps of one lock-step exist at a time: 1000 samples of 40
        # segments hold 1000 4x4 maps (128 kB), not 40 000 (5 MB)
        cfg = small_cfg(segment_range=(40, 40), n_samples=1000)
        tracemalloc.start()
        try:
            points = sample_reachable(cfg, GROUND)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert points.shape == (41_000, 3)
        assert peak < points.nbytes + 3_000_000

    @pytest.mark.parametrize("rows", [1, 3, "default", "above"])
    def test_blocking_changes_no_bit(self, monkeypatch, rows):
        # the default block covers n_samples in two blocks; samples drop out
        # of the live set at every step, partway through the blocks
        cfg = small_cfg(n_samples=reachable.SAMPLER_BLOCK_ROWS + 1000, segment_range=(1, 4), seed=19)
        nseg = reachable._segment_counts(cfg, np.random.default_rng(cfg.seed))
        assert len(np.unique(nseg)) == 4
        rows = {"default": reachable.SAMPLER_BLOCK_ROWS, "above": cfg.n_samples + 1}.get(rows, rows)
        monkeypatch.setattr(reachable, "SAMPLER_BLOCK_ROWS", rows)
        stacks = []
        segment_maps = reachable._segment_maps

        def spy(generator, u, n, dt):
            stacks.append(len(dt))
            return segment_maps(generator, u, n, dt)

        monkeypatch.setattr(reachable, "_segment_maps", spy)
        rho0 = density_from_bloch([0.3, -0.4, 0.5])
        blocked = sample_reachable(cfg, rho0)
        monkeypatch.undo()
        assert max(stacks) == min(rows, cfg.n_samples) and sum(stacks) == nseg.sum()
        assert np.array_equal(blocked, sample_reachable_per_point(cfg, rho0))

    def test_step_memory_is_bounded_by_the_block(self):
        # beyond the points and the drawn schedules, a step holds one block's
        # maps (a few arrays of block x 4 x 4 floats) and a few vectors over
        # the live samples (state, index and mask: under 100 bytes a sample);
        # a whole step in one stack holds about 385 bytes a sample and fails it
        block_bytes = reachable.SAMPLER_BLOCK_ROWS * 4 * 4 * 8
        cfg = small_cfg(n_samples=5 * reachable.SAMPLER_BLOCK_ROWS, segment_range=(1, 2))
        schedule_bytes = sum(a.nbytes for a in one_shot_draw(cfg))
        tracemalloc.start()
        try:
            points = sample_reachable(cfg, GROUND)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - points.nbytes - schedule_bytes < 4 * block_bytes + 100 * cfg.n_samples

    @pytest.mark.parametrize(
        "cfg",
        [
            SamplerConfig(gamma=0.1, seed=909),  # criterion 9, both decoherence rates
            SamplerConfig(gamma=0.01, seed=909),
            SamplerConfig(gamma=0.1, segment_range=(1, 5), n_samples=50_000, seed=7),  # bloch-cloud
        ],
    )
    def test_segment_maps_match_scipy_expm(self, cfg):
        # the first 20 000 segments of the stream; their 1-norms need up to
        # 6 squarings (u_max * duration_range[1] is 100)
        rng = np.random.default_rng(cfg.seed)
        total = int(_segment_counts(cfg, rng).sum())
        u, n, dt = _segment_draws(cfg, rng.bit_generator.state, total, 0, 20_000)
        g0, gu, gn = bloch_generator(cfg)
        want = expm((u[:, None, None] * gu + n[:, None, None] * gn + g0) * dt[:, None, None])
        got = _segment_maps((g0, gu, gn), u, n, dt)
        scale = np.maximum(1.0, np.linalg.norm(want, axis=(1, 2)))
        assert np.max(np.linalg.norm(got - want, axis=(1, 2)) / scale) <= 1e-11

    def test_sampler_exponentiates_every_segment_with_expm_stack(self, monkeypatch):
        # reachable gives out scipy's name (core.__getattr__) only for the benchmark's tracer;
        # every segment map goes through core.expm_stack instead
        def refuse(a):
            raise AssertionError("scipy's expm called")

        slices = []

        def spy(a):
            slices.append(len(a))
            return expm_stack(a)

        cfg = small_cfg(n_samples=300)
        points = sample_reachable(cfg, GROUND)
        monkeypatch.setattr(reachable, "expm", refuse)
        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        monkeypatch.setattr(reachable, "expm_stack", spy)
        assert np.array_equal(sample_reachable(cfg, GROUND), points)
        assert sum(slices) == _segment_counts(cfg, np.random.default_rng(cfg.seed)).sum()

    @pytest.mark.parametrize(
        "rho0, worst",
        [
            (np.diag([2.0, 0j]), "trace"),
            (np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex), "hermiticity"),
            (np.diag([1.5, -0.5]).astype(complex), "positivity"),
        ],
    )
    def test_non_state_rejected(self, rho0, worst):
        # each would give points outside the unit ball (norms 2.0, 1.414, 2.0)
        with pytest.raises(ValueError, match=f"not a density matrix \\({worst}\\)"):
            sample_reachable(small_cfg(n_samples=5), rho0)

    def test_closed_system_limit_stays_on_sphere(self):
        # gamma -> 0 with coherent-only schedules preserves purity
        cfg = small_cfg(gamma=1e-12, n_max=0.0, n_samples=500)
        pts = sample_reachable(cfg, density_from_bloch([0.0, 0.0, 1.0]))
        norms = np.linalg.norm(pts, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-8

    def test_vanishing_durations_stay_at_start(self):
        cfg = small_cfg(duration_range=(1e-13, 2e-13), n_samples=300)
        r0 = bloch_from_density(EXCITED)
        pts = sample_reachable(cfg, EXCITED)
        assert np.max(np.linalg.norm(pts - r0, axis=1)) < 1e-9

    def test_incoherent_only_schedules_stay_on_z_axis(self):
        # u = 0: the transverse components have no source from the z axis
        cfg = small_cfg(u_max=0.0, n_samples=500, gamma=0.3)
        pts = sample_reachable(cfg, EXCITED)
        assert np.max(np.abs(pts[:, :2])) < 1e-12
        assert pts[:, 2].min() >= -1.0 - 1e-12
        assert pts[:, 2].max() <= 1.0 + 1e-12


class TestSamplerConfig:
    @pytest.mark.parametrize("resolution", [1, 0, -3])
    def test_resolution_below_two_rejected(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            SamplerConfig(resolution=resolution)

    def test_resolution_two_accepted(self):
        assert SamplerConfig(resolution=2).resolution == 2

    @pytest.mark.parametrize("name", ["omega", "mu", "gamma", "u_max", "n_max"])
    def test_nan_rejected(self, name):
        with pytest.raises(ValueError, match="positive|nonnegative"):
            SamplerConfig(**{name: float("nan")})


class TestCoverageMap:
    def test_single_point_single_cell(self):
        grid = coverage_map(np.array([[0.1, 0.2, -0.3]]), resolution=10)
        assert (grid.counts > 0).sum() == 1
        assert grid.occupied_in_ball_cells == 1

    def test_all_cell_centers_fill_the_ball(self):
        res = 8
        centers = (np.arange(res) + 0.5) * (2.0 / res) - 1.0
        xs, ys, zs = np.meshgrid(centers, centers, centers, indexing="ij")
        pts = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
        pts = pts[np.linalg.norm(pts, axis=1) <= 1.0]
        grid = coverage_map(pts, resolution=res)
        assert grid.occupancy_fraction == pytest.approx(1.0)

    def test_uniform_ball_darts_cover_grid(self):
        # coupon collector: 1e6 darts vs ~4200 in-ball cells at resolution 20
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, (2_000_000, 3))
        pts = pts[np.linalg.norm(pts, axis=1) <= 1.0][:1_000_000]
        grid = coverage_map(pts, resolution=20)
        assert grid.occupancy_fraction > 0.999

    def test_memory_is_bounded_by_the_block_not_the_cloud(self):
        # binning the whole cloud at once held ~100 MB of temporaries for these 24 MB
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.5, 0.5, (1_000_000, 3))
        tracemalloc.start()
        try:
            grid = coverage_map(pts, resolution=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.counts.sum() == grid.radial_counts.sum() == 1_000_000
        assert peak < 4_000_000

    @pytest.mark.parametrize("rows", [1, 7, 1000])
    def test_blocking_changes_no_bit(self, monkeypatch, rows):
        cfg = small_cfg(n_samples=500)
        pts = sample_reachable(cfg, GROUND)
        pts[::97] = 0.0  # zero points are binned but have no direction
        whole = coverage_map(pts, resolution=10)
        assert pts.shape[0] < reachable.COVERAGE_BLOCK_ROWS
        monkeypatch.setattr(reachable, "COVERAGE_BLOCK_ROWS", rows)
        blocked = coverage_map(pts, resolution=10)
        for name in ("counts", "radial_max", "radial_counts"):
            assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes()

    def test_occupancy_monotone_in_points(self):
        cfg = small_cfg(n_samples=2000)
        pts = sample_reachable(cfg, GROUND)
        fractions = [
            coverage_map(pts[:k], resolution=10).occupancy_fraction
            for k in (1000, 4000, len(pts))
        ]
        assert fractions[0] <= fractions[1] <= fractions[2]

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            coverage_map(np.zeros((1, 3)), resolution=1)


class TestUnreachableReport:
    def test_bound_echoes_inputs(self):
        cfg = small_cfg(n_samples=3000, gamma=0.01)
        grid = coverage_map(sample_reachable(cfg, GROUND), 10)
        report = unreachable_report(grid, gamma=0.01, omega=1.0)
        assert report.bound_gamma_over_omega == pytest.approx(0.01)
        assert report.slack == 3.0

    @pytest.mark.parametrize("slack", [-1.0, 0.0, float("nan")])
    def test_slack_must_be_positive(self, slack):
        grid = coverage_map(np.array([[0.1, 0.2, -0.3]]), 10)
        with pytest.raises(ValueError, match="slack"):
            unreachable_report(grid, 0.01, 1.0, slack=slack)

    def test_no_usable_bin_does_not_pass(self):
        # one point leaves every direction bin below MIN_BIN_COUNT, so the
        # gap over the usable bins is 0 and rests on nothing
        grid = coverage_map(np.array([[0.1, 0.2, -0.3]]), 2)
        report = unreachable_report(grid, 0.1, 1.0)
        assert report.low_coverage_bins == grid.radial_counts.size
        assert report.max_radial_gap == 0.0
        assert not report.passed

    def test_non_converged_grid_rejected(self):
        cfg = small_cfg(n_samples=500)
        grid = coverage_map(sample_reachable(cfg, GROUND), 10)
        with pytest.raises(ValueError, match="not converged"):
            unreachable_report(grid, 0.01, 1.0, occupancy_change=0.02)

    def test_study_passes_at_moderate_decoherence(self):
        cfg = SamplerConfig(gamma=0.1, n_samples=20_000, seed=5, resolution=8)
        study = run_reachability_study(cfg, GROUND)
        assert study.report.passed
        assert study.report.max_radial_gap <= 3.0 * 0.1
        assert study.occupancy_change <= 0.005

    def test_study_draws_the_schedules_once(self, monkeypatch):
        # the half-sample grid takes its prefix from the segment counts alone,
        # and the blocks' segment draws tile the stream once, in order
        cfg = SamplerConfig(gamma=0.1, n_samples=4000, seed=11, resolution=4)
        nseg = one_shot_draw(cfg)[0]
        half = cfg.n_samples // 2
        draws = []
        segment_draws = reachable._segment_draws

        def spy(c, state, total, first, count):
            draws.append((c, total, first, count))
            return segment_draws(c, state, total, first, count)

        monkeypatch.setattr(reachable, "_segment_draws", spy)
        study = run_reachability_study(cfg, GROUND)
        monkeypatch.undo()
        firsts = [first for _, _, first, _ in draws]
        counts = [count for _, _, _, count in draws]
        assert {(c, total) for c, total, _, _ in draws} == {(cfg, nseg.sum())}
        assert firsts == np.cumsum([0] + counts[:-1]).tolist() and sum(counts) == nseg.sum()
        points = sample_reachable(cfg, GROUND)
        half_grid = coverage_map(points[: int(nseg[:half].sum()) + half], cfg.resolution)
        assert study.occupancy_change == abs(
            study.grid.occupancy_fraction - half_grid.occupancy_fraction
        )

    def test_gap_scales_with_gamma(self):
        # the declared size claim: empirical gap tracks gamma/omega
        gaps = {}
        for gamma in (0.1, 0.01):
            cfg = SamplerConfig(gamma=gamma, n_samples=30_000, seed=7)
            pts = sample_reachable(cfg, GROUND)
            grid = coverage_map(pts, cfg.resolution)
            gaps[gamma] = unreachable_report(grid, gamma, cfg.omega).max_radial_gap
        ratio = gaps[0.1] / gaps[0.01]
        assert 2.5 <= ratio <= 40.0


class TestStudyBinning:
    @pytest.mark.parametrize("where", ["zero", "one", "block", "block+1", "end"])
    def test_merged_grid_is_one_coverage_map(self, monkeypatch, where):
        monkeypatch.setattr(reachable, "COVERAGE_BLOCK_ROWS", 64)
        pts = sample_reachable(small_cfg(n_samples=100), GROUND)
        pts[::13] = 0.0  # zero points are binned but have no direction
        split = {"zero": 0, "one": 1, "block": 128, "block+1": 129, "end": len(pts)}[where]
        prefix = coverage_map(pts[:split], 10) if split else None
        rest = coverage_map(pts[split:], 10) if split < len(pts) else None
        whole = prefix if rest is None else _merged(prefix, rest)
        assert (whole is rest) == (split == 0)
        pairs = [(whole, coverage_map(pts, 10))]
        if split:
            pairs.append((prefix, coverage_map(pts[:split], 10)))
        for got, want in pairs:
            for name in ("counts", "radial_max", "radial_counts"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    @pytest.mark.parametrize("n_samples", [1, 2, 301])
    def test_study_bins_each_point_once(self, monkeypatch, n_samples):
        binned = []
        real = reachable.coverage_map
        monkeypatch.setattr(
            reachable, "coverage_map", lambda pts, res: binned.append(len(pts)) or real(pts, res)
        )
        cfg = small_cfg(n_samples=n_samples, resolution=2)
        study = run_reachability_study(cfg, GROUND)
        points = sample_reachable(cfg, GROUND)
        assert sum(binned) == len(points)
        assert len(binned) == (1 if n_samples == 1 else 2)
        whole = real(points, cfg.resolution)
        assert study.grid.counts.tobytes() == whole.counts.tobytes()
        assert study.grid.radial_max.tobytes() == whole.radial_max.tobytes()

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_study_of_many_blocks_is_the_study_of_the_whole_cloud(self, monkeypatch, rows):
        # every block boundary, the half-sample edge among them, merges grids
        cfg = small_cfg(n_samples=301, resolution=3, segment_range=(1, 4))
        points = sample_reachable(cfg, GROUND)
        nseg = one_shot_draw(cfg)[0]
        half_grid = coverage_map(points[: int(nseg[:150].sum()) + 150], cfg.resolution)
        whole = coverage_map(points, cfg.resolution)
        monkeypatch.setattr(reachable, "SAMPLER_BLOCK_ROWS", rows)
        blocks = []
        sample = reachable.sample_reachable
        monkeypatch.setattr(
            reachable, "sample_reachable", lambda c, r, a, b: blocks.append((a, b)) or sample(c, r, a, b)
        )
        study = run_reachability_study(cfg, GROUND)
        assert len(blocks) == -(-150 // rows) + -(-151 // rows) and (150, 150 + min(rows, 151)) in blocks
        for name in ("counts", "radial_max", "radial_counts"):
            assert getattr(study.grid, name).tobytes() == getattr(whole, name).tobytes()
        assert study.occupancy_change == abs(whole.occupancy_fraction - half_grid.occupancy_fraction)


def sample_rows(nseg, start, stop):
    """Rows of a whole run's points that samples [start, stop) contribute."""
    return slice(int(nseg[:start].sum()) + start, int(nseg[:stop].sum()) + stop)


class TestStream:
    # 1001 samples: the half edge is at 500, inside the second default block
    CONFIGS = {
        "default": small_cfg(n_samples=1001, segment_range=(1, 20), seed=23),
        # a bound of zero still takes one draw a segment
        "zero-bounds": small_cfg(n_samples=1001, u_max=0.0, n_max=0.0, seed=29),
    }
    RANGES = {
        "edge-0": (0, 5),
        "edge-1": (1, 6),
        "half-edge": (500, 505),
        "last": (996, 1001),
        "split-by-half": (495, 505),
        "all": (0, 1001),
    }

    @pytest.mark.parametrize("name", list(CONFIGS))
    @pytest.mark.parametrize("where", list(RANGES))
    def test_block_draws_are_slices_of_the_one_shot_draw(self, name, where):
        cfg = self.CONFIGS[name]
        start, stop = self.RANGES[where]
        nseg, u, n, dt = one_shot_draw(cfg)
        rng = np.random.default_rng(cfg.seed)
        assert np.array_equal(_segment_counts(cfg, rng), nseg)
        total, first = int(nseg.sum()), int(nseg[:start].sum())
        count = int(nseg[start:stop].sum())
        if where == "last":
            assert nseg[-1] > 1  # the block ends on a sample's last segment
        got = _segment_draws(cfg, rng.bit_generator.state, total, first, count)
        for block, whole in zip(got, (u, n, dt)):
            assert block.tobytes() == whole[first : first + count].tobytes()

    @pytest.mark.parametrize("where", list(RANGES))
    def test_range_points_are_rows_of_the_whole_run(self, where):
        cfg = self.CONFIGS["default"]
        start, stop = self.RANGES[where]
        nseg = one_shot_draw(cfg)[0]
        rho0 = density_from_bloch([0.3, -0.4, 0.5])
        whole = sample_reachable_per_point(cfg, rho0)
        part = sample_reachable(cfg, rho0, start, stop)
        assert part.tobytes() == whole[sample_rows(nseg, start, stop)].tobytes()

    @pytest.mark.parametrize("start, stop", [(0, 0), (5, 5), (6, 5), (-1, 3), (0, 1002)])
    def test_empty_or_outside_range_rejected(self, start, stop):
        with pytest.raises(ValueError, match="sample range"):
            sample_reachable(self.CONFIGS["default"], GROUND, start, stop)

    def test_points_csv_is_write_csv_of_the_whole_cloud(self, tmp_path):
        # an odd count over four blocks: two per half, the second of each short
        n_samples = 2 * reachable.SAMPLER_BLOCK_ROWS + 1001
        payload = {"omega": 1.0, "mu": 1.0, "gamma": 0.1, "samples": n_samples,
                   "segments": [1, 3], "resolution": 2, "seed": 31}
        (tmp_path / "cfg.json").write_text(json.dumps(payload))
        assert main(["reachable", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]) == 0
        cfg = SamplerConfig(gamma=0.1, n_samples=n_samples, segment_range=(1, 3), resolution=2, seed=31)
        write_csv(tmp_path / "want.csv", ["x", "y", "z"], sample_reachable_per_point(cfg, GROUND))
        assert (tmp_path / "out" / "points.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        assert not (tmp_path / "out" / "points.csv.part").exists()


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamMemory:
    # going from n to 4n samples may add only what the stream holds per
    # sample, the segment counts each block's sampling call redraws (8
    # bytes), plus a small constant; keeping the whole cloud and its
    # schedules costs about 170 bytes a sample at these 1-2 segments
    PER_SAMPLE_BYTES = 8
    CONSTANT_BYTES = 300_000
    N = 2 * reachable.SAMPLER_BLOCK_ROWS

    def configs(self):
        return [small_cfg(n_samples=k, segment_range=(1, 2), resolution=2) for k in (self.N, 4 * self.N)]

    def test_study_memory_does_not_grow_with_the_samples(self):
        small, large = self.configs()
        run_reachability_study(small, GROUND)  # lazy imports and caches
        peaks = [traced_peak(lambda: run_reachability_study(cfg, GROUND)) for cfg in (small, large)]
        assert peaks[1] - peaks[0] < self.PER_SAMPLE_BYTES * 3 * self.N + self.CONSTANT_BYTES

    def test_cli_run_memory_does_not_grow_with_the_samples(self, tmp_path):
        # the CLI run adds the points.csv writer and the manifest's hashes
        argvs = []
        for cfg in self.configs():
            payload = {"omega": cfg.omega, "mu": cfg.mu, "gamma": cfg.gamma, "samples": cfg.n_samples,
                       "segments": list(cfg.segment_range), "resolution": cfg.resolution, "seed": cfg.seed}
            path = tmp_path / f"{cfg.n_samples}.json"
            path.write_text(json.dumps(payload))
            argvs.append(["reachable", str(path), "--out", str(tmp_path / f"out-{cfg.n_samples}")])
        assert main(argvs[0]) == 0  # lazy imports and caches
        peaks = []
        for argv in argvs:
            codes = []
            peaks.append(traced_peak(lambda: codes.append(main(argv))))
            assert codes == [0]
        assert peaks[1] - peaks[0] < self.PER_SAMPLE_BYTES * 3 * self.N + self.CONSTANT_BYTES
