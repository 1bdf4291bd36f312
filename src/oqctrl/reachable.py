"""Monte-Carlo exploration of the qubit reachable set in the Bloch ball.

Random admissible piecewise-constant schedules (bounded coherent amplitude,
nonnegative occupations, log-uniform durations) are propagated from a fixed
initial state; every segment-boundary state contributes one Bloch point.
The cloud under-approximates the true reachable set, so the reported
unreachable region is an over-approximation and all pass/fail thresholds
carry a declared slack constant.

The propagation runs in Bloch coordinates, dr/dt = A r + b, through batched
exponentials of the augmented 4x4 generator [[A, b], [0, 0]]: lindblad's
affine triple (L0, Du, Dn) carried to the Bloch coordinates by one fixed
change of basis, so the sampler and the density-matrix propagator share one
GKSL generator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .core import (PAULI_X, PAULI_Y, PAULI_Z, bloch_from_density, expm_stack, hermitian_basis,
                   require_finite, validate_density, vec,
                   __getattr__)  # the lazy name expm, looked up by perfbench's tracer only
from .lindblad import VALIDATION_TOL, affine_generator, qubit_decoherence, qubit_system

# (cos theta, azimuth) bins of the radial-maximum map; bins with fewer than
# MIN_BIN_COUNT samples are left out of the gap estimate
DIRECTION_BINS = (12, 24)
MIN_BIN_COUNT = 5
# default looseness of the gap bound: max radial gap <= SLACK * gamma/omega
SLACK = 3.0
# points binned at a time by coverage_map, which bounds its temporaries
COVERAGE_BLOCK_ROWS = 16384
# live samples whose maps sample_reachable builds and applies at a time,
# which bounds the temporaries of one lock-step; also the samples of one
# block of a study's stream
SAMPLER_BLOCK_ROWS = 4096
# S with (x, y, z, Tr rho) = S T vec(rho) for T = core.hermitian_basis(2)
BLOCH_FROM_HERMITIAN = np.array(
    [(vec(p.T) @ hermitian_basis(2).conj().T).real for p in (PAULI_X, PAULI_Y, PAULI_Z, np.eye(2))]
)


@dataclass(frozen=True)
class SamplerConfig:
    """Qubit parameters, control bounds and sampling plan.

    Durations are drawn log-uniformly from ``duration_range`` scaled by
    1/omega, spanning fast-control and relaxation timescales; segment counts
    are uniform over ``segment_range`` (inclusive).
    """

    omega: float = 1.0
    mu: float = 1.0
    gamma: float = 0.01
    u_max: float = 10.0
    n_max: float = 1.0
    segment_range: tuple[int, int] = (1, 20)
    duration_range: tuple[float, float] = (0.01, 10.0)
    n_samples: int = 100_000
    seed: int = 0
    resolution: int = 10

    def __post_init__(self):
        for name in ("segment_range", "duration_range"):  # tuples, so a config hashes
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not (self.omega > 0 and self.mu > 0 and self.gamma > 0):
            raise ValueError("omega, mu, gamma must be positive")
        if not (self.u_max >= 0 and self.n_max >= 0):
            raise ValueError("control bounds must be nonnegative")
        if self.n_samples < 1:
            raise ValueError("sample count must be >= 1")
        if len(self.segment_range) != 2 or not (1 <= self.segment_range[0] <= self.segment_range[1]):
            raise ValueError("segment range must be (lo, hi) with 1 <= lo <= hi")
        if len(self.duration_range) != 2 or not (0 < self.duration_range[0] < self.duration_range[1]):
            raise ValueError("duration range must be (lo, hi) with 0 < lo < hi")
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")
        for name in ("omega", "mu", "gamma", "u_max", "n_max", "duration_range"):
            require_finite(getattr(self, name), name)


def _segment_counts(cfg: SamplerConfig, rng: np.random.Generator) -> np.ndarray:
    """Each sample's segment count: the first draw from cfg.seed's stream."""
    return rng.integers(cfg.segment_range[0], cfg.segment_range[1] + 1, size=cfg.n_samples)


@functools.lru_cache(maxsize=1)
def _segment_stream(cfg: SamplerConfig) -> tuple[np.ndarray, MappingProxyType]:
    """(ends, state): ends[i] is the number of segments of samples 0..i (the
    prefix sums of the segment counts, summed in place, 8 bytes a sample)
    and state the PCG64 state the count draw leaves; drawn once per config,
    read-only."""
    rng = np.random.default_rng(cfg.seed)
    ends = _segment_counts(cfg, rng)
    np.cumsum(ends, out=ends)
    ends.flags.writeable = False
    state = rng.bit_generator.state
    return ends, MappingProxyType({**state, "state": MappingProxyType(state["state"])})


def _segment_draws(cfg: SamplerConfig, state: Mapping, total: int, first: int, count: int):
    """u, n and dt of segments [first, first + count) of the stream's ``total``.

    The stream draws u, n and log dt as three arrays of ``total`` values each,
    in that order, from the PCG64 ``state`` left by the count draw.  Each
    double takes one PCG64 step, so a copy of that state advanced past the
    values before a slice draws the slice bit for bit without the rest.
    """

    def uniform(k: int, lo: float, hi: float) -> np.ndarray:
        bits = np.random.PCG64()
        bits.state = dict(state)
        bits.advance(k * total + first)
        return np.random.Generator(bits).uniform(lo, hi, size=count)

    lo = np.log(cfg.duration_range[0] / cfg.omega)
    hi = np.log(cfg.duration_range[1] / cfg.omega)
    return uniform(0, -cfg.u_max, cfg.u_max), uniform(1, 0.0, cfg.n_max), np.exp(uniform(2, lo, hi))


@functools.lru_cache(maxsize=1)
def bloch_generator(cfg: SamplerConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(G0, Gu, Gn) with [[A, b], [0, 0]] = G0 + u Gu + n Gn: lindblad's affine triple of the
    damped qubit, conjugated by ``BLOCH_FROM_HERMITIAN``; built once per config, read-only."""
    triple = affine_generator(qubit_system(cfg.omega, cfg.mu), qubit_decoherence(cfg.gamma))
    maps = (BLOCH_FROM_HERMITIAN @ g @ np.linalg.inv(BLOCH_FROM_HERMITIAN) for g in triple)
    return tuple(np.broadcast_to(g, g.shape) for g in maps)  # broadcast_to: read-only


def _segment_maps(generator, u, n, dt) -> np.ndarray:
    """exp((G0 + u Gu + n Gn) dt) per segment, as one (k, 4, 4) stack from
    ``core.expm_stack``, which treats each slice alone, so a map does not
    depend on which other segments share the call; a map that is not finite
    raises ValueError("matrix exponential must be finite")."""
    g0, gu, gn = generator
    return expm_stack((u[:, None, None] * gu + n[:, None, None] * gn + g0) * dt[:, None, None])


def sample_reachable(cfg: SamplerConfig, rho0, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Bloch points of all boundary states of the random schedules of
    samples [start, stop) (all of them by default).

    Each sample contributes its initial point and one point per segment, so
    short prefixes of long schedules are represented too; a sample's points
    are contiguous and in segment order, and the points of a range are the
    matching rows of the whole run's.  ``rho0`` must be a qubit density
    matrix within ``lindblad.VALIDATION_TOL`` (``ValueError`` otherwise), so
    every point satisfies ||r|| <= 1 (up to roundoff).

    Beyond the range's schedules and points and the stream's segment ends
    (``_segment_stream``, drawn once per config, 8 bytes a sample), memory
    is bounded by one block: the maps of a lock-step are built,
    exponentiated and applied ``SAMPLER_BLOCK_ROWS`` live samples at a
    time, and no point depends on the blocking.
    """
    stop = cfg.n_samples if stop is None else stop
    if not 0 <= start < stop <= cfg.n_samples:
        raise ValueError(f"sample range [{start}, {stop}) is empty or not in [0, {cfg.n_samples})")
    report = validate_density(rho0, VALIDATION_TOL)
    if not report.ok:
        raise ValueError(f"rho0 is not a density matrix ({report.worst})")
    r0 = bloch_from_density(rho0)
    generator = bloch_generator(cfg)
    ends, state = _segment_stream(cfg)
    before = int(ends[start - 1]) if start else 0
    last = ends[start:stop] - before  # the range's segment ends, from its first segment
    nseg = np.diff(last, prepend=0)
    u, n, dt = _segment_draws(cfg, state, int(ends[-1]), before, int(last[-1]))
    first_seg = last - nseg
    first_pt = first_seg + np.arange(nseg.size)
    points = np.empty((u.size + nseg.size, 3))
    points[first_pt] = r0
    # lock-step over the segment index: at step j every sample with more
    # than j segments applies its j-th map, exponentiated at that step a
    # block of live samples at a time; the live set only shrinks
    live = np.arange(nseg.size)
    v = np.tile(np.append(r0, 1.0), (nseg.size, 1))
    for j in range(int(nseg.max())):
        keep = nseg[live] > j
        live, v = live[keep], v[keep]
        seg = first_seg[live] + j
        for first in range(0, live.size, SAMPLER_BLOCK_ROWS):
            rows = slice(first, first + SAMPLER_BLOCK_ROWS)
            s = seg[rows]
            maps = _segment_maps(generator, u[s], n[s], dt[s])
            v[rows] = np.matmul(maps, v[rows, :, None])[:, :, 0]
        points[first_pt[live] + j + 1] = v[:, :3]
    return points


@dataclass
class CoverageGrid:
    """Occupancy of the Bloch ball on a cubic grid plus per-direction
    radial maxima.

    Cells discretize the cube [-1, 1]^3; a cell belongs to the ball when its
    center does.  ``radial_max[t, p]`` is the largest sampled Bloch norm in
    the direction bin (t, p) (uniform in cos(theta) and azimuth), the raw
    material for the radial-gap estimate.
    """

    resolution: int
    counts: np.ndarray
    radial_max: np.ndarray
    radial_counts: np.ndarray

    @property
    def in_ball_mask(self) -> np.ndarray:
        res = self.resolution
        centers = (np.arange(res) + 0.5) * (2.0 / res) - 1.0
        x, y, z = np.meshgrid(centers, centers, centers, indexing="ij")
        return x * x + y * y + z * z <= 1.0

    @property
    def total_in_ball_cells(self) -> int:
        return int(self.in_ball_mask.sum())

    @property
    def occupied_in_ball_cells(self) -> int:
        return int(((self.counts > 0) & self.in_ball_mask).sum())

    @property
    def occupancy_fraction(self) -> float:
        return self.occupied_in_ball_cells / self.total_in_ball_cells


def coverage_map(points: np.ndarray, resolution: int) -> CoverageGrid:
    """Deterministic binning of a Bloch point cloud, ``COVERAGE_BLOCK_ROWS``
    points at a time; counts and maxima do not depend on the blocking."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty (k, 3) array")
    res = resolution
    n_theta, n_phi = DIRECTION_BINS
    counts = np.zeros((res, res, res), dtype=np.int64)
    radial_max = np.zeros((n_theta, n_phi))
    radial_counts = np.zeros((n_theta, n_phi), dtype=np.int64)
    for first in range(0, pts.shape[0], COVERAGE_BLOCK_ROWS):
        block = pts[first : first + COVERAGE_BLOCK_ROWS]
        idx = np.clip(((block + 1.0) * 0.5 * res).astype(int), 0, res - 1)
        np.add.at(counts, (idx[:, 0], idx[:, 1], idx[:, 2]), 1)

        norms = np.linalg.norm(block, axis=1)
        nonzero = norms > 1e-12
        p = block[nonzero]
        r = norms[nonzero]
        cos_t = np.clip(p[:, 2] / r, -1.0, 1.0)
        phi = np.arctan2(p[:, 1], p[:, 0])
        it = np.clip(((cos_t + 1.0) * 0.5 * n_theta).astype(int), 0, n_theta - 1)
        ip = np.clip(((phi + np.pi) / (2.0 * np.pi) * n_phi).astype(int), 0, n_phi - 1)
        np.maximum.at(radial_max, (it, ip), r)
        np.add.at(radial_counts, (it, ip), 1)
    return CoverageGrid(res, counts, radial_max, radial_counts)


def _merged(a: CoverageGrid | None, b: CoverageGrid) -> CoverageGrid:
    """The grid of two point sets binned apart (``a`` may be None): counts
    add and radial maxima take the larger, which gives one ``coverage_map``
    of both sets bit for bit."""
    if a is None:
        return b
    return CoverageGrid(
        b.resolution,
        a.counts + b.counts,
        np.maximum(a.radial_max, b.radial_max),
        a.radial_counts + b.radial_counts,
    )


@dataclass(frozen=True)
class UnreachableReport:
    """Empirical unreachable-region measures against the delta*gamma/omega
    size claim (delta taken as 1, looseness absorbed by ``slack``).

    ``max_radial_gap`` is the primary linear-size estimate: the deepest
    radial hole under the unit sphere over all direction bins.  The cube
    root of the empty volume concentrated in the gap region (bins with at
    least half the maximal gap) is reported alongside, with the raw
    whole-ball fractions.
    """

    unreachable_volume_fraction: float
    max_radial_gap: float
    gap_region_volume_fraction: float
    gap_region_linear_size: float
    gap_region_bins: int
    low_coverage_bins: int
    bound_gamma_over_omega: float
    slack: float
    passed: bool


def unreachable_report(
    grid: CoverageGrid,
    gamma: float,
    omega: float,
    slack: float = SLACK,
    occupancy_change: float | None = None,
) -> UnreachableReport:
    """Compare the empirical unreachable region against slack * gamma/omega.

    ``occupancy_change``, when given, is the relative occupancy difference
    between the half-sample and full-sample grids; more than 0.5% means the
    sampling has not converged and the report is refused.  A report with no
    direction bin of at least ``MIN_BIN_COUNT`` samples does not pass.
    """
    if require_finite(gamma, "gamma") < 0 or require_finite(omega, "omega") <= 0:
        raise ValueError("need gamma >= 0 and omega > 0")
    if require_finite(slack, "slack") <= 0:
        raise ValueError("slack must be positive")
    if occupancy_change is not None and occupancy_change > 0.005:
        raise ValueError(
            f"grid not converged: occupancy changed by {occupancy_change:.3%} on doubling"
        )
    usable = grid.radial_counts >= MIN_BIN_COUNT
    low_coverage = int((~usable).sum())
    gaps = np.where(usable, 1.0 - grid.radial_max, 0.0)
    max_gap = float(gaps.max())

    region = usable & (gaps >= 0.5 * max_gap) & (gaps > 0)
    n_theta, n_phi = grid.radial_max.shape
    solid_angle = (2.0 / n_theta) * (2.0 * np.pi / n_phi)
    wedge = solid_angle * (1.0 - (1.0 - gaps[region]) ** 3) / (4.0 * np.pi)
    region_fraction = float(wedge.sum())

    bound = gamma / omega
    return UnreachableReport(
        unreachable_volume_fraction=1.0 - grid.occupancy_fraction,
        max_radial_gap=max_gap,
        gap_region_volume_fraction=region_fraction,
        gap_region_linear_size=float(region_fraction ** (1.0 / 3.0)),
        gap_region_bins=int(region.sum()),
        low_coverage_bins=low_coverage,
        bound_gamma_over_omega=bound,
        slack=slack,
        # a gap taken over no usable bin is no evidence for the bound
        passed=bool(usable.any()) and max_gap <= slack * bound,
    )


@dataclass
class StudyResult:
    grid: CoverageGrid
    report: UnreachableReport
    occupancy_change: float


def _sample_blocks(n_samples: int) -> list[tuple[int, int]]:
    """The study's (start, stop) sample blocks: each half of the samples in
    blocks of ``SAMPLER_BLOCK_ROWS``, so n_samples // 2 is a block edge."""
    half = n_samples // 2
    edges = [*range(0, half, SAMPLER_BLOCK_ROWS), *range(half, n_samples, SAMPLER_BLOCK_ROWS)]
    edges.append(n_samples)
    return list(zip(edges, edges[1:]))


def run_reachability_study(
    cfg: SamplerConfig, rho0, slack: float = SLACK, sink: Callable[[np.ndarray], None] | None = None
) -> StudyResult:
    """Sample, check occupancy convergence under sample doubling, report.

    Convergence compares the grid built from the first half of the samples
    (a prefix of the same stream) against the full grid: doubling the sample
    count must change the occupancy fraction by less than 0.5%.

    The samples stream through in blocks (``_sample_blocks``): each block is
    sampled (one ``sample_reachable`` call), handed to ``sink`` when one is
    given (the blocks in order are the whole run's points), binned, merged
    into the running grid and dropped.  So beyond one block, memory holds the
    grids and the sampler's per-sample segment ends, however many samples
    a run has, and every result is the one the whole cloud gives.
    """
    half = cfg.n_samples // 2
    half_grid = grid = None
    for start, stop in _sample_blocks(cfg.n_samples):
        points = sample_reachable(cfg, rho0, start, stop)
        if sink is not None:
            sink(points)
        grid = _merged(grid, coverage_map(points, cfg.resolution))
        if stop == half:
            half_grid = grid
    change = 0.0 if half_grid is None else abs(grid.occupancy_fraction - half_grid.occupancy_fraction)
    report = unreachable_report(
        grid, cfg.gamma, cfg.omega, slack=slack, occupancy_change=change
    )
    return StudyResult(grid=grid, report=report, occupancy_change=change)
