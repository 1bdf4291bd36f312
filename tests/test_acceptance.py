"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import time

import numpy as np
import pytest

from oqctrl.cli import main as cli_main
from oqctrl.core import random_density
from oqctrl.ingrape import GateProblem, optimize_pulse
from oqctrl.kraussearch import (
    ChannelAlphabet,
    RationalComplexMatrix,
    apply_channel_exact,
    bounded_reachability,
)
from oqctrl.lindblad import (
    ControlSchedule,
    DecoherenceModel,
    SystemModel,
    cardano_eigenvalues,
    propagate_schedule,
    qubit_decoherence,
    qubit_system,
)
from oqctrl.reachable import SamplerConfig, run_reachability_study
from oqctrl.stiefel import (
    gradient,
    hessian_apply,
    multistart_maximize,
    objective,
    project_tangent,
    random_stiefel,
    retract,
)

from kraus_oracles import brute_force_min_length
from random_matrices import random_hermitian
from stiefel_oracles import hessian_curve


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:2d}] {status} {name}: {detail} ({elapsed:.1f}s)", flush=True)


def _inner(a, b):
    return float(np.real(np.sum(a.conj() * b)))


def test_criterion_01_cptp_invariants():
    """1000 random propagations keep trace and positivity at tolerance."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_trace = 0.0
    worst_eig = 0.0
    runs = 0
    while runs < 1000:
        n = int(rng.choice([2, 3, 4]))
        energies = np.sort(rng.uniform(0, 2, n))
        v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        system = SystemModel(energies, 0.5 * (v + v.conj().T))
        a = rng.uniform(0, 0.5, (n, n))
        dec = DecoherenceModel(0.5 * (a + a.T) - np.diag(np.diag(a)), epsilon=1.0)
        m = int(rng.integers(1, 4))
        schedule = ControlSchedule(
            rng.uniform(0.05, 1.5, m), rng.uniform(-1, 1, m), rng.uniform(0, 1.5, m)
        )
        traj = propagate_schedule(system, dec, schedule, random_density(n, rng))
        for state in traj[1:]:
            worst_trace = max(worst_trace, abs(np.trace(state).real - 1.0))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(state).min()))
        runs += 1
    elapsed = time.perf_counter() - t0
    ok = worst_trace < 1e-10 and worst_eig > -1e-9 and elapsed < 60
    _report(1, "CPTP invariant suite", ok,
            f"1000 runs, worst |tr-1|={worst_trace:.2e}, worst eig={worst_eig:.2e}", elapsed)
    assert worst_trace < 1e-10
    assert worst_eig > -1e-9
    assert elapsed < 60


def test_criterion_02_detailed_balance():
    """Long-time qubit states match diag((n+1)/(2n+1), n/(2n+1))."""
    t0 = time.perf_counter()
    system = qubit_system(1.0, 1.0)
    dec = qubit_decoherence(0.5)
    worst = 0.0
    for n in (0.0, 1.0, 10.0):
        schedule = ControlSchedule(np.array([400.0]), np.array([0.0]), np.array([n]))
        final = propagate_schedule(system, dec, schedule, np.eye(2, dtype=complex) / 2)[-1]
        target = np.diag([(n + 1) / (2 * n + 1), n / (2 * n + 1)])
        worst = max(worst, float(np.max(np.abs(final - target))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6
    _report(2, "detailed-balance stationary states", ok,
            f"n in (0, 1, 10), worst deviation {worst:.2e}", elapsed)
    assert worst < 1e-6


def test_criterion_03_gradient_hessian():
    """Gradient matches finite differences; quadratic-model remainder is cubic.

    Per instance the remainder slope is the median of pairwise log-log
    slopes (a direction whose cubic coefficient crosses zero inside the fit
    window makes a single least-squares fit ill-posed); the criterion metric
    is the median slope over instances, with a hard per-instance floor that
    a wrong quadratic term (slope 2) would break everywhere.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    fd_rel = []
    slopes = []
    for k in range(100):
        n = 2 if k % 2 == 0 else 3
        s = random_stiefel(n, rng)
        rho = random_density(n, rng)
        obs = random_hermitian(n, rng)
        d = project_tangent(s, rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape))
        d /= np.linalg.norm(d)
        g = gradient(s, rho, obs)
        h = 1e-5
        fd = (objective(retract(s, h * d), rho, obs)
              - objective(retract(s, -h * d), rho, obs)) / (2 * h)
        fd_rel.append(abs(fd - _inner(g, d)) / max(1e-300, abs(fd)))
        q = _inner(d, hessian_apply(s, d, rho, obs))
        j0 = objective(s, rho, obs)
        ts = np.geomspace(5e-3, 5e-4, 8)
        errs = np.array([
            abs(objective(hessian_curve(s, d, t), rho, obs)
                - j0 - t * _inner(g, d) - 0.5 * t * t * q)
            for t in ts
        ])
        keep = errs > 1e-13
        if keep.sum() >= 4:
            pair = np.diff(np.log(errs[keep])) / np.diff(np.log(ts[keep]))
            slopes.append(float(np.median(pair)))
    fd_worst = max(fd_rel)
    slopes = np.array(slopes)
    median_slope = float(np.median(slopes))
    elapsed = time.perf_counter() - t0
    ok = fd_worst < 1e-6 and abs(median_slope - 3.0) <= 0.2 and slopes.min() > 2.5
    _report(3, "Stiefel gradient/Hessian correctness", ok,
            f"fd rel max {fd_worst:.2e}, median slope {median_slope:.3f}, "
            f"slope range [{slopes.min():.2f}, {slopes.max():.2f}]", elapsed)
    assert fd_worst < 1e-6
    assert abs(median_slope - 3.0) <= 0.2
    assert slopes.min() > 2.5
    assert elapsed < 120


def test_criterion_04_trap_free_optimization():
    """Every converged multistart at N=3 reaches the top eigenvalue."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    rho = random_density(3, rng)
    obs = random_hermitian(3, rng)
    lam_max = float(np.linalg.eigvalsh(obs).max())
    reports = multistart_maximize(rho, obs, starts=20, seed=404, grad_tol=1e-7, max_iter=5000)
    gaps = [abs(r.objective_value - lam_max) for r in reports]
    n_conv = sum(r.converged for r in reports)
    elapsed = time.perf_counter() - t0
    ok = n_conv == 20 and max(gaps) < 1e-5 and elapsed < 300
    _report(4, "trap-free multistart optimization", ok,
            f"{n_conv}/20 converged, worst |J - lam_max| = {max(gaps):.2e}", elapsed)
    assert n_conv == 20
    assert max(gaps) < 1e-5
    assert elapsed < 300


def test_criterion_05_cardano():
    """Closed-form roots match a generic eigensolver on 10^4 matrices."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    key = lambda z: (round(z.real, 12), round(z.imag, 12))
    worst_dev = 0.0
    worst_res = 0.0
    for _ in range(10_000):
        m = rng.uniform(-1, 1, (3, 3))
        ours = np.array(sorted(cardano_eigenvalues(m), key=key))
        ref = np.array(sorted(np.linalg.eigvals(m), key=key))
        worst_dev = max(worst_dev, float(np.max(np.abs(ours - ref))))
        scale = 1.0 + np.linalg.norm(m) ** 3
        res = max(abs(np.linalg.det(m - z * np.eye(3))) for z in ours) / scale
        worst_res = max(worst_res, res)
    elapsed = time.perf_counter() - t0
    ok = worst_dev < 1e-10 and worst_res < 1e-8
    _report(5, "Cardano cubic solver", ok,
            f"worst multiset deviation {worst_dev:.2e}, worst residual {worst_res:.2e}",
            elapsed)
    assert worst_dev < 1e-10
    assert worst_res < 1e-8


HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
T_GATE = np.diag([1.0, np.exp(1j * np.pi / 4)])


def test_criterion_06_hadamard_synthesis():
    """Best-of-20 Hadamard infidelity < 1e-3 and a single value cluster."""
    t0 = time.perf_counter()
    problem = GateProblem(
        system=qubit_system(1.0, 1.0),
        decoherence=qubit_decoherence(1e-4),  # gamma/omega = 1e-4 <= 1e-3
        target=HADAMARD,
        n_segments=10,
        dt=0.5,
        u_bounds=(-5.0, 5.0),
        n_max=1.0,
    )
    scan = optimize_pulse(problem, starts=20, max_iter=800, seed=606, gap_tol=0.02)
    elapsed = time.perf_counter() - t0
    ok = scan.best_value < 1e-3 and scan.clusters.n_clusters == 1 and elapsed < 600
    _report(6, "inGRAPE Hadamard synthesis", ok,
            f"best infidelity {scan.best_value:.2e}, clusters {scan.clusters.n_clusters}, "
            f"final values in [{scan.final_values.min():.2e}, {scan.final_values.max():.2e}]",
            elapsed)
    assert scan.best_value < 1e-3
    assert scan.clusters.n_clusters == 1
    assert elapsed < 600


def test_criterion_07_t_gate_bimodality():
    """Exploratory: a 100-start T-gate scan shows >= 2 infidelity clusters.

    Declared default problem: omega = mu = 1, gamma = 0.01, 10 segments of
    dt = 0.3, |u| <= 2, n <= 1, gap_tol = 0.02.  The full record is printed
    so a failure to observe two clusters is a documented deviation, never a
    silent one.
    """
    t0 = time.perf_counter()
    problem = GateProblem(
        system=qubit_system(1.0, 1.0),
        decoherence=qubit_decoherence(0.01),
        target=T_GATE,
        n_segments=10,
        dt=0.3,
        u_bounds=(-2.0, 2.0),
        n_max=1.0,
    )
    scan = optimize_pulse(problem, starts=100, max_iter=300, seed=707, gap_tol=0.02)
    elapsed = time.perf_counter() - t0
    record = (
        f"params: omega=1 mu=1 gamma=0.01 M=10 dt=0.3 u_max=2 n_max=1 "
        f"starts=100 seed=707 gap_tol=0.02; clusters: centers="
        f"{np.array2string(scan.clusters.centers, precision=4)}, counts="
        f"{scan.clusters.counts.tolist()}"
    )
    ok = scan.clusters.n_clusters >= 2
    _report(7, "inGRAPE T-gate bimodality", ok, record, elapsed)
    assert scan.clusters.n_clusters >= 2, f"documented deviation: only one cluster; {record}"


def _exact(rows):
    return RationalComplexMatrix.from_literals(rows)


def test_criterion_08_kraus_search_soundness():
    """Certificates replay, lengths are minimal; the Hadamard orbit stops."""
    t0 = time.perf_counter()
    ground = _exact([[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
    excited = _exact([[[0, 0], [0, 0]], [[0, 0], [1, 0]]])
    mixed = _exact([[["1/2", 0], [0, 0]], [[0, 0], ["1/2", 0]]])
    plus = _exact([[["1/2", 0], ["1/2", 0]], [["1/2", 0], ["1/2", 0]]])
    skew = _exact([[["3/4", 0], ["1/4", 0]], [["1/4", 0], ["1/4", 0]]])

    identity = _exact([[[1, 0], [0, 0]], [[0, 0], [1, 0]]])
    pauli_x = _exact([[[0, 0], [1, 0]], [[1, 0], [0, 0]]])
    pauli_z = _exact([[[1, 0], [0, 0]], [[0, 0], [-1, 0]]])
    phase_s = _exact([[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    hadamard = _exact([
        [[{"sqrt2": "1/2"}, 0], [{"sqrt2": "1/2"}, 0]],
        [[{"sqrt2": "1/2"}, 0], [{"sqrt2": "-1/2"}, 0]],
    ])
    p0 = _exact([[[1, 0], [0, 0]], [[0, 0], [0, 0]]])
    p1 = _exact([[[0, 0], [0, 0]], [[0, 0], [1, 0]]])
    reset = [_exact([[[1, 0], [0, 0]], [[0, 0], [0, 0]]]),
             _exact([[[0, 0], [1, 0]], [[0, 0], [0, 0]]])]
    mix_xi = [_exact([[[0, 0], ["3/5", 0]], [["3/5", 0], [0, 0]]]),
              _exact([[["4/5", 0], [0, 0]], [[0, 0], ["4/5", 0]]])]
    channel_pool = [
        [identity], [pauli_x], [pauli_z], [phase_s], [hadamard],
        [p0, p1], reset, mix_xi,
    ]
    state_pool = [ground, excited, mixed, plus, skew]

    rng = np.random.default_rng(808)
    checked = 0
    found_count = 0
    for _ in range(50):
        k = int(rng.integers(1, 4))
        picks = rng.choice(len(channel_pool), size=k, replace=False)
        alphabet = ChannelAlphabet.from_kraus_lists([channel_pool[i] for i in picks])
        rho_i = state_pool[int(rng.integers(len(state_pool)))]
        if rng.random() < 0.5:
            rho_f = rho_i
            for _ in range(int(rng.integers(1, 4))):
                idx = int(rng.integers(alphabet.size))
                rho_f = apply_channel_exact(alphabet.channels[idx], rho_f)
        else:
            rho_f = state_pool[int(rng.integers(len(state_pool)))]
        depth = int(rng.integers(3, 6))
        outcome = bounded_reachability(alphabet, rho_i, rho_f, max_depth=depth)
        oracle = brute_force_min_length(alphabet, rho_i, rho_f, max_depth=depth)
        if outcome.found:
            found_count += 1
            assert outcome.replay_verified
            assert oracle == len(outcome.sequence)
        else:
            assert oracle is None
        checked += 1

    hadamard_orbit = bounded_reachability(
        ChannelAlphabet.from_kraus_lists([[hadamard]]), ground, excited, max_depth=6
    )
    elapsed = time.perf_counter() - t0
    orbit_ok = (not hadamard_orbit.found) and hadamard_orbit.states_explored == 2
    ok = checked == 50 and orbit_ok and elapsed < 120
    _report(8, "Kraus-search soundness", ok,
            f"50 instances ({found_count} found, all minimal + replayed), "
            f"Hadamard orbit: found={hadamard_orbit.found}, "
            f"visited={hadamard_orbit.states_explored}", elapsed)
    assert orbit_ok
    assert elapsed < 120


def test_criterion_09_reachable_scaling():
    """Unreachable linear size tracks gamma/omega (ratio 10 within slack 3)."""
    t0 = time.perf_counter()
    gaps = {}
    reports = {}
    for gamma in (0.1, 0.01):
        cfg = SamplerConfig(gamma=gamma, n_samples=200_000, seed=909)
        study = run_reachability_study(cfg, np.diag([1.0, 0.0]).astype(complex))
        gaps[gamma] = study.report.max_radial_gap
        reports[gamma] = study.report
    ratio = gaps[0.1] / gaps[0.01]
    elapsed = time.perf_counter() - t0
    ok = (
        10.0 / 3.0 <= ratio <= 30.0
        and reports[0.1].passed
        and reports[0.01].passed
        and elapsed < 900
    )
    _report(9, "reachable-set scaling", ok,
            f"gap(0.1)={gaps[0.1]:.4f}, gap(0.01)={gaps[0.01]:.5f}, ratio={ratio:.2f}, "
            f"bounds PASS=({reports[0.1].passed}, {reports[0.01].passed})", elapsed)
    assert 10.0 / 3.0 <= ratio <= 30.0
    assert reports[0.1].passed and reports[0.01].passed
    assert elapsed < 900


def test_criterion_10_reproducibility(tmp_path):
    """Identical config + seed give byte-identical data files."""
    t0 = time.perf_counter()
    configs = {
        "simulate": {
            "system": {"energies": [0, 1], "dipole": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
            "decoherence": {"couplings": [[0, 0.4], [0.4, 0]]},
            "initial_state": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
            "segments": [{"dt": 5.0, "u": 0.3, "n": 0.7}, {"dt": 5.0, "u": -0.2, "n": 0.1}],
        },
        "stiefel-max": {
            "rho": [[[0.6, 0], [0.1, 0]], [[0.1, 0], [0.4, 0]]],
            "observable": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
            "starts": 2,
            "seed": 12,
        },
        "ingrape": {
            "kind": "gate",
            "system": {"energies": [0, 1], "dipole": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
            "decoherence": {"couplings": [[0, 0.01], [0.01, 0]]},
            "target": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
            "grid": {"segments": 4, "dt": 0.4},
            "bounds": {"u_max": 3.0, "n_max": 0.5},
            "starts": 3,
            "max_iter": 50,
            "seed": 13,
        },
        "kraus-search": {
            "alphabet": [{"kraus": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]]}],
            "initial_state": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
            "target_state": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
            "max_depth": 4,
        },
        "reachable": {
            "omega": 1.0, "mu": 1.0, "gamma": 0.1,
            "samples": 10000, "resolution": 6, "seed": 14,
        },
    }
    mismatches = []
    for sub, payload in configs.items():
        cfg = tmp_path / f"{sub}.json"
        cfg.write_text(json.dumps(payload))
        out_a = tmp_path / f"{sub}-a"
        out_b = tmp_path / f"{sub}-b"
        assert cli_main([sub, str(cfg), "--out", str(out_a)]) == 0
        assert cli_main([sub, str(cfg), "--out", str(out_b)]) == 0
        for file_a in sorted(out_a.iterdir()):
            file_b = out_b / file_a.name
            if file_a.read_bytes() != file_b.read_bytes():
                mismatches.append(f"{sub}/{file_a.name}")
    elapsed = time.perf_counter() - t0
    ok = not mismatches
    _report(10, "reproducibility", ok,
            "all five subcommands byte-identical on rerun" if ok else f"diffs: {mismatches}",
            elapsed)
    assert not mismatches
