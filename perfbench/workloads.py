"""The four workloads: CLI configs made from a seed, and output checks.

A round is a fixed list of subcommand calls.  Each round of a run gets its
own configs, drawn from (workload seed, round index); the work per round is
the same in every round, only the random draws differ.  ``run_check`` runs
once per run and returns facts the other checks use, ``check`` runs on every
round, and ``deep_check`` (re-optimisation, independent propagation) on the
first round only.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles

SQRT2 = math.sqrt(2.0)


def cmat(m) -> list:
    """Matrix literal in the CLI's row-major [re, im] form."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def from_cmat(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_json(path: Path):
    return json.loads(Path(path).read_text())


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / SQRT2
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _pulse_problem(cfg):
    """The library problem a pulse config describes (built without the CLI)."""
    from oqctrl import ingrape, lindblad

    common = dict(
        system=lindblad.SystemModel(
            energies=np.array(cfg["system"]["energies"]), dipole=from_cmat(cfg["system"]["dipole"])
        ),
        decoherence=lindblad.DecoherenceModel(couplings=np.array(cfg["decoherence"]["couplings"])),
        n_segments=cfg["grid"]["segments"], dt=cfg["grid"]["dt"],
        u_bounds=(-cfg["bounds"]["u_max"], cfg["bounds"]["u_max"]), n_max=cfg["bounds"]["n_max"],
    )
    if cfg["kind"] == "gate":
        return ingrape.GateProblem(target=from_cmat(cfg["target"]), **common)
    return ingrape.StateTransferProblem(
        rho0=from_cmat(cfg["initial_state"]), observable=from_cmat(cfg["observable"]), **common
    )


def _pulse_segments(controls):
    return [(controls.dt, u, n) for u, n in zip(controls.u, controls.n)]


def _model_propagators(cfg, segments):
    return oracles.segment_propagators(
        cfg["system"]["energies"], from_cmat(cfg["system"]["dipole"]),
        cfg["decoherence"]["couplings"], 1.0, segments,
    )


def _check_scan_files(out: Path, starts: int, lo: float, hi: float, fails: list) -> None:
    runs = read_csv(out / "runs.csv")
    finals = runs[:, 1]
    if runs.shape[0] != starts:
        fails.append(f"{out}: {runs.shape[0]} runs, expected {starts}")
    if not np.all((finals >= lo) & (finals <= hi)):
        fails.append(f"{out}: final values {finals} outside [{lo}, {hi}]")
    hist = read_csv(out / "histogram.csv")
    scan = read_json(out / "scan.json")
    if int(hist[:, 1].sum()) != starts or sum(scan["cluster_counts"]) != starts:
        fails.append(f"{out}: cluster counts do not sum to {starts}")


def _check_rescan(cfg, out: Path, finals, fails: list):
    """Repeat the CLI's multistart scan through the library call it makes,
    for the final pulses the CLI does not write."""
    from oqctrl import ingrape

    problem = _pulse_problem(cfg)
    scan = ingrape.optimize_pulse(
        problem, starts=cfg["starts"], max_iter=cfg["max_iter"], seed=cfg["seed"],
        grad_tol=cfg["grad_tol"], gap_tol=cfg["gap_tol"], workers=1,
    )
    if not np.array_equal(scan.final_values, finals):
        fails.append(f"{out}: library rescan gives {scan.final_values}, CLI wrote {finals}")
    return problem, scan


class Workload:
    name = ""

    def calls(self, seed: int) -> list[tuple[str, str, dict]]:
        """(subcommand, tag, config) per call of one round."""
        raise NotImplementedError

    def run_check(self, fails: list) -> dict:
        return {}

    def check(self, rnd, facts: dict, fails: list) -> None:
        raise NotImplementedError

    def deep_check(self, rnd, fails: list) -> None:
        pass


class TGateScan(Workload):
    """inGRAPE gate synthesis of the T gate on a qubit (criterion 7 problem)."""

    name = "tgate-scan"
    starts = 6
    max_iter = 40
    target = np.diag([1.0, np.exp(1j * np.pi / 4)])

    def calls(self, seed: int) -> list[tuple[str, str, dict]]:
        cfg = {
            "kind": "gate",
            "system": {"energies": [0.0, 1.0], "dipole": cmat([[0, 1], [1, 0]])},
            "decoherence": {"couplings": [[0.0, 0.01], [0.01, 0.0]]},
            "target": cmat(self.target),
            "grid": {"segments": 10, "dt": 0.3},
            "bounds": {"u_max": 2.0, "n_max": 1.0},
            "starts": self.starts, "max_iter": self.max_iter,
            "grad_tol": 1e-7, "gap_tol": 0.02, "seed": seed,
        }
        return [("ingrape", "ingrape", cfg)]

    def rates(self, rnd) -> dict:
        return {"ingrape_starts_per_s": self.starts / rnd.scaled("ingrape")}

    def check(self, rnd, facts: dict, fails: list) -> None:
        _check_scan_files(rnd.dir / "ingrape", self.starts, 0.0, 1.0, fails)

    def deep_check(self, rnd, fails: list) -> None:
        from oqctrl import ingrape

        cfg = rnd.configs["ingrape"]
        out = rnd.dir / "ingrape"
        finals = read_csv(out / "runs.csv")[:, 1]
        problem, scan = _check_rescan(cfg, out, finals, fails)
        for k, start in enumerate(scan.initial_controls):
            run = ingrape.optimize_run(problem, start, max_iter=cfg["max_iter"], grad_tol=cfg["grad_tol"])
            if np.any(np.diff(run.objective_history) > 0):
                fails.append(f"{out}: start {k} infidelity history increases")
            if run.objective_value != finals[k]:
                fails.append(f"{out}: start {k} rerun ends at {run.objective_value}, not {finals[k]}")
        best = int(np.argmin(finals))
        props = _model_propagators(cfg, _pulse_segments(scan.final_controls[best]))
        independent = oracles.gate_infidelity(props, self.target)
        # RK4 with steps <= 1e-3 on a generator of norm ~5 is good to ~1e-11
        if abs(independent - finals[best]) > 1e-9:
            fails.append(f"{out}: best infidelity {finals[best]} vs independent {independent}")


QUTRIT_SYSTEM = {
    "energies": [0.0, 1.0, 1.9],
    "dipole": cmat([[0, 1, 0], [1, 0, SQRT2], [0, SQRT2, 0]]),
}
QUTRIT_COUPLINGS = [[0.0, 0.05, 0.02], [0.05, 0.0, 0.08], [0.02, 0.08, 0.0]]
QUTRIT_GROUND = np.diag([1.0, 0.0, 0.0])
QUTRIT_OBSERVABLE = np.diag([-1.0, 0.0, 1.0])


class QutritGksl(Workload):
    """A long random schedule on a three-level ladder, then state transfer."""

    name = "qutrit-gksl"
    segments = 2000
    stretch = (1000, 1050)
    starts = 2
    max_iter = 20

    def calls(self, seed: int) -> list[tuple[str, str, dict]]:
        rng = np.random.default_rng(seed)
        dts = rng.uniform(0.05, 0.5, self.segments)
        us = rng.uniform(-1.0, 1.0, self.segments)
        ns = rng.uniform(0.0, 1.0, (self.segments, 3))
        simulate = {
            "system": QUTRIT_SYSTEM,
            "decoherence": {"couplings": QUTRIT_COUPLINGS},
            "initial_state": cmat(QUTRIT_GROUND),
            "segments": [
                {"dt": float(dt), "u": float(u), "n": [float(x) for x in n]}
                for dt, u, n in zip(dts, us, ns)
            ],
            "output_format": "dense",
        }
        state = {
            "kind": "state",
            "system": QUTRIT_SYSTEM,
            "decoherence": {"couplings": QUTRIT_COUPLINGS},
            "initial_state": cmat(QUTRIT_GROUND),
            "observable": cmat(QUTRIT_OBSERVABLE),
            "grid": {"segments": 20, "dt": 0.5},
            "bounds": {"u_max": 1.0, "n_max": 1.0},
            "starts": self.starts, "max_iter": self.max_iter,
            "grad_tol": 1e-7, "gap_tol": 0.02, "seed": seed,
        }
        return [("simulate", "simulate", simulate), ("ingrape", "ingrape", state)]

    def rates(self, rnd) -> dict:
        return {
            "simulate_segments_per_s": self.segments / rnd.scaled("simulate"),
            "ingrape_starts_per_s": self.starts / rnd.scaled("ingrape"),
        }

    def _trajectory(self, rnd):
        table = read_csv(rnd.dir / "simulate" / "trajectory.csv")
        parts = table[:, 1:].reshape(-1, 3, 3, 2)
        return table[:, 0], parts[..., 0] + 1j * parts[..., 1]

    def check(self, rnd, facts: dict, fails: list) -> None:
        out = rnd.dir / "simulate"
        cfg = rnd.configs["simulate"]
        times, states = self._trajectory(rnd)
        if states.shape[0] != self.segments + 1:
            fails.append(f"{out}: {states.shape[0]} states, expected {self.segments + 1}")
            return
        herm = np.abs(states - states.conj().transpose(0, 2, 1)).max()
        trace = np.abs(np.trace(states, axis1=1, axis2=2) - 1.0).max()
        min_eig = np.linalg.eigvalsh(0.5 * (states + states.conj().transpose(0, 2, 1))).min()
        if herm > 1e-12 or trace > 1e-10 or min_eig < -1e-9:
            fails.append(f"{out}: hermiticity {herm:.1e}, trace {trace:.1e}, min eigenvalue {min_eig:.1e}")
        boundaries = np.concatenate([[0.0], np.cumsum([s["dt"] for s in cfg["segments"]])])
        if np.abs(times - boundaries).max() > 1e-9:
            fails.append(f"{out}: time column does not match the schedule")
        if np.abs(states[0] - QUTRIT_GROUND).max() > 0:
            fails.append(f"{out}: first state is not the initial state")
        final = from_cmat(read_json(out / "final_state.json")["final_state"])
        if np.abs(final - states[-1]).max() > 0:
            fails.append(f"{out}: final_state.json differs from the last trajectory row")
        lam = np.linalg.eigvalsh(QUTRIT_OBSERVABLE)
        _check_scan_files(rnd.dir / "ingrape", self.starts, lam[0] - 1e-12, lam[-1] + 1e-12, fails)

    def deep_check(self, rnd, fails: list) -> None:
        out = rnd.dir / "simulate"
        cfg = rnd.configs["simulate"]
        _, states = self._trajectory(rnd)
        lo, hi = self.stretch
        segs = [(s["dt"], s["u"], s["n"]) for s in cfg["segments"][lo:hi]]
        independent = oracles.propagate(states[lo], _model_propagators(cfg, segs))
        err = np.abs(independent - states[hi]).max()
        if err > 1e-8:
            fails.append(f"{out}: segments {lo}..{hi} differ from RK4 by {err:.2e}")

        cfg = rnd.configs["ingrape"]
        out = rnd.dir / "ingrape"
        finals = read_csv(out / "runs.csv")[:, 1]
        _, scan = _check_rescan(cfg, out, finals, fails)
        best = int(np.argmax(finals))
        rho = oracles.propagate(
            QUTRIT_GROUND, _model_propagators(cfg, _pulse_segments(scan.final_controls[best]))
        )
        value = float(np.real(np.trace(rho @ QUTRIT_OBSERVABLE)))
        if abs(value - finals[best]) > 1e-9:
            fails.append(f"{out}: best value {finals[best]} vs independent {value}")


class BlochCloud(Workload):
    """Monte-Carlo reachable set of the damped qubit at gamma/omega = 0.1."""

    name = "bloch-cloud"
    samples = 50_000
    max_segments = 5
    resolution = 5
    gamma = 0.1
    slack = 3.0

    def calls(self, seed: int) -> list[tuple[str, str, dict]]:
        cfg = {
            "omega": 1.0, "mu": 1.0, "gamma": self.gamma, "u_max": 10.0, "n_max": 1.0,
            "segments": [1, self.max_segments], "durations": [0.01, 10.0],
            "samples": self.samples, "resolution": self.resolution, "slack": self.slack,
            "seed": seed,
        }
        return [("reachable", "reachable", cfg)]

    def rates(self, rnd) -> dict:
        return {"bloch_points_per_s": rnd.notes["rows"] / rnd.scaled("reachable")}

    def check(self, rnd, facts: dict, fails: list) -> None:
        out = rnd.dir / "reachable"
        points = read_csv(out / "points.csv")
        rnd.notes["rows"] = points.shape[0]
        norm = np.linalg.norm(points, axis=1).max()
        if norm > 1.0 + 1e-9:
            fails.append(f"{out}: a Bloch point has norm {norm}")
        grid = read_json(out / "grid.json")
        counts = oracles.bin_counts(points, self.resolution)
        ball = oracles.in_ball_cells(self.resolution)
        if grid["counts"] != counts.tolist():
            fails.append(f"{out}: grid.json counts differ from an independent binning")
        if (grid["total_in_ball_cells"], grid["occupied_in_ball_cells"]) != (
            int(ball.sum()), int(((counts > 0) & ball).sum())
        ):
            fails.append(f"{out}: in-ball cell counts differ from an independent binning")
        report = read_json(out / "report.json")
        if not report["PASS"] or report["max_radial_gap"] > self.slack * self.gamma:
            fails.append(f"{out}: report PASS={report['PASS']} gap={report['max_radial_gap']}")


def _q(p):
    """Q(sqrt 2) literal for the kraus-search config."""
    return {"rational": str(p[0]), "sqrt2": str(p[1])}


HALF_SQRT2 = (Fraction(0), Fraction(1, 2))
NEG_HALF_SQRT2 = (Fraction(0), Fraction(-1, 2))
ALPHABET = {
    "hadamard": [[[[_q(HALF_SQRT2), 0], [_q(HALF_SQRT2), 0]], [[_q(HALF_SQRT2), 0], [_q(NEG_HALF_SQRT2), 0]]]],
    "t": [[[[1, 0], [0, 0]], [[0, 0], [_q(HALF_SQRT2), _q(HALF_SQRT2)]]]],
    "bit-flip-mix": [
        [[[0, 0], ["3/5", 0]], [["3/5", 0], [0, 0]]],
        [[["4/5", 0], [0, 0]], [[0, 0], ["4/5", 0]]],
    ],
}
EXACT_MAPS = [oracles.hadamard_bloch, oracles.t_gate_bloch, oracles.bit_flip_mix_bloch]
SEARCH_START = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
SEARCH_TARGET = [[["3/4", 0], ["1/4", 0]], [["1/4", 0], ["1/4", 0]]]
START_BLOCH = (0, 0, 1)
TARGET_BLOCH = (Fraction(1, 2), 0, Fraction(1, 2))


class KrausMaps(Workload):
    """Exact and float bounded channel search, then Stiefel channel ascent."""

    name = "kraus-maps"
    exact_depth = 7
    float_depth = 13
    float_tol = 1e-9
    stiefel_dim = 6
    stiefel_starts = 8

    def calls(self, seed: int) -> list[tuple[str, str, dict]]:
        rng = np.random.default_rng(seed)
        order = [list(ALPHABET)[i] for i in rng.permutation(len(ALPHABET))]
        search = {
            "alphabet": [{"kraus": ALPHABET[name]} for name in order],
            "initial_state": SEARCH_START,
            "target_state": SEARCH_TARGET,
        }
        n = self.stiefel_dim
        v, w = haar_unitary(n, rng), haar_unitary(n, rng)
        # fixed spectra: every seed gives a unitarily equivalent landscape
        observable = v @ np.diag(np.linspace(-1.0, 1.0, n)) @ v.conj().T
        rho = w @ np.diag(np.arange(n, 0, -1) / (n * (n + 1) / 2)) @ w.conj().T
        return [
            ("kraus-search", "search-exact", {**search, "mode": "exact", "max_depth": self.exact_depth}),
            ("kraus-search", "search-float",
             {**search, "mode": "float", "max_depth": self.float_depth, "tol": self.float_tol}),
            ("stiefel-max", "stiefel", {
                "rho": cmat(rho), "observable": cmat(observable), "starts": self.stiefel_starts,
                "max_iter": 2000, "grad_tol": 1e-8, "seed": seed,
            }),
        ]

    def rates(self, rnd) -> dict:
        return {
            "exact_states_per_s": rnd.notes["search-exact"] / rnd.scaled("search-exact"),
            "float_states_per_s": rnd.notes["search-float"] / rnd.scaled("search-float"),
            "stiefel_starts_per_s": self.stiefel_starts / rnd.scaled("stiefel"),
        }

    def run_check(self, fails: list) -> dict:
        levels = oracles.exact_levels(EXACT_MAPS, oracles.q_vec(*START_BLOCH), self.exact_depth)
        target = oracles.q_vec(*TARGET_BLOCH)
        if any(target in level for level in levels):
            fails.append("independent enumeration reaches the target within the exact depth")
        nearest = oracles.float_min_distance(
            [float(c) for c in START_BLOCH], [float(c) for c in TARGET_BLOCH], self.float_depth
        )
        if nearest <= self.float_tol:
            fails.append(f"float enumeration comes within {nearest:.1e} of the target")
        return {"distinct_states": len(set().union(*levels))}

    def check(self, rnd, facts: dict, fails: list) -> None:
        for tag, depth in (("search-exact", self.exact_depth), ("search-float", self.float_depth)):
            outcome = read_json(rnd.dir / tag / "outcome.json")
            rnd.notes[tag] = outcome["states_explored"]
            if outcome["found"] or outcome["depth_limit"] != depth:
                fails.append(f"{rnd.dir / tag}: expected a negative answer at depth {depth}")
        explored, distinct = rnd.notes["search-exact"], facts["distinct_states"]
        if explored != distinct:
            fails.append(f"exact search explored {explored} states, enumeration finds {distinct}")

        out = rnd.dir / "stiefel"
        observable = from_cmat(rnd.configs["stiefel"]["observable"])
        lam_max = float(np.linalg.eigvalsh(observable).max())
        report = read_json(out / "report.json")
        values = np.array([r["objective"] for r in report["runs"]])
        if values.size != self.stiefel_starts:
            fails.append(f"{out}: {values.size} runs, expected {self.stiefel_starts}")
        if np.any(np.abs(values - lam_max) > 1e-6) or np.any(values > lam_max + 1e-12):
            fails.append(f"{out}: objectives {values} vs lambda_max {lam_max}")
        history = read_csv(out / "iterations.csv")[:, 1]
        if np.any(np.diff(history) < 0):
            fails.append(f"{out}: best start's objective history decreases")


WORKLOADS = {w.name: w for w in (TGateScan(), QutritGksl(), BlochCloud(), KrausMaps())}
