"""Batch command-line front end.

One JSON config document per run; outputs land in the chosen directory
together with ``manifest.json`` (config hash, effective seed, library
versions, output list).  Exit status: 0 success, 1 config/validation error,
2 runtime failure (which also leaves a ``FAILED`` marker instead of partial
results presented as complete).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

import numpy as np
import scipy

from . import __version__, ingrape, kraussearch, lindblad, reachable, stiefel
from .core import bloch_from_density, validate_density
from .serialization import (
    matrix_from_lists,
    matrix_to_lists,
    sha256_file,
    write_csv,
    write_json,
)


class ConfigError(ValueError):
    """Schema violation; the message names the offending field path."""


def _need(cfg: dict, path: str, kind=None):
    node = cfg
    walked = []
    for part in path.split("."):
        walked.append(part)
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"missing required field '{'.'.join(walked)}'")
        node = node[part]
    if kind is not None and not isinstance(node, kind):
        names = kind.__name__ if not isinstance(kind, tuple) else "/".join(k.__name__ for k in kind)
        raise ConfigError(f"field '{path}' must be of type {names}")
    return node


def _opt(cfg: dict, path: str, default):
    node = cfg
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return default
        node = node[part]
    return node


def _system_from(cfg: dict, prefix: str = "system") -> lindblad.SystemModel:
    energies = np.asarray(_need(cfg, f"{prefix}.energies", list), dtype=float)
    dipole = matrix_from_lists(_need(cfg, f"{prefix}.dipole", list))
    try:
        return lindblad.SystemModel(energies=energies, dipole=dipole)
    except ValueError as exc:
        raise ConfigError(f"field '{prefix}': {exc}") from exc


def _decoherence_from(cfg: dict, prefix: str = "decoherence") -> lindblad.DecoherenceModel:
    couplings = np.asarray(_need(cfg, f"{prefix}.couplings", list), dtype=float)
    epsilon = float(_opt(cfg, f"{prefix}.epsilon", 1.0))
    try:
        return lindblad.DecoherenceModel(couplings=couplings, epsilon=epsilon)
    except ValueError as exc:
        raise ConfigError(f"field '{prefix}': {exc}") from exc


def _state_from(cfg: dict, path: str) -> np.ndarray:
    rho = matrix_from_lists(_need(cfg, path, list))
    report = validate_density(rho, 1e-7)
    if not report.ok:
        raise ConfigError(f"field '{path}': not a density matrix ({report.worst})")
    return rho


def _write_manifest(out: Path, subcommand: str, config_path: Path, seed, outputs: list[str]) -> None:
    write_json(
        out / "manifest.json",
        {
            "subcommand": subcommand,
            "config_sha256": sha256_file(config_path),
            "seed": seed,
            "versions": {
                "oqctrl": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": ".".join(str(v) for v in sys.version_info[:3]),
            },
            "outputs": sorted(outputs),
        },
    )


def _cmd_simulate(cfg: dict, out: Path, seed, workers) -> list[str]:
    system = _system_from(cfg)
    dec = _decoherence_from(cfg)
    rho0 = _state_from(cfg, "initial_state")
    segments = _need(cfg, "segments", list)
    if not segments:
        raise ConfigError("field 'segments' must be a nonempty list")
    durations, u_vals, n_vals = [], [], []
    for k, seg in enumerate(segments):
        if not isinstance(seg, dict):
            raise ConfigError(f"field 'segments[{k}]' must be an object")
        for key in ("dt", "u", "n"):
            if key not in seg:
                raise ConfigError(f"missing required field 'segments[{k}].{key}'")
        durations.append(float(seg["dt"]))
        u_vals.append(float(seg["u"]))
        n_vals.append(seg["n"])
    n_arr = np.asarray(n_vals, dtype=float)
    schedule = lindblad.ControlSchedule(
        durations=np.asarray(durations), u=np.asarray(u_vals), n=n_arr
    )
    trajectory = lindblad.propagate_schedule(system, dec, schedule, rho0)
    times = schedule.boundaries

    fmt_kind = _opt(cfg, "output_format", "bloch" if system.dim == 2 else "dense")
    if fmt_kind not in ("bloch", "dense"):
        raise ConfigError("field 'output_format' must be 'bloch' or 'dense'")
    if fmt_kind == "bloch" and system.dim != 2:
        raise ConfigError("field 'output_format': bloch output needs a two-level system")
    if fmt_kind == "bloch":
        header = ["t", "x", "y", "z"]
        rows = [[t] + list(bloch_from_density(r)) for t, r in zip(times, trajectory)]
    else:
        nd = system.dim
        header = ["t"] + [
            f"{part}_{i}{j}" for i in range(nd) for j in range(nd) for part in ("re", "im")
        ]
        rows = []
        for t, r in zip(times, trajectory):
            row = [t]
            for i in range(nd):
                for j in range(nd):
                    row += [r[i, j].real, r[i, j].imag]
            rows.append(row)
    write_csv(out / "trajectory.csv", header, rows)
    write_json(out / "final_state.json", {"final_state": matrix_to_lists(trajectory[-1])})
    return ["trajectory.csv", "final_state.json"]


def _cmd_stiefel_max(cfg: dict, out: Path, seed, workers) -> list[str]:
    rho = _state_from(cfg, "rho")
    observable = matrix_from_lists(_need(cfg, "observable", list))
    starts = int(_opt(cfg, "starts", 1))
    if starts < 1:
        raise ConfigError("field 'starts' must be >= 1")
    reports = stiefel.multistart_maximize(
        rho,
        observable,
        starts=starts,
        seed=seed,
        workers=workers,
        max_iter=int(_opt(cfg, "max_iter", 2000)),
        grad_tol=float(_opt(cfg, "grad_tol", 1e-8)),
    )
    best = max(range(starts), key=lambda i: reports[i].objective_value)
    rep = reports[best]
    write_csv(
        out / "iterations.csv",
        ["iter", "objective", "grad_norm", "step"],
        [
            [k, rep.objective_history[k], rep.gradient_norms[k],
             rep.steps[k] if k < rep.steps.size else 0.0]
            for k in range(rep.gradient_norms.size)
        ],
    )
    lam_max = float(np.linalg.eigvalsh(observable).max())
    write_json(
        out / "report.json",
        {
            "best_start": best,
            "best_objective": rep.objective_value,
            "observable_max_eigenvalue": lam_max,
            "runs": [
                {
                    "objective": r.objective_value,
                    "iterations": r.iterations,
                    "converged": bool(r.converged),
                    "final_grad_norm": float(r.gradient_norms[-1]),
                }
                for r in reports
            ],
        },
    )
    return ["iterations.csv", "report.json"]


def _pulse_problem(cfg: dict) -> ingrape.PulseProblem:
    kind = _need(cfg, "kind", str)
    system = _system_from(cfg)
    dec = _decoherence_from(cfg)
    m = int(_need(cfg, "grid.segments", (int,)))
    dt = float(_need(cfg, "grid.dt", (int, float)))
    if m < 1 or dt <= 0:
        raise ConfigError("field 'grid': need segments >= 1 and dt > 0")
    u_min = float(_opt(cfg, "bounds.u_min", -_opt(cfg, "bounds.u_max", 1.0)))
    u_max = float(_need(cfg, "bounds.u_max", (int, float)))
    n_max = float(_opt(cfg, "bounds.n_max", 0.0))
    if kind == "gate":
        target = matrix_from_lists(_need(cfg, "target", list))
        try:
            return ingrape.GateProblem(
                system=system, decoherence=dec, target=target,
                n_segments=m, dt=dt, u_bounds=(u_min, u_max), n_max=n_max,
            )
        except ValueError as exc:
            raise ConfigError(f"field 'target': {exc}") from exc
    if kind == "state":
        rho0 = _state_from(cfg, "initial_state")
        observable = matrix_from_lists(_need(cfg, "observable", list))
        return ingrape.StateTransferProblem(
            system=system, decoherence=dec, rho0=rho0, observable=observable,
            n_segments=m, dt=dt, u_bounds=(u_min, u_max), n_max=n_max,
        )
    raise ConfigError("field 'kind' must be 'gate' or 'state'")


def _cmd_ingrape(cfg: dict, out: Path, seed, workers) -> list[str]:
    problem = _pulse_problem(cfg)
    scan = ingrape.optimize_pulse(
        problem,
        starts=int(_opt(cfg, "starts", 1)),
        max_iter=int(_opt(cfg, "max_iter", 1000)),
        seed=seed,
        grad_tol=float(_opt(cfg, "grad_tol", 1e-7)),
        gap_tol=float(_opt(cfg, "gap_tol", 0.02)),
        workers=workers,
    )
    write_csv(
        out / "runs.csv",
        ["run", "final_value", "converged", "iterations"],
        [
            [k, scan.final_values[k], int(scan.converged[k]), scan.iterations[k]]
            for k in range(scan.final_values.size)
        ],
    )
    write_csv(
        out / "histogram.csv",
        ["value", "count"],
        [[c, n] for c, n in zip(scan.clusters.centers, scan.clusters.counts)],
    )
    write_json(
        out / "scan.json",
        {
            "kind": cfg["kind"],
            "best_value": scan.best_value,
            "n_clusters": scan.clusters.n_clusters,
            "cluster_centers": list(scan.clusters.centers),
            "cluster_counts": list(scan.clusters.counts),
            "gap_tol": scan.clusters.gap_tol,
            "converged_runs": int(scan.converged.sum()),
            "total_runs": int(scan.final_values.size),
        },
    )
    return ["runs.csv", "histogram.csv", "scan.json"]


def _exact_matrix(rows, where: str) -> kraussearch.RationalComplexMatrix:
    try:
        return kraussearch.RationalComplexMatrix.from_literals(rows)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"field '{where}': {exc}") from exc


def _cmd_kraus_search(cfg: dict, out: Path, seed, workers) -> list[str]:
    entries = _need(cfg, "alphabet", list)
    if not entries:
        raise ConfigError("field 'alphabet' must be a nonempty list")
    channels = []
    for k, entry in enumerate(entries):
        ops = _need({"alphabet": entry}, "alphabet.kraus", list)
        channels.append([_exact_matrix(op, f"alphabet[{k}].kraus") for op in ops])
    try:
        alphabet = kraussearch.ChannelAlphabet.from_kraus_lists(channels)
    except ValueError as exc:
        raise ConfigError(f"field 'alphabet': {exc}") from exc
    rho_i = _exact_matrix(_need(cfg, "initial_state", list), "initial_state")
    rho_f = _exact_matrix(_need(cfg, "target_state", list), "target_state")
    for field, rho in (("initial_state", rho_i), ("target_state", rho_f)):
        if rho.dim != alphabet.dim:
            raise ConfigError(
                f"field '{field}': dimension {rho.dim} differs from the alphabet's {alphabet.dim}"
            )
    max_depth = int(_need(cfg, "max_depth", (int,)))
    if max_depth < 0:
        raise ConfigError("field 'max_depth' must be >= 0")
    mode = _opt(cfg, "mode", "exact")
    if mode not in ("exact", "float"):
        raise ConfigError("field 'mode' must be 'exact' or 'float'")
    outcome = kraussearch.bounded_reachability(
        alphabet,
        rho_i,
        rho_f,
        max_depth=max_depth,
        mode=mode,
        tol=float(_opt(cfg, "tol", 1e-9)),
        max_states=int(_opt(cfg, "max_states", 1_000_000)),
    )
    write_json(
        out / "outcome.json",
        {
            "found": outcome.found,
            "sequence": list(outcome.sequence) if outcome.sequence is not None else None,
            "depth_limit": outcome.depth_limit,
            "states_explored": outcome.states_explored,
            "replay_verified": outcome.replay_verified,
            "mode": mode,
            "note": "a negative outcome is bounded: it never claims unreachability" + (
                "; float mode merges visited states on a tol/10 rounding grid, so a "
                "negative outcome also depends on that heuristic pruning"
                if mode == "float" else ""
            ),
        },
    )
    return ["outcome.json"]


def _cmd_reachable(cfg: dict, out: Path, seed, workers) -> list[str]:
    base = reachable.SamplerConfig()  # the one place the optional defaults live
    try:
        sampler = reachable.SamplerConfig(
            omega=float(_need(cfg, "omega", (int, float))),
            mu=float(_need(cfg, "mu", (int, float))),
            gamma=float(_need(cfg, "gamma", (int, float))),
            u_max=float(_opt(cfg, "u_max", base.u_max)),
            n_max=float(_opt(cfg, "n_max", base.n_max)),
            segment_range=tuple(_opt(cfg, "segments", base.segment_range)),
            duration_range=tuple(_opt(cfg, "durations", base.duration_range)),
            n_samples=int(_need(cfg, "samples", (int,))),
            seed=seed,
            resolution=int(_opt(cfg, "resolution", base.resolution)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if "initial_state" in cfg:
        rho0 = _state_from(cfg, "initial_state")
    else:
        rho0 = np.diag([1.0, 0.0]).astype(complex)
    study = reachable.run_reachability_study(sampler, rho0, slack=float(_opt(cfg, "slack", 3.0)))
    write_csv(out / "points.csv", ["x", "y", "z"], study.points)
    write_json(
        out / "grid.json",
        {
            "resolution": study.grid.resolution,
            "total_in_ball_cells": study.grid.total_in_ball_cells,
            "occupied_in_ball_cells": study.grid.occupied_in_ball_cells,
            "occupancy_fraction": study.grid.occupancy_fraction,
            "counts": [int(c) for c in study.grid.counts.ravel()],
        },
    )
    rep = study.report
    write_json(
        out / "report.json",
        {
            "PASS": rep.passed,
            "max_radial_gap": rep.max_radial_gap,
            "unreachable_volume_fraction": rep.unreachable_volume_fraction,
            "gap_region_volume_fraction": rep.gap_region_volume_fraction,
            "gap_region_linear_size": rep.gap_region_linear_size,
            "gap_region_bins": rep.gap_region_bins,
            "low_coverage_bins": rep.low_coverage_bins,
            "bound_gamma_over_omega": rep.bound_gamma_over_omega,
            "slack": rep.slack,
            "occupancy_change_on_doubling": study.occupancy_change,
            "samples": sampler.n_samples,
        },
    )
    return ["points.csv", "grid.json", "report.json"]


_COMMANDS = {
    "simulate": _cmd_simulate,
    "stiefel-max": _cmd_stiefel_max,
    "ingrape": _cmd_ingrape,
    "kraus-search": _cmd_kraus_search,
    "reachable": _cmd_reachable,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit(2); that slot is
        raise ConfigError(message)  # reserved for runtime failures here


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="oqctrl", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", type=Path, help="JSON config document")
        p.add_argument("--out", type=Path, required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=1, help="max concurrent workers")
        p.add_argument("-v", "--verbose", action="count", default=0)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config_path: Path = args.config
        if not config_path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        try:
            cfg = json.loads(config_path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config document must be a JSON object")
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        out: Path = args.out
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        outputs = _COMMANDS[args.subcommand](cfg, out, seed, max(1, args.workers))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        (out / "FAILED").write_text(
            f"{type(exc).__name__}: {exc}\n\n{traceback.format_exc()}"
        )
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    _write_manifest(out, args.subcommand, config_path, seed, outputs + ["manifest.json"])
    if args.verbose:
        print(f"{args.subcommand}: wrote {len(outputs) + 1} files to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
