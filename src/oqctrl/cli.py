"""Batch command-line front end.

One JSON config document per run; outputs land in the chosen directory
together with ``manifest.json`` (config hash, effective seed, library
versions, output list).  Exit status: 0 success, 1 config/validation error,
2 runtime failure (which also leaves a ``FAILED`` marker instead of partial
results presented as complete).  ``_cmd_<name>(cfg, seed, workers)`` builds
and checks every library object a run needs and returns ``run(out)``, which
computes and writes; :func:`main` alone turns an exception into an exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__, ingrape, kraussearch, lindblad, reachable, stiefel
from .core import (STRUCTURAL_TOL, bloch_from_density, hermitian_coordinates, require_finite,
                   validate_density, vec)
from .serialization import csv_row_blocks, matrix_to_lists, sha256_file, write_csv, write_json

# stiefel-max objectives this close to the best count as tied with it
BEST_TIE = 1e-12
# a field path splits at each "." and before each "["; compiled once, since
# simulate reads a few paths per segment
_PATH_PARTS = re.compile(r"\.|(?=\[)")


class ConfigError(ValueError):
    """Schema violation; the message names the offending field path."""


def _read(cfg: dict, path: str, kind=None, default=...):
    """The value at a field path such as ``segments[0].dt``, of type ``kind``
    if given; required unless a ``default`` is given."""
    node = cfg
    for part in _PATH_PARTS.split(path):
        if part.startswith("["):
            key = int(part[1:-1])
            found = isinstance(node, list) and key < len(node)
        else:
            key = part
            found = isinstance(node, dict) and key in node
        if not found:
            if default is ...:
                raise ConfigError(f"missing required field '{path}'")
            return default
        node = node[key]
    return node if kind is None else _typed(node, kind, path)


def _typed(node, kind, path: str, entry: str = ""):
    """``node`` if it is of type ``kind``, a number as a finite float where
    ``kind`` takes floats; the one leaf rule of the config reader.  ``entry``
    locates the node inside the array at ``path``."""
    where = f"field '{path}'" + (f" entry '{path}{entry}'" if entry else "")
    kinds = kind if isinstance(kind, tuple) else (kind,)
    # JSON booleans are ints to Python, but no field takes one as a number
    if isinstance(node, bool) or not isinstance(node, kinds):
        raise ConfigError(f"{where} must be of type {'/'.join(k.__name__ for k in kinds)}")
    # a JSON integer in a real-valued field reads as the float its digits
    # spell, which is infinite beyond the float range
    if float in kinds and isinstance(node, (int, float)):
        return require_finite(float(str(node)) if isinstance(node, int) else node, where)
    # any other integer but the seed (arbitrary-precision entropy) is a size
    # or a count, which must fit a machine integer
    if isinstance(node, int) and path != "seed" and abs(node) > sys.maxsize:
        raise ConfigError(f"{where} is outside the machine-integer range")
    return node


def _array(cfg: dict, path: str, kind=(int, float), depth: int = 1) -> np.ndarray:
    """The ``depth`` levels of nested lists at ``path`` as an array (of ints
    for ``kind=int``, else of floats), every leaf of type ``kind``."""

    def check(node, entry: str, level: int) -> None:
        if level == depth:
            _typed(node, kind, path, entry)
        else:
            for k, item in enumerate(_typed(node, list, path, entry)):
                check(item, f"{entry}[{k}]", level + 1)

    node = _read(cfg, path)
    check(node, "", 0)
    # numpy finds rows of unequal length; sizes are the caller's to check
    return _field(path, np.array, node, int if kind is int else float)


def _field(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; the one place a library error gets the
    config field path attached."""
    try:
        return build(*args, **kwargs)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ConfigError(f"field '{path}': {exc}") from exc


def _given(cfg: dict, prefix: str = "", **kinds) -> dict:
    """The optional numbers the config sets (null counts as unset), so the
    library's own defaults apply to the rest: a JSON integer where ``kinds``
    names ``int``, any JSON number (read as a float) where it names ``float``."""
    given = {}
    for name, kind in kinds.items():
        if _read(cfg, prefix + name, default=None) is not None:
            given[name] = _read(cfg, prefix + name, (int,) if kind is int else (int, float))
    return given


def _matrix(cfg: dict, path: str, dim: int | None = None, hermitian: bool = False) -> np.ndarray:
    """Complex matrix at ``path`` from row-major ``[re, im]`` pairs, ``dim`` x
    ``dim`` when ``dim`` is given."""
    pairs = _array(cfg, path, depth=3)
    if pairs.ndim != 3 or pairs.shape[2] != 2:
        raise ConfigError(f"field '{path}' must be a nonempty list of rows of [re, im] pairs")
    # set the parts, not re + 1j * im, which turns an imaginary -0.0 into 0.0
    m = np.empty(pairs.shape[:2], dtype=complex)
    m.real, m.imag = pairs[..., 0], pairs[..., 1]
    if dim is not None and m.shape != (dim, dim):
        raise ConfigError(f"field '{path}': shape {m.shape} does not fit dimension {dim}")
    if hermitian and np.max(np.abs(m - m.conj().T)) > STRUCTURAL_TOL:
        raise ConfigError(f"field '{path}': observable must be Hermitian")
    return m


def _state_from(cfg: dict, path: str, dim: int | None = None) -> np.ndarray:
    rho = _matrix(cfg, path, dim)
    report = _field(path, validate_density, rho, lindblad.VALIDATION_TOL)
    if not report.ok:
        raise ConfigError(f"field '{path}': not a density matrix ({report.worst})")
    return rho


def _models(cfg: dict) -> tuple[lindblad.SystemModel, lindblad.DecoherenceModel]:
    """The system and its decoherence model, checked to share one dimension."""
    energies, dipole = _array(cfg, "system.energies"), _matrix(cfg, "system.dipole")
    system = _field("system", lindblad.SystemModel, energies=energies, dipole=dipole)
    couplings = _array(cfg, "decoherence.couplings", depth=2)
    epsilon = _given(cfg, "decoherence.", epsilon=float)
    dec = _field("decoherence", lindblad.DecoherenceModel, couplings=couplings, **epsilon)
    if dec.dim != system.dim:
        raise ConfigError(f"field 'decoherence.couplings': dimension {dec.dim}, not {system.dim}")
    return system, dec


def _multistart(cfg: dict, **kinds) -> tuple[int, dict]:
    """The number of starts (default 1) and the optimizer options the config
    sets: ``max_iter``, ``grad_tol`` and ``kinds``.  Counts must be >= 1 and
    tolerances >= 0."""
    options = _given(cfg, starts=int, max_iter=int, grad_tol=float, **kinds)
    for name, value in options.items():
        least = 1 if name in ("starts", "max_iter") else 0
        if value < least:
            raise ConfigError(f"field '{name}' must be >= {least}")
    return options.pop("starts", 1), options


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
                "python": ".".join(str(v) for v in sys.version_info[:3]),
            },
            "outputs": sorted(outputs),
        },
    )


def _cmd_simulate(cfg: dict, seed, workers):
    system, dec = _models(cfg)
    rho0 = _state_from(cfg, "initial_state", system.dim)
    segments = _read(cfg, "segments", list)
    if not segments:
        raise ConfigError("field 'segments' must be a nonempty list")
    n_pairs = len(lindblad.transition_pairs(system.dim))
    rows = []
    for k in range(len(segments)):
        where = f"segments[{k}]"
        dt, u = (_read(cfg, f"{where}.{x}", (int, float)) for x in ("dt", "u"))
        occ = _read(cfg, f"{where}.n", (int, float, list))
        occ = _array(cfg, f"{where}.n") if isinstance(occ, list) else np.full(n_pairs, occ)
        if dt <= 0:
            raise ConfigError(f"field '{where}.dt' must be > 0")
        if occ.size != n_pairs or np.any(occ < 0):
            raise ConfigError(f"field '{where}.n': need one occupation >= 0, or {n_pairs} of them")
        rows.append((dt, u, occ))
    durations, u, n = map(np.array, zip(*rows))
    schedule = lindblad.ControlSchedule(durations=durations, u=u, n=n)
    fmt_kind = _read(cfg, "output_format", default="bloch" if system.dim == 2 else "dense")
    if fmt_kind not in ("bloch", "dense"):
        raise ConfigError("field 'output_format' must be 'bloch' or 'dense'")
    if fmt_kind == "bloch" and system.dim != 2:
        raise ConfigError("field 'output_format': bloch output needs a two-level system")

    def run(out: Path) -> list[str]:
        trajectory = lindblad.propagate_schedule(system, dec, schedule, rho0)
        nd = system.dim
        if fmt_kind == "bloch":
            header = ["t", "x", "y", "z"]
            values = np.array([bloch_from_density(r) for r in trajectory])
        else:
            header = ["t"] + [
                f"{part}_{i}{j}" for i in range(nd) for j in range(nd) for part in ("re", "im")
            ]
            # row-major complex entries viewed as interleaved (re, im) pairs
            values = np.array(trajectory).reshape(len(trajectory), nd * nd).view(float)
        write_csv(out / "trajectory.csv", header, np.column_stack([schedule.boundaries, values]))
        write_json(out / "final_state.json", {"final_state": matrix_to_lists(trajectory[-1])})
        return ["trajectory.csv", "final_state.json"]

    return run


def _cmd_stiefel_max(cfg: dict, seed, workers):
    rho = _state_from(cfg, "rho")
    observable = _matrix(cfg, "observable", rho.shape[0], hermitian=True)
    starts, options = _multistart(cfg)

    def run(out: Path) -> list[str]:
        reports = stiefel.multistart_maximize(
            rho, observable, starts=starts, seed=seed, workers=workers, **options
        )
        # the lowest start within BEST_TIE of the best, so that starts which all
        # reach the top eigenvalue are not ranked by their last bits
        top = max(r.objective_value for r in reports)
        best = next(i for i, r in enumerate(reports) if r.objective_value >= top - BEST_TIE)
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
                        "gap": r.gap,
                    }
                    for r in reports
                ],
            },
        )
        return ["iterations.csv", "report.json"]

    return run


def _pulse_problem(cfg: dict) -> ingrape.PulseProblem:
    kind = _read(cfg, "kind", str)
    if kind not in ("gate", "state"):
        raise ConfigError("field 'kind' must be 'gate' or 'state'")
    system, dec = _models(cfg)
    # the problem works in Hermitian coordinates, which need the dipole
    # Hermitian to roundoff, tighter than SystemModel's check
    _field("system.dipole", hermitian_coordinates, lindblad.hamiltonian_superoperator(system.dipole))
    m = int(_read(cfg, "grid.segments", (int,)))
    dt = _read(cfg, "grid.dt", (int, float))
    if m < 1 or dt <= 0:
        raise ConfigError("field 'grid': need segments >= 1 and dt > 0")
    u_max = _read(cfg, "bounds.u_max", (int, float))
    u_min = _read(cfg, "bounds.u_min", (int, float), default=-u_max)
    if u_min >= u_max:
        raise ConfigError("field 'bounds.u_max' must exceed 'bounds.u_min' (default -u_max)")
    n_max = _read(cfg, "bounds.n_max", (int, float), default=0.0)
    if n_max < 0:
        raise ConfigError("field 'bounds.n_max' must be >= 0")
    common = dict(
        system=system, decoherence=dec, n_segments=m, dt=dt, u_bounds=(u_min, u_max), n_max=n_max
    )
    if kind == "gate":
        # the problem's one remaining check, unitarity, names 'target' itself
        return ingrape.GateProblem(target=_matrix(cfg, "target", system.dim), **common)
    rho0 = _state_from(cfg, "initial_state", system.dim)
    observable = _matrix(cfg, "observable", system.dim, hermitian=True)
    # the problem pairs the two in Hermitian coordinates too; X -> Tr(X) A
    # keeps Hermiticity exactly when A is Hermitian
    trace = vec(np.eye(system.dim))
    for path, a in (("initial_state", rho0), ("observable", observable)):
        _field(path, hermitian_coordinates, np.outer(vec(a), trace))
    return ingrape.StateTransferProblem(rho0=rho0, observable=observable, **common)


def _cmd_ingrape(cfg: dict, seed, workers):
    problem = _pulse_problem(cfg)
    starts, options = _multistart(cfg, gap_tol=float)

    def run(out: Path) -> list[str]:
        scan = ingrape.optimize_pulse(problem, starts=starts, seed=seed, workers=workers, **options)
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

    return run


def _cmd_kraus_search(cfg: dict, seed, workers):
    entries = _read(cfg, "alphabet", list)
    if not entries:
        raise ConfigError("field 'alphabet' must be a nonempty list")
    exact = kraussearch.RationalComplexMatrix.from_literals
    channels = [
        [_field(path, exact, op) for op in _read(cfg, path, list)]
        for path in (f"alphabet[{k}].kraus" for k in range(len(entries)))
    ]
    alphabet = _field("alphabet", kraussearch.ChannelAlphabet.from_kraus_lists, channels)
    states = {}
    for name in ("initial_state", "target_state"):
        states[name] = _field(name, exact, _read(cfg, name, list))
        if states[name].dim != alphabet.dim:
            raise ConfigError(f"field '{name}': dimension {states[name].dim}, not {alphabet.dim}")
        _field(name, kraussearch.require_hermitian, states[name])
    max_depth = int(_read(cfg, "max_depth", (int,)))
    if max_depth < 0:
        raise ConfigError("field 'max_depth' must be >= 0")
    mode = _read(cfg, "mode", default="exact")
    if mode not in ("exact", "float"):
        raise ConfigError("field 'mode' must be 'exact' or 'float'")
    options = _given(cfg, tol=float, max_states=int)
    if options.get("tol", kraussearch.SEARCH_TOL) <= 0:
        raise ConfigError("field 'tol' must be > 0")
    if options.get("max_states", 1) < 1:
        raise ConfigError("field 'max_states' must be >= 1")

    def run(out: Path) -> list[str]:
        outcome = kraussearch.bounded_reachability(
            alphabet, states["initial_state"], states["target_state"],
            max_depth=max_depth, mode=mode, **options,
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

    return run


def _cmd_reachable(cfg: dict, seed, workers):
    # SamplerConfig (the one place the optional defaults live) takes one config
    # key at a time, so a fault its check finds is reported under that key
    sampler = reachable.SamplerConfig(seed=seed)
    number = lambda key: _read(cfg, key, (int, float))
    count = lambda key: _read(cfg, key, int)
    for key, attr, read in (
        ("omega", "omega", number),
        ("mu", "mu", number),
        ("gamma", "gamma", number),
        ("u_max", "u_max", number),
        ("n_max", "n_max", number),
        ("segments", "segment_range", lambda key: tuple(_array(cfg, key, int).tolist())),
        ("durations", "duration_range", lambda key: tuple(_array(cfg, key).tolist())),
        ("samples", "n_samples", count),
        ("resolution", "resolution", count),
    ):
        if key in cfg or key in ("omega", "mu", "gamma", "samples"):
            sampler = _field(key, dataclasses.replace, sampler, **{attr: read(key)})
    rho0 = _state_from(cfg, "initial_state", 2) if "initial_state" in cfg else np.diag([1.0, 0j])
    slack = _read(cfg, "slack", (int, float), reachable.SLACK)
    if slack <= 0:
        raise ConfigError("field 'slack' must be > 0")

    def run(out: Path) -> list[str]:
        # the study hands its points over block by block; a study that
        # raises (such as one the doubling check refuses) leaves no points.csv
        with csv_row_blocks(out / "points.csv", ["x", "y", "z"]) as write_points:
            study = reachable.run_reachability_study(sampler, rho0, slack=slack, sink=write_points)
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

    return run


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


@functools.cache  # one parser a process, however many main calls
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
    """Exit status of one subcommand: 1 for a ``ValueError`` or ``TypeError``
    raised before its run step starts, 2 (and a ``FAILED`` marker) for
    anything else raised, 0 on success."""
    run = None
    try:
        args = build_parser().parse_args(argv)
        out: Path = args.out
        config_path: Path = args.config
        try:
            out.mkdir(parents=True, exist_ok=True)
            cfg = json.loads(config_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot create --out or read the JSON config: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config document must be a JSON object")
        seed = _read(cfg, "seed", int, 0) if args.seed is None else args.seed
        if seed < 0:
            source = "field 'seed'" if args.seed is None else "option '--seed'"
            raise ConfigError(f"{source} must be >= 0")
        run = _COMMANDS[args.subcommand](cfg, seed, max(1, args.workers))
        outputs = run(out)
    except Exception as exc:
        if run is None and isinstance(exc, (ValueError, TypeError)):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        (out / "FAILED").write_text(f"{type(exc).__name__}: {exc}\n\n{traceback.format_exc()}")
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    _write_manifest(out, args.subcommand, config_path, seed, outputs + ["manifest.json"])
    if args.verbose:
        print(f"{args.subcommand}: wrote {len(outputs) + 1} files to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
