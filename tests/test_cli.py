import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oqctrl import cli, reachable, stiefel
from oqctrl.cli import main
from oqctrl.serialization import matrix_to_lists


def write_config(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return path


def qubit_simulate_config(n=1.0, dt=50.0):
    return {
        "system": {
            "energies": [0.0, 1.0],
            "dipole": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
        },
        "decoherence": {"couplings": [[0, 0.5], [0.5, 0]], "epsilon": 1.0},
        "initial_state": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
        "segments": [{"dt": dt, "u": 0.0, "n": n}, {"dt": dt, "u": 0.0, "n": n}],
    }


def qutrit_basis_state(k):
    return [[[int(i == j == k), 0] for j in range(3)] for i in range(3)]


class TestSimulate:
    def test_detailed_balance_endpoint(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", qubit_simulate_config(n=1.0))
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        final = json.loads((out / "final_state.json").read_text())["final_state"]
        assert final[0][0][0] == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert final[1][1][0] == pytest.approx(1.0 / 3.0, abs=1e-6)
        rows = (out / "trajectory.csv").read_text().strip().splitlines()
        assert rows[0] == "t,x,y,z"
        assert len(rows) == 4  # header + initial + 2 segments
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "simulate"
        assert set(manifest["outputs"]) == {
            "trajectory.csv", "final_state.json", "manifest.json",
        }
        assert set(manifest["versions"]) == {"oqctrl", "numpy", "python"}

    def test_missing_field_is_validation_error(self, tmp_path, capsys):
        payload = qubit_simulate_config()
        del payload["initial_state"]
        cfg = write_config(tmp_path / "cfg.json", payload)
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "initial_state" in capsys.readouterr().err

    def test_invalid_state_is_validation_error(self, tmp_path, capsys):
        payload = qubit_simulate_config()
        payload["initial_state"] = [[[2.0, 0], [0, 0]], [[0, 0], [0.5, 0]]]
        cfg = write_config(tmp_path / "cfg.json", payload)
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "initial_state" in capsys.readouterr().err

    def test_unknown_subcommand_is_validation_error(self, tmp_path, capsys):
        assert main(["frobnicate", "x.json", "--out", str(tmp_path)]) == 1

    def test_bad_json_is_validation_error(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert main(["simulate", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_dense_output_format(self, tmp_path):
        payload = qubit_simulate_config()
        payload["output_format"] = "dense"
        cfg = write_config(tmp_path / "cfg.json", payload)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header.startswith("t,re_00,im_00")


class TestStiefelMax:
    def test_reaches_top_eigenvalue(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "rho": [[[0.5, 0], [0.1, 0.05]], [[0.1, -0.05], [0.5, 0]]],
                "observable": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
                "starts": 2,
                "grad_tol": 1e-7,
                "seed": 4,
            },
        )
        out = tmp_path / "out"
        assert main(["stiefel-max", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["best_objective"] == pytest.approx(1.0, abs=1e-6)
        assert report["observable_max_eigenvalue"] == pytest.approx(1.0)
        lines = (out / "iterations.csv").read_text().splitlines()
        assert lines[0] == "iter,objective,grad_norm,step"
        assert len(lines) > 2

    @pytest.mark.parametrize("lift, best", [(4e-16, 0), (1e-9, 1)], ids=["roundoff-tie", "better"])
    def test_best_start_is_the_lowest_within_a_tie(self, tmp_path, monkeypatch, lift, best):
        # start 1 ends above start 0 by `lift`: by one ulp it is a tie, which
        # goes to the lower index; by 1e-9 it is better
        real = stiefel.multistart_maximize

        def nudged(*args, **kwargs):
            reports = real(*args, **kwargs)
            top = reports[0].objective_value
            return [dataclasses.replace(reports[0], objective_value=top),
                    dataclasses.replace(reports[1], objective_value=top + lift)]

        monkeypatch.setattr(stiefel, "multistart_maximize", nudged)
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "rho": [[[0.5, 0], [0.1, 0.05]], [[0.1, -0.05], [0.5, 0]]],
                "observable": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
                "starts": 2,
                "seed": 4,
            },
        )
        out = tmp_path / "out"
        assert main(["stiefel-max", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["runs"][1]["objective"] > report["runs"][0]["objective"]
        assert report["best_start"] == best
        assert report["best_objective"] == report["runs"][best]["objective"]


class TestInGrape:
    def test_identity_gate_scan(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "kind": "gate",
                "system": {"energies": [0, 0], "dipole": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
                "decoherence": {"couplings": [[0, 0], [0, 0]], "epsilon": 0.0},
                "target": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                "grid": {"segments": 4, "dt": 0.3},
                "bounds": {"u_max": 2.0, "n_max": 0.0},
                "starts": 3,
                "max_iter": 200,
                "seed": 1,
            },
        )
        out = tmp_path / "out"
        assert main(["ingrape", str(cfg), "--out", str(out)]) == 0
        scan = json.loads((out / "scan.json").read_text())
        assert scan["best_value"] < 1e-8
        runs = (out / "runs.csv").read_text().splitlines()
        assert runs[0] == "run,final_value,converged,iterations"
        assert len(runs) == 4

    def test_state_transfer_kind(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "kind": "state",
                "system": {"energies": [0, 1], "dipole": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
                "decoherence": {"couplings": [[0, 0.2], [0.2, 0]]},
                "initial_state": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
                "observable": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
                "grid": {"segments": 3, "dt": 2.0},
                "bounds": {"u_max": 1.0, "n_max": 1.0},
                "starts": 2,
                "max_iter": 150,
                "seed": 2,
            },
        )
        out = tmp_path / "out"
        assert main(["ingrape", str(cfg), "--out", str(out)]) == 0
        scan = json.loads((out / "scan.json").read_text())
        # expectation maximization drives <sigma_z> toward the ground state
        assert max(scan["cluster_centers"]) > 0.5


class TestKrausSearch:
    def test_flip_certificate(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "alphabet": [
                    {"kraus": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]]},
                ],
                "initial_state": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                "target_state": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
                "max_depth": 3,
            },
        )
        out = tmp_path / "out"
        assert main(["kraus-search", str(cfg), "--out", str(out)]) == 0
        outcome = json.loads((out / "outcome.json").read_text())
        assert outcome["found"] is True
        assert outcome["sequence"] == [0]
        assert outcome["replay_verified"] is True

    def test_hadamard_orbit_negative(self, tmp_path):
        h = [
            [[{"sqrt2": "1/2"}, 0], [{"sqrt2": "1/2"}, 0]],
            [[{"sqrt2": "1/2"}, 0], [{"sqrt2": "-1/2"}, 0]],
        ]
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "alphabet": [{"kraus": [h]}],
                "initial_state": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                "target_state": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
                "max_depth": 6,
            },
        )
        out = tmp_path / "out"
        assert main(["kraus-search", str(cfg), "--out", str(out)]) == 0
        outcome = json.loads((out / "outcome.json").read_text())
        assert outcome["found"] is False
        assert outcome["states_explored"] == 2

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_outcome_states_the_mode(self, tmp_path, mode):
        # a negative answer: the Hadamard orbit never reaches the excited state
        h = [
            [[{"sqrt2": "1/2"}, 0], [{"sqrt2": "1/2"}, 0]],
            [[{"sqrt2": "1/2"}, 0], [{"sqrt2": "-1/2"}, 0]],
        ]
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "alphabet": [{"kraus": [h]}],
                "initial_state": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                "target_state": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
                "max_depth": 4,
                "mode": mode,
            },
        )
        out = tmp_path / "out"
        assert main(["kraus-search", str(cfg), "--out", str(out)]) == 0
        outcome = json.loads((out / "outcome.json").read_text())
        assert outcome["found"] is False
        assert outcome["mode"] == mode
        assert "never claims unreachability" in outcome["note"]
        # only float mode prunes on a rounding grid, and only it says so
        assert ("tol/10 rounding grid" in outcome["note"]) == (mode == "float")
        assert ("heuristic pruning" in outcome["note"]) == (mode == "float")

    def test_inexact_channel_is_validation_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "alphabet": [{"kraus": [[[["1/2", 0], [0, 0]], [[0, 0], ["1/2", 0]]]]}],
                "initial_state": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                "target_state": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
                "max_depth": 2,
            },
        )
        assert main(["kraus-search", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "alphabet" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"max_depth": -1}, "max_depth"),
            ({"initial_state": qutrit_basis_state(0)}, "initial_state"),
            ({"target_state": qutrit_basis_state(2)}, "target_state"),
            ({"initial_state": [[[1, 0], [0]], [[0, 0], [0, 0]]]}, "initial_state"),
        ],
        ids=["negative-depth", "initial-dimension", "target-dimension", "short-pair"],
    )
    def test_config_fault_is_validation_error(self, tmp_path, capsys, change, field):
        payload = {
            "alphabet": [{"kraus": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]]}],
            "initial_state": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
            "target_state": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
            "max_depth": 3,
        }
        payload.update(change)
        cfg = write_config(tmp_path / "cfg.json", payload)
        out = tmp_path / "o"
        assert main(["kraus-search", str(cfg), "--out", str(out)]) == 1
        assert field in capsys.readouterr().err
        assert not (out / "FAILED").exists()

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("field", ["initial_state", "target_state"])
    def test_non_hermitian_state_is_validation_error(self, tmp_path, capsys, mode, field):
        payload = {
            "alphabet": [{"kraus": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]]}],
            "initial_state": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
            "target_state": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
            "max_depth": 3,
            "mode": mode,
        }
        payload[field] = [[["1/2", 0], ["1/2", 0]], [[0, 0], ["1/2", 0]]]
        cfg = write_config(tmp_path / "cfg.json", payload)
        out = tmp_path / "o"
        assert main(["kraus-search", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"field '{field}'" in err and "not exactly Hermitian" in err
        assert not (out / "FAILED").exists()


class TestReachable:
    @pytest.fixture()
    def config(self, tmp_path):
        return write_config(
            tmp_path / "cfg.json",
            {
                "omega": 1.0,
                "mu": 1.0,
                "gamma": 0.1,
                "u_max": 10.0,
                "n_max": 1.0,
                "samples": 40000,
                "resolution": 8,
                "seed": 9,
            },
        )

    def test_report_and_points(self, tmp_path, config):
        out = tmp_path / "out"
        assert main(["reachable", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["PASS"] is True
        assert report["max_radial_gap"] <= 0.3
        assert report["bound_gamma_over_omega"] == pytest.approx(0.1)
        points = (out / "points.csv").read_text().splitlines()
        assert points[0] == "x,y,z"
        assert len(points) > 40000
        grid = json.loads((out / "grid.json").read_text())
        assert grid["occupied_in_ball_cells"] <= grid["total_in_ball_cells"]

    def test_a_report_on_no_usable_bin_does_not_pass(self, tmp_path):
        config = write_config(
            tmp_path / "cfg.json",
            {"omega": 1.0, "mu": 1.0, "gamma": 0.1, "samples": 1, "segments": [1, 2],
             "resolution": 2, "seed": 3},
        )
        out = tmp_path / "out"
        assert main(["reachable", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["low_coverage_bins"] == 288 and report["max_radial_gap"] == 0
        assert report["PASS"] is False

    def test_byte_identical_reruns(self, tmp_path, config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["reachable", str(config), "--out", str(out1)]) == 0
        assert main(["reachable", str(config), "--out", str(out2)]) == 0
        for name in ("points.csv", "grid.json", "report.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_cloud(self, tmp_path, config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["reachable", str(config), "--out", str(out1)]) == 0
        assert main(["reachable", str(config), "--out", str(out2), "--seed", "77"]) == 0
        assert (out1 / "points.csv").read_bytes() != (out2 / "points.csv").read_bytes()
        assert json.loads((out2 / "manifest.json").read_text())["seed"] == 77


    def test_resolution_defaults_to_sampler_config(self, tmp_path, monkeypatch):
        # without a 'resolution' key the grid uses SamplerConfig's default;
        # 2000 samples are too few for it, so the doubling check refuses
        seen = []
        study = reachable.run_reachability_study

        def spy(sampler, rho0, slack, **kwargs):
            seen.append(sampler.resolution)
            return study(sampler, rho0, slack=slack, **kwargs)

        monkeypatch.setattr(reachable, "run_reachability_study", spy)
        cfg = write_config(
            tmp_path / "cfg.json",
            {"omega": 1.0, "mu": 1.0, "gamma": 0.1, "samples": 2000, "segments": [1, 2], "seed": 9},
        )
        out = tmp_path / "out"
        assert main(["reachable", str(cfg), "--out", str(out)]) == 2
        assert seen == [reachable.SamplerConfig().resolution]
        assert "not converged" in (out / "FAILED").read_text()
        assert sorted(p.name for p in out.iterdir()) == ["FAILED"]

    @pytest.mark.parametrize("resolution", [None, 2])
    def test_a_valid_config_reaches_the_patched_sampler(self, tmp_path, monkeypatch, resolution):
        # the positive control of the tests below that patch the sampler with
        # one that raises: the payloads they start from do reach it
        blocks = []
        sample = reachable.sample_reachable

        def spy(cfg, rho0, start, stop):
            blocks.append((start, stop))
            return sample(cfg, rho0, start, stop)

        monkeypatch.setattr(reachable, "sample_reachable", spy)
        payload = {"omega": 1.0, "mu": 1.0, "gamma": 0.1, "samples": 100}
        if resolution is not None:
            payload["resolution"] = resolution
        cfg = write_config(tmp_path / "cfg.json", payload)
        out = tmp_path / "out"
        # resolution 10 (the default) is too fine for 100 samples: refused
        assert main(["reachable", str(cfg), "--out", str(out)]) == (2 if resolution is None else 0)
        assert blocks == [(0, 50), (50, 100)]

    @pytest.mark.parametrize("resolution", [1, 0])
    def test_resolution_below_two_is_validation_error(
        self, tmp_path, capsys, monkeypatch, resolution
    ):
        # rejected with the config, before any sampling
        def never(*args, **kwargs):
            raise AssertionError("sampled despite an invalid resolution")

        monkeypatch.setattr(reachable, "sample_reachable", never)
        cfg = write_config(
            tmp_path / "cfg.json",
            {"omega": 1.0, "mu": 1.0, "gamma": 0.1, "samples": 100, "resolution": resolution},
        )
        out = tmp_path / "out"
        assert main(["reachable", str(cfg), "--out", str(out)]) == 1
        assert "resolution" in capsys.readouterr().err
        assert not (out / "FAILED").exists()

    @pytest.mark.parametrize(
        "key, value, words",
        [("segments", [1], "segment range"), ("durations", [0.5], "duration range")],
    )
    def test_range_without_two_ends_is_validation_error(self, tmp_path, capsys, key, value, words):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"omega": 1.0, "mu": 1.0, "gamma": 0.1, "samples": 100, key: value},
        )
        out = tmp_path / "out"
        assert main(["reachable", str(cfg), "--out", str(out)]) == 1
        assert words in capsys.readouterr().err
        assert not (out / "FAILED").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("samples", 0), ("u_max", -1.0), ("n_max", -0.5), ("segments", [3, 1]),
            ("segments", [0, 2]), ("durations", [2.0, 1.0]), ("resolution", 1),
            ("omega", 0.0), ("mu", -1.0), ("gamma", 0),
        ],
        ids=["samples", "u_max", "n_max", "segments-order", "segments-zero", "durations",
             "resolution", "omega", "mu", "gamma"],
    )
    def test_sampler_fault_names_the_config_key(self, tmp_path, capsys, monkeypatch, key, value):
        def never(*args, **kwargs):
            raise AssertionError("sampled despite an invalid config")

        monkeypatch.setattr(reachable, "sample_reachable", never)
        payload = {"omega": 1.0, "mu": 1.0, "gamma": 0.1, "samples": 100}
        payload[key] = value
        cfg = write_config(tmp_path / "cfg.json", payload)
        out = tmp_path / "out"
        assert main(["reachable", str(cfg), "--out", str(out)]) == 1
        assert f"field '{key}'" in capsys.readouterr().err
        assert not (out / "FAILED").exists()


def qubit_state_transfer_config():
    return {
        "kind": "state",
        "system": {"energies": [0, 1], "dipole": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
        "decoherence": {"couplings": [[0, 0.2], [0.2, 0]]},
        "initial_state": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
        "observable": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
        "grid": {"segments": 3, "dt": 2.0},
        "bounds": {"u_max": 1.0, "n_max": 1.0},
        "starts": 2,
        "max_iter": 20,
        "seed": 2,
    }


def qubit_gate_config():
    payload = qubit_state_transfer_config()
    del payload["initial_state"], payload["observable"]
    payload.update(kind="gate", target=[[[0, 0], [1, 0]], [[1, 0], [0, 0]]])
    return payload


def qubit_stiefel_config():
    return {
        "rho": [[[0.6, 0], [0.1, 0]], [[0.1, 0], [0.4, 0]]],
        "observable": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
        "starts": 2,
        "seed": 12,
    }


def qubit_search_config():
    """Float search with the H and X channels from |0><0| to |+><+| (found at depth 1)."""
    h = [
        [[{"sqrt2": "1/2"}, 0], [{"sqrt2": "1/2"}, 0]],
        [[{"sqrt2": "1/2"}, 0], [{"sqrt2": "-1/2"}, 0]],
    ]
    return {
        "alphabet": [{"kraus": [h]}, {"kraus": [[[[0, 0], [1, 0]], [[1, 0], [0, 0]]]]}],
        "initial_state": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
        "target_state": [[["1/2", 0], ["1/2", 0]], [["1/2", 0], ["1/2", 0]]],
        "max_depth": 5,
        "mode": "float",
    }


def qubit_reachable_config():
    return {"omega": 1.0, "mu": 1.0, "gamma": 0.1, "samples": 100}


QUTRIT_COUPLINGS = [[0, 0.2, 0], [0.2, 0, 0.1], [0, 0.1, 0]]
QUTRIT_OBSERVABLE = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [-1, 0]]]
QUTRIT_SHIFT = [[[0, 0], [0, 0], [1, 0]], [[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]]
NON_HERMITIAN = [[[1, 0], [1, 0]], [[0, 0], [-1, 0]]]


def set_field(payload, path, value):
    """Set a field path such as 'segments[0].dt' or 'bounds.u_max'."""
    *parents, last = path.replace("[", ".").replace("]", "").split(".")
    node = payload
    for part in parents:
        node = node[int(part)] if part.isdigit() else node[part]
    node[int(last) if last.isdigit() else last] = value
    return payload


def two_column_occupations(payload):
    for seg in payload["segments"]:
        seg["n"] = [0.5, 0.5]
    return payload


# (subcommand, config, field the message must name); each config has one
# fault that the parse step finds before anything runs
CONFIG_FAULTS = {
    "ingrape-starts-0": (
        "ingrape", set_field(qubit_state_transfer_config(), "starts", 0), "starts",
    ),
    "ingrape-state-u-max-0": (
        "ingrape", set_field(qubit_state_transfer_config(), "bounds.u_max", 0), "bounds.u_max",
    ),
    "ingrape-state-n-max-negative": (
        "ingrape", set_field(qubit_state_transfer_config(), "bounds.n_max", -1), "bounds.n_max",
    ),
    "ingrape-gate-u-max-0": (
        "ingrape", set_field(qubit_gate_config(), "bounds.u_max", 0), "bounds.u_max",
    ),
    "ingrape-qutrit-couplings": (
        "ingrape",
        set_field(qubit_state_transfer_config(), "decoherence.couplings", QUTRIT_COUPLINGS),
        "decoherence.couplings",
    ),
    "ingrape-qutrit-target": (
        "ingrape", set_field(qubit_gate_config(), "target", QUTRIT_SHIFT), "target",
    ),
    "ingrape-qutrit-observable": (
        "ingrape", set_field(qubit_state_transfer_config(), "observable", QUTRIT_OBSERVABLE),
        "observable",
    ),
    "ingrape-non-hermitian-observable": (
        "ingrape", set_field(qubit_state_transfer_config(), "observable", NON_HERMITIAN),
        "observable",
    ),
    "simulate-dt-0": (
        "simulate", set_field(qubit_simulate_config(), "segments[0].dt", 0), "segments[0].dt",
    ),
    "simulate-n-negative": (
        "simulate", set_field(qubit_simulate_config(), "segments[0].n", -1), "segments[0].n",
    ),
    "simulate-two-column-n": (
        "simulate", two_column_occupations(qubit_simulate_config()), "segments[0].n",
    ),
    "simulate-qutrit-couplings": (
        "simulate", set_field(qubit_simulate_config(), "decoherence.couplings", QUTRIT_COUPLINGS),
        "decoherence.couplings",
    ),
    "stiefel-qutrit-observable": (
        "stiefel-max", set_field(qubit_stiefel_config(), "observable", QUTRIT_OBSERVABLE),
        "observable",
    ),
    "stiefel-non-hermitian-observable": (
        "stiefel-max", set_field(qubit_stiefel_config(), "observable", NON_HERMITIAN),
        "observable",
    ),
    "kraus-search-tol-0": ("kraus-search", set_field(qubit_search_config(), "tol", 0), "tol"),
    "kraus-search-tol-negative": (
        "kraus-search", set_field(qubit_search_config(), "tol", -1), "tol",
    ),
    "kraus-search-tol-nan": (
        "kraus-search", set_field(qubit_search_config(), "tol", float("nan")), "tol",
    ),
    # json reads NaN and Infinity; the reader of each real-valued field
    # rejects a non-finite number
    "reachable-gamma-nan": (
        "reachable", set_field(qubit_reachable_config(), "gamma", float("nan")), "gamma",
    ),
    "reachable-u-max-infinity": (
        "reachable", set_field(qubit_reachable_config(), "u_max", float("inf")), "u_max",
    ),
    # a JSON integer beyond the float range, where the field is real-valued
    "reachable-u-max-huge-int": (
        "reachable", set_field(qubit_reachable_config(), "u_max", 10**400), "u_max",
    ),
    "simulate-energy-huge-int": (
        "simulate", set_field(qubit_simulate_config(), "system.energies[1]", -(10**400)),
        "system.energies",
    ),
    # a JSON integer beyond the machine-integer range, where the field is a count
    "ingrape-starts-huge-int": (
        "ingrape", set_field(qubit_state_transfer_config(), "starts", 10**400), "starts",
    ),
    "reachable-samples-huge-int": (
        "reachable", set_field(qubit_reachable_config(), "samples", 10**400), "samples",
    ),
    "reachable-segments-huge-int": (
        "reachable", set_field(qubit_reachable_config(), "segments", [1, 10**400]), "segments",
    ),
    # Hermitian to SystemModel's 1e-9, but not to the roundoff that the
    # pulse problem's Hermitian coordinates need
    "ingrape-dipole-hermitian-to-1e-10": (
        "ingrape", set_field(qubit_state_transfer_config(), "system.dipole[0][0][1]", 1e-10),
        "system.dipole",
    ),
    # Hermitian to 1e-9, but not to the roundoff of the pairing's coordinates
    "ingrape-observable-hermitian-to-1e-11": (
        "ingrape", set_field(qubit_state_transfer_config(), "observable[0][1]", [1e-11, 0]),
        "observable",
    ),
    "ingrape-initial-state-hermitian-to-1e-8": (
        "ingrape",
        set_field(
            set_field(qubit_state_transfer_config(), "initial_state[0][1]", [0.25, 1e-8]),
            "initial_state[1][0]", [0.25, 0],
        ),
        "initial_state",
    ),
    "ingrape-dt-nan": (
        "ingrape", set_field(qubit_gate_config(), "grid.dt", float("nan")), "grid.dt",
    ),
    "simulate-u-nan": (
        "simulate", set_field(qubit_simulate_config(), "segments[1].u", float("nan")),
        "segments[1].u",
    ),
    "stiefel-observable-nan": (
        "stiefel-max", set_field(qubit_stiefel_config(), "observable[1][1][0]", float("nan")),
        "observable[1][1][0]",
    ),
    # optional numbers must have their JSON type: float() would read "nan"
    # and int() would read "7" or truncate 7.5
    "stiefel-grad-tol-string": (
        "stiefel-max", set_field(qubit_stiefel_config(), "grad_tol", "nan"), "grad_tol",
    ),
    "stiefel-max-iter-string": (
        "stiefel-max", set_field(qubit_stiefel_config(), "max_iter", "7"), "max_iter",
    ),
    "ingrape-max-iter-fraction": (
        "ingrape", set_field(qubit_gate_config(), "max_iter", 7.5), "max_iter",
    ),
    "ingrape-gap-tol-string": (
        "ingrape", set_field(qubit_state_transfer_config(), "gap_tol", "inf"), "gap_tol",
    ),
    "kraus-search-max-states-string": (
        "kraus-search", set_field(qubit_search_config(), "max_states", "100"), "max_states",
    ),
    # no search fits a budget below one state; the target here is hit at depth 1
    "kraus-search-max-states-0": (
        "kraus-search", set_field(qubit_search_config(), "max_states", 0), "max_states",
    ),
    "kraus-search-max-states-negative": (
        "kraus-search", set_field(qubit_search_config(), "max_states", -3), "max_states",
    ),
    "stiefel-max-iter-0": (
        "stiefel-max", set_field(qubit_stiefel_config(), "max_iter", 0), "max_iter",
    ),
    "ingrape-max-iter-0": ("ingrape", set_field(qubit_gate_config(), "max_iter", 0), "max_iter"),
    "ingrape-max-iter-negative": (
        "ingrape", set_field(qubit_state_transfer_config(), "max_iter", -3), "max_iter",
    ),
    # a negative gap would split equal final values into separate clusters
    "ingrape-gap-tol-negative": (
        "ingrape", set_field(qubit_state_transfer_config(), "gap_tol", -1), "gap_tol",
    ),
    # a negative tolerance can never be met, so every start would run to max_iter
    "stiefel-grad-tol-negative": (
        "stiefel-max", set_field(qubit_stiefel_config(), "grad_tol", -1.0), "grad_tol",
    ),
    "ingrape-grad-tol-negative": (
        "ingrape", set_field(qubit_gate_config(), "grad_tol", -1.0), "grad_tol",
    ),
    # a slack of zero or below fails every report whatever the sampled cloud
    "reachable-slack-negative": (
        "reachable", set_field(qubit_reachable_config(), "slack", -1.0), "slack",
    ),
    "reachable-slack-0": ("reachable", set_field(qubit_reachable_config(), "slack", 0), "slack"),
    # JSON booleans are Python ints, but no field takes one as a number
    "ingrape-max-iter-true": ("ingrape", set_field(qubit_gate_config(), "max_iter", True), "max_iter"),
    "ingrape-starts-true": ("ingrape", set_field(qubit_gate_config(), "starts", True), "starts"),
    "ingrape-grid-segments-true": (
        "ingrape", set_field(qubit_gate_config(), "grid.segments", True), "grid.segments",
    ),
    "ingrape-grad-tol-false": (
        "ingrape", set_field(qubit_gate_config(), "grad_tol", False), "grad_tol",
    ),
    "stiefel-max-iter-true": (
        "stiefel-max", set_field(qubit_stiefel_config(), "max_iter", True), "max_iter",
    ),
    "kraus-search-max-depth-true": (
        "kraus-search", set_field(qubit_search_config(), "max_depth", True), "max_depth",
    ),
    "reachable-samples-true": (
        "reachable", set_field(qubit_reachable_config(), "samples", True), "samples",
    ),
    "simulate-dt-true": (
        "simulate", set_field(qubit_simulate_config(), "segments[0].dt", True), "segments[0].dt",
    ),
    "simulate-u-true": (
        "simulate", set_field(qubit_simulate_config(), "segments[0].u", True), "segments[0].u",
    ),
    "simulate-n-true": (
        "simulate", set_field(qubit_simulate_config(), "segments[1].n", True), "segments[1].n",
    ),
    "simulate-n-list-of-true": (
        "simulate", set_field(qubit_simulate_config(), "segments[0].n", [True]), "segments[0].n",
    ),
    # every array leaf is a JSON number too: float() would read true as 1
    # and the strings "1" and "nan" as numbers
    "simulate-dipole-true": (
        "simulate", set_field(qubit_simulate_config(), "system.dipole[0][1][0]", True),
        "system.dipole",
    ),
    "stiefel-observable-string": (
        "stiefel-max", set_field(qubit_stiefel_config(), "observable[0][0][0]", "1"), "observable",
    ),
    "simulate-dipole-nan-string": (
        "simulate", set_field(qubit_simulate_config(), "system.dipole[1][0][0]", "nan"),
        "system.dipole",
    ),
    "simulate-energies-true": (
        "simulate", set_field(qubit_simulate_config(), "system.energies[1]", True),
        "system.energies",
    ),
    "ingrape-energies-string": (
        "ingrape", set_field(qubit_state_transfer_config(), "system.energies[1]", "1.0"),
        "system.energies",
    ),
    "simulate-couplings-true": (
        "simulate", set_field(qubit_simulate_config(), "decoherence.couplings", [[0, True], [1, 0]]),
        "decoherence.couplings",
    ),
    "ingrape-couplings-string": (
        "ingrape",
        set_field(qubit_state_transfer_config(), "decoherence.couplings", [[0, "1.0"], [1, 0]]),
        "decoherence.couplings",
    ),
    "reachable-segments-true": (
        "reachable", set_field(qubit_reachable_config(), "segments", [True, 3]), "segments",
    ),
    "reachable-segments-fraction": (
        "reachable", set_field(qubit_reachable_config(), "segments", [1.5, 3]), "segments",
    ),
    "reachable-durations-true": (
        "reachable", set_field(qubit_reachable_config(), "durations", [0.01, True]), "durations",
    ),
    # the seed is an integer >= 0, from the config or from --seed
    "stiefel-seed-true": ("stiefel-max", set_field(qubit_stiefel_config(), "seed", True), "seed"),
    "stiefel-seed-string": ("stiefel-max", set_field(qubit_stiefel_config(), "seed", "5"), "seed"),
    "stiefel-seed-fraction": ("stiefel-max", set_field(qubit_stiefel_config(), "seed", 5.7), "seed"),
    "stiefel-seed-negative": ("stiefel-max", set_field(qubit_stiefel_config(), "seed", -1), "seed"),
    "stiefel-seed-option-negative": (
        "stiefel-max", qubit_stiefel_config(), "--seed", "--seed", "-1",
    ),
    "kraus-search-literal-true": (
        "kraus-search", set_field(qubit_search_config(), "alphabet[1].kraus[0][0][1][0]", True),
        "alphabet[1].kraus",
    ),
    # a non-finite number on each reader path besides _read's and _array's:
    # optional numbers (_given), numbers with a default, list-valued
    # occupations, sampler ranges, states and the slack
    "simulate-epsilon-nan": (
        "simulate", set_field(qubit_simulate_config(), "decoherence.epsilon", float("nan")),
        "decoherence.epsilon",
    ),
    "ingrape-gap-tol-infinity": (
        "ingrape", set_field(qubit_state_transfer_config(), "gap_tol", float("inf")), "gap_tol",
    ),
    "ingrape-n-max-nan": (
        "ingrape", set_field(qubit_state_transfer_config(), "bounds.n_max", float("nan")),
        "bounds.n_max",
    ),
    "ingrape-u-min-infinity": (
        "ingrape", set_field(qubit_gate_config(), "bounds.u_min", -float("inf")), "bounds.u_min",
    ),
    "simulate-n-list-nan": (
        "simulate", set_field(qubit_simulate_config(), "segments[0].n", [float("nan")]),
        "segments[0].n",
    ),
    "reachable-durations-infinity": (
        "reachable", set_field(qubit_reachable_config(), "durations", [0.01, float("inf")]),
        "durations",
    ),
    "simulate-initial-state-nan": (
        "simulate", set_field(qubit_simulate_config(), "initial_state[1][1][0]", float("nan")),
        "initial_state",
    ),
    "reachable-slack-infinity": (
        "reachable", set_field(qubit_reachable_config(), "slack", float("inf")), "slack",
    ),
}


@pytest.mark.parametrize("case", list(CONFIG_FAULTS))
def test_config_fault_found_before_anything_runs(tmp_path, capsys, case):
    sub, payload, field, *options = CONFIG_FAULTS[case]
    cfg = write_config(tmp_path / "cfg.json", payload)
    out = tmp_path / "out"
    assert main([sub, str(cfg), "--out", str(out), *options]) == 1
    err = capsys.readouterr().err
    assert f"'{field}'" in err
    assert not (out / "FAILED").exists()
    assert not (out / "manifest.json").exists()


def test_non_finite_entry_names_its_array_and_itself(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "cfg.json",
        set_field(qubit_stiefel_config(), "observable[1][1][0]", float("nan")),
    )
    assert main(["stiefel-max", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "field 'observable' entry 'observable[1][1][0]' must be finite" in err


def test_config_key_that_is_not_read_is_not_checked(tmp_path):
    # a number is checked by the reader of its field; the CLI reads no "notes"
    payload = dict(qubit_stiefel_config(), notes={"scale": float("nan")})
    cfg = write_config(tmp_path / "cfg.json", payload)
    assert main(["stiefel-max", str(cfg), "--out", str(tmp_path / "out")]) == 0


# finite inputs whose segment map is not a channel: a map that is not finite
# stops the run at the exponential, and a finite one at the state check
OVERFLOW_MESSAGES = {
    "segments[0].u": "state after segment 0 invalid (trace)",
    "system.energies[1]": "state after segment 0 invalid (trace)",
    "decoherence.epsilon": "matrix exponential must be finite",
}


@pytest.mark.parametrize("path", list(OVERFLOW_MESSAGES))
def test_overflowing_run_is_a_runtime_failure(tmp_path, capsys, path):
    cfg = write_config(tmp_path / "cfg.json", set_field(qubit_simulate_config(), path, 1e300))
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["simulate", str(cfg), "--out", str(out)]) == 2
    assert OVERFLOW_MESSAGES[path] in capsys.readouterr().err
    assert (out / "FAILED").exists() and not (out / "manifest.json").exists()


@pytest.mark.parametrize("u_max", [1e20, 1e300])
def test_non_finite_sampler_map_is_a_runtime_failure(tmp_path, capsys, u_max):
    # finite bounds whose segment maps overflow while squaring: the run stops
    # at the exponential instead of writing NaN or infinite points and a PASS
    cfg = write_config(
        tmp_path / "cfg.json",
        {"omega": 1.0, "mu": 1.0, "gamma": 0.1, "u_max": u_max, "segments": [1, 2], "samples": 200,
         "seed": 3},
    )
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        assert main(["reachable", str(cfg), "--out", str(out)]) == 2
    assert "matrix exponential must be finite" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["FAILED"]


def test_seed_beyond_machine_integers_is_accepted(tmp_path):
    # the seed is entropy for numpy's SeedSequence, which takes any integer >= 0
    cfg = write_config(tmp_path / "cfg.json", set_field(qubit_stiefel_config(), "seed", 2**130))
    out = tmp_path / "out"
    assert main(["stiefel-max", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 2**130


def test_matrix_entries_parse_bit_exactly():
    # every [re, im] pair lands in the matrix unrounded, an imaginary -0.0 included
    rows = [[[0.1, -0.0], [-0.0, 1e-300]], [[1, 2], [-3, 5e-324]]]
    m = cli._matrix({"m": rows}, "m")
    assert m.view(float).tobytes() == np.array(rows, dtype=float).tobytes()


def numeric_leaves(node, path=""):
    """The field path (as set_field takes it) of every JSON number in node."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from numeric_leaves(value, f"{path}[{k}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


EXAMPLE_CONFIGS = {
    "simulate": qubit_simulate_config,
    "ingrape": qubit_state_transfer_config,
    "stiefel-max": qubit_stiefel_config,
    "kraus-search": qubit_search_config,
    "reachable": qubit_reachable_config,
}
# kraus-search reads its matrices as exact literals, which may be "p/q" strings
EXACT_LITERALS = ("alphabet", "initial_state", "target_state")


@pytest.mark.parametrize("sub", list(EXAMPLE_CONFIGS))
def test_every_number_leaf_rejects_booleans_and_strings(tmp_path, capsys, sub):
    # each numeric leaf in turn becomes true, "nan" or "1"; every run must be
    # a config error that names the leaf or a field holding it
    misreads = []
    for k, leaf in enumerate(numeric_leaves(EXAMPLE_CONFIGS[sub]())):
        literal = sub == "kraus-search" and leaf.startswith(EXACT_LITERALS)
        for value in (True, "nan") if literal else (True, "nan", "1"):
            cfg = write_config(tmp_path / "cfg.json", set_field(EXAMPLE_CONFIGS[sub](), leaf, value))
            out = tmp_path / f"out{k}-{value}"
            code = main([sub, str(cfg), "--out", str(out)])
            err = capsys.readouterr().err
            prefixes = [leaf[:m.start()] for m in re.finditer(r"[.\[]", leaf)] + [leaf]
            named = any(f"'{prefix}'" in err for prefix in prefixes)
            left = [f.name for f in (out / "FAILED", out / "manifest.json") if f.exists()]
            if code != 1 or not named or left:
                misreads.append(f"{leaf}={value!r}: exit {code}, {err.strip()!r}, left {left}")
    assert not misreads


class TestReproducibility:
    def test_simulate_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", qubit_simulate_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", str(cfg), "--out", str(out2)]) == 0
        for name in ("trajectory.csv", "final_state.json", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_ingrape_byte_identical(self, tmp_path):
        payload = {
            "kind": "gate",
            "system": {"energies": [0, 1], "dipole": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
            "decoherence": {"couplings": [[0, 1e-3], [1e-3, 0]]},
            "target": matrix_to_lists(np.array([[1, 1], [1, -1]]) / np.sqrt(2)),
            "grid": {"segments": 4, "dt": 0.5},
            "bounds": {"u_max": 3.0, "n_max": 0.5},
            "starts": 2,
            "max_iter": 60,
            "seed": 3,
        }
        cfg = write_config(tmp_path / "cfg.json", payload)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["ingrape", str(cfg), "--out", str(out1)]) == 0
        assert main(["ingrape", str(cfg), "--out", str(out2)]) == 0
        for name in ("runs.csv", "scan.json", "histogram.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_ingrape_independent_of_workers(self, tmp_path):
        # each worker unpickles the problem and builds its own generator cache
        payload = {
            "kind": "gate",
            "system": {"energies": [0, 1], "dipole": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
            "decoherence": {"couplings": [[0, 1e-2], [1e-2, 0]]},
            "target": matrix_to_lists(np.diag([1.0, np.exp(1j * np.pi / 4)])),
            "grid": {"segments": 5, "dt": 0.3},
            "bounds": {"u_max": 2.0, "n_max": 1.0},
            "starts": 3,
            "max_iter": 30,
            "seed": 11,
        }
        cfg = write_config(tmp_path / "cfg.json", payload)
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert main(["ingrape", str(cfg), "--out", str(out1), "--workers", "1"]) == 0
        assert main(["ingrape", str(cfg), "--out", str(out2), "--workers", "2"]) == 0
        for name in ("runs.csv", "scan.json", "histogram.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_stiefel_max_independent_of_workers(self, tmp_path):
        # the multistart runner's process pool must give the serial results
        payload = {
            "rho": [[[0.6, 0], [0.1, 0.05]], [[0.1, -0.05], [0.4, 0]]],
            "observable": [[[1, 0], [0.3, 0]], [[0.3, 0], [-1, 0]]],
            "starts": 3,
            "max_iter": 200,
            "seed": 12,
        }
        cfg = write_config(tmp_path / "cfg.json", payload)
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert main(["stiefel-max", str(cfg), "--out", str(out1), "--workers", "1"]) == 0
        assert main(["stiefel-max", str(cfg), "--out", str(out2), "--workers", "2"]) == 0
        for name in ("iterations.csv", "report.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_outputs_independent_of_blas_threads(self, tmp_path):
        # OpenBLAS reads its thread count when numpy loads, so each count runs
        # the five subcommands in a fresh process; every --out file, the
        # manifest included, must come out byte for byte the same
        configs = {
            "simulate": qubit_simulate_config(),
            "stiefel-max": qubit_stiefel_config(),
            "ingrape": qubit_gate_config(),
            "kraus-search": qubit_search_config(),
            "reachable": {**qubit_reachable_config(), "samples": 2000, "resolution": 4, "seed": 14},
        }
        paths = {sub: write_config(tmp_path / f"{sub}.json", payload) for sub, payload in configs.items()}
        driver = (
            "import json, sys\n"
            "from oqctrl.cli import main\n"
            "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        for threads in ("1", "2"):
            calls = [[sub, str(path), "--out", str(tmp_path / threads / sub)] for sub, path in paths.items()]
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=pythonpath)
            subprocess.run([sys.executable, "-c", driver, json.dumps(calls)], env=env, check=True,
                           timeout=120)
        for sub in configs:
            one, two = tmp_path / "1" / sub, tmp_path / "2" / sub
            names = sorted(p.name for p in one.iterdir())
            assert "manifest.json" in names and names == sorted(p.name for p in two.iterdir())
            for name in names:
                assert (one / name).read_bytes() == (two / name).read_bytes(), f"{sub}/{name}"

    def test_failure_leaves_marker(self, tmp_path, monkeypatch):
        # force a runtime failure inside the pipeline
        import oqctrl.cli as cli_mod

        def boom(*a, **k):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(cli_mod._COMMANDS, "simulate", boom)
        cfg = write_config(tmp_path / "cfg.json", qubit_simulate_config())
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == 2
        assert (out / "FAILED").exists()
        assert "synthetic failure" in (out / "FAILED").read_text()
        assert not (out / "manifest.json").exists()
