"""Tests of the benchmark's own code: span arithmetic, tracer wiring and the
independent oracles, each on a case small enough to check by hand."""

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics, self_times, span_cost  # noqa: E402

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)


def test_self_time_subtracts_nested_children():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [["root", 0.0, 10.0, None], ["a", 1.0, 4.0, 0], ["b", 3.0, 5.0, 0]]
    assert self_times(spans)[0] == pytest.approx(6.0)


def test_layer_metrics_are_per_round_and_ratios_use_totals():
    tracer = Tracer()
    tracer.spans = [
        ["ingrape.optimize_run", 0.0, 4.0, None],
        ["ingrape.objective_value", 0.0, 1.0, 0],
        ["ingrape.objective_value", 1.0, 2.0, 0],
        ["kraussearch.apply_channel_exact", 2.0, 3.0, 0],
        ["kraussearch.matmul", 2.0, 2.5, 3],
        ["kraussearch.matmul", 2.5, 3.0, 3],
        ["kraussearch.matmul", 3.5, 4.0, 0],
    ]
    tracer.counters["ingrape.accepted_steps"] = 1
    m = layer_metrics(tracer, rounds=2, per_span_s=0.5)
    assert m["ingrape.objective_value.calls"] == 1.0
    assert m["ingrape.line_search_accept_ratio"] == 0.5
    assert m["kraussearch.matmul.calls"] == 1.5
    assert m["kraussearch.matmuls_per_apply"] == 3.0
    assert m["kraussearch.apply_channel_exact.self_s"] == 0.0
    assert m["trace.overhead_s"] == 7 / 2 * 0.5
    assert m["stiefel.maximize.calls"] == 0.0


def test_tracer_rebinds_imported_names_and_restores_them():
    from oqctrl import ingrape, lindblad

    original = lindblad.build_liouvillian
    tracer = Tracer()
    tracer.install()
    try:
        assert ingrape.build_liouvillian is not original
        system, dec = lindblad.qubit_system(1.0, 1.0), lindblad.qubit_decoherence(0.1)
        ingrape.build_liouvillian(system, dec, 0.5, 1.0)
        ingrape.expm(np.zeros((3, 4, 4)))
    finally:
        tracer.uninstall()
    assert ingrape.build_liouvillian is original and lindblad.build_liouvillian is original
    assert [s[0] for s in tracer.spans] == ["lindblad.build_liouvillian", "expm.ingrape"]
    assert tracer.counters["expm.ingrape.matrices"] == 3
    assert tracer.absent == [] and not tracer.lost


def test_span_cost_is_positive_and_small():
    assert 0 < span_cost(calls=2000, bursts=3) < 1e-3


def qubit_propagators(gamma, segments):
    return oracles.segment_propagators(
        [0.0, 1.0], X, [[0.0, gamma], [gamma, 0.0]], 1.0, segments
    )


def test_gksl_oracle_relaxes_to_detailed_balance():
    n = 1.0
    rho = oracles.propagate(np.eye(2) / 2, qubit_propagators(0.5, [(60.0, 0.0, n)]))
    expected = np.diag([(n + 1) / (2 * n + 1), n / (2 * n + 1)])
    assert np.abs(rho - expected).max() < 1e-9


def test_gksl_oracle_jump_rates():
    up, down = oracles.jump_operators([[0.0, 0.5], [0.5, 0.0]], 1.0)
    assert abs(up[1, 0]) ** 2 == pytest.approx(0.5)  # |1><0| at A n
    assert abs(down[0, 1]) ** 2 == pytest.approx(1.0)  # |0><1| at A (n + 1)


def test_gate_infidelity_of_a_rotation():
    # H = u X with zero splitting: U = exp(-i u t X)
    theta = math.pi / 4
    props = oracles.segment_propagators([0.0, 0.0], X, np.zeros((2, 2)), 1.0, [(1.0, theta, 0.0)])
    rotation = math.cos(theta) * np.eye(2) - 1j * math.sin(theta) * X
    assert oracles.gate_infidelity(props, rotation) == pytest.approx(0.0, abs=1e-10)
    # 1 - |Tr U|^2 / 4 against the identity
    assert oracles.gate_infidelity(props, np.eye(2)) == pytest.approx(0.5, abs=1e-10)


def test_binning_by_hand():
    counts = oracles.bin_counts(np.array([[0.9, -0.9, 0.1], [-1.0, -1.0, -1.0]]), 2)
    assert counts.tolist() == [1, 0, 0, 0, 0, 1, 0, 0]
    assert oracles.in_ball_cells(2).all()
    assert int(oracles.in_ball_cells(3).sum()) == 27 - 8


@pytest.mark.parametrize("name, kraus", [
    ("hadamard", [np.array([[1, 1], [1, -1]]) / math.sqrt(2)]),
    ("t", [np.diag([1, np.exp(1j * math.pi / 4)])]),
    ("bit-flip-mix", [0.6 * X, 0.8 * np.eye(2)]),
])
def test_exact_bloch_maps_match_the_kraus_operators(name, kraus):
    r = (Fraction(1, 3), Fraction(-1, 5), Fraction(1, 2))
    rho = 0.5 * (np.eye(2) + float(r[0]) * X + float(r[1]) * Y + float(r[2]) * Z)
    out = sum(k @ rho @ k.conj().T for k in kraus)
    expected = [np.trace(out @ p).real for p in (X, Y, Z)]
    exact_map = dict(zip(workloads.ALPHABET, workloads.EXACT_MAPS))[name]
    got = exact_map(oracles.q_vec(*r))
    assert [float(a) + float(b) * math.sqrt(2) for a, b in got] == pytest.approx(expected, abs=1e-15)
    float_map = dict(zip(workloads.ALPHABET, oracles.float_maps()))[name]
    assert float_map @ np.array([float(c) for c in r]) == pytest.approx(expected, abs=1e-15)


def test_alphabet_literals_are_the_intended_channels():
    from oqctrl.kraussearch import RationalComplexMatrix

    mats = {
        name: [RationalComplexMatrix.from_literals(op).to_numpy() for op in ops]
        for name, ops in workloads.ALPHABET.items()
    }
    assert np.allclose(mats["hadamard"][0], np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    assert np.allclose(mats["t"][0], np.diag([1, np.exp(1j * math.pi / 4)]))
    assert np.allclose(mats["bit-flip-mix"][0], 0.6 * X)


def test_search_oracles_on_the_hadamard_orbit():
    levels = oracles.exact_levels([oracles.hadamard_bloch], oracles.q_vec(0, 0, 1), 6)
    assert len(set().union(*levels)) == 2
    assert oracles.float_min_distance([0, 0, 1], [1, 0, 0], 1) == 0.0
    assert oracles.float_min_distance([0, 0, 1], [0, 0, -1], 0) == 1.0


def test_configs_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS.values():
        assert workload.calls(7) == workload.calls(7)
        assert workload.calls(7) != workload.calls(8)


def test_speed_scale_maps_the_reference_kernel_time_to_one():
    ref = speed.REFERENCE_S
    assert speed.scale([ref]) == 1.0
    assert speed.scale([ref, 2 * ref, 9 * ref]) == 0.5
    assert speed.calibrate(bursts=1) > 0


def test_a_failed_call_makes_the_run_incorrect(tmp_path):
    import worker

    class Quiet(workloads.Workload):
        def check(self, rnd, facts, fails):
            pass

        def rates(self, rnd):
            return {}

    ok = worker.Round(tmp_path, [], codes={"a": 0})
    bad = worker.Round(tmp_path, [], codes={"a": 2})
    assert worker.check(Quiet(), [ok]) == []
    assert len(worker.check(Quiet(), [ok, bad])) == 1
    assert len(worker.check(Quiet(), [bad])) == 2
