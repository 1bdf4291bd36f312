"""One workload in one fresh process, driving ``oqctrl.cli.main`` in-process.

Started by run.py.  With --setup-only the process stops before the first
subcommand call and reports its set-up time: from run.py's monotonic clock
reading in PERFBENCH_T0, taken just before the process started, through the
interpreter start, ``import oqctrl.cli`` and writing the first configs.
Otherwise the last line of standard output is the run's JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


@dataclass
class Round:
    """One round of a workload's subcommand calls and what they left."""

    dir: Path
    calls: list
    configs: dict = field(default_factory=dict)
    seconds: dict = field(default_factory=dict)
    # the run's factor to the calibration kernel's reference speed (speed.py)
    scale: float = 1.0
    codes: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    rates: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.seconds.values())

    def scaled(self, tag: str) -> float:
        """A call's time at the calibration kernel's reference speed."""
        return self.seconds[tag] * self.scale

    @property
    def scaled_wall(self) -> float:
        return self.wall * self.scale

    @property
    def ok(self) -> bool:
        return all(code == 0 for code in self.codes.values())


def round_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] >> 1)


def prepare(workload, seed: int, index: int, directory: Path) -> Round:
    """Write the round's configs; nothing runs yet."""
    rnd = Round(directory, workload.calls(round_seed(seed, index)))
    directory.mkdir(parents=True)
    for sub, tag, cfg in rnd.calls:
        rnd.configs[tag] = cfg
        (directory / f"{tag}.json").write_text(json.dumps(cfg))
    return rnd


def execute(rnd: Round, cli_main, tracer=None) -> None:
    """Run the round's calls one after another (a closed loop)."""
    for sub, tag, _ in rnd.calls:
        argv = [sub, str(rnd.dir / f"{tag}.json"), "--out", str(rnd.dir / tag), "--workers", "1"]
        t0 = time.perf_counter()
        if tracer is None:
            code = cli_main(argv)
        else:
            code = tracer.call(f"cli.{sub}", cli_main, argv)
        rnd.seconds[tag] = time.perf_counter() - t0
        rnd.codes[tag] = code


def run_rounds(workload, seed, seconds, cli_main, tracer=None) -> list[Round]:
    """Whole rounds until ``seconds`` have passed (at least one), with a
    machine-speed calibration before the first and after every round; each
    round gets the run's scale."""
    rounds, calibrations = [], [speed.calibrate()]
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        k = len(rounds)
        rnd = prepare(workload, seed, k, OUT / workload.name / f"round-{k:03d}")
        execute(rnd, cli_main, tracer)
        rounds.append(rnd)
        calibrations.append(speed.calibrate())
    for rnd in rounds:
        rnd.scale = speed.scale(calibrations)
    return rounds


def check(workload, rounds: list[Round]) -> list[str]:
    """Every check of the run; a failed call, a run with no round left to
    check, or an output that cannot be read is a failure."""
    fails = [f"{r.dir / tag}: exit code {code}" for r in rounds for tag, code in r.codes.items() if code]
    good = [r for r in rounds if r.ok]
    if not good:
        fails.append("no round had every call succeed; nothing was checked")
    try:
        facts = workload.run_check(fails)
        for rnd in good:
            workload.check(rnd, facts, fails)
            rnd.rates = workload.rates(rnd)
        if good:
            workload.deep_check(good[0], fails)
    except Exception as exc:  # a changed output format must read as incorrect
        fails.append(f"check raised {exc!r}")
        traceback.print_exc()
    return fails


def summary(workload, rounds: list[Round], metrics: dict) -> None:
    """Human-readable lines on stderr: every metric and the per-call rates."""
    walls = " ".join(f"{r.wall:.3f}" for r in rounds)
    lines = [
        f"{workload.name}: {len(rounds)} rounds, unscaled walls {walls} s",
        f"  machine speed relative to reference: {1.0 / rounds[0].scale:.3f}",
    ]
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    rates = [r.rates for r in rounds if r.rates]
    for name in rates[0] if rates else ():
        lines.append(f"  {name} = {statistics.median(r[name] for r in rates):.6g} 1/s (median of rounds)")
    print("\n".join(lines), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    t_start = float(os.environ.get("PERFBENCH_T0", time.monotonic()))

    if not (SRC / "oqctrl").is_dir():
        print(f"error: no oqctrl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from oqctrl.cli import main as cli_main

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    base = OUT / workload.name
    if args.setup_only:
        scratch = OUT / f"{workload.name}-setup-{os.getpid()}"
        shutil.rmtree(scratch, ignore_errors=True)
        prepare(workload, args.seed, 0, scratch)
        setup_s = time.monotonic() - t_start
        shutil.rmtree(scratch)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    shutil.rmtree(base, ignore_errors=True)

    if args.trace:
        from tracing import LAYER_METRICS, Tracer, layer_metrics, span_cost

        tracer = Tracer()
        tracer.install()
        try:
            rounds = run_rounds(workload, args.seed, args.seconds, cli_main, tracer)
        finally:
            tracer.uninstall()
        tracer.write(base / "trace.json")
        values = layer_metrics(tracer, len(rounds), span_cost())
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
        if tracer.absent:
            print(f"absent trace targets (their metrics read 0): {', '.join(tracer.absent)}", file=sys.stderr)
        if tracer.lost:
            print(f"counters that could not be read: {', '.join(sorted(tracer.lost))}", file=sys.stderr)
    else:
        rounds = run_rounds(workload, args.seed, args.seconds, cli_main)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # rounds with a failed call (correct reads false then) do not count
        timed = [r for r in rounds if r.ok] or rounds
        metrics = {
            "wall_s": {"value": statistics.median(r.scaled_wall for r in timed), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }

    fails = check(workload, rounds)
    for line in fails:
        print(f"check failed: {line}", file=sys.stderr)
    summary(workload, rounds, metrics)
    attempted = sum(len(r.codes) for r in rounds)
    failed = sum(code != 0 for r in rounds for code in r.codes.values())
    print(json.dumps({"correct": not fails, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
