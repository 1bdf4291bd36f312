"""oqctrl benchmark: four CLI workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload tgate-scan --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --seed 1            # every workload in turn

Each workload runs in fresh worker processes (worker.py) with BLAS pinned to
one thread.  The set-up time is the median over SETUP_SAMPLES process
starts, rescaled to the reference machine speed (speed.py) by the median of
calibrations taken between the starts.  With --workload, the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the exit code is not 0 when a worker fails or the
oqctrl sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
WORKLOADS = ["tgate-scan", "qutrit-gksl", "bloch-cloud", "kraus-maps"]
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py with args; its last stdout line as JSON."""
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    env["PERFBENCH_T0"] = repr(time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {' '.join(args)} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        return spawn(common + ["--trace", "1"], deadline)
    setups, calibrations = [], [speed.calibrate()]
    for _ in range(SETUP_SAMPLES):
        setups.append(spawn(common + ["--setup-only"], deadline)["setup_s"])
        calibrations.append(speed.calibrate())
    setup_s = statistics.median(setups) * speed.scale(calibrations)
    result = spawn(common + ["--trace", "0"], deadline)
    result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else WORKLOADS
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, time.monotonic() + DEADLINE_S)
        except WorkerFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if not args.workload:
            print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    if args.workload:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
