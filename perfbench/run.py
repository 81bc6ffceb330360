"""gridloss benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Run it in a checkout that holds ``src/gridloss``. Each run starts fresh
worker processes with BLAS pinned to one thread: with ``--trace 0``,
several that only set up (to sample ``setup_s``); then one that sets up and
measures.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last line of standard output is the result object; the line before
it records the environment. See perfbench/README.md.
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

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
# A run gets DEADLINE_S, or DEADLINE_S_PER_SECOND per --seconds if that is
# longer: 170 s at --seconds 20, inside the 180 s a run may take. A worker
# still running then is killed and no result is printed, so a slowdown of
# more than about 3.5x on design shows as a missing run, not as a figure.
DEADLINE_S = 170.0
DEADLINE_S_PER_SECOND = 8.5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker; return its set-up time and its result object."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: worker {args} did not finish before the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker {args} exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    # CLOCK_MONOTONIC is system-wide on Linux, so the worker's stamp and
    # ``started`` share one time base.
    return result["ready"] - started, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gridloss benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    deadline = time.monotonic() + max(DEADLINE_S, DEADLINE_S_PER_SECOND * args.seconds)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    # setup_s is an end-to-end metric, so only --trace 0 samples it
    setups = [] if args.trace else [
        spawn([*common, "--setup-only"], deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
    setup, result = spawn([*common, "--trace", str(args.trace)], deadline)
    setups.append(setup)

    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    for error in result["errors"]:
        print(f"perfbench: failed op: {error}", file=sys.stderr)
    print(json.dumps({"env": result["env"], "setup_samples_s": setups, "op_seconds": result["op_seconds"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
