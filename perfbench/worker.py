"""One benchmark process: set-up, the timed op list, checks, and the traced run.

``run.py`` starts this script once per set-up sample and once for the
measured run, with BLAS pinned to one thread. The script imports
``gridloss`` from the checkout's ``src``, runs one untimed warm-up op, and
stamps the moment it is ready on the system-wide monotonic clock. With
``--setup-only`` it stops there. Otherwise it runs the workload's fixed op
list through ``gridloss.cli.main`` in-process, checks every output, and with
``--trace 1`` runs the first half of the list, then that half again under
the tracer. The last line of standard output is one JSON object for
``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from tracer import Tracer, self_times
from workloads import WORKLOADS, op_seeds

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

# Metric names and units, in print order, as BENCHMARK.json defines them.
METRICS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_cli():
    """Import ``gridloss.cli`` from the checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "gridloss" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gridloss package under {src}")
    sys.path.insert(0, str(src))
    import gridloss.cli

    if Path(gridloss.__file__).resolve().parent != (src / "gridloss").resolve():
        raise SystemExit(f"perfbench: imported gridloss from {gridloss.__file__}, not from {src}")
    return gridloss.cli


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _digest(out: Path) -> str:
    meta = Path(f"{out}.meta.json")
    sha = hashlib.sha256(out.read_bytes())
    sha.update(meta.read_bytes())
    return sha.hexdigest()


def _remove_outputs(out: Path) -> None:
    for path in (out, Path(f"{out}.meta.json")):
        path.unlink(missing_ok=True)


def run_op(cli, workload, seed: int, out: Path, check: bool) -> dict:
    """One CLI op: its wall time, the output digest, and any failure."""
    argv = workload.argv(seed, out)
    record = {"seed": seed, "seconds": 0.0, "digest": None, "error": None}
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            record["seconds"] = time.perf_counter() - start
        if code != 0:
            record["error"] = f"exit code {code}"
        else:
            record["digest"] = _digest(out)
            if check:
                record["error"] = workload.check(argv, out)
    except Exception:  # an op that crashes counts as failed; the run goes on
        record["error"] = traceback.format_exc(limit=3)
    finally:
        _remove_outputs(out)
    return record


def run_list(cli, workload, seeds, workdir: Path, check: bool, tracer=None) -> list[dict]:
    """Run every op in order; with a tracer, record each op's span range."""
    records = []
    for index, seed in enumerate(seeds):
        out = workdir / f"op{index}{workload.suffix}"
        first = len(tracer.spans) if tracer is not None else 0
        record = run_op(cli, workload, seed, out, check)
        if tracer is not None:
            record["spans"] = (first, len(tracer.spans))
        records.append(record)
    return records


def end_to_end(records: list[dict]) -> dict:
    seconds = [r["seconds"] for r in records]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"wall_s": math.fsum(seconds), "peak_rss_mb": rss_mb}
    # setup_s is measured across processes, by run.py
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in METRICS["end_to_end"] if m["name"] != "setup_s"}


def per_layer(spans: list[list], traced: list[dict], untraced: list[dict]) -> dict:
    """Per-op layer metrics from the traced run's spans."""
    n_ops = len(traced)
    selfs = self_times(spans)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    lyapunov = defaultdict(float)
    lyapunov_calls = defaultdict(int)
    duration = defaultdict(float)
    notes = defaultdict(list)
    for (name, parent, start, end, note), own in zip(spans, selfs):
        self_s[name] += own
        calls[name] += 1
        duration[name] += end - start
        if note is not None:
            notes[name].append(note)
        if name == "h2.solve_lyapunov" and parent >= 0:
            lyapunov[spans[parent][0]] += own
            lyapunov_calls[spans[parent][0]] += 1
    layer_self = defaultdict(float)
    for name, value in self_s.items():
        layer_self[name.split(".", 1)[0]] += value

    distinct = 0
    for record in traced:
        first, last = record["spans"]
        distinct += len({note[0] for (name, _, _, _, note) in spans[first:last]
                         if name == "tuning.optimal_gamma" and note is not None})
    iterations = sum(note[1] for note in notes["tuning.optimal_gamma"])
    steps = sum(note[0] for note in notes["sim.simulate"])
    traced_wall = math.fsum(r["seconds"] for r in traced)
    untraced_wall = math.fsum(r["seconds"] for r in untraced)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "h2.h2_full_gramian.states": max(notes["h2.h2_full_gramian"], default=0),
        "h2.h2_full_gramian.lyapunov_self_s": lyapunov["h2.h2_full_gramian"] / n_ops,
        "h2.h2_modal.lyapunov_self_s": lyapunov["h2.h2_modal"] / n_ops,
        "h2.h2_modal.lyapunov_calls": lyapunov_calls["h2.h2_modal"] / n_ops,
        "tuning.optimal_gamma.useful_ratio": ratio(distinct, calls["tuning.optimal_gamma"]),
        "tuning.norm_gamma_derivative.useful_ratio": ratio(iterations, calls["tuning.norm_gamma_derivative"]),
        "sim.simulate.steps_per_s": ratio(steps, duration["sim.simulate"]),
        "sim.simulate.state_bytes": ratio(sum(note[1] for note in notes["sim.simulate"]), n_ops),
        "sim.export_trajectory.bytes": ratio(sum(notes["sim.export_trajectory"]), n_ops),
        "trace.overhead_frac": ratio(traced_wall - untraced_wall, untraced_wall),
    }
    metrics = {}
    for spec in METRICS["per_layer"]:
        name = spec["name"]
        if name in values:
            value = values[name]
        elif name.endswith(".share"):
            value = ratio(layer_self[name[:-len(".share")]], traced_wall)
        elif name.endswith(".self_s"):
            value = self_s[name[:-len(".self_s")]] / n_ops
        elif name.endswith(".calls"):
            value = calls[name[:-len(".calls")]] / n_ops
        else:
            raise KeyError(name)
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics


def write_trace(path: Path, spans: list[list], traced: list[dict]) -> None:
    """Spans as tab-separated lines: op, span index, name, parent, start, end
    (seconds from the op's first span)."""
    with path.open("w", encoding="utf-8") as fh:
        fh.write("op\tspan\tname\tparent\tstart_s\tend_s\n")
        for op, record in enumerate(traced):
            first, last = record["spans"]
            if first == last:
                continue
            origin = spans[first][2]
            for index in range(first, last):
                name, parent, start, end, _ = spans[index]
                fh.write(f"{op}\t{index}\t{name}\t{parent}\t{start - origin:.9f}\t{end - origin:.9f}\n")


def measure(cli, workload, seeds, workdir: Path, trace: bool) -> dict:
    """The timed op list, its checks, and with ``trace`` the traced rerun."""
    untraced = run_list(cli, workload, seeds, workdir, check=True)
    if workload.rerun:
        # a same-seed rerun outside the timed list must reproduce the files
        last = untraced[-1]
        again = run_op(cli, workload, last["seed"], workdir / f"op{len(seeds) - 1}{workload.suffix}", False)
        if last["error"] is None and again["digest"] != last["digest"]:
            last["error"] = "same-seed rerun is not byte-identical"
    records = untraced
    result = {}
    if trace:
        with Tracer() as tracer:
            traced = run_list(cli, workload, seeds, workdir, check=False, tracer=tracer)
        for first, second in zip(untraced, traced):
            if second["error"] is None and second["digest"] != first["digest"]:
                second["error"] = "traced output differs from untraced output"
        write_trace(workdir.parent / f"trace-{workload.name}.tsv", tracer.spans, traced)
        result["metrics"] = per_layer(tracer.spans, traced, untraced)
        records = untraced + traced
    else:
        result["metrics"] = end_to_end(untraced)
    errors = [r["error"] for r in records if r["error"] is not None]
    result.update(attempted=len(records), failed=len(errors), errors=errors[:5],
                  op_seconds=[r["seconds"] for r in untraced])
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = load_cli()
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warmup = run_op(cli, workload.warmup(), 0, workdir / f"warmup{workload.suffix}", False)
        ready = time.monotonic()
        if warmup["error"] is not None:
            raise SystemExit(f"perfbench: warm-up op failed: {warmup['error']}")
        result = {"ready": ready}
        if not args.setup_only:
            n_ops = max(1, round(args.seconds * workload.ops_per_second))
            if args.trace:
                # the traced run repeats the list, so both halves use its first half
                n_ops = (n_ops + 1) // 2
            seeds = op_seeds(workload.name, args.seed, n_ops)
            result.update(measure(cli, workload, seeds, workdir, bool(args.trace)))
            result["env"] = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
