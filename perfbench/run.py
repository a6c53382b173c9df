#!/usr/bin/env python3
"""anisoflow benchmark: one workload, one seed, closed loop, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`, never from an installed copy.  With --trace 0 the last stdout line
carries the end-to-end metrics of BENCHMARK.json, measured untraced.  With
--trace 1 an untraced loop gives the reference job time, then one job runs
with every public function wrapped (see tracing.py) and the last line carries
the per-layer metrics.  --small shrinks every grid for the smoke test.
Results and spans also go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
# BLAS/OpenMP pools pinned to one thread, so that pocketfft's FFT_WORKERS
# threads are the only parallelism
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# a second job gives the same-seed determinism check something to compare
MIN_JOBS = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="small grids (smoke test)")
    return p.parse_args(argv)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measure_setup(args, workdir: Path) -> list[float]:
    """Set-up times of SETUP_PROBES fresh processes, run one at a time."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir)]
    if args.small:
        cmd.append("--small")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_jobs(wl, inp, seconds: float, failures: list):
    """Closed loop: one job at a time for about `seconds`.

    A further job starts only if it would end nearer to `seconds` than
    stopping now, so a run measures `seconds` to within half a job.
    """
    walls, done = [], []
    begin = time.perf_counter()
    i = 0
    while i < MIN_JOBS or time.perf_counter() - begin + 0.5 * (walls or [0.0])[-1] < seconds:
        t0 = time.perf_counter()
        try:
            job = wl.job(inp, i)
        except Exception:
            traceback.print_exc()
            failures.append([f"job {i} raised"])
            i += 1
            continue
        walls.append(time.perf_counter() - t0)
        done.append(job)
        failures.append(wl.check(inp, job, done[0]))
        i += 1
    return walls, done


def versions(af, np, scipy) -> dict:
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "FFT_WORKERS": getattr(af.spectral, "FFT_WORKERS", None),
        "threads_env": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "anisoflow" / "__init__.py").is_file():
        print(f"no anisoflow sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import numpy as np
    import scipy

    import anisoflow as af
    import tracing as tr
    import workloads

    if Path(af.__file__).resolve().parent != SRC / "anisoflow":
        print(f"imported anisoflow from {af.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.WORKLOADS[args.workload](args.small)

    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}_", dir=HERE / "_work"))
    failures: list[list[str]] = []
    spans = None
    try:
        setup = measure_setup(args, workdir) if args.trace == 0 else []
        inp = wl.prepare(args.seed, workdir)
        walls, done = run_jobs(wl, inp, args.seconds, failures)
        if not done:
            print("no job completed", file=sys.stderr)
            return 1
        if args.trace == 1:
            tracer = tr.Tracer()
            tracer.install()
            try:
                t0 = time.perf_counter()
                job = wl.job(inp, len(failures))
                traced_wall = time.perf_counter() - t0
                failures.append(wl.check(inp, job, done[0]))
            finally:
                tracer.uninstall()
            spans = tracer.dump()
        failures[0] = failures[0] + wl.final_check(inp, done[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(failures)
    failed = sum(1 for f in failures if f)
    for i, f in enumerate(failures):
        for msg in f:
            print(f"CHECK FAILED job {i}: {msg}", file=sys.stderr)

    wall = statistics.median(walls)
    busy = sum(walls)
    samples = sum(j.samples for j in done)
    counts = {"jobs": len(walls), "samples": samples,
              "sim_time": sum(j.sim_time for j in done),
              "fields": sum(j.fields for j in done)}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "small": args.small, **versions(af, np, scipy),
              "counts": counts, "job_walls_s": walls}

    lines = [("wall_s", wall, "s", f"median of {len(walls)} jobs, q1..q3 "
              "{:.4f}..{:.4f}".format(*quartiles(walls)))]
    if args.trace == 0:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        lines.append(("setup_s", statistics.median(setup), "s",
                      f"median of {len(setup)} fresh processes, q1..q3 "
                      "{:.4f}..{:.4f}".format(*quartiles(setup))))
        lines.append(("samples_per_s", samples / busy, "1/s",
                      f"{samples} samples over {busy:.3f} s of jobs"))
        if counts["sim_time"]:
            lines.append(("sim_time_per_s", counts["sim_time"] / busy, "1/s",
                          f"{counts['sim_time']:g} time units over {busy:.3f} s"))
        if counts["fields"]:
            lines.append(("fields_per_s", counts["fields"] / busy, "1/s",
                          f"{counts['fields']} fields x 3 lemmas over {busy:.3f} s"))
        lines.append(("peak_rss_mb", rss_mb, "MB", "ru_maxrss of this process"))
        declared = spec["end_to_end"]
        record["setup_s_probes"] = setup
    else:
        summary = tracer.summary()
        layer = tr.layer_metrics(summary, wall, traced_wall, jobs=1)
        record["absent_layers"] = tracer.absent
        record["spans"] = {k: {m: v[m] for m in ("calls", "busy_s", "self_s")}
                           for k, v in summary.items()}
        record["traced_wall_s"] = traced_wall
        counts["traced_steps"] = layer["timestepper.step_ifrk4.calls"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        lines += [(k, v, units[k], "traced job" if k != "run.steps_per_s" else
                   "traced step count / untraced job wall") for k, v in layer.items()]
        for name in tracer.absent:
            print(f"layer {name}: absent (hook target not found)")
        declared = spec["per_layer"]
    lines.append(("failed_frac", failed / attempted, "frac",
                  f"{failed} of {attempted} jobs failed a check or raised"))

    for name, value, unit, note in lines:
        print(f"{args.workload} {name} = {value:.6g} {unit}  ({note})")
    measured = {name: value for name, value, _, _ in lines}
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared}
    record["metrics"] = metrics
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (RESULTS / f"{stem}_spans.json").write_text(json.dumps(spans))
    print("record: " + json.dumps({k: v for k, v in record.items()
                                   if k not in ("spans", "job_walls_s", "metrics")}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
