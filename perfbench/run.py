"""Benchmark of the qnnbench package.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-large --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Builds the workload from ``--seed`` (set-up is repeated and its median
reported as ``setup_s``), runs passes over its fixed unit of work in a
closed loop with one client until ``--seconds`` have passed (and at least
the workload's minimum number of passes), checks the outputs, and prints
every metric by name and unit.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead runs a
fixed amount of work twice, untraced and then with the package's layer
boundaries rebound to span-recording wrappers, and reports the per-layer
metrics plus the tracing overhead; spans are written under
``perfbench/out/traces/``.  ``--workload all`` runs every workload, each in
its own process.

BLAS threads are pinned to 1 here, in this process's environment only.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("train-large", "protocol-small", "serve-mixed")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit() -> str:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
    }


def peak_mem_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def describe(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond
    it (the maximum when there are too few samples for one)."""
    n = len(samples)
    if n == 0:
        return "no samples"
    ordered = sorted(samples)
    text = f"p50={statistics.median(ordered):.6g}"
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            value = statistics.quantiles(ordered, n=1000, method="inclusive")[round(p * 10) - 1]
            text += f" p{p:g}={value:.6g}"
            break
    else:
        text += f" max={ordered[-1]:.6g}"
    return f"{text} (n={n})"


def snapshot(workload) -> list[tuple]:
    return [(name, unit, list(value) if isinstance(value, list) else value, what)
            for name, unit, value, what in workload.report()]


def print_report(report: list[tuple]) -> None:
    for name, unit, value, what in report:
        if isinstance(value, list):
            print(f"  {name:<28} {describe(value)} {unit}  per {what}")
        else:
            print(f"  {name:<28} {value:.6g} {unit}")


def timed_run(cls, args, tracer, workdir) -> tuple[dict, object]:
    setup_s = []
    workload = None
    for _ in range(cls.setup_repeats):
        if workload is not None:
            workload.close()
        gc.collect()
        start = time.perf_counter()
        workload = cls(args.seed, tracer, workdir)
        setup_s.append(time.perf_counter() - start)
    try:
        gc.collect()
        start = time.perf_counter()
        index = 0
        while index < cls.min_passes or time.perf_counter() - start < args.seconds:
            workload.run_pass(tracer, index)
            index += 1
        workload.check()
    finally:
        workload.close()
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_mem_mb": (peak_mem_mb(), "MB"),
        "work_s": (statistics.median(workload.pass_s), "s"),
        "op_ms_p50": (1e3 * statistics.median(workload.op_s), "ms"),
    }
    print(f"  {'setup_s':<28} {describe(setup_s)} s  per set-up")
    print_report(workload.report())
    return metrics, workload


def traced_run(cls, args, null_tracer, workdir) -> tuple[dict, object]:
    """Traced set-up, then the same passes untraced and traced."""
    import tracing

    def run_passes(tracer) -> float:
        gc.collect()
        start = time.perf_counter()
        for index in range(cls.trace_passes):
            workload.run_pass(tracer, index)
        return time.perf_counter() - start

    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        start = time.perf_counter()
        workload = cls(args.seed, tracer, workdir)
        setup_s = time.perf_counter() - start
    finally:
        restore()
    try:
        untraced_s = run_passes(null_tracer)
        untraced_report = snapshot(workload)
        restore = tracing.instrument(tracer)
        try:
            traced_s = run_passes(tracer)
        finally:
            restore()
        workload.check()
    finally:
        workload.close()
    values = tracing.layer_metrics(tracer)
    values["trace.overhead_share"] = traced_s / untraced_s - 1.0
    print(f"  {cls.trace_passes} pass(es): untraced {untraced_s:.6g} s, traced {traced_s:.6g} s; "
          f"traced set-up {setup_s:.6g} s")
    print("  end-to-end, untraced pass(es):")
    print_report(untraced_report)
    fits = [end - start for name, start, end, _, _ in tracer.spans
            if name in ("qnn.train", "benchmark.fit_predict_baseline")]
    print(f"  {'fit_s':<28} {describe(fits)} s  per fit, traced")
    trace_file = OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(str(trace_file), {"environment": environment(args), "metrics": values})
    print(f"  spans written to {trace_file.relative_to(ROOT)}")
    return {name: (values[name], unit) for name, unit in tracing.LAYER_METRICS.items()}, workload


def run_all(args) -> int:
    code = 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run([sys.executable, __file__, "--workload", name,
                                "--seed", str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)])
        code = code or child.returncode
    return code


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "qnnbench" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(args), sort_keys=True))
    run = traced_run if args.trace else timed_run
    workdir = OUT / f"work-{os.getpid()}"
    try:
        metrics, workload = run(cls, args, tracing.NullTracer(), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed_share = workload.failed / workload.attempted if workload.attempted else 1.0
    print(f"  {'failed_share':<28} {failed_share:.6g} ({workload.failed} of {workload.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.9g} {unit}")
    print(json.dumps({
        "correct": workload.failed == 0 and workload.attempted > 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
