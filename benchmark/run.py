"""Benchmark runner: one workload, one process, one JSON line of results.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Untraced (--trace 0): rounds of the workload run back to back until the
next round would end after S seconds (at least the workload's minimum
round count); the result carries wall_s (median round wall time),
peak_rss_mib and setup_s. Traced (--trace 1): each round k runs once
untraced and once with the span hooks installed, on the same inputs; the
result carries the per-layer metrics (medians over traced rounds),
process.cpu_s (median over untraced rounds) and trace.overhead_s (median
traced minus untraced wall time). Spans are written to
benchmark/out/trace-<workload>-<seed>.json when the run ends.

The last line of standard output is the result object. The exit status
is 0 when the run completed, whatever the checks said; a run that cannot
start (unknown workload, missing program or references) exits non-zero
without a result.
"""

from __future__ import annotations

import os
import time


def _since_process_start() -> float:
    """Seconds between the kernel starting this process and now."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        gap = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return gap if 0.0 <= gap < 60.0 else 0.0


_START_GAP = _since_process_start()
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _workers() -> int:
    """The machine's cores available to this process, as a user passing
    --threads would count them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _timed(workload, k: int):
    t0 = time.perf_counter()
    c0 = _cpu()
    rnd = workload.run_round(k)
    return rnd, time.perf_counter() - t0, _cpu() - c0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import workloads
    except ImportError as err:
        print(f"cannot import the program or the benchmark: {err}",
              file=sys.stderr)
        return 3
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, _workers(),
                                                   out_dir)
    setup_s = _START_GAP + (time.perf_counter() - _T0)

    if args.trace:
        import spans
        tracer = spans.Tracer()

    plain = []      # (round, wall, cpu) of untraced rounds
    traced = []     # (round, wall, layer metrics)
    start = time.perf_counter()
    while True:
        k = len(plain)
        rnd, wall, cpu = _timed(workload, k)
        plain.append((rnd, wall, cpu))
        print(f"round {k}: {wall:.3f} s wall, {cpu:.3f} s cpu",
              file=sys.stderr, flush=True)
        if args.trace:
            restore, missing = spans.install(tracer)
            try:
                with tracer.span(f"round {k}"):
                    t_rnd, t_wall, _ = _timed(workload, k)
            finally:
                restore()
            traced.append((t_rnd, t_wall, tracer.take_round()))
            print(f"round {k} traced: {t_wall:.3f} s", file=sys.stderr,
                  flush=True)
            wall += t_wall
        elapsed = time.perf_counter() - start
        if len(plain) >= workload.min_rounds and elapsed + wall > args.seconds:
            break
    peak_rss = _peak_rss_mib()

    rounds = [r for r, _, _ in plain]
    executed = rounds + [r for r, _, _ in traced]
    found = [c for r in executed for c in r.checks]
    found += workload.final_checks(rounds)
    for c in found:
        if not c.ok:
            print(f"[check FAILED] {c.name}: {c.detail}", file=sys.stderr)

    if args.trace:
        if missing:
            print(f"hooks without a target: {missing}", file=sys.stderr)
        metrics = {}
        for name, (unit, _) in spans.PER_LAYER.items():
            values = [m[name] for _, _, m in traced]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        metrics["process.cpu_s"]["value"] = statistics.median(
            c for _, _, c in plain)
        metrics["trace.overhead_s"]["value"] = statistics.median(
            t[1] - p[1] for p, t in zip(plain, traced))
        tracer.write(HERE / "out" / f"trace-{args.workload}-{args.seed}.json")
    else:
        metrics = {
            "wall_s": {"value": statistics.median(w for _, w, _ in plain),
                       "unit": "s"},
            "peak_rss_mib": {"value": peak_rss, "unit": "MiB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    result = {
        "correct": all(c.ok for c in found),
        "attempted": sum(r.attempted for r in executed),
        "failed": sum(r.failed for r in executed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
