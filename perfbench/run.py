"""Benchmark entry point: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload scan|decide|verify --seed N \
        --seconds S --trace 0|1

Every pass runs in a fresh interpreter (workload.py), one at a time, so the
library's caches start cold in each.  With --trace 0 the last line of output
is a JSON object with the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of BENCHMARK.json, from traced passes wrapped by tracer.py.
The lines before it give every metric with its unit and sample count, and
the environment.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan", "decide", "verify")
SETUP_PER_PASS = 3   # set-up-only interpreters per pass, besides the pass
BUDGET_S = 170.0     # every child is killed by then, so the run ends < 180 s
UNITS = {"setup_s": "s", "wall_s": "s", "throughput_per_s": "1/s",
         "peak_rss_mb": "MB", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "failed_ratio": "ratio", "setup_raw_s": "s", "wall_raw_s": "s",
         "host_speed": "ratio"}


class ChildFailed(RuntimeError):
    pass


def child(deadline: float, *args) -> dict:
    """Run workload.py once and return the JSON object it printed last."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "workload.py"),
                               *map(str, args)], cwd=ROOT, capture_output=True,
                              text=True, timeout=max(deadline - monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"pass {args} did not finish within the time budget") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"pass {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def tail_percentile(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = pct * n // 100  # samples at or below the percentile
        if rank >= 1 and n - rank >= 10:
            return ordered[rank - 1], pct
    return ordered[-1], 100


def git_commit() -> str:
    # only a checkout of its own: git would otherwise search the parents
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(setups: list[dict], passes: list[dict]) -> tuple[dict, dict]:
    """(metrics, sample counts) for the untraced passes of one run.

    Times are in reference seconds (hostclock.py), but for the *_raw_s ones;
    host_speed is raw over reference pass time, below 1 on a slow host."""
    interpreters = setups + passes
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in interpreters),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "throughput_per_s": statistics.median(p["items"] / p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "failed_ratio": failed / attempted,
        "setup_raw_s": statistics.median(p["setup_raw_s"] for p in interpreters),
        "wall_raw_s": statistics.median(p["wall_raw_s"] for p in passes),
        "host_speed": statistics.median(p["wall_s"] / p["wall_raw_s"] for p in passes),
    }
    samples = {"setup_s": len(interpreters), "wall_s": len(passes),
               "throughput_per_s": len(passes), "peak_rss_mb": len(passes),
               "failed_ratio": attempted, "setup_raw_s": len(interpreters),
               "wall_raw_s": len(passes), "host_speed": len(passes),
               "host_slices": sum(p["host_slices"] for p in interpreters)}
    latency = [t * 1000 for p in passes for t in p.get("latency_s", ())]
    if latency:
        metrics["op_p50_ms"] = statistics.median(latency)
        metrics["op_tail_ms"], pct = tail_percentile(latency)
        samples["op_p50_ms"] = samples["op_tail_ms"] = len(latency)
        samples["op_tail_percentile"] = pct
    return metrics, samples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "burniat" / "__init__.py").is_file():
        print(f"no library source at {ROOT / 'src' / 'burniat'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = monotonic() + BUDGET_S
    run = lambda *a: child(deadline, *a)  # noqa: E731

    try:
        run("setup", args.seed, 0, 0)  # warm the bytecode and file caches
        setups, passes, traced = [], [], []
        t0 = perf_counter()
        while True:
            # set-up samples are spread over the run, as the passes are
            t = perf_counter()
            setups += [run("setup", args.seed, 0, 0) for _ in range(SETUP_PER_PASS)]
            if args.trace:
                # pass 0 untraced, then traced: counts repeat exactly across
                # runs with one seed, and each overhead sample compares two
                # neighbouring passes, so slow drift of the host cancels
                passes.append(run(args.workload, args.seed, 0, 0))
                traced.append(run(args.workload, args.seed, 0, 1))
            else:
                passes.append(run(args.workload, args.seed, len(passes), 0))
            now = perf_counter()
            # stop at the pass boundary nearest to the requested run length
            if now - t0 + (now - t) / 2 >= args.seconds:
                break
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    metrics, samples = end_to_end(setups, passes)
    attempted = sum(p["attempted"] for p in passes + traced)
    failed = sum(p["failed"] for p in passes + traced)
    for p in passes + traced:
        for msg in p["failures"]:
            print(f"FAILED: {msg}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {UNITS[name]} (n={samples[name]})")
    if "op_tail_percentile" in samples:
        print(f"{args.workload} op_tail_ms is p{samples['op_tail_percentile']}")

    if args.trace:
        layers = {}
        for name in traced[0]["layers"]:
            values = [p["layers"][name] for p in traced]
            # a count stays a whole number: it repeats exactly across passes
            whole = all(isinstance(v, int) for v in values)
            layers[name] = (statistics.median_low if whole else statistics.median)(values)
        layers["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
        layers["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(passes, traced))
        for name, value in sorted(layers.items()):
            print(f"{args.workload} layer {name} = {value:.6g} (n={len(traced)})")
        samples["layers"] = len(traced)
        wanted, values = spec["per_layer"], layers
    else:
        wanted, values = spec["end_to_end"], metrics

    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "cpu": cpu_model(), "commit": git_commit(), "workload": args.workload,
           "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "samples": samples}
    print(json.dumps({"env": env}))
    result = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
              for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
