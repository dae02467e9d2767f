"""Every metric of every workload in one table.

    python3 perfbench/report.py [--trace]

Runs run.py once per workload (and once more traced, with --trace), with the
seed whose decide verdict digests reference.json holds and the run length of
BENCHMARK.json, and prints its metric lines: name, value, unit and sample
count, failed_ratio, and for decide the per-decision p50 and tail latency.
The traced lines include trace.overhead_s, the median over pairs of
neighbouring passes of the traced minus the untraced wall_s.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402

REFERENCE_SEED = 20240901


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--trace", action="store_true", help="also run each workload traced")
    args = ap.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(REFERENCE_SEED), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            lines = proc.stdout.splitlines()
            # metric lines, the environment record; not the result object
            for line in lines[:-1]:
                if trace and not line.startswith((f"{workload} layer", "FAILED")):
                    continue
                print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
