"""One measured pass of one workload, in a fresh interpreter.

    python3 perfbench/workload.py <setup|scan|decide|verify> <seed> <pass> <trace 0|1>

run.py starts this once per pass so that the library's process-wide caches
(`build_generator_table`, `effective_lifts`) start cold, as they do for a
command-line user.  It prints one JSON object as its last line of output.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = json.loads((HERE / "reference.json").read_text())

# decide stream: one item per (shape, n_h) slot.  n_h sets the size of the
# certificate search (O(n_h^5)); the shape sets the boundary coefficients as
# multiples of -n_h, and with them the verdict.  (0, 0, 0) is in S with the
# search at its slowest; (.5, .5, .5) is in S with a lighter search;
# (.75, .75, .75) is non-effective with a short trace; (1, 0, 0) mixes both
# verdicts and its non-effective traces run to about 60 steps.  The seed
# draws each coefficient within one of its centre, rotates the shape over the
# three letters, and draws the torsion lift, so every seed gets the same work
# profile.  A (.25, .25, .25) shape is left out: its search cost swings by
# +-20% with the drawn coefficients, which made runs disagree by seed.
NH_SLOTS = range(12, 31, 2)
SHAPES = ((0, 0, 0), (0.5, 0.5, 0.5), (0.75, 0.75, 0.75), (1, 0, 0))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def decide_items(table, seed: int, index: int) -> list:
    """Distinct numerical classes, each with one random torsion lift."""
    from burniat.lattice import YClass
    rng = random.Random(f"decide:{seed}:{index}")
    seen, items = set(), []
    for shape in SHAPES:
        for nh in NH_SLOTS:
            turn = rng.randrange(3)
            while True:
                y = (nh,) + tuple(rng.randint(-round(f * nh) - 1, min(1 - round(f * nh), 0))
                                  for f in shape[turn:] + shape[:turn])
                if y not in seen:
                    break
            seen.add(y)
            bits = tuple(rng.getrandbits(1) for _ in range(6))
            items.append(table.from_y(YClass(y), bits))
    rng.shuffle(items)
    return items


def recheck(table, x, v) -> str | None:
    """Re-check a verdict's evidence; a message on failure, else None."""
    from burniat import effective
    if isinstance(v, effective.InS):
        if any(c < 0 for c in v.certificate):
            return f"certificate for {x} has a negative multiplicity"
        if table.phi(v.as_dict()) != x:
            return f"certificate does not re-sum to {x}"
        return None
    if isinstance(v, effective.NonEffective):
        if v.trace.start != x:
            return f"trace does not start at {x}"
        v.trace.validate(table)
        end = v.trace.final
        if v.base == "negative-degree":
            if end.d >= 0:
                return f"trace for {x} ends at degree {end.d}, not below 0"
        elif v.base != f"trusted:{effective.trusted_id(end)}":
            return f"trace for {x} ends at {end}, not at the base {v.base}"
        return None
    return f"unresolved verdict for {x}"


def run_scan(table, seed: int, index: int, failures: list) -> dict:
    from burniat import effective
    t0 = perf_counter()
    report = effective.scan(table, 12)
    text = report.to_text()
    t1 = perf_counter()
    if sha256(text) != REFERENCE["scan12_sha256"]:
        failures.append("scan(12) text differs from the reference")
    return {"span": (t0, t1), "items": len(report.records), "attempted": 1}


def run_decide(table, seed: int, index: int, failures: list) -> dict:
    from burniat import effective
    items = decide_items(table, seed, index)
    lines, item_spans = [], []
    t0 = perf_counter()
    for x in items:
        t = perf_counter()
        try:
            v = effective.decide(table, x)
            problem = recheck(table, x, v)
        except Exception as exc:  # a failed item is counted, not fatal
            v, problem = None, f"{x}: {exc!r}"
        item_spans.append((t, perf_counter()))
        if problem:
            failures.append(problem)
        lines.append(f"{x} {'error' if v is None else effective.verdict_text(v)}")
    t1 = perf_counter()
    digest = sha256("\n".join(lines))
    want = REFERENCE["decide_sha256"].get(f"{seed}:{index}")
    if want is not None and digest != want:
        failures.append(f"decide verdict digest differs for seed {seed} pass {index}")
    return {"span": (t0, t1), "items": len(items), "attempted": len(items),
            "item_spans": item_spans, "digest": digest}


def exc_check_cli(fiber: str) -> str:
    proc = subprocess.run([sys.executable, "-m", "burniat.cli", "exc-check",
                           "--fiber", fiber], capture_output=True, text=True,
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          timeout=120)
    return proc.stdout


def run_verify(table, seed: int, index: int, failures: list) -> dict:
    from burniat import degeneration, verify
    t0 = perf_counter()
    results = verify.run_all(seed)
    reports = {}
    for ctx in (degeneration.SMOOTH, degeneration.DEGENERATE):
        reports[f"lib:{ctx.kind}"] = degeneration.exceptional_collection_check(ctx).to_text()
        reports[f"cli:{ctx.kind}"] = exc_check_cli(ctx.kind)
    t1 = perf_counter()
    want = REFERENCE["verify_lines"]
    lines = [f"{r.number} {r.name} {r.detail}" for r in results]
    for r, line in zip(results, lines):
        if not r.passed or line not in want:
            failures.append(f"criterion {line} passed={r.passed}")
    if len(lines) != len(want):
        failures.append(f"{len(lines)} criteria ran, expected {len(want)}")
    for key, text in reports.items():
        if sha256(text) != REFERENCE["exc_check_sha256"][key.split(":")[1]]:
            failures.append(f"exc-check report {key} differs from the reference")
    checks = len(lines) + len(reports)
    return {"span": (t0, t1), "items": checks, "attempted": checks}


WORKLOADS = {"scan": run_scan, "decide": run_decide, "verify": run_verify}


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counts of one traced pass."""
    out: dict[str, float] = {}
    for name, row in tracer.summary().items():
        if name.startswith("verify.criterion."):
            out[f"{name}.s"] = row["total_s"]
        elif name == "cli.exc_check":
            out["cli.exc_check_cold_s"] = row["total_s"] / max(row["calls"], 1)
        else:
            out[f"{name}.calls"] = row["calls"]
            out[f"{name}.self_s"] = row["self_s"]
    out.update(tracer.counts)
    lifts = out["effective.effective_lifts.calls"]
    distinct = len(tracer.distinct["effective.effective_lifts"])
    out["effective.effective_lifts.distinct"] = distinct
    out["effective.effective_lifts.hit_ratio"] = 1 - distinct / lifts if lifts else 0.0
    out["verify.scan.distinct_candidates"] = len(tracer.distinct["verify.scan"])
    out.setdefault("verify.scan.candidates", 0)
    out.setdefault("effective.minimal_form.steps", 0)
    passes = sum(out[f"effective.{f}.calls"] for f in
                 ("minimal_form", "is_minimal", "ReductionTrace.validate"))
    decisions = out["effective.decide.calls"]
    out["effective.reduction_passes_per_candidate"] = passes / decisions if decisions else 0.0
    return out


def main(argv: list[str]) -> int:
    global exc_check_cli
    workload, seed, index, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    sys.path.insert(0, str(ROOT / "src"))
    clock = HostClock()
    clock.run()
    t0 = perf_counter()
    import burniat
    if not Path(burniat.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"burniat imported from {burniat.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        clock.stop()
        return 2
    tracer = None
    if trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
        exc_check_cli = tracer.wrap("cli.exc_check", exc_check_cli)
    from burniat import picard
    table = picard.build_generator_table(6)
    setup = (t0, perf_counter())
    out = {}
    if workload != "setup":
        failures: list[str] = []
        out.update(WORKLOADS[workload](table, seed, index, failures))
        out["failed"] = min(len(failures), out["attempted"])
        out["failures"] = failures[:20]
    clock.stop()
    # raw wall seconds and reference seconds (hostclock.py) of each stretch
    out["setup_raw_s"], out["setup_s"] = clock.seconds(*setup)
    if "span" in out:
        out["wall_raw_s"], out["wall_s"] = clock.seconds(*out.pop("span"))
    if "item_spans" in out:
        out["latency_s"] = [clock.seconds(*span)[1] for span in out.pop("item_spans")]
    out["host_slices"] = len(clock.took)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = layer_metrics(tracer)
        (HERE / "out").mkdir(exist_ok=True)
        tracer.write(HERE / "out" / f"{workload}.spans")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
