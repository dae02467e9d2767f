"""Self-check of the span tracer at small size.

    python3 -m pytest -q perfbench/tracer_check.py

The file name keeps it out of the library's own test run; pytest collects it
when it is named.  Each traced run is a fresh interpreter started as
`python3 perfbench/tracer_check.py scan <d_max>` or `... exc-check`, which
prints the per-layer counts of that run as JSON.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced_counts(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_scan3_counts_repeat_exactly():
    first = traced_counts("scan", "3")
    assert first["effective.decide.calls"] == 384
    assert first["effective.effective_lifts.distinct"] == 6
    assert first["spans_file.effective.decide"] == 384
    assert traced_counts("scan", "3") == first


def test_scan12_distinct_lifts():
    assert traced_counts("scan", "12")["effective.effective_lifts.distinct"] == 204


def test_calls_bound_by_from_import_are_traced():
    # degeneration calls `decide` through its own `from .effective import`
    # binding: 15 pairs x 2 verdicts + 6 self rows
    assert traced_counts("exc-check")["effective.decide.calls"] == 36


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import Tracer, install, read_spans
    from workload import layer_metrics
    tracer = Tracer()
    install(tracer)
    from burniat import degeneration, effective, picard
    table = picard.build_generator_table(6)
    if argv[0] == "scan":
        effective.scan(table, int(argv[1]))
    else:
        degeneration.exceptional_collection_check(degeneration.SMOOTH)
    counts = {k: v for k, v in layer_metrics(tracer).items() if isinstance(v, int)}
    (HERE / "out").mkdir(exist_ok=True)
    path = HERE / "out" / "tracer_check.spans"
    tracer.write(path)
    names, spans = read_spans(path)
    counts["spans_file.effective.decide"] = sum(
        1 for span in spans if names[span[0]] == "effective.decide")
    print(json.dumps(counts, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
