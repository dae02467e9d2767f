"""minimal_form and is_minimal against a reference reducer.

The reference applies the base-locus rule to each class afresh: it reads the
pairings from symmetric_coords and the labels from table.labels of every
class it reaches, and subtracts the step curve's row with the checked `-`.
minimal_form carries the labels from step to step instead, so the two agree
exactly when labels is additive on the rows it subtracts.
"""
import importlib
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from burniat.config import BOUNDARY
from burniat.delpezzo import enumerate_nef, symmetric_coords
from burniat.effective import (ReductionStep, ReductionTrace, is_minimal,
                               minimal_form)
from burniat.picard import XClass, build_generator_table

T = build_generator_table(6)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def reference_step(table, p):
    """(step, p minus the step curve's row) for the first base-locus curve of
    p in the order A0, B0, C0, A3, B3, C3; None when p is minimal or has
    negative degree."""
    d, *pairings = symmetric_coords(p[:4])
    if d < 0:
        return None
    labels = table.labels(p)
    for i, deg in enumerate(pairings):
        if deg < 0 or (deg == 0 and labels >> 10 - 2 * i & 3):
            reason = "negative" if deg < 0 else "torsion"
            return ReductionStep(BOUNDARY[i], reason), p - table.rows[BOUNDARY[i]]
    return None


def reference_minimal_form(table, x):
    p, steps = table.require_k6(x), []
    while (nxt := reference_step(table, p)) is not None:
        steps.append(nxt[0])
        p = nxt[1]
    return p, ReductionTrace(x, tuple(steps), p)


def reference_is_minimal(table, x):
    return reference_step(table, table.require_k6(x)) is None and x.d >= 0


def agree(x):
    """Whether minimal_form and is_minimal agree with the reference on x;
    the number of steps of its reduction."""
    got = minimal_form(T, x)
    assert got == reference_minimal_form(T, x), x
    assert is_minimal(T, x) == reference_is_minimal(T, x), x
    return len(got[1].steps)


def test_every_scan12_candidate():
    candidates = [XClass(*y.coeffs, mask) for y in enumerate_nef(12) for mask in range(64)]
    assert len(candidates) == 13_056
    assert sum(agree(x) for x in candidates) > 0


@pytest.mark.parametrize("seed", [20240901, 7])
def test_the_decide_workload_items(seed, monkeypatch):
    # the classes of the benchmark's decide workload, passes 0-9
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workload")
    items = [x for index in range(10) for x in workload.decide_items(T, seed, index)]
    assert len(items) == 400
    assert sum(agree(x) for x in items) > 0


def test_a_stream_of_deep_reductions_at_nh_120():
    # coefficients near (-n_h, 0, 0), rotated over the letters: the deepest
    # traces of the decide workload's (1, 0, 0) shape, at n_h = 120
    rng, items = random.Random("reduce:120"), set()
    while len(items) < 30:
        turn = rng.randrange(3)
        ns = (rng.randint(-121, -119), rng.randint(-1, 0), rng.randint(-1, 0))
        items.add(XClass(120, *ns[turn:], *ns[:turn], rng.randrange(64)))
    assert sum(agree(x) for x in sorted(items)) > 5_000


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(-3, 120).flatmap(lambda nh: st.tuples(
    st.just(nh), *(st.integers(-nh - 8, 8),) * 3, st.integers(0, 63))))
@example((0, 1, 0, 0, 0))  # degree 1, not nef: x.A0 = -1
@example((0, 0, 0, -1, 5))  # degree -1
@example((-2, 0, 0, 0, 63))  # degree -6
@example((120, -121, 0, 0, 17))
def test_draws_up_to_nh_120(fields):
    agree(XClass(*fields))
