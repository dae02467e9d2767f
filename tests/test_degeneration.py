import pytest

from burniat.degeneration import (COLLECTION, DEGENERATE, SMOOTH, FiberContext,
                                  PairReport, exceptional_collection_check)
from burniat.effective import NonEffective, minimal_form
from burniat.picard import build_generator_table, parse_xclass, xclass_to_text

T = build_generator_table(6)


# --- fibre contexts -------------------------------------------------------------

def test_fiber_context_data():
    assert (SMOOTH.kind, DEGENERATE.kind) == ("smooth", "degenerate")
    with pytest.raises(ValueError):
        FiberContext("squishy")


# --- reductions behind the degenerate labels ----------------------------------------

def test_corner_class_not_effective_on_degenerate_fibre():
    x = parse_xclass("(3; 1 10; 1 10; 1 10)")
    reduced, _ = minimal_form(T, x)
    assert reduced == x  # minimal; the corner-point vanishing applies


def test_negative_degree_on_degenerate_fibre():
    x = parse_xclass("(-1; 1 00; 0 00; 0 00)")
    reduced, trace = minimal_form(T, x)
    assert reduced.d < 0 and not trace.steps


# --- the collection ------------------------------------------------------------------

def test_collection_images():
    imgs = {i: xclass_to_text(T.phi(c)) for i, c in COLLECTION.items()}
    assert imgs[1] == "(3; 0 00; 0 00; 0 00)"
    assert imgs[2] == "(3; 1 10; 1 10; 1 10)"
    assert imgs[3] == "(2; 1 11; 0 01; 0 00)"
    assert imgs[6] == "(0; 0 00; 0 00; 0 00)"


def test_phi0_matches_smooth_table():
    # the degenerate fibre uses the smooth image map unchanged
    assert T.phi(COLLECTION[6]) == T.phi({})
    k_combo = {f: 1 for f in ("A0", "B0", "C0", "A3", "B3", "C3")}
    assert T.phi(k_combo).d == 6
    assert T.phi({"A1": 1, "A2": -1}).mask == 0b00_10_00


def test_exceptional_collection_smooth():
    rep = exceptional_collection_check(SMOOTH, T)
    assert rep.all_pass
    assert len(rep.pairs) == 15 and len(rep.selfs) == 6
    assert all(r.chi == 0 for r in rep.pairs)
    assert all(r.chi_self == 1 for r in rep.selfs)


def test_exceptional_collection_degenerate():
    rep = exceptional_collection_check(DEGENERATE, T)
    assert rep.all_pass
    # every verdict is a non-effectivity proof with evidence
    for row in rep.pairs:
        assert isinstance(row.forward, NonEffective)
        assert isinstance(row.serre, NonEffective)


def test_chi_equal_across_contexts():
    rs = exceptional_collection_check(SMOOTH, T)
    rd = exceptional_collection_check(DEGENERATE, T)
    assert [r.chi for r in rs.pairs] == [r.chi for r in rd.pairs]


def test_degenerate_report_relabels_the_smooth_rows():
    rs = exceptional_collection_check(SMOOTH, T)
    relabelled = PairReport(DEGENERATE, rs.pairs, rs.selfs).to_text()
    assert relabelled == exceptional_collection_check(DEGENERATE, T).to_text()
    assert relabelled != rs.to_text()


def test_pair_report_text_stable():
    a = exceptional_collection_check(DEGENERATE, T).to_text()
    b = exceptional_collection_check(DEGENERATE, T).to_text()
    assert a == b
    assert a.splitlines()[0] == "exceptional-collection-check v1"
    assert "summary pairs_pass=15 self_pass=6" in a
    assert "(K-nef)" in a  # degenerate base cases cite nefness of K
