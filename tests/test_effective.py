import ast
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import burniat
from burniat.cli import main as cli_main
from burniat.config import BOUNDARY, GENERATORS, STANDARD_CASES, standard_config
from burniat.degeneration import DEGENERATE, SMOOTH, exceptional_collection_check
from burniat.delpezzo import classify_exceptional
from burniat.effective import (ALL_BITS, TRUSTED, InS, InvalidEvidence, NonEffective,
                               ScanReport, Unresolved, decide, effective_lifts,
                               exceptional_induction, is_minimal, minimal_form,
                               prove_non_effective, s_membership, scan, step3_tables,
                               verdict_text)
from burniat.lattice import YClass
from burniat.picard import (Block, GeneratorTable, NotARepresentableClass, XClass,
                            build_generator_table, parse_xclass, torsion_subgroup,
                            xclass_to_text)
from burniat.verify import run_all

T = build_generator_table(6)
KX = T.canonical()


def lit(s):
    return parse_xclass(s)


# --- minimal form --------------------------------------------------------------

def test_minimal_form_double_a0():
    x = T.phi({"A0": 2})
    assert xclass_to_text(x) == "(2; -2 00; 0 00; 0 00)"
    reduced, trace = minimal_form(T, x)
    assert reduced.is_zero()
    assert [s.curve for s in trace.steps] == ["A0", "A0"]
    assert all(s.reason == "negative" for s in trace.steps)
    trace.validate(T)


def test_minimal_form_canonical_unchanged():
    reduced, trace = minimal_form(T, KX)
    assert reduced == KX and not trace.steps
    for f in BOUNDARY:
        assert T.pairing(KX, f) == 1


def test_minimal_form_corner_class_unchanged():
    x = lit("(3; 1 10; 1 10; 1 10)")
    reduced, trace = minimal_form(T, x)
    assert reduced == x and not trace.steps
    # zero pairings on A3, B3, C3 with trivial restrictions
    for f in ("A3", "B3", "C3"):
        assert T.pairing(x, f) == 0
        assert T.restrict(x, f).is_zero()


def test_trace_length_equals_degree_drop():
    rng = random.Random(5)
    for _ in range(40):
        combo = {g: rng.randint(-1, 2) for g in GENERATORS}
        x = T.phi(combo)
        reduced, trace = minimal_form(T, x)
        assert len(trace.steps) == x.d - reduced.d
        trace.validate(T)


# --- non-effectivity prover -----------------------------------------------------

def test_negative_degree_base_case():
    x = lit("(-1; 1 00; 0 00; 0 00)")  # the class of -e1
    v = prove_non_effective(T, x)
    assert isinstance(v, NonEffective) and v.base == "negative-degree"
    # a negative degree is no verdict for a class the model cannot represent
    with pytest.raises(NotARepresentableClass):
        prove_non_effective(T, lit("(-1; 0 00; 0 00; 0 00)"))


def test_corner_class_trusted():
    v = prove_non_effective(T, lit("(3; 1 10; 1 10; 1 10)"))
    assert isinstance(v, NonEffective) and v.base == "trusted:Q10"


def test_effective_class_not_provable():
    assert prove_non_effective(T, T.phi({"A1": 1})) is None
    assert isinstance(decide(T, T.phi({"A1": 1})), InS)


def test_printed_degree3_companion_reduces_to_negative():
    # the degree-3 print of the canonical-class entry is not minimal: it
    # reduces through A3 (zero pairing, nonzero torsion) to negative degree
    x = lit("(3; 1 00; 1 00; 1 00)")
    assert not is_minimal(T, x)
    v = prove_non_effective(T, x)
    assert isinstance(v, NonEffective) and v.base == "negative-degree"
    assert v.trace.steps[0].curve == "A3" and v.trace.steps[0].reason == "torsion"


# --- membership search ----------------------------------------------------------

def test_s_membership_single_generator():
    v = s_membership(T, T.phi({"A1": 1}))
    assert isinstance(v, InS) and v.as_dict() == {"A1": 1}


def test_s_membership_rejects_trusted():
    for text in ("(3; 1 10; 1 10; 1 10)", "(3; 0 00; 0 00; 0 00)",
                 "(3; 1 00; 1 00; 1 00)", "(6; 1 00; 1 00; 1 00)"):
        assert s_membership(T, lit(text)) is None


def test_effective_lifts_of_the_conic_class():
    # the conic-degree class 2h-e1-e2-e3 has exactly 9 effective torsion lifts
    lifts = effective_lifts((2, -1, -1, -1))
    assert len(lifts) == 9
    assert (0, 0, 0, 0, 0, 0) not in lifts
    assert (1, 0, 1, 0, 1, 0) not in lifts


def test_monotonicity_under_adding_generators():
    rng = random.Random(9)
    for _ in range(15):
        combo = {g: rng.randint(0, 2) for g in GENERATORS}
        x = T.phi(combo)
        assert isinstance(s_membership(T, x), InS)
        for g in GENERATORS:
            assert isinstance(s_membership(T, x + T.phi({g: 1})), InS)


def test_certificates_resum():
    rng = random.Random(29)
    for _ in range(30):
        combo = {g: rng.randint(0, 2) for g in GENERATORS}
        x = T.phi(combo)
        v = s_membership(T, x)
        assert v is not None and T.phi(v.as_dict()) == x


# --- scan ------------------------------------------------------------------------

def test_scan_degree_zero():
    rep = scan(T, 0)
    c = rep.counts()
    assert c["candidates"] == 64
    assert c["minimal"] == 1  # only the zero class
    assert c["in_s"] == 1 and c["non_effective"] == 63 and c["unresolved"] == 0


def test_scan_degree_three():
    rep = scan(T, 3)
    survivors = sorted(xclass_to_text(r.x) for r in rep.minimal_non_in_s)
    assert survivors == ["(3; 0 00; 0 00; 0 00)", "(3; 1 10; 1 10; 1 10)"]
    assert not rep.unresolved


def test_scan_is_deterministic():
    assert scan(T, 2).to_text() == scan(T, 2).to_text()


def test_scan_rejects_large_degree():
    with pytest.raises(ValueError):
        scan(T, 13)


# sha256 of scan(12).to_text() as first recorded for this library
SCAN12_SHA256 = "3abc0a500641b690409ce615d8d01affe71360b5a1e433b71f10116d62888efc"


@pytest.fixture(scope="module")
def scan12():
    return scan(T, 12)


def test_scan12_text_unchanged(scan12):
    assert hashlib.sha256(scan12.to_text().encode()).hexdigest() == SCAN12_SHA256


# sha256 of both exc-check reports, the torsion_subgroup rows of the six
# standard cases and three verify-all detail lines, as first recorded
EXC_CHECK_SHA256 = {
    "smooth": "07e2eb57b72a94ddc3d4b088b9624d9f82a4b4bdd12b337311e967f7d23a91a5",
    "degenerate": "ccdd8dde12b1f4439ccfd7d39c0a3411e835bf0137fcca5a3277db642f298249",
}
TORSION_ROWS = {
    (6, "plain"): ("100000", "010000", "001000", "000100", "000010", "000001"),
    (5, "plain"): ("010000", "101000", "000100", "100010", "000001"),
    (4, "nodal"): ("101000", "000100", "100010", "010001"),
    (4, "non-nodal"): ("101000", "010100", "100010", "010001"),
    (3, "plain"): ("101000", "100010", "110101"),
    (2, "plain"): ("101000", "100010", "010101"),
}
CRITERION_DETAILS = {
    "torsion-ranks": "dims=(6, 5, 4, 4, 3, 3) expected=(6, 5, 4, 4, 3, 3)",
    "table-consistency": "tables 6p,5p,4n,4n,3p,2p consistent; A1-A2 -> 00 10 00",
    "exceptional-collection": "smooth 15/15 pairs, degenerate 15/15, "
                              "chi tables identical: True",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_exc_check_reports_unchanged(capsys):
    for ctx in (SMOOTH, DEGENERATE):
        assert _sha256(exceptional_collection_check(ctx).to_text()) \
            == EXC_CHECK_SHA256[ctx.kind]
        assert cli_main(["exc-check", "--fiber", ctx.kind]) == 0
        assert _sha256(capsys.readouterr().out) == EXC_CHECK_SHA256[ctx.kind]


def test_torsion_rows_unchanged():
    got = {case: tuple("".join(map(str, v))
                       for v in torsion_subgroup(standard_config(*case)))
           for case in STANDARD_CASES}
    assert got == TORSION_ROWS


def test_verify_details_unchanged():
    for name, detail in CRITERION_DETAILS.items():
        assert run_all(only=name)[0].detail == detail


@pytest.fixture(scope="module")
def scan8():
    return scan(T, 8)


def test_scan_prefix_by_degree_renders_as_smaller_scan(scan8):
    # criterion 6 filters one scan(8) instead of running scan(3) and scan(6)
    for d in (3, 6):
        prefix = ScanReport(d, [r for r in scan8.records if r.x.d <= d])
        assert prefix.to_text() == scan(T, d).to_text()


def test_scan_minimal_flag_agrees_with_is_minimal():
    for r in scan(T, 6).records:
        assert is_minimal(T, r.x) == r.minimal


def test_trusted_classes_are_minimal_and_used(scan12):
    reached = {text for _, text in scan12.trusted_hits}
    for ctx in (SMOOTH, DEGENERATE):
        rep = exceptional_collection_check(ctx)
        verdicts = [v for row in rep.pairs for v in (row.forward, row.serre)]
        verdicts += [row.canonical for row in rep.selfs]
        reached.update(xclass_to_text(v.trace.final) for v in verdicts
                       if isinstance(v, NonEffective) and v.base.startswith("trusted:"))
    assert set(TRUSTED) <= reached
    for text in TRUSTED:
        assert is_minimal(T, lit(text))


# --- evidence checks under python -O ----------------------------------------------

FORGERIES = """
import burniat.effective as eff
from burniat.config import GENERATORS
from burniat.picard import build_generator_table

T = build_generator_table(6)
K = T.canonical()
print("debug", __debug__)
# K.A0 = 1, so subtracting A0 as a negative-pairing step is not justified
trace = eff.ReductionTrace(K, (eff.ReductionStep("A0", "negative"),),
                           K - T.phi({"A0": 1}))
try:
    trace.validate(T)
    print("trace accepted")
except eff.InvalidEvidence:
    print("trace rejected")
# A2 has the numerical class of A1 but other torsion bits
x = T.phi({"A1": 1})
wrong = tuple(int(g == "A2") for g in GENERATORS)
eff.effective_lifts = lambda ycoeffs: {x.bits: wrong}
try:
    eff.s_membership(T, x)
    print("certificate accepted")
except eff.InvalidEvidence:
    print("certificate rejected")
"""


def test_forged_evidence_rejected_under_optimize():
    src = str(Path(burniat.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", FORGERIES], capture_output=True,
                          text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.split("\n")[:3] == ["debug False", "trace rejected",
                                           "certificate rejected"]


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements, so no check in the library may be one
    package = Path(burniat.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


# --- canonical-class tables -------------------------------------------------------

def test_step3_spot_checks():
    # one nonzero twist and one shift, plus the bare canonical class
    nu = XClass(0, (Block(0, (1, 0)), Block(0, (0, 0)), Block(0, (0, 0))))
    assert isinstance(s_membership(T, KX + nu), InS)
    assert isinstance(s_membership(T, KX + T.phi({"A0": 1})), InS)
    assert s_membership(T, KX) is None


def test_step3_full_tables():
    rep = step3_tables(T)
    assert rep.ok
    assert rep.twist_ok == 63 and rep.shift_ok == 384
    assert rep.canonical_not_in_s


# --- exceptional induction ----------------------------------------------------------

def _minimal_lift_of(ycls):
    for bits in ALL_BITS:
        x = T.from_y(ycls, bits)
        if is_minimal(T, x):
            return x
    raise AssertionError("no minimal lift")


def test_induction_type1_degree10():
    ycls = 5 * YClass((1, -1, 0, 0))  # five fibres of one ruling, degree 10
    assert classify_exceptional(ycls).family == "Type1"
    x = _minimal_lift_of(ycls)
    v = exceptional_induction(T, x)
    assert isinstance(v, InS)
    assert T.phi(v.as_dict()) == x


def test_induction_preconditions():
    with pytest.raises(ValueError):
        exceptional_induction(T, T.from_y(2 * YClass((2, -1, -1, -1))))  # Type4
    with pytest.raises(ValueError):
        exceptional_induction(T, KX + KX)  # non-exceptional
    # degree below the induction range
    with pytest.raises(ValueError):
        exceptional_induction(T, T.from_y(YClass((1, -1, 0, 0))))


def test_every_minimal_class_of_degree_seven_up_is_in_s(scan8):
    # strengthened form of the degree bound: at degrees 7 and 8 every
    # minimal-form class has a certificate (the only survivors sit at d <= 6)
    for r in scan8.minimal_non_in_s:
        assert r.x.d <= 6
    assert not scan8.unresolved


def test_unresolved_is_reported_not_dropped(monkeypatch):
    # with the trusted list emptied, a minimal non-member must surface as
    # Unresolved carrying its diagnostics (never a silent pass or fail)
    import burniat.effective as eff
    monkeypatch.setattr(eff, "TRUSTED", {})
    reduced = []
    real_minimal_form = eff.minimal_form

    def counting_minimal_form(table, x):
        reduced.append(x)
        return real_minimal_form(table, x)

    monkeypatch.setattr(eff, "minimal_form", counting_minimal_form)
    x = lit("(3; 1 10; 1 10; 1 10)")
    v = decide(T, x)
    assert isinstance(v, Unresolved)
    assert v.chi == 0 and "h2=0" in v.note
    # one reduction of x, reused for the trace, and one of K - x for the note
    assert reduced == [x, KX - x]
    assert verdict_text(v) == "verdict=unresolved chi=0 trace="
    assert v.note == ("minimal form (3; 1 10; 1 10; 1 10) is not in S and not a "
                      "trusted class; h2=0")


def test_stray_exceptional_part_refused_on_k6():
    # a cold and a warm restriction dict both refuse the class
    table = GeneratorTable(standard_config(6))
    x = lit("(3; 0 00; 0 00; 0 00; 5)")
    with pytest.raises(NotARepresentableClass):
        decide(table, x)
    scan(table, 3)
    with pytest.raises(NotARepresentableClass):
        decide(table, x)


def test_validate_does_not_read_the_restriction_dict():
    # a corrupted dict entry makes minimal_form take an unjustified step on
    # Q10 (zero pairing with A3, trivial restriction); validate rebuilds the
    # restriction from preimage_combo and must reject the trace
    table = GeneratorTable(standard_config(6))
    q10 = lit("(3; 1 10; 1 10; 1 10)")
    assert table.restrictions(q10)[BOUNDARY.index("A3")] == (0, 0)
    (key, masks), = table._restriction_masks.items()
    table._restriction_masks[key] = masks[:3] + (1,) + masks[4:]
    with pytest.raises(InvalidEvidence, match="A3"):
        scan(table, 3)
