import ast
import copy
import gc
import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path
from types import MappingProxyType

import pytest

import burniat
from burniat.cli import main as cli_main
from burniat.config import (BOUNDARY, CURVE_CLASS, GENERATORS, STANDARD_CASES,
                            InvalidBuildingData, standard_config)
from burniat.degeneration import DEGENERATE, SMOOTH, exceptional_collection_check
from burniat.delpezzo import classify_exceptional, symmetric_coords
from burniat.effective import (KX, TRUSTED, InS, InvalidEvidence, NonEffective,
                               ReductionStep, ReductionTrace, ScanRecord, ScanReport,
                               Unresolved, _key_labels3, decide,
                               effective_lifts, exceptional_induction, is_minimal,
                               minimal_form, prove_non_effective, s_membership,
                               scan, step3_tables, trusted_id, verdict_text)
from burniat.lattice import YClass
from burniat.picard import (GeneratorTable, NotARepresentableClass,
                            TableInconsistent, XClass, _key, build_generator_table,
                            parse_xclass, torsion_subgroup, xclass_to_text)
from burniat.verify import run_all

T = build_generator_table(6)


def lit(s):
    return parse_xclass(s)


class Forged(GeneratorTable):
    """The standard K^2 = 6 table with fields replaced after the consistency
    suite has run, which a GeneratorTable itself refuses."""

    def __init__(self, **fields):
        super().__init__(standard_config(6))
        vars(self).update(fields)


def q10_labels_with_a3_01():
    # the label tuple of the standard table, with label 01 on A3 for Q10
    k = _key(lit("(3; 1 10; 1 10; 1 10)"))
    return T._labels3[:k] + (T._labels3[k] | 0b01_00_00,) + T._labels3[k + 1:]


# --- minimal form --------------------------------------------------------------

def test_minimal_form_double_a0():
    x = T.phi({"A0": 2})
    assert xclass_to_text(x) == "(2; -2 00; 0 00; 0 00)"
    reduced, trace = minimal_form(T, x)
    assert reduced == XClass(0, 0, 0, 0, 0)
    assert [s.curve for s in trace.steps] == ["A0", "A0"]
    assert all(s.reason == "negative" for s in trace.steps)
    trace.validate(T)


def test_minimal_form_canonical_unchanged():
    reduced, trace = minimal_form(T, KX)
    assert reduced == KX and not trace.steps
    for f in BOUNDARY:
        assert T.to_y(KX).dot(CURVE_CLASS[f]) == 1


def test_minimal_form_corner_class_unchanged():
    x = lit("(3; 1 10; 1 10; 1 10)")
    reduced, trace = minimal_form(T, x)
    assert reduced == x and not trace.steps
    # zero pairings on A3, B3, C3 with trivial restrictions
    for f in ("A3", "B3", "C3"):
        assert T.to_y(x).dot(CURVE_CLASS[f]) == 0
    assert T.labels(x) & 0b111111 == 0


def test_trace_length_equals_degree_drop():
    rng = random.Random(5)
    for _ in range(40):
        combo = {g: rng.randint(-1, 2) for g in GENERATORS}
        x = T.phi(combo)
        reduced, trace = minimal_form(T, x)
        assert len(trace.steps) == x.d - reduced.d
        trace.validate(T)


@pytest.mark.parametrize("curve, reason, combo", [
    ("X9", "negative", {"B0": -1}),  # names no curve
    ("A1", "negative", {"B0": -1}),  # an internal curve, and x.A1 = -1
    ("A1", "torsion", {}),           # x.A1 = 0, and A1 has no column
])
def test_validate_refuses_steps_off_the_boundary(curve, reason, combo):
    x = T.phi(combo)
    final = x - T.phi({curve: 1}) if curve in GENERATORS else x
    trace = ReductionTrace(x, (ReductionStep(curve, reason),), final)
    with pytest.raises(InvalidEvidence, match="not on a boundary curve"):
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
    # A1 is a generator, so in S: prove_non_effective on its own must not
    # say that its minimal form is not in S
    v = prove_non_effective(T, T.phi({"A1": 1}))
    assert isinstance(v, Unresolved) and v.trace.steps == ()
    assert v.note == ("minimal form (2; 0 00; 1 01; 0 00) has degree >= 0 and "
                      "is not a trusted class")
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
    assert 0b00_00_00 not in lifts
    assert 0b10_10_10 not in lifts


def test_effective_lifts_cannot_be_changed_by_a_caller():
    # the lifts are cached per class: a caller that deleted mask 0 would make
    # decide miss the certificate of the class's lift 0 later on
    lifts = effective_lifts((12, -6, -6, -5))
    assert 0 in lifts
    with pytest.raises(TypeError):
        lifts[0] = lifts[0]
    with pytest.raises(TypeError):
        del lifts[0]
    assert isinstance(decide(T, XClass(12, -6, -6, -5, 0)), InS)


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


# 2 A1 - A2 in GENERATORS order
_A1_TWICE_LESS_A2 = (0, 2, -1) + (0,) * 9


def test_maps_to_refuses_every_raised_multiplicity():
    x = KX + T.phi({"A0": 1, "B1": 2})
    cert = s_membership(T, x).certificate
    assert T.maps_to(cert, x)
    for i in range(len(GENERATORS)):
        assert not T.maps_to(cert[:i] + (cert[i] + 1,) + cert[i + 1:], x)
    # 2 A1 - A2 re-sums to its class, but a negative entry is no certificate
    assert not T.maps_to(_A1_TWICE_LESS_A2, T.phi({"A1": 2, "A2": -1}))
    # a short or long tuple is refused, not truncated
    for wrong_length in (cert[:11], cert + (0,)):
        with pytest.raises(ValueError, match="12 entries"):
            T.maps_to(wrong_length, x)


def test_s_membership_refuses_a_certificate_with_a_negative_entry(monkeypatch):
    import burniat.effective as eff
    x = T.phi({"A1": 2, "A2": -1})
    monkeypatch.setattr(eff, "effective_lifts",
                        lambda y, want=None: {x.mask: _A1_TWICE_LESS_A2})
    with pytest.raises(InvalidEvidence, match="nonnegative"):
        s_membership(T, x)


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


# the scan(12) and exc-check hashes and the verify-all lines, pinned once
# in the benchmark's reference outputs
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def scan12():
    return scan(T, 12)


def test_scan12_text_unchanged(scan12, capsys):
    assert _sha256(scan12.to_text()) == REFERENCE["scan12_sha256"]
    assert cli_main(["scan", "--max-degree", "12", "--format", "structured"]) == 0
    assert _sha256(capsys.readouterr().out) == REFERENCE["scan12_sha256"]


def test_decide_digests_unchanged(monkeypatch):
    # the benchmark's decide passes: certificates at n_h 12-30, beyond scan(12)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workload")
    for key, digest in REFERENCE["decide_sha256"].items():
        seed, index = map(int, key.split(":"))
        lines = [f"{x} {verdict_text(decide(T, x))}"
                 for x in workload.decide_items(T, seed, index)]
        assert _sha256("\n".join(lines)) == digest, key


def test_scan12_classes_round_trip_through_their_text(scan12):
    for r in scan12.records:
        text = str(r.x)
        assert parse_xclass(text) == r.x and str(parse_xclass(text)) == text


# the torsion_subgroup rows of the six standard cases, as first recorded
TORSION_ROWS = {
    (6, "plain"): ("100000", "010000", "001000", "000100", "000010", "000001"),
    (5, "plain"): ("010000", "101000", "000100", "100010", "000001"),
    (4, "nodal"): ("101000", "000100", "100010", "010001"),
    (4, "non-nodal"): ("101000", "010100", "100010", "010001"),
    (3, "plain"): ("101000", "100010", "110101"),
    (2, "plain"): ("101000", "100010", "010101"),
}


def test_exc_check_reports_unchanged(capsys):
    for ctx in (SMOOTH, DEGENERATE):
        assert _sha256(exceptional_collection_check(ctx).to_text()) \
            == REFERENCE["exc_check_sha256"][ctx.kind]
        assert cli_main(["exc-check", "--fiber", ctx.kind]) == 0
        assert _sha256(capsys.readouterr().out) == REFERENCE["exc_check_sha256"][ctx.kind]


def test_torsion_rows_unchanged():
    got = {case: tuple(f"{v:06b}" for v in torsion_subgroup(standard_config(*case)))
           for case in STANDARD_CASES}
    assert got == TORSION_ROWS


def test_verify_details_unchanged():
    # formed as the benchmark's verify workload forms them
    lines = [f"{r.number} {r.name} {r.detail}" for r in run_all()]
    assert lines == REFERENCE["verify_lines"]


def test_table_consistency_checks_building_data_and_negative_curves(monkeypatch):
    # criterion 3 fails when a configuration loses its (-2)-curves (K would
    # be ample on every case) or its building data stop being integral
    import burniat.verify as verify
    with monkeypatch.context() as m:
        m.setattr(verify, "minus_two_curves", lambda cfg: [])
        assert not run_all(only="table-consistency")[0].passed

    def broken(cfg):
        raise InvalidBuildingData("B+C is not 2-divisible")

    with monkeypatch.context() as m:
        m.setattr(verify, "validate_building_data", broken)
        assert not run_all(only="table-consistency")[0].passed
    with monkeypatch.context() as m:
        m.setattr(verify, "negative_curves", lambda lat: [])
        assert not run_all(only="table-consistency")[0].passed
    result = run_all(only="table-consistency")[0]
    assert result.passed
    assert f"3 table-consistency {result.detail}" == REFERENCE["verify_lines"][2]


@pytest.fixture(scope="module")
def scan8():
    return scan(T, 8)


def test_scan_prefix_by_degree_renders_as_smaller_scan(scan8):
    # criterion 6 filters one scan(8) instead of running scan(3) and scan(6)
    for d in (3, 6):
        prefix = ScanReport(d, [r for r in scan8.records if r.x.d <= d])
        assert prefix.to_text() == scan(T, d).to_text()


def test_scan_minimal_flag_agrees_with_is_minimal(scan12):
    # scan reads the flag from the degree-0 curves of each numerical class
    for r in scan12.records:
        assert is_minimal(T, r.x) == r.minimal


def test_scan_makes_the_calls_the_benchmark_counts(monkeypatch):
    # one module-level decide per candidate and one certificate search per
    # numerical class: the counts the benchmark's tracer self-check pins
    import burniat.effective as eff
    decided, searched = [], set()
    real_decide, real_lifts = eff.decide, eff.effective_lifts

    def counting_decide(table, x):
        decided.append(x)
        return real_decide(table, x)

    def counting_lifts(ycoeffs, *args):
        searched.add(ycoeffs)
        return real_lifts(ycoeffs, *args)

    monkeypatch.setattr(eff, "decide", counting_decide)
    monkeypatch.setattr(eff, "effective_lifts", counting_lifts)
    scan(T, 3)
    assert len(decided) == 384 and len(searched) == 6
    searched.clear()
    scan(T, 12)
    assert len(searched) == 204


def test_scan_and_decide_search_through_the_module_global(monkeypatch):
    # the benchmark's tracer counts the certificate search by rebinding the
    # module-level effective_lifts, so every search must look it up there
    import burniat.effective as eff
    searched, real_lifts = [], eff.effective_lifts

    def counting_lifts(ycoeffs, *args):
        searched.append(ycoeffs)
        return real_lifts(ycoeffs, *args)

    monkeypatch.setattr(eff, "effective_lifts", counting_lifts)
    scan(T, 3)
    assert len(searched) >= 384 and len(set(searched)) == 6
    for x, verdict in ((XClass(12, -6, -6, -5, 0), InS), (KX, NonEffective)):
        searched.clear()
        assert isinstance(decide(T, x), verdict)
        assert searched and set(searched) == {x[:4]}


def test_scan_and_the_reduction_refuse_a_k5_table():
    # each asks the table's require_k6 before any work, scan too
    t5, x = build_generator_table(5), XClass(1, 0, 0, 0, 0)
    for call in (lambda: scan(t5, 3), lambda: decide(t5, x),
                 lambda: minimal_form(t5, x), lambda: is_minimal(t5, x)):
        with pytest.raises(NotARepresentableClass, match=r"K\^2=6"):
            call()


def test_a_hand_built_report_prints_each_record_s_own_class():
    # consecutive records need not share their class: each prints its own,
    # as criterion 6's filtered reports must
    xs = [XClass(1, 0, 0, 0, 5), XClass(2, -1, 0, 0, 5), XClass(1, 0, 0, 0, 9)]
    report = ScanReport(3, [ScanRecord(x, is_minimal(T, x), decide(T, x)) for x in xs])
    lines = report.to_text().splitlines()[2:5]
    assert [line.split(" minimal=")[0] for line in lines] == [
        f"record {xclass_to_text(x)} y={T.to_y(x)}" for x in xs]


def test_is_minimal_agrees_with_the_combo_path(scan8):
    # the base-locus rule on the pairings with CURVE_CLASS and the labels of
    # the columns of preimage_combo, against the fast path of is_minimal
    for r in scan8.records:
        y, pre = T.to_y(r.x), T.preimage_combo(r.x)
        reference = r.x.d >= 0 and all(
            y.dot(CURVE_CLASS[f]) > 0
            or (y.dot(CURVE_CLASS[f]) == 0 and not T.column(pre, f)[1])
            for f in BOUNDARY)
        assert is_minimal(T, r.x) == reference


def test_a_fresh_table_gives_the_same_traces(scan8):
    # a fresh table, the same table again and the shared table after scan8,
    # whose lift searches are warm, reduce every candidate alike
    table = GeneratorTable(standard_config(6))
    cold = scan(table, 8)
    warm = scan(table, 8)
    for reports in zip(cold.records, warm.records, scan8.records):
        assert len({(r.x, r.minimal, r.verdict) for r in reports}) == 1


def test_reduction_reads_the_labels_of_its_table(scan8):
    # scan8 reduced on the shared table; a forged table with a corrupted A3
    # label entry for Q10 takes the forged step, and its trace is refused,
    # while the shared table still finds Q10 minimal
    q10 = lit("(3; 1 10; 1 10; 1 10)")
    assert minimal_form(T, q10)[1].steps == ()
    table = Forged(_labels3=q10_labels_with_a3_01())
    assert minimal_form(table, q10)[1].steps[0] == ReductionStep("A3", "torsion")
    assert minimal_form(T, q10)[1].steps == ()
    with pytest.raises(InvalidEvidence, match="A3"):
        scan(table, 3)


def test_trusted_classes_are_minimal_and_used(scan12):
    reached = {text for _, text in scan12.trusted_hits}
    for ctx in (SMOOTH, DEGENERATE):
        rep = exceptional_collection_check(ctx)
        verdicts = [v for row in rep.pairs for v in (row.forward, row.serre)]
        verdicts += [row.canonical for row in rep.selfs]
        reached.update(xclass_to_text(v.trace.final) for v in verdicts
                       if isinstance(v, NonEffective) and v.base.startswith("trusted:"))
    assert {xclass_to_text(x) for x in TRUSTED} <= reached
    for x in TRUSTED:
        assert is_minimal(T, x)


def test_trusted_id_agrees_with_the_literals_and_their_twists():
    # the lookup names exactly the three literals, and none of their 63
    # nonzero torsion twists
    texts = {"(3; 1 10; 1 10; 1 10)": "Q10", "(3; 0 00; 0 00; 0 00)": "H00",
             "(6; 1 00; 1 00; 1 00)": "KX"}
    assert {xclass_to_text(x): tid for x, tid in TRUSTED.items()} == texts
    for text, tid in texts.items():
        x = lit(text)
        assert trusted_id(x) == tid
        for twist in range(1, 64):
            twisted = x._replace(mask=x.mask ^ twist)
            assert trusted_id(twisted) is None
            assert xclass_to_text(twisted) not in texts


# --- evidence checks under python -O ----------------------------------------------

FORGERIES = """
import burniat.effective as eff
from burniat.config import GENERATORS
from burniat.picard import build_generator_table

T = build_generator_table(6)
K = eff.KX
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
eff.effective_lifts = lambda ycoeffs, want=None: {x.mask: wrong}
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


FORGERIES_ON_LABELS_AND_ENDS = """
import burniat.effective as eff
from burniat.config import standard_config
from burniat.picard import GeneratorTable, _key, parse_xclass


class Forged(GeneratorTable):
    # Q10 seems to restrict to A3 with label 01: the label tuple is set after
    # the consistency suite, which a GeneratorTable itself refuses
    def __init__(self):
        super().__init__(standard_config(6))
        k, labels = _key(q10), self._labels3
        vars(self)["_labels3"] = labels[:k] + (labels[k] | 0b01_00_00,) + labels[k + 1:]


print("debug", __debug__)
# a corrupted entry of the A3/B3/C3 labels
q10 = parse_xclass("(3; 1 10; 1 10; 1 10)")
T = Forged()
try:
    eff.scan(T, 3)
    print("corrupted labels accepted")
except eff.InvalidEvidence:
    print("corrupted labels rejected")
# a trace whose steps are justified but whose final class is another one
T = GeneratorTable(standard_config(6))
x = T.phi({"A0": 2})
final, trace = eff.minimal_form(T, x)
forged = eff.ReductionTrace(x, trace.steps, T.phi({"A1": 1, "A2": -1}))
try:
    forged.validate(T)
    print("wrong end accepted")
except eff.InvalidEvidence:
    print("wrong end rejected")
# the same corrupted entry in the shared K^2 = 6 table: decide re-validates
# its own trace, and the CLI prints no verdict
import contextlib, io
import burniat.picard
from burniat.cli import main
T = Forged()
burniat.picard._standard_table = lambda ksq, variant: T
try:
    eff.decide(T, q10)
    print("corrupted table accepted by decide")
except eff.InvalidEvidence:
    print("corrupted table rejected by decide")
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["effective", "--class", "(3; 1 10; 1 10; 1 10)"])
print("cli exit", code, "verdict" in out.getvalue())
"""


def test_forged_packed_evidence_rejected_under_optimize():
    src = str(Path(burniat.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", FORGERIES_ON_LABELS_AND_ENDS],
                          capture_output=True, text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.splitlines() == ["debug False", "corrupted labels rejected",
                                        "wrong end rejected",
                                        "corrupted table rejected by decide",
                                        "cli exit 2 False"]


def test_no_assert_statements_in_the_library():
    # python -O strips assert statements and sets __debug__ to False, and
    # changes nothing else: with neither in the library, -O runs the same code
    package = Path(burniat.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert found == []


def test_every_public_name_is_used_by_the_library():
    # a public function, class or method that no other part of the library
    # refers to exists only for its tests; table_to_text writes the --table
    # files that the README documents, and from_y builds the classes of the
    # benchmark's decide stream
    allowed = {"table_to_text", "from_y"}
    package = Path(burniat.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))}
    used = set()
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update((node.name, node.asname))
    defined = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{name[:-3]}.{node.name}", node.name))
                if isinstance(node, ast.ClassDef):
                    defined += [(f"{name[:-3]}.{node.name}.{m.name}", m.name)
                                for m in node.body if isinstance(m, ast.FunctionDef)]
    unused = [full for full, short in defined
              if not short.startswith("_") and short not in used | allowed]
    assert unused == []


def test_every_module_import_is_used_in_its_module():
    # no linter runs here: a module-level import that its module never
    # names is left over from deleted code (__init__.py only re-exports)
    package = Path(burniat.__file__).resolve().parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}:{alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in names]
    assert unused == []


# --- canonical-class tables -------------------------------------------------------

def test_step3_spot_checks():
    # one nonzero twist and one shift, plus the bare canonical class
    nu = XClass(0, 0, 0, 0, 0b100000)  # (0; 0 10; 0 00; 0 00)
    assert isinstance(s_membership(T, KX + nu), InS)
    assert isinstance(s_membership(T, KX + T.phi({"A0": 1})), InS)
    assert s_membership(T, KX) is None


def test_step3_full_tables():
    rep = step3_tables(T)
    assert rep.ok
    assert rep.twist_ok == 63 and rep.shift_ok == 384
    assert rep.canonical_not_in_s


def test_step3_lists_a_failing_twist_and_shift(monkeypatch):
    # with one twist and one shift refused by the search, both are listed
    # and criterion 7 fails
    import burniat.effective as eff
    twist, shift = KX + XClass(0, 0, 0, 0, 0b100000), KX + T.phi({"A0": 1})
    real_s_membership = eff.s_membership
    monkeypatch.setattr(eff, "s_membership", lambda table, x:
                        None if x in (twist, shift) else real_s_membership(table, x))
    rep = step3_tables(T)
    assert (rep.twist_ok, rep.twist_fail) == (62, [xclass_to_text(twist)])
    assert (rep.shift_ok, rep.shift_fail) == (383, [xclass_to_text(shift)])
    assert rep.canonical_not_in_s and not rep.ok
    [c7] = run_all(only="step3")
    assert not c7.passed
    assert c7.detail == "twists 62/63, shifts 383/384, bare canonical not in S: True"


# --- exceptional induction ----------------------------------------------------------

def _minimal_lift_of(ycls):
    for mask in range(64):
        x = XClass(*ycls.coeffs, mask)
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


def test_exhausted_induction_reports_the_empty_trace(monkeypatch):
    # with every direct search failing the induction is exhausted; x is
    # minimal, so the verdict carries its empty trace without a reduction
    import burniat.effective as eff
    x = _minimal_lift_of(5 * YClass((1, -1, 0, 0)))
    monkeypatch.setattr(eff, "s_membership", lambda table, y: None)
    reduced = []
    monkeypatch.setattr(eff, "minimal_form", lambda table, y: reduced.append(y))
    v = exceptional_induction(T, x)
    assert isinstance(v, Unresolved) and v.note == "exceptional induction exhausted"
    assert v.trace == ReductionTrace(x, (), x)
    assert reduced == []


def test_induction_reads_s_membership_afresh_on_each_call(monkeypatch):
    # a call that saw every direct search fail leaves nothing behind
    import burniat.effective as eff
    x = _minimal_lift_of(5 * YClass((1, -1, 0, 0)))
    with monkeypatch.context() as m:
        m.setattr(eff, "s_membership", lambda table, y: None)
        assert isinstance(exceptional_induction(T, x), Unresolved)
    assert isinstance(exceptional_induction(T, x), InS)


def test_induction_preconditions():
    with pytest.raises(ValueError):
        exceptional_induction(T, T.from_y(2 * YClass((2, -1, -1, -1))))  # Type4
    with pytest.raises(ValueError):
        exceptional_induction(T, KX + KX)  # non-exceptional
    # degree below the induction range
    with pytest.raises(ValueError):
        exceptional_induction(T, T.from_y(YClass((1, -1, 0, 0))))


def test_induction_refuses_a_class_outside_minimal_form():
    x = lit("(9; 3 00; 0 00; 0 01)")
    assert classify_exceptional(T.to_y(x)).family not in ("NonExceptional", "Type4")
    with pytest.raises(ValueError, match=r"^\(9; 3 00; 0 00; 0 01\) is not in minimal form$"):
        exceptional_induction(T, x)


def test_every_minimal_class_of_degree_seven_up_is_in_s(scan8):
    # strengthened form of the degree bound: at degrees 7 and 8 every
    # minimal-form class has a certificate (the only survivors sit at d <= 6)
    for r in scan8.minimal_non_in_s:
        assert r.x.d <= 6
    assert not scan8.unresolved


def test_unresolved_is_reported_not_dropped(monkeypatch):
    # with the trusted list emptied, a minimal non-member must surface as
    # Unresolved carrying its trace and chi (never a silent pass or fail)
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
    assert v.chi == 0
    # one reduction of x, and the verdict carries its trace
    assert reduced == [x]
    assert verdict_text(v) == "verdict=unresolved chi=0 trace="
    assert v.note == ("minimal form (3; 1 10; 1 10; 1 10) has degree >= 0 and is "
                      "not a trusted class")


def test_decide_reduces_at_most_once(monkeypatch):
    # decide is the certificate search, else one minimal_form pass of its
    # argument: none for an InS verdict, exactly one for any other
    import burniat.degeneration as deg
    import burniat.effective as eff
    reduced, verdicts = [], []
    real_minimal_form, real_decide = eff.minimal_form, eff.decide

    def counting_minimal_form(table, x):
        reduced.append(x)
        return real_minimal_form(table, x)

    def checked_decide(table, x):
        reduced.clear()
        v = real_decide(table, x)
        assert reduced == ([] if isinstance(v, InS) else [x])
        verdicts.append(v)
        return v

    monkeypatch.setattr(eff, "minimal_form", counting_minimal_form)
    monkeypatch.setattr(eff, "decide", checked_decide)
    monkeypatch.setattr(deg, "decide", checked_decide)
    scan(T, 3)
    exceptional_collection_check(SMOOTH)
    assert len(verdicts) == 384 + 36
    assert {type(v) for v in verdicts} == {InS, NonEffective}


def test_stray_exceptional_part_refused_on_k6():
    # before and after a scan the table refuses the class
    table = GeneratorTable(standard_config(6))
    x = lit("(4; 0 00; 0 00; 0 00; 5)")
    with pytest.raises(NotARepresentableClass):
        decide(table, x)
    scan(table, 3)
    with pytest.raises(NotARepresentableClass):
        decide(table, x)


def test_validate_does_not_read_the_label_table():
    # a corrupted label entry makes minimal_form take an unjustified step on
    # Q10 (zero pairing with A3, trivial restriction); validate rebuilds the
    # restriction from preimage_combo and must reject the trace
    q10 = lit("(3; 1 10; 1 10; 1 10)")
    assert symmetric_coords(q10[:4])[4] == 0 and T.labels(q10) >> 4 & 3 == 0
    table = Forged(_labels3=q10_labels_with_a3_01())
    assert table.labels(q10) >> 4 & 3 == 0b01
    with pytest.raises(InvalidEvidence, match="A3"):
        scan(table, 3)


def test_validate_carries_the_generator_label_masks():
    # validate reads the labels on A3, B3, C3 of the start from column and
    # XORs each step curve's label mask into them; scan(6) takes torsion
    # steps on A3 after subtracting A0, whose label on A3 is 00
    scan(T, 6)
    assert T.labels3_rows["A0"] >> 4 == 0b00
    a0 = T.labels3_rows["A0"] ^ 0b01_00_00
    table = Forged(labels3_rows={**T.labels3_rows, "A0": a0})
    with pytest.raises(InvalidEvidence, match="A3"):
        scan(table, 6)


def test_validate_labels_agree_with_the_label_table_on_every_key():
    # two derivations of the labels on A3, B3, C3: validate's memo reads
    # column on a preimage combo, labels reads the 1,024-entry table
    for key in range(1024):
        p = XClass(key >> 9, key >> 8 & 1, key >> 7 & 1, key >> 6 & 1, key & 63)
        assert _key(p) == key
        assert _key_labels3(T, key) == T.labels(p) & 63


def test_validate_labels_are_kept_per_table():
    # a corrupted block on a forged table reaches validate although the
    # shared table's labels are memoised, and leaves the shared table alone
    before = scan(T, 6).to_text()
    assert _key_labels3.cache_info().currsize >= 1
    # the meeting point's label is 01
    table = Forged(block={**T.block, ("C1", "A3"): (1, 0b00)})
    with pytest.raises(InvalidEvidence, match="A3"):
        scan(table, 2)
    assert scan(T, 6).to_text() == before


def test_a_dropped_table_is_freed_after_bounded_further_work():
    # the memo keyed on a table is bounded: once other tables have filled
    # it, no entry refers to a table that was dropped
    table = GeneratorTable(standard_config(6))
    scan(table, 3)
    ref = weakref.ref(table)
    del table
    misses = _key_labels3.cache_info().misses
    for _ in range(3):
        scan(GeneratorTable(standard_config(6)), 12)
    gc.collect()
    # every entry of the dropped table has been evicted
    assert _key_labels3.cache_info().misses - misses >= _key_labels3.cache_info().maxsize
    assert ref() is None


def test_validate_refuses_a_final_class_with_an_exceptional_part():
    # the end of the steps is a K^2 = 6 class, so a final class with an
    # exceptional part compares unequal to it and the trace is refused
    x = T.phi({"A0": 2})
    final, trace = minimal_form(T, x)
    stray = final._replace(ns=(0,))
    assert stray[:5] == final[:5] and stray.d == final.d
    with pytest.raises(InvalidEvidence, match=r"^trace ends at \(0; 0 00; 0 00; 0 00\), "
                                              r"not at \(0; 0 00; 0 00; 0 00; 0\)$"):
        ReductionTrace(x, trace.steps, stray).validate(T)


def test_validate_refuses_a_trace_whose_length_is_not_its_degree_drop():
    # every boundary curve has degree 1, so each step lowers the degree by 1;
    # an A0 row of degree 2 gives a justified step that lowers it by 2
    table = Forged(rows={**T.rows, "A0": XClass(0, 2, 0, 0, T.rows["A0"].mask)})
    with pytest.raises(InvalidEvidence, match=r"^trace length differs from its degree drop$"):
        decide(table, lit("(0; -1 00; 2 01; -1 01)"))


def test_validate_accepts_justified_steps_in_another_order():
    # minimal_form takes B0 first; B3 is base locus as well, and subtracting
    # either keeps the other forced
    x = lit("(2; 1 00; 0 01; 0 00)")
    final, trace = minimal_form(T, x)
    b0, b3 = ReductionStep("B0", "torsion"), ReductionStep("B3", "torsion")
    c0 = ReductionStep("C0", "negative")
    assert trace.steps == (b0, b3, c0)
    ReductionTrace(x, (b3, b0, c0), final).validate(T)


def test_validate_refuses_a_forged_start_on_a_memoised_key():
    # the memo holds a key's labels only, never a pairing: a start with the
    # key of a validated class but a nonzero pairing with A3 is refused at
    # its torsion step on A3
    x = lit("(3; 1 01; 1 10; 1 00)")
    trace = minimal_form(T, x)[1]
    assert trace.steps == (ReductionStep("A3", "torsion"),)
    trace.validate(T)
    forged = x._replace(nh=x.nh + 2)  # x + 2h
    assert _key(forged) == _key(x) and symmetric_coords(forged[:4])[4] != 0
    hits = _key_labels3.cache_info().hits
    start, final = forged, forged - T.phi({"A3": 1})
    with pytest.raises(InvalidEvidence, match="not justified"):
        ReductionTrace(start, trace.steps, final).validate(T)
    assert _key_labels3.cache_info().hits == hits + 1


def test_table_is_not_changed_by_use():
    # the shared tables are read-only: scan and decide leave every attribute
    # as construction made it
    table = GeneratorTable(standard_config(6))
    # a read-only view cannot be deep-copied: its dict is copied instead
    before = {name: dict(v) if isinstance(v, MappingProxyType) else copy.deepcopy(v)
              for name, v in vars(table).items()}
    scan(table, 3)
    for x in TRUSTED:
        decide(table, x)
    decide(table, lit("(9; 1 01; 2 10; 3 11)"))
    assert vars(table) == before
    # labels is the K^2 = 6 model, as every query through require_k6 is
    with pytest.raises(NotARepresentableClass):
        build_generator_table(5).labels(XClass(1, 0, 0, 0, 0))


def test_a_certificate_for_a_trusted_class_is_refused(monkeypatch):
    # the trusted list is cross-checked against the certificate search: A1
    # (a generator, so in S) listed as trusted makes s_membership refuse
    import burniat.effective as eff
    a1 = lit("(2; 0 00; 1 01; 0 00)")
    assert T.phi({"A1": 1}) == a1
    monkeypatch.setattr(eff, "TRUSTED", {**eff.TRUSTED, a1: "A1"})
    with pytest.raises(TableInconsistent, match="received certificate"):
        s_membership(T, a1)


def test_a_trusted_base_case_in_s_is_refused(monkeypatch):
    # A0 reduces to the zero class, which the empty certificate puts in S:
    # listed as trusted, prove_non_effective must refuse it rather than prove
    # A0 non-effective
    import burniat.effective as eff
    zero = T.phi({})
    monkeypatch.setattr(eff, "TRUSTED", {**eff.TRUSTED, zero: "ZERO"})
    assert minimal_form(T, T.phi({"A0": 1}))[0] == zero
    with pytest.raises(TableInconsistent, match="is in S"):
        prove_non_effective(T, T.phi({"A0": 1}))
