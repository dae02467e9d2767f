"""The acceptance suite: every headline computation, one criterion per entry.

Each criterion is a function of the seed and one K^2 = 6 generator table
returning (passed, detail).  The CLI prints one line per criterion; the test
suite asserts each one individually.  All checks are exact; the only
randomness is in the property-based entries and is driven by an explicit seed.
"""
from __future__ import annotations

import itertools
import random
import time
from typing import Callable, NamedTuple

from .lattice import YClass, arithmetic_genus, negative_curves
from .delpezzo import (LAT, NEF_CLASS, classify_exceptional, eff_decompose,
                       enumerate_nef, nef_decompose, symmetric_coords)
from .config import (BOUNDARY, CURVE_CLASS, InvalidBuildingData,
                     all_standard_configs, minus_two_curves,
                     ramification_span_index, validate_building_data)
from .picard import (GeneratorTable, XClass, build_generator_table,
                     picard_image_index, torsion_subgroup, parse_xclass,
                     xclass_to_text)
from .effective import (InS, NonEffective, ScanReport, decide,
                        exceptional_induction, is_minimal, s_membership,
                        scan, step3_tables)
from .degeneration import (DEGENERATE, SMOOTH, PairReport,
                           exceptional_collection_check)

DEFAULT_SEED = 20240901


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _c1_torsion_ranks(seed: int, table: GeneratorTable) -> tuple[bool, str]:
    expected = (6, 5, 4, 4, 3, 3)
    dims = tuple(len(torsion_subgroup(cfg)) for cfg in all_standard_configs())
    return dims == expected, f"dims={dims} expected={expected}"


def _c2_indices(seed: int, table: GeneratorTable) -> tuple[bool, str]:
    notes = []
    ok = True
    expected_span = {(6, "plain"): 3, (5, "plain"): 6, (4, "nodal"): 12,
                     (4, "non-nodal"): 12, (3, "plain"): 24}
    for case, want in expected_span.items():
        case_table = build_generator_table(*case)
        got = case_table.image_index
        full = picard_image_index(case_table.cfg)
        ok &= got == want == full
        notes.append(f"K2={case[0]}{case[1][0]}:{got}")
    # K^2 = 2: the full Picard image has index 3*2^3 = 24 by covolume, but
    # the twelve curves and the E_s only span a subgroup of twice that index;
    # the factor two is exactly the ramification-span gap.
    table2 = build_generator_table(2)
    span2 = table2.image_index
    full2, gap = picard_image_index(table2.cfg), ramification_span_index(table2.cfg)
    ok &= full2 == 24 and span2 == 48 and gap == 2 and span2 == gap * full2
    notes.append(f"K2=2:full={full2},span={span2},gap={gap}")
    ram = tuple(ramification_span_index(cfg) for cfg in all_standard_configs())
    ok &= ram == (1, 1, 1, 1, 1, 2)
    notes.append(f"ram={ram}")
    return ok, " ".join(notes)


def _c3_table_consistency(seed: int, table: GeneratorTable) -> tuple[bool, str]:
    # the six boundary curves are all the (-1)-curves of Bl_3 P^2
    ok = (sorted(c.coeffs for c in negative_curves(LAT))
          == sorted(CURVE_CLASS[f].coeffs for f in BOUNDARY))
    built, minus_two = [], []
    for cfg in all_standard_configs():
        build_generator_table(cfg.ksq, cfg.variant)  # the suite runs on first build
        try:
            validate_building_data(cfg)
            minus_two.append(len(minus_two_curves(cfg)))
        except InvalidBuildingData as exc:
            return False, f"K2={cfg.ksq} {cfg.variant}: {exc}"
        built.append(f"{cfg.ksq}{cfg.variant[0]}")
    # K is ample exactly on the configurations without (-2)-curves
    ok &= tuple(minus_two) == (0, 0, 1, 0, 3, 6)
    img = table.phi({"A1": 1, "A2": -1})
    ok &= img.mask == 0b00_10_00 and img.d == 0
    return ok, f"tables {','.join(built)} consistent; A1-A2 -> 00 10 00"


def _c4_genus_exceptions(seed: int, table: GeneratorTable) -> tuple[bool, str]:
    counts: dict[str, int] = {}
    for c in enumerate_nef(12):
        try:
            et = classify_exceptional(c)
        except AssertionError as exc:  # a genus that contradicts the family
            return False, f"genus contradiction at {c}: {exc}"
        counts[et.family] = counts.get(et.family, 0) + 1
    return True, f"nef d<=12 family counts {counts}"


def _oracle_eff(cls: YClass) -> bool:
    nh, n1, n2, n3 = cls.coeffs
    if nh < 0:
        return False
    for x4 in range(nh + 1):
        for x5 in range(nh - x4 + 1):
            x6 = nh - x4 - x5
            if n1 + x5 + x6 >= 0 and n2 + x4 + x6 >= 0 and n3 + x4 + x5 >= 0:
                return True
    return False


def _oracle_nef(cls: YClass) -> bool:
    nh, n1, n2, n3 = cls.coeffs
    top = min(-n1, -n2, -n3)
    for xh2 in range(0, max(top, 0) + 1):
        f = (-n1 - xh2, -n2 - xh2, -n3 - xh2)
        xh1 = nh + n1 + n2 + n3 + xh2
        if all(v >= 0 for v in f) and xh1 >= 0:
            return True
    return False


def _c5_classes() -> list[YClass]:
    """The classes of the box n_h in -5..10, n_i in -8..4 whose symmetric
    coordinates (see delpezzo.symmetric_coords) all lie in -4..8, in box
    order.  The box holds -n_i in -4..8, so a row (n_h, n_1, n_2) needs
    n_h + n_1 + n_2 in -4..8, and its n_3 range is the box's cut by the
    three coordinates that contain n_3."""
    out = []
    for nh, n1, n2 in itertools.product(range(-5, 11), *[range(-8, 5)] * 2):
        if not -4 <= nh + n1 + n2 <= 8:
            continue
        lo = max(-8, -4 - nh - n2, -4 - nh - n1, -4 - 3 * nh - n1 - n2)
        hi = min(4, 8 - nh - n2, 8 - nh - n1, 8 - 3 * nh - n1 - n2)
        out.extend(YClass((nh, n1, n2, n3)) for n3 in range(lo, hi + 1))
    return out


def _resum(dec: dict[str, int], classes: dict[str, YClass]) -> tuple[int, ...]:
    """Coefficients of the sum of mult * classes[name] over dec."""
    return tuple(sum(mult * classes[name].coeffs[i] for name, mult in dec.items())
                 for i in range(4))


def _c5_decomposition_oracles(seed: int, table: GeneratorTable) -> tuple[bool, str]:
    classes = _c5_classes()
    for cls in classes:
        dec = eff_decompose(cls)
        if (dec is not None) != _oracle_eff(cls):
            return False, f"eff mismatch at {cls}"
        if dec is not None and _resum(dec, CURVE_CLASS) != cls.coeffs:
            return False, f"eff re-sum fails at {cls}"
        ndec = nef_decompose(cls)
        if (ndec is not None) != _oracle_nef(cls):
            return False, f"nef mismatch at {cls}"
        if ndec is not None and _resum(ndec, NEF_CLASS) != cls.coeffs:
            return False, f"nef re-sum fails at {cls}"
    return True, f"{len(classes)} classes against exhaustive search"


def _c6_step2(seed: int, table: GeneratorTable) -> tuple[bool, str]:
    # scan enumerates classes by degree, so the records of degree <= 3 and
    # <= 6 are prefixes of scan(8) and render as scan(3) and scan(6) would
    r8 = scan(table, 8)
    r3, r6 = (ScanReport(d, [r for r in r8.records if r.x.d <= d]) for d in (3, 6))
    survivors3 = sorted(xclass_to_text(r.x) for r in r3.minimal_non_in_s)
    # the printed degree-3 list; the entry printed (3; 1 00; 1 00; 1 00) is
    # the canonical class (d(K) = K.K = 6 in this encoding) and therefore
    # appears as the degree-6 survivor, while its degree-3 print reduces to
    # negative degree.  all three printed literals must be non-effective.
    printed = ["(3; 1 10; 1 10; 1 10)", "(3; 0 00; 0 00; 0 00)",
               "(3; 1 00; 1 00; 1 00)"]
    for lit in printed:
        v = decide(table, parse_xclass(lit))
        if not isinstance(v, NonEffective):
            return False, f"printed class {lit} not proven non-effective"
    if survivors3 != ["(3; 0 00; 0 00; 0 00)", "(3; 1 10; 1 10; 1 10)"]:
        return False, f"unexpected degree<=3 survivors {survivors3}"
    survivors6 = sorted(xclass_to_text(r.x) for r in r6.minimal_non_in_s)
    want6 = ["(3; 0 00; 0 00; 0 00)", "(3; 1 10; 1 10; 1 10)",
             "(6; 1 00; 1 00; 1 00)"]
    if survivors6 != want6:
        return False, f"survivors at d<=6: {survivors6}"
    if r6.unresolved or r8.unresolved:
        return False, "unresolved classes in scan(6)/scan(8)"
    hits = dict(r6.trusted_hits)
    return True, (f"3 survivors at d<=6 (canonical-class entry at d=6), "
                  f"unresolved(6)={len(r6.unresolved)} unresolved(8)={len(r8.unresolved)}, "
                  f"trusted hits {sorted(hits)}")


def _c7_step3(seed: int, table: GeneratorTable) -> tuple[bool, str]:
    rep = step3_tables(table)
    return rep.ok, (f"twists {rep.twist_ok}/63, shifts {rep.shift_ok}/384, "
                    f"bare canonical not in S: {rep.canonical_not_in_s}")


def _c8_step4(seed: int, table: GeneratorTable) -> tuple[bool, str]:
    direct = induct = 0
    for ycls in enumerate_nef(12):
        d = symmetric_coords(ycls.coeffs)[0]
        if d < 7 or classify_exceptional(ycls).family == "NonExceptional":
            continue
        for mask in range(64):
            x = XClass(*ycls.coeffs, mask)
            if not is_minimal(table, x):
                continue
            if d <= 8:
                if s_membership(table, x) is None:
                    return False, f"direct search failed at {x}"
                direct += 1
            else:
                if not isinstance(exceptional_induction(table, x), InS):
                    return False, f"induction failed at {x}"
                induct += 1
    return True, f"degrees 7-8: {direct} by search; degrees 9-12: {induct} by induction"


def _c9_collection(seed: int, table: GeneratorTable) -> tuple[bool, str]:
    rs = exceptional_collection_check(SMOOTH, table)
    # the degenerate report reuses the smooth rows (chi is constant in the
    # flat family), so the two chi tables are identical by construction
    rd = PairReport(DEGENERATE, rs.pairs, rs.selfs)
    return rs.all_pass and rd.all_pass, (
        f"smooth {sum(r.passed for r in rs.pairs)}/15 pairs, "
        f"degenerate {sum(r.passed for r in rd.pairs)}/15, chi tables identical: True")


def _c10_properties(seed: int, table: GeneratorTable) -> tuple[bool, str]:
    rng = random.Random(seed)
    # p_a additivity on 1000 random pairs
    for _ in range(1000):
        d1 = YClass(tuple(rng.randint(-6, 6) for _ in range(4)))
        d2 = YClass(tuple(rng.randint(-6, 6) for _ in range(4)))
        lhs = arithmetic_genus(d1 + d2)
        rhs = arithmetic_genus(d1) + arithmetic_genus(d2) + d1.dot(d2) - 1
        if lhs != rhs:
            return False, f"p_a additivity fails at {d1}, {d2}"
    # certificate re-sum over a scan; decide has validated every trace
    rep = scan(table, 3)
    for r in rep.records:
        if isinstance(r.verdict, InS) and table.phi(r.verdict.as_dict()) != r.x:
            return False, f"certificate fails to re-sum at {r.x}"
    # determinism: two scans render byte-identically
    if rep.to_text() != scan(table, 3).to_text():
        return False, "scan is not deterministic"
    return True, "1000 genus pairs, full scan(3) re-validation, scan determinism"


CRITERIA: list[tuple[int, str, Callable[[int, GeneratorTable], tuple[bool, str]]]] = [
    (1, "torsion-ranks", _c1_torsion_ranks),
    (2, "picard-indices", _c2_indices),
    (3, "table-consistency", _c3_table_consistency),
    (4, "genus-exceptions", _c4_genus_exceptions),
    (5, "decomposition-oracles", _c5_decomposition_oracles),
    (6, "step2-replication", _c6_step2),
    (7, "step3-tables", _c7_step3),
    (8, "step4-induction", _c8_step4),
    (9, "exceptional-collection", _c9_collection),
    (10, "property-suites", _c10_properties),
]


def run_all(seed: int = DEFAULT_SEED, only: str | None = None,
            table: GeneratorTable | None = None) -> list[CriterionResult]:
    """Run the criteria whose name contains `only` (all when None) against one
    K^2 = 6 generator table, by default build_generator_table(6)."""
    table = table or build_generator_table(6)
    results = []
    for num, name, fn in CRITERIA:
        if only is not None and only not in name:
            continue
        t0 = time.perf_counter()
        passed, detail = fn(seed, table)
        results.append(CriterionResult(num, name, passed, detail, time.perf_counter() - t0))
    if only is not None and not results:
        raise ValueError(f"no criterion matches {only!r}")
    return results
