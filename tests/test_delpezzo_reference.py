"""The del Pezzo layer against a reference written with YClass.dot.

delpezzo runs on coefficient tuples through two written-out helpers,
nef_pairings and symmetric_coords.  The reference below is the object-based
form it replaced: every pairing is a YClass.dot and every step a YClass
subtraction.  Decompositions, the nef enumeration and the low-genus
classification must agree with it exactly.
"""
import itertools
import random
from collections import Counter

import pytest

from burniat.config import BOUNDARY, CURVE_CLASS
from burniat.delpezzo import (LAT, NEF_CLASS, NEF_ORDER, SYMMETRY_GROUP,
                              _CURVE_PAIRS, _CURVE_ROWS, _curve_pairs,
                              ExceptionalType, NotInLattice, classify_exceptional,
                              eff_decompose, enumerate_nef, is_nef_class,
                              nef_decompose, nef_pairings, symmetric_coords)
from burniat.lattice import SurfaceLattice, YClass, arithmetic_genus, canonical_class

MINUS_K = -canonical_class(LAT)

# the box criterion 5 filters: n_h in -5..10, n_i in -8..4
BOX = [YClass(c) for c in itertools.product(range(-5, 11), *[range(-8, 5)] * 3)]


def ref_is_effective(d):
    return all(d.dot(NEF_CLASS[name]) >= 0 for name in NEF_ORDER)


def ref_is_nef(d):
    return all(d.dot(CURVE_CLASS[name]) >= 0 for name in BOUNDARY)


def ref_eff_decompose(d):
    if not ref_is_effective(d):
        return None
    out, cur = Counter(), d
    while not cur.is_zero():
        subtracted = False
        for name in BOUNDARY:
            rest = cur - CURVE_CLASS[name]
            if ref_is_effective(rest):
                out[name] += 1
                cur = rest
                subtracted = True
        assert subtracted
    return out


def ref_nef_decompose(d):
    if not ref_is_nef(d):
        return None
    out, cur, progress = Counter(), d, True
    while not cur.is_zero() and progress:
        progress = False
        for name in NEF_ORDER:
            while ref_is_nef(cur - NEF_CLASS[name]):
                out[name] += 1
                cur = cur - NEF_CLASS[name]
                progress = True
    assert cur.is_zero()
    return out


def ref_enumerate_nef(d_max):
    out = []
    for nh in range(0, d_max + 1):
        for ni in itertools.product(range(-nh, 1), repeat=3):
            c = YClass((nh,) + ni)
            if c.dot(MINUS_K) <= d_max and ref_is_nef(c):
                out.append(c)
    out.sort(key=lambda c: (c.dot(MINUS_K), c.coeffs))
    return out


def ref_symmetric(d):
    return (d.dot(MINUS_K), *(d.dot(CURVE_CLASS[f]) for f in BOUNDARY))


def ref_apply_symmetry(sym, s):
    perm, swap = sym
    lo = tuple(s[1 + i] for i in perm)
    hi = tuple(s[4 + i] for i in perm)
    return (s[0], *hi, *lo) if swap else (s[0], *lo, *hi)


def ref_match(family, s):
    d, lo, hi = s[0], s[1:4], s[4:]
    if family == "Type1" and d >= 2 and d % 2 == 0 and lo == (d // 2, 0, 0) == hi:
        return d // 2
    if family == "Type2" and d >= 2 and d % 2 == 0 and lo == (d // 2 - 1, 1, 0) == hi:
        return d // 2
    if family == "Type3" and d >= 3 and d % 2 == 1:
        n = (d - 1) // 2
        if lo == (n, 1, 1) and hi == (n - 1, 0, 0):
            return n
    if family == "Type4" and s == (6, 2, 2, 2, 0, 0, 0):
        return -1
    return None


def ref_classify(d):
    s = ref_symmetric(d)
    p_a = d.dot(d - MINUS_K) // 2 + 1
    for family in ("Type1", "Type2", "Type3", "Type4"):
        for sym in SYMMETRY_GROUP:
            n = ref_match(family, ref_apply_symmetry(sym, s))
            if n is not None:
                return ExceptionalType(family, None if family == "Type4" else n, p_a)
    return ExceptionalType("NonExceptional", None, p_a)


def test_pairing_helpers_equal_the_lattice_pairing():
    for d in BOX:
        assert nef_pairings(d.coeffs) == tuple(d.dot(NEF_CLASS[n]) for n in NEF_ORDER)
        assert symmetric_coords(d.coeffs) == ref_symmetric(d)


def test_decompositions_match_the_reference():
    # the classes of the box that criterion 5 decomposes
    classes = [d for d in BOX if all(-4 <= v <= 8 for v in ref_symmetric(d))]
    assert len(classes) == 4397
    for d in classes:
        assert eff_decompose(d) == ref_eff_decompose(d)
        assert nef_decompose(d) == ref_nef_decompose(d)
        assert is_nef_class(d) == ref_is_nef(d)


def test_decompositions_match_the_reference_beyond_the_box():
    # seeded sums of the six curves and of the five nef generators at
    # n_h 11..60, all outside criterion 5's box
    rng = random.Random(35)
    classes = []
    for gens in (CURVE_CLASS, NEF_CLASS):
        rows = [gens[name].coeffs for name in sorted(gens)]
        sums = []
        while len(sums) < 150:
            mult = [rng.randint(0, 20) for _ in rows]
            c = tuple(sum(m * row[i] for m, row in zip(mult, rows)) for i in range(4))
            if 11 <= c[0] <= 60:
                sums.append(YClass(c))
        classes += sums
    assert sum(ref_is_nef(d) for d in classes) >= 150
    for d in classes:
        assert ref_is_effective(d)
        assert eff_decompose(d) == ref_eff_decompose(d)
        assert nef_decompose(d) == ref_nef_decompose(d)


def test_curve_pairs_match_the_pairings():
    # each curve pairs 1 with the two nef generators named here, 0 with the rest
    expected = {"A0": ("f1", "h2"), "B0": ("f2", "h2"), "C0": ("f3", "h2"),
                "A3": ("f1", "h1"), "B3": ("f2", "h1"), "C3": ("f3", "h1")}
    assert [name for name, _, _ in _CURVE_PAIRS] == list(BOUNDARY)
    for name, i, j in _CURVE_PAIRS:
        assert (NEF_ORDER[i], NEF_ORDER[j]) == expected[name]
        pairings = tuple(CURVE_CLASS[name].dot(NEF_CLASS[n]) for n in NEF_ORDER)
        assert pairings == tuple(int(k in (i, j)) for k in range(5))
    assert _curve_pairs(_CURVE_ROWS) == _CURVE_PAIRS
    # h1 pairs (1, 1, 1, 1, 2); 2h-e1-2e2-2e3 pairs (1, 0, 0, 2, -1), also sum 2
    for row in ((1, 0, 0, 0), (2, -1, -2, -2)):
        with pytest.raises(AssertionError, match="not 1, 1, 0, 0, 0"):
            _curve_pairs((("D", row),))


def test_enumerate_nef_matches_the_reference():
    # to degree 18, the bound of the nef check on M; degree 12 is a prefix
    classes = ref_enumerate_nef(18)
    assert len(classes) == 748
    assert enumerate_nef(18) == classes
    assert enumerate_nef(12) == classes[:204]


def test_enumerate_nef_to_degree_40_is_distinct_sorted_and_nef():
    classes = enumerate_nef(40)
    assert len(classes) == len({d.coeffs for d in classes}) == 12453
    keys = [(symmetric_coords(d.coeffs)[0], d.coeffs) for d in classes]
    assert keys == sorted(keys) and keys[-1][0] == 40
    assert all(min(symmetric_coords(d.coeffs)) >= 0 for d in classes)


def test_classify_matches_the_reference():
    classes = ref_enumerate_nef(18)
    assert len(classes) == 748
    for d in classes:
        assert classify_exceptional(d) == ref_classify(d)
        assert nef_decompose(d) == ref_nef_decompose(d)


def test_nef_decompose_re_sums_at_n_h_up_to_a_million():
    # seeded nef classes, built as in enumerate_nef with the letters shuffled,
    # where the greedy reference is too slow: each decomposition has positive
    # counts only and re-sums to the class
    rng = random.Random(36)
    # 10^6 h1, 10^6 h2 and 5 10^5 (f1 + f2), one per sign of n_h + n1 + n2 + n3
    classes = [YClass((10**6, 0, 0, 0)), YClass((2 * 10**6, *[-10**6] * 3)),
               YClass((10**6, -5 * 10**5, -5 * 10**5, 0))]
    while len(classes) < 200:
        nh = rng.randint(0, 10**6)
        a = rng.randint(0, nh)
        b = rng.randint(0, nh - a)
        c = rng.randint(0, nh - max(a, b))
        classes.append(YClass((nh, *rng.sample((-a, -b, -c), 3))))
    signs = set()
    for d in classes:
        dec = nef_decompose(d)
        assert set(dec) <= set(NEF_ORDER) and min(dec.values()) > 0, d
        assert sum((m * NEF_CLASS[name] for name, m in dec.items()),
                   YClass((0, 0, 0, 0))) == d
        signs.add(("h1" in dec) - ("h2" in dec))
    assert signs == {-1, 0, 1}
    assert nef_decompose(YClass((10**6, -10**6 - 1, 0, 0))) is None


def test_arithmetic_genus_equals_the_pairing_formula_for_any_k():
    rng = random.Random(11)
    for k in range(7):
        minus_k = -canonical_class(SurfaceLattice(k))
        for _ in range(50):
            d = YClass(tuple(rng.randint(-6, 6) for _ in range(k + 1)))
            assert arithmetic_genus(d) == d.dot(d - minus_k) // 2 + 1


@pytest.mark.parametrize("fn", [eff_decompose, nef_decompose, is_nef_class,
                                classify_exceptional])
@pytest.mark.parametrize("coeffs", [(1, 0, 0), (1, -1, 0, 0, 0)])
def test_classes_off_the_k3_lattice_are_refused(fn, coeffs):
    with pytest.raises(NotInLattice):
        fn(YClass(coeffs))
