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


def test_enumerate_nef_matches_the_reference():
    assert enumerate_nef(12) == ref_enumerate_nef(12)


def test_classify_matches_the_reference():
    classes = ref_enumerate_nef(12)
    assert len(classes) == 204
    for d in classes:
        assert classify_exceptional(d) == ref_classify(d)


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
