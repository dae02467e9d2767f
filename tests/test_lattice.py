import random

import pytest

from burniat.lattice import (DimensionError, SurfaceLattice, YClass, arithmetic_genus, canonical_class,
                             negative_curves, subgroup_index)

LAT3 = SurfaceLattice(3)


def test_intersection_form():
    h, e1 = LAT3.h(), LAT3.e(1)
    assert h.dot(h) == 1
    assert e1.dot(h - e1) == 1
    k = canonical_class(LAT3)
    assert (-k).dot(-k) == 6  # degree-6 del Pezzo


def test_intersect_dimension_mismatch():
    with pytest.raises(DimensionError):
        LAT3.h().dot(SurfaceLattice(2).h())


def test_canonical_squares():
    assert canonical_class(SurfaceLattice(3)).dot(canonical_class(SurfaceLattice(3))) == 6
    assert canonical_class(SurfaceLattice(4)).dot(canonical_class(SurfaceLattice(4))) == 5
    assert canonical_class(SurfaceLattice(0)).dot(canonical_class(SurfaceLattice(0))) == 9


def test_arithmetic_genus_examples():
    assert arithmetic_genus(LAT3.zero()) == 1
    assert arithmetic_genus(-canonical_class(LAT3)) == 1
    # a ruling fibre has genus 0 (the n=1 member of the fibre family)
    assert arithmetic_genus(LAT3.h() - LAT3.e(1)) == 0


def test_genus_additivity_random():
    rng = random.Random(7)
    for _ in range(300):
        d1 = YClass(tuple(rng.randint(-5, 5) for _ in range(4)))
        d2 = YClass(tuple(rng.randint(-5, 5) for _ in range(4)))
        assert arithmetic_genus(d1 + d2) == (
            arithmetic_genus(d1) + arithmetic_genus(d2) + d1.dot(d2) - 1)


def test_minus_one_curves_k3():
    found = negative_curves(LAT3)
    h = LAT3.h()
    expected = {LAT3.e(1), LAT3.e(2), LAT3.e(3),
                h - LAT3.e(1) - LAT3.e(2), h - LAT3.e(1) - LAT3.e(3),
                h - LAT3.e(2) - LAT3.e(3)}
    assert set(found) == expected
    assert len(found) == 6


def test_minus_one_curve_counts_small_k():
    # known line counts on blowups of the plane at 1..4 general points
    assert [len(negative_curves(SurfaceLattice(k))) for k in range(0, 5)] == \
        [0, 1, 3, 6, 10]


def test_minus_curves_symmetry():
    # output is stable under permuting the exceptional classes
    found = set(negative_curves(LAT3))
    for perm in ((2, 1, 3), (3, 2, 1), (2, 3, 1)):
        permuted = {YClass((c.coeffs[0],) + tuple(c.coeffs[i] for i in perm))
                    for c in found}
        assert permuted == found


def test_negative_curves_k_bound():
    with pytest.raises(ValueError):
        negative_curves(SurfaceLattice(7))


def test_subgroup_index_basics():
    assert subgroup_index([(1, 0), (0, 1)], 0) == 1
    assert subgroup_index([(2, 0), (0, 2)], 0) == 4
    assert subgroup_index([(1, 1)], 0) is None


def _brute_force_index(gens, mod=16):
    """Coset count in (Z/mod)^2 x F_2^2; exact when the index divides mod."""
    seen = {(0, 0, 0, 0)}
    frontier = [(0, 0, 0, 0)]
    steps = [(x[0] % mod, x[1] % mod, x[2], x[3]) for x in gens]
    while frontier:
        cur = frontier.pop()
        for s in steps:
            nxt = ((cur[0] + s[0]) % mod, (cur[1] + s[1]) % mod,
                   (cur[2] + s[2]) & 1, (cur[3] + s[3]) & 1)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return (mod * mod * 4) // len(seen)


def test_subgroup_index_against_coset_counting():
    rng = random.Random(42)
    torsion_choices = [
        ([], 4), ([(1, 0)], 2), ([(0, 1)], 2), ([(1, 1)], 2),
        ([(1, 0), (0, 1)], 1),
    ]
    for _ in range(60):
        a1 = rng.choice((1, 2, 4))
        a2 = rng.choice((1, 2))
        tgens, tcofactor = rng.choice(torsion_choices)
        if a1 * a2 * tcofactor > 16:
            continue
        # rows (free part, then the two (Z/2)-coordinates)
        gens = [(a1, 0, *(rng.choice(tgens) if tgens else (0, 0))),
                (0, a2, *(rng.choice(tgens) if tgens else (0, 0)))]
        gens += [(0, 0, *t) for t in tgens]
        # a unimodular mix preserves the subgroup
        m = rng.randint(-2, 2)
        (f0, g0, s0, t0), (f1, g1, s1, t1) = gens[:2]
        gens[0] = (f0 + m * f1, g0 + m * g1, (s0 + m * s1) & 1, (t0 + m * t1) & 1)
        expected = a1 * a2 * tcofactor
        assert subgroup_index(gens, 2) == expected == _brute_force_index(gens)


def test_signature_on_basis():
    assert LAT3.h().dot(LAT3.h()) > 0
    for i in (1, 2, 3):
        assert LAT3.e(i).dot(LAT3.e(i)) < 0


def test_intersect_bilinear_symmetric():
    rng = random.Random(19)
    for _ in range(200):
        x, y, z = (YClass(tuple(rng.randint(-5, 5) for _ in range(4)))
                   for _ in range(3))
        assert x.dot(y) == y.dot(x)
        assert (x + y).dot(z) == x.dot(z) + y.dot(z)
