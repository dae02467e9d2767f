import itertools

import pytest

from burniat.config import BOUNDARY, CURVE_CLASS
from burniat.delpezzo import (LAT, NEF_CLASS, classify_exceptional,
                              eff_decompose, enumerate_nef, is_nef_class,
                              nef_decompose, nef_pairings, symmetric_coords)
from burniat.lattice import YClass, arithmetic_genus, canonical_class

H = LAT.h()
E1, E2, E3 = LAT.e(1), LAT.e(2), LAT.e(3)
MINUS_K = -canonical_class(LAT)


def resum(dec, classes):
    total = LAT.zero()
    for name, mult in dec.items():
        total = total + mult * classes[name]
    return total


def from_symmetric(s):
    """The class with symmetric coordinates s = (d; a0, b0, c0; a3, b3, c3):
    n_h = (d + a0 + b0 + c0) / 3."""
    d, a0, b0, c0 = s[:4]
    return YClass(((d + a0 + b0 + c0) // 3, -a0, -b0, -c0))


def test_symmetric_coordinates_examples():
    assert symmetric_coords((H - E1).coeffs) == (2, 1, 0, 0, 1, 0, 0)
    assert symmetric_coords(H.coeffs) == (3, 0, 0, 0, 1, 1, 1)
    assert from_symmetric((6, 2, 2, 2, 0, 0, 0)) == 2 * (2 * H - E1 - E2 - E3)


def test_symmetric_round_trip():
    for nh in range(-3, 4):
        for ni in itertools.product(range(-2, 3), repeat=3):
            cls = YClass((nh,) + ni)
            assert from_symmetric(symmetric_coords(cls.coeffs)) == cls


def test_degree_is_sum_of_boundary_pairings():
    # -K is the sum of the six (-1)-curves, so d = a0+b0+c0+a3+b3+c3
    total = LAT.zero()
    for f in BOUNDARY:
        total = total + CURVE_CLASS[f]
    assert total == MINUS_K
    s = symmetric_coords((5, -2, -1, 0))
    assert s[0] == sum(s[1:])


def test_eff_decompose_examples():
    assert dict(eff_decompose(E1)) == {"A0": 1}
    assert dict(eff_decompose(MINUS_K)) == {f: 1 for f in BOUNDARY}
    assert eff_decompose(H - E1 - E2 - E3) is None
    # h2 is the one nef generator pairing negatively
    assert nef_pairings((H - E1 - E2 - E3).coeffs) == (0, 0, 0, 1, -1)


def test_nef_decompose_examples():
    f1 = NEF_CLASS["f1"]
    assert dict(nef_decompose(f1)) == {"f1": 1}
    assert dict(nef_decompose(MINUS_K)) == {"f1": 1, "f2": 1, "f3": 1}
    assert nef_decompose(E1) is None


def test_decompositions_resum():
    for nh in range(0, 7):
        for ni in itertools.product(range(-4, 1), repeat=3):
            cls = YClass((nh,) + ni)
            dec = eff_decompose(cls)
            if dec is not None:
                assert resum(dec, CURVE_CLASS) == cls
            ndec = nef_decompose(cls)
            if ndec is not None:
                assert resum(ndec, NEF_CLASS) == cls


def test_classify_examples():
    et = classify_exceptional(H - E1)
    assert (et.family, et.n, et.p_a) == ("Type1", 1, 0)
    et = classify_exceptional(2 * (H - E1))
    assert (et.family, et.n, et.p_a) == ("Type1", 2, -1)
    et = classify_exceptional(MINUS_K)
    assert (et.family, et.p_a) == ("NonExceptional", 1)
    et = classify_exceptional(2 * (2 * H - E1 - E2 - E3))
    assert (et.family, et.p_a) == ("Type4", 0)


def test_classify_requires_nef():
    with pytest.raises(ValueError):
        classify_exceptional(E1)


# the 12 configuration symmetries, each as the position in
# (d; a0, b0, c0; a3, b3, c3) that every slot takes: a letter permutation,
# then (second column) the 0 <-> 3 swap
SYMMETRY_INDEX = [
    (0, 1, 2, 3, 4, 5, 6), (0, 4, 5, 6, 1, 2, 3),
    (0, 1, 3, 2, 4, 6, 5), (0, 4, 6, 5, 1, 3, 2),
    (0, 2, 1, 3, 5, 4, 6), (0, 5, 4, 6, 2, 1, 3),
    (0, 2, 3, 1, 5, 6, 4), (0, 5, 6, 4, 2, 3, 1),
    (0, 3, 1, 2, 6, 4, 5), (0, 6, 4, 5, 3, 1, 2),
    (0, 3, 2, 1, 6, 5, 4), (0, 6, 5, 4, 3, 2, 1),
]


def test_classify_symmetry_invariance():
    # the verdict family/n is constant on symmetry orbits
    for cls in enumerate_nef(18):
        et = classify_exceptional(cls)
        s = symmetric_coords(cls.coeffs)
        for idx in SYMMETRY_INDEX:
            moved = tuple(s[i] for i in idx)
            image = from_symmetric(moved)
            assert symmetric_coords(image.coeffs) == moved  # the image is a class
            et2 = classify_exceptional(image)
            assert (et2.family, et2.n) == (et.family, et.n)


def test_genus_exceptions_scan_small():
    for cls in enumerate_nef(8):
        pa = arithmetic_genus(cls)
        fam = classify_exceptional(cls).family
        if cls.is_zero():
            continue
        assert (pa <= 0) == (fam != "NonExceptional")


def test_genus_contradiction_raises_in_classify(monkeypatch, capsys):
    # a family whose genus disagrees, or an untyped nonzero class of genus
    # <= 0, raises in classify_exceptional; criterion 4 of verify-all turns
    # the raise into a FAIL line naming the class
    import burniat.delpezzo as delpezzo
    from burniat.cli import main
    from burniat.verify import run_all
    monkeypatch.setattr(delpezzo, "arithmetic_genus", lambda d: 5)
    with pytest.raises(AssertionError, match="classified Type1"):
        classify_exceptional(H - E1)
    [result] = run_all(only="genus-exceptions")
    assert not result.passed
    assert result.detail.startswith("genus contradiction at ")
    assert "but p_a=5" in result.detail
    assert main(["verify-all", "--only", "genus"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] criterion  4 genus-exceptions" in out
    assert "genus contradiction at " in out
    monkeypatch.setattr(delpezzo, "arithmetic_genus", lambda d: 0)
    with pytest.raises(AssertionError, match="unclassified"):
        classify_exceptional(MINUS_K)


def test_enumerate_nef_deterministic():
    a = [c.coeffs for c in enumerate_nef(6)]
    b = [c.coeffs for c in enumerate_nef(6)]
    assert a == b
    assert all(is_nef_class(YClass(c)) for c in a)


def test_criterion5_keeps_the_symmetric_coordinate_filter():
    # criterion 5 cuts its box into one n_3 range per (n_h, n_1, n_2) row;
    # the kept classes, in order, are those of the full itertools.product box
    # whose pairings with -K and the six boundary curves, computed with
    # YClass.dot, lie in -4..8
    from burniat.verify import _c5_classes
    curves = [MINUS_K] + [CURVE_CLASS[f] for f in BOUNDARY]
    want = [YClass(c) for c in itertools.product(range(-5, 11), *[range(-8, 5)] * 3)
            if all(-4 <= YClass(c).dot(v) <= 8 for v in curves)]
    assert _c5_classes() == want
    assert len(want) == 4397
