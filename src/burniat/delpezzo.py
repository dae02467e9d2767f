"""Effective and nef semigroups on the degree-6 del Pezzo surface Bl_3 P^2.

Fixed identifications on the k=3 lattice:

* the six (-1)-curves `config.BOUNDARY`, in scan order A0, B0, C0, A3, B3, C3,
  with their classes from `config.CURVE_CLASS`:
      A0 = e1, B0 = e2, C0 = e3,
      A3 = h-e2-e3, B3 = h-e1-e3, C3 = h-e1-e2;
* the ruling fibres f_i = h - e_i and the two plane pullbacks
      h1 = h, h2 = 2h - e1 - e2 - e3.

Symmetric coordinates of a class D are
(d; a0, b0, c0; a3, b3, c3) = (D.(-K); D.A0, D.B0, D.C0; D.A3, D.B3, D.C3).
The configuration symmetry group (letter permutations times the 0<->3 swap,
12 elements) acts by permuting these coordinates.

YClass is the boundary type: every public function takes and returns one.
The arithmetic runs on the coefficient tuple (n_h, n_1, n_2, n_3): the
pairings with the five nef generators (nef_pairings) and the symmetric
coordinates (symmetric_coords) are written out once each, and D is
effective when the first are all >= 0 and nef when the second are.  Each
function works on the pairings where it can: eff_decompose counts the five
nef pairings down (each curve lowers exactly two of them by one),
enumerate_nef loops over n_h and the pairings with A0, B0, C0 inside the
nef and degree bounds, and classify_exceptional looks the symmetric
coordinates up in each family's symmetry orbit, built once per degree.
"""
from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from typing import NamedTuple

from .lattice import SurfaceLattice, YClass, arithmetic_genus
from .config import BOUNDARY, CURVE_CLASS


class NotInLattice(ValueError):
    """A class that is not on the k = 3 lattice."""


LAT = SurfaceLattice(3)

NEF_ORDER = ("f1", "f2", "f3", "h1", "h2")
NEF_CLASS = {
    "f1": YClass((1, -1, 0, 0)),
    "f2": YClass((1, 0, -1, 0)),
    "f3": YClass((1, 0, 0, -1)),
    "h1": YClass((1, 0, 0, 0)),
    "h2": YClass((2, -1, -1, -1)),
}


def nef_pairings(c: tuple[int, ...]) -> tuple[int, ...]:
    """The pairings of the class c with f1, f2, f3, h1, h2 (NEF_ORDER)."""
    nh, n1, n2, n3 = c
    return nh + n1, nh + n2, nh + n3, nh, 2 * nh + n1 + n2 + n3


def symmetric_coords(c: tuple[int, ...]) -> tuple[int, ...]:
    """The pairings of the class c with -K and A0, B0, C0, A3, B3, C3.

    d is the sum of the other six (-K is the sum of the six curves), so the
    class is nef exactly when the minimum of all seven is >= 0."""
    nh, n1, n2, n3 = c
    return (3 * nh + n1 + n2 + n3, -n1, -n2, -n3,
            nh + n2 + n3, nh + n1 + n3, nh + n1 + n2)


def _coeffs(d: YClass) -> tuple[int, ...]:
    if d.k != 3:
        raise NotInLattice(f"{d} is not a class of the k=3 lattice")
    return d.coeffs


# --- the 12-element symmetry group ------------------------------------------
# A group element is (letter permutation sigma on (a,b,c), swap 0<->3 flag).

SYMMETRY_GROUP = [
    (perm, swap)
    for perm in itertools.permutations((0, 1, 2))
    for swap in (False, True)
]


def _symmetry_index(sym: tuple[tuple[int, int, int], bool]) -> tuple[int, ...]:
    """Positions in (d; a0, b0, c0; a3, b3, c3) that sym moves to each slot."""
    perm, swap = sym
    lo = tuple(1 + i for i in perm)
    hi = tuple(4 + i for i in perm)
    return (0, *hi, *lo) if swap else (0, *lo, *hi)


_SYMMETRY_INDEX = [_symmetry_index(sym) for sym in SYMMETRY_GROUP]


# --- effective and nef decomposition ----------------------------------------

_CURVE_ROWS = tuple((name, CURVE_CLASS[name].coeffs) for name in BOUNDARY)


def _curve_pairs(rows) -> tuple[tuple[str, int, int], ...]:
    """(name, i, j) per curve: the two NEF_ORDER positions it pairs 1 with.

    Every boundary curve pairs 1, 1, 0, 0, 0 with the nef generators (A0 with
    f1 and h2, A3 with f1 and h1, and so on by letter), so subtracting it
    lowers exactly those two pairings by one."""
    out = []
    for name, row in rows:
        p = nef_pairings(row)
        if sorted(p) != [0, 0, 0, 1, 1]:
            raise AssertionError(f"{name} pairs {p} with {NEF_ORDER}, "
                                 "not 1, 1, 0, 0, 0")
        i, j = (k for k, v in enumerate(p) if v)
        out.append((name, i, j))
    return tuple(out)


_CURVE_PAIRS = _curve_pairs(_CURVE_ROWS)


def eff_decompose(d: YClass) -> Counter | None:
    """Write d as a nonnegative combination of the six (-1)-curves.

    None when d is not effective, i.e. pairs negatively with one of the five
    nef generators.  Otherwise the greedy round-robin subtraction below always
    reaches zero because the integral points of the effective cone are
    generated by the six curves; a stall would be a library bug and raises.
    Deterministic: curves are tried cyclically in scan order.  The walk runs
    on the five pairings (_CURVE_PAIRS): the rest after a curve is effective
    exactly when both pairings the curve lowers are still positive.
    """
    p = list(nef_pairings(_coeffs(d)))
    if min(p) < 0:
        return None
    out: Counter = Counter()
    while any(p):
        subtracted = False
        for name, i, j in _CURVE_PAIRS:
            if p[i] and p[j]:
                p[i] -= 1
                p[j] -= 1
                out[name] += 1
                subtracted = True
        if not subtracted:
            nh = p[3]
            cur = YClass((nh, p[0] - nh, p[1] - nh, p[2] - nh))
            raise AssertionError(
                f"effective cone not totally generated at {cur}")
    return out


def is_nef_class(d: YClass) -> bool:
    return min(symmetric_coords(_coeffs(d))) >= 0


def nef_decompose(d: YClass) -> Counter | None:
    """d as a nonnegative combination of f1, f2, f3, h1, h2, or None if not nef.

    Per letter the pairing with X3 minus the pairing with X0 is the same
    number, s = n_h + n_1 + n_2 + n_3 (a3 - a0 = b3 - b0 = c3 - c0).  Each
    f_i pairs 1 with its letter's X0 and X3 and 0 elsewhere, h1 pairs 1 with
    A3, B3, C3 and h2 with A0, B0, C0, so min(x0, x3) fibres f_i per letter
    leave every x0 at 0 (s >= 0) or every x3 at 0 (s < 0), i.e. s h1 or
    -s h2.  Zero counts are left out; the keys come in NEF_ORDER.
    """
    coords = symmetric_coords(_coeffs(d))
    if min(coords) < 0:
        return None
    _, a0, b0, c0, a3, b3, c3 = coords
    s = a3 - a0
    counts = min(a0, a3), min(b0, b3), min(c0, c3), max(s, 0), max(-s, 0)
    return Counter({name: m for name, m in zip(NEF_ORDER, counts) if m})


def enumerate_nef(d_max: int) -> list[YClass]:
    """All nef classes with degree D.(-K) <= d_max, sorted by (degree, coeffs).

    The loops run over n_h = D.h1 and the pairings a, b, c = -n_1, -n_2, -n_3
    with A0, B0, C0.  D is nef when a, b, c >= 0 and the pairings with C3, B3,
    A3 (n_h - a - b, n_h - a - c, n_h - b - c) are >= 0; its degree is
    3 n_h - a - b - c.  The A3, B3, C3 and degree bounds cut the ranges
    below, and n_h <= d because -K = h1 + h2 with h2 nef.
    """
    found = []
    for nh in range(0, d_max + 1):
        for a in range(nh + 1):
            for b in range(nh - a + 1):
                for c in range(max(0, 3 * nh - a - b - d_max), nh - max(a, b) + 1):
                    found.append((3 * nh - a - b - c, (nh, -a, -b, -c)))
    found.sort()
    return [YClass(c) for _, c in found]


# --- the nef classes of non-positive genus ----------------------------------

class ExceptionalType(NamedTuple):
    """Classification of a nef class by arithmetic genus.

    family is one of "Type1".."Type4" or "NonExceptional"; n parametrises
    families 1-3.
    """

    family: str
    n: int | None
    p_a: int


def _normal_forms(d: int):
    """(family, n, normal form in symmetric coordinates) of each family with
    a member of degree d, in matching order."""
    if d >= 2 and d % 2 == 0:
        n = d // 2
        yield "Type1", n, (d, n, 0, 0, n, 0, 0)
        yield "Type2", n, (d, n - 1, 1, 0, n - 1, 1, 0)
    if d >= 3 and d % 2 == 1:
        n = (d - 1) // 2
        yield "Type3", n, (d, n, 1, 1, n - 1, 0, 0)
    if d == 6:
        yield "Type4", None, (6, 2, 2, 2, 0, 0, 0)


@lru_cache(maxsize=64)
def _orbits(d: int) -> tuple[tuple[str, int | None, frozenset], ...]:
    """(family, n, symmetry orbit of its normal form) per _normal_forms(d).

    The index maps of _SYMMETRY_INDEX form a group, so a class is moved onto
    the normal form by some element exactly when it lies in this orbit."""
    return tuple((family, n, frozenset(tuple(form[i] for i in idx)
                                       for idx in _SYMMETRY_INDEX))
                 for family, n, form in _normal_forms(d))


def classify_exceptional(d: YClass) -> ExceptionalType:
    """Match a nef class against the four low-genus families, up to symmetry.

    Families are tried in order across the whole symmetry group, so the
    verdict is constant on symmetry orbits even where families overlap
    (a single ruling fibre also fits the fibre-plus-section pattern at n=1).
    """
    s = symmetric_coords(_coeffs(d))
    if min(s) < 0:
        raise ValueError(f"{d} is not nef")
    p_a = arithmetic_genus(d)
    for family, n, orbit in _orbits(s[0]):
        if s in orbit:
            expected = -(n - 1) if family == "Type1" else 0
            if p_a != expected:
                raise AssertionError(f"{d} classified {family} n={n} "
                                     f"but p_a={p_a}")
            return ExceptionalType(family, n, p_a)
    if p_a <= 0 and not d.is_zero():
        raise AssertionError(f"unclassified nef class {d} with p_a={p_a}")
    return ExceptionalType("NonExceptional", None, p_a)
