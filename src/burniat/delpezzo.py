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
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .lattice import SurfaceLattice, YClass, canonical_class, arithmetic_genus
from .config import BOUNDARY, CURVE_CLASS


class NotInLattice(ValueError):
    """Symmetric coordinates that do not come from an integral class."""


LAT = SurfaceLattice(3)

NEF_ORDER = ("f1", "f2", "f3", "h1", "h2")
NEF_CLASS = {
    "f1": YClass((1, -1, 0, 0)),
    "f2": YClass((1, 0, -1, 0)),
    "f3": YClass((1, 0, 0, -1)),
    "h1": YClass((1, 0, 0, 0)),
    "h2": YClass((2, -1, -1, -1)),
}

MINUS_K = -canonical_class(LAT)


@dataclass(frozen=True)
class SymmetricCoords:
    d: int
    a0: int
    b0: int
    c0: int
    a3: int
    b3: int
    c3: int

    def as_tuple(self) -> tuple[int, ...]:
        return (self.d, self.a0, self.b0, self.c0, self.a3, self.b3, self.c3)

    def __str__(self) -> str:
        return (f"({self.d}; {self.a0},{self.b0},{self.c0};"
                f" {self.a3},{self.b3},{self.c3})")


def to_symmetric(d: YClass) -> SymmetricCoords:
    if d.k != 3:
        raise NotInLattice("symmetric coordinates only exist on the k=3 lattice")
    vals = [d.dot(MINUS_K)] + [d.dot(CURVE_CLASS[f]) for f in BOUNDARY]
    return SymmetricCoords(*vals)


# --- the 12-element symmetry group ------------------------------------------
# A group element is (letter permutation sigma on (a,b,c), swap 0<->3 flag).

def _apply_symmetry(sym: tuple[tuple[int, int, int], bool],
                    s: SymmetricCoords) -> SymmetricCoords:
    perm, swap = sym
    lo = (s.a0, s.b0, s.c0)
    hi = (s.a3, s.b3, s.c3)
    lo = tuple(lo[i] for i in perm)
    hi = tuple(hi[i] for i in perm)
    if swap:
        lo, hi = hi, lo
    return SymmetricCoords(s.d, *lo, *hi)


SYMMETRY_GROUP = [
    (perm, swap)
    for perm in itertools.permutations((0, 1, 2))
    for swap in (False, True)
]


# --- effective and nef decomposition ----------------------------------------

def eff_witness(d: YClass) -> str | None:
    """Name of a nef generator pairing negatively with d, or None."""
    for name in NEF_ORDER:
        if d.dot(NEF_CLASS[name]) < 0:
            return name
    return None


def is_effective_class(d: YClass) -> bool:
    return eff_witness(d) is None


def eff_decompose(d: YClass) -> Counter | None:
    """Write d as a nonnegative combination of the six (-1)-curves.

    None when d is not effective, i.e. pairs negatively with one of the five
    nef generators.  Otherwise the greedy round-robin subtraction below always
    reaches zero because the integral points of the effective cone are
    generated by the six curves; a stall would be a library bug and raises.
    Deterministic: curves are tried cyclically in scan order.
    """
    if d.k != 3:
        raise NotInLattice("k=3 only")
    if not is_effective_class(d):
        return None
    out: Counter = Counter()
    cur = d
    while not cur.is_zero():
        subtracted = False
        for name in BOUNDARY:
            rest = cur - CURVE_CLASS[name]
            if is_effective_class(rest):
                out[name] += 1
                cur = rest
                subtracted = True
        if not subtracted:
            raise AssertionError(f"effective cone not totally generated at {cur}")
    return out


def nef_witness(d: YClass) -> str | None:
    for name in BOUNDARY:
        if d.dot(CURVE_CLASS[name]) < 0:
            return name
    return None


def is_nef_class(d: YClass) -> bool:
    return nef_witness(d) is None


def nef_decompose(d: YClass) -> Counter | None:
    """Greedy decomposition over f1, f2, f3, h1, h2, or None if not nef."""
    if d.k != 3:
        raise NotInLattice("k=3 only")
    if not is_nef_class(d):
        return None
    out: Counter = Counter()
    cur = d
    progress = True
    while not cur.is_zero() and progress:
        progress = False
        for name in NEF_ORDER:
            while True:
                rest = cur - NEF_CLASS[name]
                if is_nef_class(rest):
                    out[name] += 1
                    cur = rest
                    progress = True
                else:
                    break
    if not cur.is_zero():
        raise AssertionError(f"nef semigroup not totally generated at {cur}")
    return out


def enumerate_nef(d_max: int) -> list[YClass]:
    """All nef classes with degree D.(-K) <= d_max, sorted by (degree, coeffs).

    For nef D one has n_h = D.h1 in [0, d] and each e-coefficient in
    [-n_h, 0], so the search box below is exhaustive.
    """
    out = []
    for nh in range(0, d_max + 1):
        for ni in itertools.product(range(-nh, 1), repeat=3):
            c = YClass((nh,) + ni)
            if c.dot(MINUS_K) <= d_max and is_nef_class(c):
                out.append(c)
    out.sort(key=lambda c: (c.dot(MINUS_K), c.coeffs))
    return out


# --- the nef classes of non-positive genus ----------------------------------

@dataclass(frozen=True)
class ExceptionalType:
    """Classification of a nef class by arithmetic genus.

    family is one of "Type1".."Type4" or "NonExceptional"; n parametrises
    families 1-3; symmetry records which group element carries the input to
    the family's normal form.
    """

    family: str
    n: int | None
    p_a: int
    symmetry: tuple[tuple[int, int, int], bool] | None


def _match_type1(s: SymmetricCoords) -> int | None:
    d = s.d
    if d >= 2 and d % 2 == 0 and \
            (s.a0, s.b0, s.c0) == (d // 2, 0, 0) == (s.a3, s.b3, s.c3):
        return d // 2
    return None


def _match_type2(s: SymmetricCoords) -> int | None:
    d = s.d
    if d >= 2 and d % 2 == 0:
        n = d // 2
        if (s.a0, s.b0, s.c0) == (n - 1, 1, 0) == (s.a3, s.b3, s.c3):
            return n
    return None


def _match_type3(s: SymmetricCoords) -> int | None:
    d = s.d
    if d >= 3 and d % 2 == 1:
        n = (d - 1) // 2
        if (s.a0, s.b0, s.c0) == (n, 1, 1) and (s.a3, s.b3, s.c3) == (n - 1, 0, 0):
            return n
    return None


def _match_type4(s: SymmetricCoords) -> int | None:
    return -1 if s.as_tuple() == (6, 2, 2, 2, 0, 0, 0) else None


_FAMILY_MATCHERS = (("Type1", _match_type1), ("Type2", _match_type2),
                    ("Type3", _match_type3), ("Type4", _match_type4))


def classify_exceptional(d: YClass) -> ExceptionalType:
    """Match a nef class against the four low-genus families, up to symmetry.

    Families are tried in order across the whole symmetry group, so the
    verdict is constant on symmetry orbits even where families overlap
    (a single ruling fibre also fits the fibre-plus-section pattern at n=1).
    """
    if not is_nef_class(d):
        raise ValueError(f"{d} is not nef")
    s = to_symmetric(d)
    p_a = arithmetic_genus(d)
    for family, matcher in _FAMILY_MATCHERS:
        for sym in SYMMETRY_GROUP:
            n = matcher(_apply_symmetry(sym, s))
            if n is not None:
                n = None if family == "Type4" else n
                expected = -(n - 1) if family == "Type1" else 0
                if p_a != expected:
                    raise AssertionError(f"{d} classified {family} n={n} "
                                         f"but p_a={p_a}")
                return ExceptionalType(family, n, p_a, sym)
    if p_a <= 0 and not d.is_zero():
        raise AssertionError(f"unclassified nef class {d} with p_a={p_a}")
    return ExceptionalType("NonExceptional", None, p_a, None)
