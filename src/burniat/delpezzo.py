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
function works on the pairings where it can: eff_decompose shares the
pairings with h1 and h2 out over the ruling-fibre pairings (each curve
lowers exactly two of the five by one), enumerate_nef loops over n_h and
the pairings with A0, B0, C0 inside the nef and degree bounds, and
classify_exceptional tests (a0, b0, c0) and (a3, b3, c3) against one
normal form per family, which a symmetry permutes alike and may swap.
"""
from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .lattice import SurfaceLattice, YClass, arithmetic_genus
from .config import BOUNDARY


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


# --- effective and nef decomposition ----------------------------------------

def _share(wants: list[int], supply: int) -> list[int]:
    """Hand supply <= sum(wants) out over three wants, one unit per want per
    round in A, B, C order: r = the largest t with sum(min(w, t)) <= supply
    full rounds, then one unit each to the first wants above r."""
    lo, mid, _ = sorted(wants)
    r = max(supply // 3, (supply - lo) // 2, supply - lo - mid)
    out = [w if w < r else r for w in wants]
    left = supply - sum(out)
    for i, w in enumerate(wants):
        if left and w > r:
            out[i] += 1
            left -= 1
    return out


def eff_decompose(d: YClass) -> Counter | None:
    """Write d as a nonnegative combination of the six (-1)-curves.

    None when d is not effective, i.e. pairs negatively with one of the five
    nef generators: (a, b, c, h1, h2) = nef_pairings, with f = (a, b, c).
    Otherwise the counts of the greedy that subtracts A0, B0, C0, A3, B3, C3
    in rounds, each while the rest stays effective, in closed form.  X0
    pairs 1 with f_X and h2, X3 pairs 1 with f_X and h1, each 0 with the
    rest, and a + b + c = h1 + h2.  So while h2 and h1 last, round r gives
    letter X one X0 if f_X >= 2r - 1 and one X3 if f_X >= 2r, up to
    ceil(f_X / 2) and floor(f_X / 2) in all.  If h2 <= sum ceil(f / 2), h2
    runs out first: X0 = _share(ceil(f / 2), h2) and X3 = f - X0; otherwise
    h1 does: X3 = _share(floor(f / 2), h1) and X0 = f - X3.  Keys come in
    BOUNDARY order, zero counts left out.
    """
    p = nef_pairings(_coeffs(d))
    if min(p) < 0:
        return None
    f, h1, h2 = p[:3], p[3], p[4]
    ceil = [(x + 1) // 2 for x in f]
    if h2 <= sum(ceil):
        x0 = _share(ceil, h2)
        x3 = [x - y for x, y in zip(f, x0)]
    else:
        x3 = _share([x // 2 for x in f], h1)
        x0 = [x - y for x, y in zip(f, x3)]
    out: Counter = Counter()
    for name, m in zip(BOUNDARY, x0 + x3):
        if m:
            out[name] = m
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
    out: Counter = Counter()
    for name, m in zip(NEF_ORDER, counts):
        if m:
            out[name] = m
    return out


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


def classify_exceptional(d: YClass) -> ExceptionalType:
    """Match a nef class against the four low-genus families, up to symmetry.

    With lo = (a0, b0, c0) and hi = (a3, b3, c3), a symmetry permutes lo
    and hi alike and may swap them, so each family's orbit is one test on
    the pair, and the degree d gives n:
    Type1 (n, 0, 0) on both, n = d/2; Type2 (n - 1, 1, 0) on both, n = d/2;
    Type3 (n, 1, 1) and (n - 1, 0, 0), n = (d - 1)/2; Type4 (2, 2, 2) and
    (0, 0, 0).  Families are tried in that order, so the verdict is constant
    on symmetry orbits where they overlap (a single ruling fibre also fits
    Type2 at n=1, and is Type1).
    """
    s = symmetric_coords(_coeffs(d))
    if min(s) < 0:
        raise ValueError(f"{d} is not nef")
    p_a = arithmetic_genus(d)
    deg, lo, hi = s[0], s[1:4], s[4:]
    small, big = sorted((lo, hi))
    if lo == hi and lo.count(0) == 2:
        family, n = "Type1", deg // 2
    elif lo == hi and lo.count(0) == 1 and 1 in lo:
        family, n = "Type2", deg // 2
    elif small.count(0) >= 2 and big == tuple(x + 1 for x in small):
        family, n = "Type3", (deg - 1) // 2
    elif (small, big) == ((0, 0, 0), (2, 2, 2)):
        family, n = "Type4", None
    else:
        if p_a <= 0 and not d.is_zero():
            raise AssertionError(f"unclassified nef class {d} with p_a={p_a}")
        return ExceptionalType("NonExceptional", None, p_a)
    if p_a != (-(n - 1) if family == "Type1" else 0):
        raise AssertionError(f"{d} classified {family} n={n} but p_a={p_a}")
    return ExceptionalType(family, n, p_a)
