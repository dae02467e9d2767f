"""Coordinate model for the Picard group of a Burniat surface.

A divisor class L is printed as

    (d; rA tA; rB tB; rC tC; m_1..m_k)

where d = L.K, m_s = L.(E_s/2) (absent for K^2 = 6), and each boundary block
(r, t) is the restriction of L to the marked elliptic curve A0/B0/C0: r is the
degree and t in {00, 10, 01, 11} names the 2-torsion summand relative to the
curve's four marked points.  In code a block is the integer pair (r, m) with
the 2-bit mask m = 2 * t[0] + t[1].  An XClass is the table row
(nh, n1, n2, n3, mask, ns): a class on Y' with ns = (n_4, ...), empty for
K^2 = 6, and the 6-bit mask of its labels on A0, B0, C0, A0 bits first.
The printed coordinates are properties, and parse_xclass, the one way in
for them, refuses a failed congruence.  Adding or subtracting classes, one
checked combine with a sign, adds or subtracts the integers and XORs the
masks.  That 6-bit int is the one encoding of a torsion vector: the
basis VEC, point_vector, torsion_subgroup and the GF(2) solves of linalg use
it as well (MASK_BITS spells a mask as a 0/1 tuple only for the integer
rows whose indices the consistency suite compares).

The twelve configuration curves generate the group; their restriction blocks
form the generator table.  The table is produced by one filling rule, whose
degrees are the lattice pairings of the strict transforms:

* G restricts to (1, label of the meeting point) on a boundary curve it meets,
* to (0, 00) on a disjoint boundary curve (a rigid curve cannot restrict to a
  nonzero torsion bundle on a curve it misses: its unique section would give
  the torsion bundle a section), and
* to (-1, 00) on itself (adjunction against a canonical class with trivial
  torsion data).

An override of the blocks is input, checked entry by entry before any row
is built: each entry must be a generator and a boundary curve with an int
degree and a label in 0..3, and (d) its degree must be the lattice pairing.
So the rows' numerical parts are the strict transforms whatever the
override, and the image of phi has finite index (3 for K^2 = 6, kept as
image_index).  A construction-time consistency suite then checks what the
labels can break: (a) the six standard difference divisors have the printed
torsion vectors, (b) the derived A3/B3/C3 restriction maps are well defined
on the image, and (e) the labels are the rule's.  Check (b) is one index
comparison: appending to each row of phi the masks of its restrictions to
A3, B3, C3 multiplies the image index by 2^6 exactly when those masks
vanish on every combination that phi sends to zero.  Check (e) refuses what
the others let through: a nonzero label on a block of degree <= 0, or four
meeting points of one boundary curve that do not carry 00, 01, 10 and 11
once each.

The table holds one XClass per curve, rows: a generator's strict
transform and the mask of its labels on A0, B0, C0, and 2E_s under the
label E{s} with mask 0, so phi is a sum of rows.  One loop sums rows for
every K^2; it adds up ns only on a row that has one, an E_s row or a
K^2 < 6 strict transform.  Every K^2 = 6 query of GeneratorTable (to_y,
from_y, preimage_combo, labels, maps_to) goes through require_k6, which
refuses a table with K^2 != 6 and a class with an exceptional part.
preimage_combo corrects torsion bits against the constant basis VEC, which
spans V, so its GF(2) solve has 64 targets, each solvable, and is memoised;
every call checks its combo.

labels(x) gives the 2-bit labels of a K^2 = 6 class on the six boundary
curves, one 12-bit int in BOUNDARY order, without building a combo; the
degrees there are the pairings of delpezzo.symmetric_coords.  The labels
on A0, B0, C0 are the class's own mask.  Those on A3, B3, C3 are linear:
every XClass with K^2 = 6 is a class, so the 10-bit key (y mod 2, mask) is
the class modulo twice the group, and check (b) makes restriction to A3,
B3, C3 a homomorphism into 2-torsion, which vanishes on twice the group.  A
K^2 = 6 table builds this GF(2)-linear map once, as a 1,024-entry tuple
spanned by the generators' keys and their labels3_rows masks, so labels
is additive: labels(p + q) == labels(p) ^ labels(q).  It also keeps the
labels of the six boundary rows, boundary_labels, and of the 64 classes
XClass(0, 0, 0, 0, mask), mask_labels, each read once through labels.
"""
from __future__ import annotations

import re
from collections.abc import Iterable
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .lattice import YClass, canonical_class, subgroup_index
from .linalg import gf2_nullspace, gf2_solve, lattice_index
from .config import (BurniatConfig, BOUNDARY, GENERATORS, CURVE_CLASS,
                     standard_config)


class NotARepresentableClass(ValueError):
    """Coordinates outside the image subgroup."""


class TableInconsistent(AssertionError):
    """The generator table failed its construction-time consistency suite."""


# ---------------------------------------------------------------------------
# Classes; a boundary block is a (deg, 2-bit mask) pair
# ---------------------------------------------------------------------------

# MASK_BITS[m] is the 6-bit mask m as a 0/1 tuple, first entry most
# significant: the order in which scan enumerates the torsion lifts
MASK_BITS = tuple(tuple(map(int, f"{m:06b}")) for m in range(64))


class _XClassFields(NamedTuple):
    nh: int
    n1: int
    n2: int
    n3: int
    mask: int
    ns: tuple[int, ...] = ()


class XClass(_XClassFields):
    """A class as its table row: (n_h, n_1, n_2, n_3) on Y', the 6-bit
    torsion mask (A0 bits first) and ns, the n_{3+s}, empty for K^2 = 6."""

    __slots__ = ()
    __mul__ = __rmul__ = None  # no tuple repetition

    def __new__(cls, nh: int, n1: int, n2: int, n3: int, mask: int,
                ns: tuple[int, ...] = ()):
        if not 0 <= mask < 64:
            raise ValueError(f"torsion mask {mask} is not a 6-bit mask")
        return tuple.__new__(cls, (nh, n1, n2, n3, mask, ns))

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: both check
        return cls(*iterable)

    # the printed coordinates: the pairings with -K_Y', e_1, e_2, e_3, E_s
    @property
    def d(self) -> int:
        nh, n1, n2, n3, _, ns = self
        return 3 * nh + n1 + n2 + n3 + sum(ns)

    @property
    def r0(self) -> int:
        return -self.n1

    @property
    def r1(self) -> int:
        return -self.n2

    @property
    def r2(self) -> int:
        return -self.n3

    @property
    def emult(self) -> tuple[int, ...]:
        return tuple(-n for n in self.ns)

    def __add__(self, other: "XClass") -> "XClass":
        return self._combine(other, 1)

    def __sub__(self, other: "XClass") -> "XClass":
        return self._combine(other, -1)

    def __radd__(self, other: object) -> "XClass":
        # tuple + XClass would concatenate: the reflected sum runs first
        raise TypeError(f"an XClass combines only with an XClass, "
                        f"not {type(other).__name__}")

    def _combine(self, other: "XClass", sign: int) -> "XClass":
        """self + sign * other; masks XOR whatever the sign."""
        if not isinstance(other, XClass):
            raise TypeError(f"an XClass combines only with an XClass, "
                            f"not {type(other).__name__}")
        # zip would silently truncate the longer exceptional part
        if len(self.ns) != len(other.ns):
            raise ValueError(f"{self} and {other} have exceptional parts of different lengths")
        nh, n1, n2, n3, mask, ns = other
        return XClass(self.nh + sign * nh, self.n1 + sign * n1, self.n2 + sign * n2,
                      self.n3 + sign * n3, self.mask ^ mask,
                      tuple(a + sign * b for a, b in zip(self.ns, ns)))

    def __str__(self) -> str:
        return xclass_to_text(self)


# _LABEL_TEXT[m] is the 2-bit label m as printed
_LABEL_TEXT = ("00", "01", "10", "11")


def lift_texts(x: XClass, masks: Iterable[int] = range(64)) -> list[str]:
    """The text of XClass(*x[:4], m, x.ns) for each m in masks: the numbers
    are printed once, so scan prints the 64 lifts of a class in one call."""
    nh, n1, n2, n3, _, ns = x
    head, b0, c0 = f"({3 * nh + n1 + n2 + n3 + sum(ns)}; {-n1} ", f"; {-n2} ", f"; {-n3} "
    tail = ("; " + ",".join(str(-n) for n in ns) if ns else "") + ")"
    return [f"{head}{_LABEL_TEXT[m >> 4]}{b0}{_LABEL_TEXT[m >> 2 & 3]}{c0}"
            f"{_LABEL_TEXT[m & 3]}{tail}" for m in masks]


def xclass_to_text(x: XClass) -> str:
    return lift_texts(x, (x.mask,))[0]


_X_RE = re.compile(r"^\(\s*(-?\d+)\s*;([^;]+);([^;]+);([^;)]+)(?:;([^)]+))?\)$")
_BLOCK_RE = re.compile(r"\s*(-?\d+)\s+([01][01])\s*")
_EMULT_RE = re.compile(r"\s*-?\d+\s*(?:,\s*-?\d+\s*)*")


def _int(digits: str, field: str) -> int:
    """int(digits), refused past CPython's 4,300 digits naming the field."""
    if (n := sum(map(str.isdigit, digits))) > 4300:
        raise ValueError(f"the {field} has {n:,} digits; a class literal takes at most 4,300")
    return int(digits)


def parse_xclass(text: str) -> XClass:
    """Parse the bit-exact literal, e.g. ``(3; 1 10; 1 10; 1 10)``; a class of
    Y' has 3 | d + r0 + r1 + r2 + sum(emult)."""
    m = _X_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse class literal {text!r}")
    degs, mask = [], 0
    for letter, part in zip("ABC", m.groups()[1:4]):
        block = _BLOCK_RE.fullmatch(part)
        if not block:
            raise ValueError(f"bad block {part!r} in {text!r}")
        degs.append(_int(block[1], f"degree of block {letter}"))
        mask = mask << 2 | int(block[2], 2)
    emult: tuple[int, ...] = ()
    if m.group(5) is not None:
        if not _EMULT_RE.fullmatch(m.group(5)):
            raise ValueError(f"bad exceptional part {m.group(5)!r} in {text!r}")
        emult = tuple(_int(v, f"exceptional multiplicity {i}")
                      for i, v in enumerate(m.group(5).split(","), 1))
    nh, rest = divmod(_int(m.group(1), "degree") + sum(degs) + sum(emult), 3)
    if rest:
        raise NotARepresentableClass(f"congruence fails for {text!r}")
    return XClass(nh, *(-r for r in degs), mask, tuple(-v for v in emult))


def _key(x: XClass) -> int:
    """x modulo twice the group: y mod 2 and the mask as one 10-bit int."""
    nh, n1, n2, n3, mask, _ = x
    return (nh & 1) << 9 | (n1 & 1) << 8 | (n2 & 1) << 7 | (n3 & 1) << 6 | mask


# ---------------------------------------------------------------------------
# Marked points and torsion vectors
# ---------------------------------------------------------------------------

# For each boundary curve F, the curves meeting it and the 2-torsion label of
# the meeting point.  P00 is the intersection with the odd-coloured curve out
# of the four; the labels on A3, B3, C3 mirror those on A0, B0, C0 under the
# 0<->3 swap.  A label t is stored as its 2-bit mask, 0b10 for t = 10.
MEET: dict[str, dict[str, int]] = {
    "A0": {"B3": 0b00, "C3": 0b10, "C1": 0b01, "C2": 0b11},
    "B0": {"C3": 0b00, "A3": 0b10, "A1": 0b01, "A2": 0b11},
    "C0": {"A3": 0b00, "B3": 0b10, "B1": 0b01, "B2": 0b11},
    "A3": {"B0": 0b00, "C0": 0b10, "C1": 0b01, "C2": 0b11},
    "B3": {"C0": 0b00, "A0": 0b10, "A1": 0b01, "A2": 0b11},
    "C3": {"A0": 0b00, "B0": 0b10, "B1": 0b01, "B2": 0b11},
}

# Basis vectors of V = F_2^6 as 6-bit masks, blocked (A0 | B0 | C0).
VEC = {
    "A1": 0b00_10_00,
    "A2": 0b00_11_00,
    "B1": 0b00_00_10,
    "B2": 0b00_00_11,
    "C1": 0b10_00_00,
    "C2": 0b11_00_00,
}

# Divisor combinations whose torsion data realises the basis vectors.
VEC_COMBO: dict[str, dict[str, int]] = {
    "A1": {"A1": 1, "A2": -1},
    "A2": {"A1": 1, "A3": -1, "C0": -1},
    "B1": {"B1": 1, "B2": -1},
    "B2": {"B1": 1, "B3": -1, "A0": -1},
    "C1": {"C1": 1, "C2": -1},
    "C2": {"C1": 1, "C3": -1, "B0": -1},
}


def point_vector(point: tuple[str, str, str]) -> int:
    a, b, c = point
    return VEC[a] ^ VEC[b] ^ VEC[c]


def torsion_subgroup(cfg: BurniatConfig) -> list[int]:
    """Echelon basis of the orthogonal complement of the point vectors."""
    return gf2_nullspace([point_vector(p) for p in cfg.points], 6)


# ---------------------------------------------------------------------------
# Generator table
# ---------------------------------------------------------------------------

class GeneratorTable:
    """Restriction blocks of the 12 curve generators on the boundary curves,
    one row per curve (and per 2E_s) and, for K^2 = 6, the A3/B3/C3 labels.

    Construction runs the consistency suite, raising TableInconsistent on any
    failure; its dicts are read-only views, and no attribute is set twice."""

    def __init__(self, cfg: BurniatConfig,
                 block_override: dict[tuple[str, str], tuple[int, int]] | None = None):
        self.cfg = cfg
        self.k = cfg.k
        strict = {g: cfg.strict_transform(g) for g in GENERATORS}
        # (generator, boundary curve) -> (deg, 2-bit mask) of the restriction
        block = {(g, f): (strict[g].dot(strict[f]), MEET[f].get(g, 0))
                 for g in GENERATORS for f in BOUNDARY}
        for key, blk in (block_override or {}).items():
            if (key not in block or type(blk) is not tuple
                    or tuple(map(type, blk)) != (int, int) or not 0 <= blk[1] < 4):
                raise TableInconsistent(
                    f"block override {key!r}: {blk!r} is not an int degree and a "
                    "label in 0..3 of a generator on a boundary curve")
            # (d) the degree is the lattice pairing
            if blk[0] != block[key][0]:
                raise TableInconsistent(
                    f"block degree ({key[0]},{key[1]}) disagrees with the lattice")
            block[key] = blk
        self.block = MappingProxyType(block)
        # each generator's six block labels as one 12-bit int in BOUNDARY order
        six_labels = {g: sum(self.block[g, f][1] << 10 - 2 * i
                                 for i, f in enumerate(BOUNDARY)) for g in GENERATORS}
        # one row per curve: its class on Y' and the mask of its labels on
        # A0, B0, C0, then 2E_s under the label E{s} with mask 0
        rows = [(g, strict[g].coeffs, six_labels[g] >> 6) for g in GENERATORS]
        rows += [(f"E{s}", (2 * cfg.exceptional(s)).coeffs, 0) for s in range(self.k)]
        self.rows = MappingProxyType({g: XClass(*y[:4], m, y[4:]) for g, y, m in rows})
        # the 6-bit mask of each generator's labels on A3, B3, C3
        self.labels3_rows = MappingProxyType({g: six_labels[g] & 63 for g in GENERATORS})
        # each row of phi as integers (d, emult, block degrees, mask bits),
        # then the bits of its label mask on A3, B3, C3, 0 on the E_s rows
        index_rows = [(x.d, *x.emult, x.r0, x.r1, x.r2, *MASK_BITS[x.mask],
                       *MASK_BITS[self.labels3_rows.get(g, 0)])
                      for g, x in self.rows.items()]
        # index of the image of phi: finite for every configuration, as the
        # numerical parts are the strict transforms and the 2E_s
        self.image_index = subgroup_index([row[:-6] for row in index_rows], 6)
        self._check_consistency(index_rows)
        if not self.k:  # key (see _key) -> 6-bit mask of the A3, B3, C3 labels
            labels = {0: 0}
            for g, m3 in self.labels3_rows.items():
                key = _key(self.rows[g])
                if key not in labels:
                    labels.update({k ^ key: m ^ m3 for k, m in labels.items()})
            self._labels3 = tuple(labels[k] for k in range(1024))
            # the labels of each boundary curve's row, in BOUNDARY order, and
            # of each torsion class XClass(0, 0, 0, 0, mask), by mask
            self.boundary_labels = tuple(self.labels(self.rows[f]) for f in BOUNDARY)
            self.mask_labels = tuple(self.labels(XClass(0, 0, 0, 0, m)) for m in range(64))

    def __setattr__(self, name, value):
        if hasattr(self, name):  # vars(self) would slow every later attribute read
            raise AttributeError(f"GeneratorTable.{name} is read-only")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"GeneratorTable.{name} is read-only")

    # -- generator images ---------------------------------------------------

    def phi(self, combo: dict[str, int]) -> XClass:
        """Image of an integer combination of generators and of 2E_s (E{s})."""
        return XClass(*self._row_sum(combo.items()))

    def _row_sum(self, terms: Iterable[tuple[str, int]]) -> tuple:
        """The fields of the sum of c * rows[g] over (g, c), odd c XORing
        masks, as a plain tuple (an XOR of row masks is 6-bit): maps_to and
        preimage_combo compare it with a class, phi alone builds an XClass."""
        rows = self.rows
        nh = n1 = n2 = n3 = mask = 0
        ns = (0,) * self.k
        for g, c in terms:
            if c:
                gh, g1, g2, g3, gmask, gns = rows[g]
                nh += c * gh
                n1 += c * g1
                n2 += c * g2
                n3 += c * g3
                if c & 1:
                    mask ^= gmask
                if gns:  # the E_s rows and the K^2 < 6 strict transforms
                    ns = tuple(a + c * b for a, b in zip(ns, gns))
        return nh, n1, n2, n3, mask, ns

    def column(self, combo: dict[str, int], f: str) -> tuple[int, int]:
        """(deg, 2-bit mask) of the restriction of a generator combination to
        the boundary curve f."""
        deg = mask = 0
        block = self.block
        for g, c in combo.items():
            gdeg, gmask = block[g, f]
            deg += c * gdeg
            if c & 1:
                mask ^= gmask
        return deg, mask

    # -- K^2 = 6 specific queries --------------------------------------------

    def require_k6(self, x: XClass) -> XClass:
        """x itself; refuses a table with K^2 != 6 and an exceptional part."""
        if self.k:
            raise NotARepresentableClass(
                f"a K^2={self.cfg.ksq} table answers no query of the K^2=6 model")
        if x.ns:
            raise NotARepresentableClass(f"{x} has an exceptional part; K^2 = 6 has none")
        return x

    def maps_to(self, cert: tuple[int, ...], x: XClass) -> bool:
        """Whether a certificate in GENERATORS order is a nonnegative
        combination that sums to x."""
        self.require_k6(x)
        if len(cert) != len(GENERATORS):  # zip would silently truncate
            raise ValueError(f"a certificate has 12 entries, not {len(cert)}")
        return min(cert) >= 0 and self._row_sum(zip(GENERATORS, cert)) == x

    def to_y(self, x: XClass) -> YClass:
        """Numerical class underlying x (K^2 = 6 model)."""
        return YClass(self.require_k6(x)[:4])

    def from_y(self, cls: YClass, bits: tuple[int, ...] = (0,) * 6) -> XClass:
        """The lift of cls with the torsion bits, first bit most significant."""
        if cls.k != 3:
            raise NotARepresentableClass(f"{cls} is not a class on Bl_3 P^2")
        if len(bits) != 6 or any(b not in (0, 1) for b in bits):
            raise ValueError(f"torsion bits {bits!r} are not six entries in {{0, 1}}")
        mask = sum(b << 5 - i for i, b in enumerate(bits))
        return self.require_k6(XClass(*cls.coeffs, mask))

    def preimage_combo(self, x: XClass) -> dict[str, int]:
        """Some integer generator combination with phi(combo) == x (K^2 = 6)."""
        nh, n1, n2, n3, mask, _ = self.require_k6(x)
        combo = {"A3": nh, "B0": nh + n2, "C0": nh + n3, "A0": n1}
        # the rows' numerical parts are fixed curve classes, so this combo
        # lies over x[:4]; the final check covers the whole class
        for v in _torsion_solution(mask ^ self._row_sum(combo.items())[4]):
            for g, c in VEC_COMBO[v].items():
                combo[g] = combo.get(g, 0) + c
        if self._row_sum(combo.items()) != x:
            raise TableInconsistent(f"preimage combo {combo} does not map to {x}")
        return combo

    def labels(self, x: XClass) -> int:
        """The 2-bit labels of x on the six boundary curves as one 12-bit int
        in BOUNDARY order, A0 bits first."""
        return self.require_k6(x).mask << 6 | self._labels3[_key(x)]

    # -- consistency suite ----------------------------------------------------

    def _check_consistency(self, index_rows: list[tuple[int, ...]]) -> None:
        # (a) the six standard difference combos hit the basis vectors
        for v in VEC:
            img = self.phi(VEC_COMBO[v])
            if img.mask != VEC[v]:
                raise TableInconsistent(f"combo for vec {v} maps to {img.mask:06b}")
        # (b) the derived masks on A3, B3, C3 vanish on ker phi, and so the
        # maps are well defined (their degrees are lattice pairings by (d)),
        # exactly when appending them multiplies the image index by 2^6
        if subgroup_index(index_rows, 12) != 64 * self.image_index:
            raise TableInconsistent(
                "the restrictions to A3, B3, C3 are not well defined on the image of phi")
        # (e) the filling rule's labels: 00 on a curve that a generator misses
        # or is, and 00, 01, 10, 11 once each at the four meeting points
        for f in BOUNDARY:
            blocks = [self.block[g, f] for g in GENERATORS]
            if (sorted(m for deg, m in blocks if deg > 0) != [0, 1, 2, 3]
                    or any(m for deg, m in blocks if deg <= 0)):
                raise TableInconsistent(f"the labels on {f} break the filling rule")


@lru_cache(maxsize=64)
def _torsion_solution(target: int) -> tuple[str, ...]:
    """Names of the VEC basis vectors summing to the mask target."""
    names = tuple(VEC)
    return tuple(names[i] for i in gf2_solve([VEC[v] for v in names], target))


def build_generator_table(ksq: int, variant: str = "plain") -> GeneratorTable:
    """Built once per (ksq, variant), however the variant is passed."""
    return _standard_table(ksq, variant)


@lru_cache(maxsize=None)
def _standard_table(ksq: int, variant: str) -> GeneratorTable:
    return GeneratorTable(standard_config(ksq, variant))


def table_to_text(table: GeneratorTable) -> str:
    """Key-value dump of the 12 x 6 restriction blocks, one per line."""
    lines = []
    for g in GENERATORS:
        for f in BOUNDARY:
            deg, m = table.block[(g, f)]
            lines.append(f"{g} {f} {deg} {m:02b}")
    return "\n".join(lines) + "\n"


def table_override_from_text(text: str) -> dict[tuple[str, str], tuple[int, int]]:
    """Parse a block-table dump; unknown or repeated labels, bad lines reject."""
    out: dict[tuple[str, str], tuple[int, int]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ValueError(f"bad table line {raw!r}")
        g, f, deg, bits = fields
        if g not in GENERATORS or f not in BOUNDARY or (g, f) in out:
            raise ValueError(f"unknown or repeated labels in {raw!r}")
        if not re.fullmatch(r"-?\d+", deg):
            raise ValueError(f"bad degree in {raw!r}")
        if not re.fullmatch(r"[01][01]", bits):
            raise ValueError(f"bad bits in {raw!r}")
        out[(g, f)] = (int(deg), int(bits, 2))
    return out


def picard_image_index(cfg: BurniatConfig) -> int:
    """Index of the image of the full Picard group, by covolume.

    The free part of the Picard group maps onto an index-3 sublattice: the
    determinant of the coordinate map D -> (D.(-K), D.E_s, D.e_i) on the
    unimodular lattice Pic Y', 3 for every configuration.  The torsion maps
    onto the orthogonal complement of the point vectors, so the index is
    3 * 2^(6 - dim).  For K^2 >= 3 this agrees with GeneratorTable.image_index;
    for K^2 = 2 the twelve curves and the E_s only generate a subgroup of
    twice this index (the span of the ramification divisors has index 2 in
    Pic Y').
    """
    minus_k = -canonical_class(cfg.lattice)
    basis = [cfg.lattice.h()] + [cfg.lattice.e(i) for i in range(1, 4 + cfg.k)]
    rows = [[b.dot(minus_k)] + [b.dot(cfg.exceptional(s)) for s in range(cfg.k)]
            + [b.dot(cfg.pullback(CURVE_CLASS[f])) for f in ("A0", "B0", "C0")]
            for b in basis]
    idx = lattice_index(rows, 4 + cfg.k)
    if idx is None:
        raise TableInconsistent(f"coordinate map of K^2={cfg.ksq} is not of full rank")
    return idx * 2 ** (6 - len(torsion_subgroup(cfg)))
