"""Coordinate model for the Picard group of a Burniat surface.

A divisor class L is encoded as an XClass

    (d; rA tA; rB tB; rC tC; m_1..m_k)

where d = L.K, m_s = L.(E_s/2) (absent for K^2 = 6), and each boundary block
(r, t) is the restriction of L to the marked elliptic curve A0/B0/C0: r is the
degree and t in {00, 10, 01, 11} names the 2-torsion summand relative to the
curve's four marked points.

The twelve configuration curves generate the group; their restriction blocks
form the generator table.  The table is produced by one filling rule:

* G restricts to (1, label of the meeting point) on a boundary curve it meets,
* to (0, 00) on a disjoint boundary curve (a rigid curve cannot restrict to a
  nonzero torsion bundle on a curve it misses: its unique section would give
  the torsion bundle a section), and
* to (-1, 00) on itself (adjunction against a canonical class with trivial
  torsion data).

A construction-time consistency suite cross-checks the rule: the printed
torsion vectors of the six standard difference divisors, kernel consistency
of the derived A3/B3/C3 restriction maps, the spanning property of the
torsion vectors, the image index 3 for K^2 = 6, and agreement of every block
degree with the lattice pairing.

phi and column work on integers.  Once the blocks are fixed (including any
override) the table packs each generator into one flat row (d, the three
block degrees, a 6-bit torsion mask, emult) and each (generator, boundary
curve) block into a (deg, 2-bit mask) pair; a combination is summed with
integer products and an XOR of the masks of its odd coefficients, and only
the result is built as an XClass or Block.  preimage_combo corrects torsion
bits against the constant basis VEC, so its GF(2) solve has only 64 targets
and is memoised per target; every call still checks its combo against x.

restrictions(x) gives the (deg, 2-bit mask) of a K^2 = 6 class on all six
boundary curves without building a combo.  The degrees are integer rows of
the numerical class y = (n_h, n_1, n_2, n_3): the block degrees on A0, B0,
C0, and the pairings n_h - r_j - r_k on A3, B3, C3.  The masks are read from
a per-table dict keyed by (y mod 2, x.bits), 16 * 64 = 1,024 keys, filled on
a miss from preimage_combo and column.  The key is exact: a column mask is
the XOR of the masks of the odd coefficients of the combo, and the parities
of preimage_combo(x) depend only on the key, since its base combo is linear
in y and its correction is the torsion solution of x.bits plus the bits of
the base, which are again a function of y mod 2.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .lattice import (YClass, MixedGroup, canonical_class,
                      subgroup_index)
from .linalg import (bits_add, bits_scale, gf2_echelon, gf2_left_null,
                     gf2_nullspace, gf2_solve, left_kernel)
from .config import (BurniatConfig, BOUNDARY, GENERATORS, CURVE_CLASS,
                     standard_config)


class NotARepresentableClass(ValueError):
    """Coordinates outside the image subgroup."""


class NotLiftable(ValueError):
    """Divisor with odd exceptional coefficients has no canonical lift."""


class TableInconsistent(AssertionError):
    """The generator table failed its construction-time consistency suite."""


# ---------------------------------------------------------------------------
# Boundary blocks and classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    """Element (deg, bits) of Z.P00 + F[2] on one boundary elliptic curve."""

    deg: int
    bits: tuple[int, int]

    def __add__(self, other: "Block") -> "Block":
        return Block(self.deg + other.deg, bits_add(self.bits, other.bits))

    def __sub__(self, other: "Block") -> "Block":
        a, b = self.bits
        c, e = other.bits
        return Block(self.deg - other.deg, (a ^ c, b ^ e))

    def scaled(self, n: int) -> "Block":
        return Block(n * self.deg, bits_scale(n, self.bits))

    def is_zero(self) -> bool:
        return self.deg == 0 and self.bits == (0, 0)


ZERO_BLOCK = Block(0, (0, 0))

# torsion label (b0, b1) of a block <-> its 2-bit mask 2*b0 + b1
_PAIR = ((0, 0), (0, 1), (1, 0), (1, 1))


def _mask(bits: tuple[int, ...]) -> int:
    """Bit-vector as an int, first entry most significant."""
    m = 0
    for b in bits:
        m = 2 * m + (b & 1)
    return m


@dataclass(frozen=True)
class XClass:
    """A class in the coordinate model; emult is empty when K^2 = 6."""

    d: int
    blocks: tuple[Block, Block, Block]
    emult: tuple[int, ...] = ()

    @property
    def bits(self) -> tuple[int, ...]:
        return self.blocks[0].bits + self.blocks[1].bits + self.blocks[2].bits

    def __add__(self, other: "XClass") -> "XClass":
        return XClass(self.d + other.d,
                      tuple(a + b for a, b in zip(self.blocks, other.blocks)),
                      tuple(a + b for a, b in zip(self.emult, other.emult)))

    def __sub__(self, other: "XClass") -> "XClass":
        a0, a1, a2 = self.blocks
        b0, b1, b2 = other.blocks
        return XClass(self.d - other.d, (a0 - b0, a1 - b1, a2 - b2),
                      tuple(a - b for a, b in zip(self.emult, other.emult)))

    def is_zero(self) -> bool:
        return (self.d == 0 and all(b.is_zero() for b in self.blocks)
                and not any(self.emult))

    def __str__(self) -> str:
        return xclass_to_text(self)


def xclass_to_text(x: XClass) -> str:
    parts = [str(x.d)]
    parts += [f"{b.deg} {b.bits[0]}{b.bits[1]}" for b in x.blocks]
    if x.emult:
        parts.append(",".join(str(m) for m in x.emult))
    return "(" + "; ".join(parts) + ")"


_X_RE = re.compile(r"^\(\s*(-?\d+)\s*;([^;]+);([^;]+);([^;)]+)(?:;([^)]+))?\)$")


def parse_xclass(text: str) -> XClass:
    """Parse the bit-exact literal, e.g. ``(3; 1 10; 1 10; 1 10)``."""
    m = _X_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse class literal {text!r}")
    d = int(m.group(1))
    blocks = []
    for part in m.groups()[1:4]:
        fields = part.split()
        if len(fields) != 2 or not re.fullmatch(r"[01][01]", fields[1]):
            raise ValueError(f"bad block {part!r} in {text!r}")
        blocks.append(Block(int(fields[0]), (int(fields[1][0]), int(fields[1][1]))))
    emult: tuple[int, ...] = ()
    if m.group(5) is not None:
        emult = tuple(int(v) for v in m.group(5).split(","))
    return XClass(d, tuple(blocks), emult)


# ---------------------------------------------------------------------------
# Marked points and torsion vectors
# ---------------------------------------------------------------------------

# For each boundary curve F, the curves meeting it and the 2-torsion label of
# the meeting point.  P00 is the intersection with the odd-coloured curve out
# of the four; the labels on A3, B3, C3 mirror those on A0, B0, C0 under the
# 0<->3 swap.
MEET: dict[str, dict[str, tuple[int, int]]] = {
    "A0": {"B3": (0, 0), "C3": (1, 0), "C1": (0, 1), "C2": (1, 1)},
    "B0": {"C3": (0, 0), "A3": (1, 0), "A1": (0, 1), "A2": (1, 1)},
    "C0": {"A3": (0, 0), "B3": (1, 0), "B1": (0, 1), "B2": (1, 1)},
    "A3": {"B0": (0, 0), "C0": (1, 0), "C1": (0, 1), "C2": (1, 1)},
    "B3": {"C0": (0, 0), "A0": (1, 0), "A1": (0, 1), "A2": (1, 1)},
    "C3": {"A0": (0, 0), "B0": (1, 0), "B1": (0, 1), "B2": (1, 1)},
}

# Basis vectors of V = F_2^6, blocked (A0 | B0 | C0).
VEC = {
    "A1": (0, 0, 1, 0, 0, 0),
    "A2": (0, 0, 1, 1, 0, 0),
    "B1": (0, 0, 0, 0, 1, 0),
    "B2": (0, 0, 0, 0, 1, 1),
    "C1": (1, 0, 0, 0, 0, 0),
    "C2": (1, 1, 0, 0, 0, 0),
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

VEC_ORDER = ("A1", "A2", "B1", "B2", "C1", "C2")


def point_vector(point: tuple[str, str, str]) -> tuple[int, ...]:
    v = (0,) * 6
    for label in point:
        v = bits_add(v, VEC[label])
    return v


def torsion_subgroup(cfg: BurniatConfig) -> list[tuple[int, ...]]:
    """Echelon basis of the orthogonal complement of the point vectors."""
    return gf2_nullspace([point_vector(p) for p in cfg.points], 6)


# ---------------------------------------------------------------------------
# Generator table
# ---------------------------------------------------------------------------

class GeneratorTable:
    """Restriction data of the 12 curve generators (and E_s rows) on Y'.

    Read-only after construction; construction runs the consistency suite and
    raises TableInconsistent on any failure.
    """

    def __init__(self, cfg: BurniatConfig,
                 block_override: dict[tuple[str, str], Block] | None = None):
        self.cfg = cfg
        self.k = cfg.k
        minus_k = -canonical_class(cfg.lattice)
        self.degree = {g: cfg.strict_transform(g).dot(minus_k) for g in GENERATORS}
        self.emult = {
            g: tuple(1 if s in cfg.points_on(g) else 0 for s in range(cfg.k))
            for g in GENERATORS
        }
        self.block: dict[tuple[str, str], Block] = {}
        for g in GENERATORS:
            for f in BOUNDARY:
                if g == f:
                    blk = Block(-1, (0, 0))
                elif g in MEET[f]:
                    blk = Block(1, MEET[f][g])
                else:
                    blk = ZERO_BLOCK
                self.block[(g, f)] = blk
        if block_override:
            self.block.update(block_override)
        self._rows = {g: XClass(self.degree[g],
                                tuple(self.block[(g, f)] for f in ("A0", "B0", "C0")),
                                self.emult[g])
                      for g in GENERATORS}
        # integer kernel of phi: (d, deg A0, deg B0, deg C0, 6-bit mask, emult)
        self._int_rows = {g: (x.d, *(b.deg for b in x.blocks), _mask(x.bits), x.emult)
                          for g, x in self._rows.items()}
        # integer kernel of column: per boundary curve, g -> (deg, 2-bit mask)
        self._columns = {f: {g: (self.block[(g, f)].deg, _mask(self.block[(g, f)].bits))
                             for g in GENERATORS}
                         for f in BOUNDARY}
        # (y mod 2, x.bits) -> 2-bit masks on the six boundary curves, filled
        # by restrictions on a miss; at most 1,024 entries
        self._restriction_masks: dict[tuple, tuple[int, ...]] = {}
        self._check_consistency()

    # -- generator images ---------------------------------------------------

    def row(self, g: str) -> XClass:
        return self._rows[g]

    def e_row(self, s: int) -> XClass:
        return XClass(2, (ZERO_BLOCK,) * 3,
                      tuple(-2 if t == s else 0 for t in range(self.k)))

    def phi(self, combo: dict[str, int],
            e_combo: dict[int, int] | None = None) -> XClass:
        """Image of an integer combination of generators (and E_s)."""
        d = r0 = r1 = r2 = mask = 0
        em = [0] * self.k
        rows = self._int_rows
        for g, c in combo.items():
            if c == 0:
                continue
            gd, g0, g1, g2, gmask, gem = rows[g]
            d += c * gd
            r0 += c * g0
            r1 += c * g1
            r2 += c * g2
            if c & 1:
                mask ^= gmask
            if gem:
                em = [a + c * b for a, b in zip(em, gem)]
        for s, c in (e_combo or {}).items():
            if not 0 <= s < self.k:
                raise ValueError(f"no exceptional curve E{s} for K^2 = {6 - self.k}")
            d += 2 * c
            em[s] -= 2 * c
        return XClass(d, (Block(r0, _PAIR[mask >> 4]), Block(r1, _PAIR[mask >> 2 & 3]),
                          Block(r2, _PAIR[mask & 3])), tuple(em))

    def combo_y_class(self, combo: dict[str, int],
                      e_combo: dict[int, int] | None = None) -> YClass:
        cls = self.cfg.lattice.zero()
        for g, c in combo.items():
            cls = cls + c * self.cfg.strict_transform(g)
        for s, c in (e_combo or {}).items():
            cls = cls + c * self.cfg.exceptional(s)
        return cls

    def column(self, combo: dict[str, int], f: str) -> Block:
        """Restriction of a generator combination to the boundary curve f."""
        deg = mask = 0
        col = self._columns[f]
        for g, c in combo.items():
            gdeg, gmask = col[g]
            deg += c * gdeg
            if c & 1:
                mask ^= gmask
        return Block(deg, _PAIR[mask])

    # -- K^2 = 6 specific queries --------------------------------------------

    def to_y(self, x: XClass) -> YClass:
        """Numerical class underlying x (K^2 = 6 model)."""
        if self.k:
            raise NotARepresentableClass("Y-class recovery is the K^2=6 model")
        if x.emult:
            raise NotARepresentableClass(f"{x} has an exceptional part; K^2 = 6 has none")
        b0, b1, b2 = x.blocks
        nh, rest = divmod(x.d + b0.deg + b1.deg + b2.deg, 3)
        if rest:
            raise NotARepresentableClass(f"congruence fails for {x}")
        return YClass((nh, -b0.deg, -b1.deg, -b2.deg))

    def from_y(self, cls: YClass, bits: tuple[int, ...] = (0,) * 6) -> XClass:
        # d = cls.(-K) with -K = 3h - e1 - e2 - e3, and the block degrees are
        # cls.A0, cls.B0, cls.C0 with A0, B0, C0 = e1, e2, e3
        nh, n1, n2, n3 = cls.coeffs
        return XClass(3 * nh + n1 + n2 + n3,
                      (Block(-n1, (bits[0], bits[1])), Block(-n2, (bits[2], bits[3])),
                       Block(-n3, (bits[4], bits[5]))))

    def preimage_combo(self, x: XClass) -> dict[str, int]:
        """Some integer generator combination with phi(combo) == x (K^2 = 6)."""
        cls = self.to_y(x)
        nh, n1, n2, n3 = cls.coeffs
        combo = {"A3": nh, "B0": nh + n2, "C0": nh + n3, "A0": n1}
        base = self.phi(combo)
        if self.to_y(base) != cls:
            raise TableInconsistent(f"base combo {combo} does not lie over {cls}")
        correction = _torsion_solution(bits_add(x.bits, base.bits))
        if correction is None:
            raise TableInconsistent("torsion vectors do not span V")
        for v in correction:
            for g, c in VEC_COMBO[v].items():
                combo[g] = combo.get(g, 0) + c
        if self.phi(combo) != x:
            raise TableInconsistent(f"preimage combo {combo} does not map to {x}")
        return combo

    def restrictions(self, x: XClass) -> tuple[tuple[int, int], ...]:
        """(deg, 2-bit mask) of x on each boundary curve in BOUNDARY order
        (K^2 = 6); the mask of a block with bits (b0, b1) is 2 * b0 + b1."""
        nh, n1, n2, n3 = self.to_y(x).coeffs
        b0, b1, b2 = x.blocks
        key = (nh & 1, n1 & 1, n2 & 1, n3 & 1, b0.bits, b1.bits, b2.bits)
        masks = self._restriction_masks.get(key)
        if masks is None:
            combo = self.preimage_combo(x)
            masks = tuple(_mask(self.column(combo, f).bits) for f in BOUNDARY)
            self._restriction_masks[key] = masks
        m0, m1, m2, m3, m4, m5 = masks
        # the pairings with A0, B0, C0 = e1, e2, e3 and with
        # A3, B3, C3 = h - e2 - e3, h - e1 - e3, h - e1 - e2
        return ((-n1, m0), (-n2, m1), (-n3, m2),
                (nh + n2 + n3, m3), (nh + n1 + n3, m4), (nh + n1 + n2, m5))

    def restrict(self, x: XClass, f: str) -> Block:
        """Restriction of x to any of the six boundary curves (K^2 = 6)."""
        if f not in BOUNDARY:
            raise ValueError(f"unknown boundary curve {f}")
        deg, mask = self.restrictions(x)[BOUNDARY.index(f)]
        return Block(deg, _PAIR[mask])

    def intersect_x(self, x: XClass, y: XClass) -> int:
        return self.to_y(x).dot(self.to_y(y))

    def pairing(self, x: XClass, f: str) -> int:
        """Intersection of x with the boundary curve f (K^2 = 6)."""
        nh, n1, n2, n3 = self.to_y(x).coeffs
        ch, c1, c2, c3 = CURVE_CLASS[f].coeffs
        return nh * ch - n1 * c1 - n2 * c2 - n3 * c3

    def canonical(self) -> XClass:
        """The canonical class (6; 1 00; 1 00; 1 00) [+ zero e-part]."""
        return XClass(6, (Block(1, (0, 0)),) * 3, (0,) * self.k)

    # -- consistency suite ----------------------------------------------------

    def generator_elements(self):
        group = MixedGroup(4 + self.k, 6)
        elems = []
        for g in GENERATORS:
            x = self.row(g)
            elems.append(group.element((x.d,) + x.emult + tuple(b.deg for b in x.blocks),
                                       x.bits))
        for s in range(self.k):
            x = self.e_row(s)
            elems.append(group.element((x.d,) + x.emult + tuple(b.deg for b in x.blocks),
                                       x.bits))
        return group, elems

    def image_index(self) -> int | None:
        group, elems = self.generator_elements()
        return subgroup_index(elems, group)

    def _kernel_combos(self) -> list[dict[str, int]]:
        """Generators of {combos : phi(combo) == 0} over the 12+k generators."""
        labels = list(GENERATORS) + [f"E{s}" for s in range(self.k)]
        rows = []
        for g in GENERATORS:
            x = self.row(g)
            rows.append([x.d, *x.emult, *(b.deg for b in x.blocks)])
        for s in range(self.k):
            x = self.e_row(s)
            rows.append([x.d, *x.emult, *(b.deg for b in x.blocks)])
        free_kernel = left_kernel(rows, 4 + self.k)
        bit_rows = [self.row(g).bits for g in GENERATORS]
        bit_rows += [(0,) * 6 for _ in range(self.k)]
        # torsion image of each free-kernel vector
        reduced = []
        for kv in free_kernel:
            b = (0,) * 6
            for c, row in zip(kv, bit_rows):
                b = bits_add(b, bits_scale(c, row))
            reduced.append(b)
        combos: list[dict[str, int]] = []
        # doubles of the free kernel always lie in the full kernel
        for kv in free_kernel:
            combos.append({lab: 2 * c for lab, c in zip(labels, kv) if c})
        # plus lifts of the left nullspace of the induced torsion map
        for sol in gf2_left_null(reduced):
            combo: dict[str, int] = {}
            for t, kv in zip(sol, free_kernel):
                if t:
                    for lab, c in zip(labels, kv):
                        if c:
                            combo[lab] = combo.get(lab, 0) + c
            if combo:
                combos.append(combo)
        return combos

    def _check_consistency(self) -> None:
        # (d) degrees match lattice pairings
        minus_k = -canonical_class(self.cfg.lattice)
        for g in GENERATORS:
            sg = self.cfg.strict_transform(g)
            if self.degree[g] != sg.dot(minus_k):
                raise TableInconsistent(f"degree of {g} disagrees with the lattice")
            for f in BOUNDARY:
                if self.block[(g, f)].deg != sg.dot(self.cfg.strict_transform(f)):
                    raise TableInconsistent(
                        f"block degree ({g},{f}) disagrees with the lattice")
        # (a) the six standard difference combos hit the basis vectors
        for v in VEC_ORDER:
            img = self.phi(VEC_COMBO[v])
            if img.bits != VEC[v]:
                raise TableInconsistent(f"combo for vec {v} maps to {img.bits}")
            if self.k == 0 and (img.d != 0 or any(b.deg for b in img.blocks)):
                raise TableInconsistent(f"combo for vec {v} is not torsion")
        # (c) the basis vectors span V; index 3 for K^2 = 6
        if len(gf2_echelon([VEC[v] for v in VEC_ORDER])) != 6:
            raise TableInconsistent("torsion vectors do not span")
        if self.k == 0 and self.image_index() != 3:
            raise TableInconsistent(f"image index {self.image_index()} != 3")
        # (b) kernel combos restrict to zero on A3, B3, C3
        for combo in self._kernel_combos():
            gen_part = {g: c for g, c in combo.items() if not g.startswith("E")}
            img = self.phi(gen_part,
                           {int(g[1:]): c for g, c in combo.items() if g.startswith("E")})
            if not img.is_zero():
                raise TableInconsistent("kernel generator does not map to zero")
            for f in ("A3", "B3", "C3"):
                if not self.column(gen_part, f).is_zero():
                    raise TableInconsistent(
                        f"kernel combo has nonzero restriction on {f}")


@lru_cache(maxsize=64)
def _torsion_solution(target: tuple[int, ...]) -> tuple[str, ...] | None:
    """Names of the VEC basis vectors summing to target, or None."""
    sol = gf2_solve([VEC[v] for v in VEC_ORDER], target)
    if sol is None:
        return None
    return tuple(v for eps, v in zip(sol, VEC_ORDER) if eps)


@lru_cache(maxsize=None)
def build_generator_table(ksq: int, variant: str = "plain") -> GeneratorTable:
    return GeneratorTable(standard_config(ksq, variant))


def table_to_text(table: GeneratorTable) -> str:
    """Key-value dump of the 12 x 6 restriction blocks, one per line."""
    lines = []
    for g in GENERATORS:
        for f in BOUNDARY:
            b = table.block[(g, f)]
            lines.append(f"{g} {f} {b.deg} {b.bits[0]}{b.bits[1]}")
    return "\n".join(lines) + "\n"


def table_override_from_text(text: str) -> dict[tuple[str, str], Block]:
    """Parse a block-table dump; unknown labels or malformed lines reject."""
    out: dict[tuple[str, str], Block] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 4:
            raise ValueError(f"bad table line {raw!r}")
        g, f, deg, bits = fields
        if g not in GENERATORS or f not in BOUNDARY:
            raise ValueError(f"unknown labels in {raw!r}")
        if not re.fullmatch(r"[01][01]", bits):
            raise ValueError(f"bad bits in {raw!r}")
        out[(g, f)] = Block(int(deg), (int(bits[0]), int(bits[1])))
    return out


def image_index(cfg: BurniatConfig) -> int | None:
    return GeneratorTable(cfg).image_index()


def coordinate_map_index(cfg: BurniatConfig) -> int:
    """Index in Z^(4+k) of the image of the full lattice Pic Y'.

    This is the determinant of the coordinate map D -> (D.(-K), D.E_s, D.e_i);
    it equals 3 for every configuration.
    """
    minus_k = -canonical_class(cfg.lattice)
    boundary3 = [CURVE_CLASS[f] for f in ("A0", "B0", "C0")]
    rows = []
    basis = [cfg.lattice.h()] + [cfg.lattice.e(i) for i in range(1, 4 + cfg.k)]
    for b in basis:
        rows.append([b.dot(minus_k)]
                    + [b.dot(cfg.exceptional(s)) for s in range(cfg.k)]
                    + [b.dot(cfg.pullback(c)) for c in boundary3])
    from .linalg import lattice_index
    idx = lattice_index(rows, 4 + cfg.k)
    if idx is None:
        raise TableInconsistent(f"coordinate map of K^2={cfg.ksq} is not of full rank")
    return idx


def picard_image_index(cfg: BurniatConfig) -> int:
    """Index of the image of the full Picard group, by covolume.

    The free part of the Picard group maps onto an index-3 sublattice (the
    coordinate map determinant on a unimodular lattice) and the torsion maps
    onto the orthogonal complement of the point vectors, so the index is
    3 * 2^(6 - dim).  For K^2 >= 3 this agrees with image_index; for K^2 = 2
    the twelve curves and the E_s only generate a subgroup of twice this
    index (the span of the ramification divisors has index 2 in Pic Y').
    """
    return coordinate_map_index(cfg) * 2 ** (6 - len(torsion_subgroup(cfg)))


def canonical_lift(cfg: BurniatConfig, combo: dict[str, int],
                   e_coeffs: dict[int, int] | None = None) -> XClass:
    """Lift of a Y'-divisor sum(c_g G') + sum(e_s E_s) with all e_s even."""
    e_coeffs = e_coeffs or {}
    for s, c in e_coeffs.items():
        if c % 2:
            raise NotLiftable(f"coefficient {c} of E_{s} is odd")
    table = GeneratorTable(cfg)
    return table.phi(combo, {s: c // 2 for s, c in e_coeffs.items()})
