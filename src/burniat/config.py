"""Six Burniat branch configurations (five values of K^2) and their blowups.

Twelve labelled curves live on Bl_3 P^2: for each letter X in {A, B, C},
X0 and X3 are (-1)-curves and X1, X2 are fibres of one ruling.  The class
assignment is pinned as

    A0 = e1, B0 = e2, C0 = e3,
    A3 = h-e2-e3, B3 = h-e1-e3, C3 = h-e1-e2,
    A1, A2 in |h-e2|,  B1, B2 in |h-e3|,  C1, C2 in |h-e1|,

which realises the incidences A0 meets exactly {B3, C3, C1, C2} and so on
cyclically (A -> B -> C); any other assignment with these incidences differs
by a relabelling symmetry.

A configuration with K^2 = 6-k blows up k triple points P_s = A_i B_j C_l
with i, j, l in {1, 2}; the blown-up surface Y' has lattice rank 4+k with
exceptional classes E_s appended after e_3.
"""
from __future__ import annotations

import re
from typing import NamedTuple

from .lattice import SurfaceLattice, YClass, canonical_class
from .linalg import lattice_index


class InvalidBuildingData(ValueError):
    """Branch divisors whose building bundles L_i are not integral classes."""


LETTERS = ("A", "B", "C")
GENERATORS = ("A0", "A1", "A2", "A3",
              "B0", "B1", "B2", "B3",
              "C0", "C1", "C2", "C3")
BOUNDARY = ("A0", "B0", "C0", "A3", "B3", "C3")
INTERNAL = ("A1", "A2", "B1", "B2", "C1", "C2")

CURVE_CLASS = {
    "A0": YClass((0, 1, 0, 0)),
    "A1": YClass((1, 0, -1, 0)),
    "A2": YClass((1, 0, -1, 0)),
    "A3": YClass((1, 0, -1, -1)),
    "B0": YClass((0, 0, 1, 0)),
    "B1": YClass((1, 0, 0, -1)),
    "B2": YClass((1, 0, 0, -1)),
    "B3": YClass((1, -1, 0, -1)),
    "C0": YClass((0, 0, 0, 1)),
    "C1": YClass((1, -1, 0, 0)),
    "C2": YClass((1, -1, 0, 0)),
    "C3": YClass((1, -1, -1, 0)),
}


_STANDARD_POINTS = {
    (6, "plain"): (),
    (5, "plain"): (("A1", "B1", "C1"),),
    (4, "nodal"): (("A1", "B1", "C1"), ("A1", "B2", "C2")),
    (4, "non-nodal"): (("A1", "B1", "C1"), ("A2", "B2", "C2")),
    (3, "plain"): (("A1", "B1", "C2"), ("A1", "B2", "C1"), ("A2", "B1", "C1")),
    (2, "plain"): (("A1", "B1", "C1"), ("A1", "B2", "C2"),
                   ("A2", "B1", "C2"), ("A2", "B2", "C1")),
}

# the six (K^2, variant) cases, in decreasing K^2
STANDARD_CASES = tuple(_STANDARD_POINTS)


class BurniatConfig(NamedTuple):
    """One branch configuration: K^2, variant and the blown-up triple points."""

    ksq: int
    variant: str
    points: tuple[tuple[str, str, str], ...]

    @property
    def k(self) -> int:
        """Number of blown-up points P_s."""
        return len(self.points)

    @property
    def lattice(self) -> SurfaceLattice:
        """Pic Y' with basis h, e_1..e_3, E_1..E_k."""
        return SurfaceLattice(3 + self.k)

    def points_on(self, label: str) -> tuple[int, ...]:
        return tuple(s for s, p in enumerate(self.points) if label in p)

    def exceptional(self, s: int) -> YClass:
        c = [0] * (4 + self.k)
        c[4 + s] = 1
        return YClass(tuple(c))

    def pullback(self, cls3: YClass) -> YClass:
        return YClass(cls3.coeffs + (0,) * self.k)

    def strict_transform(self, label: str) -> YClass:
        cls = self.pullback(CURVE_CLASS[label])
        for s in self.points_on(label):
            cls = cls - self.exceptional(s)
        return cls

    def branch_total(self, letter: str) -> YClass:
        out = self.lattice.zero()
        for i in range(4):
            out = out + self.strict_transform(f"{letter}{i}")
        return out


def standard_config(ksq: int, variant: str = "plain") -> BurniatConfig:
    try:
        points = _STANDARD_POINTS[(ksq, variant)]
    except KeyError:
        known = ", ".join(v for k, v in STANDARD_CASES if k == ksq)
        hint = f"; K^2 = {ksq} has {known}" if known else ""
        raise ValueError(f"no Burniat configuration ({ksq}, {variant}){hint}") from None
    return BurniatConfig(ksq, variant, points)


def all_standard_configs() -> list[BurniatConfig]:
    return [standard_config(k, v) for (k, v) in STANDARD_CASES]


def make_config(points: list[tuple[str, str, str]], variant: str = "custom") -> BurniatConfig:
    """Configuration from explicit triple points, for experiments."""
    for i, p in enumerate(points):
        if len(p) != 3 or sorted(x[0] for x in p) != ["A", "B", "C"]:
            raise ValueError(f"point {p} is not one curve from each letter group")
        if any(x not in INTERNAL for x in p):
            raise ValueError(f"point {p} must lie on internal curves")
        for q in points[:i]:
            shared = sorted(set(p) & set(q))
            if len(shared) == 3:
                raise ValueError(f"point {' '.join(p)} is given twice")
            if len(shared) == 2:  # (h-e2).(h-e3) = 1 and cyclically
                raise ValueError(f"points {' '.join(q)} and {' '.join(p)} both lie "
                                 f"on {shared[0]} and {shared[1]}, which meet once")
    return BurniatConfig(6 - len(points), variant, tuple(points))


def validate_building_data(cfg: BurniatConfig) -> tuple[YClass, YClass, YClass]:
    """The bundles L_1, L_2, L_3 with 2L_1 = B'+C' etc., checked integral.

    Also checks the class-level relations L_2 + L_3 = L_1 + A' (cyclically)
    and A' + B' + C' = -3K.
    """
    totals = {letter: cfg.branch_total(letter) for letter in LETTERS}
    halves = {}
    for li, (x, y) in (("L1", ("B", "C")), ("L2", ("C", "A")), ("L3", ("A", "B"))):
        s = totals[x] + totals[y]
        if any(c % 2 for c in s.coeffs):
            raise InvalidBuildingData(f"{x}+{y} is not 2-divisible: {s}")
        halves[li] = YClass(tuple(c // 2 for c in s.coeffs))
    l1, l2, l3 = halves["L1"], halves["L2"], halves["L3"]
    rel = (
        l2 + l3 == l1 + totals["A"]
        and l3 + l1 == l2 + totals["B"]
        and l1 + l2 == l3 + totals["C"]
    )
    if not rel:
        raise InvalidBuildingData("fundamental relations fail")
    if totals["A"] + totals["B"] + totals["C"] != -3 * canonical_class(cfg.lattice):
        raise InvalidBuildingData("branch locus is not -3K")
    return l1, l2, l3


def minus_two_curves(cfg: BurniatConfig) -> list[YClass]:
    """Strict transforms of internal curves through at least two points P_s."""
    out = []
    for label in INTERNAL:
        if len(cfg.points_on(label)) >= 2:
            cls = cfg.strict_transform(label)
            if cls.dot(cls) != -2 or cls.dot(canonical_class(cfg.lattice)) != 0:
                raise InvalidBuildingData(f"{label} through two points is not a "
                                          f"(-2)-curve: {cls}")
            out.append(cls)
    return out


def ramification_span_index(cfg: BurniatConfig) -> int | None:
    """Index in Pic Y' of the span of the twelve strict transforms."""
    rows = [list(cfg.strict_transform(g).coeffs) for g in GENERATORS]
    return lattice_index(rows, 4 + cfg.k)


def config_from_text(text: str) -> BurniatConfig:
    ksq = None
    variant = None
    points: list[tuple[str, str, str]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if (key == "ksq" and ksq is not None) or (key == "variant" and variant is not None):
            raise ValueError(f"repeated key {key!r}")
        if key == "ksq":
            if not re.fullmatch(r"-?\d+", value):
                raise ValueError(f"bad ksq line: {raw!r}")
            ksq = int(value)
        elif key == "variant":
            variant = value
        elif key == "point":
            parts = tuple(value.split())
            if len(parts) != 3:
                raise ValueError(f"bad point line: {raw!r}")
            points.append(parts)  # type: ignore[arg-type]
        else:
            raise ValueError(f"unknown key {key!r}")
    if ksq is None:
        raise ValueError("missing ksq")
    cfg = make_config(points, variant or "custom")
    if cfg.ksq != ksq:
        raise ValueError(f"ksq={ksq} inconsistent with {len(points)} points")
    return cfg
