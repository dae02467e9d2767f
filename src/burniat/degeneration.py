"""The nonnormal semistable degenerate fibre and its exceptional collection.

The degenerate surface is a union of three smooth components glued along
elliptic curves; downstairs the three pieces are Bl_3 P^2, Bl_2 P^2 and
P^1 x P^1.  Three of the six boundary divisors stay irreducible (A0, A3, C0)
and three break into an elliptic plus a rational component (B0, B3, C3).
Line bundles on a broken boundary curve are handled through the norm map
that collapses the rational component to the node.

Class-level reductions on the degenerate fibre follow the same rules as on
a smooth fibre: an effective divisor D absorbs a boundary curve F whenever
D.F < 0, or D.F = 0 with nonzero restriction data on F; the degenerate
versions of these statements and of the corner-point vanishing are imported
as facts (their hypotheses are what this module computes), and the
negative-degree base case is valid because the canonical class of the
degenerate fibre is nef.  The images of the twelve Cartier divisors under
the degree-and-restrictions map phi0 coincide with the smooth table, which
is asserted generator by generator.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .picard import GeneratorTable, TableInconsistent, XClass, build_generator_table
from .effective import (InS, NonEffective, ReductionTrace, Verdict, chi,
                        decide, minimal_form, trace_text)

# ---------------------------------------------------------------------------
# Fibre contexts
# ---------------------------------------------------------------------------

REDUCIBLE_BOUNDARY = ("B0", "B3", "C3")
IRREDUCIBLE_BOUNDARY = ("A0", "A3", "C0")

# Self-intersections of the two pieces of each broken boundary curve on the
# components of the degenerate surface: (elliptic piece)^2 = 0 on its
# component, (rational piece)^2 = -1 on its component.
COMPONENT_SELF_INT = {
    curve: {"elliptic": 0, "rational": -1} for curve in REDUCIBLE_BOUNDARY
}


@dataclass(frozen=True)
class FiberContext:
    """Smooth fibre, or the degenerate fibre with its gluing data."""

    kind: str  # "smooth" | "degenerate"

    def __post_init__(self):
        if self.kind not in ("smooth", "degenerate"):
            raise ValueError(f"unknown fibre kind {self.kind!r}")

    @property
    def components(self) -> tuple[str, ...]:
        if self.kind == "smooth":
            return ()
        return ("Bl3P2", "Bl2P2", "P1xP1")

    @property
    def reducible_boundary(self) -> tuple[str, ...]:
        return REDUCIBLE_BOUNDARY if self.kind == "degenerate" else ()

    @property
    def canonical_is_ample(self) -> bool:
        # on the degenerate fibre the canonical class is nef but not ample
        return self.kind == "smooth"

    def reduction_reasons(self) -> dict[str, str]:
        if self.kind == "smooth":
            return {"negative": "negative", "torsion": "torsion"}
        return {"negative": "negative(component-splitting)",
                "torsion": "torsion(norm-map)"}


SMOOTH = FiberContext("smooth")
DEGENERATE = FiberContext("degenerate")


# ---------------------------------------------------------------------------
# Bundles on a broken boundary curve and the norm map
# ---------------------------------------------------------------------------

TORSION_MARKS = ("00", "10", "01", "11")


@dataclass(frozen=True)
class ReducibleCurveBundle:
    """Line bundle on a two-component tree curve C = C' (elliptic) + C''.

    Represented as a formal sum of marked nonsingular points: the four
    2-torsion marks on C' and a floating smooth point Q on C''.  The node is
    not a legal support point (it is singular on C).
    """

    points: tuple[tuple[str, str, int], ...]  # (component, mark, multiplicity)

    @staticmethod
    def of(points: dict[tuple[str, str], int]) -> "ReducibleCurveBundle":
        for (comp, mark), _ in points.items():
            if comp == "elliptic":
                if mark not in TORSION_MARKS:
                    raise ValueError(f"unknown elliptic mark {mark!r}")
            elif comp == "rational":
                if mark != "Q":
                    raise ValueError(f"unknown rational mark {mark!r}")
            else:
                raise ValueError(f"unknown component {comp!r}")
        items = tuple(sorted((c, m, v) for (c, m), v in points.items() if v))
        return ReducibleCurveBundle(items)

    @property
    def degree_elliptic(self) -> int:
        return sum(v for c, _, v in self.points if c == "elliptic")

    @property
    def degree_rational(self) -> int:
        return sum(v for c, _, v in self.points if c == "rational")

    def __add__(self, other: "ReducibleCurveBundle") -> "ReducibleCurveBundle":
        acc: Counter = Counter()
        for c, m, v in self.points + other.points:
            acc[(c, m)] += v
        return ReducibleCurveBundle.of(dict(acc))


@dataclass(frozen=True)
class EllipticBundle:
    """Line bundle on the elliptic component: formal sum over the four
    2-torsion marks and the node N."""

    points: tuple[tuple[str, int], ...]

    @staticmethod
    def of(points: dict[str, int]) -> "EllipticBundle":
        for mark in points:
            if mark not in TORSION_MARKS + ("N",):
                raise ValueError(f"unknown mark {mark!r}")
        return EllipticBundle(tuple(sorted((m, v) for m, v in points.items() if v)))

    @property
    def degree(self) -> int:
        return sum(v for _, v in self.points)

    @property
    def torsion_bits(self) -> tuple[int, int]:
        """2-torsion part relative to the origin mark 00."""
        b = (0, 0)
        for m, v in self.points:
            if m in TORSION_MARKS and v % 2:
                b = ((b[0] + int(m[0])) & 1, (b[1] + int(m[1])) & 1)
        return b

    @property
    def node_multiplicity(self) -> int:
        return sum(v for m, v in self.points if m == "N")

    def __add__(self, other: "EllipticBundle") -> "EllipticBundle":
        acc: Counter = Counter()
        for m, v in self.points + other.points:
            acc[m] += v
        return EllipticBundle.of(dict(acc))


def norm_pushforward(b: ReducibleCurveBundle) -> EllipticBundle:
    """Collapse the rational component to the node: points on the elliptic
    component map identically, points on the rational component map to N."""
    acc: Counter = Counter()
    for comp, mark, v in b.points:
        acc[mark if comp == "elliptic" else "N"] += v
    return EllipticBundle.of(dict(acc))


# ---------------------------------------------------------------------------
# phi0 and degenerate reductions
# ---------------------------------------------------------------------------

def phi0(table: GeneratorTable, combo: dict[str, int]) -> XClass:
    """Degree-and-restrictions image of a Cartier combination on the
    degenerate fibre; identical to the smooth map by construction, which
    assert_table_identity checks generator by generator."""
    return table.phi(combo)


def assert_table_identity(table: GeneratorTable) -> None:
    for g in table.degree:
        if phi0(table, {g: 1}) != table.phi({g: 1}):
            raise TableInconsistent(f"phi0 and phi differ on {g}")


def reduce_degenerate(table: GeneratorTable, x: XClass) -> tuple[XClass, ReductionTrace]:
    """Base-locus reduction on the degenerate fibre.

    The engine is the smooth one; the rules carry over verbatim (the two
    subtraction statements hold on the degenerate fibre, their hypotheses
    are computed here at class level).  Traces keep the canonical reason
    tags so they re-validate; reports relabel them per context.
    """
    return minimal_form(table, x)


# ---------------------------------------------------------------------------
# The exceptional collection
# ---------------------------------------------------------------------------

# The six line bundles, as integer combinations of the Cartier divisors.
# L2 is the 0<->3 letter mirror of L1; its image is the corner-vanishing
# class (3; 1 10; 1 10; 1 10).
COLLECTION: dict[int, dict[str, int]] = {
    1: {"A3": 1, "B0": 1, "C0": 1, "A1": 1, "A2": -1},
    2: {"A0": 1, "B3": 1, "C3": 1, "A1": 1, "A2": -1},
    3: {"C2": 1, "A2": 1, "C0": -1, "A3": -1},
    4: {"B2": 1, "C2": 1, "B0": -1, "C3": -1},
    5: {"A2": 1, "B2": 1, "A0": -1, "B3": -1},
    6: {},
}


@dataclass
class PairRow:
    i: int
    j: int
    chi: int
    forward: Verdict
    serre: Verdict

    @property
    def passed(self) -> bool:
        return (self.chi == 0 and isinstance(self.forward, NonEffective)
                and isinstance(self.serre, NonEffective))


@dataclass
class SelfRow:
    i: int
    chi_self: int
    canonical: Verdict

    @property
    def passed(self) -> bool:
        return self.chi_self == 1 and isinstance(self.canonical, NonEffective)


@dataclass
class PairReport:
    context: FiberContext
    pairs: list[PairRow] = field(default_factory=list)
    selfs: list[SelfRow] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.pairs) and all(r.passed for r in self.selfs)

    def chi_table(self) -> dict[tuple[int, int], int]:
        return {(r.i, r.j): r.chi for r in self.pairs}

    def to_text(self) -> str:
        lines = ["exceptional-collection-check v1", f"fiber={self.context.kind}"]
        for r in self.pairs:
            lines.append(
                f"pair i={r.i} j={r.j} chi={r.chi}"
                f" h0_forward={_evidence(r.forward, self.context)}"
                f" h0_serre={_evidence(r.serre, self.context)}"
                f" verdict={'pass' if r.passed else 'FAIL'}")
        for r in self.selfs:
            lines.append(f"self i={r.i} chi={r.chi_self}"
                         f" h0_K={_evidence(r.canonical, self.context)}"
                         f" verdict={'pass' if r.passed else 'FAIL'}")
        lines.append(f"summary pairs_pass={sum(r.passed for r in self.pairs)}"
                     f" self_pass={sum(r.passed for r in self.selfs)}")
        return "\n".join(lines) + "\n"


def _evidence(v: Verdict, ctx: FiberContext) -> str:
    if isinstance(v, NonEffective):
        t = trace_text(v.trace)
        return f"ok({base_label(v.base, ctx)}{';' + t if t else ''})"
    if isinstance(v, InS):
        return "FAIL(effective)"
    return f"FAIL(unresolved:{v.note})"


def exceptional_collection_check(ctx: FiberContext,
                                 table: GeneratorTable | None = None) -> PairReport:
    """Verify the three semiorthogonality conditions for all 15 ordered pairs.

    For i < j: chi(L_i - L_j) = 0, h^0(L_i - L_j) = 0 and
    h^0(K - L_i + L_j) = 0; plus one self row per bundle (chi(O) = 1,
    h^0(K) = 0).  Every verdict carries a re-checkable evidence chain; an
    unresolved vanishing is reported as a failure, never passed silently.
    """
    table = table or build_generator_table(6)
    if ctx.kind == "degenerate":
        assert_table_identity(table)
    bundles = {i: table.phi(c) for i, c in COLLECTION.items()}
    k = table.canonical()
    report = PairReport(ctx)
    for i in range(1, 7):
        for j in range(i + 1, 7):
            fwd = bundles[i] - bundles[j]
            ser = k - bundles[i] + bundles[j]
            row = PairRow(i, j, chi(table, fwd),
                          _contextual(table, fwd, ctx),
                          _contextual(table, ser, ctx))
            report.pairs.append(row)
    for i in range(1, 7):
        report.selfs.append(SelfRow(i, chi(table, bundles[i] - bundles[i]),
                                    _contextual(table, k, ctx)))
    return report


def _contextual(table: GeneratorTable, x: XClass, ctx: FiberContext) -> Verdict:
    v = decide(table, x)
    if isinstance(v, NonEffective):
        v.trace.validate(table)
    return v


def base_label(base: str, ctx: FiberContext) -> str:
    """Base-case anchor in the language of the context."""
    if ctx.kind == "smooth":
        return base
    if base == "negative-degree":
        return "negative-degree(K-nef)"
    if base.startswith("trusted:"):
        return base + "(corner-points)"
    return base
