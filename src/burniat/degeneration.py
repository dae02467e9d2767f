"""The exceptional collection of six line bundles on both fibres.

The verdicts are computed once, on the smooth fibre, by the decision engine
of `effective`.  The degenerate report (the nonnormal semistable degenerate
fibre) is that smooth evidence relabelled: the same rows, with each base case
naming the degenerate-fibre fact it rests on.  Nothing here models the
components of the degenerate fibre; its statements are imported facts:

* the twelve Cartier divisors have the same degrees and boundary
  restrictions as on a smooth fibre, so one generator table serves both;
* the two subtraction rules: an effective divisor D contains a boundary
  curve F whenever D.F < 0, or D.F = 0 and the restriction of D to F is a
  nonzero torsion bundle;
* corner-point vanishing: the trusted section-free classes stay section-free
  (label `(corner-points)`);
* the canonical class of the degenerate fibre is nef, so a class of negative
  degree has no sections (label `(K-nef)`);
* chi is constant in the flat family, so the smooth chi values hold on the
  degenerate fibre.
"""
from __future__ import annotations

from typing import NamedTuple

from .picard import GeneratorTable, build_generator_table
from .effective import KX, InS, NonEffective, Verdict, chi, decide, trace_text


class _FiberFields(NamedTuple):
    kind: str


class FiberContext(_FiberFields):
    """Which fibre a report speaks about: "smooth" or "degenerate"."""

    __slots__ = ()

    def __new__(cls, kind: str):
        if kind not in ("smooth", "degenerate"):
            raise ValueError(f"unknown fibre kind {kind!r}")
        return tuple.__new__(cls, (kind,))

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: both check
        return cls(*iterable)


SMOOTH = FiberContext("smooth")
DEGENERATE = FiberContext("degenerate")


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


class PairRow(NamedTuple):
    i: int
    j: int
    chi: int
    forward: Verdict
    serre: Verdict

    @property
    def passed(self) -> bool:
        return (self.chi == 0 and isinstance(self.forward, NonEffective)
                and isinstance(self.serre, NonEffective))


class SelfRow(NamedTuple):
    i: int
    chi_self: int
    canonical: Verdict

    @property
    def passed(self) -> bool:
        return self.chi_self == 1 and isinstance(self.canonical, NonEffective)


class PairReport(NamedTuple):
    context: FiberContext
    pairs: list[PairRow]
    selfs: list[SelfRow]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.pairs) and all(r.passed for r in self.selfs)

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
    bundles = {i: table.phi(c) for i, c in COLLECTION.items()}
    report = PairReport(ctx, [], [])
    for i in range(1, 7):
        for j in range(i + 1, 7):
            fwd = bundles[i] - bundles[j]
            ser = KX - bundles[i] + bundles[j]
            report.pairs.append(PairRow(i, j, chi(table, fwd),
                                        decide(table, fwd), decide(table, ser)))
    for i in range(1, 7):
        report.selfs.append(SelfRow(i, chi(table, bundles[i] - bundles[i]),
                                    decide(table, KX)))
    return report


def base_label(base: str, ctx: FiberContext) -> str:
    """Base-case anchor in the language of the context."""
    if ctx.kind == "smooth":
        return base
    if base == "negative-degree":
        return "negative-degree(K-nef)"
    if base.startswith("trusted:"):
        return base + "(corner-points)"
    return base
