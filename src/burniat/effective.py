"""Membership in the effective semigroup S of a Burniat surface with K^2 = 6.

S is generated by the twelve configuration curves.  The decision machinery
has three layers:

* minimal_form: repeatedly subtract a boundary elliptic curve F that is
  forced into the base locus, i.e. x.F < 0, or x.F = 0 with a nonzero
  torsion restriction to F.  Every step lowers the degree d = x.K by one,
  in one loop over the class's fields and labels with no memo.
* s_membership: complete certificate search.  A certificate is a nonnegative
  integer combination of the twelve curves mapping to x.  Its boundary
  multiplicities are fixed by a composition of n_h into A3, B3, C3 and the
  three internal letter counts, and the internal splits matter only modulo 2,
  so the search (effective_lifts) covers every solution on the lattice side
  and matches the torsion bits exactly: "no certificate" is a proof that x is
  not in S.  effective_lifts finds the first certificate of one torsion
  lift in closed form, in O(1) time for any n_h: per parity class of
  (A3, B3, C3), the triples whose least internal counts fit are a box cut
  by a slab, and the class's least triple is a corner of it (the lemma in
  effective_lifts).
* prove_non_effective: one minimal-form reduction into one of the two base
  cases: negative degree, or a member of the trusted list of classes with
  no sections (imported facts about the surface, cross-checked against the
  certificate search at every use).  A reduction that reaches neither is
  returned as Unresolved, with its trace.

decide is s_membership, else prove_non_effective: one reduction at most.
Every verdict's evidence is checked where the verdict is made.
s_membership and exceptional_induction build every InS through one helper,
_checked_ins, which checks through the table (maps_to) that the certificate
tuple is nonnegative and re-sums to the class.  prove_non_effective, the
only constructor of NonEffective, re-validates the reduction trace step by
step before it returns.  Those checks raise InvalidEvidence explicitly, so
they also run under ``python -O``.

An XClass is a table row (see picard), so minimal_form, is_minimal,
s_membership, ReductionTrace.validate and exceptional_induction carry the
class, or its fields, and subtract a curve's row at each step; the table's
require_k6 refuses a class or table outside the K^2 = 6 model once, where
each of them starts.  Throughout, the boundary curve BOUNDARY[i] pairs with
a class as symmetric_coords(y)[1 + i] and has the label
labels >> 10 - 2 * i & 3 in the 12-bit int of the six labels.  minimal_form
and is_minimal apply the base-locus rule in _forced to the table's labels
(see picard); minimal_form reads them once per class and XORs in the step
curve's table.boundary_labels entry at each step, which is exact as labels
is additive.  ReductionTrace.validate never reads them: it
reads the start's labels on A3, B3, C3 from _key_labels3, which reads them
with column from the checked preimage_combo of the key's least
representative once per (table, key); they depend only on the 10-bit key
picard._key, by check (b).  It XORs in each step curve's labels3_rows
mask, checks each step in O(1) with the curve's symmetric_coords entry
and, on a zero pairing, its label, and compares its end with the final
class: an independent re-check of every trace.

The one memo in this module, _key_labels3, is a functools cache, so it
reports its size and hits through cache_info().  It is cached on
(table, key): the table stays read-only and a table built later starts
cold.  It is a bounded LRU cache of 2^11 entries, above the largest working
set measured for the verify-all suite (721); a dropped table is freed once
that many later entries have filled it.  effective_lifts keeps nothing: it
returns the certificate tuple it computes.

scan builds lift mask of a numerical class y as XClass(*y, mask) and sets
its minimal flag without another reduction.  y is nef, so its degree on
each boundary curve is >= 0; once per y, scan builds the int of the label
bits of the curves of degree 0 and the labels of its lift with mask 0; by
additivity a lift's labels are those XOR the labels of XClass(0, 0, 0, 0,
mask), read once per scan, and it is minimal exactly when they have none
of those bits.  to_text prints a class's 64 lifts with one picard.lift_texts.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .lattice import YClass, arithmetic_genus
from .delpezzo import (classify_exceptional, enumerate_nef, is_nef_class,
                       symmetric_coords)
from .config import BOUNDARY, GENERATORS, INTERNAL
from .picard import (GeneratorTable, XClass, _key, lift_texts, parse_xclass,
                     xclass_to_text, TableInconsistent)

_BOUNDARY_INDEX = {f: i for i, f in enumerate(BOUNDARY)}

# the canonical class of the K^2 = 6 surface
KX = parse_xclass("(6; 1 00; 1 00; 1 00)")

# Classes with no sections, imported as facts about the surface:
#   Q10  the conic-degree class (3; 1 10; 1 10; 1 10)
#   H00  the line-degree class with trivial restriction data
#   KX   the canonical class itself (p_g = 0)
# Q10 and H00 are swapped by the 0<->3 configuration symmetry and fixed by the
# letter cycle.  Each entry is minimal and is the endpoint of some reduction
# in scan(12) or the exceptional-collection check.  The degree-3 print
# (3; 1 00; 1 00; 1 00) of the canonical class is not listed: it is not
# minimal and reduces to negative degree through A3t,B0t,A3t,C0-.
TRUSTED: dict[XClass, str] = {
    parse_xclass("(3; 1 10; 1 10; 1 10)"): "Q10",
    parse_xclass("(3; 0 00; 0 00; 0 00)"): "H00",
    KX: "KX",
}


class InvalidEvidence(ValueError):
    """A certificate or reduction trace failed its re-check."""


class ReductionStep(NamedTuple):
    curve: str
    reason: str  # "negative" or "torsion"


# the twelve steps minimal_form takes, (torsion, negative) per boundary curve
_STEPS = tuple((ReductionStep(f, "torsion"), ReductionStep(f, "negative"))
               for f in BOUNDARY)


class ReductionTrace(NamedTuple):
    start: XClass
    steps: tuple[ReductionStep, ...]
    final: XClass

    def validate(self, table: GeneratorTable) -> None:
        """Re-check every step from scratch; raises on any mismatch."""
        nh, n1, n2, n3, mask, _ = table.require_k6(self.start)
        m3 = _key_labels3(table, _key(self.start))  # the labels on A3, B3, C3
        for step in self.steps:
            i = _BOUNDARY_INDEX.get(step.curve)
            if i is None:
                raise InvalidEvidence(f"step {step} is not on a boundary curve")
            pairing = symmetric_coords((nh, n1, n2, n3))[1 + i]
            if step.reason == "negative":
                justified = pairing < 0
            else:
                labels = mask << 6 | m3  # all six, in BOUNDARY order
                justified = (step.reason == "torsion" and pairing == 0
                             and labels >> 10 - 2 * i & 3 != 0)
            if not justified:
                raise InvalidEvidence(f"step {step} not justified at "
                                      f"{XClass(nh, n1, n2, n3, mask)}")
            # the class minus the row, as fields: only the end is an XClass
            rh, r1, r2, r3, rmask, _ = table.rows[step.curve]
            nh, n1, n2, n3, mask = nh - rh, n1 - r1, n2 - r2, n3 - r3, mask ^ rmask
            m3 ^= table.labels3_rows[step.curve]
        end = XClass(nh, n1, n2, n3, mask)
        if end != self.final:
            raise InvalidEvidence(f"trace ends at {end}, not at {self.final}")
        if len(self.steps) != self.start.d - self.final.d:
            raise InvalidEvidence("trace length differs from its degree drop")


@lru_cache(maxsize=2**11)
def _key_labels3(table: GeneratorTable, key: int) -> int:
    """The 6-bit mask of the labels on A3, B3, C3 of every class with this
    key (see picard._key), read with column from the checked
    preimage_combo of the key's least representative."""
    combo = table.preimage_combo(XClass(key >> 9, key >> 8 & 1, key >> 7 & 1,
                                        key >> 6 & 1, key & 63))
    return sum(table.column(combo, f)[1] << 10 - 2 * i
               for i, f in enumerate(BOUNDARY[3:], 3))


class InS(NamedTuple):
    certificate: tuple[int, ...]  # multiplicities in GENERATORS order

    def as_dict(self) -> dict[str, int]:
        return {g: c for g, c in zip(GENERATORS, self.certificate) if c}


def _checked_ins(table: GeneratorTable, cert: tuple[int, ...], x: XClass) -> InS:
    """InS(cert) once the table re-sums cert to x, checked without assert."""
    if not table.maps_to(cert, x):
        raise InvalidEvidence(f"certificate {InS(cert).as_dict()} is not a "
                              f"nonnegative combination re-summing to {x}")
    return InS(cert)


class NonEffective(NamedTuple):
    trace: ReductionTrace
    base: str  # "negative-degree" or "trusted:<id>"


class Unresolved(NamedTuple):
    trace: ReductionTrace
    chi: int
    note: str


Verdict = InS | NonEffective | Unresolved


def trusted_id(x: XClass) -> str | None:
    return TRUSTED.get(x)


# ---------------------------------------------------------------------------
# Minimal form
# ---------------------------------------------------------------------------

def _forced(labels: int, coords: tuple[int, ...]) -> int:
    """The base-locus rule: the index in BOUNDARY of the first curve F with
    x.F < 0, or x.F = 0 and a nonzero label, given the 12-bit labels and the
    symmetric_coords of x; -1 when there is none."""
    for i in range(6):
        deg = coords[1 + i]
        if deg < 0 or (deg == 0 and labels >> 10 - 2 * i & 3):
            return i
    return -1


def minimal_form(table: GeneratorTable, x: XClass) -> tuple[XClass, ReductionTrace]:
    """Reduce x by base-locus boundary curves until minimal or d < 0.

    Scan order A0, B0, C0, A3, B3, C3, restarting after each subtraction.
    One loop carries the fields and the labels of the class: a step
    subtracts the curve's row and XORs in its boundary_labels entry, exact
    since labels is additive; the final class is built once.
    """
    nh, n1, n2, n3, _, _ = table.require_k6(x)  # refuses a non-K^2 = 6 class even if d < 0
    labels, rows, row_labels = table.labels(x), table.rows, table.boundary_labels
    steps: list[ReductionStep] = []
    while (coords := symmetric_coords((nh, n1, n2, n3)))[0] >= 0:
        i = _forced(labels, coords)
        if i < 0:
            break
        steps.append(_STEPS[i][coords[1 + i] < 0])
        rh, r1, r2, r3, _, _ = rows[BOUNDARY[i]]
        nh, n1, n2, n3, labels = nh - rh, n1 - r1, n2 - r2, n3 - r3, labels ^ row_labels[i]
    p = XClass(nh, n1, n2, n3, labels >> 6)  # the labels on A0, B0, C0 are the mask
    return p, ReductionTrace(x, tuple(steps), p)


def is_minimal(table: GeneratorTable, x: XClass) -> bool:
    # require_k6 first: it refuses a class outside the K^2 = 6 model, even if d < 0
    coords = symmetric_coords(table.require_k6(x)[:4])
    return coords[0] >= 0 and _forced(table.labels(x), coords) < 0


# ---------------------------------------------------------------------------
# Certificate search
# ---------------------------------------------------------------------------

def _least(lo: int, three: int, k: int) -> int:
    """Least internal-curve count t >= lo with first torsion bit k >> 1 and
    parity k & 1.

    A count t splits as t = x1 + x2 with the first torsion bit equal to
    (x2 + three) mod 2; any first bit is reachable for t >= 1, while t = 0
    forces the first bit to three mod 2.  Every t above the least one of its
    parity is admissible as well.
    """
    return lo + ((lo ^ k) & 1) if lo else (k & 1 or 2 * ((k >> 1 ^ three) & 1))


def effective_lifts(ycoeffs: tuple[int, ...], mask: int) -> tuple[int, ...] | None:
    """The first certificate of the torsion lift of ycoeffs with this mask,
    or None if the lift is not in S.

    A certificate is a composition (a3, b3, c3, t_a, t_b, t_c) of n_h into
    the boundary multiplicities A3, B3, C3 and the internal letter counts
    t_a = A1 + A2, t_b = B1 + B2, t_c = C1 + C2.  The other boundary
    multiplicities are then fixed, a0 = n1 + b3 + c3 + t_c,
    b0 = n2 + a3 + c3 + t_a and c0 = n3 + a3 + b3 + t_b, and the internal
    splits only matter modulo 2, so this covers every certificate up to
    those splits: "no certificate" is complete.  The first one is the least
    in the composition order (a3, b3, c3, t_a, t_b).

    The lemma.  The mask fixes each count's parity p and first bit f (A at
    mask >> 2, B at mask, C at mask >> 4).  A count takes every value of
    its parity from its least one up (see _least), and on a parity class
    (qa, qb, qc) of (a3, b3, c3) the least one is max(lam - l, m), where
    l_A, l_B, l_C are a3 + c3, a3 + b3, b3 + c3; lam_A, lam_B, lam_C are
    -n2, -n3, -n1 rounded up to the parity of p + l; and m = 1 if p, else
    2 (f xor q).  So a triple has a certificate iff the least counts fit in
    r = n_h - a3 - b3 - c3 with r's parity, which needs
    qa + qb + qc = n_h + pa + pb + pc mod 2.  On such a class, the fit is
    eight linear bounds, one per choice in the three maxima, each of its
    variable's parity: a box in (a3, b3, c3) cut by a slab in a3 + b3 + c3.
    The class's lex-least triple is the box's lower corner with c3 raised
    to the slab, which never lifts c3 past its upper bound, and it is there
    iff it meets the four upper bounds.  The first certificate is at the
    least of at most four such triples, with the least t_a and t_b.
    """
    nh, n1, n2, n3 = ycoeffs
    pa, pb, pc = mask >> 2 & 1, mask & 1, mask >> 4 & 1
    fa, fb, fc = mask >> 3 & 1, mask >> 1 & 1, mask >> 5
    s = (nh ^ pa ^ pb ^ pc) & 1  # qa ^ qb ^ qc on the classes that count
    best = None
    for qa, qb in ((0, 0), (0, 1), (1, 0), (1, 1)):
        if best is not None and best < (qa, qb, 0):  # no later class has a lesser triple
            break
        qc = s ^ qa ^ qb
        ma = 1 if pa else 2 * (fa ^ qa)
        mb = 1 if pb else 2 * (fb ^ qb)
        mc = 1 if pc else 2 * (fc ^ qc)
        la = ((n2 ^ pa ^ s ^ qb) & 1) - n2  # qa ^ qc = s ^ qb
        lb = ((n3 ^ pb ^ qa ^ qb) & 1) - n3
        lc = ((n1 ^ pc ^ s ^ qa) & 1) - n1  # qb ^ qc = s ^ qa
        a3 = la + lb + mc - nh
        if a3 < qa:
            a3 = qa
        if a3 > nh - lc - ma - mb:
            continue
        b3 = lb + lc + ma - nh
        if b3 < qb:
            b3 = qb
        if b3 > nh - la - mb - mc:
            continue
        c3 = la + lc + mb - nh
        if c3 < qc:
            c3 = qc
        if c3 < la + lb + lc - nh - a3 - b3:  # the slab
            c3 = la + lb + lc - nh - a3 - b3
        if c3 <= nh - lb - ma - mc and a3 + b3 + c3 <= nh - ma - mb - mc and (
                best is None or (a3, b3, c3) < best):
            best = a3, b3, c3
    if best is None:
        return None
    a3, b3, c3 = best
    t_a = _least(max(0, -n2 - a3 - c3), a3, mask >> 2 & 3)
    t_b = _least(max(0, -n3 - a3 - b3), b3, mask & 3)
    t_c = nh - a3 - b3 - c3 - t_a - t_b
    a2, b2, c2 = fa ^ a3 & 1, fb ^ b3 & 1, fc ^ c3 & 1
    # in GENERATORS order
    return (n1 + b3 + c3 + t_c, t_a - a2, a2, a3,
            n2 + a3 + c3 + t_a, t_b - b2, b2, b3,
            n3 + a3 + b3 + t_b, t_c - c2, c2, c3)


def s_membership(table: GeneratorTable, x: XClass) -> InS | None:
    """Certificate in S, or None (a proof of non-membership: the search is
    complete over the finitely many lattice-side solutions)."""
    cert = effective_lifts(table.require_k6(x)[:4], x.mask)
    if cert is None:
        return None
    verdict = _checked_ins(table, cert, x)
    if x in TRUSTED:
        raise TableInconsistent(
            f"trusted class {x} received certificate {verdict.as_dict()}")
    return verdict


def chi(table: GeneratorTable, x: XClass) -> int:
    """Euler characteristic chi(x) = x.(x - K)/2 + 1.

    K_X pairs as -K_Y in these coordinates (to_y(K) = (3, -1, -1, -1)), so
    chi(x) = y.(y + K_Y)/2 + 1 for y = to_y(x): the arithmetic genus of y."""
    return arithmetic_genus(table.to_y(x))


def prove_non_effective(table: GeneratorTable, x: XClass) -> NonEffective | Unresolved:
    """Reduce x once by minimal_form and ground the reduction in a base case.

    The verdict is NonEffective when the minimal form has negative degree or
    is a trusted class, which is cross-checked against the certificate
    search; its trace is re-validated before it is returned.  Otherwise it is
    Unresolved, with the same trace and chi(x); the note says only what the
    reduction established, since x may still have a certificate when it is
    called outside decide.
    """
    reduced, trace = minimal_form(table, x)
    if reduced.d < 0:
        base = "negative-degree"
    else:
        tid = trusted_id(reduced)
        if tid is None:
            return Unresolved(trace, chi(table, x), f"minimal form {reduced} "
                              "has degree >= 0 and is not a trusted class")
        if effective_lifts(reduced[:4], reduced.mask) is not None:
            raise TableInconsistent(f"trusted class {reduced} is in S")
        base = f"trusted:{tid}"
    trace.validate(table)
    return NonEffective(trace, base)


def decide(table: GeneratorTable, x: XClass) -> Verdict:
    """Full decision: the certificate of x in S if it has one, else the
    verdict of prove_non_effective.

    chi(x) on an Unresolved verdict is a diagnostic only: chi < 0 bounds
    h^0 - h^1 and can never force h^0(x) = 0 on its own.
    """
    return s_membership(table, x) or prove_non_effective(table, x)


# ---------------------------------------------------------------------------
# Desk-scale scan
# ---------------------------------------------------------------------------

class ScanRecord(NamedTuple):
    x: XClass
    minimal: bool
    verdict: Verdict


class ScanReport(NamedTuple):
    d_max: int
    records: list[ScanRecord]

    @property
    def minimal_non_in_s(self) -> list[ScanRecord]:
        return [r for r in self.records
                if r.minimal and not isinstance(r.verdict, InS)]

    @property
    def unresolved(self) -> list[ScanRecord]:
        return [r for r in self.records if isinstance(r.verdict, Unresolved)]

    @property
    def trusted_hits(self) -> list[tuple[str, str]]:
        """Trusted base cases actually used, as (id, endpoint literal)."""
        return sorted({(v.base[8:], xclass_to_text(v.trace.final)) for _, _, v in self.records
                       if isinstance(v, NonEffective) and v.base.startswith("trusted:")})

    def counts(self) -> dict[str, int]:
        out = {"candidates": len(self.records),
               "minimal": sum(r.minimal for r in self.records),
               "in_s": 0, "non_effective": 0, "unresolved": 0}
        for r in self.records:
            out[_COUNTER[type(r.verdict)]] += 1
        return out

    def to_text(self) -> str:
        lines = ["burniat-scan v1", f"d_max={self.d_max}"]
        key = None
        for x, minimal, verdict in self.records:
            if (k := (*x[:4], *x.ns)) != key:  # scan's 64 lifts of a class share it
                key, ytext, texts = k, str(YClass(k)), lift_texts(x)
            lines.append(f"record {texts[x.mask]} y={ytext} "
                         f"minimal={int(minimal)} {verdict_text(verdict)}")
        c = self.counts()
        lines.append("summary " + " ".join(f"{k}={v}" for k, v in c.items()))
        lines.append("trusted_hits " + " ".join(f"{tid}:{txt}"
                                                for tid, txt in self.trusted_hits))
        return "\n".join(lines) + "\n"


# the summary counter of each verdict class, and the "g:" prefix of each
# generator in a certificate
_COUNTER = {InS: "in_s", NonEffective: "non_effective", Unresolved: "unresolved"}
_CERT_PREFIX = tuple(f"{g}:" for g in GENERATORS)
# each step of _STEPS as printed in a trace: "A3t" (torsion), "A0-" (negative)
_STEP_TEXT = {s: s.curve + ("-" if s.reason == "negative" else "t")
              for pair in _STEPS for s in pair}


def cert_text(v: InS) -> str:
    return ",".join([g + str(c) for g, c in zip(_CERT_PREFIX, v.certificate) if c])


def trace_text(t: ReductionTrace) -> str:
    return ",".join([_STEP_TEXT[s] for s in t.steps])


def verdict_text(v: Verdict) -> str:
    if isinstance(v, InS):
        return f"verdict=in_s cert={cert_text(v)}"
    if isinstance(v, NonEffective):
        return f"verdict=non_effective base={v.base} trace={trace_text(v.trace)}"
    return f"verdict=unresolved chi={v.chi} trace={trace_text(v.trace)}"


def scan(table: GeneratorTable, d_max: int) -> ScanReport:
    """Classify every torsion lift of every nef class with degree <= d_max.

    Candidates are enumerated deterministically (nef classes by degree then
    coefficients, torsion masks 0..63, which is MASK_BITS order); every
    emitted certificate and trace has been re-validated.  The minimal flag
    takes no further reduction (see the module docstring).
    """
    if d_max > 12:
        raise ValueError(f"scan is capped at d_max <= 12, got {d_max}")
    if d_max < 0:
        raise ValueError(f"scan needs d_max >= 0, got {d_max}")
    report = ScanReport(d_max, [])
    records = report.records
    for ycls in enumerate_nef(d_max):
        y = ycls.coeffs
        # the label bits of the boundary curves on which y has degree 0
        zero = sum(3 << 10 - 2 * i for i, deg in enumerate(symmetric_coords(y)[1:])
                   if deg == 0)
        labels = table.labels(XClass(*y, 0))
        for mask, torsion_labels in enumerate(table.mask_labels):
            x = XClass(*y, mask)
            records.append(ScanRecord(x, not (labels ^ torsion_labels) & zero,
                                      decide(table, x)))
    return report


# ---------------------------------------------------------------------------
# The canonical-class tables (nonzero torsion twists and one-curve shifts)
# ---------------------------------------------------------------------------

class Step3Report(NamedTuple):
    twist_ok: int
    twist_fail: list[str]
    shift_ok: int
    shift_fail: list[str]
    canonical_not_in_s: bool

    @property
    def ok(self) -> bool:
        return (not self.twist_fail and not self.shift_fail
                and self.canonical_not_in_s)


def step3_tables(table: GeneratorTable) -> Step3Report:
    """K+nu in S for all nonzero torsion nu, and K+F+nu for all F, nu."""
    canonical_not_in_s = s_membership(table, KX) is None
    ok, fail = [0, 0], ([], [])  # twists of K, then shifts K + F
    for kind, base, nus in [(0, KX, range(1, 64))] + [
            (1, KX + table.phi({f: 1}), range(64)) for f in BOUNDARY]:
        for nu in nus:
            x = XClass(*base[:4], base.mask ^ nu)
            if s_membership(table, x) is None:
                fail[kind].append(xclass_to_text(x))
            else:
                ok[kind] += 1
    return Step3Report(ok[0], fail[0], ok[1], fail[1], canonical_not_in_s)


# ---------------------------------------------------------------------------
# Induction for high-degree exceptional-type classes
# ---------------------------------------------------------------------------

def exceptional_induction(table: GeneratorTable, x: XClass) -> Verdict:
    """Decide a minimal-form class of exceptional type with d >= 9.

    Both internal curves X1, X2 of a letter have the class f of a ruling
    fibre.  The descent takes k = (d - 7) // 2 of them, for the letter whose
    y - i f (1 <= i <= k) stay nef and in the family of y = to_y(x) with n
    lowered by i, down to degree 7 or 8.  X1 and X2 differ only in torsion,
    so the direct search runs on the two bases x - k X1 and
    x - (k - 1) X1 - X2, and a base's certificate plus its curves is x's.
    """
    ycls = table.to_y(x)
    et = classify_exceptional(ycls)
    if et.family in ("NonExceptional", "Type4"):
        raise ValueError(f"{x} is not of inductive exceptional type ({et.family})")
    if x.d < 9:
        raise ValueError("induction applies to degrees >= 9; use the search")
    if not is_minimal(table, x):
        raise ValueError(f"{x} is not in minimal form")
    k = (x.d - 7) // 2
    for x1, x2 in zip(INTERNAL[::2], INTERNAL[1::2]):
        row1, row2 = table.rows[x1], table.rows[x2]
        fibre = YClass(row1[:4])
        if not all(is_nef_class(rest := ycls - i * fibre)
                   and classify_exceptional(rest)[:2] == (et.family, et.n - i)
                   for i in range(1, k + 1)):
            continue
        # x - k X1: each subtraction XORs in X1's mask
        base = XClass(*(ycls - k * fibre).coeffs, x.mask ^ (k & 1) * row1.mask)
        for odd in (0, 1):  # the count of X2, mod 2
            sub = s_membership(table, base + row1 - row2 if odd else base)
            if sub is not None:
                cert = list(sub.certificate)
                cert[GENERATORS.index(x1)] += k - odd
                cert[GENERATORS.index(x2)] += odd
                return _checked_ins(table, tuple(cert), x)
    # x is minimal, so its reduction is the empty trace
    return Unresolved(ReductionTrace(x, (), x), chi(table, x),
                      "exceptional induction exhausted")
