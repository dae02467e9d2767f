"""Membership in the effective semigroup S of a Burniat surface with K^2 = 6.

S is generated by the twelve configuration curves.  The decision machinery
has three layers:

* minimal_form: repeatedly subtract a boundary elliptic curve F that is
  forced into the base locus, i.e. x.F < 0, or x.F = 0 with a nonzero
  torsion restriction to F.  Every step lowers the degree d = x.K by one.
* s_membership: complete certificate search.  A certificate is a
  nonnegative integer combination of the twelve curves mapping to x.  Its
  boundary multiplicities are fixed by a composition of n_h into A3, B3, C3
  and the three internal letter counts, and the internal splits matter only
  modulo 2, so the search (effective_lifts) covers every solution on the
  lattice side and matches the torsion bits exactly: "no certificate" is a
  proof that x is not in S.  For each (A3, B3, C3) the first certificate
  of every torsion lift has a closed form, so the search is O(n_h^3).
* prove_non_effective: minimal-form reduction into one of the two base
  cases: negative degree, or a member of the trusted list of classes with
  no sections (imported facts about the surface, cross-checked against the
  certificate search at every use).

Verdicts carry re-checkable evidence: certificates re-sum through phi and
traces re-validate step by step.  Those checks raise InvalidEvidence
explicitly, so they also run under ``python -O``.

minimal_form and is_minimal read restrictions from the table's restriction
dict (GeneratorTable.restrictions).  ReductionTrace.validate never reads it:
it rebuilds preimage_combo(start) and checks every step with pairing and
column, so it stays an independent re-check of every emitted trace.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .lattice import YClass, canonical_class
from .delpezzo import LAT, classify_exceptional, enumerate_nef, is_nef_class
from .config import BOUNDARY, GENERATORS
from .picard import (Block, GeneratorTable, XClass, xclass_to_text,
                     TableInconsistent)

# the 64 torsion bit-vectors, lexicographically
ALL_BITS = [(b0, b1, b2, b3, b4, b5)
            for b0 in (0, 1) for b1 in (0, 1) for b2 in (0, 1)
            for b3 in (0, 1) for b4 in (0, 1) for b5 in (0, 1)]

INTERNAL_OF_LETTER = {"A": ("A1", "A2"), "B": ("B1", "B2"), "C": ("C1", "C2")}

# Classes with no sections, imported as facts about the surface:
#   Q10  the conic-degree class (3; 1 10; 1 10; 1 10)
#   H00  the line-degree class with trivial restriction data
#   KX   the canonical class itself (p_g = 0)
# Q10 and H00 are swapped by the 0<->3 configuration symmetry and fixed by the
# letter cycle.  Each entry is minimal and is the endpoint of some reduction
# in scan(12) or the exceptional-collection check.  The degree-3 print
# (3; 1 00; 1 00; 1 00) of the canonical class is not listed: it is not
# minimal and reduces to negative degree through A3t,B0t,A3t,C0-.
TRUSTED: dict[str, str] = {
    "(3; 1 10; 1 10; 1 10)": "Q10",
    "(3; 0 00; 0 00; 0 00)": "H00",
    "(6; 1 00; 1 00; 1 00)": "KX",
}


class InvalidEvidence(ValueError):
    """A certificate or reduction trace failed its re-check."""


@dataclass(frozen=True)
class ReductionStep:
    curve: str
    reason: str  # "negative" or "torsion"


@dataclass(frozen=True)
class ReductionTrace:
    start: XClass
    steps: tuple[ReductionStep, ...]
    final: XClass

    def validate(self, table: GeneratorTable) -> None:
        """Re-check every step from scratch; raises on any mismatch."""
        x = self.start
        combo = table.preimage_combo(x)
        for step in self.steps:
            p = table.pairing(x, step.curve)
            if step.reason == "negative":
                justified = p < 0
            elif step.reason == "torsion":
                justified = p == 0 and not table.column(combo, step.curve).is_zero()
            else:
                justified = False
            if not justified:
                raise InvalidEvidence(f"step {step} not justified at {x}")
            x = x - table.row(step.curve)
            combo = dict(combo)
            combo[step.curve] = combo.get(step.curve, 0) - 1
        if x != self.final:
            raise InvalidEvidence(f"trace ends at {x}, not at {self.final}")
        if len(self.steps) != self.start.d - self.final.d:
            raise InvalidEvidence("trace length differs from its degree drop")


@dataclass(frozen=True)
class InS:
    certificate: tuple[int, ...]  # multiplicities in GENERATORS order

    def as_dict(self) -> dict[str, int]:
        return {g: c for g, c in zip(GENERATORS, self.certificate) if c}


@dataclass(frozen=True)
class NonEffective:
    trace: ReductionTrace
    base: str  # "negative-degree" or "trusted:<id>"


@dataclass(frozen=True)
class Unresolved:
    trace: ReductionTrace
    chi: int
    note: str


Verdict = InS | NonEffective | Unresolved


def trusted_id(x: XClass) -> str | None:
    return TRUSTED.get(xclass_to_text(x))


# ---------------------------------------------------------------------------
# Minimal form
# ---------------------------------------------------------------------------

def minimal_form(table: GeneratorTable, x: XClass) -> tuple[XClass, ReductionTrace]:
    """Reduce x by base-locus boundary curves until minimal or d < 0.

    Scan order A0, B0, C0, A3, B3, C3, restarting after each subtraction.
    """
    table.to_y(x)  # refuses a class outside the K^2 = 6 model, even if d < 0
    start = x
    steps: list[ReductionStep] = []
    while x.d >= 0:
        for f, (deg, mask) in zip(BOUNDARY, table.restrictions(x)):
            if deg < 0 or (deg == 0 and mask):
                steps.append(ReductionStep(f, "negative" if deg < 0 else "torsion"))
                x = x - table.row(f)
                break
        else:
            break
    return x, ReductionTrace(start, tuple(steps), x)


def is_minimal(table: GeneratorTable, x: XClass) -> bool:
    return x.d >= 0 and all(deg > 0 or (deg == 0 and not mask)
                            for deg, mask in table.restrictions(x))


# ---------------------------------------------------------------------------
# Certificate search
# ---------------------------------------------------------------------------

def _least_counts(lo: int, three: int) -> tuple[int, int, int, int]:
    """Least internal-curve count t >= lo for each (first bit, parity of t).

    Indexed by 2 * first + parity.  A count t splits as t = x1 + x2 with the
    first torsion bit equal to (x2 + three) mod 2; any first bit is
    reachable for t >= 1, while t = 0 forces the first bit to three mod 2.
    Every t above the least one of its parity is admissible as well.
    """
    even, odd = lo + (lo & 1), lo + 1 - (lo & 1)
    if lo:
        return even, odd, even, odd
    return (0, 1, 2, 1) if three & 1 == 0 else (2, 1, 0, 1)


@lru_cache(maxsize=None)
def effective_lifts(ycoeffs: tuple[int, ...]) -> dict[tuple[int, ...], tuple[int, ...]]:
    """All torsion lifts of a numerical class that lie in S.

    Maps achievable bit-vectors to one certificate each: the first one in
    the composition order (a3, b3, c3, t_a, t_b) of n_h into the three
    boundary multiplicities A3, B3, C3 and the internal letter counts
    t_a = A1 + A2, t_b = B1 + B2, t_c = C1 + C2.  The other boundary
    multiplicities are then fixed, a0 = n1 + b3 + c3 + t_c,
    b0 = n2 + a3 + c3 + t_a and c0 = n3 + a3 + b3 + t_b, and the internal
    splits only matter modulo 2, so this enumerates every certificate up to
    those splits: the search is complete.

    Closed-form inner step: given (a3, b3, c3) and r = n_h - a3 - b3 - c3,
    a target bit-vector fixes the parities of t_a, t_b and t_c, and a zero
    count fixes the matching first bit (see _least_counts).  The admissible
    values of each count are therefore all values of its parity from a least
    one up, so the first certificate takes the least t_a and t_b, and one
    exists iff t_c = r - t_a - t_b is at least its own least value.  Each
    (a3, b3, c3) costs O(1), so the search is O(n_h^3).  It skips triples
    where the least counts that a0, b0, c0 >= 0 allow already sum past r,
    and it stops once all 64 lifts are found.
    """
    nh, n1, n2, n3 = ycoeffs
    out: dict[tuple[int, ...], tuple[int, ...]] = {}
    if nh < 0:
        return out
    for a3 in range(nh + 1):
        for b3 in range(nh - a3 + 1):
            lb = max(-n3 - a3 - b3, 0)
            for c3 in range(nh - a3 - b3 + 1):
                r = nh - a3 - b3 - c3
                la = max(-n2 - a3 - c3, 0)
                lc = max(-n1 - b3 - c3, 0)
                if la + lb + lc > r:
                    continue
                least_a = _least_counts(la, a3)
                least_b = _least_counts(lb, b3)
                least_c = _least_counts(lc, c3)
                found = []
                for ka, t_a in enumerate(least_a):
                    for kb, t_b in enumerate(least_b):
                        t_c = r - t_a - t_b
                        for afirst in (0, 1):
                            if t_c < least_c[2 * afirst + (t_c & 1)]:
                                continue
                            # bits: A-block from C-letter, B from A, C from B
                            bits = (afirst, t_c & 1, ka >> 1, ka & 1, kb >> 1, kb & 1)
                            if bits not in out:
                                found.append((t_a, t_b, afirst, ka >> 1, kb >> 1, bits))
                # in the order (t_a, t_b, first bits) in which a full
                # enumeration of this triple would reach them
                for t_a, t_b, afirst, bfirst, cfirst, bits in sorted(found):
                    t_c = r - t_a - t_b
                    a2, b2, c2 = (bfirst + a3) & 1, (cfirst + b3) & 1, (afirst + c3) & 1
                    cert = {"A0": n1 + b3 + c3 + t_c, "A1": t_a - a2, "A2": a2,
                            "A3": a3,
                            "B0": n2 + a3 + c3 + t_a, "B1": t_b - b2, "B2": b2,
                            "B3": b3,
                            "C0": n3 + a3 + b3 + t_b, "C1": t_c - c2, "C2": c2,
                            "C3": c3}
                    out[bits] = tuple(cert[g] for g in GENERATORS)
                if len(out) == len(ALL_BITS):
                    return out
    return out


def s_membership(table: GeneratorTable, x: XClass) -> InS | None:
    """Certificate in S, or None (a proof of non-membership: the search is
    complete over the finitely many lattice-side solutions)."""
    ycls = table.to_y(x)
    cert = effective_lifts(ycls.coeffs).get(x.bits)
    if cert is None:
        return None
    verdict = InS(cert)
    if table.phi(verdict.as_dict()) != x:
        raise InvalidEvidence(f"certificate {verdict.as_dict()} does not re-sum to {x}")
    if trusted_id(x) is not None:
        raise TableInconsistent(
            f"trusted class {x} received certificate {verdict.as_dict()}")
    return verdict


def chi(table: GeneratorTable, x: XClass) -> int:
    """Euler characteristic chi(x) = x.(x - K)/2 + 1."""
    y = table.to_y(x)
    mk = -canonical_class(LAT)
    return (y.dot(y) - y.dot(mk)) // 2 + 1


def _base_case(table: GeneratorTable, trace: ReductionTrace) -> NonEffective | None:
    """NonEffective if the reduction ends in a base case, else None."""
    reduced = trace.final
    if reduced.d < 0:
        return NonEffective(trace, "negative-degree")
    tid = trusted_id(reduced)
    if tid is not None:
        if effective_lifts(table.to_y(reduced).coeffs).get(reduced.bits) is not None:
            raise TableInconsistent(f"trusted class {reduced} is in S")
        return NonEffective(trace, f"trusted:{tid}")
    return None


def prove_non_effective(table: GeneratorTable, x: XClass) -> NonEffective | None:
    """Reduce to a base case with no sections, or give up (None).

    A Serre-dual bound (chi and the reduction of K - x) can never force
    h^0 = 0 on its own, so it is reported as a diagnostic on Unresolved
    verdicts rather than used as a base case here.
    """
    return _base_case(table, minimal_form(table, x)[1])


def decide(table: GeneratorTable, x: XClass) -> Verdict:
    """Full decision: certificate, or proof of non-effectivity, or Unresolved.

    An Unresolved verdict carries chi(x) and the Serre-dual status of K - x
    as diagnostics; neither bound can force h^0(x) = 0 on its own (chi < 0
    with h^2 = 0 only bounds h^0 - h^1), so no conclusion is drawn from them.
    """
    cert = s_membership(table, x)
    if cert is not None:
        return cert
    reduced, trace = minimal_form(table, x)
    non_eff = _base_case(table, trace)
    if non_eff is not None:
        return non_eff
    serre = prove_non_effective(table, table.canonical() - x)
    note = (f"minimal form {reduced} is not in S and not a trusted class; "
            f"h2{'=0' if serre is not None else ' unknown'}")
    return Unresolved(trace, chi(table, x), note)


# ---------------------------------------------------------------------------
# Desk-scale scan
# ---------------------------------------------------------------------------

@dataclass
class ScanRecord:
    x: XClass
    ycls: YClass
    minimal: bool
    verdict: Verdict


@dataclass
class ScanReport:
    d_max: int
    records: list[ScanRecord] = field(default_factory=list)

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
        hits = []
        for r in self.records:
            if isinstance(r.verdict, NonEffective) and r.verdict.base.startswith("trusted:"):
                hits.append((r.verdict.base.split(":", 1)[1],
                             xclass_to_text(r.verdict.trace.final)))
        return sorted(set(hits))

    def counts(self) -> dict[str, int]:
        out = {"candidates": len(self.records),
               "minimal": sum(r.minimal for r in self.records),
               "in_s": 0, "non_effective": 0, "unresolved": 0}
        for r in self.records:
            key = {"InS": "in_s", "NonEffective": "non_effective",
                   "Unresolved": "unresolved"}[type(r.verdict).__name__]
            out[key] += 1
        return out

    def to_text(self) -> str:
        lines = ["burniat-scan v1", f"d_max={self.d_max}"]
        for r in self.records:
            lines.append(f"record {xclass_to_text(r.x)} y={r.ycls} "
                         f"minimal={int(r.minimal)} {verdict_text(r.verdict)}")
        c = self.counts()
        lines.append("summary " + " ".join(f"{k}={v}" for k, v in c.items()))
        lines.append("trusted_hits " + " ".join(f"{tid}:{txt}"
                                                for tid, txt in self.trusted_hits))
        return "\n".join(lines) + "\n"


def cert_text(v: InS) -> str:
    return ",".join(f"{g}:{c}" for g, c in v.as_dict().items())


def trace_text(t: ReductionTrace) -> str:
    return ",".join(f"{s.curve}{'-' if s.reason == 'negative' else 't'}"
                    for s in t.steps)


def verdict_text(v: Verdict) -> str:
    if isinstance(v, InS):
        return f"verdict=in_s cert={cert_text(v)}"
    if isinstance(v, NonEffective):
        return f"verdict=non_effective base={v.base} trace={trace_text(v.trace)}"
    return f"verdict=unresolved chi={v.chi} trace={trace_text(v.trace)}"


def scan(table: GeneratorTable, d_max: int) -> ScanReport:
    """Classify every torsion lift of every nef class with degree <= d_max.

    Candidates are enumerated deterministically (nef classes by degree then
    coefficients, bit-vectors lexicographically); every emitted certificate
    and trace has been re-validated.
    """
    if d_max > 12:
        raise ValueError("desk scale is d_max <= 12")
    report = ScanReport(d_max)
    for ycls in enumerate_nef(d_max):
        for bits in ALL_BITS:
            x = table.from_y(ycls, bits)
            v = decide(table, x)
            if isinstance(v, NonEffective):
                v.trace.validate(table)
                # the trace is the minimal_form pass of x, which stops at
                # once exactly when x is minimal or has negative degree
                minimal = not v.trace.steps and x.d >= 0
            else:
                minimal = is_minimal(table, x)
            report.records.append(ScanRecord(x, ycls, minimal, v))
    return report


# ---------------------------------------------------------------------------
# The canonical-class tables (nonzero torsion twists and one-curve shifts)
# ---------------------------------------------------------------------------

@dataclass
class Step3Report:
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
    k = table.canonical()
    twist_ok, twist_fail = 0, []
    canonical_not_in_s = s_membership(table, k) is None
    for bits in ALL_BITS:
        if not any(bits):
            continue
        x = XClass(k.d, tuple(Block(b.deg, (bits[2 * i], bits[2 * i + 1]))
                              for i, b in enumerate(k.blocks)))
        if s_membership(table, x) is None:
            twist_fail.append(xclass_to_text(x))
        else:
            twist_ok += 1
    shift_ok, shift_fail = 0, []
    for f in BOUNDARY:
        base = k + table.phi({f: 1})
        for bits in ALL_BITS:
            x = XClass(base.d, tuple(Block(b.deg, tuple((a + c) & 1 for a, c in
                                                        zip(b.bits, bits[2 * i:2 * i + 2])))
                                     for i, b in enumerate(base.blocks)))
            if s_membership(table, x) is None:
                shift_fail.append(xclass_to_text(x))
            else:
                shift_ok += 1
    return Step3Report(twist_ok, twist_fail, shift_ok, shift_fail,
                       canonical_not_in_s)


# ---------------------------------------------------------------------------
# Induction for high-degree exceptional-type classes
# ---------------------------------------------------------------------------

def exceptional_induction(table: GeneratorTable, x: XClass,
                          _memo: dict | None = None) -> Verdict:
    """Decide a minimal-form class of exceptional type with d >= 9.

    Subtracts an internal curve whose numerical class is the family's ruling
    fibre (both torsion variants are tried) and recurses; degrees <= 8 are
    grounded in the direct certificate search.
    """
    ycls = table.to_y(x)
    et = classify_exceptional(ycls)
    if et.family in ("NonExceptional", "Type4"):
        raise ValueError(f"{x} is not of inductive exceptional type ({et.family})")
    if x.d < 9:
        raise ValueError("induction applies to degrees >= 9; use the search")
    if not is_minimal(table, x):
        raise ValueError(f"{x} is not in minimal form")
    memo = _memo if _memo is not None else {}

    def resolve(y: XClass) -> InS | None:
        key = xclass_to_text(y)
        if key in memo:
            return memo[key]
        if y.d <= 8:
            out = s_membership(table, y)
            memo[key] = out
            return out
        ycls_y = table.to_y(y)
        fam = classify_exceptional(ycls_y)
        out = None
        for letter in "ABC":
            fibre = table.cfg.strict_transform(INTERNAL_OF_LETTER[letter][0])
            rest = ycls_y - fibre
            if not is_nef_class(rest):
                continue
            rest_et = classify_exceptional(rest)
            if rest_et.family != fam.family or (fam.n or 0) - (rest_et.n or 0) != 1:
                continue
            for gen in INTERNAL_OF_LETTER[letter]:
                sub = resolve(y - table.phi({gen: 1}))
                if sub is not None:
                    cert = list(sub.certificate)
                    cert[GENERATORS.index(gen)] += 1
                    out = InS(tuple(cert))
                    if table.phi(out.as_dict()) != y:
                        raise InvalidEvidence(
                            f"induction certificate does not re-sum to {y}")
                    break
            if out is not None:
                break
        memo[key] = out
        return out

    verdict = resolve(x)
    if verdict is None:
        reduced, trace = minimal_form(table, x)
        return Unresolved(trace, chi(table, x), "exceptional induction exhausted")
    if trusted_id(x) is not None:
        raise TableInconsistent(f"trusted class {x} received a certificate")
    return verdict
