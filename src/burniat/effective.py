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
  not in S.  For each (A3, B3, C3) the first certificate of every torsion
  lift has a closed form; the search walks only triples whose key can be new,
  at most 8 n_h on every class probed, and stops at the asked lift.
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

Every memo in this module is a functools cache, so each reports its size
and hits through cache_info().  _key_labels3 is cached on (table, key): the
table stays read-only and a table built later starts cold.  It is a bounded
LRU cache, as is _search, the walk of each class, at 2^11 and 2^10 entries,
above the largest working sets measured for the verify-all suite and a
stream of decide calls (721 and 314); a dropped table is freed once that
many later entries have filled them.  _key_lifts needs no bound: at most
640 keys.

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
from itertools import chain
from types import MappingProxyType
from typing import NamedTuple

from .lattice import YClass, arithmetic_genus
from .delpezzo import (ExceptionalType, classify_exceptional, enumerate_nef,
                       is_nef_class, symmetric_coords)
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
def _key_lifts(key: tuple[int, ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(bitset of masks, lifts) of every triple with this key (see _triples).

    A lift (t_a - la, t_b - lb, afirst, ka, kb, mask) is the first
    certificate of one mask, in the order (t_a, t_b, first bits) of a full
    enumeration of the triple; ka, kb index _least_counts of the A and B
    letters.  All of it depends only on the key, so it is computed on the
    key's least representative.
    """
    la, lb, lc = (4 - k if k > 1 else 0 for k in key[:3])
    least_c = _least_counts(lc, key[2])
    lifts = []
    for ka, t_a in enumerate(_least_counts(la, key[0])):
        for kb, t_b in enumerate(_least_counts(lb, key[1])):
            t_c = la + lb + lc + key[3] - t_a - t_b
            for afirst in (0, 1):
                if t_c >= least_c[2 * afirst + (t_c & 1)]:
                    # mask: A-block from C-letter, B from A, C from B
                    lifts.append((t_a - la, t_b - lb, afirst, ka, kb,
                                  afirst << 5 | (t_c & 1) << 4 | ka << 2 | kb))
    lifts.sort()
    return sum(1 << f[5] for f in lifts), tuple(lifts)


def _triples(ycoeffs: tuple[int, ...]):
    """(a3, b3, c3, la, lb, lc, key) in order, with the first triple of each key.

    la, lb, lc are the least t_a, t_b, t_c that a0, b0, c0 >= 0 allow.  With
    u = -n2 - a3, w = -n1 - b3 and top = r - lb at c3 = 0, la + lc + c3 =
    max(u + w - c3, u, w, c3) <= top, so the rows (a3, b3) with u, w <= top
    form two closed-form ranges and a row's triples one c3 range.  The key is
    what _least_counts needs besides l, per letter: 2 + l mod 2 if l > 0, else
    the parity of three; then the slack r - la - lb - lc, capped at 8 or 9
    with its parity kept (t_c = r - t_a - t_b meets every least count from
    slack 6).  effective_lifts gains nothing from a key it has seen, so
    triples whose key repeats an earlier one are skipped (some still come):
    * along c3 the slack rises before min(u, w), is constant up to max(u, w)
      and falls to 0 at top, so the key is period 2 on the constant stretch
      and two triples stand for the rest; the other two stretches repeat a
      key only at slack >= 10, but from slack 5 a key reaches every mask
      whose counts sum to r mod 2, so the two triples before it reach all
      64 masks and effective_lifts has stopped;
    * u and w act only as max(u, 0) and max(w, 0), which the code keeps in u
      and w, so a row's keys depend only on (a3 mod 2, u, key_b, w, top);
    * from a3 = max(first a3, -n2) + 2 on, u = 0 on rows a3 and a3 - 2, so a
      row with lb > 0 repeats row (a3 - 2, b3) and a row with w = 0 repeats
      row (a3 - 2, b3 + 2): only the rows with lb = 0 < w are walked;
    * below that a3, along b3, while lb > 0 = w, top = n_h + n3 and row
      b3 + 2 has the keys of row b3, so two rows of each such run are walked.
    """
    nh, n1, n2, n3 = ycoeffs
    if nh + n3 < 0:  # then top < 0 on every row
        return
    a_lo, b_lo = max(0, -nh - n2 - n3), max(0, -nh - n1 - n3)
    a_new = max(a_lo, -n2) + 2
    # rows skip, skip + 1, ... repeat rows skip - 2, skip - 1 while lb > 0
    skip = max(b_lo, -n1) + 2
    for a3 in range(a_lo, min(nh, nh + n1) + 1):
        u = -n2 - a3 if a3 < -n2 else 0
        b_hi = (nh + n2 if u else nh - a3) + 1
        if a3 < a_new:
            b3s = chain(range(b_lo, min(skip, b_hi)), range(max(skip, -n3 - a3), b_hi))
        else:  # the rows with lb = 0 < w
            b3s = range(max(b_lo, -n3 - a3), min(-n1, b_hi))
        for b3 in b3s:
            w = -n1 - b3 if b3 < -n1 else 0
            lb = -n3 - a3 - b3 if b3 < -n3 - a3 else 0
            top = nh - a3 - b3 - lb
            key_b = 2 + (lb & 1) if lb else b3 & 1
            mid, hi = (u, w) if u < w else (w, u)
            c3 = u + w - top if u + w > top else 0
            while c3 <= top:
                la = u - c3 if u > c3 else 0
                lc = w - c3 if w > c3 else 0
                slack = top - c3 - la - lc
                yield (a3, b3, c3, la, lb, lc,
                       (2 + (la & 1) if la else a3 & 1, key_b,
                        2 + (lc & 1) if lc else c3 & 1,
                        slack if slack < 10 else 8 + (slack & 1)))
                c3 += 1
                # two triples of the constant stretch stand for the rest of it
                if (la or lc) and c3 == mid + 2:
                    c3 = hi


@lru_cache(maxsize=2**10)
def _search(ycoeffs: tuple[int, ...]) -> list:
    """The walk of a class: triples left (None once spent), lifts, mask
    bitset, and the read-only view of the lifts that callers get."""
    out: dict[int, tuple[int, ...]] = {}
    return [_triples(ycoeffs), out, 0, MappingProxyType(out)]


def effective_lifts(ycoeffs: tuple[int, ...],
                    want: int | None = None) -> MappingProxyType[int, tuple[int, ...]]:
    """The torsion lifts in S of a numerical class: all of them when want is
    None, else at least the one of mask want if it is in S.

    Maps achievable 6-bit torsion masks to one certificate each: the first
    one in the composition order (a3, b3, c3, t_a, t_b) of n_h into the three
    boundary multiplicities A3, B3, C3 and the internal letter counts
    t_a = A1 + A2, t_b = B1 + B2, t_c = C1 + C2.  The other boundary
    multiplicities are then fixed, a0 = n1 + b3 + c3 + t_c,
    b0 = n2 + a3 + c3 + t_a and c0 = n3 + a3 + b3 + t_b, and the internal
    splits only matter modulo 2, so this enumerates every certificate up to
    those splits: the search is complete.

    Closed-form inner step: given (a3, b3, c3) and r = n_h - a3 - b3 - c3,
    a target mask fixes the parities of t_a, t_b and t_c, and a zero
    count fixes the matching first bit (see _least_counts).  The admissible
    values of each count are therefore all values of its parity from a least
    one up, so the first certificate takes the least t_a and t_b, and one
    exists iff t_c = r - t_a - t_b is at least its own least value.

    _key_lifts lists these certificates once per key of the triple, shifted
    by its least counts.  A triple is skipped when the masks of its key add
    none to those found, so the dict is unchanged.  _search keeps the walk
    of each class; a call walks on until it has want or 64 lifts, or the
    triples run out, and a certificate is set once, at the first triple with
    its mask, so the dict is the complete one cut short, in the same order.
    The dict is returned as its read-only view, built with it by _search, so
    a caller cannot change what later calls read.
    On every class probed up to n_h = 240 the whole walk took at most 8 n_h
    triples; cli.EFFECTIVE_MAX_NH states the time of the slowest.
    """
    walk, out, have, view = state = _search(ycoeffs)
    if walk is None or want in out:
        return view
    nh, n1, n2, n3 = ycoeffs
    try:
        for a3, b3, c3, la, lb, lc, key in walk:
            reach, lifts = _key_lifts(key)
            if not reach & ~have:
                continue
            for da, db, afirst, ka, kb, mask in lifts:
                if have >> mask & 1:
                    continue
                t_a, t_b = la + da, lb + db
                t_c = nh - a3 - b3 - c3 - t_a - t_b
                a2, b2, c2 = ((ka >> 1) + a3) & 1, ((kb >> 1) + b3) & 1, (afirst + c3) & 1
                # in GENERATORS order
                out[mask] = (n1 + b3 + c3 + t_c, t_a - a2, a2, a3,
                             n2 + a3 + c3 + t_a, t_b - b2, b2, b3,
                             n3 + a3 + b3 + t_b, t_c - c2, c2, c3)
                have |= 1 << mask
            if len(out) == 64:
                break
            if want in out:
                state[2] = have
                return view
    except BaseException:  # a walk cut short would read as spent: start over
        out.clear()
        state[0], state[2] = _triples(ycoeffs), 0
        raise
    state[0] = None  # spent
    return view


def s_membership(table: GeneratorTable, x: XClass) -> InS | None:
    """Certificate in S, or None (a proof of non-membership: the search is
    complete over the finitely many lattice-side solutions)."""
    cert = effective_lifts(table.require_k6(x)[:4], x.mask).get(x.mask)
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
        if reduced.mask in effective_lifts(reduced[:4], reduced.mask):
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

    def resolve(p: XClass, fam: ExceptionalType) -> InS | None:
        """fam is the exceptional type of p's numerical class."""
        if p.d <= 8:
            return s_membership(table, p)
        for gens in zip(INTERNAL[::2], INTERNAL[1::2]):
            # both internal curves of a letter have the ruling fibre's class
            rest = YClass((p - table.rows[gens[0]])[:4])
            if not is_nef_class(rest):
                continue
            rest_et = classify_exceptional(rest)
            if rest_et.family != fam.family or (fam.n or 0) - (rest_et.n or 0) != 1:
                continue
            for gen in gens:
                sub = resolve(p - table.rows[gen], rest_et)
                if sub is not None:
                    cert = list(sub.certificate)
                    cert[GENERATORS.index(gen)] += 1
                    return _checked_ins(table, tuple(cert), p)
        return None

    verdict = resolve(x, et)
    if verdict is None:  # x is minimal, so its reduction is the empty trace
        return Unresolved(ReductionTrace(x, (), x), chi(table, x),
                          "exceptional induction exhausted")
    return verdict
