"""The closed-form certificate search against independent references.

effective_lifts(y, mask) returns the first certificate of one torsion lift,
first in the composition order (a3, b3, c3, t_a, t_b).  It is checked mask
by mask against:
* reference_lifts, the direct O(n_h^5) enumeration of every composition of
  n_h and every internal split parity, on a box and on draws;
* first_triple, an O(n_h^3) enumeration of the (a3, b3, c3) triples with
  the least counts of _least, on seeded draws at n_h 40-200;
* a brute-force oracle that sums every nonnegative multiplicity vector of
  the twelve generators up to a degree bound through phi, which checks
  completeness: a lift with no certificate is not in S.
The lemma behind the closed form is checked on its own: on a box, the least
counts of _least fit exactly on the box cut by a slab that the module
docstring's eight bounds give, per parity class of (a3, b3, c3); and within
a triple, the first certificate of a mask, found by enumerating every count
and split, takes the least counts.
"""
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from burniat.config import GENERATORS
from burniat.effective import _least, effective_lifts
from burniat.picard import XClass, build_generator_table

T = build_generator_table(6)


def all_lifts(ycoeffs):
    """{mask: first certificate} of every torsion lift of ycoeffs in S."""
    return {m: c for m in range(64) if (c := effective_lifts(ycoeffs, m)) is not None}


def _letter_split(total, three, first_bit):
    """Split total = x1 + x2 with (x2 + three) = first_bit mod 2, smallest x2."""
    want = (first_bit + three) & 1
    if want > total:
        return None
    return total - want, want  # (x1, x2)


def reference_lifts(ycoeffs):
    nh, n1, n2, n3 = ycoeffs
    out = {}
    if nh < 0:
        return out
    for a3 in range(nh + 1):
        for b3 in range(nh - a3 + 1):
            for c3 in range(nh - a3 - b3 + 1):
                for t_a in range(nh - a3 - b3 - c3 + 1):
                    for t_b in range(nh - a3 - b3 - c3 - t_a + 1):
                        t_c = nh - a3 - b3 - c3 - t_a - t_b
                        a0 = n1 + b3 + c3 + t_c
                        b0 = n2 + a3 + c3 + t_a
                        c0 = n3 + a3 + b3 + t_b
                        if a0 < 0 or b0 < 0 or c0 < 0:
                            continue
                        # mask: A-block from C-letter, B from A, C from B
                        for afirst in ((0, 1) if t_c else (c3 & 1,)):
                            sc = _letter_split(t_c, c3, afirst)
                            if sc is None:
                                continue
                            for bfirst in ((0, 1) if t_a else (a3 & 1,)):
                                sa = _letter_split(t_a, a3, bfirst)
                                if sa is None:
                                    continue
                                for cfirst in ((0, 1) if t_b else (b3 & 1,)):
                                    sb = _letter_split(t_b, b3, cfirst)
                                    if sb is None:
                                        continue
                                    mask = (afirst << 5 | (t_c & 1) << 4
                                            | bfirst << 3 | (t_a & 1) << 2
                                            | cfirst << 1 | (t_b & 1))
                                    if mask in out:
                                        continue
                                    cert = {"A0": a0, "A1": sa[0], "A2": sa[1],
                                            "A3": a3,
                                            "B0": b0, "B1": sb[0], "B2": sb[1],
                                            "B3": b3,
                                            "C0": c0, "C1": sc[0], "C2": sc[1],
                                            "C3": c3}
                                    out[mask] = tuple(cert[g] for g in GENERATORS)
    return out


def _same(ycoeffs):
    assert all_lifts(ycoeffs) == reference_lifts(ycoeffs), ycoeffs


def test_matches_reference_on_a_box():
    # every class with n_h <= 8 and n_i in [-n_h - 2, 2]
    for nh in range(-1, 9):
        for n in itertools.product(range(-nh - 2, 3), repeat=3):
            _same((nh,) + n)


# Derandomized, and one letter at least n_h/2 below zero: the reference costs
# O(n_h^5) and takes seconds near n_h = 40 when every n_i is close to 0.
# That region has all 64 lifts at the first few (a3, b3, c3); the box and
# (12, 0, 0, 0) below cover it.
@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 40).flatmap(lambda nh: st.tuples(
    st.just(nh), *(st.integers(-nh - 3, 3),) * 3)).filter(
        lambda y: min(y[1:]) <= -(y[0] // 2)))
@example((40, -20, -20, -20))
def test_matches_reference_on_draws(ycoeffs):
    _same(ycoeffs)


def test_matches_reference_when_every_lift_is_found_early():
    _same((12, 0, 0, 0))


@pytest.mark.parametrize("ycoeffs, lifts", [
    ((16, -16, 0, 0), 8),
    ((16, -15, 1, 1), 40),
    ((18, -17, 0, 1), 40),
    ((16, -12, -12, -12), 0),
])
def test_matches_reference_when_some_lifts_are_never_found(ycoeffs, lifts):
    # the masks outside S are those whose bounds leave no triple
    _same(ycoeffs)
    assert len(all_lifts(ycoeffs)) == lifts


def first_triple(ycoeffs, mask):
    """(a3, b3, c3, t_a, t_b) of the first certificate of one mask, or None:
    every (a3, b3, c3) in order, each with the least t_a and t_b of _least,
    until t_c = r - t_a - t_b is one of its admissible counts."""
    nh, n1, n2, n3 = ycoeffs
    ka, kb, kc = mask >> 2 & 3, mask & 3, mask >> 4
    for a3 in range(nh + 1):
        for b3 in range(nh - a3 + 1):
            t_b = _least(max(0, -n3 - a3 - b3), b3, kb)
            for c3 in range(nh - a3 - b3 - t_b + 1):  # r >= t_b
                t_a = _least(max(0, -n2 - a3 - c3), a3, ka)
                t_c = nh - a3 - b3 - c3 - t_a - t_b
                if t_c >= _least(max(0, -n1 - b3 - c3), c3, kc) and (t_c ^ kc) & 1 == 0:
                    return a3, b3, c3, t_a, t_b
    return None


# seeded classes at n_h 40-200, n_i in [-n_h - 3, 3], and four masks each
_RNG = random.Random(20240901)
TRIPLE_DRAWS = [(y, mask) for y in (
    (nh, *(_RNG.randint(-nh - 3, 3) for _ in range(3)))
    for nh in (_RNG.randint(40, 200) for _ in range(12))) for mask in _RNG.sample(range(64), 4)]


@pytest.mark.parametrize("ycoeffs, mask", TRIPLE_DRAWS, ids=lambda v: str(v).replace(" ", ""))
def test_matches_the_triple_enumeration_on_seeded_draws(ycoeffs, mask):
    got = effective_lifts(ycoeffs, mask)
    want = first_triple(ycoeffs, mask)
    if want is None:
        assert got is None
        return
    cert = got
    a1, a2, a3, b1, b2, b3, c3 = cert[1], cert[2], cert[3], cert[5], cert[6], cert[7], cert[11]
    assert (a3, b3, c3, a1 + a2, b1 + b2) == want
    assert T.maps_to(cert, XClass(*ycoeffs, mask))


def _up(v, parity):
    """v rounded up to the given parity."""
    return v + ((v ^ parity) & 1)


def _box_and_slab(ycoeffs, mask, qa, qb, qc):
    """The lemma's bounds on one parity class (qa, qb, qc) of (a3, b3, c3):
    the least a3, b3, c3 and a3 + b3 + c3, then the largest."""
    nh, n1, n2, n3 = ycoeffs
    pa, pb, pc = mask >> 2 & 1, mask & 1, mask >> 4 & 1
    ma = 1 if pa else 2 * (mask >> 3 & 1 ^ qa)
    mb = 1 if pb else 2 * (mask >> 1 & 1 ^ qb)
    mc = 1 if pc else 2 * (mask >> 5 & 1 ^ qc)
    la, lb, lc = _up(-n2, pa ^ qa ^ qc), _up(-n3, pb ^ qa ^ qb), _up(-n1, pc ^ qb ^ qc)
    return ((max(qa, la + lb + mc - nh), max(qb, lb + lc + ma - nh),
             max(qc, la + lc + mb - nh), la + lb + lc - nh),
            (nh - lc - ma - mb, nh - la - mb - mc, nh - lb - ma - mc, nh - ma - mb - mc))


def test_the_least_counts_fit_exactly_on_the_box_cut_by_the_slab():
    # every class with n_h <= 3 and n_i in [-n_h - 2, 1], every mask and
    # every triple with a3 + b3 + c3 <= n_h: the least counts of _least fit
    # in r exactly on the lemma's box and slab of the triple's parity class
    # (none on a class that does not count), and effective_lifts takes the
    # least triple that fits
    for nh in range(4):
        triples = [t for t in itertools.product(range(nh + 1), repeat=3) if sum(t) <= nh]
        of_class = {q: [t for t in triples if (t[0] & 1, t[1] & 1, t[2] & 1) == q]
                    for q in itertools.product((0, 1), repeat=3)}
        for n1, n2, n3 in itertools.product(range(-nh - 2, 2), repeat=3):
            y = (nh, n1, n2, n3)
            # per triple, r and the least counts of each letter by index k
            rows = []
            for a3, b3, c3 in triples:
                rows.append(((a3, b3, c3), nh - a3 - b3 - c3,
                             *([_least(max(0, lo), three, k) for k in range(4)]
                               for lo, three in ((-n2 - a3 - c3, a3), (-n3 - a3 - b3, b3),
                                                 (-n1 - b3 - c3, c3)))))
            for mask in range(64):
                ka, kb, kc = mask >> 2 & 3, mask & 3, mask >> 4
                fits = [t for t, r, la, lb, lc in rows
                        if (s := la[ka] + lb[kb] + lc[kc]) <= r and (r - s) & 1 == 0]
                inside = []
                for qa, qb in itertools.product((0, 1), repeat=2):
                    q = qa, qb, (nh ^ ka ^ kb ^ kc ^ qa ^ qb) & 1
                    (la, lb, lc, ls), (ua, ub, uc, us) = _box_and_slab(y, mask, *q)
                    inside += [(a3, b3, c3) for a3, b3, c3 in of_class[q]
                               if la <= a3 <= ua and lb <= b3 <= ub and lc <= c3 <= uc
                               and ls <= a3 + b3 + c3 <= us]
                assert fits == sorted(inside), (y, mask)
                got = effective_lifts(y, mask)
                assert ([] if got is None else [(got[3], got[7], got[11])]) == fits[:1], (y, mask)


def _first_certificates(r, la, lb, lc, a3, b3, c3):
    """{mask: (t_a, t_b)} of the first certificate of every mask of one
    triple, enumerating every count and first bit in order."""
    first = {}
    for t_a in range(la, r + 1):
        for t_b in range(lb, r - t_a + 1):
            t_c = r - t_a - t_b
            if t_c < lc:
                continue
            for afirst, bfirst, cfirst in itertools.product((0, 1), repeat=3):
                if None in (_letter_split(t_c, c3, afirst), _letter_split(t_a, a3, bfirst),
                            _letter_split(t_b, b3, cfirst)):
                    continue
                mask = (afirst << 5 | (t_c & 1) << 4 | bfirst << 3 | (t_a & 1) << 2
                        | cfirst << 1 | (t_b & 1))
                first.setdefault(mask, (t_a, t_b))
    return first


def test_the_first_certificate_of_a_triple_takes_the_least_counts():
    # every r <= 11, every lower bound of each count <= 4 and every parity
    # of a3, b3, c3: a mask has a certificate in the triple exactly when the
    # least counts fit in r, and its first takes the least t_a and t_b
    for r, la, lb, lc, a3, b3, c3 in itertools.product(
            range(12), range(5), range(5), range(5), (0, 1), (0, 1), (0, 1)):
        if la + lb + lc > r:
            continue
        first = _first_certificates(r, la, lb, lc, a3, b3, c3)
        for mask in range(64):
            ta, tb = _least(la, a3, mask >> 2 & 3), _least(lb, b3, mask & 3)
            tc = r - ta - tb
            fit = tc >= _least(lc, c3, mask >> 4) and (tc ^ mask >> 4) & 1 == 0
            assert first.get(mask) == ((ta, tb) if fit else None), (r, la, lb, lc, a3, b3, c3, mask)


def _least_counts(lo, three):
    """The table of least counts that _least replaced, indexed by
    2 * first bit + parity."""
    even, odd = lo + (lo & 1), lo + 1 - (lo & 1)
    if lo:
        return even, odd, even, odd
    return (0, 1, 2, 1) if three & 1 == 0 else (2, 1, 0, 1)


def test_the_closed_form_least_count_is_the_table_it_replaced():
    for lo, three, k in itertools.product(range(50), range(6), range(4)):
        assert _least(lo, three, k) == _least_counts(lo, three)[k], (lo, three, k)


def test_complete_against_brute_force_oracle():
    # every nonnegative generator combination of degree <= D, summed by phi
    D = 8
    rows = [T.phi({g: 1}) for g in GENERATORS]
    reached = set()

    def extend(i, x, budget):
        if i == len(rows):
            reached.add((T.to_y(x).coeffs, x.mask))
            return
        while True:
            extend(i + 1, x, budget)
            budget -= rows[i].d
            if budget < 0:
                return
            x = x + rows[i]

    extend(0, T.phi({}), D)
    # every generator has n_h in {0, 1} and n_i in {-1, 0, 1}, so this box
    # holds every class of degree 3 n_h + n1 + n2 + n3 <= D that S can reach
    lifted = set()
    for nh in range(D + 1):
        for n in itertools.product(range(-D, D + 1), repeat=3):
            y = (nh,) + n
            if 3 * nh + sum(n) <= D:
                lifted.update((y, mask) for mask in all_lifts(y))
    assert len(reached) > 1000
    assert reached == lifted
