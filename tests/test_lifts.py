"""The closed-form certificate search against two independent references.

reference_lifts is the direct O(n_h^5) enumeration of every composition of
n_h and every internal split parity; effective_lifts must return the same
dict, certificates and insertion order included.  The brute-force oracle
sums every nonnegative multiplicity vector of the twelve generators up to a
degree bound through phi, which checks completeness: a lift with no
certificate is not in S.  The key test checks the table that the search
reads once per key: the lifts of a key, shifted by a triple's least counts,
are the first certificates that a full enumeration of the triple finds.
_all_triples is the full enumeration of the (a3, b3, c3) triples; _triples
must yield the first triple of every key of it, in its order, from rows
(a3, b3) whose row keys are distinct, and a number of triples linear in n_h
on the classes that used to need about n_h^2.
A search asked for one mask at a time resumes its walk: every answer, and
the dict it ends with, are those of the complete walk.
"""
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from burniat.config import GENERATORS
import burniat.effective
from burniat.effective import _key_lifts, _search, _triples, effective_lifts
from burniat.picard import build_generator_table

T = build_generator_table(6)


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


def _walk_alone(ycoeffs, masks):
    """The answers of a fresh search of ycoeffs asked for each of masks in
    turn, and its dict after a last call with want=None."""
    state = _search.__wrapped__(ycoeffs)  # not the cached walk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(burniat.effective, "_search", lambda y: state)
        answers = [effective_lifts(ycoeffs, m).get(m) for m in masks]
        return answers, effective_lifts(ycoeffs)


# seeded orders of the 64 masks, one picked per class by its hash, which
# is the same in every run for a tuple of ints
ORDERS = [random.Random(seed).sample(range(64), 64) for seed in range(61)]


def _resumes_to(ycoeffs, complete):
    # every mask, absent ones included, one at a time in a seeded order
    masks = ORDERS[hash(ycoeffs) % len(ORDERS)]
    answers, got = _walk_alone(ycoeffs, masks)
    assert answers == [complete.get(m) for m in masks], ycoeffs
    assert list(got.items()) == list(complete.items()), ycoeffs


def _same(ycoeffs):
    got, want = effective_lifts(ycoeffs), reference_lifts(ycoeffs)
    assert list(got.items()) == list(want.items()), ycoeffs
    _resumes_to(ycoeffs, want)


def test_matches_reference_on_a_box():
    # every class with n_h <= 8 and n_i in [-n_h - 2, 2]
    for nh in range(-1, 9):
        for n in itertools.product(range(-nh - 2, 3), repeat=3):
            _same((nh,) + n)


# Derandomized, and one letter at least n_h/2 below zero: the reference costs
# O(n_h^5) and takes seconds near n_h = 40 when every n_i is close to 0.
# That region finds all 64 lifts in the first few (a3, b3, c3); the box and
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
    # the search cannot stop at 64 lifts, so it runs through every triple
    # and the skip of triples that add no mask decides the whole dict
    _same(ycoeffs)
    assert len(effective_lifts(ycoeffs)) == lifts


def _all_triples(ycoeffs):
    """(a3, b3, c3, la, lb, lc, key) of every triple with la + lb + lc <= r."""
    nh, n1, n2, n3 = ycoeffs
    for a3 in range(nh + 1):
        u = -n2 - a3
        for b3 in range(nh - a3 + 1):
            w = -n1 - b3
            lb = max(-n3 - a3 - b3, 0)
            top = nh - a3 - b3 - lb  # r - lb at c3 = 0
            if u > top or w > top:
                continue
            key_b = 2 + (lb & 1) if lb else b3 & 1
            for c3 in range(max(0, u + w - top), top + 1):
                la = u - c3 if u > c3 else 0
                lc = w - c3 if w > c3 else 0
                slack = top - c3 - la - lc
                yield (a3, b3, c3, la, lb, lc,
                       (2 + (la & 1) if la else a3 & 1, key_b,
                        2 + (lc & 1) if lc else c3 & 1,
                        slack if slack < 10 else 8 + (slack & 1)))


def _first_of_each_key(triples):
    first = {}
    for t in triples:
        first.setdefault(t[6], t)
    return list(first.values())


def _yields_the_first_triples(ycoeffs, full):
    """full is {(a3, b3, c3): triple} of the full enumeration."""
    nh, n1, n2, _ = ycoeffs
    got = list(_triples(ycoeffs))
    # the row key of each (a3, b3) walked, on which all its keys depend
    rows = {(a3, b3): (a3 & 1, max(-n2 - a3, 0), key[1], max(-n1 - b3, 0),
                       nh - a3 - b3 - lb)
            for a3, b3, _, _, lb, _, key in got}
    # a subsequence of the full enumeration, in its order, without repeats,
    # that walks no row whose keys an earlier row has
    return ([t[:3] for t in got] == sorted({t[:3] for t in got})
            and all(full.get(t[:3]) == t for t in got)
            and _first_of_each_key(got) == _first_of_each_key(full.values())
            and len(set(rows.values())) == len(rows))


# every class with n_h <= 11 and n_i in [-n_h - 3, 3]
BOX = [(nh,) + n for nh in range(12)
       for n in itertools.product(range(-nh - 3, 4), repeat=3)]


@pytest.fixture(scope="module")
def box_triples():
    """One walk of the full enumeration over BOX for the two tests below:
    the classes on which _triples does not yield the first triple of every
    key, and the inputs of the first certificates of every triple.  The
    first certificates of a triple depend only on r, the least counts and
    the parities of a3, b3, c3."""
    unlike, cases = [], set()
    for y in BOX:
        full = {t[:3]: t for t in _all_triples(y)}
        if not _yields_the_first_triples(y, full):
            unlike.append(y)
        for a3, b3, c3, la, lb, lc, key in full.values():
            cases.add((y[0] - a3 - b3 - c3, la, lb, lc, a3 & 1, b3 & 1, c3 & 1, key))
    return unlike, cases


def test_triples_yield_the_first_triple_of_every_key_on_a_box(box_triples):
    assert box_triples[0] == []


# the first two shapes of test_search_visits_a_linear_number_of_triples at
# n_h = 60, in every letter order
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 60).flatmap(lambda nh: st.tuples(
    st.just(nh), *(st.integers(-nh - 3, 3),) * 3)))
@example((60, 0, 0, -60))
@example((60, 0, -60, 0))
@example((60, -60, 0, 0))
@example((60, -59, 1, 1))
@example((60, 1, -59, 1))
@example((60, 1, 1, -59))
def test_triples_yield_the_first_triple_of_every_key_on_draws(ycoeffs):
    assert _yields_the_first_triples(ycoeffs, {t[:3]: t for t in _all_triples(ycoeffs)})


@pytest.mark.parametrize("ycoeffs", [
    y for nh in (120, 240)
    for y in ((nh, 0, 0, -nh), (nh, -nh + 1, 1, 1), (nh, -1, 1, -nh + 1))], ids=str)
def test_search_visits_a_linear_number_of_triples(monkeypatch, ycoeffs):
    # the full enumeration has about n_h^2 / 2 or n_h^2 triples on these
    consumed = 0

    def counting(y):
        nonlocal consumed
        for t in _triples(y):
            consumed += 1
            yield t

    # a fresh walk on every call, run to its end by want=None
    monkeypatch.setattr(burniat.effective, "_search", _search.__wrapped__)
    monkeypatch.setattr(burniat.effective, "_triples", counting)
    got = effective_lifts(ycoeffs)
    assert consumed <= 8 * ycoeffs[0], consumed
    monkeypatch.setattr(burniat.effective, "_triples", _all_triples)
    assert list(got.items()) == list(effective_lifts(ycoeffs).items())


def test_a_resumed_walk_equals_the_complete_walk_on_a_box():
    for y in BOX:
        _resumes_to(y, _walk_alone(y, [])[1])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 60).flatmap(lambda nh: st.tuples(
    st.just(nh), *(st.integers(-nh - 3, 3),) * 3)))
@example((60, -30, -30, -30))
@example((60, -59, 1, 1))
def test_a_resumed_walk_equals_the_complete_walk_on_draws(ycoeffs):
    _resumes_to(ycoeffs, _walk_alone(ycoeffs, [])[1])


def test_a_search_stops_at_the_asked_lift(monkeypatch):
    consumed = 0

    def counting(y):
        nonlocal consumed
        for t in _triples(y):
            consumed += 1
            yield t

    def walked(ycoeffs, want):
        # the triples a fresh walk consumes to answer want
        nonlocal consumed
        consumed = 0
        effective_lifts(ycoeffs, want)
        return consumed

    monkeypatch.setattr(burniat.effective, "_search", _search.__wrapped__)
    monkeypatch.setattr(burniat.effective, "_triples", counting)
    # every lift of a member class is found before the walk ends at 64
    member = (30, -15, -15, -15)
    assert len(effective_lifts(member)) == 64
    assert walked(member, 0) < walked(member, None)
    # a mask outside S is known only once every triple is walked
    other = (16, -16, 0, 0)
    assert 1 not in effective_lifts(other)
    assert walked(other, 1) == walked(other, None) == len(list(_triples(other)))


def test_a_walk_cut_by_an_exception_starts_over(monkeypatch):
    # an exception in the walk closes the generator of triples; the search
    # must not read it as spent, which would cut the dict short
    ycoeffs, walks = (16, -15, 1, 1), []

    def cut_once(y):
        walks.append(y)
        for i, t in enumerate(_triples(y)):
            if len(walks) == 1 and i == 5:
                raise RuntimeError("cut")
            yield t

    monkeypatch.setattr(burniat.effective, "_triples", cut_once)
    state = _search.__wrapped__(ycoeffs)
    monkeypatch.setattr(burniat.effective, "_search", lambda y: state)
    with pytest.raises(RuntimeError, match="cut"):
        effective_lifts(ycoeffs)
    got = effective_lifts(ycoeffs)
    assert len(walks) == 2
    assert list(got.items()) == list(reference_lifts(ycoeffs).items())


def test_no_triple_without_a_lattice_solution():
    assert list(_triples((16, -12, -12, -12))) == []


def _first_certificates(r, la, lb, lc, a3, b3, c3):
    """(t_a, t_b, afirst, ka, kb, mask) of the first certificate of every mask
    of one triple, enumerating every count and first bit in order."""
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
                ka, kb = 2 * bfirst + (t_a & 1), 2 * cfirst + (t_b & 1)
                mask = afirst << 5 | (t_c & 1) << 4 | ka << 2 | kb
                first.setdefault(mask, (t_a, t_b, afirst, ka, kb, mask))
    return list(first.values())


def test_key_lifts_are_the_first_certificates_of_each_triple(box_triples):
    # every triple of the full enumeration for a class in BOX, which reaches
    # slack 11 above the cap of the key, each input of its first
    # certificates once
    cases = box_triples[1]
    assert len(cases) > 4000
    for case in cases:
        r, la, lb, lc, a3, b3, c3, key = case
        want = _first_certificates(r, la, lb, lc, a3, b3, c3)
        reach, lifts = _key_lifts(key)
        assert [(la + da, lb + db, *rest) for da, db, *rest in lifts] == want, case
        assert reach == sum(1 << f[5] for f in want), case


def test_from_slack_5_a_key_reaches_every_mask_of_the_parity_of_r():
    # t_a + t_b + t_c = r fixes only the sum of their parities: two
    # consecutive triples of a row with slack >= 5 reach all 64 masks, so
    # _triples needs no shortcut where the slack rises or falls past 10
    for key in itertools.product(range(4), range(4), range(4), range(5, 10)):
        r = sum(4 - k if k > 1 else 0 for k in key[:3]) + key[3]
        parity = sum(1 << m for m in range(64) if (m >> 4 ^ m >> 2 ^ m) & 1 == r & 1)
        assert _key_lifts(key)[0] == parity, key


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
                lifted.update((y, mask) for mask in effective_lifts(y))
    assert len(reached) > 1000
    assert reached == lifted
