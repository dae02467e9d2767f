import hashlib
import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from burniat.config import (BOUNDARY, CURVE_CLASS, GENERATORS, STANDARD_CASES,
                            make_config, standard_config)
from burniat.delpezzo import symmetric_coords
from burniat.effective import KX
from burniat.lattice import YClass, canonical_class, subgroup_index
from burniat.picard import (GeneratorTable, MASK_BITS, MEET,
                            NotARepresentableClass, TableInconsistent, VEC,
                            VEC_COMBO, XClass, _torsion_solution,
                            build_generator_table,
                            parse_xclass, picard_image_index, point_vector,
                            table_override_from_text, table_to_text,
                            torsion_subgroup, xclass_to_text)

T6 = build_generator_table(6)


def y_class(combo):
    """The numerical class sum(c * CURVE_CLASS[g]) of a combo on K^2 = 6."""
    total = YClass((0, 0, 0, 0))
    for g, c in combo.items():
        total = total + c * CURVE_CLASS[g]
    return total


# --- generator table ---------------------------------------------------------

def test_table_blocks_examples():
    # (deg, 2-bit mask); the mask of the label 10 is 0b10
    assert T6.block[("C3", "A0")] == (1, 0b10)
    assert T6.block[("A0", "A0")] == (-1, 0b00)
    assert T6.block[("A1", "B0")] == (1, 0b01)
    assert T6.block[("A1", "A0")] == (0, 0b00)


def test_tables_build_for_all_cases():
    for ksq, variant in STANDARD_CASES:
        GeneratorTable(standard_config(ksq, variant))


def test_a_table_refuses_changes_after_construction():
    # its dicts are read-only views, and no attribute is set twice, so
    # nothing skips the consistency suite or leaves stale memo entries
    table = GeneratorTable(standard_config(6))
    with pytest.raises(TypeError):
        table.block["C1", "A3"] = (1, 0b00)
    with pytest.raises(TypeError):
        table.rows["A0"] = XClass(0, 2, 0, 0, 0)
    with pytest.raises(TypeError):
        table.labels3_rows["A0"] ^= 0b01_00_00
    for name in ("block", "rows", "labels3_rows", "_labels3"):
        with pytest.raises(AttributeError, match=f"^GeneratorTable.{name} is read-only$"):
            setattr(table, name, getattr(table, name))
        with pytest.raises(AttributeError, match=f"^GeneratorTable.{name} is read-only$"):
            delattr(table, name)
    assert table_to_text(table) == table_to_text(T6)


def test_standard_table_is_built_once_however_the_variant_is_passed():
    assert build_generator_table(6) is build_generator_table(6, "plain")
    assert build_generator_table(2) is build_generator_table(ksq=2, variant="plain")


def test_corrupted_table_rejected():
    override = {("C3", "A0"): (1, 0b01)}
    with pytest.raises(TableInconsistent):
        GeneratorTable(standard_config(6), override)
    override = {("A1", "B0"): (0, 0b01)}  # wrong degree, refused at entry
    with pytest.raises(TableInconsistent,
                       match=r"^block degree \(A1,B0\) disagrees with the lattice$"):
        GeneratorTable(standard_config(6), override)


# two-line overrides that checks (a), (b) and (d) accept: labels on a curve
# that the generators miss, and B3's meeting points labelled as C0's and A2's
@pytest.mark.parametrize("override, curve", [
    ({("A0", "A3"): (0, 0b10), ("A2", "A3"): (0, 0b10)}, "A3"),
    ({("A0", "B3"): (1, 0b00), ("A1", "B3"): (1, 0b11)}, "B3"),
])
def test_check_e_refuses_labels_that_break_the_filling_rule(override, curve):
    with pytest.raises(TableInconsistent,
                       match=f"^the labels on {curve} break the filling rule$"):
        GeneratorTable(standard_config(6), override)


# entries that fail before any row is built: a label outside 0..3, a key
# outside GENERATORS x BOUNDARY, and a degree or label that is not an int
@pytest.mark.parametrize("key, blk", [
    (("C1", "A0"), (1, 4)),
    (("C1", "A0"), (1, -1)),
    (("X9", "A0"), (1, 1)),
    (("C1", "A0"), (1.0, 1)),
    (("C1", "A0"), (True, 1)),
    (("C1", "A0"), (1, 1.0)),
    (("C1", "A0"), (1,)),
    (("C1", "A0"), [1, 1]),
])
def test_each_malformed_override_entry_is_refused_by_name(key, blk):
    with pytest.raises(TableInconsistent,
                       match=f"^block override {re.escape(repr(key))}: {re.escape(repr(blk))} "):
        GeneratorTable(standard_config(6), {key: blk})


def _relabelled(table, g, f):
    """The three blocks (deg, mask) that differ from block (g, f) in the mask."""
    deg, mask = table.block[(g, f)]
    return [(deg, m) for m in range(4) if m != mask]


@pytest.mark.parametrize("case", STANDARD_CASES)
def test_every_relabelled_derived_column_fails_check_b(case):
    # the A3, B3, C3 columns enter neither phi nor the degree check, so the
    # well-definedness of the derived restriction maps must refuse each label
    table = build_generator_table(*case)
    overrides = [{(g, f): blk} for g in GENERATORS for f in ("A3", "B3", "C3")
                 for blk in _relabelled(table, g, f)]
    assert len(overrides) == 108
    for override in overrides:
        with pytest.raises(TableInconsistent, match="A3, B3, C3 are not well defined"):
            GeneratorTable(table.cfg, override)


def _relabellings(f, labels):
    """Each assignment of the labels to the meeting points of f that carry
    them in the K^2 = 6 table, as a partial override."""
    points = [g for g, m in MEET[f].items() if m in labels]
    return [{(g, f): (1, m) for g, m in zip(points, perm)}
            for perm in itertools.permutations(labels)]


def _merged_relabellings(curves, labels):
    """One override per choice of a relabelling on each of the curves."""
    return [{key: blk for part in parts for key, blk in part.items()}
            for parts in itertools.product(*(_relabellings(f, labels) for f in curves))]


def test_permuting_01_10_11_on_a3_b3_c3_is_accepted_with_index_3():
    # the derived columns enter no index but (b)'s, and each of these tables
    # passes the whole suite with the image index of the standard one
    overrides = _merged_relabellings(("A3", "B3", "C3"), (1, 2, 3))
    assert len(overrides) == 216
    for override in overrides:
        assert GeneratorTable(T6.cfg, override).image_index == 3


def test_check_a_refuses_relabelled_meeting_points_on_a0_b0_c0():
    # a seeded sample of the per-curve label permutations on A0, B0, C0,
    # the standard labels left out
    overrides = [o for o in _merged_relabellings(("A0", "B0", "C0"), (0, 1, 2, 3))
                 if any(T6.block[key] != blk for key, blk in o.items())]
    assert len(overrides) == 24 ** 3 - 1
    for override in random.Random(53).sample(overrides, 200):
        with pytest.raises(TableInconsistent, match="maps to"):
            GeneratorTable(T6.cfg, override)


def test_every_single_entry_override_of_the_k6_table_is_refused():
    # each block with another label or with its degree one off
    overrides = []
    for g in GENERATORS:
        for f in BOUNDARY:
            deg, mask = T6.block[(g, f)]
            overrides += [{(g, f): blk} for blk in
                          _relabelled(T6, g, f) + [(deg - 1, mask), (deg + 1, mask)]]
    assert len(overrides) == 360
    for override in overrides:
        with pytest.raises(TableInconsistent):
            GeneratorTable(T6.cfg, override)


def test_table_text_round_trip():
    text = table_to_text(T6)
    # the printed format itself, which a change made to both the writer and
    # the parser would keep round-tripping
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "78788501d294c9b64618375cd543836c2ff8d3daa167f2afcdb0b83f823569a3"
    lines = text.splitlines()
    for line in ("C3 A0 1 10", "A1 B0 1 01", "C2 A0 1 11", "A0 A0 -1 00"):
        assert line in lines
    override = table_override_from_text(text)
    rebuilt = GeneratorTable(standard_config(6), override)
    assert rebuilt.block == T6.block
    x = T6.phi({"C0": 1})
    assert rebuilt.labels(x) == T6.labels(x)
    with pytest.raises(ValueError):
        table_override_from_text("A9 B0 1 00")
    with pytest.raises(ValueError):
        table_override_from_text("A0 B0 1 2x")


def test_table_override_refuses_a_degree_that_is_not_an_integer():
    # int() alone would also take "+1" and "1_0", and its message named no line
    for deg in ("x", "+1", "1_0", "1.0", "--1"):
        line = f"A0 A0 {deg} 00"
        with pytest.raises(ValueError, match=f"bad degree in '{re.escape(line)}'"):
            table_override_from_text(line)
    assert table_override_from_text("A0 A0 -1 00\nA0 B0 0 00") == \
        {("A0", "A0"): (-1, 0), ("A0", "B0"): (0, 0)}


def test_table_override_refuses_a_repeated_block():
    # two lines for one (GEN, CURVE) would leave the block to the last one
    text = table_to_text(T6)
    assert table_override_from_text(text + "# no block twice\n") == T6.block
    for again in ("C3 A0 1 10", "C3 A0 1 01"):
        with pytest.raises(ValueError, match="repeated"):
            table_override_from_text(text + again + "\n")


# --- phi ----------------------------------------------------------------------

def test_phi_examples():
    assert T6.phi({}) == XClass(0, 0, 0, 0, 0)
    boundary_sum = T6.phi({f: 1 for f in BOUNDARY})
    assert xclass_to_text(boundary_sum) == "(6; 1 10; 1 10; 1 10)"
    a1 = T6.phi({"A1": 1})
    assert xclass_to_text(a1) == "(2; 0 00; 1 01; 0 00)"


def test_phi_congruence_closure():
    rng = random.Random(3)
    for _ in range(100):
        combo = {g: rng.randint(-2, 2) for g in GENERATORS}
        x = T6.phi(combo)
        assert (x.d + x.r0 + x.r1 + x.r2) % 3 == 0


def test_vec_combos_map_to_basis_vectors():
    for name, combo in VEC_COMBO.items():
        img = T6.phi(combo)
        assert img.mask == VEC[name]
        assert (img.d, img.r0, img.r1, img.r2) == (0, 0, 0, 0)


def test_canonical_class_and_torsion_correction():
    assert xclass_to_text(KX) == "(6; 1 00; 1 00; 1 00)"
    # the boundary sum is K plus the torsion (10,10,10)
    boundary_sum = T6.phi({f: 1 for f in BOUNDARY})
    diff = boundary_sum - KX
    assert diff.d == 0 and diff.mask == 0b10_10_10
    # K itself as an explicit combo
    combo = {f: 1 for f in BOUNDARY}
    for v in ("A1", "B1", "C1"):
        for g, c in VEC_COMBO[v].items():
            combo[g] = combo.get(g, 0) + c
    assert T6.phi(combo) == KX


# --- the integer kernel against the block-sum reference -----------------------

TABLES = {case: GeneratorTable(standard_config(*case)) for case in STANDARD_CASES}
COEFFS = st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12))
COMBOS = st.dictionaries(st.sampled_from(GENERATORS), COEFFS)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def _label(mask2):
    """The torsion label (b0, b1) of a 2-bit block mask."""
    return mask2 >> 1, mask2 & 1


def bits_add(x, y):
    """Sum of two 0/1 tuples over GF(2)."""
    return tuple((a + b) & 1 for a, b in zip(x, y))


def _block_sum(a, c, block):
    """a + c * block, a as (deg, label) and block as (deg, 2-bit mask)."""
    deg, mask2 = block
    return a[0] + c * deg, bits_add(a[1], _label(mask2)) if c & 1 else a[1]


def reference_phi(table, combo):
    """phi as (d, block degrees, torsion bits, emult), the sum of the scaled
    generator blocks with their labels added by bits_add; d and emult are
    the lattice pairings of the strict transforms with -K and the E_s, and
    the label E{s} stands for 2E_s, of d = 2 and emult -2 at s."""
    cfg = table.cfg
    minus_k = -canonical_class(cfg.lattice)
    d, blocks, em = 0, ((0, (0, 0)),) * 3, (0,) * table.k
    for g, c in combo.items():
        if g.startswith("E"):
            d += 2 * c
            em = tuple(a - 2 * c if f"E{t}" == g else a for t, a in enumerate(em))
            continue
        sg = cfg.strict_transform(g)
        d += c * sg.dot(minus_k)
        blocks = tuple(_block_sum(a, c, table.block[(g, f)])
                       for a, f in zip(blocks, ("A0", "B0", "C0")))
        em = tuple(a + c * sg.dot(cfg.exceptional(s)) for s, a in enumerate(em))
    return d, tuple(deg for deg, _ in blocks), sum((t for _, t in blocks), ()), em


def reference_column(table, combo, f):
    out = (0, (0, 0))
    for g, c in combo.items():
        out = _block_sum(out, c, table.block[(g, f)])
    return out


@pytest.mark.parametrize("case", STANDARD_CASES)
def test_rows_are_the_strict_transforms_and_their_masks(case):
    table = TABLES[case]
    cfg = table.cfg
    for g in GENERATORS:
        mask = sum(table.block[g, f][1] << 4 - 2 * i
                   for i, f in enumerate(("A0", "B0", "C0")))
        row = table.rows[g]
        assert (*row[:4], *row.ns) == cfg.strict_transform(g).coeffs
        assert row.mask == mask
    e_labels = [f"E{s}" for s in range(table.k)]
    for s, e in enumerate(e_labels):
        row = table.rows[e]
        assert (*row[:4], *row.ns) == (2 * cfg.exceptional(s)).coeffs and row.mask == 0
    assert list(table.rows) == [*GENERATORS, *e_labels]


def test_phi_of_each_row_matches_the_block_sums():
    # a deterministic sweep of every label of every standard table, where the
    # property test below only samples
    for case, table in TABLES.items():
        for g in (*GENERATORS, *(f"E{s}" for s in range(table.k))):
            for c in (1, -1, 2, 3):
                x = table.phi({g: c})
                assert (x.d, (x.r0, x.r1, x.r2), MASK_BITS[x.mask], x.emult) == \
                    reference_phi(table, {g: c}), (case, g, c)


def test_printed_coordinates_are_the_lattice_pairings_of_a_row():
    # d, r0, r1, r2 and emult of a class with and without an exceptional
    # part against its pairings with -K, e_1, e_2, e_3 and the E_s
    rng = random.Random(43)
    for k in range(5):
        cfg = make_config([("A1", "B1", "C1"), ("A1", "B2", "C2"),
                           ("A2", "B1", "C2"), ("A2", "B2", "C1")][:k])
        minus_k = -canonical_class(cfg.lattice)
        for _ in range(300):
            y = YClass(tuple(rng.randint(-50, 50) for _ in range(4 + k)))
            mask = rng.randrange(64)
            x = XClass(*y.coeffs[:4], mask, y.coeffs[4:])
            assert (x.d, x.r0, x.r1, x.r2, x.mask, x.emult) == (
                y.dot(minus_k), *(y.dot(cfg.lattice.e(i)) for i in (1, 2, 3)), mask,
                tuple(y.dot(cfg.exceptional(s)) for s in range(k)))


@PROPERTY
@given(case=st.sampled_from(STANDARD_CASES), combo=COMBOS, data=st.data())
def test_phi_and_column_match_block_sums(case, combo, data):
    table = TABLES[case]
    full = dict(combo)
    if table.k:
        e_labels = st.sampled_from([f"E{s}" for s in range(table.k)])
        full.update(data.draw(st.dictionaries(e_labels, COEFFS)))
    x = table.phi(full)
    assert (x.d, (x.r0, x.r1, x.r2), MASK_BITS[x.mask], x.emult) == \
        reference_phi(table, full)
    for f in BOUNDARY:
        deg, mask2 = table.column(combo, f)
        assert (deg, _label(mask2)) == reference_column(table, combo, f)


@PROPERTY
@given(case=st.sampled_from(STANDARD_CASES), data=st.data())
def test_phi_of_a_sum_and_a_difference_is_the_sum_and_difference_of_classes(case, data):
    # the row sum against XClass + and -, with E_s terms on the K^2 < 6 tables
    table = TABLES[case]
    labels = [*GENERATORS, *(f"E{s}" for s in range(table.k))]
    a, b = (data.draw(st.dictionaries(st.sampled_from(labels), COEFFS)) for _ in "ab")
    total = {g: a.get(g, 0) + b.get(g, 0) for g in labels}
    difference = {g: a.get(g, 0) - b.get(g, 0) for g in labels}
    assert table.phi(a) + table.phi(b) == table.phi(total)
    assert table.phi(a) - table.phi(b) == table.phi(difference)


def test_memoised_torsion_solutions_resum():
    for mask in range(64):
        names = _torsion_solution(mask)
        total = 0
        for v in names:
            total ^= VEC[v]
        assert total == mask


def combo_path_restrictions(table, x):
    """The six boundary pairings of x and its 12-bit labels, through the
    lattice pairing and the columns of preimage_combo(x)."""
    pre = table.preimage_combo(x)
    labels = 0
    for f in BOUNDARY:
        labels = labels << 2 | table.column(pre, f)[1]
    return tuple(table.to_y(x).dot(CURVE_CLASS[f]) for f in BOUNDARY), labels


def fast_path_restrictions(table, x):
    """The same pair as the fast path reads it: symmetric_coords and labels."""
    return symmetric_coords(x[:4])[1:], table.labels(x)


def test_restrictions_match_the_combo_path_on_every_key():
    # one class of each of the 1,024 keys (y mod 2, bits), and a second one
    # shifted by an even y, against the columns of its own preimage combo
    table = GeneratorTable(standard_config(6))
    shift = YClass((2, -4, 6, -2))
    for even in (YClass((0, 0, 0, 0)), shift):
        for parity in range(16):
            y = YClass(tuple((parity >> i) & 1 for i in range(4))) + even
            for mask in range(64):
                x = table.from_y(y, tuple((mask >> (5 - i)) & 1 for i in range(6)))
                assert fast_path_restrictions(table, x) == combo_path_restrictions(table, x)


def test_maps_to_compares_every_field_of_the_re_sum():
    # a certificate whose re-sum differs from x in the mask alone, or in one
    # numerical field alone, is refused
    cert = tuple(range(12))
    x = T6.phi(dict(zip(GENERATORS, cert)))
    assert T6.maps_to(cert, x)
    for mask in range(1, 64):
        assert not T6.maps_to(cert, x._replace(mask=x.mask ^ mask))
    for field in ("nh", "n1", "n2", "n3"):
        for step in (-1, 1, 2):
            assert not T6.maps_to(cert, x._replace(**{field: getattr(x, field) + step}))


def test_table_methods_return_checked_classes():
    # the row sums are plain tuples inside the table; what it hands out is
    # an XClass, on every K^2
    t5 = build_generator_table(5)
    classes = [T6.phi({}), T6.phi({"A1": 2, "B3": -1}), t5.phi({"A0": 1, "E0": 1}),
               T6.from_y(YClass((1, 0, 0, 0)), (1, 0, 1, 0, 0, 1)),
               *T6.rows.values(), *t5.rows.values()]
    assert all(type(x) is XClass for x in classes)
    assert t5.phi({"E0": 1}).ns == t5.rows["E0"].ns


def test_labels_are_additive():
    # labels is a homomorphism into the 2-torsion of the six curves: the
    # degrees of a sum add and its labels XOR
    rng = random.Random(19)
    for _ in range(20000):
        p = XClass(*(rng.randint(-40, 40) for _ in range(4)), rng.randrange(64))
        q = XClass(*(rng.randint(-40, 40) for _ in range(4)), rng.randrange(64))
        total = XClass(*(a + b for a, b in zip(p[:4], q[:4])), p.mask ^ q.mask)
        assert T6.labels(total) == T6.labels(p) ^ T6.labels(q)


@PROPERTY
@given(combo=COMBOS, other=COMBOS, mult=COEFFS)
def test_restriction_independent_of_preimage(combo, other, mult):
    x = T6.phi(combo)
    assert fast_path_restrictions(T6, x) == combo_path_restrictions(T6, x)
    pre = T6.preimage_combo(x)
    # other minus a preimage of phi(other) lies in the kernel of phi, and
    # every kernel element k is such a difference, since preimage_combo of
    # the zero class has all coefficients 0
    other_pre = T6.preimage_combo(T6.phi(other))
    shifted = dict(pre)
    for g in GENERATORS:
        shifted[g] = shifted.get(g, 0) + mult * (other.get(g, 0) - other_pre.get(g, 0))
    assert T6.phi(shifted) == x
    for f in BOUNDARY:
        assert T6.column(pre, f) == T6.column(shifted, f)


# --- restriction maps ---------------------------------------------------------

def test_restrict_examples():
    # pairings with A0, B0, C0, A3, B3, C3 and the labels, A0 bits first;
    # the mask of bits 10 is 2
    c0, a1, zero = (T6.phi(combo) for combo in ({"C0": 1}, {"A1": 1}, {}))
    assert symmetric_coords(c0[:4])[4] == 1 and T6.labels(c0) >> 4 & 3 == 2
    assert symmetric_coords(a1[:4])[1] == 0 and T6.labels(a1) >> 10 == 0
    assert symmetric_coords(zero[:4])[5] == 0 and T6.labels(zero) == 0


def test_restrict_well_defined_on_random_combos():
    # two preimages of the same class must restrict identically; the table's
    # kernel consistency makes the derived map well defined
    rng = random.Random(11)
    for _ in range(50):
        combo = {g: rng.randint(-2, 2) for g in GENERATORS}
        x = T6.phi(combo)
        direct = [T6.column(combo, f) for f in ("A3", "B3", "C3")]
        derived = [(deg, T6.labels(x) >> 4 - 2 * k & 3)
                   for k, deg in enumerate(symmetric_coords(x[:4])[4:])]
        assert direct == derived


# --- intersection -------------------------------------------------------------

def test_intersect_x_examples():
    ky = T6.to_y(KX)
    assert ky.dot(ky) == 6
    assert T6.to_y(T6.phi({"A0": 1})).dot(T6.to_y(T6.phi({"C1": 1}))) == 1
    assert ky.dot(T6.to_y(T6.phi({}))) == 0


def test_intersect_x_is_the_lattice_pairing():
    rng = random.Random(17)
    for _ in range(60):
        u = {g: rng.randint(-2, 2) for g in GENERATORS}
        v = {g: rng.randint(-2, 2) for g in GENERATORS}
        lhs = T6.to_y(T6.phi(u)).dot(T6.to_y(T6.phi(v)))
        assert lhs == y_class(u).dot(y_class(v))


def test_to_y_congruence_error():
    with pytest.raises(NotARepresentableClass):
        T6.to_y(parse_xclass("(1; 0 00; 0 00; 0 00)"))
    # K^2 = 6 classes have no exceptional part
    with pytest.raises(NotARepresentableClass):
        T6.labels(parse_xclass("(4; 0 00; 0 00; 0 00; 5)"))


# --- torsion and indices ------------------------------------------------------

def test_torsion_dimensions():
    dims = [len(torsion_subgroup(standard_config(k, v))) for k, v in STANDARD_CASES]
    assert dims == [6, 5, 4, 4, 3, 3]


def test_point_vectors_k2_sum_zero():
    cfg = standard_config(2)
    total = 0
    for p in cfg.points:
        total ^= point_vector(p)
    assert total == 0


def test_torsion_basis_orthogonal_to_points():
    for ksq, variant in STANDARD_CASES:
        cfg = standard_config(ksq, variant)
        for v in torsion_subgroup(cfg):
            for p in cfg.points:
                assert (v & point_vector(p)).bit_count() & 1 == 0


def test_image_indices():
    got = [GeneratorTable(standard_config(k, v)).image_index
           for k, v in STANDARD_CASES]
    assert got == [3, 6, 12, 12, 24, 48]
    full = [picard_image_index(standard_config(k, v)) for k, v in STANDARD_CASES]
    assert full == [3, 6, 12, 12, 24, 24]


def test_generators_fill_the_congruence_subgroup_k6():
    # expressed in a basis of the congruence subgroup of Z^4 x F_2^6, the
    # twelve generator images span everything (index 1)
    basis = [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [1, 1, 1, 0]]
    elems = []
    for g in GENERATORS:
        x = T6.phi({g: 1})
        t = [x.d, x.r0, x.r1, x.r2]
        # the solution of coords @ basis == t: it is integral iff 3 | sum(t)
        assert sum(t) % 3 == 0
        c4 = sum(t) // 3
        c1 = t[0] - c4
        coords = (c1, t[1] + c1 - c4, -t[3], c4)
        assert [sum(c * row[j] for c, row in zip(coords, basis))
                for j in range(4)] == t
        elems.append(coords + MASK_BITS[x.mask])
    assert subgroup_index(elems, 6) == 1


# --- canonical lift -----------------------------------------------------------

def test_canonical_lift_torsion_class():
    # pulling back (A1 - A2) + (B1 - B2) gives E_1-coefficient 2 (phi takes
    # the E-coefficients halved) and lifts to a pure torsion class with data
    # vecA1 + vecB1
    cfg = standard_config(5)
    x = build_generator_table(5).phi({"A1": 1, "A2": -1, "B1": 1, "B2": -1, "E0": 1})
    assert (x.d, x.r0, x.r1, x.r2) == (0, 0, 0, 0)
    assert not any(x.emult)
    assert x.mask == VEC["A1"] ^ VEC["B1"]
    # and this vector is indeed in the torsion subgroup for K^2 = 5
    assert (x.mask & point_vector(cfg.points[0])).bit_count() & 1 == 0


# --- serialization -------------------------------------------------------------

def test_xclass_text_round_trip():
    # the mask holds the A0 label in its top bits and each label's first digit
    # above its second: the order of the scan records
    assert parse_xclass("(3; 1 10; 1 10; 1 10)") == XClass(2, -1, -1, -1, 0b101010)
    assert parse_xclass("(0; 0 10; 0 00; 0 01)") == XClass(0, 0, 0, 0, 0b100001)
    rng = random.Random(23)
    for _ in range(100):
        combo = {g: rng.randint(-2, 2) for g in GENERATORS}
        x = T6.phi(combo)
        assert parse_xclass(xclass_to_text(x)) == x


def test_xclass_parse_with_emult():
    x = XClass(0, 0, 0, 0, 0, (2, 0))
    text = xclass_to_text(x)
    assert text == "(2; 0 00; 0 00; 0 00; -2,0)"
    assert parse_xclass(text) == x


def test_xclass_text_every_mask_and_sign():
    # each 2-bit label prints as its two binary digits, the A0 label first,
    # for all 64 masks, negative block degrees and a K^2 < 6 exceptional part
    for mask in range(64):
        labels = f"{mask:06b}"
        for x in (XClass(-3, 3, 0, 12, mask), XClass(3, -2, 1, -4, mask, (-1, 2, 0))):
            text = xclass_to_text(x)
            want = (f"({x.d}; {x.r0} {labels[:2]}; {x.r1} {labels[2:4]}; "
                    f"{x.r2} {labels[4:]}")
            assert text == want + ("; 1,-2,0)" if x.emult else ")")
            assert parse_xclass(text) == x
    x = build_generator_table(5).phi({"A1": 1, "B3": -2, "E0": 1})
    assert x.emult and parse_xclass(xclass_to_text(x)) == x


@pytest.mark.parametrize("case", STANDARD_CASES[1:])
def test_phi_images_round_trip_through_their_text(case):
    # the K^2 < 6 tables, whose classes carry an exceptional part
    table, rng = TABLES[case], random.Random(47)
    labels = [*GENERATORS, *(f"E{s}" for s in range(table.k))]
    for _ in range(200):
        x = table.phi({g: rng.randint(-3, 3) for g in labels})
        text = str(x)
        assert x.ns and parse_xclass(text) == x and str(parse_xclass(text)) == text


def test_parse_xclass_refuses_numbers_past_4300_digits():
    # CPython's int() refuses them with its own text; the parser names the field
    nines = "9" * 5000
    for text, field in ((f"({nines}; 0 00; 0 00; 0 00)", "degree"),
                        (f"(3; -{nines} 00; 0 00; 0 00)", "degree of block A"),
                        (f"(3; 0 00; 0 00; {nines} 00)", "degree of block C"),
                        (f"(3; 0 00; 0 00; 0 00; 1, {nines})", "exceptional multiplicity 2")):
        with pytest.raises(ValueError, match=f"^the {field} has 5,000 digits; "
                                             "a class literal takes at most 4,300$"):
            parse_xclass(text)
    # 4,300 digits still parse: (10^4300 - 1) / 3 = 33...3
    assert parse_xclass(f"({'9' * 4300}; 0 00; 0 00; 0 00)").nh == int("3" * 4300)


def test_parse_xclass_refuses_a_failed_congruence():
    # d + r0 + r1 + r2 + sum(emult) is 3 n_h for every class of Y'
    for text in ("(1; 0 00; 0 00; 0 00)", "(3; 1 10; 1 10; 2 11; 0)",
                 "(3; 0 00; 0 00; 0 00; 5)", "(-2; -1 00; 0 00; 0 00; -5,1)"):
        with pytest.raises(NotARepresentableClass, match="congruence fails"):
            parse_xclass(text)
    assert parse_xclass("(4; 0 00; 0 00; 0 00; 5)") == XClass(3, 0, 0, 0, 0, (-5,))


def test_xclass_parse_rejects():
    for bad in ("(3; 1 10; 1 10)", "(3; 1 2; 1 10; 1 10)", "nonsense",
                "(3; 1 10; 1 10; 1 10; x)"):
        with pytest.raises(ValueError):
            parse_xclass(bad)


def test_xclass_refuses_a_mask_outside_six_bits():
    for mask in (64, -1):
        with pytest.raises(ValueError, match="6-bit"):
            XClass(3, 0, 0, 0, mask)
    assert XClass(3, 0, 0, 0, 63).mask == 63


def test_xclass_arithmetic_refuses_exceptional_parts_of_different_lengths():
    stray = parse_xclass("(4; 0 00; 0 00; 0 00; 5)")
    with pytest.raises(ValueError):
        KX - stray  # K^2 = 6 has no exceptional part; zip dropped the 5
    with pytest.raises(ValueError):
        stray + KX
    a0 = build_generator_table(5).phi({"A0": 1})
    with pytest.raises(ValueError):
        a0 - parse_xclass("(3; 0 00; 0 00; 0 00; 5,1)")
    assert a0 - parse_xclass("(4; 0 00; 0 00; 0 00; 5)") == \
        parse_xclass("(-3; -1 00; 0 00; 0 00; -5)")


def test_pushforward_pullback_identity():
    # recovering the numerical class of a generator combination inverts the
    # half-pullback at class level
    rng = random.Random(31)
    for _ in range(50):
        combo = {g: rng.randint(-2, 2) for g in GENERATORS}
        x = T6.phi(combo)
        assert T6.to_y(x) == y_class(combo)
        assert T6.from_y(T6.to_y(x), MASK_BITS[x.mask]) == x


# --- the K^2 = 6 model -----------------------------------------------------------

def test_from_y_round_trip_on_random_classes():
    rng = random.Random(37)
    for _ in range(500):
        y = YClass(tuple(rng.randint(-40, 40) for _ in range(4)))
        mask = rng.randrange(64)
        x = T6.from_y(y, MASK_BITS[mask])
        assert x == XClass(*y.coeffs, mask) and x[:5] == (*y.coeffs, mask)
        assert T6.require_k6(x) is x and x.mask == mask
        assert T6.to_y(x) == y


def test_require_k6_refusals():
    # an exceptional part, a failed congruence, and a table with K^2 != 6:
    # each query of the K^2 = 6 model refuses it instead of answering with
    # K^2 = 6 results
    with pytest.raises(NotARepresentableClass, match="exceptional part"):
        T6.require_k6(parse_xclass("(4; 0 00; 0 00; 0 00; 5)"))
    with pytest.raises(NotARepresentableClass, match="congruence"):
        T6.require_k6(parse_xclass("(1; 0 00; 0 00; 0 00)"))
    t5 = build_generator_table(5)
    x, p = t5.phi({"A0": 1}), XClass(1, 0, 0, 0, 0)
    queries = (lambda: t5.require_k6(p), lambda: t5.to_y(x),
               lambda: t5.from_y(YClass((1, 0, 0, 0))),
               lambda: t5.preimage_combo(x), lambda: t5.labels(p),
               lambda: t5.maps_to((1,) + (0,) * 11, p))
    for query in queries:
        with pytest.raises(NotARepresentableClass, match="K\\^2=6"):
            query()


def test_rows_are_the_generator_images():
    for g in GENERATORS:
        assert T6.rows[g] == T6.phi({g: 1})
        one = tuple(int(h == g) for h in GENERATORS)
        assert T6.maps_to(one, T6.rows[g])
        assert not T6.maps_to(tuple(2 * c for c in one), T6.rows[g])


def test_from_y_refuses_a_class_off_the_k3_lattice():
    # neither read as a K^2 = 6 class nor failing on a bare unpacking error
    for coeffs in ((1, 0, 0, 0, 0), (1, 0, 0)):
        with pytest.raises(NotARepresentableClass, match="Bl_3"):
            T6.from_y(YClass(coeffs))


def test_from_y_refuses_bits_that_are_not_six_bits():
    # a short tuple must not be read as the low bits of the mask, nor a 2 as 0
    y = YClass((1, 0, 0, 0))
    for bits in ((1, 0, 1), (0,) * 7, (), (2, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, -1)):
        with pytest.raises(ValueError, match="six entries"):
            T6.from_y(y, bits)
    assert T6.from_y(y, (0, 0, 0, 1, 0, 1)).mask == 0b000101
