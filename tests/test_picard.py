import random

import pytest
from hypothesis import given, settings, strategies as st

from burniat.config import BOUNDARY, GENERATORS, STANDARD_CASES, standard_config
from burniat.lattice import MixedGroup, YClass, subgroup_index
from burniat.linalg import bits_add, bits_scale, solve_integer
from burniat.picard import (Block, GeneratorTable, NotARepresentableClass,
                            NotLiftable, TableInconsistent, VEC, VEC_COMBO,
                            XClass, _torsion_solution, build_generator_table,
                            canonical_lift, image_index, parse_xclass,
                            picard_image_index, point_vector,
                            table_override_from_text, table_to_text,
                            torsion_subgroup, xclass_to_text)

T6 = build_generator_table(6)


# --- generator table ---------------------------------------------------------

def test_table_blocks_examples():
    assert T6.block[("C3", "A0")] == Block(1, (1, 0))
    assert T6.block[("A0", "A0")] == Block(-1, (0, 0))
    assert T6.block[("A1", "B0")] == Block(1, (0, 1))
    assert T6.block[("A1", "A0")] == Block(0, (0, 0))


def test_tables_build_for_all_cases():
    for ksq, variant in STANDARD_CASES:
        GeneratorTable(standard_config(ksq, variant))


def test_corrupted_table_rejected():
    override = {("C3", "A0"): Block(1, (0, 1))}
    with pytest.raises(TableInconsistent):
        GeneratorTable(standard_config(6), override)
    override = {("A1", "B0"): Block(0, (0, 1))}  # wrong degree
    with pytest.raises(TableInconsistent):
        GeneratorTable(standard_config(6), override)


def test_table_text_round_trip():
    text = table_to_text(T6)
    override = table_override_from_text(text)
    rebuilt = GeneratorTable(standard_config(6), override)
    assert rebuilt.block == T6.block
    # the rebuilt table fills its own restriction dict
    x = T6.phi({"C0": 1})
    T6.restrictions(x)
    assert rebuilt._restriction_masks == {}
    assert rebuilt.restrictions(x) == T6.restrictions(x)
    assert rebuilt._restriction_masks is not T6._restriction_masks
    with pytest.raises(ValueError):
        table_override_from_text("A9 B0 1 00")
    with pytest.raises(ValueError):
        table_override_from_text("A0 B0 1 2x")


# --- phi ----------------------------------------------------------------------

def test_phi_examples():
    zero = T6.phi({})
    assert zero.is_zero()
    boundary_sum = T6.phi({f: 1 for f in BOUNDARY})
    assert xclass_to_text(boundary_sum) == "(6; 1 10; 1 10; 1 10)"
    a1 = T6.phi({"A1": 1})
    assert xclass_to_text(a1) == "(2; 0 00; 1 01; 0 00)"


def test_phi_congruence_closure():
    rng = random.Random(3)
    for _ in range(100):
        combo = {g: rng.randint(-2, 2) for g in GENERATORS}
        x = T6.phi(combo)
        assert (x.d + sum(b.deg for b in x.blocks)) % 3 == 0


def test_vec_combos_map_to_basis_vectors():
    for name, combo in VEC_COMBO.items():
        img = T6.phi(combo)
        assert img.bits == VEC[name]
        assert img.d == 0 and all(b.deg == 0 for b in img.blocks)


def test_canonical_class_and_torsion_correction():
    kx = T6.canonical()
    assert xclass_to_text(kx) == "(6; 1 00; 1 00; 1 00)"
    # the boundary sum is K plus the torsion (10,10,10)
    boundary_sum = T6.phi({f: 1 for f in BOUNDARY})
    diff = boundary_sum - kx
    assert diff.d == 0 and diff.bits == (1, 0, 1, 0, 1, 0)
    # K itself as an explicit combo
    combo = {f: 1 for f in BOUNDARY}
    for v in ("A1", "B1", "C1"):
        for g, c in VEC_COMBO[v].items():
            combo[g] = combo.get(g, 0) + c
    assert T6.phi(combo) == kx


# --- the integer kernel against the block-sum reference -----------------------

TABLES = {case: GeneratorTable(standard_config(*case)) for case in STANDARD_CASES}
KERNEL6 = T6._kernel_combos()
COEFFS = st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12))
COMBOS = st.dictionaries(st.sampled_from(GENERATORS), COEFFS)
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def _block_sum(a: Block, c: int, b: Block) -> Block:
    return Block(a.deg + c * b.deg, bits_add(a.bits, bits_scale(c, b.bits)))


def reference_phi(table, combo, e_combo):
    """phi as the sum of the scaled generator blocks."""
    d, blocks, em = 0, (Block(0, (0, 0)),) * 3, (0,) * table.k
    for g, c in combo.items():
        d += c * table.degree[g]
        blocks = tuple(_block_sum(a, c, table.block[(g, f)])
                       for a, f in zip(blocks, ("A0", "B0", "C0")))
        em = tuple(a + c * b for a, b in zip(em, table.emult[g]))
    for s, c in e_combo.items():
        d += 2 * c
        em = tuple(a - 2 * c if t == s else a for t, a in enumerate(em))
    return XClass(d, blocks, em)


def reference_column(table, combo, f):
    out = Block(0, (0, 0))
    for g, c in combo.items():
        out = _block_sum(out, c, table.block[(g, f)])
    return out


@PROPERTY
@given(case=st.sampled_from(STANDARD_CASES), combo=COMBOS, data=st.data())
def test_phi_and_column_match_block_sums(case, combo, data):
    table = TABLES[case]
    e_combo = {}
    if table.k:
        e_combo = data.draw(st.dictionaries(st.integers(0, table.k - 1), COEFFS))
    assert table.phi(combo, e_combo) == reference_phi(table, combo, e_combo)
    for f in BOUNDARY:
        assert table.column(combo, f) == reference_column(table, combo, f)


def test_phi_rejects_unknown_exceptional_curve():
    with pytest.raises(ValueError):
        TABLES[(5, "plain")].phi({}, {1: 2})
    with pytest.raises(ValueError):
        TABLES[(5, "plain")].phi({}, {-1: 2})


def test_memoised_torsion_solutions_resum():
    for mask in range(64):
        target = tuple((mask >> (5 - i)) & 1 for i in range(6))
        names = _torsion_solution(target)
        assert names is not None
        total = (0,) * 6
        for v in names:
            total = bits_add(total, VEC[v])
        assert total == target


def combo_path_restrictions(table, x):
    """restrictions(x) through pairing and the columns of preimage_combo(x)."""
    pre = table.preimage_combo(x)
    out = []
    for f in BOUNDARY:
        b = table.column(pre, f)
        out.append((table.pairing(x, f), 2 * b.bits[0] + b.bits[1]))
    return tuple(out)


def test_restrictions_match_the_combo_path_on_every_key():
    # one class per key (y mod 2, bits) fills the dict; a second class of
    # each key, shifted by an even y, must read the same masks from it
    table = GeneratorTable(standard_config(6))
    shift = YClass((2, -4, 6, -2))
    for even in (YClass((0, 0, 0, 0)), shift):
        for parity in range(16):
            y = YClass(tuple((parity >> i) & 1 for i in range(4))) + even
            for mask in range(64):
                x = table.from_y(y, tuple((mask >> (5 - i)) & 1 for i in range(6)))
                assert table.restrictions(x) == combo_path_restrictions(table, x)
        assert len(table._restriction_masks) == 1024


@PROPERTY
@given(combo=COMBOS, kernel=st.sampled_from(KERNEL6), mult=COEFFS)
def test_restriction_independent_of_preimage(combo, kernel, mult):
    x = T6.phi(combo)
    assert T6.restrictions(x) == combo_path_restrictions(T6, x)
    pre = T6.preimage_combo(x)
    shifted = dict(pre)
    for g, c in kernel.items():
        shifted[g] = shifted.get(g, 0) + mult * c
    assert T6.phi(shifted) == x
    for f in BOUNDARY:
        assert T6.restrict(x, f) == T6.column(pre, f) == T6.column(shifted, f)


# --- restriction maps ---------------------------------------------------------

def test_restrict_examples():
    assert T6.restrict(T6.phi({"C0": 1}), "A3") == Block(1, (1, 0))
    assert T6.restrict(T6.phi({"A1": 1}), "A0") == Block(0, (0, 0))
    assert T6.restrict(T6.phi({}), "B3") == Block(0, (0, 0))


def test_restrict_well_defined_on_random_combos():
    # two preimages of the same class must restrict identically; the table's
    # kernel consistency makes the derived map well defined
    rng = random.Random(11)
    for _ in range(50):
        combo = {g: rng.randint(-2, 2) for g in GENERATORS}
        x = T6.phi(combo)
        direct = {f: T6.column(combo, f) for f in ("A3", "B3", "C3")}
        derived = {f: T6.restrict(x, f) for f in ("A3", "B3", "C3")}
        assert direct == derived
    with pytest.raises(ValueError):
        T6.restrict(T6.phi({}), "Q7")


def test_restriction_degree_equals_pairing():
    rng = random.Random(13)
    for _ in range(50):
        combo = {g: rng.randint(-2, 2) for g in GENERATORS}
        x = T6.phi(combo)
        for f in BOUNDARY:
            assert T6.restrict(x, f).deg == T6.pairing(x, f)


# --- intersection -------------------------------------------------------------

def test_intersect_x_examples():
    kx = T6.canonical()
    assert T6.intersect_x(kx, kx) == 6
    assert T6.intersect_x(T6.phi({"A0": 1}), T6.phi({"C1": 1})) == 1
    assert T6.intersect_x(kx, T6.phi({})) == 0


def test_intersect_x_is_the_lattice_pairing():
    rng = random.Random(17)
    for _ in range(60):
        u = {g: rng.randint(-2, 2) for g in GENERATORS}
        v = {g: rng.randint(-2, 2) for g in GENERATORS}
        lhs = T6.intersect_x(T6.phi(u), T6.phi(v))
        assert lhs == T6.combo_y_class(u).dot(T6.combo_y_class(v))


def test_to_y_congruence_error():
    with pytest.raises(NotARepresentableClass):
        T6.to_y(XClass(1, (Block(0, (0, 0)),) * 3))
    # K^2 = 6 classes have no exceptional part
    with pytest.raises(NotARepresentableClass):
        T6.restrictions(parse_xclass("(3; 0 00; 0 00; 0 00; 5)"))


# --- torsion and indices ------------------------------------------------------

def test_torsion_dimensions():
    dims = [len(torsion_subgroup(standard_config(k, v))) for k, v in STANDARD_CASES]
    assert dims == [6, 5, 4, 4, 3, 3]


def test_point_vectors_k2_sum_zero():
    cfg = standard_config(2)
    total = (0,) * 6
    for p in cfg.points:
        total = bits_add(total, point_vector(p))
    assert total == (0,) * 6


def test_torsion_basis_orthogonal_to_points():
    from burniat.linalg import bits_dot
    for ksq, variant in STANDARD_CASES:
        cfg = standard_config(ksq, variant)
        for v in torsion_subgroup(cfg):
            for p in cfg.points:
                assert bits_dot(v, point_vector(p)) == 0


def test_image_indices():
    got = [image_index(standard_config(k, v)) for k, v in STANDARD_CASES]
    assert got == [3, 6, 12, 12, 24, 48]
    full = [picard_image_index(standard_config(k, v)) for k, v in STANDARD_CASES]
    assert full == [3, 6, 12, 12, 24, 24]


def test_generators_fill_the_congruence_subgroup_k6():
    # expressed in a basis of the congruence subgroup of Z^4 x F_2^6, the
    # twelve generator images span everything (index 1)
    basis = [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [1, 1, 1, 0]]
    group = MixedGroup(4, 6)
    elems = []
    for g in GENERATORS:
        x = T6.row(g)
        target = [x.d] + [b.deg for b in x.blocks]
        coords = solve_integer(basis, target, 4)
        assert coords is not None
        elems.append(group.element(tuple(coords), x.bits))
    assert subgroup_index(elems, group) == 1


# --- canonical lift -----------------------------------------------------------

def test_canonical_lift_zero():
    cfg = standard_config(5)
    assert canonical_lift(cfg, {}).is_zero()


def test_canonical_lift_even_requirement():
    cfg = standard_config(5)
    # the pullback of A1 - A2 has E_1-coefficient 1: not liftable as written
    with pytest.raises(NotLiftable):
        canonical_lift(cfg, {"A1": 1, "A2": -1}, {0: 1})


def test_canonical_lift_torsion_class():
    # pulling back (A1 - A2) + (B1 - B2) gives E_1-coefficient 2 and lifts to
    # a pure torsion class with data vecA1 + vecB1
    cfg = standard_config(5)
    x = canonical_lift(cfg, {"A1": 1, "A2": -1, "B1": 1, "B2": -1}, {0: 2})
    assert x.d == 0 and all(b.deg == 0 for b in x.blocks)
    assert not any(x.emult)
    assert x.bits == bits_add(VEC["A1"], VEC["B1"])
    # and this vector is indeed in the torsion subgroup for K^2 = 5
    from burniat.linalg import bits_dot
    assert bits_dot(x.bits, point_vector(cfg.points[0])) == 0


# --- serialization -------------------------------------------------------------

def test_xclass_text_round_trip():
    rng = random.Random(23)
    for _ in range(100):
        combo = {g: rng.randint(-2, 2) for g in GENERATORS}
        x = T6.phi(combo)
        assert parse_xclass(xclass_to_text(x)) == x


def test_xclass_parse_with_emult():
    x = XClass(2, (Block(0, (0, 0)),) * 3, (-2, 0))
    text = xclass_to_text(x)
    assert text == "(2; 0 00; 0 00; 0 00; -2,0)"
    assert parse_xclass(text) == x


def test_xclass_parse_rejects():
    for bad in ("(3; 1 10; 1 10)", "(3; 1 2; 1 10; 1 10)", "nonsense",
                "(3; 1 10; 1 10; 1 10; x)"):
        with pytest.raises(ValueError):
            parse_xclass(bad)


def test_pushforward_pullback_identity():
    # recovering the numerical class of a generator combination inverts the
    # half-pullback at class level
    rng = random.Random(31)
    for _ in range(50):
        combo = {g: rng.randint(-2, 2) for g in GENERATORS}
        x = T6.phi(combo)
        assert T6.to_y(x) == T6.combo_y_class(combo)
        assert T6.from_y(T6.to_y(x), x.bits) == x
