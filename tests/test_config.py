import re

import pytest

from burniat.config import (BOUNDARY, CURVE_CLASS, GENERATORS, INTERNAL,
                            InvalidBuildingData, all_standard_configs,
                            BurniatConfig, config_from_text, make_config,
                            minus_two_curves, ramification_span_index,
                            standard_config, validate_building_data)
from burniat.lattice import YClass, canonical_class
from burniat.picard import MEET


def test_standard_point_lists():
    assert standard_config(6).points == ()
    assert standard_config(5).points == (("A1", "B1", "C1"),)
    assert standard_config(2).k == 4
    assert standard_config(3).points == (
        ("A1", "B1", "C2"), ("A1", "B2", "C1"), ("A2", "B1", "C1"))
    with pytest.raises(ValueError):
        standard_config(4)  # needs nodal / non-nodal
    with pytest.raises(ValueError):
        standard_config(7)


def test_curve_roles_and_squares():
    assert set(BOUNDARY) | set(INTERNAL) == set(GENERATORS)
    for label in GENERATORS:
        cls = CURVE_CLASS[label]
        assert cls.dot(cls) == (-1 if label in BOUNDARY else 0)


def test_incidence_oracle():
    # pairwise intersections of the twelve classes realise the marked-point
    # incidences: each boundary curve meets exactly the four curves of its
    # meeting table, boundary self-intersections are -1, and internal curves
    # are disjoint from the same-letter boundary curves
    for f in BOUNDARY:
        fc = CURVE_CLASS[f]
        for g in GENERATORS:
            got = CURVE_CLASS[g].dot(fc)
            if g == f:
                assert got == -1
            elif g in MEET[f]:
                assert got == 1, (g, f)
            elif g in BOUNDARY or g in INTERNAL:
                if g[0] == f[0] and g != f:
                    assert got == 0  # same letter never meets
                if g not in MEET[f]:
                    assert got == 0, (g, f)


def test_building_data_k6():
    l1, l2, l3 = validate_building_data(standard_config(6))
    assert l1 == YClass((3, -2, 0, -1))  # 3h - 2e1 - e3
    # fundamental relations at class level
    a = standard_config(6).branch_total("A")
    assert l2 + l3 == l1 + a


def test_building_data_all_configs():
    for cfg in all_standard_configs():
        validate_building_data(cfg)
        assert (cfg.branch_total("A") + cfg.branch_total("B")
                + cfg.branch_total("C")) == -3 * canonical_class(cfg.lattice)


def test_building_data_corruption_detected():
    # dropping C3 from the configuration breaks 2-divisibility
    class Broken(BurniatConfig):
        def strict_transform(self, label):
            if label == "C3":
                return self.lattice.zero()
            return super().strict_transform(label)

    with pytest.raises(InvalidBuildingData):
        validate_building_data(Broken(6, "plain", ()))


def test_minus_two_curves():
    cfg = standard_config(4, "nodal")
    curves = minus_two_curves(cfg)
    assert curves == [cfg.pullback(CURVE_CLASS["A1"])
                      - cfg.exceptional(0) - cfg.exceptional(1)]
    assert minus_two_curves(standard_config(5)) == []
    three = minus_two_curves(standard_config(3))
    assert len(three) == 3
    assert {str(c) for c in three} == {
        str(standard_config(3).strict_transform(lab)) for lab in ("A1", "B1", "C1")}
    counts = [len(minus_two_curves(c)) for c in all_standard_configs()]
    assert counts == [0, 0, 1, 0, 3, 6]


def test_k2_lines_contain_two_points_each():
    cfg = standard_config(2)
    assert all(len(cfg.points_on(lab)) == 2 for lab in INTERNAL)


def test_is_canonical_ample():
    # K is ample exactly when the configuration has no (-2)-curve
    ample = {case: not minus_two_curves(standard_config(*case))
             for case in ((6, "plain"), (5, "plain"), (4, "non-nodal"),
                          (4, "nodal"), (3, "plain"), (2, "plain"))}
    assert [case for case, yes in ample.items() if yes] == \
        [(6, "plain"), (5, "plain"), (4, "non-nodal")]


def test_ramification_span_indices():
    got = [ramification_span_index(c) for c in all_standard_configs()]
    assert got == [1, 1, 1, 1, 1, 2]


@pytest.mark.parametrize("ksq,variant,named", [
    (5, "plain", {0: "A1"}),
    (4, "nodal", {0: "B1", 1: "B2"}),
    (4, "non-nodal", {0: "B1", 1: "B2"}),
    (3, "plain", {0: "C2", 1: "B2", 2: "A2"}),
])
def test_exceptional_spanned_by_named_curve(ksq, variant, named):
    # for each point the named internal curve passes through that point only,
    # so E_s = pullback(curve) - strict(curve) lies in its span with Pic Y
    cfg = standard_config(ksq, variant)
    for s, label in named.items():
        diff = cfg.pullback(CURVE_CLASS[label]) - cfg.strict_transform(label)
        assert diff == cfg.exceptional(s)


def test_config_text_round_trip():
    # the README's configuration file, plus a comment line, is the nodal case
    text = ("# K^2 = 4, nodal\nksq = 4\nvariant = nodal\n"
            "point = A1 B1 C1\npoint = A1 B2 C2\n")
    assert config_from_text(text) == standard_config(4, "nodal")
    back = config_from_text("ksq = 2\npoint = A1 B1 C1\npoint = A1 B2 C2\n"
                            "point = A2 B1 C2\npoint = A2 B2 C1\n")
    assert back.points == standard_config(2).points and back.variant == "custom"


def test_config_text_rejects_garbage():
    with pytest.raises(ValueError):
        config_from_text("ksq = 5\npoint = A1 B1\n")
    with pytest.raises(ValueError):
        config_from_text("ksq = 5\nnonsense = 1\n")
    with pytest.raises(ValueError):
        config_from_text("ksq = 4\npoint = A1 B1 C1\n")  # ksq mismatch


def test_config_text_refuses_a_ksq_that_is_not_an_integer():
    # int() alone would also take "+6" and "1_0", and its message named no line
    for value in ("six", "+6", "1_0", "6.0", ""):
        line = f"ksq = {value}".rstrip()
        with pytest.raises(ValueError, match=f"bad ksq line: '{re.escape(line)}'"):
            config_from_text(line + "\n")
    assert config_from_text("ksq = 6\n") == make_config([])


def test_config_text_refuses_a_repeated_key():
    # a second ksq or variant line would silently override the first
    for text in ("ksq = 5\nksq = 6\n", "ksq = 6\nksq = 6\n",
                 "ksq = 6\nvariant = plain\nvariant = nodal\n",
                 "ksq = 5\nksq = 6\nvariant = plain\nvariant = nodal\n"):
        with pytest.raises(ValueError, match="repeated key"):
            config_from_text(text)


def test_make_config_validation():
    with pytest.raises(ValueError):
        make_config([("A0", "B1", "C1")])  # boundary curve in a point
    with pytest.raises(ValueError):
        make_config([("A1", "A2", "C1")])  # two curves of one letter


@pytest.mark.parametrize("first, second, shared", [
    (("A1", "B1", "C1"), ("A1", "B1", "C2"), "A1 and B1"),
    (("A1", "B2", "C1"), ("A2", "B2", "C1"), "B2 and C1"),
    (("A2", "B1", "C2"), ("C2", "B2", "A2"), "A2 and C2"),
])
def test_make_config_refuses_two_points_on_two_shared_curves(first, second, shared):
    # two internal curves of different letters meet once, so two distinct
    # points cannot both lie on both of them
    assert CURVE_CLASS[shared[:2]].dot(CURVE_CLASS[shared[-2:]]) == 1
    with pytest.raises(ValueError, match=f"both lie on {shared}, which meet once"):
        make_config([first, second])
    with pytest.raises(ValueError, match="which meet once"):
        config_from_text(f"ksq = 4\npoint = {' '.join(first)}\n"
                         f"point = {' '.join(second)}\n")


def test_standard_configs_share_at_most_one_curve_per_pair():
    for cfg in all_standard_configs():
        assert make_config(list(cfg.points), cfg.variant) == cfg
        for i, p in enumerate(cfg.points):
            assert all(len(set(p) & set(q)) <= 1 for q in cfg.points[:i])
