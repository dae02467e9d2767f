from burniat.cli import EFFECTIVE_MAX_NH, main
from burniat.config import standard_config
from burniat.effective import scan
from burniat.lattice import YClass
from burniat.picard import (GeneratorTable, build_generator_table, parse_xclass,
                            table_override_from_text, table_to_text,
                            xclass_to_text)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_torsion_counts(capsys):
    for ksq, rows in ((6, 6), (5, 5), (2, 3)):
        code, out, _ = run(capsys, "torsion", "--ksq", str(ksq))
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(lines) == rows
        assert all(len(l.replace(" ", "")) == 6 for l in lines)


def test_torsion_from_config_file(capsys, tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("ksq = 5\nvariant = plain\npoint = A1 B1 C1\n")
    code, out, _ = run(capsys, "torsion", "--config", str(path))
    assert code == 0 and "dimension 5" in out


def test_torsion_invalid_case(capsys):
    code, _, err = run(capsys, "torsion", "--ksq", "9")
    assert code == 2


def test_effective_verdicts(capsys):
    code, out, _ = run(capsys, "effective", "--class", "(3; 0 00; 0 00; 0 00)")
    assert code == 0 and "NonEffective" in out and "trusted:H00" in out
    code, out, _ = run(capsys, "effective", "--class", "(6; 1 00; 1 00; 1 00)")
    assert code == 0 and "trusted:KX" in out
    code, out, _ = run(capsys, "effective", "--class", "(1; -1 00; 0 00; 0 00)")
    assert code == 0 and "InS" in out and "A0:1" in out


def test_effective_round_trip_of_printed_literal(capsys):
    code, out, _ = run(capsys, "effective", "--class", "(2; 0 00; 1 01; 0 00)")
    assert code == 0
    echoed = out.splitlines()[0].split("class ", 1)[1]
    assert parse_xclass(echoed) == parse_xclass("(2; 0 00; 1 01; 0 00)")


def test_effective_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "effective", "--class", "(3; 1 10; 1 10)")
    assert code == 2 and "usage error" in err


def test_effective_congruence_error_exit_2(capsys):
    code, _, err = run(capsys, "effective", "--class", "(1; 0 00; 0 00; 0 00)")
    assert code == 2


def test_effective_exceptional_part_exit_2(capsys):
    code, out, err = run(capsys, "effective", "--class", "(3; 0 00; 0 00; 0 00; 5)")
    assert code == 2 and not out and "usage error" in err


def _literal_with_nh(nh):
    # nh times the numerical class of C1, with trivial torsion bits
    return xclass_to_text(build_generator_table(6).from_y(YClass((nh, -nh, 0, 0))))


def test_effective_refuses_classes_over_the_budget(capsys, monkeypatch):
    def no_search(*args):
        raise AssertionError("decide ran on a class over the budget")
    monkeypatch.setattr("burniat.cli.decide", no_search)
    code, out, err = run(capsys, "effective", "--class",
                         _literal_with_nh(EFFECTIVE_MAX_NH + 1))
    assert code == 2 and not out
    assert f"n_h = {EFFECTIVE_MAX_NH + 1}" in err and "usage error" in err


def test_effective_decides_a_class_at_the_budget(capsys):
    code, out, _ = run(capsys, "effective", "--class", _literal_with_nh(EFFECTIVE_MAX_NH))
    assert code == 0 and "verdict: InS" in out


def test_effective_refuses_degrees_over_the_budget(capsys, monkeypatch):
    # n_h = 0, but the reduction would take one step per unit of degree
    def no_search(*args):
        raise AssertionError("decide ran on a class over the degree budget")
    monkeypatch.setattr("burniat.cli.decide", no_search)
    code, out, err = run(capsys, "effective", "--class",
                         "(100000; -300000 00; 100000 00; 100000 00)")
    assert code == 2 and not out
    assert "degree 100000" in err and "usage error" in err


def test_effective_decides_a_class_at_the_degree_budget(capsys):
    literal = xclass_to_text(build_generator_table(6).from_y(
        YClass((EFFECTIVE_MAX_NH, 0, 0, 0))))
    assert parse_xclass(literal).d == 3 * EFFECTIVE_MAX_NH
    code, out, _ = run(capsys, "effective", "--class", literal)
    assert code == 0 and "verdict: InS" in out


def test_scan_structured_deterministic(capsys, tmp_path):
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for p in (p1, p2):
        code, _, _ = run(capsys, "scan", "--max-degree", "2",
                         "--format", "structured", "--out", str(p))
        assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.startswith("burniat-scan v1\nd_max=2\n")
    assert "unresolved=0" in text


def test_scan_human_summary(capsys):
    code, out, _ = run(capsys, "scan", "--max-degree", "3")
    assert code == 0
    assert "(3; 1 10; 1 10; 1 10)" in out and "(3; 0 00; 0 00; 0 00)" in out


def test_scan_degree_cap(capsys):
    code, _, err = run(capsys, "scan", "--max-degree", "13")
    assert code == 2


def test_exc_check_both_fibers(capsys):
    for fiber in ("smooth", "degenerate"):
        code, out, _ = run(capsys, "exc-check", "--fiber", fiber)
        assert code == 0
        assert out.count("verdict=pass") == 21  # 15 pairs + 6 self rows
    code, _, _ = run(capsys, "exc-check", "--fiber", "green")
    assert code == 2


def test_verify_all_subset(capsys):
    code, out, _ = run(capsys, "verify-all", "--only", "torsion")
    assert code == 0 and "criterion  1" in out


def test_verify_all_table_override(capsys, tmp_path):
    good = tmp_path / "good.txt"
    good.write_text(table_to_text(build_generator_table(6)))
    code, out, _ = run(capsys, "verify-all", "--only", "torsion",
                       "--table", str(good))
    assert code == 0 and "override accepted" in out

    bad = tmp_path / "bad.txt"
    bad.write_text(good.read_text().replace("C3 A0 1 10", "C3 A0 1 01"))
    code, out, _ = run(capsys, "verify-all", "--only", "torsion",
                       "--table", str(bad))
    assert code == 1 and "override rejected" in out


def test_verify_all_table_override_is_the_table_scanned(tmp_path, monkeypatch):
    from burniat import verify
    override = GeneratorTable(standard_config(6), table_override_from_text(
        table_to_text(build_generator_table(6))))
    assert override is not build_generator_table(6)
    scanned = []

    def recording_scan(table, d_max):
        scanned.append(table)
        return scan(table, d_max)
    monkeypatch.setattr(verify, "scan", recording_scan)
    results = verify.run_all(only="step2", table=override)
    results += verify.run_all(only="property", table=override)
    assert [r.number for r in results] == [6, 10] and all(r.passed for r in results)
    assert len(scanned) == 3 and all(t is override for t in scanned)


def test_unknown_subcommand_exit_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2
