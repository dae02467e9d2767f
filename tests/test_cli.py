import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import burniat
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


# the full `burniat torsion` text of the six standard cases
TORSION_TEXT = {
    (6, "plain"): "# torsion basis, K^2=6 variant=plain (dimension 6)\n"
                  "10 00 00\n01 00 00\n00 10 00\n00 01 00\n00 00 10\n00 00 01\n",
    (5, "plain"): "# torsion basis, K^2=5 variant=plain (dimension 5)\n"
                  "01 00 00\n10 10 00\n00 01 00\n10 00 10\n00 00 01\n",
    (4, "nodal"): "# torsion basis, K^2=4 variant=nodal (dimension 4)\n"
                  "10 10 00\n00 01 00\n10 00 10\n01 00 01\n",
    (4, "non-nodal"): "# torsion basis, K^2=4 variant=non-nodal (dimension 4)\n"
                      "10 10 00\n01 01 00\n10 00 10\n01 00 01\n",
    (3, "plain"): "# torsion basis, K^2=3 variant=plain (dimension 3)\n"
                  "10 10 00\n10 00 10\n11 01 01\n",
    (2, "plain"): "# torsion basis, K^2=2 variant=plain (dimension 3)\n"
                  "10 10 00\n10 00 10\n01 01 01\n",
}


def test_torsion_text_unchanged(capsys):
    for (ksq, variant), text in TORSION_TEXT.items():
        assert run(capsys, "torsion", "--ksq", str(ksq), "--variant", variant) \
            == (0, text, "")


def test_torsion_from_config_file(capsys, tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("ksq = 5\nvariant = plain\npoint = A1 B1 C1\n")
    code, out, _ = run(capsys, "torsion", "--config", str(path))
    assert code == 0 and "dimension 5" in out


def test_torsion_refuses_a_ksq_that_is_not_an_integer(capsys, tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("ksq = six\n")
    code, out, err = run(capsys, "torsion", "--config", str(path))
    assert code == 2 and not out and err == "error: bad ksq line: 'ksq = six'\n"


def test_torsion_refuses_a_repeated_point(capsys, tmp_path):
    # the same triple point twice, in any order, is one blowup, not two
    path = tmp_path / "cfg.txt"
    for again in ("A1 B1 C1", "C1 B1 A1"):
        path.write_text(f"ksq = 4\npoint = A1 B1 C1\npoint = {again}\n")
        code, out, err = run(capsys, "torsion", "--config", str(path))
        assert code == 2 and not out and "given twice" in err


def test_torsion_refuses_two_points_on_two_shared_curves(capsys, tmp_path):
    # A1 and B1 meet once, so A1 B1 C1 and A1 B1 C2 cannot both be points
    path = tmp_path / "cfg.txt"
    path.write_text("ksq = 4\npoint = A1 B1 C1\npoint = A1 B1 C2\n")
    code, out, err = run(capsys, "torsion", "--config", str(path))
    assert code == 2 and not out
    assert err == ("error: points A1 B1 C1 and A1 B1 C2 both lie on A1 and B1, "
                   "which meet once\n")


def test_torsion_refuses_a_repeated_key(capsys, tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("ksq = 5\nksq = 6\nvariant = plain\nvariant = nodal\n")
    code, out, err = run(capsys, "torsion", "--config", str(path))
    assert code == 2 and not out and "repeated key 'ksq'" in err


def test_torsion_invalid_case(capsys):
    code, _, err = run(capsys, "torsion", "--ksq", "9")
    assert code == 2


def test_torsion_names_the_variants_of_its_ksq(capsys):
    code, out, err = run(capsys, "torsion", "--ksq", "4")
    assert code == 2 and not out
    assert err == ("error: no Burniat configuration (4, plain);"
                   " K^2 = 4 has nodal, non-nodal\n")


def test_effective_verdicts(capsys):
    code, out, _ = run(capsys, "effective", "--class", "(3; 0 00; 0 00; 0 00)")
    assert code == 0 and "NonEffective" in out and "trusted:H00" in out
    code, out, _ = run(capsys, "effective", "--class", "(6; 1 00; 1 00; 1 00)")
    assert code == 0 and "trusted:KX" in out
    code, out, _ = run(capsys, "effective", "--class", "(1; -1 00; 0 00; 0 00)")
    assert code == 0 and "InS" in out and "A0:1" in out


# the full `burniat effective` text of the three trusted bases, a reduction
# to negative degree and a certificate
EFFECTIVE_TEXT = {
    "(3; 1 10; 1 10; 1 10)": "verdict: NonEffective  base: trusted:Q10\n"
                             "reduced form: (3; 1 10; 1 10; 1 10)\n",
    "(3; 0 00; 0 00; 0 00)": "verdict: NonEffective  base: trusted:H00\n"
                             "reduced form: (3; 0 00; 0 00; 0 00)\n",
    "(6; 1 00; 1 00; 1 00)": "verdict: NonEffective  base: trusted:KX\n"
                             "reduced form: (6; 1 00; 1 00; 1 00)\n",
    "(3; 1 00; 1 00; 1 00)": "verdict: NonEffective  base: negative-degree"
                             "  trace: A3t,B0t,A3t,C0-\n"
                             "reduced form: (-1; 1 00; 0 00; 0 00)\n",
    "(9; 1 01; 2 10; 3 11)": "verdict: InS"
                             "  certificate: A0:2,A3:1,B1:1,B3:1,C2:1,C3:1\n",
}


def test_effective_text_unchanged(capsys):
    for literal, text in EFFECTIVE_TEXT.items():
        assert run(capsys, "effective", "--class", literal) \
            == (0, f"class {literal}\n{text}", "")


def test_effective_round_trip_of_printed_literal(capsys):
    code, out, _ = run(capsys, "effective", "--class", "(2; 0 00; 1 01; 0 00)")
    assert code == 0
    echoed = out.splitlines()[0].split("class ", 1)[1]
    assert parse_xclass(echoed) == parse_xclass("(2; 0 00; 1 01; 0 00)")


def test_effective_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "effective", "--class", "(3; 1 10; 1 10)")
    assert code == 2 and "usage error" in err


def test_effective_malformed_numbers_exit_2(capsys):
    # a malformed degree or exceptional part is named, not left to int()
    for literal, message in (("(3; x 00; 0 00; 0 00)", "bad block"),
                             ("(3; 0 00; 0 00; 0 00; )", "bad exceptional part"),
                             ("(3; 0 00; 0 00; 0 00; 1,,2)", "bad exceptional part")):
        code, out, err = run(capsys, "effective", "--class", literal)
        assert code == 2 and not out and message in err and "int()" not in err


def test_effective_congruence_error_exit_2(capsys):
    code, _, err = run(capsys, "effective", "--class", "(1; 0 00; 0 00; 0 00)")
    assert code == 2


def test_effective_exceptional_part_exit_2(capsys):
    code, out, err = run(capsys, "effective", "--class", "(4; 0 00; 0 00; 0 00; 5)")
    assert code == 2 and not out and "usage error" in err and "exceptional part" in err


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
    assert "d_max <= 12" in err


def test_scan_help_states_the_degree_range(capsys):
    code, out, _ = run(capsys, "scan", "--help")
    assert code == 0
    assert "--max-degree MAX_DEGREE" in out and "0..12" in out


def test_scan_refuses_a_negative_degree_bound(capsys):
    code, out, err = run(capsys, "scan", "--max-degree", "-1")
    assert code == 2 and not out
    assert err == "error: scan needs d_max >= 0, got -1\n"


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
    code, out, err = run(capsys, "verify-all", "--only", "nope")
    assert code == 2 and not out and err == "error: no criterion matches 'nope'\n"


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


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _untimed(text):
    """text without the first "(   x.xxs)" timing column of each line."""
    return "".join(re.sub(r"\( *[0-9]+\.[0-9]+s\)", "", line, count=1)
                   for line in text.splitlines(keepends=True))


def test_cli_texts_match_their_pinned_hashes(capsys, tmp_path):
    # the scan(8), effective, verify-all and verify-all --table texts, each
    # pinned here and nowhere else
    code, out, _ = run(capsys, "scan", "--max-degree", "8")
    assert code == 0 and _sha256(out) == \
        "6be95bd1284f2a95821f2eea1dd343a34b9f9a6a679ca434ed4c1aedc515e149"
    outs = [run(capsys, "effective", "--class", literal) for literal in (
        "(3; 1 10; 1 10; 1 10)", "(3; 0 00; 0 00; 0 00)", "(6; 1 00; 1 00; 1 00)",
        "(3; 1 00; 1 00; 1 00)", "(9; 1 01; 2 10; 3 11)")]
    assert {code for code, _, _ in outs} == {0}
    assert _sha256("".join(out for _, out, _ in outs)) == \
        "b9bae5900249977b91a1f0716b6f8d0be68391e50806db3cec67a1c182532f7d"
    code, out, _ = run(capsys, "verify-all")
    assert code == 0 and _sha256(_untimed(out)) == \
        "52a61ee2677ce30eb8106ae58e486fc6916e4d7cc897a5a986afdac2afafda93"
    table = tmp_path / "table6.txt"
    table.write_text(table_to_text(build_generator_table(6)))
    code, out, _ = run(capsys, "verify-all", "--table", str(table))
    assert code == 0 and _sha256(_untimed(out)) == \
        "9ab620e3ff57c1e5cb03300f2021f718b0bd9f1cc98e4dacbcf1d26ba770096c"


@pytest.mark.parametrize("lines, message", [
    ({"A0 A3 0 00": "A0 A3 0 10", "A2 A3 0 00": "A2 A3 0 10"},
     "the labels on A3 break the filling rule"),
    ({"A0 B3 1 10": "A0 B3 1 00", "A1 B3 1 01": "A1 B3 1 11"},
     "the labels on B3 break the filling rule"),
    # check (b): swapping the labels of A0 and C0 on B3 keeps the filling rule
    ({"A0 B3 1 10": "A0 B3 1 00", "C0 B3 1 00": "C0 B3 1 10"},
     "the restrictions to A3, B3, C3 are not well defined on the image of phi"),
    # refused at entry, before any whole-table check
    ({"A1 B0 1 01": "A1 B0 0 01"}, "block degree (A1,B0) disagrees with the lattice"),
], ids=("lines0-A3", "lines1-B3", "lines2-swapped", "lines3-degree"))
def test_verify_all_rejects_a_table_that_breaks_the_filling_rule(capsys, tmp_path,
                                                                 lines, message):
    text = table_to_text(build_generator_table(6))
    for old, new in lines.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "table.txt"
    path.write_text(text)
    code, out, _ = run(capsys, "verify-all", "--table", str(path))
    assert code == 1 and out == f"[FAIL] generator-table override rejected: {message}\n"


def test_exc_check_reports_an_unresolved_vanishing_as_a_failure(capsys, monkeypatch):
    import burniat.effective as eff
    monkeypatch.setattr(eff, "TRUSTED", {})
    code, out, _ = run(capsys, "exc-check", "--fiber", "smooth")
    lines = out.splitlines()
    assert code == 1
    assert lines[2] == ("pair i=1 j=2 chi=0 h0_forward=ok(negative-degree;A0-) "
                        "h0_serre=FAIL(unresolved:minimal form (3; 0 00; 0 00; 0 00) "
                        "has degree >= 0 and is not a trusted class) verdict=FAIL")
    assert lines[-1] == "summary pairs_pass=12 self_pass=0"


def test_exc_check_reports_an_effective_class_as_a_failure(capsys, monkeypatch):
    import burniat.degeneration as deg
    from burniat.effective import KX, InS
    real_decide = deg.decide
    monkeypatch.setattr(deg, "decide", lambda table, x:
                        InS((0,) * 12) if x == KX else real_decide(table, x))
    code, out, _ = run(capsys, "exc-check", "--fiber", "degenerate")
    lines = out.splitlines()
    assert code == 1
    assert [l for l in lines if l.startswith("self")] == [
        f"self i={i} chi=1 h0_K=FAIL(effective) verdict=FAIL" for i in range(1, 7)]
    assert lines[-1] == "summary pairs_pass=15 self_pass=0"


def test_effective_prints_an_unresolved_verdict(capsys, monkeypatch):
    import burniat.effective as eff
    monkeypatch.setattr(eff, "TRUSTED", {})
    code, out, _ = run(capsys, "effective", "--class", "(3; 0 00; 0 00; 0 00)")
    assert code == 0
    assert out == ("class (3; 0 00; 0 00; 0 00)\n"
                   "verdict: Unresolved  chi: 0  note: minimal form (3; 0 00; 0 00; "
                   "0 00) has degree >= 0 and is not a trusted class\n")


def test_verify_all_refuses_a_repeated_table_line(capsys, tmp_path):
    path = tmp_path / "table.txt"
    path.write_text(table_to_text(build_generator_table(6)) + "C3 A0 1 01\n")
    code, out, err = run(capsys, "verify-all", "--only", "torsion",
                         "--table", str(path))
    assert code == 2 and not out and "repeated labels" in err


def test_verify_all_refuses_a_table_degree_that_is_not_an_integer(capsys, tmp_path):
    path = tmp_path / "table.txt"
    path.write_text(table_to_text(build_generator_table(6)).replace(
        "A0 A0 -1 00", "A0 A0 x 00"))
    code, out, err = run(capsys, "verify-all", "--only", "torsion",
                         "--table", str(path))
    assert code == 2 and not out and err == "error: bad degree in 'A0 A0 x 00'\n"


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


def test_cli_import_leaves_out_dataclasses_inspect_and_the_suite():
    # the library's records are named tuples and verify-all imports the
    # acceptance suite itself, so no other subcommand pays for them
    src = str(Path(burniat.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import burniat.cli, sys; print(*sorted("
         "m for m in ('dataclasses', 'inspect', 'burniat.verify') if m in sys.modules))"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


def test_unknown_subcommand_exit_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_closed_pipe_exits_141_quietly():
    # standard output is a pipe whose read end is already closed; buffered
    # and unbuffered output both end with no message and exit code 141
    src = str(Path(burniat.__file__).resolve().parents[1])
    for unbuffered in ("1", ""):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "burniat.cli", "torsion", "--ksq", "4",
                 "--variant", "nodal"], stdout=write_end, stderr=subprocess.PIPE,
                text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered})
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, "")


def test_unwritable_out_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "scan", "--max-degree", "0",
                       "--out", str(tmp_path / "missing" / "report.txt"))
    assert code == 2 and err.startswith("error: ")
