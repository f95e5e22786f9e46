"""Command line front end: file parsing, dispatch, report discipline."""

import json
import subprocess
import sys
from math import gcd

import pytest

from oracle_tools import reference_rref
from relhyp.cli import (
    PresentationParseError, UsageError, main, parse_matrix_file,
    parse_presentation, parse_slopes, serialize_presentation,
)
from fractions import Fraction

Z2_REL_B = "[generators] a b\n[relators] abAB\n[parabolic P] b\n"


def run_cli(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    report = json.loads(cap.out) if code == 0 and cap.out else None
    return code, report, cap.err


@pytest.fixture()
def zz(tmp_path):
    p = tmp_path / "zz.pres"
    p.write_text("[generators] a b\n[relators] abAB\n")
    return str(p)


@pytest.fixture()
def zzp(tmp_path):
    p = tmp_path / "zzp.pres"
    p.write_text(Z2_REL_B)
    return str(p)


@pytest.fixture()
def zline(tmp_path):
    p = tmp_path / "z.pres"
    p.write_text("[generators] a\n")
    return str(p)


# ------------------------------------------------------ file parsing

def test_parse_presentation_z2_rel_b():
    rp = parse_presentation(Z2_REL_B)
    assert rp.base.alphabet.generators == ("a", "b")
    assert rp.base.relators == ((0, 2, 1, 3),)
    assert len(rp.families) == 1
    assert rp.families[0].name == "P"
    assert rp.families[0].generators == (2,)


def test_parse_empty_relators_is_free():
    rp = parse_presentation("[generators] a b\n[relators]\n")
    assert rp.base.relators == ()
    assert rp.families == ()


def test_parse_multiline_sections():
    rp = parse_presentation(
        "[generators]\n  a\n  b  # comment\n[relators]\n abAB\n")
    assert rp.base.alphabet.generators == ("a", "b")
    assert len(rp.base.relators) == 1


def test_parse_unknown_relator_symbol_location():
    with pytest.raises(PresentationParseError) as exc:
        parse_presentation("[generators] a\n[relators] aca\n")
    assert exc.value.line == 2
    assert exc.value.col == 13  # the 'c'


def test_parse_parabolic_must_be_generator():
    with pytest.raises(PresentationParseError) as exc:
        parse_presentation("[generators] a\n[parabolic P] q\n")
    assert "not a generator" in str(exc.value)
    assert exc.value.line == 2


def test_parse_error_catalogue():
    cases = [
        ("a b\n[generators] a", "before any section"),
        ("[generators] a a", "duplicate generator"),
        ("[generators] a\n[generators] b", "duplicate [generators]"),
        ("[generators] ab", "single lowercase letter"),
        ("[generators] a\n[relators] aA", "reduces to nothing"),
        ("[generators] a\n[parabolic P] a\n[parabolic P] a", "duplicate parabolic"),
        ("[generators] a\n[parabolic P] a\n[parabolic Q] a", "already in family"),
        ("[generators] a\n[parabolic P]", "no generators"),
        ("[generators a", "unterminated"),
        ("[widgets] a", "unknown section"),
        ("", "no [generators]"),
    ]
    for text, needle in cases:
        with pytest.raises(PresentationParseError) as exc:
            parse_presentation(text)
        assert needle in str(exc.value), text


def test_round_trip_corpus():
    corpus = [
        "[generators] a\n",
        "[generators] a b\n[relators] abAB\n",
        Z2_REL_B,
        "[generators] a b c\n[relators] abAB bcBC\n[parabolic P] b\n"
        "[parabolic Q] c\n",
    ]
    for text in corpus:
        rp = parse_presentation(text)
        again = parse_presentation(serialize_presentation(rp))
        assert again == rp, text


def test_family_relators_assigned_by_support():
    rp = parse_presentation(
        "[generators] a b c\n[relators] abAB bcBC\n[parabolic P] b c\n")
    # bcBC lives on the family's letters, abAB does not
    assert rp.families[0].relators == (rp.base.relators[1],)
    assert rp.nonparabolic_relators() == (rp.base.relators[0],)


def test_parse_matrix_file():
    rows = parse_matrix_file("2 3\n1 2 3\n-4 5/2 6\n")
    assert rows == [(1, 2, 3), (-4, Fraction(5, 2), 6)]
    with pytest.raises(UsageError, match="rows cols"):
        parse_matrix_file("banana\n1\n")
    with pytest.raises(UsageError, match="expected 2 entries"):
        parse_matrix_file("1 2\n1 2 3\n")
    with pytest.raises(UsageError, match="expected 2 rows"):
        parse_matrix_file("2 1\n1\n")
    with pytest.raises(UsageError, match="bad matrix entry"):
        parse_matrix_file("1 1\nx\n")


def test_parse_slopes():
    got = parse_slopes("100/1\n-1/100\n*\n7\n")
    assert got[2] is None
    for f in (got[0], got[1], got[3]):
        assert f.p * f.v + f.q * f.u == 1
    assert (got[0].u, got[0].v) == (100, 1)
    assert (got[1].u, got[1].v) == (-1, 100)
    assert (got[3].u, got[3].v) == (7, 1)
    with pytest.raises(UsageError, match="not primitive"):
        parse_slopes("2/4\n")
    with pytest.raises(UsageError, match="bad slope"):
        parse_slopes("x/y\n")


# --------------------------------------------------------- commands

def test_ball_z2_radius_3(zz, capsys):
    code, rep, err = run_cli(["ball", "--radius", "3", zz], capsys)
    assert code == 0
    assert rep["command"] == "ball"
    assert rep["results"]["vertices"] == 25
    assert rep["results"]["sphere_sizes"] == [1, 4, 8, 12]
    assert len(rep["results"]["words"]) == 25
    assert "25 vertices" in err


def test_paper_first_example_runs(tmp_path, capsys):
    # Z * Z^2 relative to Z^2 = <b, c>
    p = tmp_path / "zfreez2.pres"
    p.write_text("[generators] a b c\n[relators] bcBC\n[parabolic P] b c\n")
    code, rep, _ = run_cli(["ball", "--radius", "3", str(p)], capsys)
    assert code == 0
    assert rep["results"]["sphere_sizes"] == [1, 6, 26, 110]
    for argv in (["bcp-scan", str(p), "--radius", "3", "--budget", "50"],
                 ["thinness", str(p), "--radius", "2", "--depth-cap", "2",
                  "--budget", "50"],
                 ["fftp-automaton", str(p)]):
        code, rep, err = run_cli(argv, capsys)
        assert code == 0, err
    assert rep["results"]["height"] == "neg-electric"


def test_geodesics_command(zzp, capsys):
    code, rep, _ = run_cli(["geodesics", zzp, "abb"], capsys)
    assert code == 0
    r = rep["results"]
    assert r["count"] == 3
    assert r["geodesics"] == ["abb", "bab", "bba"]
    assert r["electric_length"] == 1
    assert r["electric_distance"] == 1
    assert not r["truncated"]


def test_geodesics_out_of_ball_is_computational_error(zline, capsys):
    code, _, err = run_cli(
        ["geodesics", zline, "aaaa", "--radius", "2"], capsys)
    assert code == 1
    assert "leaves the radius-2 ball" in err


def test_fftp_automaton_z_three_live_states(zline, capsys):
    code, rep, _ = run_cli(["fftp-automaton", zline, "--delta", "2"], capsys)
    assert code == 0
    r = rep["results"]
    assert r["live_states"] == 3
    assert r["prefix_closed"] is True
    assert r["height"] == "neg-length"
    assert len(r["transitions"]) == r["minimized_states"]


def test_electric_area_command(zzp, capsys):
    code, rep, _ = run_cli(["electric-area", zzp, "abbABB"], capsys)
    assert code == 0
    r = rep["results"]
    assert r["area_exact"] == 2
    assert r["area_upper"] >= 2
    assert r["electric_length"] == 2


def test_electric_area_help_names_radius_default(capsys):
    assert main(["electric-area", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "ball radius (default: word length, at least 4)" in out


def test_electric_area_needs_family(zz, capsys):
    code, _, err = run_cli(["electric-area", zz, "abAB"], capsys)
    assert code == 2
    assert "parabolic family" in err


def test_bcp_scan_and_identical_control(zzp, capsys):
    code, rep, _ = run_cli(
        ["bcp-scan", zzp, "--radius", "5", "--budget", "60"], capsys)
    assert code == 0
    assert rep["results"]["constant"] <= 2
    assert rep["seed"] == 0
    code, rep, _ = run_cli(
        ["bcp-scan", zzp, "--radius", "5", "--budget", "60", "--identical"],
        capsys)
    assert code == 0
    assert rep["results"]["constant"] == 0


def test_cusp_distance_frozen(capsys):
    code, rep, _ = run_cli(["cusp-distance", "9", "0", "0"], capsys)
    assert code == 0
    r = rep["results"]
    assert r["length"] == pytest.approx(2.464816384890813, abs=1e-12)
    assert r["depth"] == 2
    assert abs(r["depth"] - r["optimal_depth"]) <= 1.0
    assert r["level_bound"] == pytest.approx(2.0)


def test_cusp_distance_rejects_negative(capsys):
    code, _, err = run_cli(["cusp-distance", "--", "-1", "0", "0"], capsys)
    assert code == 2
    assert "shadow length" in err


def test_thinness_command(zline, capsys):
    code, rep, _ = run_cli(
        ["thinness", zline, "--radius", "8", "--depth-cap", "3",
         "--budget", "120"], capsys)
    assert code == 0
    r = rep["results"]
    assert 0.0 <= r["delta_hat"] <= r["delta_bound"] + 2.0
    assert r["within_bound"] is True
    assert r["cusped_cayley"] is False


def test_clip_track_command(zline, capsys):
    code, rep, _ = run_cli(
        ["clip-track", zline, "1", "--radius", "8", "--depth-cap", "3",
         "--budget", "8"], capsys)
    assert code == 0
    r = rep["results"]
    assert r["pairs"] == 8
    assert r["max_hausdorff"] >= 0.0
    assert r["clipped_vertices"] < r["full_vertices"]


def test_clip_track_depth_out_of_range(zline, capsys):
    code, _, err = run_cli(
        ["clip-track", zline, "9", "--depth-cap", "3"], capsys)
    assert code == 2
    assert "clip depth" in err


def test_hyp2_check_command(capsys):
    code, rep, err = run_cli(["hyp2-check"], capsys)
    assert code == 0
    r = rep["results"]
    assert r["passed"] is True
    assert r["tangent_diameter"] == pytest.approx(2.0, abs=1e-6)
    for sweep in ("ideal_midpoint", "right_triangle", "ideal_isosceles"):
        assert r[sweep]["worst_margin"] > 0.0
        assert r[sweep]["cases"] > 100
    assert "all sweeps pass" in err


def test_dehn_fill_worked_example(tmp_path, capsys):
    k = tmp_path / "k.mat"
    k.write_text("2 2\n0 1\n-1 0\n")
    s = tmp_path / "s.txt"
    s.write_text("100/1\n-1/100\n")
    code, rep, err = run_cli(["dehn-fill", str(k), str(s)], capsys)
    assert code == 0
    r = rep["results"]
    assert r["nullity"] == 1
    assert r["kernel_basis"] == [[1, 100]]
    assert r["filling_matrix"] == [["100", "1"], ["-1", "-1/100"]]
    assert r["h1"]["rank_lower_bound"] == 1
    assert r["h1"]["torsion"] == []
    assert r["h1"]["kernel_rank"] == 1
    assert "nullity 1" in err


def test_dehn_fill_partial_and_gaps(tmp_path, capsys):
    k = tmp_path / "k.mat"
    k.write_text("2 2\n0 1\n-1 0\n")
    s = tmp_path / "s.txt"
    s.write_text("1/0\n*\n")
    code, rep, _ = run_cli(["dehn-fill", str(k), str(s)], capsys)
    assert code == 0
    assert rep["results"]["unreduced"] == [0]
    assert rep["results"]["h1"] is not None
    # a gap in the filled set skips the H1 block but keeps the certificate
    s.write_text("*\n1/0\n")
    code, rep, _ = run_cli(["dehn-fill", str(k), str(s)], capsys)
    assert code == 0
    assert rep["results"]["h1"] is None
    assert rep["results"]["nullity"] == 0


def test_dehn_fill_rank_deficient_link(tmp_path, capsys):
    """Five linked pairs (linking number k) coupled to two unfilled
    components (couplings c and d).  In four pairs the slopes a and
    -k^2/a with d = -k*c/a make the second row -k/a times the first; the
    fourth pair is generic.  The certificate has nullity 4."""
    n = 12
    rows = [[0] * n for _ in range(n)]
    slopes = []
    pairs = [(1, (5, -10), (-1, 2), "5/1", "-1/5"),
             (2, (3, 6), (-2, -4), "3/1", "-4/3"),
             (3, (2, 0), (-3, 0), "2/1", "-9/2"),
             (1, (1, 1), (0, 1), "2/1", "7/3"),
             (1, (4, 8), (1, 2), "-4/1", "1/4")]
    for j, (k, c, d, s0, s1) in enumerate(pairs):
        i = 2 * j
        rows[i][i + 1], rows[i + 1][i] = k, -k
        for col, x, y in ((10, c[0], d[0]), (11, c[1], d[1])):
            rows[i][col], rows[col][i] = x, -x
            rows[i + 1][col], rows[col][i + 1] = y, -y
        slopes += [s0, s1]
    rows[10][11], rows[11][10] = 1, -1
    k_file = tmp_path / "link12.mat"
    k_file.write_text(f"{n} {n}\n" + "".join(
        " ".join(map(str, r)) + "\n" for r in rows))
    s_file = tmp_path / "slopes12.txt"
    s_file.write_text("\n".join(slopes + ["*", "*"]) + "\n")
    code, rep, err = run_cli(["dehn-fill", str(k_file), str(s_file)], capsys)
    assert code == 0
    r = rep["results"]
    b = [[Fraction(x) for x in row] for row in r["filling_matrix"]]
    assert any(x.denominator > 1 for row in b for x in row)
    assert r["nullity"] == 4
    basis = r["kernel_basis"]
    assert len(basis) == 4
    for alpha in basis:
        assert len(alpha) == len(b)
        assert gcd(*alpha) == 1
        assert next(x for x in alpha if x) > 0
        for col in range(n):
            assert sum(a * row[col] for a, row in zip(alpha, b)) == 0
    assert len(reference_rref(basis)[1]) == 4
    assert any(abs(x) > 1 for alpha in basis for x in alpha)
    assert r["h1"]["rank_lower_bound"] == 6
    assert r["h1"]["kernel_rank"] == 4
    assert "nullity 4" in err


def test_dehn_fill_input_validation(tmp_path, capsys):
    k = tmp_path / "k.mat"
    k.write_text("2 2\n0 1/2\n-1 0\n")
    s = tmp_path / "s.txt"
    s.write_text("1\n1\n")
    code, _, err = run_cli(["dehn-fill", str(k), str(s)], capsys)
    assert code == 2
    assert "must be integers" in err
    k.write_text("2 2\n0 1\n-1 0\n")
    s.write_text("1\n")
    code, _, err = run_cli(["dehn-fill", str(k), str(s)], capsys)
    assert code == 2
    assert "slope lines" in err


def test_cocycle_check_command(tmp_path, zz, capsys):
    c = tmp_path / "c.txt"
    c.write_text("a a 1\na A 0\n1 a 0\n")
    code, rep, _ = run_cli(
        ["cocycle-check", zz, str(c), "--radius", "2"], capsys)
    assert code == 0
    r = rep["results"]
    assert r["cocycle_identity"] is True
    assert r["coboundary"] is True
    assert 0.0 < r["coverage"] < 1.0
    assert r["spread_constant"] == 1


def test_cocycle_check_finds_violation(tmp_path, zline, capsys):
    c = tmp_path / "c.txt"
    c.write_text("a a 1\naa a 1\na aa 0\n")
    code, rep, _ = run_cli(
        ["cocycle-check", zline, str(c), "--radius", "3"], capsys)
    assert code == 0
    r = rep["results"]
    assert r["cocycle_identity"] is False
    assert r["violation"] == ["a", "a", "a"]


def test_cocycle_check_heisenberg_radius_8(tmp_path, zz, capsys):
    radius = 8

    def word(x, y):
        w = ("a" if x > 0 else "A") * abs(x) + ("b" if y > 0 else "B") * abs(y)
        return w or "1"

    pts = [(x, y) for x in range(-radius, radius + 1)
           for y in range(-radius, radius + 1) if abs(x) + abs(y) <= radius]
    c = tmp_path / "heis.txt"
    c.write_text("".join(f"{word(*g)} {word(*h)} {g[0] * h[1]}\n"
                         for g in pts for h in pts))
    code, rep, _ = run_cli(
        ["cocycle-check", zz, str(c), "--radius", str(radius)], capsys)
    assert code == 0
    r = rep["results"]
    assert r["cocycle_identity"] is True
    assert r["coboundary"] is False
    assert r["spread_constant"] == 7


def test_cocycle_file_errors(tmp_path, zline, capsys):
    c = tmp_path / "c.txt"
    c.write_text("a a 1\na a 2\n")
    code, _, err = run_cli(["cocycle-check", zline, str(c)], capsys)
    assert code == 2
    assert "conflicting values" in err
    c.write_text("aaaaaaaa a 1\n")
    code, _, err = run_cli(
        ["cocycle-check", zline, str(c), "--radius", "2"], capsys)
    assert code == 2
    assert "raise --radius" in err


# ------------------------------------------------------- report hygiene

def test_reports_are_byte_identical_given_seed(zzp, capsys):
    argv = ["bcp-scan", zzp, "--radius", "5", "--budget", "40", "--seed", "9"]
    out = []
    for _ in range(2):
        code = main(argv)
        assert code == 0
        out.append(capsys.readouterr().out)
    assert out[0] == out[1]
    main(["bcp-scan", zzp, "--radius", "5", "--budget", "40", "--seed", "10"])
    other = capsys.readouterr().out
    assert other != out[0]
    assert json.loads(other)["seed"] == 10


def test_report_shape_and_echo(zz, capsys):
    code, rep, _ = run_cli(["ball", "--radius", "2", zz], capsys)
    assert code == 0
    assert set(rep) == {"command", "version", "seed", "inputs", "results"}
    assert rep["inputs"]["radius"] == 2
    assert parse_presentation(rep["inputs"]["presentation"]).base.relators \
        == ((0, 2, 1, 3),)


def test_usage_errors_exit_2(zz, capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()
    assert main(["ball", "/nonexistent/file.pres"]) == 2
    capsys.readouterr()


def test_console_entry_subprocess(tmp_path):
    p = tmp_path / "zz.pres"
    p.write_text("[generators] a b\n[relators] abAB\n")
    proc = subprocess.run(
        [sys.executable, "-m", "relhyp.cli", "ball", "--radius", "3", str(p)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["vertices"] == 25
    assert "25 vertices" in proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "relhyp.cli", "frobnicate"],
        capture_output=True, text=True)
    assert proc.returncode == 2
