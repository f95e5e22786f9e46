"""Command line front end: file parsing, dispatch, report discipline."""

import argparse
import hashlib
import json
import subprocess
import sys
from math import gcd

import pytest

from oracle_tools import reference_rref
from relhyp.cayley import build_ball
from relhyp.cli import (
    PresentationParseError, UsageError, build_parser, main,
    parse_cocycle_file, parse_matrix_file, parse_presentation, parse_slopes,
    serialize_presentation,
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
    assert rp._relator_family == (None, 0)
    assert rp.nonparabolic_relators() == (rp.base.relators[0],)


def test_parse_matrix_file():
    rows = parse_matrix_file("2 3\n1 2 3\n-4 5 6\n")
    assert rows == [(1, 2, 3), (-4, 5, 6)]
    with pytest.raises(UsageError, match=r"line 3, column 4: bad matrix "
                       r"entry '5/2'; entries must be integers"):
        parse_matrix_file("2 3\n1 2 3\n-4 5/2 6\n")
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


def test_geodesics_electric_distance_is_x_displacement(zzp, capsys):
    # in Z^2 rel <b> the electric distance of a^x b^y is |x|; the input
    # A w a reaches w's vertex with two more non-parabolic letters
    pres = parse_presentation(Z2_REL_B).base
    for w in build_ball(pres, 3).words:
        text = pres.alphabet.to_str((1,) + w + (0,))
        code, rep, _ = run_cli(["geodesics", zzp, text], capsys)
        assert code == 0
        x = abs(w.count(0) - w.count(1))
        assert rep["results"]["electric_length"] == x + 2, text
        assert rep["results"]["electric_distance"] == x, text


def test_geodesics_out_of_ball_is_computational_error(zline, capsys):
    code, _, err = run_cli(
        ["geodesics", zline, "aaaa", "--radius", "2"], capsys)
    assert code == 1
    assert "leaves the radius-2 ball" in err


def test_oracle_budget_is_computational_error(tmp_path, capsys):
    # the Heisenberg group has no finite complete shortlex system
    p = tmp_path / "heis.pres"
    p.write_text("[generators] a b c\n[relators] abABC acAC bcBC\n")
    code, rep, err = run_cli(["ball", str(p), "--radius", "1"], capsys)
    assert code == 1 and rep is None
    assert err.startswith("relhyp: error: ")
    assert "budget of 500 rules" in err


def test_fftp_automaton_z_three_live_states(zline, capsys):
    code, rep, _ = run_cli(["fftp-automaton", zline, "--delta", "2"], capsys)
    assert code == 0
    r = rep["results"]
    assert r["live_states"] == 3
    assert r["prefix_closed"] is True
    assert r["height"] == "neg-length"
    assert len(r["transitions"]) == r["minimized_states"]


def test_fftp_automaton_all_parabolic_report_bytes(tmp_path, capsys):
    # every letter parabolic: all letter values are 0, so K = 1, the one
    # input where K is not scale + 1; the clamp level changes, the states
    # and these report bytes do not
    text = "[generators] a b\n[relators] abAB\n[parabolic P] a b\n"
    p = tmp_path / "z2_all_parabolic.pres"
    p.write_text(text)
    for delta in (1, 2, 3):
        assert main(["fftp-automaton", str(p), "--delta", str(delta)]) == 0
        report = {
            "command": "fftp-automaton",
            "inputs": {"delta": delta, "presentation": text,
                       "radius": delta + 1},
            "results": {
                "accept": [0], "delta": delta, "height": "neg-electric",
                "initial": 0, "live_states": 1, "minimized_states": 1,
                "prefix_closed": True, "states": 2,
                "symbols": ["a", "A", "b", "B"],
                "transitions": [[0, 0, 0, 0]],
            },
            "seed": None,
            "version": "0.1.0",
        }
        want = json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == want


# sha256 of the whole fftp-automaton report for fixed letter names: any
# change to the reported automaton, or to the report layout, changes these
ACCEPTOR_REPORTS = [
    ("[generators] a b\n[relators] abAB\n", 4,
     "bf99f870a52de10acd84b553e95a8ab47d819185ccaf8e20ba799c2d6eb8b374"),
    ("[generators] a b c\n[relators] abAB acAC bcBC\n", 3,
     "ec1c2ba58f695a8d24a76a900706df7fd81a4e8ddfb363c4110fb3adefd53fa9"),
    ("[generators] a b\n", 3,
     "3cdf4a7da3eb11fb91f29effad652dcf4efa0e75349f18646fc59993ac43cb87"),
    ("[generators] a b\n[parabolic P] b\n", 3,
     "ea683921ea0b5144abfeff59429ae288c097aee9e46ba1982f0f62b1cf724bc3"),
]


@pytest.mark.parametrize("text, delta, digest", ACCEPTOR_REPORTS,
                         ids=["z2-d4", "z3-d3", "f2-d3", "f2-rel-b-d3"])
def test_fftp_automaton_report_bytes_pinned(tmp_path, capsys, text, delta,
                                            digest):
    p = tmp_path / "g.pres"
    p.write_text(text)
    assert main(["fftp-automaton", str(p), "--delta", str(delta)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_electric_area_command(zzp, capsys):
    code, rep, _ = run_cli(["electric-area", zzp, "abbABB"], capsys)
    assert code == 0
    r = rep["results"]
    assert r["area_exact"] == 2
    assert r["area_upper"] >= 2
    assert r["electric_length"] == 2


def test_electric_area_checks_the_loop_before_it_searches(zzp, capsys,
                                                          monkeypatch):
    # abA is not a loop; the exact search must not run on it
    def no_search(*args, **kwargs):
        raise AssertionError("exact search ran on a word that is no loop")

    monkeypatch.setattr("relhyp.cli.electric_area_exact", no_search)
    code, _, err = run_cli(["electric-area", zzp, "abA"], capsys)
    assert code == 1
    assert "needs a loop" in err


def test_electric_area_without_nonparabolic_relators_fails_first(tmp_path,
                                                                  capsys):
    # the empty loop has area 0, but F2 rel <b> has nothing to insert,
    # and that error comes first
    p = tmp_path / "f2p.pres"
    p.write_text("[generators] a b\n[parabolic P] b\n")
    code, _, err = run_cli(["electric-area", str(p), "1"], capsys)
    assert code == 1
    assert "no non-parabolic relators to insert" in err


@pytest.mark.parametrize("word, exact, upper, lower, search", [
    ("abbbbABBBB", 4, 4, 4, "read from the stored run"),
    ("abbbbbABBBBB", 5, 5, 5, "read from the stored run"),
    ("aabbbAABBB", 6, 6, 6, "run"),
    ("aaabbbAAABBB", None, 9, 9, "skipped, lower bound above --budget"),
])
def test_electric_area_pinned_at_budget_8(word, exact, upper, lower, search,
                                          zzp, capsys, monkeypatch):
    import relhyp.electric as electric
    splice = electric._canonical_splice
    splices = []
    searched = []

    def counted(*args):
        splices.append(None)
        return splice(*args)

    def exact_search(rp, w, n_max):
        before = len(splices)
        got = electric.electric_area_exact(rp, w, n_max)
        searched.append(len(splices) - before)
        return got

    monkeypatch.setattr(electric, "_canonical_splice", counted)
    monkeypatch.setattr("relhyp.cli.electric_area_exact", exact_search)
    code, rep, err = run_cli(["electric-area", zzp, word, "--budget", "8"],
                             capsys)
    assert code == 0
    r = rep["results"]
    assert (r["area_exact"], r["area_upper"]) == (exact, upper)
    assert f"lower={lower} (search {search})" in err
    # a stored or skipped search splices only to find the normal form
    # and to bound it; a run splices once per search node
    if search == "run":
        assert searched[0] > 1000
    else:
        assert searched[0] <= 2


def test_electric_area_help_names_radius_default(capsys):
    assert main(["electric-area", "--help"]) == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "ball radius (default: word length, at least 4)" in out


def test_budget_help_names_what_it_caps():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    helps = {name: action.help
             for name, sub in subparsers.choices.items()
             for action in sub._actions if "--budget" in action.option_strings}
    assert helps == {
        "geodesics": "caps the geodesic words listed (default 1000)",
        "electric-area": "caps the relator insertions searched (default 8)",
        "bcp-scan": "caps the sampled pairs (default 200)",
        "thinness": "caps the sampled triples (default 300)",
        "clip-track": "caps the sampled vertex pairs (default 20)",
    }


@pytest.mark.parametrize("argv", [
    ["geodesics", "{p}", "aabb"],
    ["electric-area", "{p}", "abAB"],
    ["bcp-scan", "{p}"],
    ["thinness", "{p}"],
    ["clip-track", "{p}", "0"],
], ids=lambda argv: argv[0])
def test_negative_budget_is_a_usage_error(argv, zzp, capsys):
    argv = [a.format(p=zzp) for a in argv] + ["--budget", "-1"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "argument --budget: expected an integer >= 0, got '-1'" in err


# --depth-cap on each command that has it, then the other integer >= 0
# flags that --budget does not cover
@pytest.mark.parametrize("argv, flag", [
    pytest.param(["cusp-distance", "9", "0", "0"], "--depth-cap",
                 id="cusp-distance"),
    pytest.param(["thinness", "{p}"], "--depth-cap", id="thinness"),
    pytest.param(["clip-track", "{p}", "0"], "--depth-cap", id="clip-track"),
    pytest.param(["ball", "{p}"], "--radius", id="ball --radius"),
    pytest.param(["thinness", "{p}"], "--radius", id="thinness --radius"),
    pytest.param(["fftp-automaton", "{p}"], "--delta",
                 id="fftp-automaton --delta"),
])
def test_negative_depth_cap_is_a_usage_error(argv, flag, zzp, capsys):
    argv = [a.format(p=zzp) for a in argv] + [flag, "-1"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert f"argument {flag}: expected an integer >= 0, got '-1'" in err


def test_zero_budget_is_legal(zz, capsys):
    code, rep, _ = run_cli(["geodesics", zz, "aabb", "--budget", "0"], capsys)
    assert code == 0
    assert rep["results"]["count"] == 6
    assert rep["results"]["geodesics"] == []
    assert rep["results"]["truncated"] is True


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


# a subnormal --omega overflows shadow_length / (2 omega); a huge one
# sends it to 0
@pytest.mark.parametrize("omega", [
    pytest.param("0." + "0" * 312 + "1", id="subnormal"),
    pytest.param("1" + "0" * 308, id="huge"),
])
def test_cusp_distance_rejects_omega_out_of_scale(omega, capsys):
    code, _, err = run_cli(["cusp-distance", "9", "0", "0", "--omega", omega],
                           capsys)
    assert code == 2
    assert err.startswith("relhyp: error: shadow_length / (2 * omega) is ")
    assert err.endswith("; change shadow_length or --omega\n")


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
    # at psi = 10^4 the depth-3 and depth-4 edges are 1e-12 and 1e-16 long,
    # below the 1e-9 tightness tolerance of the walk back
    code, rep, _ = run_cli(
        ["clip-track", zline, "3", "--radius", "8", "--depth-cap", "4",
         "--psi", "10000", "--budget", "8"], capsys)
    assert code == 0
    r = rep["results"]
    assert (r["clip_depth"], r["pairs"]) == (3, 8)
    assert (r["clipped_vertices"], r["full_vertices"]) == (17 * 4, 17 * 5)
    assert (rep["inputs"]["psi"], rep["inputs"]["depth_cap"]) == (1e4, 4)


@pytest.mark.parametrize("argv", [
    ["--radius", "8", "--depth-cap", "3", "--budget", "0"],
    ["--radius", "0", "--depth-cap", "1"],   # a complex of two vertices
], ids=["zero-budget", "two-vertices"])
def test_thinness_without_triples_gives_no_verdict(argv, zline, capsys):
    code, rep, err = run_cli(["thinness", zline] + argv, capsys)
    assert code == 0
    assert rep["results"]["within_bound"] is None
    assert "thinness: no triples" in err


def test_clip_track_without_pairs_gives_no_maximum(zline, capsys):
    code, rep, _ = run_cli(
        ["clip-track", zline, "1", "--radius", "8", "--depth-cap", "3",
         "--budget", "0"], capsys)
    assert code == 0
    r = rep["results"]
    assert r["pairs"] == 0
    assert r["max_hausdorff"] is None and r["mean_hausdorff"] is None


def test_bcp_scan_without_pairs_gives_no_constant(zzp, capsys):
    code, rep, _ = run_cli(
        ["bcp-scan", zzp, "--radius", "5", "--budget", "0"], capsys)
    assert code == 0
    assert rep["results"]["pairs"] == 0
    assert rep["results"]["constant"] is None


def test_clip_track_depth_out_of_range(zline, capsys):
    code, _, err = run_cli(
        ["clip-track", zline, "9", "--depth-cap", "3"], capsys)
    assert code == 2
    assert "clip depth" in err


def test_clip_track_needs_two_clipped_vertices(zz, capsys):
    code, _, err = run_cli(["clip-track", zz, "0", "--radius", "0"], capsys)
    assert code == 2
    assert "keeps 1 of 5 vertices" in err
    assert "raise --radius" in err


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
    assert r["h1"]["presentation_shape"] == [4, 4]
    assert "nullity 1" in err


def test_dehn_fill_partial_and_gaps(tmp_path, capsys):
    k = tmp_path / "k.mat"
    k.write_text("2 2\n0 1\n-1 0\n")
    s = tmp_path / "s.txt"
    s.write_text("1/0\n*\n")
    code, rep, _ = run_cli(["dehn-fill", str(k), str(s)], capsys)
    assert code == 0
    assert rep["results"]["unreduced"] == [0]
    assert rep["results"]["h1"]["presentation_shape"] == [3, 2]
    # a gap in the filled set reports the H1 block of the relabelled
    # prefix case: swapping the components negates the skew entry
    s.write_text("*\n1/0\n")
    code, rep, _ = run_cli(["dehn-fill", str(k), str(s)], capsys)
    assert code == 0
    assert rep["results"]["nullity"] == 0
    k.write_text("2 2\n0 -1\n1 0\n")
    s.write_text("1/0\n*\n")
    code, prefix, _ = run_cli(["dehn-fill", str(k), str(s)], capsys)
    assert code == 0
    assert rep["results"]["h1"] == prefix["results"]["h1"]


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
    assert "line 2, column 3: bad matrix entry '1/2'" in err
    assert "must be integers" in err
    k.write_text("2 2\n0 1\n-1 0\n")
    s.write_text("1\n")
    code, _, err = run_cli(["dehn-fill", str(k), str(s)], capsys)
    assert code == 2
    assert "slope lines" in err


# int() also reads other scripts' digits and underscores; every integer
# in an input file or flag is ASCII digits with an optional sign
@pytest.mark.parametrize("matrix, slopes, message", [
    pytest.param("\u00b2 2\n0 1\n-1 0\n", "1\n1\n",
                 'line 1, column 1: matrix header must be "rows cols"',
                 id="superscript header"),
    pytest.param("2 2\n0 1_0\n-1_0 0\n", "1\n1\n",
                 "line 2, column 3: bad matrix entry '1_0'",
                 id="underscore entry"),
    pytest.param("2 2\n0 1\n-1 0\n", "1\n\u0663/1\n",
                 "line 2, column 1: bad slope '\u0663/1'",
                 id="arabic-indic slope"),
    pytest.param("2 2\n0 1\n-1 0\n", "1\n 2/1_1\n",
                 "line 2, column 4: bad slope '2/1_1'",
                 id="underscore slope denominator"),
])
def test_dehn_fill_reads_ascii_integers(matrix, slopes, message, tmp_path,
                                        capsys):
    k = tmp_path / "k.mat"
    k.write_text(matrix, encoding="utf-8")
    s = tmp_path / "s.txt"
    s.write_text(slopes, encoding="utf-8")
    code, _, err = run_cli(["dehn-fill", str(k), str(s)], capsys)
    assert code == 2
    assert message in err


def test_cocycle_value_reads_ascii_integers(tmp_path, zz, capsys):
    c = tmp_path / "c.txt"
    c.write_text("a a 1\na  A  1_0\n", encoding="utf-8")
    code, _, err = run_cli(["cocycle-check", zz, str(c)], capsys)
    assert code == 2
    assert "line 2, column 7: bad value '1_0'" in err


def test_radius_reads_ascii_integers(zz, capsys):
    code, _, err = run_cli(["ball", zz, "--radius", "1_0"], capsys)
    assert code == 2
    assert "argument --radius: expected an integer >= 0, got '1_0'" in err


# the integer positionals, each spelled 1_0 and then -1
@pytest.mark.parametrize("argv, name", [
    pytest.param(["cusp-distance", "9", "{n}", "0"], "depth_i", id="depth_i"),
    pytest.param(["cusp-distance", "9", "0", "{n}"], "depth_k", id="depth_k"),
    pytest.param(["clip-track", "{p}", "{n}"], "clip_depth",
                 id="clip_depth"),
])
@pytest.mark.parametrize("n", ["1_0", "-1"])
def test_depth_positionals_read_counts(argv, name, n, zline, capsys):
    argv = [a.format(p=zline, n=n) for a in argv]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert f"argument {name}: expected an integer >= 0, got '{n}'" in err


@pytest.mark.parametrize("argv", [
    ["cusp-distance", "9", "0", "0"],
    ["bcp-scan", "{p}", "--budget", "1"],
], ids=lambda argv: argv[0])
def test_seed_reads_ascii_integers(argv, zzp, capsys):
    argv = [a.format(p=zzp) for a in argv]
    code, _, err = run_cli(argv + ["--seed", "1_0"], capsys)
    assert code == 2
    assert "argument --seed: expected an integer, got '1_0'" in err
    # a seed may be negative
    code, rep, _ = run_cli(argv + ["--seed", "-3"], capsys)
    assert code == 0 and rep["seed"] == -3


# each decimal argument, spelled nan, inf, 1_0 and with an Arabic-Indic 3
@pytest.mark.parametrize("argv, name", [
    pytest.param(["cusp-distance", "{x}", "0", "0"], "shadow_length",
                 id="shadow_length"),
    pytest.param(["cusp-distance", "9", "0", "0", "--psi", "{x}"], "--psi",
                 id="psi"),
    pytest.param(["cusp-distance", "9", "0", "0", "--omega", "{x}"],
                 "--omega", id="omega"),
    pytest.param(["thinness", "{p}", "--psi", "{x}"], "--psi",
                 id="thinness-psi"),
])
@pytest.mark.parametrize("x", ["nan", "inf", "1_0", "\u0663"])
def test_decimals_read_finite_ascii(argv, name, x, zline, capsys):
    code, _, err = run_cli([a.format(p=zline, x=x) for a in argv], capsys)
    assert code == 2
    assert f"argument {name}: expected a finite decimal, got {x!r}" in err


# a decimal or depth outside the range CuspParams takes, on each command
# that reads it
@pytest.mark.parametrize("argv, message", [
    pytest.param(["cusp-distance", "9", "0", "0", "--psi", "1"],
                 "argument --psi: expected a decimal above 1, got '1'",
                 id="cusp-distance-psi"),
    pytest.param(["thinness", "{p}", "--psi", "0.5"],
                 "argument --psi: expected a decimal above 1, got '0.5'",
                 id="thinness-psi"),
    pytest.param(["clip-track", "{p}", "0", "--psi", "-3"],
                 "argument --psi: expected a decimal above 1, got '-3'",
                 id="clip-track-psi"),
    pytest.param(["cusp-distance", "9", "0", "0", "--omega", "0"],
                 "argument --omega: expected a decimal above 0, got '0'",
                 id="cusp-distance-omega"),
    pytest.param(["thinness", "{p}", "--omega", "-.5"],
                 "argument --omega: expected a decimal above 0, got '-.5'",
                 id="thinness-omega"),
    pytest.param(["clip-track", "{p}", "0", "--omega", "0.0"],
                 "argument --omega: expected a decimal above 0, got '0.0'",
                 id="clip-track-omega"),
    pytest.param(["cusp-distance", "9", "3", "0", "--depth-cap", "1"],
                 "depth_i and depth_k must lie in [0, 1], the --depth-cap",
                 id="cusp-distance-depth"),
])
def test_cusp_flags_out_of_range_are_usage_errors(argv, message, zline,
                                                  capsys):
    code, _, err = run_cli([a.format(p=zline) for a in argv], capsys)
    assert code == 2
    assert message in err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--delta", "0"], "--delta must be at least 1", id="delta"),
    pytest.param(["--delta", "2", "--radius", "2"],
                 "--radius must be at least --delta + 1 = 3", id="radius"),
])
def test_fftp_flags_out_of_range_are_usage_errors(argv, message, zline,
                                                  capsys):
    code, _, err = run_cli(["fftp-automaton", zline] + argv, capsys)
    assert code == 2
    assert message in err
    # the edge of each range is legal
    code, _, _ = run_cli(["fftp-automaton", zline, "--delta", "1",
                          "--radius", "2"], capsys)
    assert code == 0


def test_decimals_keep_their_values(capsys):
    code, rep, _ = run_cli(["cusp-distance", "9.", "0", "0", "--psi", "+3.0",
                            "--omega", ".5"], capsys)
    assert code == 0
    assert (rep["inputs"]["shadow_length"], rep["inputs"]["psi"],
            rep["inputs"]["omega"]) == (9.0, 3.0, 0.5)


@pytest.mark.parametrize("psi", ["3", "9"])
def test_thinness_report_does_not_depend_on_shared_rows(psi, zzp, capsys,
                                                        monkeypatch):
    # psi sets every edge length the lifted inversions must preserve
    argv = ["thinness", zzp, "--radius", "3", "--depth-cap", "2",
            "--psi", psi]
    assert main(argv) == 0
    shared = capsys.readouterr().out
    monkeypatch.setattr("relhyp.cli.inversion_automorphisms", lambda ball: [])
    assert main(argv) == 0
    assert capsys.readouterr().out == shared


@pytest.mark.parametrize("psi", ["3", "9"])
def test_clip_track_report_does_not_depend_on_shared_rows(psi, zzp, capsys,
                                                          monkeypatch):
    # both the full and the clipped complex share rows across the lifts,
    # and at seed 0 some clipped path does not track its full geodesic
    argv = ["clip-track", zzp, "1", "--radius", "4", "--depth-cap", "2",
            "--psi", psi]
    assert main(argv) == 0
    shared = capsys.readouterr().out
    assert json.loads(shared)["results"]["max_hausdorff"] > 0
    monkeypatch.setattr("relhyp.cli.inversion_automorphisms", lambda ball: [])
    assert main(argv) == 0
    assert capsys.readouterr().out == shared


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


def test_cocycle_file_words_parse_once():
    rp = parse_presentation("[generators] a b\n[relators] abAB\n")
    ball = build_ball(rp.base, 2)
    # a bad word after lines that repeat good ones names its own place
    with pytest.raises(PresentationParseError) as exc:
        parse_cocycle_file("ab ab 1\nab 1 0\n1 ab 0\n  ab  xq 3\n", rp, ball)
    assert (exc.value.line, exc.value.col) == (4, 7)
    # a word that leaves the ball fails where it first appears
    with pytest.raises(UsageError, match="line 2: word 'aaa' leaves"):
        parse_cocycle_file("a a 1\na aaa 0\naaa a 0\n", rp, ball)
    # two spellings of one element are one vertex
    table = parse_cocycle_file("ab a 1\nba a 1\n", rp, ball)
    assert table == {(ball.evaluate(rp.base.alphabet.parse("ab")),
                      ball.evaluate(rp.base.alphabet.parse("a"))): 1}
    with pytest.raises(UsageError, match="line 2: conflicting values"):
        parse_cocycle_file("ab a 1\nba a 2\n", rp, ball)


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


def test_parser_is_built_once_and_dispatch_follows_rebinding(
        zz, capsys, monkeypatch):
    assert build_parser() is build_parser()
    code, rep, _ = run_cli(["ball", "--radius", "2", zz], capsys)
    assert code == 0 and rep["results"]["vertices"] == 13
    # main looks cmd_<name> up at call time, so a rebound one runs
    seen = []

    def stand_in(args):
        seen.append(args.radius)
        return {"stand_in": True}, {}, "stand-in"

    monkeypatch.setattr("relhyp.cli.cmd_ball", stand_in)
    code, rep, _ = run_cli(["ball", "--radius", "1", zz], capsys)
    assert (code, seen, rep["results"]) == (0, [1], {"stand_in": True})
    monkeypatch.undo()
    # the reused parser still reports usage errors, and then runs again
    assert main(["ball", "--radius", "x", zz]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    code, rep, _ = run_cli(["ball", "--radius", "2", zz], capsys)
    assert code == 0 and rep["results"]["vertices"] == 13


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
