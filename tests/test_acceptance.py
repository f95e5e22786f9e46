"""Acceptance gate: one test per shipping criterion.

Each test enforces its stated tolerance and wall-clock budget and
registers a detail string; the conftest terminal-summary hook turns the
outcomes into one pass/fail line per criterion at the end of the run.
"""

import itertools
import math
import random
import time

import pytest

from conftest import ACCEPTANCE_DETAILS

from relhyp.words import Alphabet, Presentation, free_reduce
from relhyp.automata import (
    Nfa, determinize, dfa_run, language_equal, live_states, minimize,
    nfa_run, prefix_closed,
)
from relhyp.cayley import build_ball, inversion_automorphisms
from relhyp.electric import (
    ParabolicFamily, RelativePresentation, bcp_scan, coset_reduce,
    electric_area_exact, electric_area_upper, electric_length,
)
from relhyp.fftp import build_fftp_automaton, neg_length_height
from relhyp.cusp import (
    CuspParams, DistanceRows, build_cusp_complex, decompose_geodesic,
    delta_constant, distance_row, geodesic_length_closed_form, level_bound,
    measure_thinness, optimal_depth,
)
from relhyp.hyp2 import (
    ideal_midpoint_check, right_triangle_gap, tangent_projection_diameter,
)
from relhyp.homology import (
    IntMatrix, LinkingMatrix, filling_matrix, filling_nullity_certificate,
    h1_presentation, snf, surgery_solve, wishful_fillings,
)
from relhyp.extension import (
    cocycle_check, section_to_cocycle, spread_trend, weakly_bounded_report,
)


def note(num: int, msg: str):
    ACCEPTANCE_DETAILS[num] = msg


@pytest.fixture(scope="module")
def rp_z2(pres_z2):
    return RelativePresentation(pres_z2, (ParabolicFamily("P", (2,)),))


@pytest.fixture(scope="module")
def rp_f2(pres_f2):
    return RelativePresentation(pres_f2, (ParabolicFamily("P", (2,)),))


@pytest.fixture(scope="module")
def z_cusp():
    """H = Z horoball complex: psi=3, omega=1/3, depth 6 over ball 40."""
    params = CuspParams(3.0, depth_cap=6)
    ball = build_ball(Presentation(Alphabet(["a"]), ()), 40)
    cx = build_cusp_complex(ball, params)
    pos = {}
    for v in range(len(ball)):
        w = ball.words[v]
        pos[v] = sum(1 if s == 0 else -1 for s in w)
    return params, ball, cx, pos


def test_criterion_01_ball_counts(pres_z2, pres_f2):
    t0 = time.monotonic()
    for r in range(7):
        assert len(build_ball(pres_z2, r)) == 2 * r * r + 2 * r + 1
    for r in range(6):
        assert len(build_ball(pres_f2, r)) == 2 * 3 ** r - 1
    assert len(build_ball(pres_f2, 5)) == 485
    dt = time.monotonic() - t0
    assert dt < 5.0
    note(1, f"ball counts exact for Z^2 (R<=6) and F2 (R<=5) in {dt:.2f}s")


def test_criterion_02_free_reduction_confluence():
    rng = random.Random(2)

    def scan_reduce(word):
        # independent strategy: delete the first cancelling pair, repeat
        word = list(word)
        changed = True
        while changed:
            changed = False
            for i in range(len(word) - 1):
                if word[i] ^ 1 == word[i + 1]:
                    del word[i:i + 2]
                    changed = True
                    break
        return tuple(word)

    for _ in range(10_000):
        w = tuple(rng.randrange(4) for _ in range(rng.randrange(21)))
        assert free_reduce(w) == scan_reduce(w)
    note(2, "two reduction strategies agree on 10^4 words of length <= 20")


def test_criterion_03_determinize_minimize_oracle():
    t0 = time.monotonic()
    rng = random.Random(3)
    words = [w for n in range(9)
             for w in itertools.product(range(2), repeat=n)]
    for _ in range(100):
        n = rng.randrange(1, 5)
        transitions = {}
        for q in range(n):
            for s in range(2):
                tgts = frozenset(t for t in range(n) if rng.random() < 0.35)
                if tgts:
                    transitions[q, s] = tgts
        nfa = Nfa(n, transitions,
                  accept={rng.randrange(n)},
                  symbols=("x", "y"),
                  initial={rng.randrange(n)})
        det = determinize(nfa)
        small = minimize(det)
        again = minimize(small)
        assert again.n == small.n
        eq, _ = language_equal(small, again)
        assert eq
        for w in words:
            want = nfa_run(nfa, w)
            assert dfa_run(det, w) == want
            assert dfa_run(small, w) == want
    dt = time.monotonic() - t0
    assert dt < 30.0
    note(3, f"100 NFAs: determinize/minimize match simulation <=8 in {dt:.1f}s")


def test_criterion_04_fftp_equals_geodesics(pres_z, pres_f2, pres_z2):
    t0 = time.monotonic()
    cases = [("Z", pres_z, 4), ("F2", pres_f2, 3), ("Z2", pres_z2, 3)]
    for name, pres, radius in cases:
        ball = build_ball(pres, radius)
        h = neg_length_height(pres.alphabet)
        dfa = build_fftp_automaton(ball, 2, h)
        assert prefix_closed(dfa), name
        truth = build_ball(pres, 7)
        nsym = len(pres.alphabet.symbols)
        for n in range(8):
            for w in itertools.product(range(nsym), repeat=n):
                v = truth.evaluate(w)
                is_geo = v is not None and truth.length_of(v) == n
                assert dfa_run(dfa, w) == is_geo, (name, w)
        if name == "Z":
            assert len(live_states(minimize(dfa))) == 3
    dt = time.monotonic() - t0
    assert dt < 120.0
    note(4, f"FFTP acceptor == brute geodesics <=7 on Z, F2, Z^2 in {dt:.1f}s")


def test_criterion_05_electric_area(rp_z2, alpha_ab):
    t0 = time.monotonic()
    ball = build_ball(rp_z2.base, 6)
    for n in range(1, 5):
        w = ((0,) + (2,) * n + (1,) + (3,) * n)   # a b^n A B^n
        ehat = electric_length(rp_z2, w)
        assert ehat == 2
        exact = electric_area_exact(rp_z2, w, n + 2)
        assert exact == n
        upper, _ = electric_area_upper(ball, rp_z2, w, k=2)
        assert upper >= exact
        assert upper <= 3 * ehat + 3
    dt = time.monotonic() - t0
    assert dt < 120.0
    note(5, f"area([a,b^n]) == n for n<=4; upper bound <= 3*elen+3 in {dt:.1f}s")


def test_criterion_06_coset_reduction_preserved(rp_z2, rp_f2):
    rng = random.Random(6)
    for rp in (rp_z2, rp_f2):
        ball = build_ball(rp.base, 6)
        for _ in range(5_000):
            word = []
            v = 0
            for _ in range(rng.randrange(1, 13)):
                opts = [s for s in ball.symbol_moves()
                        if ball.edges[v][s] is not None]
                if not opts:
                    break
                s = rng.choice(opts)
                word.append(s)
                v = ball.edges[v][s]
            word = tuple(word)
            red = coset_reduce(rp, word)
            assert ball.evaluate(red) == ball.evaluate(word)
            assert electric_length(rp, red) == electric_length(rp, word)
    note(6, "coset reduction preserves evaluation and electric length "
            "on 10^4 sampled words")


def test_criterion_07_cusp_closed_form_vs_dijkstra(z_cusp):
    t0 = time.monotonic()
    params, ball, cx, pos = z_cusp
    n_base = len(ball)
    rows = {}  # one full distance row per source

    def check_pair(u, v):
        bu, iu = cx.keys[u]
        bv, iv = cx.keys[v]
        want_l = abs(pos[bu] - pos[bv])
        want, depth = geodesic_length_closed_form(want_l, iu, iv, params)
        if u not in rows:
            rows[u] = distance_row(cx.adj, u)
        assert abs(rows[u][v] - want) < 1e-9, (cx.keys[u], cx.keys[v])
        if want_l > 0:
            opt = optimal_depth(want_l, params)
            clamped = min(max(opt, max(iu, iv)), params.depth_cap)
            assert abs(depth - clamped) <= 1.0

    for b in range(n_base):
        for b2 in range(b + 1, n_base):
            check_pair(cx.ids[b, 0], cx.ids[b2, 0])
    rng = random.Random(7)
    for _ in range(500):
        check_pair(*rng.sample(range(len(cx)), 2))
    dt = time.monotonic() - t0
    assert dt < 60.0
    note(7, f"closed form == Dijkstra on all depth-0 pairs + 500 mixed "
            f"in {dt:.1f}s")


def test_criterion_08_geodesic_decomposition(z_cusp):
    params, _, cx, _ = z_cusp
    rng = random.Random(8)
    bound = level_bound(params)
    rows = DistanceRows(cx.adj)
    checked = 0
    for _ in range(300):
        u, v = rng.sample(range(len(cx)), 2)
        # the smallest-id tight walk back over u's full distance row
        path = rows.path(u, v)
        depths = [cx.depth[x] for x in path]
        dec = decompose_geodesic(depths)
        assert dec, depths
        level_depth = max(depths)
        if dec.level and level_depth < params.depth_cap:
            # one-edge slack on top of the 2*omega*psi level bound
            length = dec.level * params.horizontal_length(level_depth)
            assert length <= bound + params.horizontal_length(level_depth) \
                + 1e-9, depths
        checked += 1
    assert checked == 300
    note(8, "300 Dijkstra geodesics decompose; level parts within bound")


def test_criterion_09_hyperbolicity_constant(z_cusp):
    t0 = time.monotonic()
    params, ball, cx, _ = z_cusp
    bound = delta_constant(params) + 2.0
    assert bound == pytest.approx(6.963457252632055, abs=1e-9)
    lifts = [cx.lift(sigma) for sigma in inversion_automorphisms(ball)]
    delta_hat = measure_thinness(cx.adj, 2000, seed=9, automorphisms=lifts)
    assert 0.0 < delta_hat <= bound
    # trees are 0-thin: a star with legs, and a bare path
    star = [[(1, 1.0)], [(0, 1.0), (2, 1.0), (3, 1.0)],
            [(1, 1.0)], [(1, 1.0), (4, 1.0)], [(3, 1.0)]]
    assert measure_thinness(star, 2000, seed=9) == 0.0
    dt = time.monotonic() - t0
    assert dt < 300.0
    note(9, f"delta-hat {delta_hat:.3f} <= {bound:.3f} at 2000 triples; "
            f"trees 0 in {dt:.1f}s")


def test_criterion_10_hyp2_sweeps():
    t0 = time.monotonic()
    for big_c in (0.5, 1.0, 2.0):
        start = 2.0 * big_c + math.log(16.0)
        for j in range(101):
            ok, _ = ideal_midpoint_check(start + 0.1 * j, big_c)
            assert ok
    for ui in range(1, 46):
        for ti in range(1, 16):
            _, ok, _ = right_triangle_gap(1.0 + 0.2 * ui,
                                       math.pi / 2.0 * ti / 16.0)
            assert ok
    assert tangent_projection_diameter(1.0, -1.0, 1.0) \
        == pytest.approx(2.0, abs=1e-6)
    dt = time.monotonic() - t0
    assert dt < 10.0
    note(10, f"midpoint/right-triangle sweeps and tangent diameter 2 "
             f"in {dt:.2f}s")


def test_criterion_11_snf_random():
    t0 = time.monotonic()
    rng = random.Random(11)
    for _ in range(200):
        a = IntMatrix.from_rows(
            [[rng.randrange(-9, 10) for _ in range(6)] for _ in range(6)])
        u, d, v = snf(a)
        assert (u @ d) @ v == a
        assert abs(u.det()) == 1
        assert abs(v.det()) == 1
        diag = [d.entries[i][i] for i in range(6)]
        assert all(x >= 0 for x in diag)
        for i in range(5):
            assert d.entries[i][i + 1] == 0 and d.entries[i + 1][i] == 0
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
    dt = time.monotonic() - t0
    assert dt < 30.0
    note(11, f"200 random 6x6 SNF round-trips, unimodular, divisible "
             f"in {dt:.1f}s")


def test_criterion_12_surgery_pipeline():
    rng = random.Random(12)
    # worked example first
    wf = wishful_fillings([[0, 1], [-1, 0]], 100)
    assert [str(r) for r in wf.ratios] == ["100", "-1/100"]
    assert wf.min_norm == 10001
    done = 0
    while done < 50:
        n = rng.randrange(2, 5)
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                entries[i][j] = rng.randrange(-5, 6)
                entries[j][i] = -entries[i][j]
        try:
            wf = wishful_fillings(entries, 101)
        except ValueError:
            continue
        k = LinkingMatrix(n, tuple(tuple(r) for r in entries))
        fillings = list(wf.fillings)
        nullity, _ = filling_nullity_certificate(
            filling_matrix(k, fillings).rows)
        assert nullity >= 1
        rank_bound, _ = h1_presentation(k, fillings)
        m = 0
        assert rank_bound - m == nullity
        done += 1
    done = 0
    while done < 50:
        nr = rng.randrange(2, 5)
        nc = nr + 1
        # first n-1 rows of a random skew linking block
        full = [[0] * nc for _ in range(nc)]
        for i in range(nc):
            for j in range(i + 1, nc):
                full[i][j] = rng.randrange(-4, 5)
                full[j][i] = -full[i][j]
        rows = full[:nr]
        if all(r[-1] == 0 for r in rows):
            continue
        try:
            res = surgery_solve(rows)
        except ValueError:
            continue
        assert res.nullity >= 1
        done += 1
    note(12, "100 surgery/wishful instances certify nullity >= 1 and the "
             "rank identity; worked example 100, -1/100, 10001")


def test_criterion_13_bcp_scan_tree(rp_f2):
    t0 = time.monotonic()
    ball = build_ball(rp_f2.base, 6)
    scan = bcp_scan(ball, rp_f2, 200, seed=13)
    assert scan["pairs"] + scan["skipped"] == 200
    constant = max(scan["max_entry_gap"], scan["max_exit_gap"],
                   scan["max_unilateral_travel"])
    assert constant <= 2
    control = bcp_scan(ball, rp_f2, 200, seed=13, identical=True)
    assert max(control["max_entry_gap"], control["max_exit_gap"],
               control["max_unilateral_travel"]) == 0
    dt = time.monotonic() - t0
    assert dt < 60.0
    note(13, f"BCP constants <= 2 on F2 rel <b> over 200 pairs, control 0 "
             f"in {dt:.1f}s")


def test_criterion_14_extension(pres_z2, rp_z2):
    ball4 = build_ball(pres_z2, 4)
    # section-derived cocycles satisfy the identity exhaustively ...
    sigma = section_to_cocycle(lambda v: 2 * ball4.length_of(v), ball4)
    ok, witness = cocycle_check(sigma, ball4)
    assert ok and witness is None
    # ... and their spreads stay within the section's defect bound
    report = weakly_bounded_report(sigma, ball4, declared_c=4)
    assert report.within_declared
    assert report.constant <= 4

    def coords(ball):
        table = {}
        for v in range(len(ball)):
            x = y = 0
            for s in ball.words[v]:
                if s // 2 == 0:
                    x += 1 if s % 2 == 0 else -1
                else:
                    y += 1 if s % 2 == 0 else -1
            table[v] = (x, y)
        return table

    reports = []
    for r in (2, 3, 4):
        ball = build_ball(pres_z2, r)
        c = coords(ball)

        def heis(g, h, c=c):
            return c[g][0] * c[h][1]

        okr, _ = cocycle_check(heis, ball)
        assert okr
        reports.append(weakly_bounded_report(heis, ball))
    trend = spread_trend(reports)
    assert trend["unbounded_trend"] is True
    assert trend["constants"] == [1, 2, 3]
    note(14, "cocycle identity exhaustive on B(4); section spread bounded; "
             "Heisenberg spread grows 1,2,3")
