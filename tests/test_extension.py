"""Central extension cocycles over Cayley balls.

Hand-derived anchor: sigma(a, a^-1) = 2 for the word-length section.
"""

import random

import pytest

from relhyp.cayley import build_ball
from relhyp.electric import ParabolicFamily, RelativePresentation
from relhyp.extension import (
    CocycleTable, _product_table, cocycle_check, is_coboundary_table,
    section_to_cocycle, spread_trend, weakly_bounded_report,
)
from relhyp.words import Alphabet, Presentation

from oracle_tools import (
    ball_product, reference_cocycle_witness, reference_is_coboundary, s3_eval,
    z2_eval, zfreez2_eval,
)


def _zero(g, h):
    return 0


@pytest.fixture(scope="module")
def ball_z2_4(pres_z2):
    return build_ball(pres_z2, 4)


@pytest.fixture(scope="module")
def rp_z2(pres_z2):
    b = pres_z2.alphabet.index("b")
    return RelativePresentation(pres_z2, (ParabolicFamily("P", (b,)),))


def _coords(ball):
    """Vertex -> lattice point for the rank-2 abelian ball."""
    out = {}
    for v in range(len(ball)):
        x = y = 0
        for s in ball.words[v]:
            if s == 0:
                x += 1
            elif s == 1:
                x -= 1
            elif s == 2:
                y += 1
            else:
                y -= 1
        out[v] = (x, y)
    return out


def _heisenberg(ball):
    pos = _coords(ball)

    def sigma(g, h):
        return pos[g][0] * pos[h][1]

    return sigma


def test_mul(ball_z2_4):
    a = ball_z2_4.evaluate((0,))
    inv = ball_z2_4.evaluate((1,))
    assert ball_product(ball_z2_4, a, inv) == 0
    assert ball_product(ball_z2_4, 0, a) == a
    far = ball_z2_4.evaluate((0, 0, 0, 0))
    assert ball_product(ball_z2_4, far, far) is None


def test_cocycle_check_zero_and_heisenberg(ball_z2_4):
    assert cocycle_check(_zero, ball_z2_4) == (True, None)
    # the Heisenberg charge is a genuine cocycle too
    ok, witness = cocycle_check(_heisenberg(ball_z2_4), ball_z2_4)
    assert ok and witness is None


def test_cocycle_check_coboundary(ball_z2_4):
    def sigma(g, h):
        gh = ball_product(ball_z2_4, g, h)
        if gh is None:
            return None
        return ball_z2_4.length_of(g) + ball_z2_4.length_of(h) \
            - ball_z2_4.length_of(gh)

    assert cocycle_check(sigma, ball_z2_4) == (True, None)


def test_cocycle_check_finds_violation(ball_z2_4):
    a = ball_z2_4.evaluate((0,))

    def bad(g, h):
        return 1 if (g, h) == (a, a) else 0

    ok, witness = cocycle_check(bad, ball_z2_4)
    assert not ok
    g, h, k = witness
    gh = ball_product(ball_z2_4, g, h)
    hk = ball_product(ball_z2_4, h, k)
    assert bad(g, h) + bad(gh, k) != bad(g, hk) + bad(h, k)


def test_section_to_cocycle_frozen(ball_z2_4):
    zero = section_to_cocycle(lambda v: 0, ball_z2_4)
    assert all(v == 0 for v in zero.table.values())
    n = len(ball_z2_4)
    assert 0 < len(zero.table) < n * n  # boundary products fall outside

    sig = section_to_cocycle(ball_z2_4.length_of, ball_z2_4)
    a = ball_z2_4.evaluate((0,))
    inv = ball_z2_4.evaluate((1,))
    assert sig(a, inv) == 2
    assert cocycle_check(sig, ball_z2_4) == (True, None)

    with pytest.raises(ValueError):
        section_to_cocycle(lambda v: 1, ball_z2_4)


def test_electric_section_vanishes_on_parabolic(ball_z2_4, rp_z2):
    par = rp_z2.families[0].symbols()

    def ehat(v):
        return -2 * sum(1 for s in ball_z2_4.words[v] if s not in par)

    sig = section_to_cocycle(ehat, ball_z2_4)
    b = ball_z2_4.evaluate((2,))
    bb = ball_z2_4.evaluate((2, 2))
    assert sig(b, b) == 0 and sig(b, bb) == 0
    a = ball_z2_4.evaluate((0,))
    inv = ball_z2_4.evaluate((1,))
    assert sig(a, inv) == -4  # (-2) + (-2) - 0


def test_weakly_bounded_zero(ball_z2_4):
    rep = weakly_bounded_report(_zero, ball_z2_4)
    assert rep.constant == 0
    assert all(v == 0 for v in rep.right.values())
    assert all(v == 0 for v in rep.left.values())


def test_weakly_bounded_heisenberg_trend(pres_z2):
    reports = []
    for radius in (2, 3, 4):
        ball = build_ball(pres_z2, radius)
        reports.append(weakly_bounded_report(_heisenberg(ball), ball))
    # spread of sigma(g, b) is max |x_g| over g with g*b still inside,
    # so radius - 1
    assert reports[1].right[2] == 2
    trend = spread_trend(reports)
    assert trend["unbounded_trend"]
    assert trend["constants"] == sorted(trend["constants"])


def test_weakly_bounded_section_within_declared(ball_z2_4, rp_z2):
    par = rp_z2.families[0].symbols()

    def ehat(v):
        return -2 * sum(1 for s in ball_z2_4.words[v] if s not in par)

    sig = section_to_cocycle(ehat, ball_z2_4)
    rep = weakly_bounded_report(sig, ball_z2_4, declared_c=4)
    assert rep.within_declared
    assert rep.constant <= 4


def test_coboundary_recovery(pres_z2):
    ball = build_ball(pres_z2, 3)
    sig = section_to_cocycle(ball.length_of, ball)
    # any section with rho(1) = 0 will do: a seeded table
    rng = random.Random(29)
    rho = [0] + [rng.randint(-5, 5) for _ in range(1, len(ball))]
    dsig = section_to_cocycle(rho.__getitem__, ball)

    def diff(g, h):
        a, b = sig(g, h), dsig(g, h)
        if a is None or b is None:
            return None
        return a - b

    ok, f = is_coboundary_table(diff, ball)
    assert ok
    for (g, h), v in sig.table.items():
        gh = ball_product(ball, g, h)
        assert f[g] + f[h] - f[gh] == v - dsig(g, h)


def test_heisenberg_not_coboundary(pres_z2):
    ball = build_ball(pres_z2, 3)
    ok, _ = is_coboundary_table(_heisenberg(ball), ball)
    assert not ok


def test_cocycle_table_call():
    t = CocycleTable({(0, 1): 5})
    assert t(0, 1) == 5
    assert t(1, 0) is None


def _pres(gens, relators):
    alpha = Alphabet(list(gens))
    return Presentation(alpha, tuple(alpha.parse(r) for r in relators))


Z3 = ("abc", ("abAB", "acAC", "bcBC"))


def _exponents(ball, v):
    """Exponent sum of each generator in the word of v."""
    vec = [0] * len(ball.presentation.alphabet.generators)
    for s in ball.words[v]:
        vec[s >> 1] += -1 if s & 1 else 1
    return vec


@pytest.mark.parametrize("gens, relators, radius", [
    ("a", (), 3), ("ab", ("abAB",), 2), (*Z3, 2), ("ab", (), 2),
])
def test_coboundary_matches_dense_reference(gens, relators, radius):
    ball = build_ball(_pres(gens, relators), radius)
    n = len(ball)
    rng = random.Random(f"{gens}:{radius}")
    pairs = [(g, h, ball_product(ball, g, h))
             for g in range(n) for h in range(n)]
    pairs = [(g, h, gh) for g, h, gh in pairs if gh is not None]
    exps = [_exponents(ball, v) for v in range(n)]
    y = 1 if len(gens) > 1 else 0

    def section():
        # the coboundary of any rho, so tau(1, h) = rho(1) may be nonzero
        rho = [rng.randint(-3, 3) for _ in range(n)]
        return {(g, h): rho[g] + rho[h] - rho[gh] for g, h, gh in pairs}

    # Heisenberg charge x(g) * y(h); on Z it is x(g) * x(h), the
    # coboundary of -x^2 / 2, which needs a rational f
    heis = {(g, h): exps[g][0] * exps[h][y] for g, h, _ in pairs}
    tables = [heis, section(), section()]
    for keep, base in ((0.8, heis), (0.8, section()), (0.5, section())):
        # deleted pairs leave some tree pairs undefined
        tables.append({k: v for k, v in base.items() if rng.random() < keep})
    tables[-1].pop((0, 0), None)  # f(identity) becomes an unknown
    for _ in range(3):
        bumped = section()
        key = rng.choice(sorted(bumped))
        bumped[key] += rng.choice((-1, 1))
        tables.append(bumped)
    verdicts = set()
    for i, table in enumerate(tables):
        tau = CocycleTable(table)
        ok, f = is_coboundary_table(tau, ball)
        assert ok == reference_is_coboundary(tau, ball)[0], i
        verdicts.add(ok)
        if ok:
            for g, h, gh in pairs:
                if (g, h) in table:
                    assert f[g] + f[h] - f[gh] == table[g, h], (i, g, h)
    assert verdicts == {True, False}


@pytest.mark.parametrize("gens, relators, radius", [
    ("ab", ("abAB",), 4), (*Z3, 2), ("ab", (), 3), ("a", (), 6),
])
def test_product_table_matches_mul(gens, relators, radius):
    ball = build_ball(_pres(gens, relators), radius)
    prod = _product_table(ball)
    n = len(ball)
    assert [len(row) for row in prod] == [n] * n
    for g in range(n):
        for h in range(n):
            assert prod[g][h] == ball_product(ball, g, h), (g, h)


# group, presentation, radius, independent evaluator, and the number of
# counted triples whose product g*(hk) leaves the ball along hk's word
PARITY_GROUPS = {
    "z2": (("ab", ("abAB",)), 3, z2_eval, 88),
    # two transpositions: the radius-2 ball misses aba
    "s3": (("ab", ("aa", "bb", "ababab")), 2,
           lambda w: s3_eval(w.translate({ord("b"): "ab", ord("B"): "BA"})),
           0),
    # a transposition and a 3-cycle: the radius-2 ball is the whole group
    "s3-whole": (("ab", ("aa", "bbb", "abab")), 2, s3_eval, 0),
    "zfz2": (("abc", ("bcBC",)), 2, zfreez2_eval, 52),
}


@pytest.mark.parametrize("name", sorted(PARITY_GROUPS))
def test_cocycle_check_witness_matches_brute_force(name):
    (gens, relators), radius, evaluate, detours = PARITY_GROUPS[name]
    ball = build_ball(_pres(gens, relators), radius)
    n = len(ball)
    rng = random.Random(name)
    alphabet = ball.presentation.alphabet
    elem = [evaluate(alphabet.to_str(w)) for w in ball.words]
    prod = {(g, h): ball_product(ball, g, h)
            for g in range(n) for h in range(n)}
    # the coboundary of a seeded rho on group elements: a cocycle on all
    # pairs, including those whose product leaves the ball
    rho = {}

    def r(x):
        return rho.setdefault(x, rng.randint(-3, 3))

    full = {(g, h): r(elem[g]) + r(elem[h])
            - r(evaluate(alphabet.to_str(ball.words[g] + ball.words[h])))
            for g in range(n) for h in range(n)}
    inside = {k: v for k, v in full.items() if prod[k] is not None}
    outside = sorted(set(full) - set(inside))

    def partial(keep, junk, bumps):
        t = {k: v for k, v in inside.items() if rng.random() < keep}
        for k in outside:
            if rng.random() < junk:
                t[k] = rng.randint(-2, 2)
        for k in rng.sample(sorted(t), bumps):
            t[k] += rng.choice((-1, 1))
        return t

    tables = [inside, full, partial(0.8, 0.0, 0), partial(1.0, 0.0, 1),
              partial(0.7, 0.0, 1), partial(0.9, 0.5, 0),
              partial(0.6, 0.3, 2), partial(1.0, 1.0, 1)]
    # triples the scan counts though g*(hk) leaves the ball along hk's word
    detour = [(g, h, k) for (g, h), gh in prod.items() if gh is not None
              for k in range(n) if prod[h, k] is not None
              and prod[gh, k] is not None and prod[g, prod[h, k]] is None]
    assert len(detour) == detours
    verdicts = []
    for i, table in enumerate(tables):
        sigma = CocycleTable(table)
        witness = reference_cocycle_witness(sigma, ball)
        assert cocycle_check(sigma, ball) == (witness is None, witness), i
        verdicts.append(witness is None)
    assert verdicts[:2] == [True, True] and False in verdicts
    if detour:
        # sigma(g, hk) wrong at the first of them, on a pair whose product
        # leaves the ball, so every failing triple is one of them
        g, h, k = detour[0]
        bad = dict(full)
        bad[g, prod[h, k]] += 1
        sigma = CocycleTable(bad)
        witness = reference_cocycle_witness(sigma, ball)
        assert witness in detour
        assert cocycle_check(sigma, ball) == (False, witness)
