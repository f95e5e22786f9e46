"""Coset penetration, electric geodesics and electric area.

Expected numbers were computed independently in oracle_tools.py (lattice
coset runs, shoelace areas) before this module existed, then frozen here.
"""

import random
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relhyp.cayley import build_ball, least_costs, sphere_sizes
from relhyp.electric import (
    ParabolicFamily, RelativePresentation, _canonical_splice, _family_ball,
    _first_nongeodesic_segment, bcp_scan, coset_reduce, coset_table,
    electric_area_exact, electric_area_upper, electric_geodesic,
    electric_length, penetrations,
)
from relhyp.words import (
    Alphabet, Presentation, free_reduce, relator_forms, word_inverse,
)

from oracle_tools import (
    reference_bcp_scan, reference_canonicalize,
    reference_electric_area_exact, reference_is_k_local,
)


@pytest.fixture(scope="module")
def rp_z2(pres_z2):
    b_index = pres_z2.alphabet.index("b")
    return RelativePresentation(pres_z2, (ParabolicFamily("P", (b_index,)),))


@pytest.fixture(scope="module")
def rp_f2(pres_f2):
    b_index = pres_f2.alphabet.index("b")
    return RelativePresentation(pres_f2, (ParabolicFamily("P", (b_index,)),))


@pytest.fixture(scope="module")
def rp_z3():
    # Z^3 relative to <b> and <c>: two parabolic families
    alpha = Alphabet(["a", "b", "c"])
    pres = Presentation(alpha, tuple(alpha.parse(t)
                                     for t in ("abAB", "acAC", "bcBC")))
    return RelativePresentation(pres, (
        ParabolicFamily("P", (alpha.index("b"),)),
        ParabolicFamily("Q", (alpha.index("c"),))))


@pytest.fixture(scope="module")
def ball_z3_6(rp_z3):
    return build_ball(rp_z3.base, 6)


@pytest.fixture(scope="module")
def ball_z2_6(pres_z2):
    return build_ball(pres_z2, 6)


@pytest.fixture(scope="module")
def ball_f2_8(pres_f2):
    return build_ball(pres_f2, 8)


def test_relative_presentation_validation(pres_z2, pres_f2):
    b = pres_z2.alphabet.index("b")
    with pytest.raises(ValueError):
        RelativePresentation(pres_z2, (ParabolicFamily("P", (b + 1,)),))
    with pytest.raises(ValueError):
        RelativePresentation(pres_z2, (ParabolicFamily("P", (b,)),
                                       ParabolicFamily("Q", (b,))))
    with pytest.raises(ValueError):
        RelativePresentation(pres_f2, (ParabolicFamily("P", (b,), ((b, b),)),))
    rp = RelativePresentation(pres_z2, (ParabolicFamily("P", (b,)),))
    assert rp.nonparabolic_relators() == pres_z2.relators


def test_electric_length(rp_z2):
    w = rp_z2.base.alphabet.parse("babA")
    assert electric_length(rp_z2, w) == 2
    assert electric_length(rp_z2, rp_z2.base.alphabet.parse("bbb")) == 0
    assert electric_length(rp_z2, ()) == 0


def test_penetrations_frozen_z2(ball_z2_6, rp_z2):
    # babA crosses the coset of the b-axis, the x=1 coset, and comes back
    w = rp_z2.base.alphabet.parse("babA")
    pens = penetrations(ball_z2_6, rp_z2, w)
    assert [(p.enter, p.leave) for p in pens] == [(0, 1), (2, 3), (4, 4)]
    assert pens[0].coset == pens[2].coset == 0
    assert pens[1].coset != 0


def test_penetrations_frozen_f2(ball_f2_8, rp_f2):
    w = rp_f2.base.alphabet.parse("ab")
    pens = penetrations(ball_f2_8, rp_f2, w)
    assert len(pens) == 2
    assert [(p.enter, p.leave) for p in pens] == [(0, 0), (1, 2)]


def _z2_coset_runs(word, alpha):
    # independent check: cosets of <b> in Z^2 are the x levels
    x = 0
    seq = [0]
    for sym in word:
        name = alpha.to_str((sym,))
        x += {"a": 1, "A": -1}.get(name, 0)
        seq.append(x)
    runs = 1
    for i in range(1, len(seq)):
        if seq[i] != seq[i - 1]:
            runs += 1
    return runs


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=8))
def test_penetration_count_matches_lattice_runs(ball_z2_8_shared, rp_z2_shared, syms):
    w = tuple(syms)
    pens = penetrations(ball_z2_8_shared, rp_z2_shared, w)
    assert len(pens) == _z2_coset_runs(w, rp_z2_shared.base.alphabet)


# hypothesis can't see module fixtures, so share via session-level builds
@pytest.fixture(scope="module")
def ball_z2_8_shared(pres_z2):
    return build_ball(pres_z2, 8)


@pytest.fixture(scope="module")
def rp_z2_shared(pres_z2):
    b_index = pres_z2.alphabet.index("b")
    return RelativePresentation(pres_z2, (ParabolicFamily("P", (b_index,)),))


def test_coset_reduce_frozen(rp_z2):
    alpha = rp_z2.base.alphabet
    assert coset_reduce(rp_z2, alpha.parse("abbBa")) == alpha.parse("aba")
    assert coset_reduce(rp_z2, alpha.parse("abBa")) == alpha.parse("aa")
    # non-parabolic letters are left alone even when they could cancel
    assert coset_reduce(rp_z2, alpha.parse("AbBa")) == alpha.parse("Aa")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=8))
def test_coset_reduce_invariants(ball_z2_8_shared, rp_z2_shared, syms):
    w = tuple(syms)
    red = coset_reduce(rp_z2_shared, w)
    assert electric_length(rp_z2_shared, red) == electric_length(rp_z2_shared, w)
    assert ball_z2_8_shared.evaluate(red) == ball_z2_8_shared.evaluate(w)


def test_electric_distance_is_x_displacement(ball_z2_6, rp_z2):
    alpha = rp_z2.base.alphabet
    cases = [("bbbbb", 0), ("aabbb", 2), ("AAAA", 4), ("", 0)]
    targets = [ball_z2_6.evaluate(alpha.parse(text)) for text, _ in cases]
    assert None not in targets
    costs = {sym: int(rp_z2.family_of_symbol(sym) is None)
             for sym in ball_z2_6.symbol_moves()}
    (dist,) = least_costs(ball_z2_6, costs, [0], targets)
    assert dist == [expect for _, expect in cases]


def test_electric_geodesic_frozen(ball_z2_6, rp_z2):
    alpha = rp_z2.base.alphabet
    v = ball_z2_6.evaluate(alpha.parse("bbbbb"))
    assert electric_geodesic(ball_z2_6, rp_z2, v) == alpha.parse("bbbbb")
    v = ball_z2_6.evaluate(alpha.parse("ab"))
    w = electric_geodesic(ball_z2_6, rp_z2, v)
    assert electric_length(rp_z2, w) == 1
    assert ball_z2_6.evaluate(w) == v


def _is_k_local(ball, rp, word, k):
    return _first_nongeodesic_segment(ball, rp, word, k) is None


def test_k_local_electric_geodesic(ball_z2_6, rp_z2):
    alpha = rp_z2.base.alphabet
    assert _is_k_local(ball_z2_6, rp_z2, alpha.parse("bbbbb"), 3)
    assert _is_k_local(ball_z2_6, rp_z2, alpha.parse("ab"), 2)
    # abbbA closes up in the x direction: el 2 window with distance 0
    assert not _is_k_local(ball_z2_6, rp_z2, alpha.parse("abbbA"), 2)
    # but no window of el <= 1 fails
    assert _is_k_local(ball_z2_6, rp_z2, alpha.parse("abbbA"), 1)


def test_k_local_matches_every_window(ball_z2_8_shared, rp_z2_shared,
                                      ball_z3_6, rp_z3):
    rng = random.Random(11)
    verdicts = set()
    for ball, rp in ((ball_z2_8_shared, rp_z2_shared), (ball_z3_6, rp_z3)):
        nsym = len(rp.base.alphabet.symbols)
        for _ in range(40):
            w = tuple(rng.randrange(nsym)
                      for _ in range(rng.randint(0, ball.radius)))
            for k in (1, 2, 3):
                got = _is_k_local(ball, rp, w, k)
                assert got == reference_is_k_local(ball, rp, w, k), (w, k)
                verdicts.add(got)
    assert verdicts == {True, False}


def _commutator(alpha, n):
    a = alpha.parse("a")
    b = alpha.parse("b") * n
    return free_reduce(a + b + word_inverse(a) + word_inverse(b))


def test_electric_area_exact_frozen(rp_z2):
    # area of [a, b^n] in Z^2 rel <b> equals the enclosed lattice area n
    # (shoelace lower bound computed in oracle_tools.py)
    alpha = rp_z2.base.alphabet
    for n in range(1, 5):
        assert electric_area_exact(rp_z2, _commutator(alpha, n), n + 2) == n
    assert electric_area_exact(rp_z2, (), 3) == 0
    assert electric_area_exact(rp_z2, alpha.parse("bbBB"), 3) == 0
    # not contractible within the insertion budget
    assert electric_area_exact(rp_z2, _commutator(alpha, 4), 2) is None


def test_electric_area_upper_matches_exact(ball_z2_6, rp_z2):
    alpha = rp_z2.base.alphabet
    w = _commutator(alpha, 3)
    got = electric_area_upper(ball_z2_6, rp_z2, w, k=2)
    assert got is not None
    bound, moves = got
    exact = electric_area_exact(rp_z2, w, 6)
    assert exact == 3
    assert exact <= bound <= 3


def test_electric_area_upper_terminal_branch(ball_z2_6, rp_z2):
    # with k = 1 the commutator is 1-locally geodesic and lands in the
    # terminal-loop branch
    alpha = rp_z2.base.alphabet
    w = _commutator(alpha, 2)
    bound, moves = electric_area_upper(ball_z2_6, rp_z2, w, k=1)
    assert bound == 2
    assert [m["op"] for m in moves] == ["terminal-loop"]


def _replay(ball, rp, word, bound, moves):
    """Re-derive the bound from the move list; every step is checked."""
    cur = tuple(word)
    total = 0
    for m in moves:
        if m["op"] == "coset-reduce":
            i, j, rep = m["start"], m["stop"], m["replacement"]
            assert ball.evaluate(cur[i:j]) == ball.evaluate(rep)
            assert electric_length(rp, cur[i:j]) == electric_length(rp, rep)
            cur = cur[:i] + tuple(rep) + cur[j:]
        elif m["op"] == "length-reduce":
            i, j, rep = m["start"], m["stop"], m["replacement"]
            loop = free_reduce(cur[i:j] + word_inverse(rep))
            assert loop == m["loop"]
            assert electric_area_exact(rp, loop, m["cost"] + 1) == m["cost"]
            total += m["cost"]
            cur = cur[:i] + tuple(rep) + cur[j:]
        else:
            assert m["op"] == "terminal-loop"
            assert cur == m["word"]
            assert electric_area_exact(rp, cur, m["cost"] + 1) == m["cost"]
            total += m["cost"]
            cur = ()
    assert cur == ()
    assert total == bound


def test_electric_area_upper_certificate_replays(ball_z2_6, rp_z2):
    alpha = rp_z2.base.alphabet
    for text in ["abbbABBB", "abAB", "abbABBabAB"]:
        w = alpha.parse(text)
        got = electric_area_upper(ball_z2_6, rp_z2, w, k=2)
        assert got is not None
        bound, moves = got
        _replay(ball_z2_6, rp_z2, w, bound, moves)


def test_electric_area_upper_replays_two_family_loops(ball_z3_6, rp_z3):
    alpha = rp_z3.base.alphabet
    rng = random.Random(5)
    ops = set()
    for _ in range(12):
        # a loop of length 6 that uses both parabolic letters
        half = [alpha.index("b"), alpha.index("c"), rng.randrange(6)]
        w = half + [s ^ 1 for s in half]
        rng.shuffle(w)
        w = tuple(w)
        got = electric_area_upper(ball_z3_6, rp_z3, w, k=2)
        assert got is not None
        bound, moves = got
        _replay(ball_z3_6, rp_z3, w, bound, moves)
        exact = electric_area_exact(rp_z3, w, bound)
        assert exact is not None and exact <= bound
        ops.update(m["op"] for m in moves)
    assert ops == {"coset-reduce", "length-reduce", "terminal-loop"}


def test_electric_area_upper_rejects_nonloops(ball_z2_6, rp_z2):
    with pytest.raises(ValueError):
        electric_area_upper(ball_z2_6, rp_z2, rp_z2.base.alphabet.parse("ab"), 2)


def test_coset_table_groups_b_lines(ball_z2_6, rp_z2):
    table = coset_table(ball_z2_6, rp_z2)[0]
    alpha = rp_z2.base.alphabet
    same = [alpha.parse(t) for t in ["", "b", "bb", "B"]]
    ids = {table[ball_z2_6.evaluate(w)] for w in same}
    assert ids == {0}
    other = table[ball_z2_6.evaluate(alpha.parse("ab"))]
    assert other == table[ball_z2_6.evaluate(alpha.parse("a"))]
    assert other != 0


def test_bcp_scan_f2(ball_f2_8, rp_f2):
    report = bcp_scan(ball_f2_8, rp_f2, samples=200, seed=7)
    assert report["pairs"] + report["skipped"] == 200
    assert report["skipped"] == 0
    assert report["max_entry_gap"] <= 2
    assert report["max_exit_gap"] <= 2
    assert report["max_unilateral_travel"] <= 2


def test_bcp_scan_identical_control(ball_f2_8, rp_f2):
    report = bcp_scan(ball_f2_8, rp_f2, samples=50, seed=7, identical=True)
    assert report["max_entry_gap"] == 0
    assert report["max_exit_gap"] == 0
    assert report["max_unilateral_travel"] == 0


def test_bcp_scan_deterministic(ball_f2_8, rp_f2):
    a = bcp_scan(ball_f2_8, rp_f2, samples=60, seed=3)
    b = bcp_scan(ball_f2_8, rp_f2, samples=60, seed=3)
    assert a == b


@pytest.fixture(scope="module")
def bcp_cases(pres_f2, pres_z2, rp_f2, rp_z2):
    """F2 rel <b> at radius 6 and Z^2 rel <b> at radius 5."""
    return ((build_ball(pres_f2, 6), rp_f2), (build_ball(pres_z2, 5), rp_z2))


def test_bcp_scan_matches_per_sample_reference(bcp_cases):
    # 1500 draws over a few hundred distinct pairs: most pairs repeat
    for ball, rp in bcp_cases:
        for seed in (1, 2, 3):
            for identical in (False, True):
                got = bcp_scan(ball, rp, 1500, seed, identical=identical)
                assert got == reference_bcp_scan(ball, rp, 1500, seed,
                                                 identical=identical)


def test_bcp_scan_keeps_partial_maxima_of_failed_pairs(bcp_cases,
                                                       monkeypatch):
    # no shipped group leaves the ball's certificate, so refuse chosen
    # vertex pairs instead.  A failed pair counts as skipped and still adds
    # the maxima of the cosets scanned before the refusal.
    import relhyp.electric as electric
    real = electric.distance

    def refuse_where(rule):
        monkeypatch.setattr(
            electric, "distance",
            lambda ball, g, h: None if rule(g, h) else real(ball, g, h))

    # some pairs fail, some pass
    refuse_where(lambda g, h: (g + 2 * h) % 7 == 3)
    for ball, rp in bcp_cases:
        for seed in (4, 5):
            got = bcp_scan(ball, rp, 800, seed)
            assert got == reference_bcp_scan(ball, rp, 800, seed)
            assert got["skipped"] > 0 and got["pairs"] > 0
    # every pair fails at the trivial coset's entry, d(1, 1), so each
    # positive maximum comes from cosets scanned before it
    refuse_where(lambda g, h: g == h and g % 2 == 0)
    for ball, rp in bcp_cases:
        got = bcp_scan(ball, rp, 300, 4)
        assert got == reference_bcp_scan(ball, rp, 300, 4)
        assert got["pairs"] == 0 and got["max_exit_gap"] > 0


def test_bcp_scan_walks_each_vertex_once(bcp_cases, monkeypatch):
    import relhyp.electric as electric
    real = electric.penetrations
    words = []

    def counted(ball, rp, word, table=None):
        words.append(word)
        return real(ball, rp, word, table)

    monkeypatch.setattr(electric, "penetrations", counted)
    ball, rp = bcp_cases[0]
    bcp_scan(ball, rp, 2000, 6)
    # tree words of distinct vertices are distinct
    assert len(words) == len(set(words))
    assert len(words) < 2000


# ---------------------------------------------------------------------------
# free-product normal forms and the area search against the references that
# re-normalise whole words until nothing changes

def _relative(gens, relators, families):
    alpha = Alphabet(list(gens))
    pres = Presentation(alpha, tuple(alpha.parse(r) for r in relators))
    return RelativePresentation(pres, tuple(
        ParabolicFamily(name, tuple(alpha.index(g) for g in fam_gens),
                        tuple(alpha.parse(r) for r in fam_rels))
        for name, fam_gens, fam_rels in families))


RELATIVE_CASES = {
    "z2-rel-b": lambda: _relative("ab", ["abAB"], [("P", "b", [])]),
    "f2-rel-b": lambda: _relative("ab", [], [("P", "b", [])]),
    "z3-rel-b-c": lambda: _relative("abc", ["abAB", "acAC", "bcBC"],
                                    [("P", "b", []), ("Q", "c", [])]),
    # the first case whose family has a relator: its ball grows mid-syllable
    "z3-rel-bc": lambda: _relative("abc", ["abAB", "acAC", "bcBC"],
                                   [("P", "bc", ["bcBC"])]),
    # the paper's first example, Z * Z^2 relative to Z^2
    "zfz2-rel-z2": lambda: _relative("abc", ["bcBC"], [("P", "bc", ["bcBC"])]),
}


def _random_word(rng, nsym, max_len):
    return tuple(rng.randrange(nsym) for _ in range(rng.randint(0, max_len)))


def _longest_syllable(rp, word):
    return max((len(list(run)) for f, run in groupby(word, rp.family_of_symbol)
                if f is not None), default=0)


def test_family_ball_is_the_quotient_ball():
    # Z * Z^2 rel Z^2: killing a leaves Z^2 on b and c
    rp = RELATIVE_CASES["zfz2-rel-z2"]()
    alpha = rp.base.alphabet
    ball = _family_ball(rp, 0, 4)
    assert sphere_sizes(ball) == [1, 4, 8, 12, 16]
    # each word is its point's l1 geodesic in b, c coordinates
    points = set()
    for w in ball.words:
        assert set(alpha.to_str(w)) <= set("bBcC")
        x = w.count(alpha.index("b")) - w.count(alpha.index("B"))
        y = w.count(alpha.index("c")) - w.count(alpha.index("C"))
        assert len(w) == abs(x) + abs(y)
        points.add((x, y))
    assert len(points) == len(ball)
    outside = alpha.parse("aA")
    assert all(row[s] == v for v, row in enumerate(ball.edges)
               for s in outside)


@pytest.mark.parametrize("case", sorted(RELATIVE_CASES))
def test_normal_form_matches_reference_on_random_words(case):
    rp = RELATIVE_CASES[case]()
    rng = random.Random(8)
    nsym = len(rp.base.alphabet.symbols)
    longest = 0
    for _ in range(300):
        w = _random_word(rng, nsym, 18)
        want = reference_canonicalize(rp, w, {})
        # a fresh presentation makes every long syllable grow its family
        # ball; rp keeps the balls earlier words grew
        assert _canonical_splice(RELATIVE_CASES[case](), (), w, ()) == want, w
        assert _canonical_splice(rp, (), w, ()) == want, w
        longest = max(longest, _longest_syllable(rp, want))
    # syllables long enough that a fresh presentation grows its family
    # ball while walking them
    assert longest >= 4


@pytest.mark.parametrize("case", sorted(RELATIVE_CASES))
def test_every_single_insertion_matches_reference(case):
    rp = RELATIVE_CASES[case]()
    rng = random.Random(9)
    nsym = len(rp.base.alphabet.symbols)
    forms = relator_forms(rp.base.relators)
    ref_cache = {}
    spliced = into_left = into_right = 0
    for _ in range(40):
        word = reference_canonicalize(rp, _random_word(rng, nsym, 12), ref_cache)
        middles = forms + tuple(_random_word(rng, nsym, 5) for _ in range(4))
        for pos in range(len(word) + 1):
            left, right = word[:pos], word[pos:]
            for middle in middles:
                got = _canonical_splice(rp, left, middle, right)
                want = reference_canonicalize(rp, left + middle + right,
                                              ref_cache)
                assert got == want, (word, pos, middle)
                spliced += 1
                # the seam reduced into the letters on either side
                into_left += want[:len(left)] != left
                into_right += bool(right) and want[-len(right):] != right
    assert spliced > 500 and into_left > 50 and into_right > 50


def _random_loop(rng, rp, max_half):
    # every case with non-parabolic relators is abelian, so a word times
    # the inverse of any rearrangement of it is a loop
    half = list(_random_word(rng, len(rp.base.alphabet.symbols), max_half))
    other = half[:]
    rng.shuffle(other)
    return free_reduce(tuple(half) + word_inverse(tuple(other)))


@pytest.mark.parametrize("case", ["z2-rel-b", "z3-rel-b-c", "z3-rel-bc"])
def test_electric_area_exact_matches_reference(case):
    rp = RELATIVE_CASES[case]()
    rng = random.Random(10)
    outcomes = set()
    budget_bites = 0
    for _ in range(12):
        loop = _random_loop(rng, rp, 4)
        for n_max in (1, 2, 4):
            full = reference_electric_area_exact(rp, loop, n_max)
            assert electric_area_exact(rp, loop, n_max) == full, (loop, n_max)
            outcomes.add(full is None)
            for node_budget in (20, 300):
                want = reference_electric_area_exact(rp, loop, n_max,
                                                     node_budget)
                got = electric_area_exact(rp, loop, n_max, node_budget)
                assert got == want, (loop, n_max, node_budget)
                budget_bites += want != full
    assert outcomes == {True, False}
    assert budget_bites > 0


def test_electric_area_exact_needs_nonparabolic_relators():
    rp = RELATIVE_CASES["f2-rel-b"]()
    word = rp.base.alphabet.parse("abAB")
    for area in (electric_area_exact, reference_electric_area_exact):
        with pytest.raises(ValueError):
            area(rp, word, 3)
