"""Additive heights and the deficit-state acceptor.

The hand-traced deficit vectors and kernel entries for the one-generator
group were frozen in oracle_tools.py before this module was written.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relhyp.automata import Dfa, dfa_run, language_equal, live_states, minimize, prefix_closed
from relhyp.cayley import build_ball, least_costs
from relhyp.electric import ParabolicFamily, RelativePresentation
from relhyp.fftp import (
    HeightFunction, _Thermometer, ball_b_delta, build_fftp_automaton,
    neg_electric_height, neg_length_height, transition_kernel,
)
from relhyp.words import Alphabet, Presentation, word_inverse

from oracle_tools import (
    maximizing_words_bruteforce, reference_build_fftp_automaton,
    reference_kernel, reference_min_plus_step,
)


@pytest.fixture(scope="module")
def ball_z4(pres_z):
    return build_ball(pres_z, 4)


@pytest.fixture(scope="module")
def ball_z2_6(pres_z2):
    return build_ball(pres_z2, 6)


@pytest.fixture(scope="module")
def ball_f2_3(pres_f2):
    return build_ball(pres_f2, 3)


def test_ball_b_delta(ball_z2_6, ball_f2_3):
    assert ball_b_delta(ball_z2_6, 1) == 5
    assert [len(z) for z in ball_z2_6.words[:6]] == [0, 1, 1, 1, 1, 2]
    assert ball_b_delta(ball_f2_3, 2) == 17
    assert ball_b_delta(ball_f2_3, 3) == len(ball_f2_3)
    assert ball_b_delta(ball_f2_3, 0) == 1
    with pytest.raises(ValueError):
        ball_b_delta(ball_f2_3, 9)


def test_kernel_frozen_z(ball_z4, pres_z):
    h = neg_length_height(pres_z.alphabet)
    kern = transition_kernel(ball_z4, 1, h)
    a = pres_z.alphabet.index("a")
    ia, i1 = ball_z4.evaluate((a,)), 0
    # through the doubled 1-ball: T[a][a][1] via the word aa, T[a][1][1]
    # via the single letter
    assert kern["table"][a][ia][i1] == 0
    assert kern["table"][a][i1][i1] == 0


def test_kernel_preconditions(ball_z4, pres_z):
    h = neg_length_height(pres_z.alphabet)
    with pytest.raises(ValueError):
        transition_kernel(ball_z4, 0, h)
    with pytest.raises(ValueError):
        transition_kernel(ball_z4, 4, h)  # needs radius >= delta + 1
    # a height the kernel has no path for cannot be built
    with pytest.raises(ValueError, match="symbol 1"):
        HeightFunction({0: -1, 1: 1})


def test_kernel_rejects_other_heights():
    # a positive letter value anywhere is refused at construction
    for values in ({0: 1, 1: -1}, {0: -1, 1: 2}, {0: 0, 1: 0, 2: 3}):
        with pytest.raises(ValueError, match="nonpositive"):
            HeightFunction(values)


def test_height_is_sum_of_letter_values(pres_z2):
    h = HeightFunction({0: -3, 1: 0, 2: -1, 3: -1})
    assert h(()) == 0
    assert h((0, 1, 2, 0)) == -7
    assert h.K == 4
    assert neg_length_height(pres_z2.alphabet).K == 2
    b = pres_z2.alphabet.index("b")
    rp = RelativePresentation(pres_z2, (ParabolicFamily("P", (b,)),))
    assert neg_electric_height(rp).K == 2
    assert neg_electric_height(rp)((0, b, b, 1)) == -2


def _element_height(alphabet):
    # all-zero letter values: every word is maximizing
    return HeightFunction({s: 0 for s in range(len(alphabet.symbols))})


def _height(pres, spec):
    """A height from a spec: "length", "element", a string of parabolic
    letters (electric height), or a dict of letter values by letter name."""
    if spec == "length":
        return neg_length_height(pres.alphabet)
    if spec == "element":
        return _element_height(pres.alphabet)
    if isinstance(spec, dict):
        return HeightFunction({pres.alphabet.index(c): v
                               for c, v in spec.items()})
    family = ParabolicFamily("P", tuple(pres.alphabet.index(c) for c in spec))
    return neg_electric_height(RelativePresentation(pres, (family,)))


# letter costs above 1 (several levels per step) and of 0 (a closure inside
# each level); the shipped heights only cost 0 or 1
MIXED = ({"a": -3, "A": -3, "b": -1, "B": -1},
         {"a": -2, "A": -2, "b": 0, "B": 0})
S3 = ("aa", "bbb", "abab")
Z3XZ = ("aaa", "abAB")
D5 = ("aaaaa", "bb", "abab")
ZFREEZ2 = ("bcBC",)  # Z * Z^2, the Z^2 on b and c


def _asymmetric(gens):
    """Letter values that score a letter and its inverse apart, so the
    kernel sweeps each letter pair twice."""
    values = {"a": -2, "A": -1, "b": 0, "B": -1, "c": -1, "C": 0}
    return {c: v for c, v in values.items() if c.lower() in gens}


def test_kernel_matches_pairwise_reference():
    # (generators, relators, height spec, deltas)
    cases = [
        ("a", (), "length", (3,)),
        ("ab", ("abAB",), "length", (2,)),
        ("abc", ("abAB", "acAC", "bcBC"), "length", (2,)),
        ("ab", (), "length", (3,)),
        ("ab", (), "b", (2,)),
        ("ab", ("abAB",), "b", (3,)),
        ("ab", ("abAB",), "element", (2,)),
        ("ab", S3, "length", (1, 2)),
        ("ab", Z3XZ, "length", (1, 2)),
        ("ab", S3, "b", (1, 2)),
        ("ab", Z3XZ, "a", (1, 2)),
    ] + [(gens, relators, values, (1, 2))
         for gens, relators in (("ab", ()), ("ab", ("abAB",)), ("ab", S3),
                                ("ab", Z3XZ))
         for values in MIXED] + [
        # Z * Z^2 stops at delta 2: the reference takes 33 s at delta 3
        (gens, relators, _asymmetric(gens), deltas)
        for gens, relators, deltas in (
            ("ab", ("abAB",), (1, 2, 3)), ("ab", S3, (1, 2, 3)),
            ("ab", D5, (1, 2, 3)), ("abc", ZFREEZ2, (1, 2)))]
    for gens, relators, spec, deltas in cases:
        pres = _presentation(gens, relators)
        h = _height(pres, spec)
        for delta in deltas:
            ball = build_ball(pres, delta + 1)
            case = (gens, relators, spec, delta)
            ref = reference_kernel(ball, delta, h)
            assert transition_kernel(ball, delta, h) == ref, case
            top = 2 * h.K * delta
            init = tuple(min(v, top) for v in ref["initial"])
            assert build_fftp_automaton(ball, delta, h).state_vectors[0] \
                == init, case


def test_least_costs_transpose_for_inverse_letters():
    # C_c[x^-1] is the transpose of C_cbar[x], where C_c[x][g][h] is the
    # least c-cost from z_g^-1 to x z_h^-1 inside the delta-balls at 1
    # and x, and cbar(s) = c(s^-1); costs 0-3 drawn per letter
    rng = random.Random(5)
    groups = [("ab", ()), ("ab", ("abAB",)), ("ab", S3), ("ab", D5),
              ("ab", Z3XZ), ("abc", ZFREEZ2)]
    for trial in range(48):
        gens, relators = groups[trial % len(groups)]
        pres = _presentation(gens, relators)
        delta = rng.choice((1, 2))
        ball = build_ball(pres, delta + 1)
        nsym = len(pres.alphabet.symbols)
        costs = {s: rng.randint(0, 3) for s in range(nsym)}
        flipped = {s ^ 1: c for s, c in costs.items()}
        order = range(ball_b_delta(ball, delta))
        zwords = [ball.words[v] for v in order]
        sources = [ball.evaluate(word_inverse(z)) for z in zwords]

        def matrix(x, cost):
            allowed = set(order) | {ball.evaluate((x,) + z) for z in zwords}
            targets = [ball.evaluate((x,) + word_inverse(z)) for z in zwords]
            return least_costs(ball, cost, sources, targets, allowed)

        for x in range(0, nsym, 2):
            assert matrix(x ^ 1, costs) == \
                [list(col) for col in zip(*matrix(x, flipped))], \
                (gens, relators, delta, costs, x)


def test_kernel_names_a_missing_letter(pres_z):
    # a height without a value for A: refused before any search runs
    with pytest.raises(ValueError, match=r"symbol 1 \(A\)"):
        build_fftp_automaton(build_ball(pres_z, 3), 2, HeightFunction({0: -1}))


def test_automaton_z_frozen_trace(ball_z4, pres_z):
    h = neg_length_height(pres_z.alphabet)
    dfa = build_fftp_automaton(ball_z4, 2, h)
    # deficit vector of the empty word over (1, a, A, aa, AA)
    assert dfa.state_vectors[0] == (0, 2, 2, 4, 4)
    alpha = pres_z.alphabet
    for text in ["", "a", "aa", "aaa", "A", "AA"]:
        assert dfa_run(dfa, alpha.parse(text))
    for text in ["aA", "Aa", "aaA", "Aaa"]:
        assert not dfa_run(dfa, alpha.parse(text))
    assert len(live_states(minimize(dfa))) == 3
    assert prefix_closed(dfa)


def _freely_reduced_dfa(symbols):
    k = len(symbols)
    dead = k + 1
    rows = [[1 + s for s in range(k)]]
    for last in range(k):
        rows.append([dead if s == (last ^ 1) else 1 + s for s in range(k)])
    rows.append([dead] * k)
    return Dfa(rows, frozenset(range(k + 1)), symbols)


def test_automaton_f2_is_free_reduction(ball_f2_3, pres_f2):
    h = neg_length_height(pres_f2.alphabet)
    for ball, delta in ((ball_f2_3, 2), (build_ball(pres_f2, 5), 4),
                        (build_ball(pres_f2, 6), 5)):
        dfa = build_fftp_automaton(ball, delta, h)
        same, witness = language_equal(
            minimize(dfa), _freely_reduced_dfa(pres_f2.alphabet.symbols))
        assert same, (delta, witness)
        assert len(live_states(minimize(dfa))) == 5
        assert prefix_closed(dfa)


def _presentation(gens, relators):
    alpha = Alphabet(list(gens))
    return Presentation(alpha, tuple(alpha.parse(r) for r in relators))


def test_automaton_matches_dense_reference():
    # (generators, relators, parabolic letters, deltas); a relative case
    # runs the electric height, and the same height at scale 3 (K = 4),
    # besides neg-length; Z^2 also runs the element height and one that
    # scores a letter and its inverse apart
    cases = [
        ("a", (), "", (1, 2, 3)),
        ("ab", ("abAB",), "", (2, 3, 4)),
        ("abc", ("abAB", "acAC", "bcBC"), "", (2,)),
        ("ab", (), "", (2, 3)),
        ("ab", (), "b", (3,)),
        ("ab", ("abAB",), "b", (3,)),
        ("ab", ("aa", "bbb", "abab"), "", (2,)),
        ("ab", ("aaa", "abAB"), "", (3,)),
        ("abc", ("bcBC",), "bc", (2,)),
    ]
    for gens, relators, parabolic, deltas in cases:
        pres = _presentation(gens, relators)
        heights = [neg_length_height(pres.alphabet)]
        if parabolic:
            family = ParabolicFamily(
                "P", tuple(pres.alphabet.index(c) for c in parabolic))
            rp = RelativePresentation(pres, (family,))
            electric = neg_electric_height(rp)
            heights += [electric, HeightFunction(
                {s: 3 * v for s, v in electric.letter_values.items()})]
        if gens == "ab" and relators == ("abAB",):
            heights += [_element_height(pres.alphabet),
                        _height(pres, _asymmetric(gens))]
        for delta in deltas:
            ball = build_ball(pres, delta + 1)
            for h in heights:
                got = build_fftp_automaton(ball, delta, h)
                want = reference_build_fftp_automaton(ball, delta, h)
                case = (gens, relators, parabolic, delta, h.K)
                assert got.transitions == want.transitions, case
                assert got.accept == want.accept, case
                assert got.state_vectors == want.state_vectors, case


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_thermometer_step_matches_min_plus(data):
    # tables no shipped kernel produces: unreachable (inf) entries and
    # entries far below -top, against any states in [0, top]; top up to 24
    # draws lanes of 1 to 15 bytes, some wider than 64 bits, and up to
    # three letters share each packed row
    n = data.draw(st.integers(1, 6))
    top = data.draw(st.integers(1, 24))
    entry = st.one_of(st.just(math.inf), st.integers(-3 * top, 3 * top))
    table = st.lists(st.lists(entry, min_size=n, max_size=n),
                     min_size=n, max_size=n)
    tables = data.draw(st.lists(table, min_size=1, max_size=3))
    cur = tuple(data.draw(st.lists(st.integers(0, top), min_size=n,
                                   max_size=n)))
    codes = _Thermometer(tables, n, top)
    assert codes.decode(codes.encode(cur)) == cur
    for table, got in zip(tables, codes.step(codes.groups(cur)),
                          strict=True):
        want = reference_min_plus_step(cur, list(zip(*table)), top)
        if want is None:
            assert got is None
        else:
            assert got == codes.encode(want)
            assert codes.decode(got) == want


def test_automaton_rejects_fractional_kernel():
    # a half-integer letter value would leave fractional kernel entries on
    # a group with odd cycles such as Z/3; such a height cannot be built
    with pytest.raises(ValueError, match="symbol 0"):
        HeightFunction({0: -0.5, 1: -0.5})


def test_automaton_z2_delta6_matches_delta4(pres_z2):
    h = neg_length_height(pres_z2.alphabet)
    small = [minimize(build_fftp_automaton(build_ball(pres_z2, d + 1), d, h))
             for d in (4, 6)]
    same, witness = language_equal(*small)
    assert same, witness


def test_automaton_z2_matches_geodesics(ball_z2_6, pres_z2):
    h = neg_length_height(pres_z2.alphabet)
    dfa = build_fftp_automaton(build_ball(pres_z2, 3), 2, h)
    assert prefix_closed(dfa)
    syms = range(len(pres_z2.alphabet.symbols))
    frontier = [()]
    for _ in range(5):
        frontier = [w + (s,) for w in frontier for s in syms]
        for w in frontier:
            v = ball_z2_6.evaluate(w)
            geodesic = len(w) == ball_z2_6.length_of(v)
            assert dfa_run(dfa, w) == geodesic, w


def test_automaton_subword_closure(ball_z2_6, pres_z2):
    # both order-preservation flags: subwords of accepted words accepted
    h = neg_length_height(pres_z2.alphabet)
    dfa = build_fftp_automaton(build_ball(pres_z2, 3), 2, h)
    syms = range(len(pres_z2.alphabet.symbols))
    words = [()]
    for _ in range(4):
        words = [w + (s,) for w in words for s in syms]
        for w in words:
            if dfa_run(dfa, w):
                for i in range(len(w)):
                    for j in range(i, len(w) + 1):
                        assert dfa_run(dfa, w[i:j])


def test_automaton_element_height_accepts_everything(ball_z4, pres_z):
    dfa = build_fftp_automaton(ball_z4, 1, _element_height(pres_z.alphabet))
    alpha = pres_z.alphabet
    for text in ["", "a", "aA", "AaaA"]:
        assert dfa_run(dfa, alpha.parse(text))


def test_automaton_state_cap(ball_z2_6, pres_z2):
    h = neg_length_height(pres_z2.alphabet)
    with pytest.raises(RuntimeError):
        build_fftp_automaton(ball_z2_6, 2, h, state_cap=1)


def test_maximizing_bruteforce(ball_z2_6, pres_z2):
    alpha = pres_z2.alphabet
    h = neg_length_height(alpha)
    g = ball_z2_6.evaluate(alpha.parse("ab"))
    assert maximizing_words_bruteforce(ball_z2_6, h, g, 4) == \
        {alpha.parse("ab"), alpha.parse("ba")}
    assert maximizing_words_bruteforce(ball_z2_6, h, 0, 3) == {()}
    b = alpha.index("b")
    rp = RelativePresentation(pres_z2, (ParabolicFamily("P", (b,)),))
    he = neg_electric_height(rp)
    g3 = ball_z2_6.evaluate(alpha.parse("bbb"))
    assert maximizing_words_bruteforce(ball_z2_6, he, g3, 4) == \
        {alpha.parse("bbb")}
