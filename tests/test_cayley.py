import inspect
import itertools
import math
import random
import time
import tracemalloc

import pytest

from relhyp.cayley import (
    OracleBudgetError, WordProblemOracle, build_ball, distance,
    geodesic_words, inversion_automorphisms, least_costs, replay_certificate,
    sphere_sizes,
)
from relhyp.words import Alphabet, Presentation, free_reduce

from oracle_tools import (
    d5_eval, lengths_by_enumeration, reference_dijkstra, s3_eval, z2_eval,
    z2freez3_eval, z3freez3_eval, z3xz_eval, zfreez2_eval, zfreez3_eval,
)

# frozen by tests/oracle_tools.py (independent lattice / reduced-word BFS)
Z2_COUNTS = {2: 13, 3: 25, 5: 61, 6: 85}
F2_COUNTS = {2: 17, 5: 485}


def test_oracle_strategies(pres_z, pres_f2, pres_z2):
    # one engine, whose only setting is its rule budget
    params = inspect.signature(WordProblemOracle.__init__).parameters
    assert list(params) == ["self", "presentation", "budget"]
    # free groups need only the inverse-pair axioms; Z^2 adds its relator
    # and the rules completion derives from it
    for pres, axioms in ((pres_z, 2), (pres_f2, 4), (pres_z2, 5)):
        o = WordProblemOracle(pres)
        assert o.complete
        assert [proof for _, _, proof in o.rules[:axioms]] == [None] * axioms
        assert None not in [proof for _, _, proof in o.rules[axioms:]]
    assert len(WordProblemOracle(pres_f2).rules) == 4


def test_oracle_free(pres_f2):
    o = WordProblemOracle(pres_f2)
    ab = pres_f2.alphabet
    assert o.decide(ab.parse("abBA")).status == "trivial"
    assert o.decide(ab.parse("ab")).status == "nontrivial"


def test_oracle_free_abelian_certificates(pres_z2):
    o = WordProblemOracle(pres_z2)
    ab = pres_z2.alphabet
    for text in ("abAB", "abaBAA", "bbaABB", "abABabAB"):
        w = ab.parse(text)
        r = o.decide(w)
        assert r.status == "trivial", text
        assert replay_certificate(pres_z2, w, r.certificate) == ()
    assert o.decide(ab.parse("ab")).status == "nontrivial"
    assert o.decide(pres_z2.alphabet.parse("abAB")).status == "trivial"


def test_oracle_bounded_search():
    # Z/3 * Z/3: zero exponent sums do not force triviality
    alpha = Alphabet(["a", "b"])
    p = Presentation(alpha, (alpha.parse("aaa"), alpha.parse("bbb")))
    o = WordProblemOracle(p)
    assert o.decide(alpha.parse("aaa")).status == "trivial"
    r = o.decide(alpha.parse("aaabbb"))
    assert r.status == "trivial"
    assert replay_certificate(p, alpha.parse("aaabbb"), r.certificate) == ()
    # abAB has a nonempty normal form under a complete system
    assert o.decide(alpha.parse("abAB")).status == "nontrivial"
    # a budget of five rules is below the six axioms, so completion stops
    # at its first derived rule; a nonempty normal form then proves
    # nothing, even for a, whose exponent sum lies outside the relator
    # lattice
    tiny = WordProblemOracle(p, budget=5)
    assert not tiny.complete
    assert tiny.decide(alpha.parse("abAB")).status == "unknown"
    assert tiny.decide(alpha.parse("a")).status == "unknown"


def test_ball_counts_z2(pres_z2):
    for radius, count in Z2_COUNTS.items():
        assert len(build_ball(pres_z2, radius)) == count


def test_ball_counts_f2(pres_f2):
    for radius, count in F2_COUNTS.items():
        assert len(build_ball(pres_f2, radius)) == count


def test_ball_counts_z(pres_z):
    assert len(build_ball(pres_z, 7)) == 15


@pytest.mark.parametrize("relators, evaluate, radius, spheres", [
    (("aaa", "abAB"), z3xz_eval, 2, [1, 4, 6]),
    (("aaa", "abAB"), z3xz_eval, 3, [1, 4, 6, 6]),
    (("aa", "bbb"), z2freez3_eval, 2, [1, 3, 4]),
    (("aaa", "abAB"), z3xz_eval, 8, [1, 4, 6, 6, 6, 6, 6, 6, 6]),
    (("aa", "bbb"), z2freez3_eval, 8, [1, 3, 4, 6, 8, 12, 16, 24, 32]),
    (("aaa", "bbb"), z3freez3_eval, 8, [1, 4, 8, 16, 32, 64, 128, 256, 512]),
    (("aa", "bbb", "abab"), s3_eval, 8, [1, 3, 2, 0, 0, 0, 0, 0, 0]),
    # Z * Z^2, the paper's first example; radius 8 is about 196k elements
    (("bcBC",), zfreez2_eval, 6, [1, 6, 26, 110, 466, 1974, 8362]),
])
def test_ball_with_torsion_matches_normal_forms(relators, evaluate, radius,
                                                spheres):
    # torsion and free products: equal elements can have different
    # exponent vectors, and zero exponent sums do not make a word trivial
    gens = sorted({c.lower() for r in relators for c in r} | {"a", "b"})
    alpha = Alphabet(gens)
    pres = Presentation(alpha, tuple(map(alpha.parse, relators)))
    ball = build_ball(pres, radius)
    letters = "".join(g + g.upper() for g in gens)
    length = lengths_by_enumeration(evaluate, radius, letters)
    elements = [evaluate(alpha.to_str(w)) for w in ball.words]
    assert len(set(elements)) == len(ball)          # pairwise distinct
    assert set(elements) == set(length)            # every element covered
    assert [ball.length_of(v) for v in range(len(ball))] == \
        [length[g] for g in elements]
    assert sphere_sizes(ball) == spheres
    index = {g: v for v, g in enumerate(elements)}
    for v, row in enumerate(ball.edges):   # every in-ball edge, no other
        for sym in ball.symbol_moves():
            g = evaluate(alpha.to_str(ball.words[v] + (sym,)))
            assert row[sym] == index.get(g)
    # every ball word is its own normal form, the element's key
    oracle = WordProblemOracle(pres)
    for w in ball.words:
        key = "".join(map(chr, w))
        assert oracle.normal_form(key) == (key, [])


def test_ball_zero_radius(pres_z2):
    b = build_ball(pres_z2, 0)
    assert len(b) == 1 and b.words[0] == ()


def test_heisenberg_aborts_naming_the_budget():
    # no finite complete shortlex system: completion runs into its budget
    alpha = Alphabet(["a", "b", "c"])
    heis = Presentation(alpha, tuple(map(alpha.parse,
                                         ("abABC", "acAC", "bcBC"))))
    start = time.perf_counter()
    with pytest.raises(OracleBudgetError, match="budget of 500 rules"):
        build_ball(heis, 1)
    assert time.perf_counter() - start < 2.0


def test_trivial_group_certificate_replays():
    # <a,b | a^-1 b^2 a b^-3, b^-1 a^2 b a^-3> presents the trivial group
    alpha = Alphabet(["a", "b"])
    pres = Presentation(alpha, (alpha.parse("AbbaBBB"), alpha.parse("BaabAAA")))
    a = alpha.parse("a")
    r = WordProblemOracle(pres).decide(a)
    assert r.status == "trivial"
    assert replay_certificate(pres, a, r.certificate) == ()
    assert build_ball(pres, 3).words == [()]
    # the axioms are checked against the presentation the replay is given
    half = Presentation(alpha, pres.relators[:1])
    with pytest.raises(ValueError, match="not an axiom"):
        replay_certificate(half, a, r.certificate)
    # every derived rule must follow from its peak
    rules, chain = r.certificate
    rid = next(i for i, (_, rhs, proof) in enumerate(rules) if proof and rhs)
    forged = rules[:rid] + ((rules[rid][0], "", rules[rid][2]),) + rules[rid + 1:]
    with pytest.raises(ValueError, match="peak"):
        replay_certificate(pres, a, (forged, chain))
    # and the chain must apply to the word it is replayed on
    with pytest.raises(ValueError):
        replay_certificate(pres, alpha.parse("b"), r.certificate)


def test_canonical_words_shortlex(pres_z2):
    b = build_ball(pres_z2, 3)
    ab = pres_z2.alphabet
    v = b.evaluate(ab.parse("ba"))
    assert b.words[v] == ab.parse("ab")  # shortlex-minimal geodesic
    # every canonical word is geodesic and prefix-closed inside the ball
    index = {w: i for i, w in enumerate(b.words)}
    for w in b.words:
        assert b.length_of(b.evaluate(w)) == len(w)
        assert all(w[:k] in index for k in range(len(w)))


def test_evaluate_out_of_ball(pres_z2):
    b = build_ball(pres_z2, 2)
    ab = pres_z2.alphabet
    assert b.evaluate(ab.parse("aaa")) is None
    # prefix walks matter: aaA ends at distance 1 but leaves B(2) on the way
    assert b.evaluate(ab.parse("aaaA")) is None


def test_distance(pres_z2):
    b3 = build_ball(pres_z2, 3)
    ab = pres_z2.alphabet
    va, vb = b3.evaluate(ab.parse("a")), b3.evaluate(ab.parse("b"))
    assert distance(b3, va, vb) == 2
    assert distance(b3, va, va) == 0
    b1 = build_ball(pres_z2, 1)
    va, vA = b1.evaluate((0,)), b1.evaluate((1,))
    assert distance(b1, va, vA) is None


def test_distance_matches_group_metric(pres_z2):
    b = build_ball(pres_z2, 4)
    ab = pres_z2.alphabet
    for g in range(len(b)):
        for h in range(len(b)):
            d = distance(b, g, h)
            vg = z2_eval(ab.to_str(b.words[g]))
            vh = z2_eval(ab.to_str(b.words[h]))
            true = abs(vg[0] - vh[0]) + abs(vg[1] - vh[1])
            if d is not None:
                assert d == true
            else:
                # only far-apart or uncertifiable pairs are refused
                assert true > b.radius or (
                    true > 2 and true + b.length_of(g) + b.length_of(h) > 2 * b.radius)


def _reference_least_costs(ball, costs, sources, targets, allowed):
    """Dijkstra over the weighted adjacency of ball.edges inside allowed."""
    inside = set(range(len(ball)) if allowed is None else allowed)
    adj = [[(t, c) for sym, c in costs.items()
            if (t := ball.edges[v][sym]) in inside] if v in inside else []
           for v in range(len(ball))]
    rows = []
    for s in sources:
        dist = reference_dijkstra(adj, s) if s in inside else [None] * len(adj)
        rows.append([math.inf if dist[t] is None else dist[t]
                     for t in targets])
    return rows


@pytest.mark.parametrize("relators", [
    ("abAB",), (), ("aa", "bbb", "abab"), ("aa", "bbb"),
], ids=["Z2", "F2", "S3", "Z2*Z3"])
def test_least_costs_match_dijkstra(relators):
    alpha = Alphabet(["a", "b"])
    ball = build_ball(Presentation(alpha, tuple(map(alpha.parse, relators))),
                      4)
    vertices = range(len(ball))
    rng = random.Random(len(ball))
    for trial in range(60):
        # costs include 0, and some moves are left out of the map
        costs = {sym: rng.choice((0, 0, 1, 2, 3))
                 for sym in ball.symbol_moves() if rng.random() < 0.8}
        allowed = None if trial % 3 == 0 else {
            v for v in vertices if rng.random() < 0.7}
        sources = rng.choices(vertices, k=rng.randint(1, 8))
        sources.append(sources[0])  # a repeated source
        targets = rng.sample(vertices, min(len(ball), rng.randint(1, 8)))
        got = least_costs(ball, costs, sources, targets, allowed)
        assert got == _reference_least_costs(ball, costs, sources, targets,
                                             allowed), (costs, allowed)
    with pytest.raises(ValueError, match="target repeats"):
        least_costs(ball, {0: 1}, [0], [0, 0])


def test_least_costs_stop_once_every_entry_is_found(pres_z2):
    # the b moves cost 3000, so a sweep that ran until no level adds a bit
    # would climb past level 3000; a, aa and A are found by level 2
    ball = build_ball(pres_z2, 4)
    costs = {0: 1, 1: 1, 2: 3000, 3: 3000}
    targets = [ball.evaluate(pres_z2.alphabet.parse(w))
               for w in ("a", "aa", "A")]
    t0 = time.perf_counter()
    rows = least_costs(ball, costs, [0, 0], targets)
    assert time.perf_counter() - t0 < 0.5
    assert rows == [[1, 2, 1]] * 2
    assert rows == _reference_least_costs(ball, costs, [0, 0], targets, None)


def test_geodesic_words(pres_z2, pres_f2):
    b = build_ball(pres_z2, 3)
    ab = pres_z2.alphabet
    v = b.evaluate(ab.parse("ab"))
    assert geodesic_words(b, v, 10) == (2, [ab.parse("ab"), ab.parse("ba")])
    assert geodesic_words(b, v, 1) == (2, [ab.parse("ab")])
    bf = build_ball(pres_f2, 3)
    vf = bf.evaluate(ab.parse("aB"))
    assert geodesic_words(bf, vf, 10) == (1, [ab.parse("aB")])
    assert geodesic_words(b, 0, 10) == (1, [()])
    assert geodesic_words(b, 0, 0) == (1, [])


def _limits(count):
    return sorted({0, 1, max(count - 1, 0), count, count + 1})


@pytest.mark.parametrize("relators, evaluate, radius", [
    (("aa", "bbb", "abab"), s3_eval, 5),
    (("aaaaa", "bb", "abab"), d5_eval, 5),
    # a and A are one element, so each torsion step is two moves
    (("aa", "bbb"), z2freez3_eval, 5),
], ids=["S3", "D5", "Z2*Z3"])
def test_geodesic_words_match_brute_force(relators, evaluate, radius):
    # every word of each length, evaluated in the independent model and
    # grouped by element, lists each element's geodesics in lex order
    alpha = Alphabet(["a", "b"])
    ball = build_ball(Presentation(alpha, tuple(map(alpha.parse, relators))),
                      radius)
    moves = ball.symbol_moves()
    for v in range(len(ball)):
        n = ball.length_of(v)
        words = {}
        for w in itertools.product(moves, repeat=n):
            words.setdefault(evaluate(alpha.to_str(w)), []).append(w)
        want = words[evaluate(alpha.to_str(ball.words[v]))]
        for k in _limits(len(want)):
            assert geodesic_words(ball, v, k) == (len(want), want[:k])


@pytest.mark.parametrize("gens, radius", [("ab", 5), ("abc", 4)],
                         ids=["Z2", "Z3"])
def test_geodesic_counts_are_multinomial(gens, radius):
    alpha = Alphabet(list(gens))
    rels = [x + y + x.upper() + y.upper()
            for x, y in itertools.combinations(gens, 2)]
    ball = build_ball(Presentation(alpha, tuple(map(alpha.parse, rels))),
                      radius)

    def coords(w):
        return [w.count(2 * i) - w.count(2 * i + 1) for i in range(len(gens))]

    for v in range(len(ball)):
        steps = [abs(x) for x in coords(ball.words[v])]
        count = math.factorial(sum(steps))
        for x in steps:
            count //= math.factorial(x)
        for k in _limits(count):
            got, words = geodesic_words(ball, v, k)
            assert got == count
            assert len(words) == min(k, count)
            assert words == sorted(set(words))
            for w in words:
                assert len(w) == sum(steps)
                assert coords(w) == coords(ball.words[v])


def test_geodesic_words_memory_follows_the_limit(pres_z2):
    # C(40, 20) geodesics; listing five may not build the rest
    ball = build_ball(pres_z2, 40)
    ab = pres_z2.alphabet
    v = ball.evaluate(ab.parse("a" * 20 + "b" * 20))
    tracemalloc.start()
    try:
        count, words = geodesic_words(ball, v, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == math.comb(40, 20) == 137846528820
    assert words[0] == ab.parse("a" * 20 + "b" * 20)
    assert len(words) == 5
    assert peak < 1 << 20


def test_inversion_automorphism_of_z_negates_coordinates(pres_z):
    ball = build_ball(pres_z, 7)
    coord = [sum(1 if s == 0 else -1 for s in w) for w in ball.words]
    [sigma] = inversion_automorphisms(ball)
    assert [coord[sigma[v]] for v in range(len(ball))] == \
        [-x for x in coord]


def _inverted(word, letters):
    return word.translate(str.maketrans(letters + letters.upper(),
                                        letters.upper() + letters))


Z5_STEP = {"a": 1, "A": -1, "b": 3, "B": -3}


@pytest.mark.parametrize("relators, evaluate, radius, inverted", [
    # a = A, so inverting a is the identity (dropped) and inverting a and
    # b repeats inverting b
    (("aa", "bbb", "abab"), s3_eval, 3, ["b"]),
    # (Ab)^3 != 1, so inverting a or b alone fails once the ball holds the
    # relator's loop; at radius 2 it does not
    (("ababab",), zfreez3_eval, 2, ["a", "b", "ab"]),
    (("ababab",), zfreez3_eval, 3, ["ab"]),
    (("ababab",), zfreez3_eval, 5, ["ab"]),
    # Z/5 with b = a^3: the ball is the whole group, so no edge leaves it,
    # and inverting one letter fails only where an image disagrees
    (("aaaaa", "aab"), lambda w: sum(map(Z5_STEP.get, w)) % 5, 1, ["ab"]),
])
def test_inversion_automorphisms_match_group_models(relators, evaluate,
                                                    radius, inverted):
    alpha = Alphabet(["a", "b"])
    ball = build_ball(Presentation(alpha, tuple(map(alpha.parse, relators))),
                      radius)
    words = [alpha.to_str(w) for w in ball.words]
    index = {evaluate(w): v for v, w in enumerate(words)}
    # sigma sends each element to its image under the inversion, read in
    # the model
    assert inversion_automorphisms(ball) == [
        tuple(index[evaluate(_inverted(w, letters))] for w in words)
        for letters in inverted]
