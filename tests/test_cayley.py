import json

import pytest

from relhyp.cayley import (
    OUT_OF_BALL, OracleBudgetError, WordProblemOracle, ball_to_json,
    build_ball, distance, geodesic_words, is_geodesic, replay_certificate,
    sphere_sizes,
)
from relhyp.words import Alphabet, Presentation, free_reduce

from oracle_tools import lengths_by_enumeration, z2freez3_eval, z3xz_eval

# frozen by tests/oracle_tools.py (independent lattice / reduced-word BFS)
Z2_COUNTS = {2: 13, 3: 25, 5: 61, 6: 85}
F2_COUNTS = {2: 17, 5: 485}


def test_oracle_strategies(pres_z, pres_f2, pres_z2):
    assert WordProblemOracle(pres_z).strategy == "free"
    assert WordProblemOracle(pres_f2).strategy == "free"
    assert WordProblemOracle(pres_z2).strategy == "free-abelian"
    assert WordProblemOracle(pres_z2, force_search=True).strategy == "bounded-search"


def test_oracle_free(pres_f2):
    o = WordProblemOracle(pres_f2)
    ab = pres_f2.alphabet
    assert o.decide(ab.parse("abBA")).is_trivial
    r = o.decide(ab.parse("ab"))
    assert r.is_nontrivial and "reduced" in r.reason


def test_oracle_free_abelian_certificates(pres_z2):
    o = WordProblemOracle(pres_z2)
    ab = pres_z2.alphabet
    for text in ("abAB", "abaBAA", "bbaABB", "abABabAB"):
        w = ab.parse(text)
        r = o.decide(w)
        assert r.is_trivial, text
        assert replay_certificate(w, r.certificate) == ()
    r = o.decide(ab.parse("ab"))
    assert r.is_nontrivial and "abelianization" in r.reason
    assert o.decide(pres_z2.parse("abAB")).is_trivial


def test_oracle_bounded_search():
    # Z/3 * Z/3: zero exponent sums do not force triviality
    alpha = Alphabet(["a", "b"])
    p = Presentation(alpha, (alpha.parse("aaa"), alpha.parse("bbb")))
    o = WordProblemOracle(p)
    assert o.strategy == "bounded-search"
    assert o.decide(alpha.parse("aaa")).is_trivial
    r = o.decide(alpha.parse("aaabbb"))
    assert r.is_trivial
    assert replay_certificate(alpha.parse("aaabbb"), r.certificate) == ()
    # under a tight cap the insertion closure is finite and exhausts
    r = o.decide(alpha.parse("abAB"), length_cap=6)
    assert r.is_nontrivial and "closure" in r.reason
    tiny = WordProblemOracle(p, budget=5)
    assert tiny.decide(alpha.parse("abAB")).status == "unknown"


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
])
def test_ball_with_torsion_matches_normal_forms(relators, evaluate, radius,
                                                spheres):
    # relators with nonzero exponent sums: equal elements can have
    # different exponent vectors, so the level scan must not split them
    alpha = Alphabet(["a", "b"])
    ball = build_ball(Presentation(alpha, tuple(map(alpha.parse, relators))),
                      radius)
    length = lengths_by_enumeration(evaluate, radius)
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


def test_ball_zero_radius(pres_z2):
    b = build_ball(pres_z2, 0)
    assert len(b) == 1 and b.words[0] == ()


def test_forced_search_matches_fast_path(pres_z2):
    fast = build_ball(pres_z2, 2)
    slow = build_ball(pres_z2, 2, oracle=WordProblemOracle(pres_z2, force_search=True))
    assert len(fast) == len(slow) == 13
    assert sorted(map(len, fast.words)) == sorted(map(len, slow.words))


def test_oracle_abort_surfaces(pres_z2):
    starved = WordProblemOracle(pres_z2, budget=2, force_search=True)
    with pytest.raises(OracleBudgetError):
        build_ball(pres_z2, 2, oracle=starved)


def test_canonical_words_shortlex(pres_z2):
    b = build_ball(pres_z2, 3)
    ab = pres_z2.alphabet
    v = b.evaluate(ab.parse("ba"))
    assert b.words[v] == ab.parse("ab")  # shortlex-minimal geodesic
    # every canonical word is geodesic and prefix-closed inside the ball
    index = {w: i for i, w in enumerate(b.words)}
    for w in b.words:
        assert is_geodesic(b, w)
        assert all(w[:k] in index for k in range(len(w)))


def test_evaluate_out_of_ball(pres_z2):
    b = build_ball(pres_z2, 2)
    ab = pres_z2.alphabet
    assert b.evaluate(ab.parse("aaa")) is OUT_OF_BALL
    # prefix walks matter: aaA ends at distance 1 but leaves B(2) on the way
    assert b.evaluate(ab.parse("aaaA")) is OUT_OF_BALL


def test_distance(pres_z2):
    b3 = build_ball(pres_z2, 3)
    ab = pres_z2.alphabet
    va, vb = b3.evaluate(ab.parse("a")), b3.evaluate(ab.parse("b"))
    assert distance(b3, va, vb) == 2
    assert distance(b3, va, va) == 0
    b1 = build_ball(pres_z2, 1)
    va, vA = b1.evaluate((0,)), b1.evaluate((1,))
    assert distance(b1, va, vA) is OUT_OF_BALL


def test_distance_matches_group_metric(pres_z2):
    from relhyp.words import abelianization
    b = build_ball(pres_z2, 4)
    ab = pres_z2.alphabet
    for g in range(len(b)):
        for h in range(len(b)):
            d = distance(b, g, h)
            vg = abelianization(ab, b.words[g])
            vh = abelianization(ab, b.words[h])
            true = abs(vg[0] - vh[0]) + abs(vg[1] - vh[1])
            if d is not OUT_OF_BALL:
                assert d == true
            else:
                # only far-apart or uncertifiable pairs are refused
                assert true > b.radius or (
                    true > 2 and true + b.length_of(g) + b.length_of(h) > 2 * b.radius)


def test_geodesic_words(pres_z2, pres_f2):
    b = build_ball(pres_z2, 3)
    ab = pres_z2.alphabet
    v = b.evaluate(ab.parse("ab"))
    assert geodesic_words(b, v) == [ab.parse("ab"), ab.parse("ba")]
    v2 = b.evaluate(ab.parse("aabb"))  # distance 4, outside B(3)? no: |.|=4 > 3
    bf = build_ball(pres_f2, 3)
    vf = bf.evaluate(ab.parse("aB"))
    assert geodesic_words(bf, vf) == [ab.parse("aB")]
    assert geodesic_words(b, 0) == [()]


def test_is_geodesic(pres_z2):
    b = build_ball(pres_z2, 3)
    ab = pres_z2.alphabet
    assert is_geodesic(b, ab.parse("ab"))
    assert not is_geodesic(b, ab.parse("aA"))
    with pytest.raises(ValueError):
        is_geodesic(b, ab.parse("aaaa"))


def test_sub_generator_ball(pres_z2):
    # the <b> line inside Z^2, generated by symbol index 2
    b = build_ball(pres_z2, 4, generators=(2,))
    assert len(b) == 9
    assert all(set(w) <= {2, 3} for w in b.words)


def test_ball_json(pres_z2):
    b = build_ball(pres_z2, 2)
    data = json.loads(ball_to_json(b))
    assert data["count"] == 13
    assert data["sphere_sizes"] == [1, 4, 8]
    assert data["vertices"][0] == {"id": 0, "word": "", "length": 0}
    edge_set = {(e["from"], e["symbol"], e["to"]) for e in data["edges"]}
    assert (0, "a", b.evaluate((0,))) in edge_set
