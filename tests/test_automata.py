import random

import pytest

from relhyp.automata import (
    Dfa, Nfa, dfa_run, determinize, language_equal, live_states, minimize,
    nfa_run, prefix_closed, prune_inaccessible,
)

from oracle_tools import reference_minimize

SYMS = ("a", "A", "b", "B")


def freely_reduced_dfa():
    # state 0 start, 1..4 remember the last letter, 5 dead
    rows = []
    rows.append([1, 2, 3, 4])
    for last in range(4):
        row = []
        for sym in range(4):
            row.append(5 if sym == (last ^ 1) else 1 + sym)
        rows.append(row)
    rows.append([5, 5, 5, 5])
    return Dfa(rows, {0, 1, 2, 3, 4}, SYMS)


def is_reduced(word):
    return all(word[i] != (word[i + 1] ^ 1) for i in range(len(word) - 1))


def all_words(k, max_len):
    yield ()
    stack = [()]
    for _ in range(max_len):
        nxt = []
        for w in stack:
            for s in range(k):
                nw = w + (s,)
                yield nw
                nxt.append(nw)
        stack = nxt


def test_dfa_run_freely_reduced():
    d = freely_reduced_dfa()
    for w in all_words(4, 6):
        assert dfa_run(d, w) == is_reduced(w)


def test_dfa_validation():
    with pytest.raises(ValueError):
        Dfa([], set(), SYMS)
    with pytest.raises(ValueError):
        Dfa([[0, 0]], {0}, SYMS)  # row length mismatch
    with pytest.raises(ValueError):
        Dfa([[0, 0, 0, 9]], {0}, SYMS)


def test_minimize_freely_reduced_live_count():
    m = minimize(freely_reduced_dfa())
    assert m.n == 6
    assert len(live_states(m)) == 5
    eq, _ = language_equal(m, freely_reduced_dfa())
    assert eq


def suffix_ab_nfa():
    # accepts words ending in "ab" over symbols a, b
    trans = {
        (0, 0): {0, 1},
        (0, 1): {0},
        (1, 1): {2},
    }
    return Nfa(3, trans, {2}, ("a", "b"), {0})


def test_determinize_suffix_ab():
    n = suffix_ab_nfa()
    d = determinize(n)
    assert len(live_states(d)) == 3
    for w in all_words(2, 8):
        assert dfa_run(d, w) == nfa_run(n, w)


def test_nfa_initial_set_semantics():
    # two initial states, disjoint one-letter languages
    trans = {(0, 0): {2}, (1, 1): {2}}
    n = Nfa(3, trans, {2}, ("a", "b"), {0, 1})
    assert nfa_run(n, (0,))
    assert nfa_run(n, (1,))
    assert not nfa_run(n, ())
    empty = Nfa(1, {}, {0}, ("a",), set())
    assert not nfa_run(empty, ())


def random_nfa(rng):
    n = rng.randint(1, 5)
    k = rng.randint(2, 4)
    trans = {}
    for q in range(n):
        for s in range(k):
            tgts = {t for t in range(n) if rng.random() < 0.35}
            if tgts:
                trans[(q, s)] = tgts
    accept = {q for q in range(n) if rng.random() < 0.4}
    initial = {q for q in range(n) if rng.random() < 0.4}
    return Nfa(n, trans, accept, tuple("xyzw"[:k]), initial)


def agree_on_trie(nfa, dfa, depth):
    # walk the word trie keeping the direct subset simulation next to the
    # DFA state; memoize pairs so the check covers all words, cheaply
    seen = set()
    stack = [(nfa.initial, dfa.initial, 0)]
    while stack:
        subset, state, d = stack.pop()
        if (subset, state) in seen:
            continue
        seen.add((subset, state))
        if bool(subset & nfa.accept) != (state in dfa.accept):
            return False
        for sym in range(len(nfa.symbols)):
            stack.append((nfa.step_set(subset, sym), dfa.transitions[state][sym], d + 1))
    return True


def test_determinize_random_agreement():
    rng = random.Random(7)
    for _ in range(100):
        n = random_nfa(rng)
        d = determinize(n)
        assert agree_on_trie(n, d, 8)


def test_minimize_idempotent_random():
    rng = random.Random(11)
    for _ in range(60):
        d = determinize(random_nfa(rng))
        m1 = minimize(d)
        m2 = minimize(m1)
        assert m1.n == m2.n
        eq, cex = language_equal(m1, d)
        assert eq, cex


def random_dfa(rng):
    # few accepting states and short rows, so that states often merge
    n = rng.randint(1, 12)
    k = rng.randint(1, 3)
    rows = [[rng.randrange(n) for _ in range(k)] for _ in range(n)]
    accept = {s for s in range(n) if rng.random() < 0.3}
    return Dfa(rows, accept, tuple("xyz"[:k]), initial=rng.randrange(n))


def chain_dfa(n):
    # x steps along the chain, y stays put; only the last state accepts,
    # so every state is distinct and each refinement round splits one off
    rows = [[min(s + 1, n - 1), s] for s in range(n)]
    return Dfa(rows, {n - 1}, ("x", "y"))


def test_minimize_matches_table_filling():
    rng = random.Random(24)
    cases = [random_dfa(rng) for _ in range(400)]
    cases += [determinize(random_nfa(rng)) for _ in range(100)]
    cases += [
        Dfa([[0, 0]], {0}, ("x", "y")),  # one state
        Dfa([[0]], set(), ("x",)),
        chain_dfa(200),
        # states 1 and 3 are unreachable from the initial state 2; 0 and 4
        # merge, and state 2 comes out as block 1
        Dfa([[4, 2], [0, 1], [0, 4], [3, 3], [0, 2]], {0, 1, 4}, ("x", "y"),
            initial=2),
    ]
    for d in cases:
        m = minimize(d)
        want = reference_minimize(d.transitions, d.accept, d.initial)
        assert (m.transitions, set(m.accept), m.initial) == want, \
            (d.transitions, sorted(d.accept), d.initial)
    assert minimize(chain_dfa(200)).n == 200
    m = minimize(cases[-1])
    assert (m.transitions, set(m.accept), m.initial) == \
        ([[0, 1], [0, 0]], {0}, 1)


def test_language_equal_counterexample_shortest():
    d1 = freely_reduced_dfa()
    # same machine but "ab" (and longer) rejected: flip acceptance of state 3
    d2 = Dfa(d1.transitions, {0, 1, 2, 4}, SYMS)
    eq, cex = language_equal(d1, d2)
    assert not eq
    assert cex == (2,)  # shortest difference is the single letter b
    eq, cex = language_equal(d1, d1)
    assert eq and cex is None


def test_prune_inaccessible():
    rows = [[0, 1], [1, 1], [2, 2]]  # state 2 unreachable
    d = Dfa(rows, {1, 2}, ("x", "y"))
    p = prune_inaccessible(d)
    assert p.n == 2
    eq, _ = language_equal(
        p, Dfa([[0, 1], [1, 1]], {1}, ("x", "y")))
    assert eq


def test_prefix_closed():
    assert prefix_closed(freely_reduced_dfa())
    assert not prefix_closed(determinize(suffix_ab_nfa()))
    # a machine accepting everything is prefix closed
    assert prefix_closed(Dfa([[0, 0, 0, 0]], {0}, SYMS))
