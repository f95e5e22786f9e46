"""Deterministic and nondeterministic finite automata.

Conventions: states are 0..n-1, symbols are 0..k-1 with display names kept
alongside for export.  DFA transitions are total; partial machines get an
explicit dead state during construction.  NFA initial data is a set of
states and the subset extension of the transition function is used
throughout, so f(A u B) = f(A) u f(B) by construction.
"""

from __future__ import annotations

from collections import deque


class Dfa:
    def __init__(self, transitions, accept, symbols, initial=0):
        self.transitions = [list(row) for row in transitions]
        self.n = len(self.transitions)
        self.symbols = tuple(symbols)
        self.accept = frozenset(accept)
        self.initial = initial
        if self.n == 0:
            raise ValueError("a DFA needs at least one state")
        if not 0 <= initial < self.n:
            raise ValueError("initial state out of range")
        for row in self.transitions:
            if len(row) != len(self.symbols):
                raise ValueError("transition row length != symbol count")
            for s in row:
                if not 0 <= s < self.n:
                    raise ValueError("transition target out of range")
        for s in self.accept:
            if not 0 <= s < self.n:
                raise ValueError("accept state out of range")


class Nfa:
    def __init__(self, n, transitions, accept, symbols, initial):
        self.n = n
        self.symbols = tuple(symbols)
        # dict (state, sym) -> frozenset of targets; missing means empty
        self.transitions = {k: frozenset(v) for k, v in transitions.items()}
        self.accept = frozenset(accept)
        self.initial = frozenset(initial)
        for (q, s), tgts in self.transitions.items():
            if not (0 <= q < n and 0 <= s < len(self.symbols)):
                raise ValueError("transition key out of range")
            if any(not 0 <= t < n for t in tgts):
                raise ValueError("transition target out of range")
        if any(not 0 <= q < n for q in self.initial | self.accept):
            raise ValueError("state out of range")

    def step_set(self, states, sym):
        out = set()
        for q in states:
            out |= self.transitions.get((q, sym), frozenset())
        return frozenset(out)


def dfa_run(dfa: Dfa, word) -> bool:
    state = dfa.initial
    for sym in word:
        state = dfa.transitions[state][sym]
    return state in dfa.accept


def nfa_run(nfa: Nfa, word) -> bool:
    current = nfa.initial
    for sym in word:
        current = nfa.step_set(current, sym)
        if not current:
            break
    return bool(current & nfa.accept)


def determinize(nfa: Nfa) -> Dfa:
    """Subset construction.  Only accessible subsets are materialized; the
    empty subset is the explicit dead state when reachable.
    """
    k = len(nfa.symbols)
    start = tuple(sorted(nfa.initial))
    index = {start: 0}
    order = [start]
    rows = []
    q = deque([start])
    while q:
        sub = q.popleft()
        row = []
        for sym in range(k):
            tgt = tuple(sorted(nfa.step_set(sub, sym)))
            if tgt not in index:
                index[tgt] = len(order)
                order.append(tgt)
                q.append(tgt)
            row.append(index[tgt])
        rows.append(row)
    accept = {i for i, sub in enumerate(order) if set(sub) & nfa.accept}
    return Dfa(rows, accept, nfa.symbols, initial=0)


def _reach(starts, successors):
    """The states reachable from starts, where successors[s] lists the
    states one step on from s."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for t in successors[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def accessible_states(dfa: Dfa):
    return _reach({dfa.initial}, dfa.transitions)


def coaccessible_states(dfa: Dfa):
    back = [[] for _ in range(dfa.n)]
    for s, row in enumerate(dfa.transitions):
        for t in row:
            back[t].append(s)
    return _reach(dfa.accept, back)


def live_states(dfa: Dfa):
    return accessible_states(dfa) & coaccessible_states(dfa)


def prune_inaccessible(dfa: Dfa) -> Dfa:
    keep = sorted(accessible_states(dfa))
    remap = {old: new for new, old in enumerate(keep)}
    rows = [[remap[dfa.transitions[old][sym]] for sym in range(len(dfa.symbols))]
            for old in keep]
    accept = {remap[s] for s in dfa.accept if s in remap}
    return Dfa(rows, accept, dfa.symbols, initial=remap[dfa.initial])


def minimize(dfa: Dfa) -> Dfa:
    """Moore partition refinement on the accessible part.

    Blocks start as accept and reject.  Each round numbers the distinct
    signatures (own block, then successors' blocks in symbol order) by
    first appearance, so blocks are numbered by their least states.  A
    round only splits blocks, and the first that splits none ends the
    refinement.  Each round but the last adds a block, so rounds <= final
    blocks, each O(n k).  A chain of n states with only the last
    accepting needs n - 1 rounds.
    """
    dfa = prune_inaccessible(dfa)
    block = [s in dfa.accept for s in range(dfa.n)]
    count = len(set(block))
    while True:
        ids = {}
        block = [ids.setdefault((block[s], *[block[t] for t in row]),
                                len(ids))
                 for s, row in enumerate(dfa.transitions)]
        if len(ids) == count:
            break
        count = len(ids)
    # the partition is stable: a block's states all have the same row of
    # blocks, and the dict keeps the blocks in order
    rows = [[block[t] for t in row]
            for row in dict(zip(block, dfa.transitions)).values()]
    accept = {block[s] for s in dfa.accept}
    return Dfa(rows, accept, dfa.symbols, initial=block[dfa.initial])


def language_equal(d1: Dfa, d2: Dfa):
    """(True, None) when the languages agree, else (False, shortest word on
    which they differ); ties in length break toward smaller symbols because
    the product BFS explores symbols in order.
    """
    if d1.symbols != d2.symbols:
        raise ValueError("symbol sets differ")
    k = len(d1.symbols)
    start = (d1.initial, d2.initial)
    parent = {start: None}
    q = deque([start])
    while q:
        s1, s2 = q.popleft()
        if (s1 in d1.accept) != (s2 in d2.accept):
            word = []
            node = (s1, s2)
            while parent[node] is not None:
                node, sym = parent[node]
                word.append(sym)
            return False, tuple(reversed(word))
        for sym in range(k):
            nxt = (d1.transitions[s1][sym], d2.transitions[s2][sym])
            if nxt not in parent:
                parent[nxt] = ((s1, s2), sym)
                q.append(nxt)
    return True, None


def prefix_closed(dfa: Dfa) -> bool:
    """Every accessible state on a path to acceptance must itself accept."""
    return live_states(dfa) <= dfa.accept

