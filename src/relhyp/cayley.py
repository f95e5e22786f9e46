"""Cayley balls built through a word-problem oracle.

The ball stores, per element, the shortlex-minimal geodesic word and the
full edge table between in-ball elements.  Identification of elements goes
through :class:`WordProblemOracle`, which answers Trivial with a replayable
certificate (a list of relator insertions), NonTrivial with a reason, or
Unknown when the search budget runs out.  Ball construction aborts on
Unknown rather than guessing.

Two presentations get complete fast paths: free presentations (free
reduction is a canonical form) and visibly free abelian ones, where the
relators are exactly the commutators of every generator pair (the exponent
vector is a canonical form, and Trivial certificates are emitted as
explicit adjacent-transposition insertions).  Everything else runs the
budgeted breadth-first search over relator insertions.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from .words import (
    Presentation, Word, abelianization, free_reduce, relator_forms,
    word_inverse,
)


class OracleBudgetError(RuntimeError):
    """Raised when a construction needs an answer the oracle cannot give."""


class _OutOfBall:
    __slots__ = ()

    def __repr__(self):
        return "OutOfBall"

    def __bool__(self):
        return False


OUT_OF_BALL = _OutOfBall()


@dataclass(frozen=True)
class OracleResult:
    status: str  # "trivial" | "nontrivial" | "unknown"
    certificate: tuple = ()  # (position, inserted form) pairs for "trivial"
    reason: str = ""

    @property
    def is_trivial(self):
        return self.status == "trivial"

    @property
    def is_nontrivial(self):
        return self.status == "nontrivial"


def replay_certificate(word: Word, certificate) -> Word:
    """Apply the recorded insertions with interleaved free reduction."""
    w = free_reduce(tuple(word))
    for pos, form in certificate:
        if not 0 <= pos <= len(w):
            raise ValueError(f"certificate position {pos} out of range")
        w = free_reduce(w[:pos] + tuple(form) + w[pos:])
    return w


def _lattice_member(vectors, target) -> bool:
    # integer column elimination; True when target lies in the Z-span
    vecs = [list(v) for v in vectors if any(v)]
    t = list(target)
    n = len(t)
    row = 0
    for col in range(n):
        # gcd-reduce the column below the current row
        while True:
            pivots = [v for v in vecs if v[col] != 0]
            if len(pivots) <= 1:
                break
            pivots.sort(key=lambda v: abs(v[col]))
            small = pivots[0]
            for v in pivots[1:]:
                q = v[col] // small[col]
                for j in range(n):
                    v[j] -= q * small[j]
        pivot = next((v for v in vecs if v[col] != 0), None)
        if pivot is None:
            continue
        if t[col] % pivot[col] != 0:
            return False
        q = t[col] // pivot[col]
        for j in range(n):
            t[j] -= q * pivot[j]
        vecs.remove(pivot)
    return not any(t)


class WordProblemOracle:
    """Three-valued word problem for a finite presentation.

    strategy is chosen at construction: "free", "free-abelian" or
    "bounded-search".  The first two are complete; the search carries a
    budget (relator insertions explored) and an intermediate length cap.
    """

    def __init__(self, presentation: Presentation, budget: int = 100_000,
                 length_cap: int | None = None, force_search: bool = False):
        self.presentation = presentation
        self.budget = budget
        self.length_cap = length_cap
        self.forms = relator_forms(presentation.relators)
        self.rel_ab = [abelianization(presentation.alphabet, r)
                       for r in presentation.relators]
        if force_search:
            self.strategy = "bounded-search"
        elif not presentation.relators:
            self.strategy = "free"
        elif self._is_visibly_free_abelian():
            self.strategy = "free-abelian"
        else:
            self.strategy = "bounded-search"

    def _is_visibly_free_abelian(self):
        alphabet = self.presentation.alphabet
        k = len(alphabet.generators)
        need = {frozenset((i, j)) for i in range(k) for j in range(i + 1, k)}
        got = set()
        for r in self.presentation.relators:
            if len(r) != 4:
                return False
            gens = {sym >> 1 for sym in r}
            if len(gens) != 2:
                return False
            # commutator shape p q p^-1 q^-1 up to rotation/inversion
            if free_reduce((r[0], r[1], r[0] ^ 1, r[1] ^ 1)) != r:
                return False
            got.add(frozenset(gens))
        return got == need and k >= 2

    # -- canonical forms (fast paths only) --------------------------------

    def canonical_key(self, word: Word):
        """Hashable complete invariant, or None when unavailable."""
        if self.strategy == "free":
            return free_reduce(word)
        if self.strategy == "free-abelian":
            return abelianization(self.presentation.alphabet, word)
        return None

    # -- decision ----------------------------------------------------------

    def decide(self, word: Word, length_cap: int | None = None) -> OracleResult:
        w = free_reduce(tuple(word))
        if not w:
            return OracleResult("trivial", ())
        if self.strategy == "free":
            return OracleResult("nontrivial", reason="freely reduced and nonempty")
        vec = abelianization(self.presentation.alphabet, w)
        if not _lattice_member(self.rel_ab, vec):
            return OracleResult("nontrivial", reason="abelianization outside relator lattice")
        if self.strategy == "free-abelian":
            return OracleResult("trivial", self._abelian_certificate(w))
        return self._bounded_search(w, length_cap or self.length_cap)

    def decide_equal(self, u: Word, v: Word, length_cap: int | None = None) -> OracleResult:
        return self.decide(tuple(u) + word_inverse(tuple(v)), length_cap)

    def _abelian_certificate(self, w: Word):
        # sort letters by generator via adjacent transpositions; each swap of
        # letters u,v is the insertion of the commutator form (v,u,V,U)
        moves = []
        cur = free_reduce(w)
        guard = 0
        while True:
            for i in range(len(cur) - 1):
                if (cur[i] >> 1) > (cur[i + 1] >> 1):
                    u, v = cur[i], cur[i + 1]
                    form = (v, u, v ^ 1, u ^ 1)
                    moves.append((i, form))
                    cur = free_reduce(cur[:i] + form + cur[i:])
                    break
            else:
                break
            guard += 1
            if guard > 4 * len(w) * len(w) + 16:
                raise AssertionError("transposition sort failed to terminate")
        if cur:
            raise AssertionError("abelian certificate construction reached a nonzero word")
        return tuple(moves)

    def _bounded_search(self, w: Word, length_cap: int | None) -> OracleResult:
        cap = length_cap if length_cap is not None else (
            2 * len(w) + 2 * self.presentation.max_relator_length())
        spent = 0
        seen = {w: None}
        q = deque([w])
        while q:
            cur = q.popleft()
            for pos in range(len(cur) + 1):
                for form in self.forms:
                    spent += 1
                    if spent > self.budget:
                        return OracleResult("unknown", reason="budget exhausted")
                    nxt = free_reduce(cur[:pos] + form + cur[pos:])
                    if len(nxt) > cap or nxt in seen:
                        continue
                    seen[nxt] = (cur, pos, form)
                    if not nxt:
                        cert = []
                        node = nxt
                        while seen[node] is not None:
                            prev, p, f = seen[node]
                            cert.append((p, f))
                            node = prev
                        return OracleResult("trivial", tuple(reversed(cert)))
                    q.append(nxt)
        return OracleResult("nontrivial",
                            reason=f"insertion closure exhausted under length cap {cap}")


class GroupBall:
    """Ball of a given radius in a Cayley graph.

    vertices are 0..len-1 in shortlex discovery order (vertex 0 is the
    identity); ``words[v]`` is the shortlex-minimal geodesic word, and
    ``edges[v][sym]`` the target vertex or None when the move leaves the
    ball.  All edges between in-ball elements are present.
    """

    def __init__(self, presentation, radius, generators=None):
        self.presentation = presentation
        self.radius = radius
        self.generators = tuple(generators) if generators is not None \
            else presentation.alphabet.generator_indices()
        self.words: list = []
        self.edges: list = []
        self._key_index: dict = {}
        moves = set()
        for g in self.generators:
            moves.add(g)
            moves.add(g ^ 1)
        self._moves = tuple(sorted(moves))

    def __len__(self):
        return len(self.words)

    def word_of(self, v: int) -> Word:
        return self.words[v]

    def length_of(self, v: int) -> int:
        return len(self.words[v])

    def symbol_moves(self):
        # generator symbols and their inverses, in alphabet order
        return self._moves

    def evaluate(self, word: Word):
        """Walk a word from the identity; OUT_OF_BALL when any prefix leaves."""
        v = 0
        for sym in word:
            v = self.edges[v][sym]
            if v is None:
                return OUT_OF_BALL
        return v

    def prefix_vertices(self, word: Word) -> list:
        """Vertices of every prefix of the word, from the identity on;
        ValueError when a prefix leaves the ball."""
        verts = [0]
        for sym in word:
            v = self.edges[verts[-1]][sym]
            if v is None:
                raise ValueError("word leaves the ball; grow the radius")
            verts.append(v)
        return verts

    def neighbours(self, v: int):
        for sym in self.symbol_moves():
            t = self.edges[v][sym]
            if t is not None:
                yield sym, t


def build_ball(presentation: Presentation, radius: int,
               oracle: WordProblemOracle | None = None,
               generators=None) -> GroupBall:
    """Breadth-first ball construction with oracle identification.

    Raises OracleBudgetError when identification hits Unknown; the spec for
    that case is to abort loudly instead of returning a wrong ball.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if oracle is None:
        cap = 2 * radius + 2 * presentation.max_relator_length()
        oracle = WordProblemOracle(presentation, length_cap=cap)
    ball = GroupBall(presentation, radius, generators)
    nsyms = len(presentation.alphabet.symbols)
    moves = ball.symbol_moves()

    fast = oracle.canonical_key(()) is not None
    ball.words.append(())
    ball.edges.append([None] * nsyms)
    if fast:
        ball._key_index[oracle.canonical_key(())] = 0
    levels = [[0]]

    ab = presentation.alphabet

    def identify(candidate: Word, parent_level: int):
        # return existing vertex id or None (new / outside)
        if fast:
            return ball._key_index.get(oracle.canonical_key(candidate))
        vec = abelianization(ab, candidate)
        lo = max(0, parent_level - 1)
        hi = min(len(levels) - 1, parent_level + 1)
        for lvl in range(lo, hi + 1):
            for v in levels[lvl]:
                # equal elements may differ in exponents by any lattice vector
                diff = [x - y for x, y in
                        zip(vec, abelianization(ab, ball.words[v]))]
                if not _lattice_member(oracle.rel_ab, diff):
                    continue
                ans = oracle.decide_equal(candidate, ball.words[v])
                if ans.status == "unknown":
                    raise OracleBudgetError(
                        f"oracle budget exhausted identifying {ab.to_str(candidate)}")
                if ans.is_trivial:
                    return v
        return None

    for level in range(radius + 1):
        if level >= len(levels):
            break
        new_level: list = []
        for u in levels[level]:
            wu = ball.words[u]
            for sym in moves:
                if ball.edges[u][sym] is not None:
                    continue
                candidate = free_reduce(wu + (sym,))
                target = identify(candidate, level)
                if target is None and level < radius:
                    # fresh element one step further out
                    target = len(ball.words)
                    ball.words.append(candidate)
                    ball.edges.append([None] * nsyms)
                    if fast:
                        ball._key_index[oracle.canonical_key(candidate)] = target
                    if level + 1 >= len(levels):
                        levels.append([])
                    levels[level + 1].append(target)
                if target is not None:
                    ball.edges[u][sym] = target
                    ball.edges[target][sym ^ 1] = u
    return ball


def distance(ball: GroupBall, g: int, h: int):
    """Word length of g^-1 h when the ball certifies it; OUT_OF_BALL else.

    The BFS distance inside the ball upper-bounds the group distance; it is
    certified exact when d <= 2 (all edges between in-ball elements exist)
    or when (|g|+|h|+d)/2 <= radius, which forces every group geodesic to
    stay inside the ball.
    """
    if g == h:
        return 0
    dist = {g: 0}
    q = deque([g])
    found = False
    while q and not found:
        v = q.popleft()
        for _, t in ball.neighbours(v):
            if t not in dist:
                dist[t] = dist[v] + 1
                if t == h:
                    found = True
                    break
                q.append(t)
    if h not in dist:
        return OUT_OF_BALL
    d = dist[h]
    if d > ball.radius:
        # g^-1 h is not itself a ball element, which the contract rejects
        return OUT_OF_BALL
    if d <= 2 or ball.length_of(g) + ball.length_of(h) + d <= 2 * ball.radius:
        return d
    return OUT_OF_BALL


def geodesic_words(ball: GroupBall, g: int) -> list:
    """All geodesic words for an in-ball element, in lexicographic order."""
    memo: dict = {0: [()]}

    def rec(v):
        if v in memo:
            return memo[v]
        out = []
        lv = ball.length_of(v)
        for sym in ball.symbol_moves():
            p = ball.edges[v][sym]
            # predecessor via the inverse move: p --sym^-1--> v
            if p is not None and ball.length_of(p) == lv - 1:
                for w in rec(p):
                    out.append(w + (sym ^ 1,))
        out.sort()
        memo[v] = out
        return out

    return rec(g)


def is_geodesic(ball: GroupBall, word: Word) -> bool:
    v = ball.evaluate(word)
    if v is OUT_OF_BALL:
        raise ValueError("word leaves the ball; grow the radius")
    return ball.length_of(v) == len(word)


def ball_to_json(ball: GroupBall) -> str:
    ab = ball.presentation.alphabet
    data = {
        "radius": ball.radius,
        "count": len(ball),
        "generators": [ab.symbols[i] for i in ball.generators],
        "vertices": [
            {"id": v, "word": ab.to_str(ball.words[v]), "length": ball.length_of(v)}
            for v in range(len(ball))
        ],
        "edges": [
            {"from": v, "symbol": ab.symbols[sym], "to": t}
            for v in range(len(ball))
            for sym, t in sorted
            ((s, t) for s, t in enumerate(ball.edges[v]) if t is not None)
        ],
        "sphere_sizes": sphere_sizes(ball),
    }
    return json.dumps(data, indent=2, sort_keys=True)


def sphere_sizes(ball: GroupBall):
    sizes = [0] * (ball.radius + 1)
    for v in range(len(ball)):
        sizes[ball.length_of(v)] += 1
    return sizes
