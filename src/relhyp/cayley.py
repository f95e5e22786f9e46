"""Cayley balls built through a word-problem oracle.

The ball stores, per element, the shortlex-minimal geodesic word and the
full edge table between in-ball elements.  Elements are identified by
``WordProblemOracle.normal_form``, which rewrites with a shortlex
Knuth–Bendix completion of the presentation in the alphabet's symbol
order (a A b B ...).  A complete system rewrites every word to the
shortlex-least word for its element, which is the word the breadth-first
ball keeps, so that normal form is the element's key and every ball word
is its own normal form.  When completion does not finish within its rule
budget, ball construction aborts rather than guessing.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import count

from .words import Presentation, Word


class OracleBudgetError(RuntimeError):
    """Raised when a construction needs an answer the oracle cannot give."""


@dataclass(frozen=True)
class OracleResult:
    status: str  # "trivial" | "nontrivial" | "unknown"
    certificate: tuple = ()  # (rule table, rewrite chain) for "trivial"


def _enc(word: Word) -> str:
    # the engine's word: one character per symbol, so str order is shortlex
    # order within a length and substring search runs in C
    return "".join(map(chr, word))


def _apply(rules, word: str, steps, limit: int) -> str:
    for pos, rid in steps:
        if not 0 <= rid < limit:
            raise ValueError(f"step uses rule {rid}, not an earlier rule")
        lhs, rhs, _ = rules[rid]
        if pos < 0 or word[pos:pos + len(lhs)] != lhs:
            raise ValueError(f"rule {rid} does not apply at position {pos}")
        word = word[:pos] + rhs + word[pos + len(lhs):]
    return word


def replay_certificate(presentation: Presentation, word: Word,
                       certificate) -> Word:
    """Check a "trivial" certificate and return where its chain takes word.

    Every axiom must be s s^-1 -> ε or one of the presentation's relators
    -> ε, every other rule's peak must reach its two sides using earlier
    rules only, and the chain is then replayed on word.  ValueError on any
    step that does not hold.
    """
    rules, chain = certificate
    nsyms = len(presentation.alphabet.symbols)
    axioms = {_enc((s, s ^ 1)) for s in range(nsyms)}
    axioms.update(map(_enc, presentation.relators))
    for rid, (lhs, rhs, proof) in enumerate(rules):
        if proof is None:
            if rhs or lhs not in axioms:
                raise ValueError(f"rule {rid} is not an axiom of the presentation")
            continue
        w, left, right = proof
        if (_apply(rules, w, left, rid) != lhs
                or _apply(rules, w, right, rid) != rhs):
            raise ValueError(f"the peak of rule {rid} does not reach its sides")
    return tuple(map(ord, _apply(rules, _enc(word), chain, len(rules))))


class WordProblemOracle:
    """Normal forms by shortlex Knuth–Bendix completion.

    Completion runs once, at construction, and gives up rather than take
    the rule table past ``budget`` rules (Epstein et al., *Word Processing
    in Groups*, ch. 2; Sims, *Computation with Finitely Presented Groups*,
    ch. 2).  ``complete`` says whether it finished, and ``active_rules``
    how many rules it left active.  ``rules`` holds every rule ever made
    as (lhs, rhs, proof), indexed by its id; ids are never reused.  The
    axioms s s^-1 -> ε and relator -> ε have proof None.  Every other
    rule's proof is a peak (w, left steps, right steps), each step
    (position, earlier rule id), whose left steps take w to the lhs and
    right steps to the rhs.  Words in rules are str, one character
    chr(symbol) per symbol.

    ``normal_form`` is the one way to rewrite a word: completion, decide
    and build_ball all call it.  decide reads its verdict off the normal
    form: "trivial" when it is ε, with the rule table and the rewrite
    chain as certificate; "nontrivial" when it is nonempty and the system
    is complete; "unknown" otherwise.
    """

    def __init__(self, presentation: Presentation, budget: int = 500):
        self.presentation = presentation
        self.budget = budget
        self.rules: list = []
        self._lhs: dict = {}   # active lhs -> rule id
        self._lens: list = []  # lengths of the active lhs, ascending
        self.complete = self._complete()
        self.rules = tuple(self.rules)
        self.active_rules = len(self._lhs)

    def _complete(self) -> bool:
        # pending equations: (w, u, steps w -> u, v, steps w -> v)
        pending = deque()
        nsyms = len(self.presentation.alphabet.symbols)
        axioms = {(s, s ^ 1) for s in range(nsyms)}
        axioms.update(self.presentation.relators)
        for word in sorted(axioms, key=lambda w: (len(w), w)):
            lhs = _enc(word)
            self.rules.append((lhs, "", None))
            rid = len(self.rules) - 1
            if self.normal_form(lhs)[0] == lhs:
                self._activate(rid, pending)
            else:
                pending.append((lhs, lhs, [], "", [(0, rid)]))
        # each rule, once its turn comes and if still active, overlaps
        # with every active rule of smaller or equal id
        i = 0
        while True:
            while pending:
                if not self._settle(pending, *pending.popleft()):
                    return False
            if i == len(self.rules):
                return True
            if self._lhs.get(self.rules[i][0]) == i:
                for j in sorted(self._lhs.values()):
                    if j <= i:
                        self._overlaps(i, j, pending)
                        self._overlaps(j, i, pending)
            i += 1

    def _overlaps(self, i, j, pending):
        # a proper suffix of lhs i equals a proper prefix of lhs j
        l1, r1, _ = self.rules[i]
        l2, r2, _ = self.rules[j]
        for k in range(1, min(len(l1), len(l2))):
            if l1.endswith(l2[:k]):
                p = len(l1) - k
                pending.append((l1 + l2[k:], r1 + l2[k:], [(0, i)],
                                l1[:p] + r2, [(p, j)]))

    def _settle(self, pending, w, u, left, v, right) -> bool:
        """Turn one equation into a rule unless both sides rewrite to the
        same word; False when that would exceed the budget."""
        u, su = self.normal_form(u)
        v, sv = self.normal_form(v)
        if u == v:
            return True
        if (len(u), u) < (len(v), v):
            u, v, left, right, su, sv = v, u, right, left, sv, su
        if len(self.rules) >= self.budget:
            return False
        self.rules.append((u, v, (w, tuple(left + su), tuple(right + sv))))
        self._activate(len(self.rules) - 1, pending)
        return True

    def _activate(self, rid, pending):
        # retire every rule the new lhs rewrites; its equation comes back
        lhs = self.rules[rid][0]
        for other, oid in list(self._lhs.items()):
            rhs = self.rules[oid][1]
            if lhs in other or lhs in rhs:
                del self._lhs[other]
                pending.append((other, other, [], rhs, [(0, oid)]))
        self._lhs[lhs] = rid
        self._lens = sorted({len(x) for x in self._lhs})

    def normal_form(self, word: str, prefix: str = ""):
        """(normal form of prefix + word under the active rules, the steps
        taken); prefix must already be irreducible.

        Every redex of an irreducible word plus one symbol ends at that
        symbol, so only the suffixes of the output are looked up.
        """
        lhs, lens = self._lhs, self._lens
        out, steps = prefix, []
        while word:
            out += word[0]
            word = word[1:]
            n = len(out)
            for k in lens:
                if k > n:
                    break
                rid = lhs.get(out[n - k:])
                if rid is not None:
                    steps.append((n - k, rid))
                    word = self.rules[rid][1] + word
                    out = out[:n - k]
                    break
        return out, steps

    def decide(self, word: Word) -> OracleResult:
        nf, steps = self.normal_form(_enc(word))
        if not nf:
            return OracleResult("trivial", (self.rules, tuple(steps)))
        return OracleResult("nontrivial" if self.complete else "unknown")


class GroupBall:
    """Ball of a given radius in a Cayley graph.

    vertices are 0..len-1 in shortlex discovery order (vertex 0 is the
    identity); ``words[v]`` is the shortlex-minimal geodesic word, and
    ``edges[v][sym]`` the target vertex or None when the move leaves the
    ball.  All edges between in-ball elements are present.
    """

    def __init__(self, presentation, radius):
        self.presentation = presentation
        self.radius = radius
        self.words: list = []
        self.edges: list = []

    def __len__(self):
        return len(self.words)

    def length_of(self, v: int) -> int:
        return len(self.words[v])

    def symbol_moves(self):
        # every symbol, in alphabet order
        return range(len(self.presentation.alphabet.symbols))

    def evaluate(self, word: Word):
        """Walk a word from the identity; None when any prefix leaves."""
        v = 0
        for sym in word:
            v = self.edges[v][sym]
            if v is None:
                return None
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


def build_ball(presentation: Presentation, radius: int) -> GroupBall:
    """Breadth-first ball construction keyed by the oracle's normal forms.

    Raises OracleBudgetError, before building anything, when the oracle's
    completion did not finish: without a complete system, two words for
    one element could rewrite to different keys, and a wrong ball is worse
    than none.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    oracle = WordProblemOracle(presentation)
    if not oracle.complete:
        raise OracleBudgetError(
            f"Knuth-Bendix completion did not finish within its budget of "
            f"{oracle.budget} rules ({oracle.active_rules} active)")
    ball = GroupBall(presentation, radius)
    nsyms = len(presentation.alphabet.symbols)
    ball.words.append(())
    ball.edges.append([None] * nsyms)
    keys = [""]  # normal form of each vertex, in the oracle's encoding
    index = {"": 0}
    u = 0
    while u < len(ball.words):
        wu, ku, row = ball.words[u], keys[u], ball.edges[u]
        for sym in range(nsyms):
            if row[sym] is not None:
                continue
            key = oracle.normal_form(chr(sym), ku)[0]
            target = index.get(key)
            if target is None and len(wu) < radius:
                # fresh element one step further out
                target = len(ball.words)
                ball.words.append(wu + (sym,))
                ball.edges.append([None] * nsyms)
                keys.append(key)
                index[key] = target
            if target is not None:
                row[sym] = target
                ball.edges[target][sym ^ 1] = u
        u += 1
    return ball


def _vertex_map(edges, pi):
    """The ball map sigma with sigma(0) = 0 that carries each s-edge to a
    pi(s)-edge, or None at the first edge where none can."""
    sigma = [-1] * len(edges)
    sigma[0] = 0
    for v, row in enumerate(edges):
        image = edges[sigma[v]]
        for s, t in enumerate(row):
            mapped = image[pi[s]]
            if t is None or mapped is None:
                if t is not mapped:
                    return None
            elif sigma[t] < 0:
                sigma[t] = mapped
            elif sigma[t] != mapped:
                return None
    return tuple(sigma)


def inversion_automorphisms(ball: GroupBall) -> list:
    """The ball's vertex maps sigma that invert a subset of the generators.

    Each nonempty subset gives a letter map pi: s -> s ^ 1 on its letters,
    s -> s elsewhere.  One pass in vertex order extends sigma(0) = 0 by
    sigma(edges[v][s]) = edges[sigma(v)][pi(s)] and rejects pi at the first
    edge that leaves the ball on one side only or whose image disagrees
    with an earlier one.  The ball is breadth first, so every vertex but 0
    is reached from a smaller one and a pass that finishes defines sigma
    everywhere.  Then sigma carries each s-edge to a pi(s)-edge, and every
    edge of an image vertex is the image of an edge; so the image is closed
    under moves, hence the whole connected ball, and sigma is a bijection:
    an automorphism of the ball's graph.  The identity (a generator of
    order 2 inverts to itself) and repeats are dropped.  sigma[v] is the
    image of v.
    """
    seen = {tuple(range(len(ball)))}
    out = []
    for subset in range(1, 1 << len(ball.presentation.alphabet.generators)):
        pi = [s ^ (subset >> (s >> 1) & 1) for s in ball.symbol_moves()]
        sigma = _vertex_map(ball.edges, pi)
        if sigma is not None and sigma not in seen:
            seen.add(sigma)
            out.append(sigma)
    return out


def distance(ball: GroupBall, g: int, h: int):
    """Word length of g^-1 h when the ball certifies it; None else.

    The BFS distance inside the ball upper-bounds the group distance; it is
    certified exact when d <= 2 (all edges between in-ball elements exist)
    or when (|g|+|h|+d)/2 <= radius, which forces every group geodesic to
    stay inside the ball.

    The BFS is its own, not a ``least_costs`` sweep: it answers one pair
    and stops once h is reached, where the sweep sets up masks over the
    whole ball.  Through the sweep, 300 random pairs on F2 rel <b> at
    radius 6 took about four times as long (2 cores, CPython 3.11).
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
        return None
    d = dist[h]
    if d > ball.radius:
        # g^-1 h is not itself a ball element, which the contract rejects
        return None
    if d <= 2 or ball.length_of(g) + ball.length_of(h) + d <= 2 * ball.radius:
        return d
    return None


def least_costs(ball: GroupBall, costs: dict, sources, targets,
                allowed=None):
    """rows[i][j]: least cost of a path from sources[i] to targets[j]
    through the vertices ``allowed`` (None: the whole ball); math.inf when
    there is none.  A move sym costs ``costs[sym]``, a nonnegative int,
    and moves not in ``costs`` are not taken.  Costs are nonnegative, so a
    cycle never helps and the least cost over walks is the least over
    simple paths.  ValueError when a target repeats.

    One level sweep serves every source: bit i of mask[v] means "sources[i]
    reaches v at cost <= d".  Level d ORs level d - c of each in-neighbour
    over a move of cost c >= 1 into the masks of level d - 1, then
    closes them over cost-0 moves.  An entry is the level at which its bit
    first reaches the target, and later levels never change it; so the
    sweep stops once every entry is found, or once c_max (the largest
    cost) levels in a row add no bit, since then no later level can
    (c_max = 0: level 0 is the last).
    """
    slot = {t: j for j, t in enumerate(targets)}
    if len(slot) < len(targets):
        raise ValueError("a target repeats")
    c_max = max(costs.values(), default=0)
    out = {v: [[] for _ in range(c_max + 1)]
           for v in (range(len(ball)) if allowed is None else allowed)}
    for v, by_cost in out.items():
        for sym, c in costs.items():
            if (t := ball.edges[v][sym]) in out:
                by_cost[c].append(t)
    mask = dict.fromkeys(out, 0)
    rows = [[math.inf] * len(targets) for _ in sources]
    left = len(sources) * len(targets)  # entries not yet found
    history = deque(maxlen=c_max)  # the masks that levels d-1, d-2, ... grew
    stack = [(s, 1 << i) for i, s in enumerate(sources) if s in out]
    for d in count():
        grown = {}  # vertex -> its mask before level d
        while stack:
            t, m = stack.pop()
            if m | mask[t] != mask[t]:
                grown.setdefault(t, mask[t])
                mask[t] |= m
                stack.extend((u, mask[t]) for u in out[t][0])
        for v in grown.keys() & slot.keys():
            j, new = slot[v], mask[v] & ~grown[v]
            left -= new.bit_count()
            while new:
                low = new & -new
                rows[low.bit_length() - 1][j] = d
                new ^= low
        history.append({v: mask[v] for v in grown})
        if not left or not any(history):
            return rows
        stack = [(t, m) for c, level in enumerate(reversed(history), 1)
                 for v, m in level.items() for t in out[v][c]]


def geodesic_words(ball: GroupBall, g: int, limit: int):
    """(count, words): the number of geodesic words of g and the first
    ``limit`` in lexicographic order, by two passes over the interval [1, g].
    Counts sum those one sphere closer, once per move, so a torsion pair
    a, A with a^2 = 1 counts twice (Epstein et al., *Word Processing in
    Groups*, ch. 2).  The listing walks depth first from the identity and
    never dead-ends, since every interval vertex reaches g; so the cost
    follows the interval and the limit, not the count.
    """
    edges, length, moves = ball.edges, ball.length_of, ball.symbol_moves()

    def inward(v):  # v's neighbours one sphere closer, once per move
        return [p for p in map(edges[v].__getitem__, moves)
                if p is not None and length(p) == length(v) - 1]

    spheres = [{g}]  # the interval, sphere by sphere from g inwards
    for _ in range(length(g)):
        spheres.append({p for v in spheres[-1] for p in inward(v)})
    count = {0: 1}
    for sphere in reversed(spheres[:-1]):
        count.update((v, sum(count[p] for p in inward(v))) for v in sphere)
    words, stack = [], [(0, ())]
    while stack and len(words) < limit:
        u, w = stack.pop()
        if u == g:
            words.append(w)
        else:
            stack += [(t, w + (sym,)) for sym in reversed(moves) if
                      (t := edges[u][sym]) in count and length(t) == len(w) + 1]
    return count[g], words


def sphere_sizes(ball: GroupBall):
    sizes = [0] * (ball.radius + 1)
    for v in range(len(ball)):
        sizes[ball.length_of(v)] += 1
    return sizes
