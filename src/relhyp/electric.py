"""Electric geometry of a group relative to parabolic subgroups.

Parabolic letters are free: the electric length of a word counts only the
letters outside every parabolic family, parabolic edges have weight zero
for electric geodesics, and the electric area of a loop counts only the
non-parabolic relator insertions needed to contract it.

Cosets are tracked per family.  Inside a ball the cosets of a family are
the connected components of the subgraph of edges labelled by that
family's symbols; this is valid whenever in-ball coset intersections are
connected, which holds for the shipped example groups.  The coset id is
the smallest member vertex, i.e. the shortlex-least coset representative.
"""

from __future__ import annotations

import random
from collections import deque, namedtuple
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate, groupby

from .cayley import GroupBall, build_ball, distance, least_costs
from .words import Presentation, Word, free_reduce, relator_forms, word_inverse


@dataclass(frozen=True)
class ParabolicFamily:
    name: str
    generators: tuple  # generator symbol indices (even) into the alphabet
    relators: tuple = ()

    def symbols(self):
        out = set()
        for g in self.generators:
            out.add(g)
            out.add(g ^ 1)
        return out


@dataclass(frozen=True)
class RelativePresentation:
    base: Presentation
    families: tuple = ()

    def __post_init__(self):
        gen_idx = set(self.base.alphabet.generator_indices())
        seen = set()
        for fam in self.families:
            if not fam.generators:
                raise ValueError(f"family {fam.name!r} has no generators")
            for g in fam.generators:
                if g not in gen_idx:
                    raise ValueError(f"family {fam.name!r}: {g} is not a generator index")
                if g in seen:
                    raise ValueError(f"generator {g} in two parabolic families")
                seen.add(g)
            syms = fam.symbols()
            for r in fam.relators:
                if r not in self.base.relators:
                    raise ValueError(f"family relator {r} missing from the presentation")
                if not set(r) <= syms:
                    raise ValueError(f"family relator {r} uses outside letters")
        # symbol -> family index (None for free letters), and family index
        # -> its ball as grown so far; not fields, so equality, hashing and
        # serialization see only base and families
        table = [None] * len(self.base.alphabet.symbols)
        for i, fam in enumerate(self.families):
            for sym in fam.symbols():
                table[sym] = i
        object.__setattr__(self, "_symbol_family", tuple(table))
        object.__setattr__(self, "_family_balls", {})

    def family_of_symbol(self, sym: int):
        return self._symbol_family[sym]

    def parabolic_relators(self):
        out = set()
        for fam in self.families:
            out |= set(fam.relators)
        return out

    def nonparabolic_relators(self):
        par = self.parabolic_relators()
        return tuple(r for r in self.base.relators if r not in par)


def electric_length(rp: RelativePresentation, word: Word) -> int:
    return sum(1 for sym in word if rp._symbol_family[sym] is None)


def coset_table(ball: GroupBall, rp: RelativePresentation):
    """Per family, the coset id of every ball vertex."""
    tables = []
    for fam in rp.families:
        syms = fam.symbols()
        comp = [None] * len(ball)
        for v in range(len(ball)):
            if comp[v] is not None:
                continue
            comp[v] = v
            q = deque([v])
            while q:
                u = q.popleft()
                for sym in syms:
                    t = ball.edges[u][sym]
                    if t is not None and comp[t] is None:
                        comp[t] = v
                        q.append(t)
        tables.append(comp)
    return tables


Penetration = namedtuple("Penetration", "family coset enter leave")


def penetrations(ball: GroupBall, rp: RelativePresentation, word: Word,
                 table=None) -> list:
    """Maximal coset visits along the prefix path, per family, in time order.

    Every prefix time sits in exactly one coset of each family, so the
    visits of a family are the runs of its coset sequence; the trivial
    coset at t=0 always contributes.
    """
    if table is None:
        table = coset_table(ball, rp)
    verts = ball.prefix_vertices(word)
    out = []
    for fi in range(len(rp.families)):
        runs = []
        for t, v in enumerate(verts):
            c = table[fi][v]
            if runs and runs[-1][1] == c:
                runs[-1][3] = t
            else:
                runs.append([fi, c, t, t])
        out.extend(runs)
    out.sort(key=lambda r: (r[2], r[0]))
    return [Penetration(*r) for r in out]


def _family_ball(rp: RelativePresentation, fi: int, radius: int) -> GroupBall:
    """Ball of family fi's group P, presented as the quotient of the whole
    alphabet that kills every other generator: P * F(others) / <<others>>
    is P.  Outside letters are self-loops; a shortlex-least word never
    contains a letter equal to 1, so words and family edges are those of
    P's own Cayley ball."""
    fam = rp.families[fi]
    alphabet = rp.base.alphabet
    killed = tuple((g,) for g in alphabet.generator_indices()
                   if g not in fam.generators)
    return build_ball(Presentation(alphabet, fam.relators + killed), radius)


def _family_step(rp: RelativePresentation, fi: int, v: int, sym: int) -> int:
    """The vertex of v times sym in the ball of family fi, kept on rp.

    A step that leaves the ball rebuilds it at twice the radius, so a run
    of length L costs O(log L) rebuilds.  Ball vertex ids and words are
    breadth-first and do not depend on the radius, so v stays valid.
    """
    fb = rp._family_balls.get(fi)
    t = None if fb is None else fb.edges[v][sym]
    if t is None:
        radius = 2 * fb.radius if fb is not None else 2
        fb = rp._family_balls[fi] = _family_ball(rp, fi, radius)
        t = fb.edges[v][sym]
    return t


def _reduce_runs(rp: RelativePresentation, word: Word):
    """Replace each maximal single-family run by its shortlex word in the
    family ball.

    Returns (reduced word, changed); changed lists (start, stop,
    replacement) for every run whose word changed, with start and stop
    taken after the replacements to their left, so that applying the
    list in order turns the word into the reduced word.
    """
    out = []
    changed = []
    for fi, run in groupby(word, rp._symbol_family.__getitem__):
        seg = tuple(run)
        if fi is not None:
            v = 0
            for sym in seg:
                v = _family_step(rp, fi, v, sym)
            rep = rp._family_balls[fi].words[v]
            if rep != seg:
                changed.append((len(out), len(out) + len(seg), rep))
                seg = rep
        out.extend(seg)
    return tuple(out), changed


def coset_reduce(rp: RelativePresentation, word: Word) -> Word:
    """Replace every maximal parabolic run by its shortlex parabolic geodesic.

    Preserves the evaluation, the electric length and the electric area;
    non-parabolic letters are never touched (in particular no free
    reduction happens across run boundaries).
    """
    return _reduce_runs(rp, word)[0]


def _edge_weight(rp: RelativePresentation, sym: int) -> int:
    return 0 if rp._symbol_family[sym] is not None else 1


def electric_geodesic_tree(ball: GroupBall, rp: RelativePresentation,
                           source: int):
    """Canonical electric geodesic words from a source to every vertex.

    Dijkstra keyed on (electric length, shortlex of the word), so each
    vertex settles with the unique minimum: least electric length, then
    shortest, then lexicographically first.
    """
    words: list = [None] * len(ball)
    heap = [(0, 0, (), source)]
    while heap:
        edist, _, word, v = heappop(heap)
        if words[v] is not None:
            continue
        words[v] = (edist, word)
        for sym, t in ball.neighbours(v):
            if words[t] is None:
                nw = word + (sym,)
                heappush(heap, (edist + _edge_weight(rp, sym), len(nw), nw, t))
    return words


def electric_geodesic(ball, rp: RelativePresentation, target: int) -> Word:
    tree = electric_geodesic_tree(ball, rp, 0)
    if tree[target] is None:
        raise ValueError("target not reachable inside the ball")
    return tree[target][1]


def _first_nongeodesic_segment(ball, rp, word, k):
    """Smallest window (then leftmost) with el <= k that fails to be an
    electric geodesic; None when the word is k-locally geodesic, every
    subword of el <= k realizing the electric distance between its end
    vertices inside the ball.  One ``least_costs`` sweep, parabolic moves
    costing 0 and the others 1, gives those distances between all prefix
    vertices."""
    verts = ball.prefix_vertices(word)
    prefix_el = list(accumulate((_edge_weight(rp, sym) for sym in word),
                                initial=0))
    stops = list(dict.fromkeys(verts))
    at = [stops.index(v) for v in verts]
    costs = {sym: _edge_weight(rp, sym) for sym in ball.symbol_moves()}
    dist = least_costs(ball, costs, stops, stops)
    n = len(word)
    for width in range(1, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            el = prefix_el[j] - prefix_el[i]
            if el <= k and dist[at[i]][at[j]] < el:
                return i, j
    return None


# ---------------------------------------------------------------------------
# electric area

def _canonical_splice(rp: RelativePresentation, left: Word, middle: Word,
                      right: Word) -> Word:
    """Normal form of left + middle + right in the free product of the
    parabolics with the remaining free letters (Lyndon-Schupp IV.1).

    Precondition: left + right is already in normal form, i.e. freely
    reduced with every maximal single-family run equal to its word in the
    family ball.  With left and right empty this is the normal form of
    any word.

    One pass over a stack: a free letter cancels the free inverse on top
    or is pushed; a family letter moves the vertex of the trailing
    syllable of its family (found by scanning back over that run) in the
    family ball, and the syllable is dropped when it reaches the identity.
    Once middle is consumed, the pass stops at the first letter of right
    that starts a syllable of left + right and does not interact with the
    top (it is neither in the top's family nor the inverse of a free top),
    and appends the rest of right unchanged.  That is exact: a suffix of a
    normal form that starts at a syllable boundary consists of whole
    syllables, so it is a normal form, and nothing cancels or merges where
    it meets the stack.
    """
    fam = rp._symbol_family
    balls = rp._family_balls
    out = list(left)
    top = None  # family of the open syllable; its letters are not in out
    v = 0  # the open syllable's vertex in that family's ball
    prev = fam[left[-1]] if left else None  # family of the letter before
    m = len(middle)
    for j, sym in enumerate(middle + right):
        f = fam[sym]
        if j >= m:
            starts = f is None or f != prev
            prev = f
            if starts:
                if top is not None:
                    touches = f == top
                elif out:
                    touches = (out[-1] == sym ^ 1 if f is None
                               else fam[out[-1]] == f)
                else:
                    touches = False
                if not touches:
                    if top is not None:
                        out.extend(balls[top].words[v])
                    out.extend(right[j - m:])
                    return tuple(out)
        if f is None:
            if top is not None:
                out.extend(balls[top].words[v])
                top = None
            if out and out[-1] == sym ^ 1:
                out.pop()
            else:
                out.append(sym)
            continue
        if top != f:
            if top is not None:
                out.extend(balls[top].words[v])
            # reopen the trailing syllable of family f, if there is one
            i = len(out)
            while i and fam[out[i - 1]] == f:
                i -= 1
            v = 0
            for s in out[i:]:
                v = _family_step(rp, f, v, s)
            del out[i:]
            top = f
        v = _family_step(rp, f, v, sym)
        if v == 0:
            top = None
    if top is not None:
        out.extend(balls[top].words[v])
    return tuple(out)


def electric_area_exact(rp: RelativePresentation, word: Word, n_max: int,
                        node_budget: int = 500_000):
    """Least number of non-parabolic relator insertions contracting the loop.

    Parabolic relator moves and free reductions cost nothing: every word
    the search holds is in free-product normal form, and each insertion is
    reduced only at its seam, from the insertion point until the inserted
    form stops interacting with the rest of the word.  Inserting a relator
    form is an undirected move (the forms are closed under inversion), so
    the search runs bidirectionally, from the loop and from the empty
    word, meeting in the middle.  Intermediate words are capped at
    len(w) + 2 * max non-parabolic relator length, which is the honest
    approximation boundary: derivations needing longer intermediates are
    not found.  Returns the area, or None when nothing is found within
    n_max insertions and the node budget.
    """
    forms = relator_forms(rp.nonparabolic_relators())
    if not forms:
        raise ValueError("no non-parabolic relators to insert")
    start = _canonical_splice(rp, (), tuple(word), ())
    if not start:
        return 0
    cap = len(start) + 2 * max(len(f) for f in forms)
    dist = [{start: 0}, {(): 0}]
    frontier = [[start], [()]]
    depth = [0, 0]
    best = None
    nodes = 0
    while True:
        if best is not None and depth[0] + depth[1] >= best:
            return best
        if depth[0] + depth[1] >= n_max:
            return best if best is not None and best <= n_max else None
        side = 0 if len(frontier[0]) <= len(frontier[1]) else 1
        if not frontier[side]:
            side = 1 - side
        if not frontier[side]:
            return best
        other = 1 - side
        depth[side] += 1
        nxt = []
        for cur in frontier[side]:
            for pos in range(len(cur) + 1):
                for form in forms:
                    nodes += 1
                    if nodes > node_budget:
                        return best
                    cand = _canonical_splice(rp, cur[:pos], form, cur[pos:])
                    if len(cand) > cap or cand in dist[side]:
                        continue
                    dist[side][cand] = depth[side]
                    nxt.append(cand)
                    if cand in dist[other]:
                        total = depth[side] + dist[other][cand]
                        if best is None or total < best:
                            best = total
        frontier[side] = nxt


def electric_area_upper(ball, rp: RelativePresentation, word: Word, k: int):
    """Certified upper bound for the electric area of a loop.

    Alternates coset reduction with electric length reduction: the minimal
    non-geodesic segment beta (el <= k) is replaced by an electric geodesic
    xi, paying the exact area of the inserted loop beta xi^-1 (el < 2k);
    the terminal k-local geodesic loop pays its exact area.  Each exact
    area is an ``electric_area_exact`` search with n_max 16.  Returns
    (bound, moves) where the move list replays to the bound; None when one
    of the small exact searches gives up.
    """
    v_end = ball.evaluate(word)
    if v_end is None:
        raise ValueError("word leaves the ball; grow the radius")
    if v_end != 0:
        raise ValueError("electric area needs a loop")
    cur = tuple(word)
    moves = []
    total = 0
    while True:
        cur, changed = _reduce_runs(rp, cur)
        moves.extend({"op": "coset-reduce", "start": i, "stop": j,
                      "replacement": rep} for i, j, rep in changed)
        if not cur:
            break
        seg = _first_nongeodesic_segment(ball, rp, cur, k)
        if seg is None:
            cost = electric_area_exact(rp, cur, 16)
            if cost is None:
                return None
            total += cost
            moves.append({"op": "terminal-loop", "word": cur, "cost": cost})
            break
        i, j = seg
        verts = ball.prefix_vertices(cur)
        tree = electric_geodesic_tree(ball, rp, verts[i])
        xi = tree[verts[j]][1]
        loop = free_reduce(tuple(cur[i:j]) + word_inverse(xi))
        cost = electric_area_exact(rp, loop, 16)
        if cost is None:
            return None
        total += cost
        moves.append({"op": "length-reduce", "start": i, "stop": j,
                      "replacement": xi, "loop": loop, "cost": cost})
        cur = cur[:i] + xi + cur[j:]
    return total, moves


def _bcp_walk(ball, rp: RelativePresentation, word: Word, table):
    """Prefix vertices of a word and its penetrations grouped by
    (family, coset), groups in order of first visit."""
    by = {}
    for p in penetrations(ball, rp, word, table):
        by.setdefault((p.family, p.coset), []).append(p)
    return ball.prefix_vertices(word), by


def _bcp_pair(ball, walk1, walk2):
    """(ok, entry gap, exit gap, travel) of one pair of walks.  ok is
    False once a distance leaves the ball's certificate; the maxima then
    cover the cosets scanned before it."""
    verts1, by1 = walk1
    verts2, by2 = walk2
    entry_gap = exit_gap = travel = 0
    for key in set(by1) | set(by2):
        if key in by1 and key in by2:
            a_in = verts1[min(p.enter for p in by1[key])]
            b_in = verts2[min(p.enter for p in by2[key])]
            a_out = verts1[max(p.leave for p in by1[key])]
            b_out = verts2[max(p.leave for p in by2[key])]
            d_in = distance(ball, a_in, b_in)
            d_out = distance(ball, a_out, b_out)
            if d_in is None or d_out is None:
                return False, entry_gap, exit_gap, travel
            entry_gap = max(entry_gap, d_in)
            exit_gap = max(exit_gap, d_out)
        else:
            pens = by1.get(key, by2.get(key))
            verts = verts1 if key in by1 else verts2
            for p in pens:
                d = distance(ball, verts[p.enter], verts[p.leave])
                if d is None:
                    return False, entry_gap, exit_gap, travel
                travel = max(travel, d)
    return True, entry_gap, exit_gap, travel


def bcp_scan(ball, rp: RelativePresentation, samples: int, seed: int,
             identical: bool = False):
    """Empirical bounded-coset-penetration constants.

    Samples pairs of electric geodesic words (the (1, 0) case of the
    paper's electric quasi-geodesics) whose endpoints are at distance
    <= 1, and reports the worst gap between first-entry vertices and
    last-exit vertices over shared cosets, and the worst in-coset travel
    over cosets only one of the two penetrates.  With ``identical`` the
    second word of each pair is the first (control row).

    The draws are those of a plain per-sample loop: a pool vertex g, then
    one of its in-pool neighbours or g itself.  But each vertex's walk and
    each distinct pair's effect are computed once and replayed.  Every
    total is a maximum of ints, so replaying an effect is the same as
    recomputing it, and a pair that leaves the ball still adds the
    maxima scanned before it.
    """
    rng = random.Random(seed)
    max_radius = max(0, ball.radius - 2)
    table = coset_table(ball, rp)
    tree = electric_geodesic_tree(ball, rp, 0)
    pool = [v for v in range(len(ball)) if ball.length_of(v) <= max_radius]
    choices = {}  # g -> its in-pool neighbours, then g
    walks = {}  # v -> _bcp_walk of v's tree word
    effects = {}  # (g, h) -> _bcp_pair of their walks
    entry_gap = exit_gap = travel = 0
    skipped = 0
    pairs = 0
    for _ in range(samples):
        g = rng.choice(pool)
        if identical:
            h = g
        else:
            if g not in choices:
                choices[g] = [t for _, t in ball.neighbours(g)
                              if ball.length_of(t) <= max_radius] + [g]
            h = rng.choice(choices[g])
        effect = effects.get((g, h))
        if effect is None:
            for v in (g, h):
                if v not in walks:
                    walks[v] = _bcp_walk(ball, rp, tree[v][1], table)
            effect = effects[g, h] = _bcp_pair(ball, walks[g], walks[h])
        ok, d_in, d_out, d_travel = effect
        entry_gap = max(entry_gap, d_in)
        exit_gap = max(exit_gap, d_out)
        travel = max(travel, d_travel)
        if ok:
            pairs += 1
        else:
            skipped += 1
    return {
        "pairs": pairs,
        "skipped": skipped,
        "max_entry_gap": entry_gap,
        "max_exit_gap": exit_gap,
        "max_unilateral_travel": travel,
    }
