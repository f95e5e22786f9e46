"""Cusp complexes: depth-layered weighted graphs over a Cayley ball.

A cusp complex stacks scaled copies of the base graph: the copy at depth
i has horizontal edges of length psi^-i and is tied to the next copy by
vertical edges of length omega*ln(psi).  All logs are natural: the
closed-form geodesic length comes from differentiating psi^-D, whose
derivative carries ln(psi), so no other base is consistent.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import itemgetter

from .cayley import GroupBall
from .electric import RelativePresentation


@dataclass(frozen=True)
class CuspParams:
    psi: float
    omega: float | None = None  # defaults to 1/psi
    depth_cap: int = 4

    def __post_init__(self):
        if not self.psi > 1:
            raise ValueError("psi must exceed 1")
        if self.omega is None:
            object.__setattr__(self, "omega", 1.0 / self.psi)
        if not self.omega > 0:
            raise ValueError("omega must be positive")
        if self.depth_cap < 0:
            raise ValueError("depth_cap >= 0 required")

    def horizontal_length(self, depth: int) -> float:
        return self.psi ** (-depth)

    def vertical_length(self) -> float:
        return self.omega * math.log(self.psi)


class CuspComplex:
    """Weighted graph with one depth per vertex.  Vertices are numbered in
    insertion order; builders insert base-vertex-major so the numbering is
    reproducible, and each key is a tuple that starts with its base
    vertex."""

    def __init__(self, params: CuspParams):
        self.params = params
        self.ids: dict = {}
        self.keys: list = []
        self.depth: list = []
        self.adj: list = []

    def __len__(self):
        return len(self.keys)

    def add_vertex(self, key, depth: int) -> int:
        if key in self.ids:
            raise ValueError(f"duplicate vertex {key}")
        vid = len(self.keys)
        self.ids[key] = vid
        self.keys.append(key)
        self.depth.append(depth)
        self.adj.append([])
        return vid

    def add_edge(self, u: int, v: int, length: float):
        if u == v:
            return  # self-loops never matter for the metric
        self.adj[u].append((v, length))
        self.adj[v].append((u, length))

    def n_edges(self) -> int:
        return sum(map(len, self.adj)) // 2

    def lift(self, sigma) -> list:
        """The vertex map induced by sigma, a map of base vertices: each
        key's base vertex goes to its image, and the rest of the key (the
        depth, and the family of a cusp vertex) stays.  When sigma is an
        automorphism of the base ball whose letter map sends each family's
        symbol set onto itself, as a generator inversion does, the lift
        maps every edge to an edge of the same length."""
        ids = self.ids
        return [ids[(sigma[key[0]],) + key[1:]] for key in self.keys]


def _base_edges(ball: GroupBall, moves):
    """Each in-ball edge over the given moves once, as (u, v) with u < v,
    in ascending order; self-loops are dropped."""
    seen = set()
    for u in range(len(ball)):
        for sym in moves:
            v = ball.edges[u][sym]
            if v is not None and v != u:
                seen.add((min(u, v), max(u, v)))
    return sorted(seen)


def build_cusp_complex(h_ball: GroupBall, params: CuspParams) -> CuspComplex:
    """Full cusp complex over the subgroup's own Cayley ball: every layer
    repeats all base edges, scaled by depth."""
    cx = CuspComplex(params)
    n_levels = params.depth_cap + 1
    for b in range(len(h_ball)):
        for i in range(n_levels):
            cx.add_vertex((b, i), i)
    for u, v in _base_edges(h_ball, h_ball.symbol_moves()):
        for i in range(n_levels):
            cx.add_edge(cx.ids[u, i], cx.ids[v, i], params.horizontal_length(i))
    for b in range(len(h_ball)):
        for i in range(params.depth_cap):
            cx.add_edge(cx.ids[b, i], cx.ids[b, i + 1], params.vertical_length())
    return cx


def build_cusped_cayley(g_ball: GroupBall, rp: RelativePresentation,
                        params: CuspParams) -> CuspComplex:
    """Cayley ball of the whole group with a cusp hanging below every
    parabolic coset: depth 0 keeps all edges at length 1; deeper layers
    only repeat the coset's own parabolic edges, scaled; vertical edges
    join consecutive copies of each coset vertex."""
    cx = CuspComplex(params)
    for b in range(len(g_ball)):
        cx.add_vertex((b,), 0)
    for u, v in _base_edges(g_ball, g_ball.symbol_moves()):
        cx.add_edge(cx.ids[(u,)], cx.ids[(v,)], 1.0)
    for fi, fam in enumerate(rp.families):
        for b in range(len(g_ball)):
            for i in range(1, params.depth_cap + 1):
                cx.add_vertex((b, fi, i), i)
        for b in range(len(g_ball)):
            below = cx.ids[(b,)]
            for i in range(1, params.depth_cap + 1):
                here = cx.ids[b, fi, i]
                cx.add_edge(below, here, params.vertical_length())
                below = here
        for u, v in _base_edges(g_ball, fam.symbols()):
            for i in range(1, params.depth_cap + 1):
                cx.add_edge(cx.ids[u, fi, i], cx.ids[v, fi, i],
                            params.horizontal_length(i))
    return cx


def distance_row(adj, src):
    """Distances from src to every vertex, inf where unreached.

    A lazy-deletion Dijkstra over one ``best`` list: a candidate is pushed
    only when it beats the best one so far, and a popped entry above its
    vertex's best is stale.  Each vertex settles once, at the minimum of
    its candidate sums, in (distance, id) order."""
    best = [math.inf] * len(adj)
    best[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, x = heappop(heap)
        if d > best[x]:
            continue
        for y, w in adj[x]:
            nd = d + w
            if nd < best[y]:
                best[y] = nd
                heappush(heap, (nd, y))
    return best


class DistanceRows:
    """The distance rows of one weighted graph, each built once, as
    array('d') (the doubles of ``distance_row``'s list in a quarter of its
    memory), with the tie-broken geodesics and one-sided Hausdorff gaps
    read off them.  d(u, v) is always read from u's own row: float sums
    along different search orders can differ from d(v, u) in the last
    bits, and no result may depend on that.

    Rows are shared across ``automorphisms``: vertex permutations p that
    map every edge to an edge of the same length, such as the lifts of a
    ball's generator inversions (``CuspComplex.lift``).  When v needs a row
    and some p[v] has one, v's row is that row read through p; otherwise
    ``distance_row`` computes it.  A mapped row is exact, bit for bit.
    ``distance_row(adj, s)[u]`` is the least, over paths from s to u, of
    the float sum of the edge lengths taken left to right from 0.0: adding
    a nonnegative float never lowers a value and is monotone, so lazy
    Dijkstra settles exactly that least value, whatever its search order.
    p maps the paths from v to u onto the paths from p[v] to p[u] with the
    same length sequences, so ``rows[p[v]][p[u]] == rows[v][u]``.
    """

    def __init__(self, adj, automorphisms=()):
        self._adj = adj
        self._automorphisms = automorphisms
        self._rows = [None] * len(adj)
        self._parents = [None] * len(adj)  # walk-back memo per source row

    def __getitem__(self, v):
        row = self._rows[v]
        if row is None:
            # a shared library (about 0.17 MiB of RSS): only rows load it
            from array import array
            for p in self._automorphisms:
                known = self._rows[p[v]]
                if known is not None:
                    row = array("d", map(known.__getitem__, p))
                    break
            else:
                row = array("d", distance_row(self._adj, v))
            self._rows[v] = row
        return row

    def path(self, src, dst):
        """The tie-broken geodesic from src to dst, None when dst is
        unreachable: walk back from dst along tight edges of src's row,
        smallest vertex id first, each step strictly lowering the distance
        so that near-zero edges cannot cycle.  A step depends on the row
        and its vertex alone, so each source memoises its steps; the
        smallest-id tie-break is not invariant under automorphisms."""
        dist = self[src]
        if dist[dst] == math.inf:
            return None
        parent = self._parents[src]
        if parent is None:
            from array import array
            parent = self._parents[src] = array("i", [-1]) * len(dist)
        adj = self._adj
        path = [dst]
        cur = dst
        while cur != src:
            best = parent[cur]
            if best < 0:
                dc = dist[cur]
                for y, w in adj[cur]:
                    dy = dist[y]
                    if (dy < dc and abs(dy + w - dc) < 1e-9
                            and (best < 0 or y < best)):
                        best = y
                if best < 0:
                    raise ValueError("no tight predecessor; disconnected?")
                parent[cur] = best
            path.append(best)
            cur = best
        path.reverse()
        return path

    def gap(self, path, targets, worst):
        """max(worst, the one-sided Hausdorff distance from path to the
        nonempty set targets).  It skips, exactly, u in targets (gap 0) and
        u with d(u, e) <= worst for a target e, which bounds u's gap; e is
        read at both ends of path, or at some target for an end off it."""
        rows = self._rows
        anchor = next(iter(targets))
        pick = itemgetter(*targets, anchor)  # always returns a tuple
        x = path[0] if path[0] in targets else anchor
        y = path[-1] if path[-1] in targets else anchor
        for u in path:
            if u in targets:
                continue
            du = rows[u]
            if du is None:
                du = self[u]
            if du[x] <= worst or du[y] <= worst:
                continue
            worst = max(worst, min(pick(du)))
        return worst


def optimal_depth(shadow_length: float, params: CuspParams) -> float:
    if shadow_length <= 0:
        raise ValueError("shadow length must be positive")
    ratio = shadow_length / (2 * params.omega)
    if not 0.0 < ratio < math.inf:
        raise ValueError(f"shadow_length / (2 * omega) is {ratio}, not a "
                         f"finite positive float")
    return math.log(ratio) / math.log(params.psi)


def geodesic_length_closed_form(shadow_length, i, k, params: CuspParams):
    """Length of the best descend-level-ascend path and its level depth.

    Minimizes omega*ln(psi)*(2D - i - k) + psi^-D * L over integers D in
    [max(i,k), depth_cap]; the continuous minimizer is log_psi(L/(2 omega))
    and the integer minimizer lies within 1 of its clamp, so only the
    clamp's neighbors and the interval ends need scanning.  Ties resolve
    to the smaller depth.
    """
    if i < 0 or k < 0 or max(i, k) > params.depth_cap:
        raise ValueError("depths must sit inside [0, depth_cap]")
    if shadow_length < 0:
        raise ValueError("shadow length must be nonnegative")
    lo, hi = max(i, k), params.depth_cap
    cands = {lo, hi}
    if shadow_length > 0:
        opt = optimal_depth(shadow_length, params)
        for d in (math.floor(opt), math.ceil(opt)):
            cands.add(min(max(int(d), lo), hi))
    w = params.omega * math.log(params.psi)
    best = None
    for d in sorted(cands):
        val = w * (2 * d - i - k) + params.psi ** (-d) * shadow_length
        if best is None or val < best[0] - 1e-15:
            best = (val, d)
    return best


Decomposition = namedtuple("Decomposition", "descending level ascending")


def decompose_geodesic(depths):
    """Split a depth sequence into strictly-descending, level, strictly-
    ascending step counts; None when the pattern is violated.
    Depth changes other than -1, 0, +1 are malformed input."""
    deltas = []
    for a, b in zip(depths, list(depths)[1:]):
        step = b - a
        if step not in (-1, 0, 1):
            raise ValueError(f"depth jump {step} between {a} and {b}")
        deltas.append(step)
    down = 0
    while down < len(deltas) and deltas[down] == 1:
        down += 1
    level = down
    while level < len(deltas) and deltas[level] == 0:
        level += 1
    up = level
    while up < len(deltas) and deltas[up] == -1:
        up += 1
    if up != len(deltas):
        return None
    return Decomposition(down, level - down, len(deltas) - level)


def level_bound(params: CuspParams) -> float:
    return 2 * params.omega * params.psi


def delta_constant(params: CuspParams) -> float:
    log_psi_2 = math.log(2) / math.log(params.psi)
    return 4 * params.omega * params.psi + \
        (log_psi_2 + 2) * params.omega * math.log(params.psi)


def measure_thinness(adj, samples: int, seed: int,
                     automorphisms=()) -> float:
    """Empirical triangle thinness of a weighted graph: the worst one-sided
    Hausdorff distance from a side of a sampled vertex triple's tie-broken
    geodesic triangle to the union of the other two, over rows shared
    across ``automorphisms`` (``DistanceRows``).  When the triple count is
    at most ``samples`` the scan is exhaustive, otherwise it draws
    distinct random triples.  Always a lower bound on the true constant.
    """
    n = len(adj)
    rng = random.Random(seed)
    total = n * (n - 1) * (n - 2) // 6
    if total <= samples:
        triples = [(a, b, c) for a in range(n) for b in range(a + 1, n)
                   for c in range(b + 1, n)]
    else:
        chosen = set()
        while len(chosen) < samples:
            t = tuple(sorted(rng.sample(range(n), 3)))
            chosen.add(t)
        triples = sorted(chosen)
    rows = DistanceRows(adj, automorphisms)
    worst = 0.0
    for a, b, c in triples:
        paths = [rows.path(a, b), rows.path(b, c), rows.path(a, c)]
        if None in paths:
            raise ValueError("no tight predecessor; disconnected?")
        for side in range(3):
            other = set(paths[side - 1]) | set(paths[side - 2])
            worst = rows.gap(paths[side], other, worst)
    return worst


def clip(cx: CuspComplex, n: int) -> CuspComplex:
    """Subcomplex of everything at depth <= n."""
    out = CuspComplex(cx.params)
    keep = [v for v in range(len(cx)) if cx.depth[v] <= n]
    remap = {}
    for v in keep:
        remap[v] = out.add_vertex(cx.keys[v], cx.depth[v])
    for v in keep:
        for u, w in cx.adj[v]:
            if u in remap and v < u:
                out.add_edge(remap[v], remap[u], w)
    return out


def path_hausdorff(rows: DistanceRows, path_a, path_b) -> float:
    """Symmetric Hausdorff distance between two vertex paths of the graph
    that rows measure."""
    return rows.gap(path_b, set(path_a), rows.gap(path_a, set(path_b), 0.0))
