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
    reproducible, and each key names its base vertex."""

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
        cx.add_vertex(("g", b), 0)
    for u, v in _base_edges(g_ball, g_ball.symbol_moves()):
        cx.add_edge(cx.ids["g", u], cx.ids["g", v], 1.0)
    for fi, fam in enumerate(rp.families):
        for b in range(len(g_ball)):
            for i in range(1, params.depth_cap + 1):
                cx.add_vertex((fi, b, i), i)
        for b in range(len(g_ball)):
            below = cx.ids["g", b]
            for i in range(1, params.depth_cap + 1):
                here = cx.ids[fi, b, i]
                cx.add_edge(below, here, params.vertical_length())
                below = here
        for u, v in _base_edges(g_ball, fam.symbols()):
            for i in range(1, params.depth_cap + 1):
                cx.add_edge(cx.ids[fi, u, i], cx.ids[fi, v, i],
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


def geodesic_path(adj, src, dst):
    """Tie-broken shortest vertex path from src to dst over src's full
    distance row; None when dst is unreachable."""
    row = distance_row(adj, src)
    if row[dst] == math.inf:
        return None
    return _geodesic_path(adj, row, src, dst)


def _geodesic_path(adj, dist, src, dst, parent=None):
    """Walk back from dst along tight edges, smallest vertex id first.
    Each step must strictly lower dist, so near-zero edges cannot cycle.

    dist is a row from src, inf where unreached.  The step from a
    vertex depends only on the row, so ``parent`` memoises it per row:
    parent[v] is v's tight predecessor once a walk has left v, -1 before.
    Without one, the walk starts a fresh memo."""
    if parent is None:
        parent = [-1] * len(adj)
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


def optimal_depth(shadow_length: float, params: CuspParams) -> float:
    if shadow_length <= 0:
        raise ValueError("shadow length must be positive")
    return math.log(shadow_length / (2 * params.omega)) / math.log(params.psi)


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


def measure_thinness(adj, samples: int, seed: int) -> float:
    """Empirical triangle thinness of a weighted graph.

    For sampled vertex triples, takes the three tie-broken geodesics (the
    walks ``geodesic_path`` takes over full distance rows) and measures
    the one-sided Hausdorff distance from each side to the union of the
    other two; returns the worst value seen.  When the triple count is at
    most ``samples`` the scan is exhaustive, otherwise it draws distinct
    random triples.  Always a lower bound on the true constant.

    Two skips leave the result exact.  A side vertex u that lies on one of
    the other two sides has gap 0, and the worst value is never below 0.
    Both endpoints x, y of a side lie on the other two sides, so the gap of
    u is at most d(u, x) and d(u, y); once either is at most the worst
    value, u cannot raise it.

    Distance rows are never symmetrised: d(u, v) is read from u's own row
    because floating-point sums along different search orders can differ
    from d(v, u) in the last bits, and the result must not depend on that.

    Rows are kept as array('d'): the doubles of ``distance_row``'s list in
    a quarter of its memory.  Every source row carries an array('i')
    walk-back memo (see ``_geodesic_path``).  Neither changes a value or a
    path: under a fixed row the tight predecessor of v depends on v alone,
    so a memoised step is the step a fresh walk would take.
    """
    # a shared library (about 0.17 MiB of RSS), so only thinness loads it
    from array import array

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
    rows = [None] * n  # rows[v]: distances from v, filled on first use
    parents = [None] * n  # parents[v]: walk-back memo of rows[v]
    worst = 0.0
    for a, b, c in triples:
        for src in (a, b):
            if parents[src] is None:
                if rows[src] is None:
                    rows[src] = array("d", distance_row(adj, src))
                parents[src] = array("i", [-1]) * n
        paths = [_geodesic_path(adj, rows[src], src, dst, parents[src])
                 for src, dst in ((a, b), (b, c), (a, c))]
        for side in range(3):
            path = paths[side]
            x, y = path[0], path[-1]
            other = set(paths[(side + 1) % 3]) | set(paths[(side + 2) % 3])
            # a lies on the other two sides of every side, so pick always
            # returns a tuple
            pick = itemgetter(*other, a)
            for u in path:
                if u in other:
                    continue
                du = rows[u]
                if du is None:
                    du = rows[u] = array("d", distance_row(adj, u))
                if du[x] <= worst or du[y] <= worst:
                    continue
                worst = max(worst, min(pick(du)))
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


def deepen_replace(cx: CuspComplex, beta, n: int):
    """Replace each maximal depth-n stretch of a clipped path with the
    geodesic of the full complex between the stretch's endpoints.

    beta uses full-complex vertex ids but must stay at depth <= n.
    """
    for v in beta:
        if cx.depth[v] > n:
            raise ValueError("path leaves the clipped complex")
    gamma = []
    idx = 0
    while idx < len(beta):
        if cx.depth[beta[idx]] < n:
            gamma.append(beta[idx])
            idx += 1
            continue
        j = idx
        while j < len(beta) and cx.depth[beta[j]] == n:
            j += 1
        first, last = beta[idx], beta[j - 1]
        seg = geodesic_path(cx.adj, first, last)
        gamma.extend(seg if not gamma or gamma[-1] != seg[0] else seg[1:])
        idx = j
    return gamma


def path_hausdorff(cx: CuspComplex, path_a, path_b) -> float:
    """Symmetric Hausdorff distance between two vertex paths."""
    worst = 0.0
    for one, two in ((path_a, path_b), (path_b, path_a)):
        targets = set(two)
        pick = itemgetter(*targets, two[0])  # always a tuple
        for u in one:
            if u not in targets:
                worst = max(worst, min(pick(distance_row(cx.adj, u))))
    return worst

