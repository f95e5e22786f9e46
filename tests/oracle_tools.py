"""Independent oracles for the frozen test values.

Everything in here is deliberately written against the concrete structure of
the example groups (lattice arithmetic for Z and Z^2, reduced words for free
groups, direct formula evaluation) rather than against the library under
test.  Run as a script to print the values that the test-suite freezes:

    python tests/oracle_tools.py
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from heapq import heappop, heappush

# ---------------------------------------------------------------------------
# lattice / tree models.  Letters: a=+x, A=-x, b=+y, B=-y.

STEP = {"a": (1, 0), "A": (-1, 0), "b": (0, 1), "B": (0, -1)}


def z2_eval(word):
    x = y = 0
    for c in word:
        dx, dy = STEP[c]
        x += dx
        y += dy
    return x, y


def z2_ball_count(radius):
    # diamond |x|+|y| <= R counted directly
    return sum(1 for x in range(-radius, radius + 1)
               for y in range(-radius, radius + 1) if abs(x) + abs(y) <= radius)


def z_ball_count(radius):
    return 2 * radius + 1


def f2_reduce(word):
    out = []
    for c in word:
        if out and out[-1] == c.swapcase():
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def f2_ball_count(radius):
    # BFS over reduced words, no formula used
    seen = {""}
    frontier = [""]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for c in "aAbB":
                r = f2_reduce(w + c)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return len(seen)


def z2_is_geodesic(word):
    x, y = z2_eval(word)
    return abs(x) + abs(y) == len(word)


def z_is_geodesic(word):
    s = sum(1 if c == "a" else -1 for c in word if c in "aA")
    return abs(s) == len(word)


def f2_is_geodesic(word):
    return len(f2_reduce(word)) == len(word)


# ---------------------------------------------------------------------------
# groups with torsion and free products, by explicit normal forms.
# Z/3 x Z = <a,b | a^3, [a,b]> is the pair (a-exponent mod 3, b-exponent);
# Z/2 * Z/3 = <a,b | a^2, b^3> and Z/3 * Z/3 = <a,b | a^3, b^3> are their
# alternating syllable sequences, each syllable (letter, exponent mod order);
# S3 = <a,b | a^2, b^3, (ab)^2> is a permutation of {0,1,2}; Z * Z^2 =
# <a,b,c | [b,c]> is its alternating sequence of a-powers and Z^2 vectors.

def z3xz_eval(word):
    i = sum(1 if c == "a" else -1 for c in word if c in "aA") % 3
    j = sum(1 if c == "b" else -1 for c in word if c in "bB")
    return i, j


def z2freez3_eval(word):
    return _cyclic_free_product(word, {"a": 2, "b": 3})


def z3freez3_eval(word):
    return _cyclic_free_product(word, {"a": 3, "b": 3})


def _cyclic_free_product(word, order):
    out = []
    for c in word:
        gen = c.lower()
        step = 1 if c == gen else -1
        if out and out[-1][0] == gen:
            e = (out[-1][1] + step) % order[gen]
            if e:
                out[-1] = (gen, e)
            else:
                out.pop()
        else:
            out.append((gen, step % order[gen]))
    return tuple(out)


S3_GENS = {"a": (1, 0, 2), "b": (1, 2, 0)}  # a transposition, a 3-cycle


def s3_eval(word):
    # image of 0, 1, 2 under the letters applied left to right
    perm = (0, 1, 2)
    for c in word:
        g = S3_GENS[c.lower()]
        if c.isupper():
            g = tuple(g.index(i) for i in range(3))
        perm = tuple(g[i] for i in perm)
    return perm


def zfreez2_eval(word):
    step = {"a": (1,), "A": (-1,), "b": (1, 0), "B": (-1, 0),
            "c": (0, 1), "C": (0, -1)}
    out = []
    for c in word:
        v = step[c]
        if out and len(out[-1]) == len(v):
            s = tuple(x + y for x, y in zip(out[-1], v))
            if any(s):
                out[-1] = s
            else:
                out.pop()
        else:
            out.append(v)
    return tuple(out)


def lengths_by_enumeration(evaluate, radius, letters="aAbB"):
    """Word length of every element of length <= radius, by evaluating
    all words up to that length (no reduction, no library code)."""
    length = {evaluate(""): 0}
    frontier = [""]
    for n in range(1, radius + 1):
        frontier = [w + c for w in frontier for c in letters]
        for w in frontier:
            length.setdefault(evaluate(w), n)
    return length


# ---------------------------------------------------------------------------
# penetrations in the lattice model, parabolic family <b>: coset id is the
# x-coordinate.  A visit is a maximal run of prefixes with one coset id.

def z2_coset_runs(word):
    ids = [z2_eval(word[:t])[0] for t in range(len(word) + 1)]
    runs = []
    for t, c in enumerate(ids):
        if runs and runs[-1][0] == c:
            runs[-1][2] = t
        else:
            runs.append([c, t, t])
    return runs


def f2_coset_runs(word):
    # coset of g<b> in F2: strip trailing b-power off the reduced word
    def coset(w):
        r = f2_reduce(w)
        while r and r[-1] in "bB":
            r = r[:-1]
        return r
    ids = [coset(word[:t]) for t in range(len(word) + 1)]
    runs = []
    for t, c in enumerate(ids):
        if runs and runs[-1][0] == c:
            runs[-1][2] = t
        else:
            runs.append([c, t, t])
    return runs


# ---------------------------------------------------------------------------
# combinatorial area for Z^2 rel <b> loops: the relator is the unit cell, so
# the signed lattice area enclosed by the loop (shoelace) is a lower bound,
# and the standard commutator certificate gives the matching upper bound for
# the [a, b^n] family.

def z2_loop_shoelace(word):
    pts = [z2_eval(word[:t]) for t in range(len(word) + 1)]
    assert pts[-1] == (0, 0), "not a loop"
    s = 0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        s += x0 * y1 - x1 * y0
    return abs(s) // 2 if s % 2 == 0 else Fraction(abs(s), 2)


def commutator_word(n):
    return "a" + "b" * n + "A" + "B" * n


# ---------------------------------------------------------------------------
# FFTP kernel spot value for Z, delta=1, H = -len.
# T[x][g][h] = inf over simple paths w (in B_d(1) u B_d(xbar), from g^-1 to
# xbar*h^-1) of H(x) - H(zg^-1 w zh) + H(zg zg^-1); for H=-len this is
# d(g^-1, xbar h^-1) + |h| - |g| - 1 with d a path distance inside the
# doubled ball.  Computed here directly on the integer line.

def z_kernel_entry(delta, x, g, h):
    # elements are integers; x,g,h given as ints; generator step x in {+1,-1}
    allowed = set(range(-delta, delta + 1)) | {x + p for p in range(-delta, delta + 1)}
    start, goal = -g, x - h
    if start not in allowed or goal not in allowed:
        return None
    dist = {start: 0}
    q = deque([start])
    while q:
        v = q.popleft()
        for w in (v - 1, v + 1):
            if w in allowed and w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
    d = dist.get(goal)
    if d is None:
        return None
    return d + abs(h) - abs(g) - 1


# ---------------------------------------------------------------------------
# FFTP kernel reference for any ball: one Dijkstra per (x, g, h) entry, as
# the kernel was first written.  Covers additive heights with nonpositive
# letter values and, with zero weights (reachability only), element
# functions.  Words are symbol tuples; a symbol's inverse is sym ^ 1.

def _inverse(word):
    return tuple(s ^ 1 for s in reversed(word))


def _vertices_around(ball, center, delta):
    dist = {center: 0}
    q = deque([center])
    while q:
        v = q.popleft()
        if dist[v] < delta:
            for _, t in ball.neighbours(v):
                if t not in dist:
                    dist[t] = dist[v] + 1
                    q.append(t)
    return set(dist)


def _best_additive(ball, allowed, weights, src, dst):
    # greatest additive height of a path src -> dst inside allowed, or None
    best = {src: 0}
    heap = [(0, src)]
    while heap:
        d, v = heappop(heap)
        if d > best.get(v, math.inf):
            continue
        if v == dst:
            return -d
        for sym, t in ball.neighbours(v):
            if t in allowed:
                nd = d - weights[sym]
                if nd < best.get(t, math.inf):
                    best[t] = nd
                    heappush(heap, (nd, t))
    return None


def _additive(h):
    return h.additive and h.letter_values is not None \
        and all(v <= 0 for v in h.letter_values.values())


def reference_kernel(ball, delta, h):
    """{"order", "table"} with table[x][gi][hi] as transition_kernel
    defines it, one search per entry."""
    nsym = len(ball.presentation.alphabet.symbols)
    additive = _additive(h)
    assert additive or h.element_function
    weights = h.letter_values if additive else {s: 0 for s in range(nsym)}
    order = sorted(v for v in range(len(ball)) if ball.length_of(v) <= delta)
    tables = {}
    for x in range(nsym):
        allowed = (_vertices_around(ball, 0, delta)
                   | _vertices_around(ball, ball.edges[0][x], delta))
        table = []
        for g in order:
            zg = ball.words[g]
            src = ball.evaluate(_inverse(zg))
            row = []
            for hv in order:
                zh = ball.words[hv]
                dst = ball.evaluate((x,) + _inverse(zh))
                sup = _best_additive(ball, allowed, weights, src, dst)
                if sup is None:
                    row.append(math.inf)
                elif additive:
                    row.append(h((x,)) + h(zg) - h(zh) - sup)
                else:
                    row.append(h(()))
            table.append(row)
        tables[x] = table
    return {"order": order, "table": tables}


def reference_initial_state(ball, delta, h):
    """Deficit vector of the empty word, unclamped; None where the
    coordinate has no competitor inside the delta-ball."""
    order = sorted(v for v in range(len(ball)) if ball.length_of(v) <= delta)
    if not _additive(h):
        assert h.element_function
        return [0] * len(order)
    allowed = _vertices_around(ball, 0, delta)
    out = []
    for g in order:
        zg = ball.words[g]
        sup = _best_additive(ball, allowed, h.letter_values, 0,
                             ball.evaluate(_inverse(zg)))
        out.append(None if sup is None else h(()) - sup - h(zg))
    return out


# ---------------------------------------------------------------------------
# Coboundary reference for any ball: the dense exact solve the library first
# used, one Fraction row per defined product pair and one unknown per vertex.

def ball_product(ball, g, h):
    """g*h by walking the word of h from g; None when it leaves the ball."""
    v = g
    for s in ball.words[h]:
        v = ball.edges[v][s]
        if v is None:
            return None
    return v


def reference_rref(rows):
    """Reduced row echelon form by plain Fraction Gauss-Jordan; returns
    (matrix, pivot columns)."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    lead = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        sel = next((r for r in range(lead, len(mat)) if mat[r][col] != 0),
                   None)
        if sel is None:
            continue
        mat[lead], mat[sel] = mat[sel], mat[lead]
        inv = 1 / mat[lead][col]
        mat[lead] = [x * inv for x in mat[lead]]
        for r in range(len(mat)):
            if r != lead and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(mat):
            break
    return mat, pivots


def reference_is_coboundary(tau, ball):
    """(True, {v: Fraction}) when tau(g,h) = f(g) + f(h) - f(gh) is
    solvable over every defined in-ball pair, else (False, None)."""
    n = len(ball)
    eqs = []
    for g in range(n):
        for h in range(n):
            gh = ball_product(ball, g, h)
            t = None if gh is None else tau(g, h)
            if t is None:
                continue
            row = [Fraction(0)] * (n + 1)
            row[g] += 1
            row[h] += 1
            row[gh] -= 1
            row[n] = Fraction(t)
            eqs.append(row)
    reduced, pivots = reference_rref(eqs)
    if n in pivots:  # a row reduced to 0 = nonzero
        return (False, None)
    f = [Fraction(0)] * n
    for prow, pcol in enumerate(pivots):
        f[pcol] = reduced[prow][n]
    return (True, dict(enumerate(f)))


# ---------------------------------------------------------------------------
# k-local electric geodesic reference for any ball: every window, start-major,
# one electric distance map per start, as the check was first written.

def reference_is_k_local(ball, rp, word, k):
    """True when every window of electric length <= k realizes the in-ball
    electric distance between its endpoints."""
    from relhyp.electric import electric_distances_from
    verts = [0]
    for sym in word:
        verts.append(ball.edges[verts[-1]][sym])
    for i in range(len(word)):
        dist = electric_distances_from(ball, rp, verts[i])
        el = 0
        for j in range(i + 1, len(word) + 1):
            el += rp.family_of_symbol(word[j - 1]) is None
            if el > k:
                break
            if dist[verts[j]] != el:
                return False
    return True


# ---------------------------------------------------------------------------
# Electric area reference: free-product normal forms by alternating full
# free reduction with full parabolic run reduction until nothing changes,
# and the bidirectional insertion search that re-normalises every spliced
# word from scratch, as first written.

def _reference_family_of_symbol(rp, sym):
    gen = sym & ~1
    for i, fam in enumerate(rp.families):
        if gen in fam.generators:
            return i
    return None


def _reference_family_ball(rp, fi, radius):
    from relhyp.cayley import build_ball
    from relhyp.words import Presentation
    fam = rp.families[fi]
    pres = Presentation(rp.base.alphabet, fam.relators)
    return build_ball(pres, radius, generators=fam.generators)


def _reference_reduce_runs(rp, word, cache):
    from itertools import groupby
    out = []
    changed = []
    for fi, run in groupby(word, lambda sym: _reference_family_of_symbol(rp, sym)):
        seg = tuple(run)
        if fi is not None:
            fb = cache.get(fi)
            if fb is None or fb.radius < len(seg):
                fb = cache[fi] = _reference_family_ball(rp, fi, len(seg))
            rep = fb.words[fb.evaluate(seg)]
            if rep != seg:
                changed.append((len(out), len(out) + len(seg), rep))
                seg = rep
        out.extend(seg)
    return tuple(out), changed


def reference_canonicalize(rp, word, cache):
    """Normal form in the free product of the parabolics with the remaining
    free letters: free reduction alternated with parabolic run reduction."""
    from relhyp.words import free_reduce
    cur = free_reduce(tuple(word))
    while True:
        nxt = free_reduce(_reference_reduce_runs(rp, cur, cache)[0])
        if nxt == cur:
            return cur
        cur = nxt


def reference_electric_area_exact(rp, word, n_max, node_budget=500_000):
    """Least number of non-parabolic relator insertions contracting the loop.

    Parabolic relator moves and free reductions cost nothing and happen
    inside the canonicalization step.  Inserting a relator form is an
    undirected move (the forms are closed under inversion), so the search
    runs bidirectionally, from the loop and from the empty word, meeting in
    the middle.  Intermediate words are capped at len(w) + 2 * max
    non-parabolic relator length, which is the honest approximation
    boundary: derivations needing longer intermediates are not found.
    Returns the area, or None when nothing is found within n_max
    insertions and the node budget.
    """
    from relhyp.words import relator_forms
    forms = relator_forms(rp.nonparabolic_relators())
    if not forms:
        raise ValueError("no non-parabolic relators to insert")
    cache: dict = {}
    start = reference_canonicalize(rp, word, cache)
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
                    cand = reference_canonicalize(rp, cur[:pos] + form + cur[pos:], cache)
                    if len(cand) > cap or cand in dist[side]:
                        continue
                    dist[side][cand] = depth[side]
                    nxt.append(cand)
                    if cand in dist[other]:
                        total = depth[side] + dist[other][cand]
                        if best is None or total < best:
                            best = total
        frontier[side] = nxt


# ---------------------------------------------------------------------------
# Cusp thinness reference for any weighted graph: the push-every-neighbour
# Dijkstra, the tie-broken walk-back and the full gap scan, as first written.

def reference_dijkstra(adj, src, stop_at=None):
    """Distances from src, None where unreached; stops once stop_at
    settles.  Pushes every candidate to an unsettled neighbour."""
    dist = [None] * len(adj)
    heap = [(0.0, src)]
    while heap:
        d, x = heappop(heap)
        if dist[x] is not None:
            continue
        dist[x] = d
        if x == stop_at:
            break
        for y, w in adj[x]:
            if dist[y] is None:
                heappush(heap, (d + w, y))
    return dist


def reference_walk_back(adj, dist, src, dst):
    """Vertex path src -> dst along tight edges, smallest id first."""
    path = [dst]
    cur = dst
    while cur != src:
        best = None
        for y, w in adj[cur]:
            if (dist[y] is not None and dist[y] < dist[cur]
                    and abs(dist[y] + w - dist[cur]) < 1e-9):
                if best is None or y < best:
                    best = y
        if best is None:
            raise ValueError("no tight predecessor; disconnected?")
        path.append(best)
        cur = best
    path.reverse()
    return path


def thinness_reference(adj, samples, seed):
    """measure_thinness without skips: one full row per path vertex and a
    min over the whole union of the other two sides."""
    import random
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
    dist_cache: dict = {}

    def dist_from(v):
        if v not in dist_cache:
            dist_cache[v] = reference_dijkstra(adj, v)
        return dist_cache[v]

    worst = 0.0
    for a, b, c in triples:
        paths = []
        for src, dst in ((a, b), (b, c), (a, c)):
            d = dist_from(src)
            paths.append(reference_walk_back(adj, d, src, dst))
        for side in range(3):
            other = set(paths[(side + 1) % 3]) | set(paths[(side + 2) % 3])
            for u in paths[side]:
                du = dist_from(u)
                gap = min(du[v] for v in other)
                worst = max(worst, gap)
    return worst


# ---------------------------------------------------------------------------
# synchronous / asynchronous fellow-traveling on the lattice.

def z2_dist(p, q):
    return abs(p[0] - q[0]) + abs(p[1] - q[1])


def sync_fellow(w1, w2):
    n = max(len(w1), len(w2))
    best = 0
    for t in range(n + 1):
        p = z2_eval(w1[: min(t, len(w1))])
        q = z2_eval(w2[: min(t, len(w2))])
        best = max(best, z2_dist(p, q))
    return best


def async_fellow(w1, w2):
    n1, n2 = len(w1), len(w2)
    pts1 = [z2_eval(w1[:t]) for t in range(n1 + 1)]
    pts2 = [z2_eval(w2[:t]) for t in range(n2 + 1)]
    import heapq
    # bottleneck shortest path over the monotone grid
    best = {(0, 0): z2_dist(pts1[0], pts2[0])}
    heap = [(best[(0, 0)], 0, 0)]
    while heap:
        cost, i, j = heapq.heappop(heap)
        if (i, j) == (n1, n2):
            return cost
        if cost > best.get((i, j), math.inf):
            continue
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            ii, jj = i + di, j + dj
            if ii <= n1 and jj <= n2:
                c = max(cost, z2_dist(pts1[ii], pts2[jj]))
                if c < best.get((ii, jj), math.inf):
                    best[(ii, jj)] = c
                    heapq.heappush(heap, (c, ii, jj))
    raise AssertionError


# ---------------------------------------------------------------------------
# cusp arithmetic (pure formulas, natural log).

def cusp_vertical_edge(psi, omega):
    return omega * math.log(psi)


def cusp_closed_form(L, i, k, psi, omega, depth_cap):
    lo = max(i, k)
    cands = {lo, depth_cap}
    if L > 0:
        dstar = math.log(L / (2 * omega)) / math.log(psi)
        for d in (math.floor(dstar), math.ceil(dstar)):
            cands.add(min(max(int(d), lo), depth_cap))
    best = None
    for d in sorted(cands):
        if d < lo or d > depth_cap:
            continue
        val = omega * math.log(psi) * (2 * d - i - k) + psi ** (-d) * L
        if best is None or val < best[0] - 1e-15:
            best = (val, d)
    return best


def cusp_level_bound(psi, omega):
    return 2 * omega * psi


def cusp_delta(psi, omega):
    return 4 * omega * psi + (math.log(2) / math.log(psi) + 2) * omega * math.log(psi)


def pushdown_delta(psi, omega, rho, depth):
    return (psi - 1 - rho * omega * psi) * psi ** (-depth)


# ---------------------------------------------------------------------------
# upper half-plane formulas.

def h_dist(p, q):
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return math.acosh(1 + (dx * dx + dy * dy) / (2 * p[1] * q[1]))


def apex(p, q):
    # semicircle through p, q orthogonal to the real axis
    cx = (q[0] ** 2 + q[1] ** 2 - p[0] ** 2 - p[1] ** 2) / (2 * (q[0] - p[0]))
    r = math.hypot(p[0] - cx, p[1])
    return -math.log(r)


# ---------------------------------------------------------------------------
# homology worked example (exact).

def wishful(kblock, t):
    n = len(kblock)
    tau = [Fraction(t) ** j for j in range(n)]
    out = []
    for i in range(n):
        s = sum(Fraction(kblock[i][j]) * tau[j] for j in range(n))
        out.append(s / tau[i])
    return out, tau


# ---------------------------------------------------------------------------
# extension spot values on the Z^2 lattice.

def coboundary_sigma(g, h):
    # rho(g) = |g| (word norm on the lattice), sigma(g,h) = rho(g)+rho(h)-rho(gh)
    def norm(v):
        return abs(v[0]) + abs(v[1])
    return norm(g) + norm(h) - norm((g[0] + h[0], g[1] + h[1]))


def hstar_bruteforce(target, C, cap):
    # max over words w with wbar = target, |w| <= cap of (0 - C * a-letter count)
    best = None
    best_word = None
    frontier = {("", (0, 0))}
    seen = set()
    q = deque([("", (0, 0))])
    while q:
        w, v = q.popleft()
        if v == target:
            val = -C * sum(1 for c in w if c in "aA")
            if best is None or val > best or (val == best and (len(w), w) < (len(best_word), best_word)):
                best, best_word = val, w
        if len(w) == cap:
            continue
        for c in "aAbB":
            nw, nv = w + c, (v[0] + STEP[c][0], v[1] + STEP[c][1])
            if (nw, nv) not in seen:
                seen.add((nw, nv))
                q.append((nw, nv))
    return best, best_word


def _sphere_sizes(length, radius):
    return [sum(1 for n in length.values() if n == r) for r in range(radius + 1)]


def main():
    print("== ball counts ==")
    for R in (2, 3, 5, 6, 7):
        print(f"z2 B({R}) = {z2_ball_count(R)}")
    for R in (2, 5, 7):
        print(f"f2 B({R}) = {f2_ball_count(R)}")
    print(f"z B(7) = {z_ball_count(7)}")
    for R in (2, 3):
        print(f"z3xz spheres B({R}) =",
              _sphere_sizes(lengths_by_enumeration(z3xz_eval, R), R))
    print("z2freez3 spheres B(2) =",
          _sphere_sizes(lengths_by_enumeration(z2freez3_eval, 2), 2))
    for name, evaluate in (("z3xz", z3xz_eval), ("z2freez3", z2freez3_eval),
                           ("z3freez3", z3freez3_eval), ("s3", s3_eval)):
        print(f"{name} spheres B(8) =",
              _sphere_sizes(lengths_by_enumeration(evaluate, 8), 8))
    print("zfreez2 spheres B(6) =", _sphere_sizes(
        lengths_by_enumeration(zfreez2_eval, 6, letters="aAbBcC"), 6))

    print("\n== penetrations ==")
    print("z2 rel<b> babA runs:", z2_coset_runs("babA"))
    print("f2 rel<b> ab runs:", f2_coset_runs("ab"))
    print("z2 rel<b> backtracks(babA):",
          len({r[0] for r in z2_coset_runs("babA")}) < len(z2_coset_runs("babA")))

    print("\n== area ==")
    for n in range(1, 5):
        w = commutator_word(n)
        print(f"area lower bound (shoelace) [a,b^{n}] = {z2_loop_shoelace(w)}")

    print("\n== fftp kernel (Z, delta=1, H=-len) ==")
    print("T[a][a][1] =", z_kernel_entry(1, 1, 1, 0))
    print("T[a][1][1] =", z_kernel_entry(1, 1, 0, 0))
    print("phi0(g)=2|g| spot:", [2 * abs(g) for g in (0, 1, -1)])

    print("\n== fellow traveling ==")
    print("sync(ab, ba) =", sync_fellow("ab", "ba"))
    print("async(abbb, bbba) =", async_fellow("abbb", "bbba"))
    print("sync(abbb, bbba) =", sync_fellow("abbb", "bbba"))

    print("\n== cusp (psi=3, omega=1/3) ==")
    psi, om = 3.0, 1.0 / 3.0
    print("vertical edge =", cusp_vertical_edge(psi, om))
    print("L=9 i=k=0 N=6 ->", cusp_closed_form(9.0, 0, 0, psi, om, 6))
    print("L=1 i=k=0 N=6 ->", cusp_closed_form(1.0, 0, 0, psi, om, 6))
    print("level bound =", cusp_level_bound(psi, om))
    print("delta const =", cusp_delta(psi, om))
    print("criterion-9 cap =", cusp_delta(psi, om) + 2)
    print("pushdown psi=4 omega=1/8 rho=4 depth=1 ->", pushdown_delta(4, 0.125, 4, 1))

    print("\n== hyp2 ==")
    print("d((0,1),(0,2)) =", h_dist((0, 1), (0, 2)), "ln2 =", math.log(2))
    print("d((0,1),(1,1)) =", h_dist((0, 1), (1, 1)), "acosh(1.5) =", math.acosh(1.5))
    print("apex((-1,1),(1,1)) =", apex((-1, 1), (1, 1)), "-ln sqrt2 =", -0.5 * math.log(2))
    print("busemann (0,e) ->", -math.log(math.e), " (0,1/2) ->", -math.log(0.5))
    print("guarantee threshold C=1: 2C+ln16 =", 2 + math.log(16))
    print("ideal isosceles l=3: sin^2 =", 2 / (math.cosh(3) + 1), "4e^-l =", 4 * math.exp(-3))

    print("\n== homology ==")
    uv, tau = wishful([[0, 1], [-1, 0]], 100)
    print("wishful K=[[0,1],[-1,0]] t=100 ->", uv, "tau =", tau)
    print("min u^2+v^2 =", min(f.numerator ** 2 + f.denominator ** 2 for f in uv))
    uv5, tau5 = wishful([[0, 1], [-1, 0]], 5)
    print("wishful t=5 ->", uv5)

    print("\n== extension ==")
    print("sigma(a, A) =", coboundary_sigma((1, 0), (-1, 0)))
    print("H*((2,0), C=1, cap=6) =", hstar_bruteforce((2, 0), 1, 6))
    print("H*((0,3), C=1, cap=6) =", hstar_bruteforce((0, 3), 1, 6))


if __name__ == "__main__":
    main()
