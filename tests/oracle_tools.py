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
from operator import add

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


def _perm_eval(word, gens):
    # image of 0..n-1 under the letters applied left to right
    n = len(gens["a"])
    perm = tuple(range(n))
    for c in word:
        g = gens[c.lower()]
        if c.isupper():
            g = tuple(g.index(i) for i in range(n))
        perm = tuple(g[i] for i in perm)
    return perm


def s3_eval(word):
    return _perm_eval(word, S3_GENS)


D5_GENS = {"a": (1, 2, 3, 4, 0), "b": (0, 4, 3, 2, 1)}  # a rotation, a flip


def d5_eval(word):
    return _perm_eval(word, D5_GENS)


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


def reference_kernel(ball, delta, h):
    """{"table", "initial"} with table[x][gi][hi] as
    transition_kernel defines it, one search per entry, and initial from
    reference_initial_state with +inf for None."""
    nsym = len(ball.presentation.alphabet.symbols)
    weights = h.letter_values
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
                else:
                    row.append(h((x,)) + h(zg) - h(zh) - sup)
            table.append(row)
        tables[x] = table
    initial = [math.inf if v is None else v
               for v in reference_initial_state(ball, delta, h)]
    return {"table": tables, "initial": initial}


def reference_initial_state(ball, delta, h):
    """Deficit vector of the empty word, unclamped; None where the
    coordinate has no competitor inside the delta-ball."""
    order = sorted(v for v in range(len(ball)) if ball.length_of(v) <= delta)
    allowed = _vertices_around(ball, 0, delta)
    out = []
    for g in order:
        zg = ball.words[g]
        sup = _best_additive(ball, allowed, h.letter_values, 0,
                             ball.evaluate(_inverse(zg)))
        out.append(None if sup is None else h(()) - sup - h(zg))
    return out


# ---------------------------------------------------------------------------
# FFTP acceptor reference: the dense (min, +) exploration as first written,
# one min(map(add, cur, column)) per coordinate of each next state, over the
# library's kernel and the initial state above.

def reference_min_plus_step(cur, columns, top):
    """Next deficit vector, coordinate hi being min over gi of cur[gi] +
    T[gi][hi] clamped at top; None once a coordinate drops below zero."""
    nxt = []
    for col in columns:
        best = min(map(add, cur, col))
        if best < 0:
            return None
        nxt.append(top if best >= top else int(best))
    return tuple(nxt)


def reference_build_fftp_automaton(ball, delta, h, state_cap=20000):
    """The acceptor DFA as relhyp.fftp.build_fftp_automaton defines it,
    with transitions, accept set and state_vectors in the same order."""
    from relhyp.automata import Dfa
    from relhyp.fftp import transition_kernel

    kern = transition_kernel(ball, delta, h)
    top = 2 * h.K * delta
    symbols = range(len(ball.presentation.alphabet.symbols))
    # columns[x][hi] lists T[x][gi][hi] over gi, so that each coordinate of
    # the next state is one min over map(add, cur, column)
    columns = [list(zip(*kern["table"][x])) for x in symbols]

    raw = reference_initial_state(ball, delta, h)
    init = tuple(top if v is None else min(v, top) for v in raw)
    if any(v < 0 for v in init):
        raise ValueError("the empty word is not maximizing for this height")

    states = {init: 0}
    order = [init]
    rows = []
    q = deque([init])
    while q:
        cur = q.popleft()
        row = []
        for cols in columns:
            key = reference_min_plus_step(cur, cols, top)
            if key is None:
                row.append(-1)  # patched to the fail state below
                continue
            if key not in states:
                if len(states) >= state_cap:
                    raise RuntimeError(
                        f"state cap {state_cap} hit after {len(states)} states")
                states[key] = len(order)
                order.append(key)
                q.append(key)
            row.append(states[key])
        rows.append(row)
    fail = len(rows)
    rows = [[fail if s == -1 else s for s in row] for row in rows]
    rows.append([fail] * len(ball.presentation.alphabet.symbols))
    accept = frozenset(range(fail))
    dfa = Dfa(rows, accept, ball.presentation.alphabet.symbols)
    dfa.state_vectors = tuple(order) + ("fail",)
    return dfa


def maximizing_words_bruteforce(ball, h, g, len_cap):
    """All words up to len_cap for vertex g with the best height.

    The reference oracle for the acceptor: plain enumeration, nothing
    shared with the automaton path.  Words that wander outside the ball
    are not candidates, so choose len_cap at most the radius when the
    answer must be complete.
    """
    if not 0 <= g < len(ball):
        raise ValueError("vertex outside the ball")
    best = None
    out = set()
    frontier = [((), 0)]
    for _ in range(len_cap + 1):
        nxt = []
        for word, v in frontier:
            if v == g:
                val = h(word)
                if best is None or val > best:
                    best = val
                    out = {word}
                elif val == best:
                    out.add(word)
            if len(word) < len_cap:
                for sym, t in ball.neighbours(v):
                    nxt.append((word + (sym,), t))
        frontier = nxt
        if not frontier:
            break
    return out


# ---------------------------------------------------------------------------
# DFA minimization by table filling: pairwise distinguishability, nothing
# shared with the partition refinement in relhyp.automata.minimize.

def reference_minimize(transitions, accept, initial):
    """(transitions, accept, initial) of the minimal DFA of the accessible
    part, states numbered by the least original state they merge and each
    taking that state's row, as relhyp.automata.minimize numbers them.

    A pair of states is apart when one accepts and the other does not, or
    when some letter takes it to an apart pair; marking runs backwards
    from the accept/reject pairs along the inverse edges, pair by pair.
    """
    reach = {initial}
    stack = [initial]
    while stack:
        for t in transitions[stack.pop()]:
            if t not in reach:
                reach.add(t)
                stack.append(t)
    states = sorted(reach)
    into = {}   # (state, letter) -> the states that letter takes there
    for s in states:
        for sym, t in enumerate(transitions[s]):
            into.setdefault((t, sym), []).append(s)
    apart = {(p, q) for p in states for q in states
             if (p in accept) != (q in accept)}
    work = list(apart)
    while work:
        p, q = work.pop()
        for sym in range(len(transitions[initial])):
            for a in into.get((p, sym), ()):
                for b in into.get((q, sym), ()):
                    if (a, b) not in apart:
                        apart.add((a, b))
                        work.append((a, b))
    least = {q: min(p for p in states if (p, q) not in apart)
             for q in states}
    reps = sorted(set(least.values()))
    number = {r: i for i, r in enumerate(reps)}
    rows = [[number[least[t]] for t in transitions[r]] for r in reps]
    return (rows, {number[r] for r in reps if r in accept},
            number[least[initial]])


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


def reference_cocycle_witness(sigma, ball):
    """First (g, h, k), in that order, where sigma(g, h) + sigma(gh, k)
    differs from sigma(g, hk) + sigma(h, k), among triples whose products
    gh, hk and (gh)k are in the ball (by ball_product) and where sigma is
    defined on all four pairs; None when no triple fails."""
    n = len(ball)
    prod = {(g, h): ball_product(ball, g, h)
            for g in range(n) for h in range(n)}
    for g in range(n):
        for h in range(n):
            gh = prod[g, h]
            for k in range(n):
                hk = prod[h, k]
                if gh is None or hk is None or prod[gh, k] is None:
                    continue
                vals = sigma(g, h), sigma(gh, k), sigma(g, hk), sigma(h, k)
                if None not in vals and \
                        vals[0] + vals[1] != vals[2] + vals[3]:
                    return (g, h, k)
    return None


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


def reference_snf(a):
    """Smith normal form: returns (U, D, V) with A = U @ D @ V, U and V
    unimodular, D diagonal with each entry dividing the next.

    The reference for relhyp.homology.snf: the same pivot rule, with
    each operation on D mirrored on U or V by a helper as it happens
    instead of streamed from one D-only elimination.  Its D comes out
    0 x 0 for a matrix with no rows, so compare on nonempty shapes.
    """
    from relhyp.homology import IntMatrix

    m, n = a.rows, a.cols
    d = [list(r) for r in a.entries]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    # every elementary operation on d is mirrored by the INVERSE
    # operation on u or v, keeping a = u d v exact throughout
    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        for r in range(m):
            u[r][i], u[r][j] = u[r][j], u[r][i]

    def row_addmul(i, j, c):  # row i += c * row j
        for s in range(n):
            d[i][s] += c * d[j][s]
        for r in range(m):
            u[r][j] -= c * u[r][i]

    def row_negate(i):
        for s in range(n):
            d[i][s] = -d[i][s]
        for r in range(m):
            u[r][i] = -u[r][i]

    def col_swap(i, j):
        for r in range(m):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        v[i], v[j] = v[j], v[i]

    def col_addmul(j, i, c):  # col j += c * col i
        for r in range(m):
            d[r][j] += c * d[r][i]
        for s in range(n):
            v[i][s] -= c * v[j][s]

    t = 0
    while t < min(m, n):
        # locate the smallest nonzero entry and pivot on it
        pivot = None
        for r in range(t, m):
            for c in range(t, n):
                if d[r][c] != 0 and (pivot is None
                                     or abs(d[r][c]) < abs(d[pivot[0]][pivot[1]])):
                    pivot = (r, c)
        if pivot is None:
            break
        row_swap(t, pivot[0])
        col_swap(t, pivot[1])
        if d[t][t] < 0:
            row_negate(t)
        dirty = False
        for r in range(t + 1, m):
            if d[r][t] != 0:
                q = d[r][t] // d[t][t]
                row_addmul(r, t, -q)
                dirty = dirty or d[r][t] != 0
        for c in range(t + 1, n):
            if d[t][c] != 0:
                q = d[t][c] // d[t][t]
                col_addmul(c, t, -q)
                dirty = dirty or d[t][c] != 0
        if dirty:
            continue  # remainders became new, smaller pivot candidates
        # pivot must divide the rest of the submatrix for the chain
        stuck = False
        for r in range(t + 1, m):
            for c in range(t + 1, n):
                if d[r][c] % d[t][t] != 0:
                    row_addmul(t, r, 1)
                    stuck = True
                    break
            if stuck:
                break
        if stuck:
            continue
        t += 1
    return (IntMatrix.from_rows(u), IntMatrix.from_rows(d),
            IntMatrix.from_rows(v))


def _longitude_pair(u, v):
    """Some (p, q) with p*v + q*u = 1, by the extended Euclid run."""
    old_r, r = v, u
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r == -1:
        old_r, old_s, old_t = 1, -old_s, -old_t
    assert old_r == 1, (u, v)
    return old_s, old_t


def reference_h1_presentation(k, fillings, turns=0):
    """The whole presentation matrix of the filled manifold's first
    homology, columns being relations: for each filled torus i,
      lambda_i -> p_i*alpha_i + q_i*sum_j k_ij*alpha_j + e_i
      mu_i     -> u_i*alpha_i + v_i*sum_j k_ij*alpha_j
    in the basis (alpha_1..alpha_n, e_1..e_nf).  (p_i, q_i) is the
    extended Euclid pair moved by turns*(u_i, -v_i), which keeps
    p_i*v_i + q_i*u_i = 1, so different turns glue the same slopes
    with different longitudes."""
    from relhyp.homology import IntMatrix

    n, nf = k.n, len(fillings)
    rows = []
    for i, f in enumerate(fillings):
        p, q = _longitude_pair(f.u, f.v)
        p, q = p + turns * f.u, q - turns * f.v
        assert p * f.v + q * f.u == 1
        lam = [q * x for x in k.entries[i]] + [0] * nf
        mu = [f.v * x for x in k.entries[i]] + [0] * nf
        lam[i] += p
        mu[i] += f.u
        lam[n + i] = 1
        rows += [lam, mu]
    cols = list(zip(*rows)) if rows else [()] * (n + nf)
    return IntMatrix(n + nf, len(rows), tuple(cols))


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
# one electric distance map per start from its own 0/1 BFS.

def reference_is_k_local(ball, rp, word, k):
    """True when every window of electric length <= k realizes the in-ball
    electric distance between its endpoints."""
    verts = [0]
    for sym in word:
        verts.append(ball.edges[verts[-1]][sym])
    for i in range(len(word)):
        # parabolic edges weigh 0 and go to the front, the others weigh 1
        dist = {verts[i]: 0}
        q = deque([verts[i]])
        while q:
            v = q.popleft()
            for sym, t in enumerate(ball.edges[v]):
                if t is None:
                    continue
                weight = int(rp.family_of_symbol(sym) is None)
                if dist[v] + weight < dist.get(t, math.inf):
                    dist[t] = dist[v] + weight
                    if weight:
                        q.append(t)
                    else:
                        q.appendleft(t)
        el = 0
        for j in range(i + 1, len(word) + 1):
            el += rp.family_of_symbol(word[j - 1]) is None
            if el > k:
                break
            if dist[verts[j]] != el:
                return False
    return True


# ---------------------------------------------------------------------------
# Bounded-coset-penetration scan reference: one full evaluation per sample,
# as first written.  The relhyp names are looked up at call time, so a test
# may patch ``relhyp.electric.distance``.

def reference_bcp_scan(ball, rp, samples, seed, identical=False):
    import random
    from relhyp.electric import (
        coset_table, distance, electric_geodesic_tree, penetrations,
    )
    rng = random.Random(seed)
    max_radius = max(0, ball.radius - 2)
    table = coset_table(ball, rp)
    tree = electric_geodesic_tree(ball, rp, 0)
    pool = [v for v in range(len(ball)) if ball.length_of(v) <= max_radius]
    entry_gap = exit_gap = travel = 0
    skipped = 0
    pairs = 0
    for _ in range(samples):
        g = rng.choice(pool)
        if identical:
            h = g
        else:
            nbrs = [t for _, t in ball.neighbours(g)
                    if ball.length_of(t) <= max_radius]
            h = rng.choice(nbrs + [g])
        w1, w2 = tree[g][1], tree[h][1]
        pens1 = penetrations(ball, rp, w1, table)
        pens2 = penetrations(ball, rp, w2, table)
        verts1 = ball.prefix_vertices(w1)
        verts2 = ball.prefix_vertices(w2)
        by1 = {}
        for p in pens1:
            by1.setdefault((p.family, p.coset), []).append(p)
        by2 = {}
        for p in pens2:
            by2.setdefault((p.family, p.coset), []).append(p)
        ok = True
        for key in set(by1) | set(by2):
            if key in by1 and key in by2:
                a_in = verts1[min(p.enter for p in by1[key])]
                b_in = verts2[min(p.enter for p in by2[key])]
                a_out = verts1[max(p.leave for p in by1[key])]
                b_out = verts2[max(p.leave for p in by2[key])]
                d_in = distance(ball, a_in, b_in)
                d_out = distance(ball, a_out, b_out)
                if d_in is None or d_out is None:
                    ok = False
                    break
                entry_gap = max(entry_gap, d_in)
                exit_gap = max(exit_gap, d_out)
            else:
                pens = by1.get(key, by2.get(key))
                verts = verts1 if key in by1 else verts2
                for p in pens:
                    d = distance(ball, verts[p.enter], verts[p.leave])
                    if d is None:
                        ok = False
                        break
                    travel = max(travel, d)
                if not ok:
                    break
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
    alphabet = rp.base.alphabet
    # the family's group is the quotient that kills every other generator
    killed = tuple((g,) for g in alphabet.generator_indices()
                   if g not in fam.generators)
    return build_ball(Presentation(alphabet, fam.relators + killed), radius)


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
# Cusp references: the length of a path read off its edges, and for any
# weighted graph the push-every-neighbour Dijkstra, the tie-broken walk-back
# and the full thinness gap scan, as first written.

def path_length(cx, path):
    """Sum of the edge lengths along a vertex path of a cusp complex;
    ValueError at the first pair of consecutive vertices with no edge."""
    total = 0.0
    for u, v in zip(path, path[1:]):
        w = next((w for t, w in cx.adj[u] if t == v), None)
        if w is None:
            raise ValueError(f"vertices {u} and {v} are not adjacent")
        total += w
    return total


def reference_dijkstra(adj, src):
    """Distances from src, None where unreached.  Pushes every candidate
    to an unsettled neighbour."""
    dist = [None] * len(adj)
    heap = [(0.0, src)]
    while heap:
        d, x = heappop(heap)
        if dist[x] is not None:
            continue
        dist[x] = d
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

    print("\n== area ==")
    for n in range(1, 5):
        w = commutator_word(n)
        print(f"area lower bound (shoelace) [a,b^{n}] = {z2_loop_shoelace(w)}")

    print("\n== fftp kernel (Z, delta=1, H=-len) ==")
    print("T[a][a][1] =", z_kernel_entry(1, 1, 1, 0))
    print("T[a][1][1] =", z_kernel_entry(1, 1, 0, 0))
    print("phi0(g)=2|g| spot:", [2 * abs(g) for g in (0, 1, -1)])

    print("\n== cusp (psi=3, omega=1/3) ==")
    psi, om = 3.0, 1.0 / 3.0
    print("vertical edge =", cusp_vertical_edge(psi, om))
    print("L=9 i=k=0 N=6 ->", cusp_closed_form(9.0, 0, 0, psi, om, 6))
    print("L=1 i=k=0 N=6 ->", cusp_closed_form(1.0, 0, 0, psi, om, 6))
    print("level bound =", cusp_level_bound(psi, om))
    print("delta const =", cusp_delta(psi, om))
    print("criterion-9 cap =", cusp_delta(psi, om) + 2)

    print("\n== hyp2 ==")
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


if __name__ == "__main__":
    main()
