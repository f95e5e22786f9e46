"""Central integer extensions in trivialized coordinates.

An extension of the ball's group by the integers is modeled as pairs
(g, m) multiplying by (g,m)(h,n) = (gh, m+n+sigma(g,h)); no abstract
extension group is ever constructed.  A cocycle sigma is any callable
on pairs of ball vertices returning an integer, or None where a product
falls outside the ball.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cayley import GroupBall


class CocycleTable:
    """Cocycle backed by a dict on vertex pairs; missing pairs are
    undefined (None)."""

    def __init__(self, table: dict, coverage: float = 1.0):
        self.table = dict(table)
        self.coverage = coverage

    def __call__(self, g, h):
        return self.table.get((g, h))


def _product_table(ball: GroupBall):
    """prod[g][h] is g*h for all ball vertices g, h, or None when it leaves
    the ball.  Shortlex words are prefix-closed: words[h] is its parent
    p's word plus one letter s, so g*h is one s-edge from g*p, filled
    parents first."""
    words, edges = ball.words, ball.edges
    steps = []
    for h in range(1, len(ball)):
        s = words[h][-1]
        p = edges[h][s ^ 1]
        assert p is not None and words[p] == words[h][:-1], \
            f"word of vertex {h} does not extend its parent's"
        steps.append((p, s))
    prod = []
    for g in range(len(ball)):
        row = [g]
        for p, s in steps:
            v = row[p]
            row.append(None if v is None else edges[v][s])
        prod.append(row)
    return prod


def cocycle_check(sigma, ball: GroupBall):
    """Exhaustive cocycle identity scan: returns (True, None) or
    (False, first failing (g, h, k) triple, in (g, h, k) order).

    sigma is called once on every vertex pair, and the scan reads those
    dense rows.  A triple counts when gh, hk and (gh)k stay in the ball
    and sigma is defined at (g, h), (gh, k), (g, hk) and (h, k)."""
    prod = _product_table(ball)
    n = len(ball)
    S = [[sigma(g, h) for h in range(n)] for g in range(n)]
    # per h, the k with hk in the ball and sigma(h, k) defined
    ks = [[(k, hk, s) for k, (hk, s) in enumerate(zip(prod_h, S_h))
           if hk is not None and s is not None]
          for prod_h, S_h in zip(prod, S)]
    for g, (prod_g, S_g) in enumerate(zip(prod, S)):
        for h, (gh, s_gh) in enumerate(zip(prod_g, S_g)):
            if gh is None or s_gh is None:
                continue
            prod_gh, S_gh = prod[gh], S[gh]
            for k, hk, s_hk in ks[h]:
                left, right = S_gh[k], S_g[hk]
                if prod_gh[k] is None or left is None or right is None:
                    continue
                if s_gh + left != right + s_hk:
                    return (False, (g, h, k))
    return (True, None)


def section_to_cocycle(rho, ball: GroupBall) -> CocycleTable:
    """Coboundary of a section: sigma(g,h) = rho(g) + rho(h) - rho(gh),
    tabulated wherever gh stays in the ball.  rho maps vertices to
    integers with rho(identity) = 0."""
    if rho(0) != 0:
        raise ValueError("section must vanish at the identity")
    n = len(ball)
    table = {}
    for g, row in enumerate(_product_table(ball)):
        for h, gh in enumerate(row):
            if gh is not None:
                table[g, h] = rho(g) + rho(h) - rho(gh)
    return CocycleTable(table, coverage=len(table) / (n * n))


def is_coboundary_table(tau, ball: GroupBall):
    """Decide whether tau(g,h) = f(g) + f(h) - f(gh) is solvable on the
    ball; returns (True, f table) or (False, None).

    Along the shortlex tree, v = p*x gives f(v) = f(p) + f(x) - tau(p, x),
    so each f(v) is an integer affine form in a few unknowns: f of each
    letter, f(identity) if tau(1, 1) is undefined, and f(v) if tau(p, x)
    is.  Every defined equation is then an exact check row in those
    unknowns, reduced against an echelon basis; inconsistency anywhere
    refutes solvability on this ball.  Free unknowns are 0; f is rational.
    """
    prod = _product_table(ball)
    RHS = -1  # unknowns are named by their vertices

    def combine(rhs, *terms):
        row = {RHS: rhs}
        for scale, other in terms:
            for u, c in other.items():
                row[u] = row.get(u, 0) + scale * c
        return row

    # a row states sum(c * f(u) for unknowns u) = row[RHS], and
    # forms[v] = row means f(v) = sum(c * f(u)) - row[RHS]
    t = tau(0, 0)
    forms = [{0: 1} if t is None else {RHS: -t}]
    for v in range(1, len(ball)):
        s = ball.words[v][-1]
        p, x = ball.edges[v][s ^ 1], ball.edges[0][s]
        t = tau(p, x) if p else None
        forms.append({v: 1} if t is None else
                     combine(t, (1, forms[p]), (1, forms[x])))

    basis = {}  # pivot -> row with coefficient 1 there, 0 at other pivots
    for g, form in enumerate(forms):
        for h, gh in enumerate(prod[g]):
            t = None if gh is None else tau(g, h)
            if t is None:
                continue
            row = combine(t, (1, form), (1, forms[h]), (-1, forms[gh]))
            row = combine(0, (1, row), *[(-row[u], basis[u])
                                         for u in row if u in basis])
            row = {u: c for u, c in row.items() if c}
            if not row:
                continue
            pivot = max(row)
            if pivot == RHS:  # 0 = nonzero
                return (False, None)
            if row[pivot] != 1:
                pc = Fraction(row[pivot])
                row = {u: c / pc for u, c in row.items()}
            for q, brow in basis.items():
                if brow.get(pivot):
                    basis[q] = combine(0, (1, brow), (-brow[pivot], row))
            basis[pivot] = row
    value = {u: row.get(RHS, 0) for u, row in basis.items()}
    value[RHS] = -1
    return (True, {v: Fraction(sum(c * value.get(u, 0)
                                   for u, c in form.items()))
                   for v, form in enumerate(forms)})


@dataclass
class SpreadReport:
    right: dict     # symbol -> max |sigma(g, x)|
    left: dict      # symbol -> max |sigma(x, g)|
    constant: int   # overall max
    declared_c: object = None
    within_declared: bool = None


def weakly_bounded_report(sigma, ball: GroupBall,
                          declared_c=None) -> SpreadReport:
    """Per-generator spread of a cocycle over the ball: for each letter
    x, the largest |sigma(g,x)| and |sigma(x,g)| seen.  With a declared
    constant, also reports whether every spread stays within it."""
    letter = {s: ball.evaluate((s,)) for s in ball.symbol_moves()}
    prod = _product_table(ball)
    right = {}
    left = {}
    for s, lv in letter.items():
        r_best = 0
        l_best = 0
        for g in range(len(ball)):
            val = sigma(g, lv)
            if val is not None and prod[g][lv] is not None:
                r_best = max(r_best, abs(val))
            val = sigma(lv, g)
            if val is not None and prod[lv][g] is not None:
                l_best = max(l_best, abs(val))
        right[s] = r_best
        left[s] = l_best
    constant = max(list(right.values()) + list(left.values()) + [0])
    within = None if declared_c is None else constant <= declared_c
    return SpreadReport(right, left, constant, declared_c, within)


def spread_trend(reports):
    """Compare spread constants across nested balls: strictly growing
    constants flag an unbounded trend."""
    consts = [r.constant for r in reports]
    growing = all(a < b for a, b in zip(consts, consts[1:]))
    return {"constants": consts, "unbounded_trend": growing}

