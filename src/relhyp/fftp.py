"""Additive heights and the finite acceptor of their maximizing words.

A height gives each letter a nonpositive integer value and scores a word
by the sum of its letter values; negated word length and negated electric
length are the two shipped ones.  A word is maximizing when no other word
for the same group element scores higher.  When non-maximizing words are
always beaten by a fellow traveller, the per-prefix deficits against
nearby competitors form a finite state, and the maximizing words are
exactly the language of a DFA built from a transition kernel over the
delta-ball, with a single absorbing fail state.  Kernel entries are least
path costs, a letter costing minus its value; one ``cayley.least_costs``
sweep finds all rows of a letter, and the same sweep, transposed, finds
those of its inverse (see ``transition_kernel``).

The deficit state of a prefix u assigns to each g in the delta-ball the
worst value of H(u) - H(v z_g) over competitors v for u g^-1; the prefix
stays alive while every coordinate is nonnegative, and coordinates are
clamped at 2*K*delta (bounded difference keeps anything larger from ever
mattering).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .automata import Dfa
from .cayley import GroupBall, least_costs
from .words import Word, word_inverse


@dataclass
class HeightFunction:
    """Additive word score: H(w) is the sum of the letter values of w.

    Each letter value is a nonpositive int, so K = max|v| + 1 is a strict
    bound on |H(w) - H(wx)|.  An additive height is right
    order-preserving and strongly translation invariant, which is what
    the acceptor construction needs.
    """
    letter_values: dict

    def __post_init__(self):
        for sym, val in self.letter_values.items():
            if not isinstance(val, int) or val > 0:
                raise ValueError(f"letter value {val!r} of symbol {sym} is "
                                 "not a nonpositive integer")

    @property
    def K(self) -> int:
        return max(map(abs, self.letter_values.values()), default=0) + 1

    def __call__(self, word: Word) -> int:
        return sum(self.letter_values[s] for s in word)


def neg_length_height(alphabet) -> HeightFunction:
    """H(w) = -len(w): maximizing words are the geodesic words."""
    return HeightFunction({s: -1 for s in range(len(alphabet.symbols))})


def neg_electric_height(rp) -> HeightFunction:
    """H(w) = -(letters outside the parabolic families)."""
    values = {}
    for s in range(len(rp.base.alphabet.symbols)):
        values[s] = 0 if rp.family_of_symbol(s) is not None else -1
    return HeightFunction(values)


def ball_b_delta(ball: GroupBall, delta: int) -> int:
    """The number k of vertices in the delta-ball.

    The ball numbers its vertices breadth first, so word lengths never
    fall along the vertex order: the delta-ball is the vertices 0..k-1,
    and every prefix of a word is an earlier vertex in it.
    """
    if delta > ball.radius:
        raise ValueError("delta exceeds the ball radius")
    return bisect_right(ball.words, delta, key=len)


def transition_kernel(ball: GroupBall, delta: int, h: HeightFunction) -> dict:
    """Per-letter table T[x][g][h] of best competitor continuations.

    T[x][g][h] is the least value of H(x) - H(z_g^-1 w z_h) + H(z_g z_g^-1)
    over injective connecting paths w from g^-1 to x.h^-1 inside the union
    of the delta-balls at 1 and at x; +inf (math.inf) when no path exists.
    Indices follow the delta-ball's vertices in order.  Under the key
    "initial" goes the deficit vector of the empty word, unclamped:
    competitors are the words that stay inside the delta-ball, so
    coordinate g is the least cost of reaching g^-1 from 1 there, less
    H(z_g), and +inf when nothing reaches it.

    Cost: the rows T[x][g] of one letter are searches over the same set
    from every g^-1, that is from the whole delta-ball, where a letter
    costs minus its value; so one ``cayley.least_costs`` level sweep
    fills all of them at once.

    One sweep serves a letter and its inverse.  Write U_x for the union
    of the delta-balls at 1 and at x, and C_c[x][g][h] for the least
    c-cost of a path from z_g^-1 to x.z_h^-1 inside U_x.  Left
    multiplication by x^-1 maps U_x onto U_{x^-1}, and reversing a path
    swaps its ends and inverts its letters, so C_c[x^-1] is the transpose
    of C_cbar[x], where cbar(s) = c(s^-1); the ball keeps every edge
    between two of its vertices, so this holds inside it.  Letters pair as
    x, x ^ 1; when the height scores each letter as its inverse, cbar = c
    and the sweep of x is reused, and otherwise x is swept once more
    under cbar.
    """
    if delta < 1:
        raise ValueError("delta must be at least 1")
    if ball.radius < delta + 1:
        raise ValueError("need ball radius >= delta + 1")
    symbols = ball.presentation.alphabet.symbols
    for sym, name in enumerate(symbols):
        if sym not in h.letter_values:
            raise ValueError(f"the height has no letter value for symbol "
                             f"{sym} ({name})")
    bdelta = range(ball_b_delta(ball, delta))
    zwords = ball.words[:len(bdelta)]
    heights = [h(z) for z in zwords]
    inverses = [ball.evaluate(word_inverse(z)) for z in zwords]
    costs = {sym: -value for sym, value in h.letter_values.items()}
    flipped = {sym ^ 1: c for sym, c in costs.items()}
    tables = {}
    for x in range(0, len(symbols), 2):
        # the delta-ball at x is x times the one at 1
        allowed = set(bdelta).union(ball.evaluate((x,) + z) for z in zwords)
        dsts = [ball.evaluate((x,) + word_inverse(z)) for z in zwords]
        rows = least_costs(ball, costs, inverses, dsts, allowed)
        bar = rows if flipped == costs else least_costs(
            ball, flipped, inverses, dsts, allowed)
        for y, least in ((x, rows), (x ^ 1, zip(*bar))):
            tables[y] = [[base - hh + c for hh, c in zip(heights, row)]
                         for base, row in zip((h((y,)) + hg for hg in heights),
                                              least)]
    (start,) = least_costs(ball, costs, [0], inverses, set(bdelta))
    initial = [c - hg for c, hg in zip(start, heights)]
    return {"table": tables, "initial": initial}


_BIT_COUNTS = bytes(i.bit_count() for i in range(256))  # by byte value


class _Thermometer:
    """Deficit vectors over n coordinates as packed thermometer codes (see
    ``build_fftp_automaton``); ``rows[g]`` packs the kernel rows T[x][g][.]
    of every letter x side by side, letter 0 in the lowest n lanes."""

    def __init__(self, tables, n, top):
        values = set()
        for table in tables:
            for row in table:
                values.update(row)
        values.discard(math.inf)
        lo = min(values | {0})
        levels = top - lo
        width = (levels + top + 7) // 8
        empty = bytes(width)
        lanes = {v: ((1 << levels) - (1 << (v - lo))).to_bytes(width, "little")
                 for v in range(lo, top)}
        for v in values | {top, math.inf}:
            lanes.setdefault(v, empty)
        self._lane = lanes.__getitem__
        self._width = width
        self._top = top
        self._letters = len(tables)
        self._size = n * width  # bytes of one letter's code
        self._keep = self._fill(self._letters * n, (1 << levels) - 1)
        self._neg = self._fill(n, (1 << -lo) - 1)
        self.rows = [self.encode([v for table in tables for v in table[g]])
                     for g in range(n)]

    def _fill(self, n, lane):
        return int.from_bytes(lane.to_bytes(self._width, "little") * n, "little")

    def encode(self, vec) -> int:
        return int.from_bytes(b"".join(map(self._lane, vec)), "little")

    def decode(self, code: int) -> tuple:
        """The clamped vector of a masked code: a lane holding value v < top
        has top - v bits set, summed over its bytes' bit counts."""
        w, top = self._width, self._top
        bits = code.to_bytes(self._size, "little").translate(_BIT_COUNTS)
        return tuple(top - b for b in map(sum, zip(*[iter(bits)] * w)))

    @staticmethod
    def groups(vec) -> tuple:
        """(value, coordinates) for each distinct value of a vector."""
        by_value = {}
        for g, v in enumerate(vec):
            by_value.setdefault(v, []).append(g)
        return tuple(by_value.items())

    def step(self, groups):
        """Masked codes of the next states, one per letter, from the
        current state's ``groups``; None for a letter after which a
        coordinate drops below zero."""
        rows, size, neg = self.rows, self._size, self._neg
        code = 0
        for c, coords in groups:
            code |= reduce(or_, map(rows.__getitem__, coords)) << c
        raw = (code & self._keep).to_bytes(self._letters * size, "little")
        keys = [int.from_bytes(raw[i:i + size], "little")
                for i in range(0, len(raw), size)]
        return [None if key & neg else key for key in keys]


def build_fftp_automaton(ball: GroupBall, delta: int, h: HeightFunction,
                         state_cap: int = 20000) -> Dfa:
    """DFA accepting exactly the maximizing words of the height.

    States are clamped deficit vectors over the delta-ball plus one
    absorbing fail state; a vector coordinate dropping below zero means a
    strictly better fellow traveller exists for some extension, which
    the height's right order-preservation turns into permanent
    non-maximality.  The accepted language is prefix-closed.

    Each step is the (min, +) product next[h] = min over g of cur[g] +
    T[x][g][h], clamped at top = 2*K*delta, done bit-parallel on
    thermometer codes.  A vector is one int with one lane of whole bytes
    per coordinate.  Bit b of a lane means "value <= lo + b" for the
    levels lo .. top-1, where lo = min(0, least finite kernel entry), and
    at least top guard bits sit above those levels.  A value >= top, or inf,
    is an empty lane.  Then:

    - the OR of two codes is their coordinatewise min, since a lane's set
      bits are exactly the levels at or above its value;
    - a left shift by c, 0 <= c <= top, adds c to every coordinate, and
      the guard bits keep it from spilling into the next lane;
    - so the OR over g of row T[x][g][.] shifted by cur[g] codes next,
      and masking with KEEP (the levels below top) clamps it at top;
    - the prefix fails iff the code meets NEG, the levels below 0.

    A shift distributes over OR, so a step ORs the rows of the
    coordinates that share a deficit value first and shifts once per
    distinct value: OR over c of ((OR over g with cur[g] = c of
    T[x][g][.]) << c).  States take a few distinct values over many
    coordinates.  Since no shift carries out of a lane, the packed rows
    of all letters sit side by side in one int per g, and one step
    gives the next code of every letter, cut apart afterwards.  A masked
    code determines its clamped vector, so it keys the states; each new
    state is decoded once, by per-byte bit counts, and its coordinates
    are grouped by value once.
    """
    kern = transition_kernel(ball, delta, h)
    top = 2 * h.K * delta
    symbols = range(len(ball.presentation.alphabet.symbols))
    codes = _Thermometer([kern["table"][x] for x in symbols],
                         len(kern["initial"]), top)
    init = tuple(min(v, top) for v in kern["initial"])
    del kern  # the packed rows replace the table
    if any(v < 0 for v in init):
        raise ValueError("the empty word is not maximizing for this height")

    states = {codes.encode(init): 0}
    order = [init]
    rows = []
    q = deque([codes.groups(init)])
    while q:
        cur = q.popleft()
        row = []
        for key in codes.step(cur):
            if key is None:
                row.append(-1)  # patched to the fail state below
                continue
            if key not in states:
                if len(states) >= state_cap:
                    raise RuntimeError(
                        f"state cap {state_cap} hit after {len(states)} states")
                states[key] = len(order)
                vec = codes.decode(key)
                order.append(vec)
                q.append(codes.groups(vec))
            row.append(states[key])
        rows.append(row)
    fail = len(rows)
    rows = [[fail if s == -1 else s for s in row] for row in rows]
    rows.append([fail] * len(ball.presentation.alphabet.symbols))
    accept = frozenset(range(fail))
    dfa = Dfa(rows, accept, ball.presentation.alphabet.symbols)
    dfa.state_vectors = tuple(order) + ("fail",)
    return dfa

