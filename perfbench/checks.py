"""Independent checks of relhyp JSON reports.

Nothing here imports relhyp.  Each group is modelled directly: free
products of finite and infinite cyclic (or free abelian) factors by
syllable normal forms, which covers F2, Z^k, Z/3xZ, Z/2*Z/3 and Z*Z^2,
and S3 by permutations.  Expected values come from closed forms or from
these models:

- ball: breadth-first search in the model gives the vertices in shortlex
  discovery order, so words, sphere sizes and edge count are exact;
- geodesics: the multinomial count and the first words in lexicographic
  order of the letter multiset;
- fftp-automaton: every word up to length 6 against a predicate, namely
  sign-consistency for Z^k, free reduction for F2, and for the rel <b>
  heights the a-count of the freely reduced word (F2) or the absolute
  a-exponent (Z^2);
- electric-area: area([a, b^n]) = n and upper >= exact;
- dehn-fill: ranks by exact elimination, and the torsion product against
  the gcd of the maximal minors, each a Bareiss determinant;
- cocycle-check: Heisenberg spread R-1 and the spreads of the section
  cocycle from Z^2 coordinates; only the section cocycle is a coboundary
  (a coboundary on an abelian group is symmetric, sigma(a,b) != sigma(b,a)
  for Heisenberg);
- thinness, clip-track, bcp-scan, cusp-distance, hyp2-check: vertex and
  edge counts, closed-form constants and the invariants the report states.

``check_job`` returns the reasons a job failed; an empty list is a pass.
"""

import json
import math
from fractions import Fraction


# ------------------------------------------------------------ group models

class SyllableGroup:
    """Free product of abelian factors.  ``factors`` lists each factor's
    orders (0 = infinite) per coordinate; ``gens`` maps generator i to
    (factor, unit coordinate).  An element is a tuple of (factor, vector)
    syllables with consecutive factors distinct and no zero vector."""

    def __init__(self, factors, gens):
        self.factors = factors
        self.gens = gens

    identity = ()

    def mul(self, elem, sym):
        f, coord = self.gens[sym >> 1]
        step = -1 if sym & 1 else 1
        orders = self.factors[f]
        if elem and elem[-1][0] == f:
            vec = list(elem[-1][1])
            rest = elem[:-1]
        else:
            vec = [0] * len(orders)
            rest = elem
        vec[coord] += step
        if orders[coord]:
            vec[coord] %= orders[coord]
        if any(vec):
            return rest + ((f, tuple(vec)),)
        return rest


class PermGroup:
    """Generators as permutations of range(n), multiplied on the right."""

    def __init__(self, perms):
        self.perms = []
        for p in perms:
            inv = [0] * len(p)
            for i, x in enumerate(p):
                inv[x] = i
            self.perms += [tuple(p), tuple(inv)]
        self.identity = tuple(range(len(perms[0])))

    def mul(self, elem, sym):
        p = self.perms[sym]
        return tuple(p[x] for x in elem)


MODELS = {
    "z": SyllableGroup([(0,)], [(0, 0)]),
    "f2": SyllableGroup([(0,), (0,)], [(0, 0), (1, 0)]),
    "f2-rel-b": SyllableGroup([(0,), (0,)], [(0, 0), (1, 0)]),
    "z2": SyllableGroup([(0, 0)], [(0, 0), (0, 1)]),
    "z2-rel-b": SyllableGroup([(0, 0)], [(0, 0), (0, 1)]),
    "z3": SyllableGroup([(0, 0, 0)], [(0, 0), (0, 1), (0, 2)]),
    "z3xz": SyllableGroup([(3, 0)], [(0, 0), (0, 1)]),
    "z2freez3": SyllableGroup([(2,), (3,)], [(0, 0), (1, 0)]),
    "zfreez2": SyllableGroup([(0,), (0, 0)], [(0, 0), (1, 0), (1, 1)]),
    "s3": PermGroup([(1, 0, 2), (1, 2, 0)]),
}


def symbols(letters):
    out = []
    for x in letters:
        out += [x, x.upper()]
    return out


def model_ball(model, nsyms, radius):
    """Shortlex breadth-first ball: (words in discovery order, element ->
    vertex, edge count as the report defines it)."""
    index = {model.identity: 0}
    elems = [model.identity]
    words = [()]
    level = [0]
    for _ in range(radius):
        nxt = []
        for v in level:
            for s in range(nsyms):
                e = model.mul(elems[v], s)
                if e not in index:
                    index[e] = len(elems)
                    elems.append(e)
                    words.append(words[v] + (s,))
                    nxt.append(index[e])
        level = nxt
    inside = sum(1 for e in elems for s in range(nsyms)
                 if model.mul(e, s) in index)
    return words, index, inside // 2


def free_reduce(word):
    out = []
    for s in word:
        if out and out[-1] == s ^ 1:
            out.pop()
        else:
            out.append(s)
    return out


# ----------------------------------------------------------------- checks

def _expect(reasons, label, got, want):
    if got != want:
        reasons.append(f"{label}: got {_short(got)}, want {_short(want)}")


def _short(value):
    text = json.dumps(value)
    return text if len(text) <= 80 else text[:77] + "..."


def check_ball(res, spec):
    syms = symbols(spec["letters"])
    words, _, edges = model_ball(MODELS[spec["group"]], len(syms),
                                 spec["radius"])
    sphere = [0] * (spec["radius"] + 1)
    for w in words:
        sphere[len(w)] += 1
    reasons = []
    _expect(reasons, "sphere_sizes", res["sphere_sizes"], sphere)
    _expect(reasons, "vertices", res["vertices"], len(words))
    _expect(reasons, "edge_count", res["edge_count"], edges)
    if res["words"] != ["".join(syms[s] for s in w) for w in words]:
        reasons.append("words differ from the shortlex ball of the model")
    return reasons


def _multiset_permutations(items, limit):
    """The first ``limit`` distinct arrangements in lexicographic order."""
    cur = sorted(items)
    out = []
    while len(out) < limit:
        out.append(tuple(cur))
        i = len(cur) - 2
        while i >= 0 and cur[i] >= cur[i + 1]:
            i -= 1
        if i < 0:
            break
        j = len(cur) - 1
        while cur[j] <= cur[i]:
            j -= 1
        cur[i], cur[j] = cur[j], cur[i]
        cur[i + 1:] = reversed(cur[i + 1:])
    return out


def check_geodesics(res, spec):
    syms = symbols(spec["letters"])
    exps = spec["exponents"]
    letters = [2 * i for i, e in enumerate(exps) for _ in range(e)]
    count = math.factorial(len(letters))
    for e in exps:
        count //= math.factorial(e)
    shown = _multiset_permutations(letters, spec["budget"])
    reasons = []
    _expect(reasons, "length", res["length"], len(letters))
    _expect(reasons, "count", res["count"], count)
    _expect(reasons, "truncated", res["truncated"], count > spec["budget"])
    if res["geodesics"] != ["".join(syms[s] for s in w) for w in shown]:
        reasons.append("geodesics differ from the first words of the "
                       "multiset in lexicographic order")
    return reasons


FFTP_WORD_LENGTH = 6   # every word up to this length is checked


def _fftp_predicate(group, height):
    """Is the word maximizing?  Words are lists of symbol indices with
    symbol 2i the i-th generator and 2i+1 its inverse."""
    if height == "neg-length" and group == "f2":
        return lambda w: free_reduce(w) == w
    if height == "neg-length":
        def sign_consistent(w):
            seen = set(w)
            return not any(s ^ 1 in seen for s in seen)
        return sign_consistent
    if group == "f2-rel-b":
        return lambda w: (sum(1 for s in w if s < 2)
                          == sum(1 for s in free_reduce(w) if s < 2))
    if group == "z2-rel-b":
        return lambda w: (sum(1 for s in w if s < 2)
                          == abs(w.count(0) - w.count(1)))
    raise ValueError(f"no FFTP model for {group} / {height}")


def check_fftp(res, spec):
    reasons = []
    syms = symbols(spec["letters"])
    _expect(reasons, "symbols", res["symbols"], syms)
    _expect(reasons, "delta", res["delta"], spec["delta"])
    _expect(reasons, "height", res["height"], spec["height"])
    _expect(reasons, "prefix_closed", res["prefix_closed"], True)
    if not res["live_states"] <= res["minimized_states"] <= res["states"]:
        reasons.append("state counts not ordered live <= minimized <= all")
    if reasons:
        return reasons
    trans = res["transitions"]
    accept = set(res["accept"])
    maximizing = _fftp_predicate(spec["group"], spec["height"])
    stack = [([], res["initial"])]
    while stack:
        word, state = stack.pop()
        if (state in accept) != maximizing(word):
            name = "".join(syms[s] for s in word) or "1"
            verdict = "accepts" if state in accept else "rejects"
            return [f"automaton {verdict} {name!r}"]
        if len(word) < FFTP_WORD_LENGTH:
            for s in range(len(syms)):
                stack.append((word + [s], trans[state][s]))
    return reasons


def check_electric_area(res, spec):
    reasons = []
    _expect(reasons, "electric_length", res["electric_length"], 2)
    _expect(reasons, "area_exact", res["area_exact"], spec["n"])
    upper = res["area_upper"]
    if upper is None or (res["area_exact"] is not None
                         and upper < res["area_exact"]):
        reasons.append(f"area_upper {upper} is not >= area_exact")
    return reasons


def check_bcp(res, spec):
    reasons = []
    _expect(reasons, "pairs + skipped", res["pairs"] + res["skipped"],
            spec["samples"])
    gaps = [res["max_entry_gap"], res["max_exit_gap"],
            res["max_unilateral_travel"]]
    if any(not isinstance(g, int) or g < 0 for g in gaps):
        reasons.append(f"gaps must be nonnegative integers: {gaps}")
    else:
        _expect(reasons, "constant", res["constant"], max(gaps))
    _expect(reasons, "identical_control", res["identical_control"], False)
    return reasons


def delta_constant(psi, omega):
    return (4 * omega * psi
            + (math.log(2) / math.log(psi) + 2) * omega * math.log(psi))


def _close(a, b, tol=1e-9):
    return a is not None and abs(a - b) <= tol * max(1.0, abs(b))


def _complex_size(spec):
    """Vertices and edges of the thinness complex from the base model."""
    cap, r = spec["depth_cap"], spec["radius"]
    if spec["group"] == "z":
        return (2 * r + 1) * (cap + 1), 2 * r * (cap + 1) + (2 * r + 1) * cap
    # cusped Cayley graph of F2 rel <b>: base ball, one cusp per b-coset
    words, index, edges = model_ball(MODELS["f2-rel-b"], 4, r)
    model = MODELS["f2-rel-b"]
    b_edges = sum(1 for e in index if model.mul(e, 2) in index)
    n = len(words)
    return n * (cap + 1), edges + n * cap + b_edges * cap


def check_thinness(res, spec):
    reasons = []
    vertices, edges = _complex_size(spec)
    _expect(reasons, "vertices", res["vertices"], vertices)
    _expect(reasons, "edges", res["edges"], edges)
    _expect(reasons, "samples", res["samples"], spec["samples"])
    _expect(reasons, "cusped_cayley", res["cusped_cayley"],
            spec["group"] != "z")
    bound = delta_constant(spec["psi"], 1 / spec["psi"])
    if not _close(res["delta_bound"], bound):
        reasons.append(f"delta_bound {res['delta_bound']} != {bound}")
    if not 0.0 <= res["delta_hat"] <= bound + 2.0:
        reasons.append(f"delta_hat {res['delta_hat']} outside "
                       f"[0, bound + 2]")
    _expect(reasons, "within_bound", res["within_bound"], True)
    return reasons


def check_clip_track(res, spec):
    reasons = []
    width = 2 * spec["radius"] + 1
    _expect(reasons, "clip_depth", res["clip_depth"], spec["clip_depth"])
    _expect(reasons, "clipped_vertices", res["clipped_vertices"],
            width * (spec["clip_depth"] + 1))
    _expect(reasons, "full_vertices", res["full_vertices"],
            width * (spec["depth_cap"] + 1))
    if not 1 <= res["pairs"] <= spec["pairs"]:
        reasons.append(f"pairs {res['pairs']} outside [1, {spec['pairs']}]")
    elif not 0.0 <= res["mean_hausdorff"] <= res["max_hausdorff"]:
        reasons.append("need 0 <= mean_hausdorff <= max_hausdorff")
    return reasons


def check_cusp_distance(res, spec):
    psi, shadow, i, k = spec["psi"], spec["shadow"], spec["i"], spec["k"]
    omega = 1 / psi
    w = omega * math.log(psi)
    # the true cusp geodesic over every depth; the report's cap must be
    # deep enough not to cut it off
    best = min((w * (2 * d - i - k) + psi ** -d * shadow, d)
               for d in range(max(i, k), max(i, k) + 64))
    opt = math.log(shadow / (2 * omega)) / math.log(psi)
    reasons = []
    if not _close(res["length"], best[0]):
        reasons.append(f"length {res['length']} != {best[0]}")
    _expect(reasons, "depth", res["depth"], best[1])
    if not _close(res["optimal_depth"], opt):
        reasons.append(f"optimal_depth {res['optimal_depth']} != {opt}")
    if not _close(res["level_bound"], 2 * omega * psi):
        reasons.append(f"level_bound {res['level_bound']} != 2")
    if not _close(res["delta_constant"], delta_constant(psi, omega)):
        reasons.append("delta_constant differs from the closed form")
    return reasons


def check_hyp2(res, spec):
    mid = [math.log(math.cosh((2 * c + math.log(16.0) + 0.1 * j) / 2)) - c
           for c in (0.5, 1.0, 2.0) for j in range(101)]
    tri = []
    for ui in range(1, 46):
        u = 1.0 + 0.2 * ui
        for ti in range(1, 16):
            s = math.sin(math.pi / 2.0 * ti / 16.0)
            tri.append(math.asinh(math.sinh(u) / s) - u
                       - math.log(1.0 / (2.0 * s)))
    iso = [4.0 * math.exp(-0.1 * j) - 2.0 / (math.cosh(0.1 * j) + 1.0)
           for j in range(1, 201)]
    reasons = []
    _expect(reasons, "passed", res["passed"], True)
    for key, margins in (("ideal_midpoint", mid), ("right_triangle", tri),
                         ("ideal_isosceles", iso)):
        got = res[key]
        _expect(reasons, f"{key}.cases", got["cases"], len(margins))
        if not _close(got["worst_margin"], min(margins)):
            reasons.append(f"{key}.worst_margin {got['worst_margin']} != "
                           f"{min(margins)}")
        if min(margins) < -1e-9:
            reasons.append(f"{key} sweep has a negative margin")
    if not _close(res["tangent_diameter"], 2.0, 1e-6):
        reasons.append(f"tangent_diameter {res['tangent_diameter']} != 2")
    return reasons


def check_cocycle(res, spec):
    radius = spec["radius"]
    pts = [(x, y) for x in range(-radius, radius + 1)
           for y in range(-radius, radius + 1) if abs(x) + abs(y) <= radius]
    inside = set(pts)
    c = spec["rho"]

    def rho(p):
        x, y = p
        return c[0] * x * x + c[1] * x * y + c[2] * y * y + c[3] * x

    if spec["kind"] == "heisenberg":
        def sigma(g, h):
            return g[0] * h[1]
    else:
        def sigma(g, h):
            return rho(g) + rho(h) - rho((g[0] + h[0], g[1] + h[1]))

    names = symbols(spec["letters"])
    unit = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    right, left = {}, {}
    for name, e in zip(names, unit):
        right[name] = max([abs(sigma(g, e)) for g in pts
                           if (g[0] + e[0], g[1] + e[1]) in inside] + [0])
        left[name] = max([abs(sigma(e, g)) for g in pts
                          if (g[0] + e[0], g[1] + e[1]) in inside] + [0])
    reasons = []
    _expect(reasons, "cocycle_identity", res["cocycle_identity"], True)
    _expect(reasons, "violation", res["violation"], None)
    _expect(reasons, "coverage", res["coverage"], 1.0)
    _expect(reasons, "coboundary", res["coboundary"],
            spec["kind"] == "section")
    _expect(reasons, "spread_right", res["spread_right"], right)
    _expect(reasons, "spread_left", res["spread_left"], left)
    constant = max(list(right.values()) + list(left.values()))
    _expect(reasons, "spread_constant", res["spread_constant"], constant)
    if spec["kind"] == "heisenberg":
        _expect(reasons, "Heisenberg spread", constant, radius - 1)
    return reasons


def rank(rows):
    """Rank of a rational matrix by exact elimination."""
    mat = [[Fraction(x) for x in r] for r in rows]
    r = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            if mat[i][col]:
                f = mat[i][col] / mat[r][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def bareiss_det(rows):
    """Determinant of a square integer matrix, fraction-free."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def check_dehn_fill(res, spec):
    k = spec["matrix"]
    slopes = [None if s is None else tuple(s) for s in spec["slopes"]]
    n = len(k)
    filled = [i for i, s in enumerate(slopes) if s is not None]
    # meridian rows u_i e_i + v_i k_i present H1 once the longitude rows
    # have eliminated the e_i generators
    meridians = []
    fill_rows = []
    for i in filled:
        u, v = slopes[i]
        meridians.append([v * k[i][j] + (u if j == i else 0)
                          for j in range(n)])
        if v == 0:
            fill_rows.append([Fraction(u if j == i else 0)
                              for j in range(n)])
        else:
            fill_rows.append([Fraction(u, v) if j == i else Fraction(k[i][j])
                              for j in range(n)])
    r = rank(meridians)
    reasons = []
    _expect(reasons, "components", res["components"], n)
    _expect(reasons, "filled", res["filled"], filled)
    _expect(reasons, "unreduced", res["unreduced"],
            [p for p, i in enumerate(filled) if slopes[i][1] == 0])
    _expect(reasons, "slopes", res["slopes"],
            [None if s is None else f"{s[0]}/{s[1]}" for s in slopes])
    _expect(reasons, "filling_matrix", res["filling_matrix"],
            [[str(x) for x in row] for row in fill_rows])
    _expect(reasons, "nullity", res["nullity"], len(filled) - r)
    basis = res["kernel_basis"]
    if len(basis) != res["nullity"] or (basis and rank(basis) != len(basis)):
        reasons.append("kernel_basis is not a basis of nullity size")
    for vec in basis:
        if any(sum(a * row[j] for a, row in zip(vec, fill_rows))
               for j in range(n)):
            reasons.append(f"kernel vector {_short(vec)} misses alpha.B = 0")
            break
    h1 = res["h1"]
    if h1 is None:
        reasons.append("h1 missing although the filled slopes are a prefix")
        return reasons
    m = n - len(filled)
    _expect(reasons, "rank_lower_bound", h1["rank_lower_bound"], n - r)
    _expect(reasons, "kernel_rank", h1["kernel_rank"], max(0, n - r - m))
    _expect(reasons, "presentation_shape", h1["presentation_shape"],
            [n + len(filled), 2 * len(filled)])
    torsion = h1["torsion"]
    if any(t <= 1 for t in torsion) or any(
            b % a for a, b in zip(torsion, torsion[1:])):
        reasons.append(f"torsion {_short(torsion)} is not a chain of "
                       f"invariant factors > 1")
    if r == len(filled) == n - 1:
        minors = 0
        for col in range(n):
            minors = math.gcd(minors, bareiss_det(
                [row[:col] + row[col + 1:] for row in meridians]))
        _expect(reasons, "torsion product", math.prod(torsion), minors)
    else:
        reasons.append(f"meridian rank {r} with {len(filled)} filled of {n}:"
                       f" no maximal-minor check for this shape")
    return reasons


CHECKERS = {
    "ball": check_ball, "geodesics": check_geodesics, "fftp": check_fftp,
    "electric_area": check_electric_area, "bcp": check_bcp,
    "thinness": check_thinness, "clip_track": check_clip_track,
    "cusp_distance": check_cusp_distance, "hyp2": check_hyp2,
    "cocycle": check_cocycle, "dehn_fill": check_dehn_fill,
}


def check_job(job, rc, stdout, stderr):
    """Reasons the job's run failed; empty when it passed."""
    if rc != 0:
        first = (stderr.strip().splitlines() or ["(no stderr)"])[-1]
        return [f"exit {rc}: {first}"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON report"]
    argv = job["argv"]
    reasons = []
    _expect(reasons, "command", report.get("command"), argv[0])
    _expect(reasons, "seed", report.get("seed"),
            int(argv[argv.index("--seed") + 1]))
    try:
        reasons += CHECKERS[job["check"]["check"]](report["results"],
                                                    job["check"])
    except (KeyError, TypeError, ValueError) as e:
        reasons.append(f"report does not have the expected shape: {e!r}")
    return reasons
