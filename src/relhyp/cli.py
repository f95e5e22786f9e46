"""Command line front end.

One process per command.  Machine-readable JSON goes to stdout, a one
line human summary (with wall-clock time) to stderr.  Exit codes: 0 on
success, 1 on computational errors, 2 on usage errors.  The stdout
report is byte-identical across runs given the same inputs and seed,
which is why timing lives only in the stderr summary.

Presentation files look like

    [generators] a b
    [relators] abAB
    [parabolic P] b

with the uppercase-letter-is-inverse convention.  Section content may
continue on following lines; '#' starts a comment.  Parse failures
carry a line and column.
"""

import argparse
import functools
import json
import math
import random
import re
import sys
import time

from . import __version__
from .words import Alphabet, Presentation, free_reduce
from .cayley import (
    build_ball, geodesic_words, inversion_automorphisms, sphere_sizes,
)
from .electric import (
    ParabolicFamily, RelativePresentation, area_lower, bcp_scan,
    electric_area_exact, electric_area_upper, electric_geodesic_tree,
    electric_length,
)
from .automata import live_states, minimize, prefix_closed
from .fftp import build_fftp_automaton, neg_electric_height
from .cusp import (
    CuspParams, DistanceRows, build_cusp_complex, build_cusped_cayley, clip,
    delta_constant, geodesic_length_closed_form, level_bound, measure_thinness,
    optimal_depth, path_hausdorff,
)
from .hyp2 import (
    ideal_isosceles_angle, ideal_midpoint_check, right_triangle_gap,
    tangent_projection_diameter,
)
from .homology import (
    Filling, LinkingMatrix, filling_matrix, filling_nullity_certificate,
    h1_presentation, kernel_rank,
)
from .extension import (
    CocycleTable, cocycle_check, is_coboundary_table, weakly_bounded_report,
)


class UsageError(Exception):
    """Bad input from the user: malformed file, impossible flag combo."""


class PresentationParseError(UsageError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------- files

_TOKEN = re.compile(r"\S+")   # a whitespace-separated token, as str.split


def _integer(text: str):
    """The integer text spells as [+-]?[0-9]+, else None: int() would also
    take other scripts' digits, underscores and surrounding whitespace."""
    digits = text[1:] if text[:1] in "+-" else text
    return int(text) if digits.isascii() and digits.isdigit() else None


def _decimal(text: str) -> float:
    """argparse type of shadow_length: a finite float spelled
    [+-]?[0-9]*.?[0-9]* with at least one digit.  float() would also take
    nan, inf, exponents, underscores, other scripts' digits and
    surrounding whitespace."""
    unsigned = text[1:] if text[:1] in "+-" else text
    digits = unsigned.replace(".", "", 1)
    value = float(text) if digits.isascii() and digits.isdigit() else math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite decimal, got {text!r}")
    return value


def _decimal_above(low: float):
    """argparse type of --psi (low 1) and --omega (low 0): a _decimal
    above low, the range CuspParams takes."""
    def read(text: str) -> float:
        value = _decimal(text)
        if not value > low:
            raise argparse.ArgumentTypeError(
                f"expected a decimal above {low:g}, got {text!r}")
        return value
    return read


def parse_presentation(text: str) -> RelativePresentation:
    """Parse the sectioned presentation format; symbol order = file order."""
    gens: list = []
    gen_pos: dict = {}
    relator_tokens: list = []        # (token, line, col)
    families: list = []              # (name, [tokens], line, col)
    section = None

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        rest = line
        if line.lstrip().startswith("["):
            open_col = line.index("[") + 1
            close = line.find("]")
            if close < 0:
                raise PresentationParseError("unterminated section header",
                                             ln, open_col)
            header = line[open_col:close].split()
            rest = line[close + 1:]
            if header == ["generators"]:
                if section == "generators" or gens:
                    raise PresentationParseError("duplicate [generators] section",
                                                 ln, open_col)
                section = "generators"
            elif header == ["relators"]:
                section = "relators"
            elif len(header) == 2 and header[0] == "parabolic":
                name = header[1]
                if any(f[0] == name for f in families):
                    raise PresentationParseError(
                        f"duplicate parabolic family {name!r}", ln, open_col)
                families.append((name, [], ln, open_col))
                section = "parabolic"
            else:
                raise PresentationParseError(
                    f"unknown section [{' '.join(header)}]", ln, open_col)
        elif section is None:
            col = len(line) - len(line.lstrip()) + 1
            raise PresentationParseError("content before any section header",
                                         ln, col)
        for m in _TOKEN.finditer(line, len(line) - len(rest)):
            tok, col = m.group(), m.start() + 1
            if section == "generators":
                if not (tok.isalpha() and tok.islower() and len(tok) == 1):
                    raise PresentationParseError(
                        f"generator must be a single lowercase letter: {tok!r}",
                        ln, col)
                if tok in gen_pos:
                    raise PresentationParseError(
                        f"duplicate generator {tok!r}", ln, col)
                gen_pos[tok] = (ln, col)
                gens.append(tok)
            elif section == "relators":
                relator_tokens.append((tok, ln, col))
            else:
                families[-1][1].append((tok, ln, col))

    if not gens:
        raise PresentationParseError("no [generators] section", 1, 1)
    alphabet = Alphabet(gens)

    relators = []
    for tok, ln, col in relator_tokens:
        word = []
        for off, ch in enumerate(tok):
            try:
                word.append(alphabet.index(ch))
            except ValueError:
                raise PresentationParseError(
                    f"unknown symbol {ch!r} in relator", ln, col + off) from None
        reduced = free_reduce(tuple(word))
        if not reduced:
            raise PresentationParseError(
                f"relator {tok!r} reduces to nothing", ln, col)
        relators.append(reduced)

    fams = []
    claimed: dict = {}
    for name, toks, hln, hcol in families:
        if not toks:
            raise PresentationParseError(
                f"parabolic family {name!r} has no generators", hln, hcol)
        idx = []
        for tok, ln, col in toks:
            if tok not in gen_pos:
                raise PresentationParseError(
                    f"parabolic symbol {tok!r} is not a generator", ln, col)
            if tok in claimed:
                raise PresentationParseError(
                    f"generator {tok!r} already in family {claimed[tok]!r}",
                    ln, col)
            claimed[tok] = name
            idx.append(alphabet.index(tok))
        fams.append(ParabolicFamily(name, tuple(idx)))

    base = Presentation(alphabet, tuple(relators))
    return RelativePresentation(base, tuple(fams))


def serialize_presentation(rp: RelativePresentation) -> str:
    ab = rp.base.alphabet
    lines = ["[generators] " + " ".join(ab.generators)]
    if rp.base.relators:
        lines.append("[relators] " + " ".join(ab.to_str(r)
                                              for r in rp.base.relators))
    for fam in rp.families:
        lines.append(f"[parabolic {fam.name}] "
                     + " ".join(ab.symbols[g] for g in fam.generators))
    return "\n".join(lines) + "\n"


def parse_matrix_file(text: str):
    """Plain text matrix: first line "rows cols", then rows of integer
    entries."""
    shape = None
    rows = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        toks = list(_TOKEN.finditer(raw.split("#", 1)[0]))
        if not toks:
            continue
        if shape is None:
            shape = [_integer(m.group()) for m in toks]
            bad = [m for m, d in zip(toks, shape) if d is None or d < 0]
            if bad or len(shape) != 2:
                raise PresentationParseError(
                    'matrix header must be "rows cols"', ln,
                    (bad or toks)[0].start() + 1)
            continue
        row = [_parse_entry(m.group(), ln, m.start() + 1) for m in toks]
        if len(row) != shape[1]:
            raise UsageError(
                f"line {ln}: expected {shape[1]} entries, got {len(row)}")
        rows.append(tuple(row))
    if shape is None:
        raise UsageError("empty matrix file")
    if len(rows) != shape[0]:
        raise UsageError(f"expected {shape[0]} rows, got {len(rows)}")
    return rows


def _parse_entry(tok: str, line: int, col: int):
    value = _integer(tok)
    if value is None:
        raise PresentationParseError(
            f"bad matrix entry {tok!r}; entries must be integers", line, col)
    return value


def parse_slopes(text: str):
    """Dehn filling slopes, one per line: "u/v", "u" (v=1), or "*"
    for an unfilled component."""
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        tok = raw.split("#", 1)[0].strip()
        if not tok:
            continue
        if tok == "*":
            out.append(None)
            continue
        col = raw.index(tok) + 1
        u_s, _, v_s = tok.partition("/")
        u, v = _integer(u_s), _integer(v_s) if v_s else 1
        if u is None or v is None:
            raise PresentationParseError(
                f"bad slope {tok!r}", ln,
                col if u is None else col + len(u_s) + 1)
        try:
            out.append(Filling(u, v))
        except ValueError as e:
            raise UsageError(f"line {ln}: slope {tok!r}: {e}") from None
    return out


def parse_cocycle_file(text: str, rp: RelativePresentation, ball):
    """Triples "g-word h-word value", one per line; "1" is the identity.
    Each distinct word is parsed once, at its first appearance, so every
    error names the line and column where its word first appears."""
    ab = rp.base.alphabet
    table = {}
    vertex = {"1": 0}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = line.split()
        if not toks:
            continue
        if len(toks) != 3:
            raise UsageError(
                f"line {ln}: expected 'g-word h-word value', got {len(toks)} fields")
        verts = []
        for tok in toks[:2]:
            v = vertex.get(tok)
            if v is None:
                try:
                    word = ab.parse(tok)
                except ValueError as e:
                    raise PresentationParseError(
                        str(e), ln, line.index(tok) + 1) from None
                v = ball.evaluate(word)
                if v is None:
                    raise UsageError(
                        f"line {ln}: word {tok!r} leaves the radius-{ball.radius} "
                        f"ball; raise --radius")
                vertex[tok] = v
            verts.append(v)
        value = _integer(toks[2])
        if value is None:
            # the last token: no later match fits before the line ends
            raise PresentationParseError(
                f"bad value {toks[2]!r}", ln, line.rindex(toks[2]) + 1)
        key = (verts[0], verts[1])
        if key in table and table[key] != value:
            raise UsageError(
                f"line {ln}: conflicting values for pair {toks[0]} {toks[1]}")
        table[key] = value
    return table


# ------------------------------------------------------------- commands

def _load(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror or e}") from None


def _rp_from_args(args, families=False) -> RelativePresentation:
    """The parsed presentation; families=True requires a parabolic family."""
    rp = parse_presentation(_load(args.presentation))
    if families and not rp.families:
        raise UsageError(f"{args.command} needs at least one parabolic family")
    return rp


def _parse_word(rp: RelativePresentation, text: str):
    if text == "1":
        return ()
    try:
        return rp.base.alphabet.parse(text)
    except ValueError as e:
        raise UsageError(str(e)) from None


def _ball(rp: RelativePresentation, radius, derived=None):
    """The presentation's ball at radius, or at derived when radius is None."""
    return build_ball(rp.base, derived if radius is None else radius)


def _inputs(rp: RelativePresentation, radius: int, **extra) -> dict:
    """The report's echo of the presentation and radius, plus extra keys."""
    return {"presentation": serialize_presentation(rp), "radius": radius,
            **extra}


def _cusp_params(args) -> CuspParams:
    cap = 4 if args.depth_cap is None else args.depth_cap
    return CuspParams(args.psi, args.omega, depth_cap=cap)


def _cusp_complex(rp: RelativePresentation, ball, params: CuspParams):
    if rp.families:
        return build_cusped_cayley(ball, rp, params)
    return build_cusp_complex(ball, params)


def _params_echo(params: CuspParams) -> dict:
    return {"psi": params.psi, "omega": params.omega,
            "depth_cap": params.depth_cap}


def cmd_ball(args):
    rp = _rp_from_args(args)
    ball = _ball(rp, args.radius)
    ab = rp.base.alphabet
    results = {
        "vertices": len(ball),
        "sphere_sizes": sphere_sizes(ball),
        "edge_count": sum(1 for v in range(len(ball))
                          for t in ball.edges[v] if t is not None) // 2,
        "words": [ab.to_str(ball.words[v]) for v in range(len(ball))],
    }
    return results, _inputs(rp, args.radius), (
        f"ball: {len(ball)} vertices at radius {args.radius}")


def cmd_geodesics(args):
    rp = _rp_from_args(args)
    word = _parse_word(rp, args.word)
    ball = _ball(rp, args.radius, len(word))
    v = ball.evaluate(word)
    if v is None:
        raise ValueError(f"word leaves the radius-{ball.radius} ball; "
                         f"raise --radius")
    ab = rp.base.alphabet
    count, words = geodesic_words(ball, v, args.budget)
    results = {
        "word": args.word,
        "length": ball.length_of(v),
        "count": count,
        "geodesics": [ab.to_str(w) for w in words],
        "truncated": count > args.budget,
    }
    if rp.families:
        xi = electric_geodesic_tree(ball, rp, 0)[v][1]
        results["electric_length"] = electric_length(rp, word)
        results["electric_distance"] = electric_length(rp, xi)
        results["electric_geodesic"] = ab.to_str(xi)
    inputs = _inputs(rp, ball.radius, word=args.word, budget=args.budget)
    return results, inputs, (f"geodesics: {count} words of length "
                             f"{ball.length_of(v)} for {args.word!r}")


def cmd_fftp_automaton(args):
    if args.delta < 1:
        raise UsageError("--delta must be at least 1")
    if args.radius is not None and args.radius < args.delta + 1:
        raise UsageError(f"--radius must be at least --delta + 1 = "
                         f"{args.delta + 1}")
    rp = _rp_from_args(args)
    ball = _ball(rp, args.radius, args.delta + 1)
    dfa = build_fftp_automaton(ball, args.delta, neg_electric_height(rp))
    small = minimize(dfa)
    live = live_states(small)
    results = {
        "delta": args.delta,
        "height": "neg-electric" if rp.families else "neg-length",
        "states": dfa.n,
        "minimized_states": small.n,
        "live_states": len(live),
        "prefix_closed": prefix_closed(small),
        "symbols": list(small.symbols),
        "initial": small.initial,
        "accept": sorted(small.accept),
        "transitions": [list(row) for row in small.transitions],
    }
    inputs = _inputs(rp, ball.radius, delta=args.delta)
    return results, inputs, (f"fftp-automaton: {small.n} states minimized "
                             f"({len(live)} live), delta={args.delta}")


def cmd_electric_area(args):
    rp = _rp_from_args(args, families=True)
    word = _parse_word(rp, args.word)
    ball = _ball(rp, args.radius, max(len(word), 4))
    # the upper bound checks that the word is a loop in the ball, so a
    # bad word fails before the exact search runs
    upper = electric_area_upper(ball, rp, word, k=2)
    runs = dict(rp.area_runs)  # the upper bound's may answer the loop
    exact = electric_area_exact(rp, word, args.budget)
    lower = area_lower(rp, word)
    search = ("skipped, lower bound above --budget"
              if lower is not None and lower > args.budget
              else "run" if rp.area_runs != runs
              else "read from the stored run" if exact != 0 else "not needed")
    bound, moves = (upper if upper is not None else (None, None))
    results = {
        "word": args.word,
        "electric_length": electric_length(rp, word),
        "area_exact": exact,
        "area_upper": bound,
        "upper_moves": len(moves) if moves is not None else None,
        "insertion_budget": args.budget,
    }
    inputs = _inputs(rp, ball.radius, word=args.word, budget=args.budget)
    return results, inputs, (f"electric-area: exact={exact} upper={bound} "
                             f"lower={lower} (search {search}) "
                             f"for {args.word!r}")


def cmd_bcp_scan(args):
    rp = _rp_from_args(args, families=True)
    ball = _ball(rp, args.radius)
    scan = bcp_scan(ball, rp, args.budget, args.seed,
                    identical=args.identical)
    constant = max(scan["max_entry_gap"], scan["max_exit_gap"],
                   scan["max_unilateral_travel"]) if args.budget else None
    results = dict(scan)
    results["constant"] = constant
    results["identical_control"] = args.identical
    inputs = _inputs(rp, args.radius, samples=args.budget)
    return results, inputs, (f"bcp-scan: constant {constant} over "
                             f"{scan['pairs']} pairs ({scan['skipped']} skipped)")


def cmd_cusp_distance(args):
    if args.shadow_length < 0:
        raise UsageError("shadow length must be >= 0")
    opt = None
    if args.shadow_length > 0:
        probe = CuspParams(args.psi, args.omega)
        try:
            opt = optimal_depth(args.shadow_length, probe)
        except ValueError as e:
            raise UsageError(
                f"{e}; change shadow_length or --omega") from None
    cap = args.depth_cap
    if cap is None:
        cap = max(args.depth_i, args.depth_k)
        if opt is not None:
            cap = max(cap, math.ceil(opt) + 1)
    elif max(args.depth_i, args.depth_k) > cap:
        raise UsageError(f"depth_i and depth_k must lie in [0, {cap}], "
                         f"the --depth-cap")
    params = CuspParams(args.psi, args.omega, depth_cap=cap)
    length, depth = geodesic_length_closed_form(
        args.shadow_length, args.depth_i, args.depth_k, params)
    results = {
        "length": length,
        "depth": depth,
        "optimal_depth": opt,
        "level_bound": level_bound(params),
        "delta_constant": delta_constant(params),
    }
    inputs = {"shadow_length": args.shadow_length, "depth_i": args.depth_i,
              "depth_k": args.depth_k, **_params_echo(params)}
    return results, inputs, (f"cusp-distance: {length:.9g} at depth {depth}")


def cmd_thinness(args):
    rp = _rp_from_args(args)
    params = _cusp_params(args)
    ball = _ball(rp, args.radius)
    cx = _cusp_complex(rp, ball, params)
    lifts = [cx.lift(sigma) for sigma in inversion_automorphisms(ball)]
    delta_hat = measure_thinness(cx.adj, args.budget, args.seed, lifts)
    bound = delta_constant(params)
    triples = min(math.comb(len(cx), 3), args.budget)
    results = {
        "delta_hat": delta_hat,
        "delta_bound": bound,
        "within_bound": delta_hat <= bound + 2.0 if triples else None,
        "vertices": len(cx),
        "edges": cx.n_edges(),
        "samples": args.budget,
        "cusped_cayley": bool(rp.families),
    }
    inputs = _inputs(rp, args.radius, samples=args.budget,
                     **_params_echo(params))
    return results, inputs, (f"thinness: delta-hat {delta_hat:.4g} vs bound "
                             f"{bound:.4g} over {triples} triples" if triples
                             else "thinness: no triples")


def cmd_clip_track(args):
    rp = _rp_from_args(args)
    params = _cusp_params(args)
    n = args.clip_depth
    if n > params.depth_cap:
        raise UsageError(f"clip depth must lie in [0, {params.depth_cap}]")
    ball = _ball(rp, args.radius)
    cx = _cusp_complex(rp, ball, params)
    gn = clip(cx, n)
    if len(gn) < 2:
        raise UsageError(f"clip-track samples vertex pairs, but the clip at "
                         f"depth {n} keeps {len(gn)} of {len(cx)} vertices; "
                         f"raise --radius")
    back = {v: cx.ids[gn.keys[v]] for v in range(len(gn))}
    sigmas = inversion_automorphisms(ball)  # the clip keeps every key
    full = DistanceRows(cx.adj, [cx.lift(sigma) for sigma in sigmas])
    clipped = DistanceRows(gn.adj, [gn.lift(sigma) for sigma in sigmas])
    rng = random.Random(args.seed)
    worst = 0.0
    total = 0.0
    pairs = 0
    for _ in range(args.budget):
        a, b = rng.sample(range(len(gn)), 2)
        path_n = clipped.path(a, b)
        if path_n is None:
            continue
        beta = [back[v] for v in path_n]
        alpha = full.path(back[a], back[b])
        h = path_hausdorff(full, beta, alpha)
        worst = max(worst, h)
        total += h
        pairs += 1
    results = {
        "clip_depth": n,
        "pairs": pairs,
        "max_hausdorff": worst if pairs else None,
        "mean_hausdorff": (total / pairs) if pairs else None,
        "clipped_vertices": len(gn),
        "full_vertices": len(cx),
    }
    inputs = _inputs(rp, args.radius, clip_depth=n, pairs=args.budget,
                     **_params_echo(params))
    return results, inputs, (f"clip-track: max Hausdorff {worst:.4g} over "
                             f"{pairs} pairs at clip depth {n}")


def _sweep(name, check, cases):
    """Cases and worst margin of check(*case) over the cases; check returns
    whether its estimate holds and the margin last, and a case where it
    does not hold is an error."""
    worst = math.inf
    for case in cases:
        *_, ok, margin = check(*case)
        if not ok:
            raise ValueError(f"{name} sweep fails at {case}")
        worst = min(worst, margin)
    return {"cases": len(cases), "worst_margin": worst}


def cmd_hyp2_check(args):
    del args
    starts = [(c, 2.0 * c + math.log(16.0)) for c in (0.5, 1.0, 2.0)]
    diameter = tangent_projection_diameter(1.0, -1.0, 1.0)
    if abs(diameter - 2.0) > 1e-6:
        raise ValueError(f"tangent projection diameter {diameter} != 2")
    results = {
        "passed": True,
        "ideal_midpoint": _sweep("midpoint", ideal_midpoint_check, [
            (start + 0.1 * j, c) for c, start in starts for j in range(101)]),
        "right_triangle": _sweep("triangle", right_triangle_gap, [
            (1.0 + 0.2 * ui, math.pi / 2.0 * ti / 16.0)
            for ui in range(1, 46) for ti in range(1, 16)]),
        "ideal_isosceles": _sweep("isosceles", ideal_isosceles_angle, [
            (0.1 * j,) for j in range(1, 201)]),
        "tangent_diameter": diameter,
    }
    return results, {}, "hyp2-check: all sweeps pass"


def cmd_dehn_fill(args):
    rows = parse_matrix_file(_load(args.linking_matrix))
    if not rows or len(rows) != len(rows[0]):
        raise UsageError("linking matrix must be square")
    try:
        k = LinkingMatrix(len(rows), tuple(rows))
    except ValueError as e:
        raise UsageError(str(e)) from None
    fillings = parse_slopes(_load(args.slopes))
    if len(fillings) != k.n:
        raise UsageError(f"{k.n} components need {k.n} slope lines "
                         f"(use * for unfilled), got {len(fillings)}")
    fm = filling_matrix(k, fillings)
    nullity, basis = filling_nullity_certificate(fm.rows)
    nf = len(fm.filled)
    rank_bound, torsion = h1_presentation(k, fillings)
    # fm is the filling matrix of the set h1 fills, so its nullity must
    # meet the rank identity
    if rank_bound - (k.n - nf) != nullity:
        raise AssertionError("rank identity violated; inconsistent input?")
    results = {
        "components": k.n,
        "filled": list(fm.filled),
        "unreduced": list(fm.unreduced),
        "slopes": [None if f is None else f"{f.u}/{f.v}" for f in fillings],
        "filling_matrix": [[str(x) for x in row] for row in fm.rows],
        "nullity": nullity,
        "kernel_basis": [list(v) for v in basis],
        "h1": {
            "rank_lower_bound": rank_bound,
            "torsion": list(torsion),
            "kernel_rank": kernel_rank(rank_bound, k.n - nf),
            # lambda and mu of each filled torus, over the alphas and
            # one e per filled torus
            "presentation_shape": [k.n + nf, 2 * nf],
        },
    }
    inputs = {"linking_matrix": [list(r) for r in rows],
              "slopes": [None if f is None else [f.u, f.v] for f in fillings]}
    return results, inputs, f"dehn-fill: nullity {nullity}"


def cmd_cocycle_check(args):
    rp = _rp_from_args(args)
    ball = _ball(rp, args.radius)
    table = parse_cocycle_file(_load(args.cocycle), rp, ball)
    n = len(ball)
    sigma = CocycleTable(table)
    ok, witness = cocycle_check(sigma, ball)
    coboundary, _ = is_coboundary_table(sigma, ball)
    spread = weakly_bounded_report(sigma, ball)
    ab = rp.base.alphabet
    results = {
        "cocycle_identity": ok,
        "violation": (None if witness is None else
                      [ab.to_str(ball.words[v]) or "1" for v in witness]),
        "coverage": len(table) / (n * n),
        "coboundary": coboundary,
        "spread_constant": spread.constant,
        "spread_right": {ab.symbols[s]: m for s, m in sorted(spread.right.items())},
        "spread_left": {ab.symbols[s]: m for s, m in sorted(spread.left.items())},
    }
    inputs = _inputs(rp, args.radius, pairs=len(table))
    verdict = "identity holds" if ok else "identity FAILS"
    cb = "coboundary" if coboundary else "not a coboundary"
    return results, inputs, (f"cocycle-check: {verdict}, {cb}, "
                             f"spread {spread.constant}")


# ----------------------------------------------------------------- main

def _signed(text: str) -> int:
    """argparse type of --seed: an integer."""
    value = _integer(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return value


def _count(text: str) -> int:
    """argparse type of --budget, --depth-cap, --radius, --delta and the
    depth positionals: an integer >= 0."""
    value = _integer(text)
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}")
    return value


def _subcommand(sub, name, summary, radius=None, cusp=False, seed=None,
                budget=None):
    """Add the subcommand that cmd_<name> runs, with its shared flags.

    A radius (an int default, or a str saying how the command derives
    it) brings the presentation positional and --radius; cusp brings
    --psi, --omega and --depth-cap; seed is the --seed default; a budget
    (default, what it caps) brings --budget.
    """
    p = sub.add_parser(name, help=summary)
    if radius is not None:
        p.add_argument("presentation",
                       help="presentation file (format in README)")
        derived = isinstance(radius, str)
        p.add_argument("--radius", type=_count,
                       default=None if derived else radius,
                       help=(f"ball radius (default: {radius})" if derived
                             else f"ball radius (default {radius})"))
    if cusp:
        p.add_argument("--psi", type=_decimal_above(1), default=3.0,
                       help="horizontal shrink factor per depth (default 3)")
        p.add_argument("--omega", type=_decimal_above(0), default=None,
                       help="vertical scale (default 1/psi)")
        p.add_argument("--depth-cap", type=_count, default=None,
                       help="maximum depth of the complex")
    p.add_argument("--seed", type=_signed, default=seed,
                   help="RNG seed; same seed, same bytes out")
    if budget is not None:
        default, capped = budget
        p.add_argument("--budget", type=_count, default=default,
                       help=f"caps the {capped} (default {default})")
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The relhyp parser, built once per process: ``main`` reuses it."""
    top = argparse.ArgumentParser(
        prog="relhyp",
        description="Discrete machinery for relatively hyperbolic groups.")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)
    word_help = "word in the generators, or 1 for the identity"

    _subcommand(sub, "ball", "enumerate a Cayley ball", radius=3)
    p = _subcommand(sub, "geodesics", "all geodesic words of an element",
                    radius="word length",
                    budget=(1000, "geodesic words listed"))
    p.add_argument("word", help=word_help)
    p = _subcommand(sub, "fftp-automaton",
                    "build the fellow-traveler word acceptor",
                    radius="delta + 1")
    p.add_argument("--delta", type=_count, default=2,
                   help="fellow-traveler distance bound (default 2)")
    p = _subcommand(sub, "electric-area",
                    "exact and certified-upper electric area of a loop",
                    radius="word length, at least 4",
                    budget=(8, "relator insertions searched"))
    p.add_argument("word", help=word_help)
    p = _subcommand(sub, "bcp-scan",
                    "empirical bounded-coset-penetration constants",
                    radius=6, seed=0, budget=(200, "sampled pairs"))
    p.add_argument("--identical", action="store_true",
                   help="control run: compare each geodesic with itself")
    p = _subcommand(sub, "cusp-distance", "closed-form cusp geodesic length",
                    cusp=True)
    p.add_argument("shadow_length", type=_decimal,
                   help="horizontal separation measured at depth 0")
    p.add_argument("depth_i", type=_count, help="depth of the first endpoint")
    p.add_argument("depth_k", type=_count,
                   help="depth of the second endpoint")
    _subcommand(sub, "thinness", "measure thin-triangle delta on a cusp complex",
                radius=6, cusp=True, seed=0,
                budget=(300, "sampled triples"))
    p = _subcommand(sub, "clip-track",
                    "clipped-geodesic tracking against full geodesics",
                    radius=6, cusp=True, seed=0,
                    budget=(20, "sampled vertex pairs"))
    p.add_argument("clip_depth", type=_count,
                   help="keep vertices at depth <= this")
    _subcommand(sub, "hyp2-check", "run the half-plane inequality sweeps")
    p = _subcommand(sub, "dehn-fill",
                    "filling matrix, nullity certificate, H1 bounds")
    p.add_argument("linking_matrix", help='matrix file: "rows cols" header')
    p.add_argument("slopes", help='slope file: "u/v", "u" or "*" per line')
    p = _subcommand(sub, "cocycle-check",
                    "cocycle identity, coboundary test, spread report",
                    radius=4)
    p.add_argument("cocycle", help='triples file: "g-word h-word value"')
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    # looked up on every call, so that a rebound cli.cmd_<name> is the one run
    command = globals()["cmd_" + args.command.replace("-", "_")]
    t0 = time.perf_counter()
    try:
        results, inputs, summary = command(args)
    except UsageError as e:
        print(f"relhyp: error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as e:
        print(f"relhyp: error: {e}", file=sys.stderr)
        return 1
    report = {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "inputs": inputs,
        "results": results,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    dt = time.perf_counter() - t0
    print(f"{summary} ({dt:.2f}s)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
