"""Span recording around the public functions of each relhyp module.

``Tracer.install`` wraps every public module-level function defined in a
layer module, plus ``WordProblemOracle.decide``, and rebinds each wrapper
wherever the original is bound: in the defining module and in every
relhyp module that imported it by name (``cli.build_ball``,
``electric.build_ball``, ...).  A span is (job id, span id, parent span
id, name, start, end); spans stay in memory until ``dump``.  Counts are
read from return values at the same boundaries.

``words`` gets no spans: ``free_reduce`` runs up to a million times in one
bounded oracle search, so a span per call would cost more than the call.
Its time lands in the self time of its callers, cayley and electric.
``homology._rref`` is private, so the coboundary solve that reaches it
from ``extension.is_coboundary_table`` is reported under extension.
"""

import functools
import importlib
import inspect
import itertools
import math
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "cayley", "fftp", "automata", "electric", "cusp", "hyp2",
          "homology", "extension")
METHODS = (("cayley", "WordProblemOracle", "decide"),)

# subcommands whose time the cli layer reports, one metric each
SUBCOMMANDS = ("ball", "geodesics", "fftp-automaton", "electric-area",
               "bcp-scan", "cusp-distance", "thinness", "clip-track",
               "hyp2-check", "dehn-fill", "cocycle-check")
PARSERS = ("parse_presentation", "parse_matrix_file", "parse_slopes",
           "parse_cocycle_file")


def _add(counts, key, n):
    counts[key] = counts.get(key, 0) + n


def _kernel(counts, args, kern):
    for table in kern["table"].values():
        for row in table:
            _add(counts, "fftp.kernel.entries", len(row))
            _add(counts, "fftp.kernel.finite",
                 sum(1 for v in row if v != math.inf))


def _distance(counts, args, d):
    if not isinstance(d, int):
        _add(counts, "cayley.distance.out_of_ball", 1)


def _bcp(counts, args, scan):
    _add(counts, "electric.bcp.pairs", scan["pairs"])
    _add(counts, "electric.bcp.skipped", scan["skipped"])


def _complex(counts, args, cx):
    _add(counts, "cusp.complex.vertices", len(cx))
    _add(counts, "cusp.complex.edges", cx.n_edges())


def _minimize(counts, args, dfa):
    _add(counts, "automata.minimize.states_in", args[0].n)
    _add(counts, "automata.minimize.states_out", dfa.n)


# counts taken from (args, return value) when a wrapped call returns
POST = {
    "cayley.build_ball":
        lambda c, a, ball: _add(c, "cayley.ball.vertices", len(ball)),
    "cayley.WordProblemOracle.decide":
        lambda c, a, res: _add(c, "cayley.oracle." + res.status, 1),
    "cayley.distance": _distance,
    "fftp.transition_kernel": _kernel,
    "fftp.build_fftp_automaton":
        lambda c, a, dfa: _add(c, "fftp.states", dfa.n),
    "automata.minimize": _minimize,
    "electric.electric_area_exact":
        lambda c, a, area: _add(c, "electric.electric_area_exact.unsolved",
                                int(area is None)),
    "electric.bcp_scan": _bcp,
    "cusp.build_cusp_complex": _complex,
    "cusp.build_cusped_cayley": _complex,
    "homology.snf":
        lambda c, a, res: _add(c, "homology.snf.cells",
                               a[0].rows * a[0].cols),
    "extension.is_coboundary_table":
        lambda c, a, res: _add(c, "extension.coboundary.unknowns", len(a[1])),
}


class Tracer:
    def __init__(self):
        self.job = None
        self.spans = []       # (job, id, parent, name, start, end)
        self.counts = {}
        self._stack = []
        self._ids = itertools.count()
        self._undo = []       # (owner, attribute, original)
        self.originals = {}   # id(original) -> original, kept alive

    def _wrap(self, name, fn):
        spans, stack, ids, counts = (self.spans, self._stack, self._ids,
                                     self.counts)
        post = POST.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((tracer.job, sid, parent, name, t0, t1))
            if post is not None:
                post(counts, args, result)
            return result

        self.originals[id(fn)] = fn
        return wrapper

    def install(self):
        """Wrap the layer functions and rebind every binding of each."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"relhyp.{layer}")
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"relhyp.{layer}"),
                          cls_name)
            fn = cls.__dict__[meth]
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))
        for mod in relhyp_modules():
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def dump(self):
        return {"spans": self.spans, "counts": self.counts}


def relhyp_modules():
    return [m for n, m in sorted(sys.modules.items())
            if n == "relhyp" or n.startswith("relhyp.")]


def _span_times(spans):
    """Inclusive seconds and call counts per span name, self seconds per
    layer, and the seconds covered by root spans.  A span nested inside a
    span of the same name adds to the call count but not to the time."""
    parent_of = {s[1]: s[2] for s in spans}
    name_of = {s[1]: s[3] for s in spans}
    child = defaultdict(float)
    for _, _, parent, _, t0, t1 in spans:
        if parent != -1:
            child[parent] += t1 - t0
    inclusive = defaultdict(float)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    roots = 0.0
    for _, sid, parent, name, t0, t1 in spans:
        dur = t1 - t0
        calls[name] += 1
        self_s[name.split(".", 1)[0]] += dur - child[sid]
        if parent == -1:
            roots += dur
        up = parent
        while up != -1 and name_of[up] != name:
            up = parent_of[up]
        if up == -1:
            inclusive[name] += dur
    return inclusive, calls, self_s, roots


def layer_metrics(trace, wall_s, report_bytes):
    """Per-layer metrics of one traced pass, keyed by metric name."""
    t, n, self_s, roots = _span_times(trace["spans"])
    c = defaultdict(int, trace["counts"])

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.s"] = t["cli.cmd_" + sub.replace("-", "_")]
    m["cli.parse.s"] = sum(t["cli." + p] for p in PARSERS)
    m["cli.report_bytes"] = report_bytes

    decide = "cayley.WordProblemOracle.decide"
    m.update({
        "cayley.build_ball.s": t["cayley.build_ball"],
        "cayley.build_ball.calls": n["cayley.build_ball"],
        "cayley.ball.vertices": c["cayley.ball.vertices"],
        "cayley.oracle.decide.s": t[decide],
        "cayley.oracle.decide.calls": n[decide],
        "cayley.oracle.trivial": c["cayley.oracle.trivial"],
        "cayley.oracle.nontrivial": c["cayley.oracle.nontrivial"],
        "cayley.oracle.unknown": c["cayley.oracle.unknown"],
        "cayley.oracle.unknown_ratio": ratio(c["cayley.oracle.unknown"],
                                             n[decide]),
        "cayley.geodesic_words.s": t["cayley.geodesic_words"],
        "cayley.distance.calls": n["cayley.distance"],
        "cayley.distance.out_of_ball": c["cayley.distance.out_of_ball"],

        "fftp.transition_kernel.s": t["fftp.transition_kernel"],
        "fftp.kernel.entries": c["fftp.kernel.entries"],
        "fftp.kernel.finite_ratio": ratio(c["fftp.kernel.finite"],
                                          c["fftp.kernel.entries"]),
        "fftp.build_fftp_automaton.s": t["fftp.build_fftp_automaton"],
        "fftp.explore.s": (t["fftp.build_fftp_automaton"]
                           - t["fftp.transition_kernel"]),
        "fftp.states": c["fftp.states"],

        "automata.minimize.s": t["automata.minimize"],
        "automata.minimize.states_in": c["automata.minimize.states_in"],
        "automata.minimize.states_out": c["automata.minimize.states_out"],

        "electric.electric_area_exact.s": t["electric.electric_area_exact"],
        "electric.electric_area_exact.calls":
            n["electric.electric_area_exact"],
        "electric.electric_area_exact.unsolved":
            c["electric.electric_area_exact.unsolved"],
        "electric.electric_area_upper.s": t["electric.electric_area_upper"],
        "electric.bcp_scan.s": t["electric.bcp_scan"],
        "electric.bcp.skip_ratio": ratio(
            c["electric.bcp.skipped"],
            c["electric.bcp.pairs"] + c["electric.bcp.skipped"]),
        "electric.electric_distances_from.calls":
            n["electric.electric_distances_from"],
        "electric.electric_geodesic_tree.calls":
            n["electric.electric_geodesic_tree"],

        "cusp.build.s": (t["cusp.build_cusp_complex"]
                         + t["cusp.build_cusped_cayley"]),
        "cusp.complex.vertices": c["cusp.complex.vertices"],
        "cusp.complex.edges": c["cusp.complex.edges"],
        "cusp.measure_thinness.s": t["cusp.measure_thinness"],
        "cusp.path_hausdorff.s": t["cusp.path_hausdorff"],
        "cusp.deepen_replace.s": t["cusp.deepen_replace"],
        "cusp.clip.s": t["cusp.clip"],

        "hyp2.calls": sum(k for name, k in n.items()
                          if name.startswith("hyp2.")),

        "homology.snf.s": t["homology.snf"],
        "homology.snf.calls": n["homology.snf"],
        "homology.snf.cells": c["homology.snf.cells"],
        "homology.h1_presentation.s": t["homology.h1_presentation"],
        "homology.filling_nullity_certificate.s":
            t["homology.filling_nullity_certificate"],

        "extension.cocycle_check.s": t["extension.cocycle_check"],
        "extension.is_coboundary_table.s": t["extension.is_coboundary_table"],
        "extension.coboundary.unknowns": c["extension.coboundary.unknowns"],
        "extension.weakly_bounded_report.s":
            t["extension.weakly_bounded_report"],
        "extension.mul.calls": n["extension.mul"],
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    m["bench.self_s"] = wall_s - roots
    return m
