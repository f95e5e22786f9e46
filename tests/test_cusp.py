"""Cusp complex geometry.

Frozen numbers were computed by hand / in oracle_tools.py before this
module existed: the (1/3)ln3 vertical edge, the closed-form minimum for
shadow length 9, the thinness of a 12-cycle, and vertex counts for the
layered and cusped-off builds.
"""

import math

import pytest

from relhyp.cayley import build_ball
from relhyp.cusp import (
    CuspComplex, CuspParams, build_cusp_complex,
    build_cusped_cayley, clip, decompose_geodesic,
    deepen_replace, delta_constant, distance_row, geodesic_length_closed_form,
    geodesic_path, level_bound, measure_thinness, optimal_depth,
    path_hausdorff,
)
from relhyp.electric import ParabolicFamily, RelativePresentation

from oracle_tools import (
    path_length, reference_dijkstra, reference_walk_back, thinness_reference,
)


@pytest.fixture(scope="module")
def params33():
    return CuspParams(3.0, depth_cap=6)


@pytest.fixture(scope="module")
def ball_z12(pres_z):
    return build_ball(pres_z, 12)


def _z_position(ball, v):
    w = ball.words[v]
    return sum(1 if s == 0 else -1 for s in w)


def test_params_validation():
    with pytest.raises(ValueError):
        CuspParams(1.0)
    with pytest.raises(ValueError):
        CuspParams(2.0, omega=0.0)
    with pytest.raises(ValueError):
        CuspParams(2.0, depth_cap=-1)


def test_params_lengths_and_areas(params33):
    assert params33.omega == pytest.approx(1 / 3)
    assert params33.vertical_length() == pytest.approx(
        0.3662040962227032, abs=1e-15)
    assert params33.horizontal_length(0) == 1.0
    assert params33.horizontal_length(2) == pytest.approx(1 / 9)


def test_layered_build_counts(pres_z):
    ball = build_ball(pres_z, 3)  # 7 vertices on a segment
    cx = build_cusp_complex(ball, CuspParams(3.0, depth_cap=2))
    assert len(cx) == 21
    # 6 base edges on 3 levels, 7 vertical rays of 2 edges
    assert cx.n_edges() == 6 * 3 + 7 * 2
    # base-vertex-major ids
    assert cx.keys[5] == (1, 2)
    assert cx.ids[1, 2] == 5
    assert cx.depth[5] == 2


def test_layered_build_single_ray(pres_z):
    point = build_ball(pres_z, 0)
    cx = build_cusp_complex(point, CuspParams(2.0, depth_cap=3))
    assert len(cx) == 4
    assert cx.n_edges() == 3
    lengths = sorted(w for lst in cx.adj for _, w in lst)
    assert all(w == pytest.approx(0.5 * math.log(2)) for w in lengths)


def test_layered_build_depth_zero_is_base(pres_z2):
    ball = build_ball(pres_z2, 2)
    cx = build_cusp_complex(ball, CuspParams(3.0, depth_cap=0))
    assert len(cx) == len(ball)
    base_edges = set()
    for u in range(len(ball)):
        for _, v in ball.neighbours(u):
            if u != v:
                base_edges.add((min(u, v), max(u, v)))
    assert cx.n_edges() == len(base_edges)
    assert all(w == 1.0 for lst in cx.adj for _, w in lst)


def test_path_length_and_errors(pres_z, params33):
    ball = build_ball(pres_z, 3)
    cx = build_cusp_complex(ball, params33)
    a0 = cx.ids[3, 0]   # base vertex 3 at surface
    a1 = cx.ids[3, 1]
    b1 = next(v for v, _ in cx.adj[a1] if cx.depth[v] == 1 and v != a0)
    got = path_length(cx, [a0, a1, b1])
    assert got == pytest.approx(params33.vertical_length() + 1 / 3)
    with pytest.raises(ValueError):
        path_length(cx, [a0, b1])  # not adjacent


def test_closed_form_frozen(params33):
    val, d = geodesic_length_closed_form(9.0, 0, 0, params33)
    assert d == 2
    assert val == pytest.approx(2.464816384890813, abs=1e-12)
    val, d = geodesic_length_closed_form(1.0, 0, 0, params33)
    assert (val, d) == (1.0, 0)
    # pure vertical travel when the shadows agree
    val, d = geodesic_length_closed_form(0.0, 2, 0, params33)
    assert d == 2
    assert val == pytest.approx(2 * params33.vertical_length())
    with pytest.raises(ValueError):
        geodesic_length_closed_form(-1.0, 0, 0, params33)
    with pytest.raises(ValueError):
        geodesic_length_closed_form(1.0, 7, 0, params33)


def test_closed_form_matches_full_scan(params33):
    w = params33.omega * math.log(params33.psi)

    def brute(length, i, k):
        best = None
        for d in range(max(i, k), params33.depth_cap + 1):
            val = w * (2 * d - i - k) + params33.psi ** (-d) * length
            if best is None or val < best[0] - 1e-15:
                best = (val, d)
        return best

    for ten_l in range(0, 300, 7):
        for i in range(0, 7, 2):
            for k in range(0, 7, 3):
                length = ten_l / 10
                got = geodesic_length_closed_form(length, i, k, params33)
                want = brute(length, i, k)
                assert got[1] == want[1]
                assert got[0] == pytest.approx(want[0], abs=1e-12)


def test_optimal_depth(params33):
    # at shadow length 2*omega*psi^d the optimum is exactly d
    for d in range(4):
        length = 2 * params33.omega * params33.psi ** d
        assert optimal_depth(length, params33) == pytest.approx(float(d))
    with pytest.raises(ValueError):
        optimal_depth(0.0, params33)


def test_dijkstra_matches_closed_form(ball_z12):
    params = CuspParams(3.0, depth_cap=4)
    cx = build_cusp_complex(ball_z12, params)
    pos = {v: _z_position(ball_z12, v) for v in range(len(ball_z12))}
    # exhaustive over surface pairs
    for u in range(len(ball_z12)):
        row = distance_row(cx.adj, cx.ids[u, 0])
        for v in range(u + 1, len(ball_z12)):
            want = geodesic_length_closed_form(
                abs(pos[u] - pos[v]), 0, 0, params)[0]
            assert row[cx.ids[v, 0]] == pytest.approx(want, abs=1e-9)
    # sampled mixed-depth pairs
    import random
    rng = random.Random(5)
    for _ in range(200):
        u, v = rng.randrange(len(ball_z12)), rng.randrange(len(ball_z12))
        i, k = rng.randrange(5), rng.randrange(5)
        want = geodesic_length_closed_form(
            abs(pos[u] - pos[v]), i, k, params)[0]
        got = distance_row(cx.adj, cx.ids[u, i])[cx.ids[v, k]]
        assert got == pytest.approx(want, abs=1e-9)


def test_geodesics_decompose_and_level_is_short(ball_z12):
    import random
    params = CuspParams(3.0, depth_cap=4)
    cx = build_cusp_complex(ball_z12, params)
    rng = random.Random(9)
    assert geodesic_path([[], []], 0, 1) is None
    for _ in range(60):
        s, t = rng.randrange(len(cx)), rng.randrange(len(cx))
        path = geodesic_path(cx.adj, s, t)
        assert path == reference_walk_back(
            cx.adj, reference_dijkstra(cx.adj, s), s, t)
        depths = [cx.depth[v] for v in path]
        dec = decompose_geodesic(depths)
        assert dec is not None
        level_depth = depths[0] + dec.descending
        if level_depth < params.depth_cap:
            level_len = dec.level * params.horizontal_length(level_depth)
            slack = params.horizontal_length(level_depth) + 1e-9
            assert level_len <= level_bound(params) + slack


def test_geodesic_path_descends_past_near_zero_edges(pres_z):
    # psi=1e4 at depth 4 gives horizontal edges of 1e-16, far below the
    # 1e-9 tightness tolerance; the walk-back must still reach src, and
    # over a full row it is the tie-broken walk of the reference
    import random
    import signal

    def too_slow(signum, frame):
        raise TimeoutError

    params = CuspParams(1e4, depth_cap=4)
    cx = build_cusp_complex(build_ball(pres_z, 6), params)
    rng = random.Random(3)
    hung = []
    previous = signal.signal(signal.SIGALRM, too_slow)
    try:
        for _ in range(130):
            s, t = rng.sample(range(len(cx)), 2)
            try:   # a walk takes microseconds; a cycling one never ends
                signal.setitimer(signal.ITIMER_REAL, 0.2)
                path = geodesic_path(cx.adj, s, t)
            except TimeoutError:
                hung.append((s, t))
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            assert path[0] == s and path[-1] == t
            assert path_length(cx, path) == pytest.approx(
                distance_row(cx.adj, s)[t], abs=1e-8)
            assert path == reference_walk_back(
                cx.adj, reference_dijkstra(cx.adj, s), s, t)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert hung == []


def test_decompose_unit():
    assert decompose_geodesic([0, 1, 2, 2, 2, 1]) == (2, 2, 1)
    assert decompose_geodesic([1, 1, 1]) == (0, 2, 0)
    assert decompose_geodesic([3]) == (0, 0, 0)
    assert decompose_geodesic([2, 1, 0]) == (0, 0, 2)
    assert not decompose_geodesic([1, 0, 1])
    assert decompose_geodesic([0, 1, 0, 1]) is None
    with pytest.raises(ValueError):
        decompose_geodesic([0, 2])


def test_hyperbolicity_constants(params33):
    assert level_bound(params33) == pytest.approx(2.0)
    assert delta_constant(params33) == pytest.approx(
        4.963457252632055, abs=1e-12)


def _cycle_adj(n):
    adj = [[] for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        adj[i].append((j, 1.0))
        adj[j].append((i, 1.0))
    return adj


def _tree_adj():
    # star of 4 spokes, one spoke extended to a path of length 3
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6)]
    adj = [[] for _ in range(7)]
    for u, v in edges:
        adj[u].append((v, 1.0))
        adj[v].append((u, 1.0))
    return adj


def test_thinness_tree_and_cycle():
    assert measure_thinness(_tree_adj(), 300, 1) == 0.0
    assert measure_thinness(_cycle_adj(12), 300, 1) == pytest.approx(3.0)
    # sampling path (more triples than budget) stays deterministic
    a = measure_thinness(_cycle_adj(12), 40, 7)
    assert a == measure_thinness(_cycle_adj(12), 40, 7)
    assert a <= 3.0


# the edge lengths of the psi=3 cusp complexes: horizontal at depths 0-2
# and the vertical (1/3)ln3
CUSP_WEIGHTS = (1.0, 1 / 3, 1 / 9, math.log(3) / 3)


def _random_adj(rng, n, extra, components=1):
    """Seeded weighted graph: a random spanning tree per component plus
    extra edges inside components, weights drawn from CUSP_WEIGHTS."""
    adj = [[] for _ in range(n)]
    comp = [v % components for v in range(n)]
    for v in range(components, n):
        u = rng.choice([x for x in range(v) if comp[x] == comp[v]])
        w = rng.choice(CUSP_WEIGHTS)
        adj[u].append((v, w))
        adj[v].append((u, w))
    for _ in range(extra):
        u, v = rng.sample(range(n), 2)
        if comp[u] == comp[v]:
            w = rng.choice(CUSP_WEIGHTS)
            adj[u].append((v, w))
            adj[v].append((u, w))
    return adj


def _same_thinness(adj, samples, seed):
    got = measure_thinness(adj, samples, seed)
    want = thinness_reference(adj, samples, seed)
    assert got == want and repr(got) == repr(want)
    return got


def test_thinness_matches_reference_on_small_graphs():
    import random
    for adj in (_tree_adj(), _cycle_adj(12), _cycle_adj(9)):
        for samples, seed in ((300, 1), (40, 7)):
            _same_thinness(adj, samples, seed)
    rng = random.Random(11)
    positive = 0
    for trial in range(150):
        n = rng.randrange(4, 16)
        adj = _random_adj(rng, n, rng.randrange(0, 2 * n))
        total = n * (n - 1) * (n - 2) // 6
        # exhaustive on even trials, sampled (fewer draws than triples)
        # on odd ones
        samples = total if trial % 2 == 0 else max(1, total // 3)
        positive += _same_thinness(adj, samples, trial) > 0
    assert positive > 50  # the skips must be exercised with worst > 0


def test_thinness_matches_reference_on_cusp_complexes(pres_z, pres_f2):
    cx = build_cusp_complex(build_ball(pres_z, 8), CuspParams(3.0,
                                                              depth_cap=3))
    assert _same_thinness(cx.adj, 120, 2) > 0
    b = pres_f2.alphabet.index("b")
    rp = RelativePresentation(pres_f2, (ParabolicFamily("P", (b,)),))
    cx = build_cusped_cayley(build_ball(pres_f2, 3), rp,
                             CuspParams(3.0, depth_cap=3))
    assert _same_thinness(cx.adj, 300, 1) > 0


def test_thinness_pinned_on_criterion_9_complex(pres_z):
    # the benchmark's thinness-z-r40 complex, pinned from list rows with
    # no walk-back memo
    cx = build_cusp_complex(build_ball(pres_z, 40), CuspParams(3.0,
                                                               depth_cap=6))
    for seed in (3, 7):
        assert repr(measure_thinness(cx.adj, 2000, seed)) \
            == "0.5185185185185185"


def test_thinness_disconnected_raises():
    import random
    adj = _random_adj(random.Random(4), 10, 6, components=2)
    for samples in (1000, 40):
        with pytest.raises(ValueError, match="no tight predecessor"):
            measure_thinness(adj, samples, 3)
        with pytest.raises(ValueError, match="no tight predecessor"):
            thinness_reference(adj, samples, 3)


def test_dijkstra_matches_push_every_neighbour():
    import random
    rng = random.Random(21)
    for trial in range(120):
        n = rng.randrange(2, 30)
        adj = _random_adj(rng, n, rng.randrange(0, 3 * n),
                          components=1 + trial % 3)
        for src in range(n):
            want = reference_dijkstra(adj, src)
            assert distance_row(adj, src) == [
                math.inf if d is None else d for d in want]
            dst = rng.randrange(n)
            if want[dst] is None:
                assert geodesic_path(adj, src, dst) is None
            else:
                assert geodesic_path(adj, src, dst) == reference_walk_back(
                    adj, want, src, dst)


def test_path_hausdorff_matches_full_rows(ball_z12):
    import random
    cx = build_cusp_complex(ball_z12, CuspParams(3.0, depth_cap=3))
    rng = random.Random(8)
    for _ in range(40):
        one = rng.sample(range(len(cx)), rng.randrange(1, 6))
        two = rng.sample(range(len(cx)), rng.randrange(1, 6))
        want = max(min(reference_dijkstra(cx.adj, u)[v] for v in b)
                   for a, b in ((one, two), (two, one)) for u in a)
        got = path_hausdorff(cx, one, two)
        assert got == want and repr(got) == repr(want)


def test_thinness_of_cusp_complex(pres_z):
    ball = build_ball(pres_z, 8)
    params = CuspParams(3.0, depth_cap=3)
    cx = build_cusp_complex(ball, params)
    got = measure_thinness(cx.adj, 120, 2)
    assert 0 < got <= delta_constant(params) + 2.0


def test_cusped_cayley_counts_f2(pres_f2):
    b = pres_f2.alphabet.index("b")
    rp = RelativePresentation(pres_f2, (ParabolicFamily("P", (b,)),))
    ball = build_ball(pres_f2, 2)
    cx = build_cusped_cayley(ball, rp, CuspParams(3.0, depth_cap=1))
    assert len(ball) == 17
    assert len(cx) == 34


def test_cusped_cayley_structure_z2(pres_z2):
    b = pres_z2.alphabet.index("b")
    rp = RelativePresentation(pres_z2, (ParabolicFamily("P", (b,)),))
    ball = build_ball(pres_z2, 2)
    params = CuspParams(3.0, depth_cap=2)
    cx = build_cusped_cayley(ball, rp, params)
    assert len(cx) == len(ball) * (1 + params.depth_cap)

    base_edges = set()
    fam_edges = set()
    for u in range(len(ball)):
        for sym, v in ball.neighbours(u):
            if u == v:
                continue
            base_edges.add((min(u, v), max(u, v)))
            if sym in rp.families[0].symbols():
                fam_edges.add((min(u, v), max(u, v)))
    want = len(base_edges) + len(fam_edges) * params.depth_cap \
        + len(ball) * params.depth_cap
    assert cx.n_edges() == want
    # surface edges keep unit length, deeper ones scale
    for u, row in enumerate(cx.adj):
        for v, w in row:
            du, dv = cx.depth[u], cx.depth[v]
            if du == dv:
                assert w == pytest.approx(params.horizontal_length(du))
            else:
                assert w == pytest.approx(params.vertical_length())


def test_cusped_cayley_depth_zero_is_ball(pres_f2):
    b = pres_f2.alphabet.index("b")
    rp = RelativePresentation(pres_f2, (ParabolicFamily("P", (b,)),))
    ball = build_ball(pres_f2, 2)
    cx = build_cusped_cayley(ball, rp, CuspParams(3.0, depth_cap=0))
    assert len(cx) == len(ball)
    base_edges = {(min(u, v), max(u, v)) for u in range(len(ball))
                  for _, v in ball.neighbours(u) if u != v}
    assert cx.n_edges() == len(base_edges)
    assert all(w == 1.0 for lst in cx.adj for _, w in lst)


def test_clip(pres_z):
    ball = build_ball(pres_z, 3)
    params = CuspParams(3.0, depth_cap=2)
    cx = build_cusp_complex(ball, params)
    c1 = clip(cx, 1)
    assert len(c1) == len(ball) * 2
    assert c1.n_edges() == 6 * 2 + 7 * 1
    assert max(c1.depth) == 1
    same = clip(cx, params.depth_cap)
    assert len(same) == len(cx) and same.n_edges() == cx.n_edges()
    c0 = clip(cx, 0)
    assert len(c0) == len(ball) and max(c0.depth) == 0


def test_deepen_replace(ball_z12):
    params = CuspParams(3.0, depth_cap=2)
    cx = build_cusp_complex(ball_z12, params)
    chain = [ball_z12.evaluate((0,) * k) for k in range(10)]  # 0..9 in Z
    beta = [cx.ids[v, 1] for v in chain]
    gamma = deepen_replace(cx, beta, 1)
    assert gamma[0] == beta[0] and gamma[-1] == beta[-1]
    assert max(cx.depth[v] for v in gamma) == 2
    want = geodesic_length_closed_form(9.0, 1, 1, params)[0]
    assert path_length(cx, gamma) == pytest.approx(want, abs=1e-9)
    assert path_length(cx, gamma) < path_length(cx, beta)
    h = path_hausdorff(cx, beta, gamma)
    assert 0 < h < path_length(cx, beta)

    # stretches below the clip depth survive untouched
    beta2 = [cx.ids[chain[0], 0]] + beta
    gamma2 = deepen_replace(cx, beta2, 1)
    assert gamma2[0] == beta2[0] and cx.depth[gamma2[0]] == 0

    deep = cx.ids[chain[0], 2]
    with pytest.raises(ValueError):
        deepen_replace(cx, [deep], 1)

