"""The independent checkers accept real reports and reject wrong ones."""

import copy
import itertools
import math
import random

import pytest

import checks
import workloads

LETTERS = {g: list("abc"[:spec[0]]) for g, spec in workloads.GROUPS.items()}


def _word(model, syms, word):
    elem = model.identity
    for ch in word:
        elem = model.mul(elem, syms.index(ch))
    return elem


@pytest.mark.parametrize("group", sorted(workloads.GROUPS))
def test_models_satisfy_their_relators(group):
    k, relators, _ = workloads.GROUPS[group]
    model = checks.MODELS[group]
    syms = checks.symbols(LETTERS[group])
    for r in relators:
        assert _word(model, syms, r) == model.identity
    for s in range(2 * k):
        assert model.mul(model.mul(model.identity, s), s ^ 1) \
            == model.identity
        assert model.mul(model.identity, s) != model.identity


def test_model_sphere_sizes_match_closed_forms():
    words, _, _ = checks.model_ball(checks.MODELS["f2"], 4, 5)
    sizes = [sum(1 for w in words if len(w) == r) for r in range(6)]
    assert sizes == [1] + [4 * 3 ** (r - 1) for r in range(1, 6)]
    words, _, _ = checks.model_ball(checks.MODELS["z3"], 6, 5)
    sizes = [sum(1 for w in words if len(w) == r) for r in range(6)]
    assert sizes == [1] + [4 * r * r + 2 for r in range(1, 6)]
    words, _, _ = checks.model_ball(checks.MODELS["s3"], 4, 3)
    assert len(words) == 6


def _files(tmp_path, group):
    path = tmp_path / f"{group}.pres"
    path.write_text(workloads._presentation(group, LETTERS[group]))
    return str(path)


def _job(argv, check, **facts):
    return {"name": "t", "argv": argv + ["--seed", "0"],
            "check": dict(check=check, **facts)}


def _verdicts(relhyp_report, job, corrupt):
    """Reasons for the real report, then for a corrupted copy."""
    rc, report, stdout = relhyp_report(job["argv"])
    good = checks.check_job(job, rc, stdout, "")
    bad_report = copy.deepcopy(report)
    corrupt(bad_report["results"])
    bad = checks.CHECKERS[job["check"]["check"]](bad_report["results"],
                                                 job["check"])
    return good, bad


def test_ball_rejects_the_seed_z3xz_sphere_sizes():
    spec = {"check": "ball", "group": "z3xz", "letters": ["a", "b"],
            "radius": 3}
    words = ["", "a", "A", "b", "B"]
    report = {"vertices": 25, "sphere_sizes": [1, 4, 8, 12],
              "edge_count": 36, "words": words}
    reasons = checks.check_ball(report, spec)
    assert any(r.startswith("sphere_sizes: got [1, 4, 8, 12], want "
                            "[1, 4, 6, 6]") for r in reasons)


def _set(key, value):
    def corrupt(res):
        res[key] = value
    return corrupt


CASES = [
    ("ball", lambda p: ["ball", p["f2"], "--radius", "3"],
     dict(group="f2", letters=LETTERS["f2"], radius=3),
     _set("edge_count", 51)),
    ("geodesics", lambda p: ["geodesics", p["z3"], "aabbcc", "--budget",
                             "40"],
     dict(letters=LETTERS["z3"], exponents=[2, 2, 2], budget=40),
     lambda res: res["geodesics"].reverse()),
    ("fftp", lambda p: ["fftp-automaton", p["f2"], "--delta", "2"],
     dict(group="f2", letters=LETTERS["f2"], delta=2, height="neg-length"),
     _set("accept", list(range(100)))),
    ("fftp", lambda p: ["fftp-automaton", p["z2-rel-b"], "--delta", "2"],
     dict(group="z2-rel-b", letters=LETTERS["z2-rel-b"], delta=2,
          height="neg-electric"),
     lambda res: res["accept"].pop()),
    ("electric_area", lambda p: ["electric-area", p["z2-rel-b"], "abbABB"],
     dict(n=2), _set("area_upper", 1)),
    ("bcp", lambda p: ["bcp-scan", p["f2-rel-b"], "--radius", "4",
                       "--budget", "50"],
     dict(samples=50), _set("constant", 99)),
    ("thinness", lambda p: ["thinness", p["z"], "--radius", "5",
                            "--depth-cap", "2", "--budget", "40"],
     dict(group="z", radius=5, depth_cap=2, samples=40, psi=3.0),
     _set("edges", 1)),
    ("thinness", lambda p: ["thinness", p["f2-rel-b"], "--radius", "2",
                            "--depth-cap", "2", "--budget", "40"],
     dict(group="f2-rel-b", radius=2, depth_cap=2, samples=40, psi=3.0),
     _set("delta_hat", 99.0)),
    ("clip_track", lambda p: ["clip-track", p["z"], "1", "--radius", "4",
                              "--depth-cap", "2", "--budget", "5"],
     dict(radius=4, depth_cap=2, clip_depth=1, pairs=5),
     _set("full_vertices", 3)),
    ("cusp_distance", lambda p: ["cusp-distance", "9", "0", "0", "--psi",
                                 "3"],
     dict(shadow=9.0, i=0, k=0, psi=3.0), _set("depth", 5)),
    ("hyp2", lambda p: ["hyp2-check"], {},
     lambda res: res["right_triangle"].update(worst_margin=-1.0)),
]


@pytest.mark.parametrize("check, argv, facts, corrupt", CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
def test_checker_accepts_real_and_rejects_wrong(tmp_path, relhyp_report,
                                                check, argv, facts, corrupt):
    paths = {g: _files(tmp_path, g) for g in workloads.GROUPS}
    good, bad = _verdicts(relhyp_report, _job(argv(paths), check, **facts),
                          corrupt)
    assert good == []
    assert bad


@pytest.mark.parametrize("kind, coboundary", [("heisenberg", False),
                                              ("section", True)])
def test_cocycle_checker(tmp_path, relhyp_report, kind, coboundary):
    letters = LETTERS["z2"]
    rho = [2, -1, 3, 1]

    def value(g, h):
        if kind == "heisenberg":
            return g[0] * h[1]

        def r(p):
            return rho[0] * p[0] ** 2 + rho[1] * p[0] * p[1] \
                + rho[2] * p[1] ** 2 + rho[3] * p[0]
        return r(g) + r(h) - r((g[0] + h[0], g[1] + h[1]))

    path = tmp_path / "cocycle.txt"
    path.write_text(workloads._cocycle_file(3, value, letters))
    job = _job(["cocycle-check", _files(tmp_path, "z2"), str(path),
                "--radius", "3"], "cocycle", letters=letters, radius=3,
               kind=kind, rho=rho)
    good, bad = _verdicts(relhyp_report, job,
                          _set("coboundary", not coboundary))
    assert good == []
    assert bad == [f"coboundary: got {str(not coboundary).lower()}, "
                   f"want {str(coboundary).lower()}"]


def test_dehn_fill_checker(tmp_path, relhyp_report):
    rng = random.Random(5)
    n = 6
    rows = workloads._skew_matrix(rng, n)
    slopes = workloads._slopes(rng, n)
    mat = tmp_path / "k.mat"
    mat.write_text(f"{n} {n}\n" + "".join(" ".join(map(str, r)) + "\n"
                                          for r in rows))
    slo = tmp_path / "s.txt"
    slo.write_text("".join("*\n" if s is None else f"{s[0]}/{s[1]}\n"
                           for s in slopes))
    job = _job(["dehn-fill", str(mat), str(slo)], "dehn_fill", matrix=rows,
               slopes=slopes)

    def corrupt(res):
        res["h1"]["torsion"] = res["h1"]["torsion"] + [7]

    good, bad = _verdicts(relhyp_report, job, corrupt)
    assert good == []
    assert any(r.startswith("torsion product") for r in bad)


def _leibniz_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        total += (-1) ** inversions * math.prod(m[i][perm[i]]
                                                for i in range(n))
    return total


def test_bareiss_determinant_matches_leibniz():
    rng = random.Random(3)
    for n in (1, 2, 3, 4, 5):
        for _ in range(20):
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.2:
                m[0] = [0] * n
            assert checks.bareiss_det(m) == _leibniz_det(m)


def test_failed_exit_is_reported_with_its_message():
    job = _job(["ball", "x.pres"], "ball", group="s3", letters=["a", "b"],
               radius=3)
    reasons = checks.check_job(job, 1, "", "relhyp: error: oracle budget "
                                           "exhausted identifying ba\n")
    assert reasons == ["exit 1: relhyp: error: oracle budget exhausted "
                       "identifying ba"]
