"""The tracer wraps every binding, records nested spans per job, and
leaves the program's output unchanged."""

import contextlib
import io
import time

import pytest

import spans


@pytest.fixture
def tracer():
    from relhyp import cli  # noqa: F401  (imports every layer module)
    t = spans.Tracer()
    t.install()
    yield t
    t.uninstall()


def _bindings():
    for mod in spans.relhyp_modules():
        for name, obj in vars(mod).items():
            yield mod, name, obj
        for cls in vars(mod).values():
            if isinstance(cls, type) and cls.__module__ == mod.__name__:
                for name, obj in vars(cls).items():
                    yield cls, name, obj


def test_no_unwrapped_binding_is_left(tracer):
    assert tracer.originals
    left = [f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, obj in _bindings()
            if id(obj) in tracer.originals
            and tracer.originals[id(obj)] is obj]
    assert left == []


def test_cross_module_bindings_share_one_wrapper(tracer):
    from relhyp import cayley, cli, electric
    assert cli.build_ball is cayley.build_ball is electric.build_ball
    assert cayley.build_ball.__wrapped__ is tracer.originals[
        id(cayley.build_ball.__wrapped__)]
    assert "decide" in [name for _, name, _ in tracer._undo]


def test_uninstall_restores_every_binding(tracer):
    from relhyp import cayley, cli
    wrapped = cli.build_ball
    tracer.uninstall()
    assert cli.build_ball is cayley.build_ball is wrapped.__wrapped__
    assert not hasattr(cayley.WordProblemOracle.decide, "__wrapped__")
    tracer.install()


def _run(argv):
    from relhyp import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_spans_nest_per_job_and_account_for_the_pass(tmp_path):
    from relhyp import cli  # noqa: F401
    pres = tmp_path / "zz2.pres"
    pres.write_text("[generators] a b\n[relators] abAB\n[parabolic P] b\n")
    jobs = [["electric-area", str(pres), "abbABB"],
            ["ball", str(pres), "--radius", "3"]]
    plain = [_run(argv) for argv in jobs]
    t = spans.Tracer()
    t.install()
    try:
        t0 = time.perf_counter()
        traced = []
        for i, argv in enumerate(jobs):
            t.job = i
            traced.append(_run(argv))
        wall = time.perf_counter() - t0
    finally:
        t.uninstall()
    assert traced == plain

    by_id = {s[1]: s for s in t.spans}
    roots = [s for s in t.spans if s[2] == -1]
    assert [(s[0], s[3]) for s in roots] == [(0, "cli.main"), (1, "cli.main")]
    for job, sid, parent, name, t0_, t1 in t.spans:
        assert t1 >= t0_
        if parent != -1:
            up = by_id[parent]
            assert up[0] == job and up[4] <= t0_ and t1 <= up[5]
    names = {s[3] for s in t.spans}
    assert {"cli.cmd_electric_area", "electric.electric_area_exact",
            "cayley.build_ball", "cli.parse_presentation"} <= names

    m = spans.layer_metrics(t.dump(), wall, report_bytes=1)
    accounted = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) \
        + m["bench.self_s"]
    assert accounted == pytest.approx(wall, rel=1e-6)
    # Z^2 balls of radius 6 (electric-area) and 3 (ball), plus Z balls
    assert m["cayley.ball.vertices"] > 85 + 25
    assert m["electric.electric_area_exact.calls"] >= 1
    assert m["electric.electric_area_exact.unsolved"] == 0
    assert m["cli.electric-area.s"] > 0 and m["cli.ball.s"] > 0
