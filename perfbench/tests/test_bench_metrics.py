"""BENCHMARK.json follows its contract, every metric the benchmark prints
is declared there, inputs follow the seed, and the benchmark refuses to
run without the program's sources."""

import json
import re
import shutil
import subprocess
import sys

import passrun
import run
import spans
import workloads
from conftest import BENCH, ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_follows_the_contract():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60


def test_every_printed_metric_is_declared(tmp_path):
    cli = passrun.load_cli()
    pres = tmp_path / "z2.pres"
    pres.write_text("[generators] a b\n[relators] abAB\n")
    jobs = [{"argv": ["ball", str(pres), "--radius", "2"]},
            {"argv": ["hyp2-check"]}]
    plain = passrun.run_pass(cli, jobs)
    plain["peak_rss_mib"] = 1.0
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = passrun.run_pass(cli, jobs, tracer)
    finally:
        tracer.uninstall()
    traced["trace"] = json.loads(json.dumps(tracer.dump()))
    e2e_units, layer_units = run.declared_metrics()
    assert set(run.end_to_end([plain], 0.1, 0.0)) == set(e2e_units)
    assert set(run.per_layer([plain], [traced], 0.0)) == set(layer_units)


def test_same_seed_same_inputs(tmp_path):
    def make(seed, where):
        return workloads.make_jobs("algebra", seed, tmp_path / where, "in")

    a, b, c = make(7, "a"), make(7, "b"), make(8, "c")
    assert a == b and a != c
    for f in (tmp_path / "a").iterdir():
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


def test_every_job_is_checked():
    for workload in workloads.WORKLOADS:
        jobs = workloads.make_jobs(workload, 1, ROOT / ".perfbench" / "test",
                                   ".perfbench/test")
        assert all(j["check"]["check"] in run.checks.CHECKERS for j in jobs)
        assert len({j["name"] for j in jobs}) == len(jobs)
    shutil.rmtree(ROOT / ".perfbench" / "test")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "acceptor",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_pass_that_prints_other_bytes_fails():
    job = {"name": "hyp", "argv": ["hyp2-check", "--seed", "0"],
           "check": {"check": "hyp2"}}
    rc, stdout = 1, ""
    first = {"jobs": [{"rc": rc, "stdout": stdout, "stderr": "boom"}]}
    same = {"jobs": [{"rc": rc, "stdout": stdout, "stderr": "boom"}]}
    other = {"jobs": [{"rc": 0, "stdout": "{}", "stderr": ""}]}
    failed, reasons = run.check_passes([job], [first, same, other])
    assert failed == 3
    assert reasons["hyp"] == ["exit 1: boom", "stdout differs between passes"]
