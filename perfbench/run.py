"""The relhyp benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed fixes the inputs of the
workload's job list (see workloads.py).  Each pass runs the whole list in
a fresh interpreter (passrun.py); passes repeat until the next one would
overrun ``--seconds``; with ``--trace 1`` plain and traced passes
alternate.  Every job's report is checked outside the timed
region by checks.py, and later passes must print the same bytes as the
first.  The last stdout line is one JSON object: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced pass with
``--trace 1``.  Metric names and units come from BENCHMARK.json.
"""

import argparse
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_RUNS = 11
SETUP_CODE = ("import sys; sys.path.insert(0, 'src'); import relhyp.cli; "
              "relhyp.cli.build_parser()")
PASS_TIMEOUT_S = 150
ACCOUNTING_TOLERANCE = 0.05


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def measure_setup():
    """Median seconds for a fresh interpreter to import relhyp.cli and
    build the parser.  One unmeasured start first writes the bytecode
    cache, which an installed package has too.  No timeout: waiting with
    one polls the child every 50 ms, which would round the times up."""
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                       check=True)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Run:
    def __init__(self, workload, seed, directory):
        self.dir = directory
        self.jobs = workloads.make_jobs(workload, seed, directory / "inputs",
                                        directory.relative_to(ROOT).as_posix()
                                        + "/inputs")
        self.jobs_file = directory / "jobs.json"
        self.jobs_file.write_text(json.dumps(self.jobs), encoding="utf-8")
        self.count = 0

    def one_pass(self, trace=False):
        """Run the job list once in a fresh interpreter; with ``trace``
        the result also carries the spans under "trace"."""
        self.count += 1
        out = self.dir / f"pass{self.count}.json"
        cmd = [sys.executable, str(HERE / "passrun.py"), str(self.jobs_file),
               str(out)]
        if trace:
            cmd += ["--trace", str(self.dir / f"spans{self.count}.json")]
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=PASS_TIMEOUT_S)
        result = json.loads(out.read_text(encoding="utf-8"))
        if trace:
            result["trace"] = json.loads(Path(cmd[-1]).read_text(
                encoding="utf-8"))
        return result

    def passes(self, seconds, kinds=(False,)):
        """Passes cycling through ``kinds`` (the trace flag of each), until
        the next would end after ``seconds``; at least one of each kind.
        Alternating plain and traced passes exposes both to the same
        stretches of machine noise."""
        done = []
        t0 = time.perf_counter()
        for trace in itertools.cycle(kinds):
            done.append(self.one_pass(trace))
            elapsed = time.perf_counter() - t0
            if (len(done) >= len(kinds)
                    and elapsed * (len(done) + 1) / len(done) > seconds):
                return done


def check_passes(jobs, passes):
    """(failed job runs, reasons by job name) over all passes."""
    failed = 0
    reasons = {}
    first = passes[0]["jobs"]
    for job, res in zip(jobs, first):
        why = checks.check_job(job, res["rc"], res["stdout"], res["stderr"])
        if why:
            reasons[job["name"]] = why
    failed_first = set(reasons)
    for p in passes:
        for job, res, ref in zip(jobs, p["jobs"], first):
            if (res["rc"], res["stdout"]) != (ref["rc"], ref["stdout"]):
                reasons.setdefault(job["name"], []).append(
                    "stdout differs between passes")
                failed += 1
            elif job["name"] in failed_first:
                failed += 1
    return failed, reasons


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(name, values, unit):
    q1, q3 = quartiles(values)
    print(f"{name:14s} median {statistics.median(values):.6g} {unit}  "
          f"(n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g})")
    return statistics.median(values)


def end_to_end(passes, setup_s, fail_ratio):
    metrics = {}
    for key in ("wall_s", "cpu_s", "peak_rss_mib"):
        unit = "MiB" if key == "peak_rss_mib" else "s"
        metrics[key] = summarize(key, [p[key] for p in passes], unit)
    metrics["setup_s"] = setup_s
    print(f"{'setup_s':14s} median {setup_s:.6g} s (n={SETUP_RUNS})")
    print(f"{'fail_ratio':14s} {fail_ratio:.6g}")
    return metrics


def per_layer(plain, traced, fail_ratio):
    """Each layer metric from the middle traced pass (the lower middle
    one of an even count), so that counts stay whole."""
    rows = []
    for p in traced:
        report_bytes = sum(len(j["stdout"].encode()) for j in p["jobs"])
        m = spans.layer_metrics(p["trace"], p["wall_s"], report_bytes)
        accounted = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) \
            + m["bench.self_s"]
        if abs(accounted - p["wall_s"]) > ACCOUNTING_TOLERANCE * p["wall_s"]:
            raise SystemExit(f"layer self times account for {accounted:.4f}"
                             f" s of a {p['wall_s']:.4f} s traced pass")
        rows.append(m)
    metrics = {k: statistics.median_low(r[k] for r in rows)
               for k in rows[0]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain))
    metrics["fail_ratio"] = fail_ratio
    for layer in spans.LAYERS + ("bench",):
        print(f"{layer + '.self_s':18s} {metrics[layer + '.self_s']:.4f} s")
    print(f"trace.overhead_ratio {metrics['trace.overhead_ratio']:.4f} "
          f"({len(traced)} traced / {len(plain)} plain passes)")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "relhyp" / "cli.py").is_file():
        print(f"run.py: no relhyp sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()

    directory = WORK / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    run = Run(args.workload, args.seed, directory)
    if args.trace:
        all_passes = run.passes(args.seconds, kinds=(False, True))
        plain = [p for p in all_passes if "trace" not in p]
        traced = [p for p in all_passes if "trace" in p]
    else:
        setup_s = measure_setup()
        all_passes = run.passes(args.seconds)

    failed, reasons = check_passes(run.jobs, all_passes)
    (directory / "failures.json").write_text(json.dumps(reasons, indent=1),
                                             encoding="utf-8")
    attempted = len(run.jobs) * len(all_passes)
    for job, res in zip(run.jobs, all_passes[0]["jobs"]):
        verdict = "; ".join(reasons.get(job["name"], ["ok"]))
        print(f"{job['name']:24s} {res['seconds']:8.3f} s  {verdict}")
    unexpected = sorted(set(reasons) - workloads.KNOWN_FAILURES)
    if unexpected:
        print(f"unexpected failures: {', '.join(unexpected)}")
    print(f"{args.workload} seed {args.seed}: {len(run.jobs)} jobs x "
          f"{len(all_passes)} passes, {failed} failed")
    fail_ratio = failed / attempted

    if args.trace:
        values = per_layer(plain, traced, fail_ratio)
        units = layer_units
    else:
        values = end_to_end(all_passes, setup_s, fail_ratio)
        units = e2e_units
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} are "
                         f"not exactly those BENCHMARK.json declares")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
