"""One pass over a job list, in the fresh interpreter that runs this file.

    python3 perfbench/passrun.py JOBS.json OUT.json [--trace SPANS.json]

Jobs run one at a time through ``relhyp.cli.main(argv)`` with stdout and
stderr captured: a closed loop with a single client.  OUT.json gets each
job's exit code, stdout, stderr and seconds, plus the pass's wall and
CPU seconds and the process's peak RSS.  With ``--trace`` the public
functions of every relhyp module are wrapped in span recorders first,
and the spans are written to SPANS.json after the pass.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_cli():
    """Import relhyp.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "relhyp" / "cli.py").is_file():
        raise SystemExit(f"no relhyp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from relhyp import cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"relhyp imported from {cli.__file__}, not {SRC}")
    return cli


def run_pass(cli, jobs, tracer=None):
    out = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = i
        j0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                rc = cli.main(job["argv"])
            except Exception:  # a crash is a failed job, not a failed pass
                rc = None
                traceback.print_exc(file=stderr)
        out.append({"rc": rc, "seconds": time.perf_counter() - j0,
                    "stdout": stdout.getvalue(),
                    "stderr": stderr.getvalue()})
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    return {"wall_s": wall, "cpu_s": cpu, "jobs": out}


def main(argv):
    jobs_path, out_path = argv[0], argv[1]
    spans_path = argv[3] if argv[2:3] == ["--trace"] else None
    cli = load_cli()
    jobs = json.loads(Path(jobs_path).read_text(encoding="utf-8"))
    tracer = None
    if spans_path is not None:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    result = run_pass(cli, jobs, tracer)
    result["peak_rss_mib"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        Path(spans_path).write_text(json.dumps(tracer.dump()),
                                    encoding="utf-8")
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
