import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


@pytest.fixture
def relhyp_report():
    """Run one relhyp command in-process; returns (exit code, report or
    None, stdout)."""
    from relhyp import cli

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        text = out.getvalue()
        return rc, (json.loads(text) if rc == 0 else None), text

    return run
