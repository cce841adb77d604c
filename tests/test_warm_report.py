"""A warm report imports no numpy and builds no graph, and a client
imports no daemon.

Each check runs in a fresh interpreter, since this one has imported
numpy long ago.  The cache is filled once, by a cold ``repro report``
at ``REPRO_SCALE=0.01``; a warm report over it, local or served, must
then read every section from the cache, simulate nothing, and leave
``numpy`` out of ``sys.modules``.
"""

import json
import os
import subprocess
import sys

import pytest

#: Runs in the child: the steps of a warm local report, noting after
#: each whether numpy was imported.
LOCAL = """
import contextlib, io, json, sys
steps = {}
import repro.api
steps["import repro.api"] = "numpy" in sys.modules
import repro.cli
steps["import repro.cli"] = "numpy" in sys.modules
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = repro.cli.main(["report", "--results-dir", sys.argv[1],
                           "--cache-dir", sys.argv[2]])
steps["repro report"] = "numpy" in sys.modules
summary = [line for line in out.getvalue().splitlines()
           if line.startswith("sections:")]
print(json.dumps({"numpy": steps, "exit": code, "summary": summary}))
"""

#: The same for a daemon on a thread of the child answering
#: ``RemoteSession.report``: client and daemon share ``sys.modules``.
SERVED = """
import json, os, sys, tempfile
steps = {}
from repro.api import RemoteSession
from repro.serve.daemon import serve_in_thread
steps["import repro.api, repro.serve.daemon"] = "numpy" in sys.modules
with tempfile.TemporaryDirectory(dir="/tmp", prefix="repro-warm-") as d:
    sock = os.path.join(d, "d.sock")
    with serve_in_thread(sock, cache_dir=sys.argv[2]):
        with RemoteSession(sock) as remote:
            report = remote.report(sys.argv[1])
steps["RemoteSession.report"] = "numpy" in sys.modules
print(json.dumps({"numpy": steps, "executed": report.executed,
                  "hits": report.cache_hits, "jobs": report.total_jobs}))
"""

#: The modules a ``--connect`` client imports: the daemon runs in
#: another process, so its modules and asyncio must not load here.
CLIENT = """
import json, sys
import repro.api, repro.cli, repro.serve.client
print(json.dumps({"loaded": sorted(
    name for name in ("asyncio", "repro.serve.daemon", "repro.serve.scheduler")
    if name in sys.modules)}))
"""


def _child(code: str, *args: str) -> dict:
    env = dict(os.environ, REPRO_SCALE="0.01")
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    """``(cache dir, REPORT.md bytes)`` of one cold report."""
    root = tmp_path_factory.mktemp("warm")
    env = dict(os.environ, REPRO_SCALE="0.01")
    subprocess.run([sys.executable, "-m", "repro", "report",
                    "--results-dir", str(root / "cold"),
                    "--cache-dir", str(root / "cache"), "--jobs", "2"],
                   env=env, check=True, capture_output=True, timeout=300)
    return root / "cache", (root / "cold" / "REPORT.md").read_bytes()


def test_local_warm_report_imports_no_numpy(filled, tmp_path):
    cache, cold_report = filled
    got = _child(LOCAL, str(tmp_path / "r"), str(cache))
    assert got["numpy"] == {"import repro.api": False,
                            "import repro.cli": False,
                            "repro report": False}
    assert got["exit"] == 0
    [summary] = got["summary"]
    assert "sections: 15 " in summary and "(100%)  executed: 0 " in summary
    assert (tmp_path / "r" / "REPORT.md").read_bytes() == cold_report


def test_served_warm_report_imports_no_numpy(filled, tmp_path):
    cache, cold_report = filled
    got = _child(SERVED, str(tmp_path / "r"), str(cache))
    assert got["numpy"] == {"import repro.api, repro.serve.daemon": False,
                            "RemoteSession.report": False}
    assert got["executed"] == 0 and got["hits"] == got["jobs"] > 0
    assert (tmp_path / "r" / "REPORT.md").read_bytes() == cold_report


def test_client_imports_no_daemon():
    assert _child(CLIENT) == {"loaded": []}
