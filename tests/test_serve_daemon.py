"""End-to-end tests of the serve daemon over a real unix socket.

Every test but the signal test runs a daemon on a background thread
(``serve_in_thread``) with one job thread — same process, so
``monkeypatch`` can intercept :func:`repro.sweep.executor.execute_job`
to count and gate real simulations deterministically.
"""

import contextlib
import glob
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro.accel import higraph
from repro.accel.stats import SimStats
from repro.api import LocalSession, RemoteSession, Session, session
from repro.errors import ServeError
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.daemon import serve_in_thread
from repro.sweep import executor
from repro.sweep.jobs import GraphSpec, SweepJob


@pytest.fixture
def sock_dir():
    # unix socket paths are capped around 108 bytes; pytest's tmp_path
    # can exceed that, so sockets live in a short-lived /tmp dir
    with tempfile.TemporaryDirectory(dir="/tmp", prefix="repro-serve-") as d:
        yield d


def _jobs(*algorithms):
    return [SweepJob(graph=GraphSpec("VT", scale=0.03), algorithm=alg,
                     config=higraph(), tags={"algorithm": alg})
            for alg in (algorithms or ("BFS", "SSSP"))]


class TestSweepLifecycle:
    def test_cold_then_warm_resubmission(self, sock_dir):
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, cache_dir=os.path.join(sock_dir, "c")):
            client = ServeClient(sock)
            cold = client.run_sweep(_jobs())
            assert cold.executed == 2 and cold.cache_hits == 0
            warm = client.run_sweep(_jobs())
            assert warm.executed == 0 and warm.cache_hits == 2
            assert warm.stats == cold.stats      # same dict payloads
            assert all(s == 0.0 for s in warm.job_seconds)

    def test_ping_reports_protocol_and_version(self, sock_dir):
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock) as daemon:
            pong = ServeClient(sock).ping()
            assert pong.protocol == protocol.PROTOCOL_VERSION
            assert pong.code_version == daemon.version
            assert len(pong.code_version) == 64

    def test_progress_stream_replays_and_terminates(self, sock_dir):
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, cache_dir=os.path.join(sock_dir, "c")):
            client = ServeClient(sock)
            ticket = client.submit_sweep(_jobs())
            events = []
            done = client.stream(ticket, on_progress=lambda e: events.append(e))
            assert [(e.done, e.total) for e in events] == [(1, 2), (2, 2)]
            assert all(e.ticket == ticket for e in events)
            assert done.executed == 2
            # a late subscriber gets the full replay
            replay = []
            client.stream(ticket, on_progress=lambda e: replay.append(e))
            assert [(e.done, e.total) for e in replay] == [(1, 2), (2, 2)]

    def test_status_tracks_daemon_and_ticket(self, sock_dir):
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, cache_dir=os.path.join(sock_dir, "c")):
            client = ServeClient(sock)
            ticket = client.submit_sweep(_jobs("BFS"))
            client.fetch(ticket)
            st = client.status(ticket)
            assert st.state == "done" and st.done == st.total == 1
            daemon_status = client.status()
            assert daemon_status.state == "serving"
            assert daemon_status.tickets == 1
            assert daemon_status.executed == 1

    def test_unknown_ticket_is_an_error_reply(self, sock_dir):
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock):
            with pytest.raises(ServeError, match="t999"):
                ServeClient(sock).fetch("t999")

    def test_empty_submission_rejected(self, sock_dir):
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock):
            with pytest.raises(ServeError, match="at least one job"):
                ServeClient(sock).submit_sweep([])

    def test_version_mismatch_answered_then_hung_up(self, sock_dir):
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock):
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                raw.settimeout(10.0)
                raw.connect(sock)
                raw.sendall(json.dumps({"v": 0, "type": "ping"})
                            .encode() + b"\n")
                with raw.makefile("rb") as stream:
                    reply = protocol.decode(stream.readline())
                    assert isinstance(reply, protocol.Error)
                    assert reply.code == "protocol-version"
                    assert stream.readline() == b""   # connection closed


class TestDedup:
    def test_concurrent_identical_submits_one_simulation(
            self, sock_dir, monkeypatch):
        """Two clients racing the same job must share one execution."""
        executions = []
        gate = threading.Event()

        def fake_execute(job):
            executions.append(job.describe())
            assert gate.wait(timeout=30.0)
            return SimStats(algorithm=job.algorithm, graph_name="VT",
                            scatter_cycles=123, edges_processed=456)

        monkeypatch.setattr(executor, "execute_job", fake_execute)
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, cache_dir=os.path.join(sock_dir, "c")):
            client = ServeClient(sock)
            job = _jobs("BFS")
            first = client.submit_sweep(job)
            second = client.submit_sweep(job)   # identical cache key
            gate.set()
            done_first = client.fetch(first)
            done_second = client.fetch(second)
        assert executions == ["BFS/VT/HiGraph"]          # exactly one run
        assert done_first.executed == 1
        assert done_second.executed == 0
        assert done_second.deduped == 1
        assert done_second.cache_hits == 1               # served, not simulated
        assert done_second.stats == done_first.stats

    def test_duplicate_keys_within_one_submission(self, sock_dir,
                                                  monkeypatch):
        executions = []

        def fake_execute(job):
            executions.append(job.describe())
            return SimStats(algorithm=job.algorithm, scatter_cycles=7)

        monkeypatch.setattr(executor, "execute_job", fake_execute)
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, cache_dir=os.path.join(sock_dir, "c")):
            done = ServeClient(sock).run_sweep(_jobs("PR") + _jobs("PR"))
        assert len(executions) == 1
        assert done.executed == 1 and done.cache_hits == 1
        assert done.stats[0] == done.stats[1]

    def test_failed_job_fails_every_attached_ticket(self, sock_dir,
                                                    monkeypatch):
        def fake_execute(job):
            raise ValueError("synthetic simulation failure")

        monkeypatch.setattr(executor, "execute_job", fake_execute)
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, cache_dir=os.path.join(sock_dir, "c")):
            client = ServeClient(sock)
            ticket = client.submit_sweep(_jobs("BFS"))
            with pytest.raises(ServeError, match="synthetic"):
                client.fetch(ticket)
            # the daemon survives and keeps serving
            assert client.ping().protocol == protocol.PROTOCOL_VERSION


class TestJobThreads:
    def test_a_tickets_misses_run_at_once_on_the_job_threads(
            self, sock_dir, monkeypatch):
        """With two job threads, a ticket's two misses simulate at the
        same time, off the event loop's thread."""
        threads = []
        both_running = threading.Barrier(2, timeout=10)

        def fake_execute(job):
            threads.append(threading.current_thread().name)
            both_running.wait()          # breaks unless both jobs run
            return SimStats(algorithm=job.algorithm)

        monkeypatch.setattr(executor, "execute_job", fake_execute)
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, workers=2):
            done = ServeClient(sock).run_sweep(_jobs())
        assert (done.executed, done.workers_used) == (2, 2)
        assert len(set(threads)) == 2
        assert all(name.startswith("repro-serve_") for name in threads)

    def test_zero_workers_means_one_thread_per_cpu(self, sock_dir):
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, workers=0) as daemon:
            assert daemon.workers == (os.cpu_count() or 1)
            assert ServeClient(sock).status().workers == daemon.workers

    def test_stop_joins_the_job_threads(self, sock_dir, monkeypatch):
        """A stopped daemon leaves no job thread running and takes no
        more work on its pool."""
        threads = set()

        def fake_execute(job):
            threads.add(threading.current_thread())
            return SimStats(algorithm=job.algorithm)

        monkeypatch.setattr(executor, "execute_job", fake_execute)
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, workers=2) as daemon:
            assert ServeClient(sock).run_sweep(_jobs()).executed == 2
        assert threads
        assert [t.name for t in threads if t.is_alive()] == []
        with pytest.raises(RuntimeError, match="shutdown"):
            daemon.pool.submit(int)


class TestCacheAndReload:
    def test_cache_info_and_gc(self, sock_dir):
        sock = os.path.join(sock_dir, "d.sock")
        cache_dir = os.path.join(sock_dir, "c")
        with serve_in_thread(sock, cache_dir=cache_dir):
            client = ServeClient(sock)
            client.run_sweep(_jobs())
            info = client.cache_info()
            assert info.cache_dir == cache_dir
            assert info.entries == 2 and info.total_bytes > 0
            gc = client.cache_gc(max_bytes=0, dry_run=True)
            assert gc.dry_run and gc.removed == 2
            assert client.cache_info().entries == 2   # dry run kept them
            gc = client.cache_gc(max_bytes=0)
            assert gc.removed == 2
            assert client.cache_info().entries == 0

    def test_cacheless_daemon_reports_and_refuses_gc(self, sock_dir):
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock):
            client = ServeClient(sock)
            assert client.cache_info().cache_dir is None
            with pytest.raises(ServeError, match="without a result cache"):
                client.cache_gc(max_bytes=0)

    def test_reload_without_change_answers_unchanged(self, sock_dir):
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock) as daemon:
            reloaded = ServeClient(sock).reload()
            assert reloaded.changed is False
            assert reloaded.code_version == daemon.version

    def test_code_changing_reload_stops_the_daemon(self, sock_dir,
                                                    monkeypatch):
        """A daemon runs the code it imported at start.  When the tree
        digests differently, it answers and stops, so no result of its
        code is stored under the new digest's keys; the digest leaves
        the host process's code version alone."""
        from pathlib import Path
        from repro.sweep import cache as cache_mod
        sock = os.path.join(sock_dir, "d.sock")
        cache_dir = os.path.join(sock_dir, "c")
        version = cache_mod.code_version()
        with serve_in_thread(sock, cache_dir=cache_dir):
            client = ServeClient(sock)
            assert client.run_sweep(_jobs()).executed == 2
            monkeypatch.setattr(cache_mod, "_digest_source_tree",
                                lambda: "f" * 64)
            reloaded = client.reload()
            assert (reloaded.changed, reloaded.code_version) \
                == (True, "f" * 64)
            _wait(lambda: not os.path.exists(sock), 10)
            assert not os.path.exists(sock)
            with pytest.raises(ServeError, match="cannot reach daemon"):
                client.run_sweep(_jobs())
        assert cache_mod.code_version() == version
        stored = {path.stem for path in Path(cache_dir).glob("*/*.json")}
        assert stored == {job.cache_key(version) for job in _jobs()}
        assert not stored & {job.cache_key("f" * 64) for job in _jobs()}

    def test_entry_deleted_behind_the_daemon_is_simulated_again(
            self, sock_dir):
        from pathlib import Path
        sock = os.path.join(sock_dir, "d.sock")
        cache_dir = os.path.join(sock_dir, "c")
        with serve_in_thread(sock, cache_dir=cache_dir):
            client = ServeClient(sock)
            assert client.run_sweep(_jobs("BFS")).executed == 1
            warm = client.run_sweep(_jobs("BFS"))      # read, now resident
            assert (warm.executed, warm.cache_hits) == (0, 1)
            entries = list(Path(cache_dir).glob("*/*.json"))
            assert len(entries) == 1
            entries[0].unlink()                        # not via the daemon
            again = client.run_sweep(_jobs("BFS"))
            assert (again.executed, again.cache_hits) == (1, 0)
            assert again.stats == warm.stats


class TestSessionFacade:
    def test_local_and_remote_stats_byte_identical(self, sock_dir):
        jobs = _jobs()
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, cache_dir=os.path.join(sock_dir, "c")):
            with RemoteSession(sock) as remote:
                remote_outcome = remote.sweep(jobs)
        with LocalSession() as local:
            local_outcome = local.sweep(jobs)
        assert len(remote_outcome.stats) == len(local_outcome.stats) == 2
        for ours, theirs in zip(remote_outcome.stats, local_outcome.stats):
            assert (json.dumps(ours.to_dict(), sort_keys=True)
                    == json.dumps(theirs.to_dict(), sort_keys=True))

    def test_remote_simulate_and_progress(self, sock_dir):
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, cache_dir=os.path.join(sock_dir, "c")):
            with RemoteSession(sock) as remote:
                stats = remote.simulate(_jobs("BFS")[0])
                assert stats.total_cycles > 0
                seen = []
                remote.sweep(_jobs(), on_progress=lambda d, t, j:
                             seen.append((d, t, j)))
                assert [(d, t) for d, t, _ in seen] == [(1, 2), (2, 2)]
                assert all(isinstance(j, str) for _, _, j in seen)

    def test_session_factory_dispatch(self, sock_dir):
        assert isinstance(session(), LocalSession)
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock):
            remote = session(sock)
            assert isinstance(remote, RemoteSession)
            assert remote.ping().protocol == protocol.PROTOCOL_VERSION
        with pytest.raises(ServeError, match="local sessions only"):
            session(sock, cache_dir="/tmp/x")

    def test_session_engine_leaves_the_callers_jobs(self, monkeypatch):
        """A session's engine applies to copies: a list swept once by an
        ``engine="reference"`` session still builds soa engines in an
        ``engine="soa"`` session, and keeps ``engine=None`` throughout."""
        from repro.accel import accelerator
        from repro.accel.engine import soakernel
        if soakernel.load_kernel() is None:
            pytest.skip("no compiled kernel: soa runs are handed to reference")
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        built = []
        real = accelerator.make_engine

        def spy(name, sim):
            engine = real(name, sim)
            built.append(type(engine).__name__)
            return engine

        monkeypatch.setattr(accelerator, "make_engine", spy)
        jobs = _jobs("BFS")
        with LocalSession(engine="reference") as first:
            first.sweep(jobs)
        assert built == ["ReferenceEngine"]
        assert [job.engine for job in jobs] == [None]
        built.clear()
        with LocalSession(engine="soa") as second:
            outcome = second.sweep(jobs)
        assert built == ["SoaEngine"]
        assert [job.engine for job in jobs] == [None]
        assert [job.engine for job in outcome.jobs] == ["soa"]

    def test_closed_session_refuses_work(self):
        local = LocalSession()
        local.close()
        with pytest.raises(ServeError, match="closed"):
            local.sweep(_jobs("BFS"))
        assert issubclass(LocalSession, Session)
        assert issubclass(RemoteSession, Session)

    def test_client_refuses_dead_socket(self, sock_dir):
        with pytest.raises(ServeError, match="cannot reach daemon"):
            ServeClient(os.path.join(sock_dir, "gone.sock")).ping()


class TestReportEndpoint:
    def test_remote_report_matches_local_bytes(self, sock_dir, tmp_path):
        """The acceptance invariant: a daemon-side regeneration of the
        same results_dir is byte-identical to the local CLI path."""
        results = tmp_path / "results"
        cache_dir = os.path.join(sock_dir, "c")
        sections = ["table1", "fig4"]          # model sections: no sims
        with LocalSession(cache_dir=cache_dir) as local:
            local_report = local.report(results, sections=sections)
        cold_bytes = (results / "REPORT.md").read_bytes()

        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, cache_dir=cache_dir):
            with RemoteSession(sock) as remote:
                remote_report = remote.report(results, sections=sections)
        assert (results / "REPORT.md").read_bytes() == cold_bytes
        assert remote_report.report_path == local_report.report_path
        assert [s["section"] for s in remote_report.sections] \
            == [s["section"] for s in local_report.sections]

    def test_client_scale_scopes_daemon_side_matrix(self, sock_dir,
                                                    tmp_path, monkeypatch):
        """A remote report builds its job matrix on the daemon, so the
        client's $REPRO_SCALE must travel with the request — otherwise
        it would miss every cache entry a local run at that scale
        wrote (and silently report different numbers)."""
        cache_dir = os.path.join(sock_dir, "c")
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        with LocalSession(cache_dir=cache_dir) as local:
            cold = local.report(tmp_path / "r", sections=["fig12"])
        assert cold.executed > 0
        monkeypatch.delenv("REPRO_SCALE")   # daemon ambient: no scale

        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, cache_dir=cache_dir):
            done = ServeClient(sock).regen_report(
                tmp_path / "r", sections=["fig12"], scale="0.02")
        assert sum(s["executed"] for s in done.sections) == 0
        assert os.environ.get("REPRO_SCALE") is None   # scope released

    def test_remote_report_sweeps_use_daemon_cache(self, sock_dir,
                                                   tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, cache_dir=os.path.join(sock_dir, "c")):
            with RemoteSession(sock) as remote:
                cold = remote.report(tmp_path / "r", sections=["fig12"])
                assert cold.executed > 0
                warm = remote.report(tmp_path / "r", sections=["fig12"])
        assert warm.executed == 0
        assert warm.cache_hits == cold.total_jobs


#: Sections of the resident-plan tests: a matrix over a symbolic graph
#: (R14) and one over an inline graph (the latency ablation's chain).
PLAN_SECTIONS = ["latency", "radix"]


def _spy(monkeypatch, owner, name, calls):
    """Record ``name`` in ``calls`` on each call of ``owner.name``."""
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def _spy_planning(monkeypatch):
    """(planner calls, key payloads built): every section planner the
    regeneration looks up, and the graph fingerprints ``SweepJob``
    takes, one per cache-key payload."""
    from repro.bench import regen
    from repro.sweep import jobs as jobs_mod
    planned, keyed = [], []
    for name in [n for n in vars(regen) if n.endswith("_jobs")]:
        _spy(monkeypatch, regen, name, planned)
    _spy(monkeypatch, jobs_mod, "graph_fingerprint", keyed)
    return planned, keyed


class TestResidentPlans:
    """A daemon plans each section sweep once per ``$REPRO_SCALE`` and
    keeps its jobs, keys included; every result is still read from the
    cache on every report."""

    def test_second_warm_report_plans_and_keys_nothing(
            self, sock_dir, tmp_path, monkeypatch):
        from repro.sweep.cache import ResultCache
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        results = tmp_path / "r"
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, cache_dir=os.path.join(sock_dir, "c")):
            with RemoteSession(sock) as remote:
                assert remote.report(results,
                                     sections=PLAN_SECTIONS).executed > 0
                remote.report(results, sections=PLAN_SECTIONS)
                warm_bytes = (results / "REPORT.md").read_bytes()
                planned, keyed = _spy_planning(monkeypatch)
                gets = []
                _spy(monkeypatch, ResultCache, "get", gets)
                again = remote.report(results, sections=PLAN_SECTIONS)
        assert planned == [] and keyed == []
        assert again.executed == 0
        assert len(gets) == again.cache_hits == again.total_jobs == 7
        assert (results / "REPORT.md").read_bytes() == warm_bytes

    def test_report_at_another_scale_plans_again(self, sock_dir, tmp_path,
                                                 monkeypatch):
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, cache_dir=os.path.join(sock_dir, "c")) \
                as daemon:
            with RemoteSession(sock) as remote:
                monkeypatch.setenv("REPRO_SCALE", "0.02")
                remote.report(tmp_path / "a", sections=PLAN_SECTIONS)
                planned, _keyed = _spy_planning(monkeypatch)
                monkeypatch.setenv("REPRO_SCALE", "0.03")
                remote.report(tmp_path / "b", sections=PLAN_SECTIONS)
            assert list(daemon._plans) == ["0.03"]   # the latest scale only
        assert planned == ["sec54_radix_jobs", "latency_ablation_jobs"]
        with LocalSession() as local:
            local.report(tmp_path / "local", sections=PLAN_SECTIONS)
        for name in ("REPORT.md", "sec54_radix.txt", "ablation_latency.txt"):
            assert (tmp_path / "b" / name).read_bytes() \
                == (tmp_path / "local" / name).read_bytes(), name
        assert (tmp_path / "a" / "sec54_radix.txt").read_bytes() \
            != (tmp_path / "b" / "sec54_radix.txt").read_bytes()

    def test_entry_deleted_between_reports_is_simulated_again(
            self, sock_dir, tmp_path, monkeypatch):
        from pathlib import Path
        monkeypatch.setenv("REPRO_SCALE", "0.02")
        results = tmp_path / "r"
        cache_dir = os.path.join(sock_dir, "c")
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, cache_dir=cache_dir):
            with RemoteSession(sock) as remote:
                remote.report(results, sections=PLAN_SECTIONS)
                warm = remote.report(results, sections=PLAN_SECTIONS)
                warm_bytes = (results / "REPORT.md").read_bytes()
                entries = sorted(Path(cache_dir).glob("*/*.json"))
                assert len(entries) == warm.total_jobs
                entries[0].unlink()                # not via the daemon
                again = remote.report(results, sections=PLAN_SECTIONS)
        assert (warm.executed, warm.cache_hits) == (0, 7)
        assert (again.executed, again.cache_hits) == (1, 6)
        assert (results / "REPORT.md").read_bytes() == warm_bytes


class TestCliServeVerbs:
    """`repro serve reload|status --connect` against a live daemon."""

    def test_status_verb_prints_the_daemon_line(self, sock_dir, capsys):
        from repro.cli import main
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock):
            assert main(["serve", "status", "--connect", sock]) == 0
        out = capsys.readouterr().out
        assert "state: serving" in out
        assert "workers:" in out and "uptime:" in out

    def test_reload_verb_reports_the_version(self, sock_dir, capsys):
        from repro.cli import main
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock) as daemon:
            assert main(["serve", "reload", "--connect", sock]) == 0
            out = capsys.readouterr().out
            assert f"code version {daemon.version[:12]}" in out
            assert "unchanged" in out       # nothing edited under test

    def test_reload_verb_says_a_changed_daemon_stopped(self, sock_dir,
                                                       capsys, monkeypatch):
        from repro.cli import main
        from repro.sweep import cache as cache_mod
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock):
            monkeypatch.setattr(cache_mod, "_digest_source_tree",
                                lambda: "f" * 64)
            assert main(["serve", "reload", "--connect", sock]) == 0
            _wait(lambda: not os.path.exists(sock), 10)
            assert not os.path.exists(sock)
        out = capsys.readouterr().out
        assert "code version ffffffffffff (changed)" in out
        assert "the daemon stopped" in out and "restart" in out


def _children(pid):
    """Child pids of ``pid``, from Linux's /proc children lists."""
    kids = set()
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        with open(path) as fh:
            kids.update(int(p) for p in fh.read().split())
    return kids


def _wait(condition, timeout):
    deadline = time.monotonic() + timeout
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.05)


@pytest.mark.skipif(not glob.glob(f"/proc/{os.getpid()}/task/*/children"),
                    reason="needs Linux /proc children lists")
class TestSigterm:
    def test_sigterm_closes_the_pool_and_the_socket(self, sock_dir):
        """A service manager's stop (SIGTERM) takes the shutdown path:
        exit 0 and the socket unlinked.  Jobs run on the daemon's
        threads, so a daemon that has simulated has no child process."""
        sock = os.path.join(sock_dir, "d.sock")
        log_path = os.path.join(sock_dir, "daemon.log")
        with open(log_path, "w") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--socket", sock,
                 "--cache-dir", os.path.join(sock_dir, "c"), "--jobs", "2"],
                stdout=log, stderr=subprocess.STDOUT)
        children = set()
        try:
            _wait(lambda: os.path.exists(sock) or proc.poll() is not None, 60)
            done = ServeClient(sock).run_sweep(_jobs())
            assert (done.executed, done.workers_used) == (2, 2)
            children = _children(proc.pid)
            assert children == set()
            proc.send_signal(signal.SIGTERM)
            with open(log_path) as log:
                assert proc.wait(timeout=60) == 0, log.read()
            assert not os.path.exists(sock)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pid in children:         # only if the assertion failed
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
