"""End-to-end tests of the serve daemon over a real unix socket.

Every test runs a daemon on a background thread (``serve_in_thread``)
with the inline worker pool — same process, so ``monkeypatch`` can
intercept :func:`repro.sweep.executor.execute_job` to count and gate
real simulations deterministically.
"""

import json
import os
import socket
import tempfile
import threading

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

    def test_reload_without_change_keeps_generation(self, sock_dir):
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock) as daemon:
            reloaded = ServeClient(sock).reload()
            assert reloaded.changed is False
            assert reloaded.code_version == daemon.version

    def test_reload_after_change_bumps_generation(self, sock_dir,
                                                  monkeypatch):
        from repro.sweep import cache as cache_mod
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, cache_dir=os.path.join(sock_dir, "c")) \
                as daemon:
            client = ServeClient(sock)
            client.run_sweep(_jobs())
            assert client.run_sweep(_jobs()).cache_hits == 2
            assert len(daemon.cache._resident) == 2
            before = client.ping().generation
            monkeypatch.setattr(cache_mod, "_digest_source_tree",
                                lambda: "f" * 64)
            reloaded = client.reload()
            assert reloaded.changed is True
            assert reloaded.code_version == "f" * 64
            assert reloaded.generation == before + 1
            assert daemon.scheduler.version == "f" * 64
            # resident entries are keyed under the old version
            assert daemon.cache._resident == {}
            monkeypatch.undo()
            client.reload()          # restore the real digest for peers

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
        # REPORT.md embeds the cache dir, so both paths must share one
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


class TestCliServeVerbs:
    """`repro serve reload|status --connect` against a live daemon."""

    def test_status_verb_prints_the_daemon_line(self, sock_dir, capsys):
        from repro.cli import main
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock):
            assert main(["serve", "status", "--connect", sock]) == 0
        out = capsys.readouterr().out
        assert "state: serving" in out
        assert "workers:" in out and "generation:" in out

    def test_reload_verb_reports_version_and_generation(self, sock_dir,
                                                        capsys):
        from repro.cli import main
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock) as daemon:
            assert main(["serve", "reload", "--connect", sock]) == 0
            out = capsys.readouterr().out
            assert f"code version {daemon.version[:12]}" in out
            assert "unchanged" in out       # nothing edited under test
