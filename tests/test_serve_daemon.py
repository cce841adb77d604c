"""End-to-end tests of the serve daemon over a real unix socket.

Every test but the signal test runs a daemon on a background thread
(``serve_in_thread``) with one job thread — same process, so
``monkeypatch`` can intercept :func:`repro.sweep.executor.execute_job`
to count and gate real simulations deterministically.
"""

import concurrent.futures
import contextlib
import gc
import glob
import json
import logging
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc

import pytest

from repro.accel import higraph
from repro.accel.stats import SimStats
from repro.algorithms import make_algorithm
from repro.api import LocalSession, RemoteSession, Session, session
from repro.errors import ServeError
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.daemon import serve_in_thread
from repro.serve.scheduler import Scheduler
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


def _inline_job(scale, edge_factor):
    """One BFS job on an inline R-MAT graph (sent as CSR arrays)."""
    from repro.graph.generators import rmat
    return SweepJob(graph=rmat(scale, edge_factor), algorithm="BFS",
                    config=higraph())


@pytest.fixture
def engines_built(monkeypatch):
    """The class name of every engine ``make_engine`` builds, in order."""
    from repro.accel import accelerator
    built = []
    real = accelerator.make_engine

    def spy(name, sim):
        engine = real(name, sim)
        built.append(type(engine).__name__)
        return engine

    monkeypatch.setattr(accelerator, "make_engine", spy)
    return built


def _spy_submits(monkeypatch):
    """The ``started`` flag of every ``Scheduler.submit`` call, in order:
    True for a new run, False for one attached to a running one."""
    calls = []
    real = Scheduler.submit

    def spy(self, key, job):
        future, started = real(self, key, job)
        calls.append(started)
        return future, started

    monkeypatch.setattr(Scheduler, "submit", spy)
    return calls


def _send_raw(sock_path, msg):
    """A raw connection with ``msg`` sent on it; the caller closes it."""
    raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    raw.settimeout(10.0)
    raw.connect(sock_path)
    raw.sendall(protocol.encode(msg))
    return raw


def _sweep_msg(jobs):
    return protocol.Sweep(jobs=[protocol.job_to_wire(j) for j in jobs])


def _unhandled(caplog):
    """Errors the event loop logged: an exception a handler let out."""
    return [r.getMessage() for r in caplog.records
            if r.name == "asyncio" and r.levelno >= logging.ERROR]


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

    def test_status_counts_the_daemons_jobs(self, sock_dir):
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, cache_dir=os.path.join(sock_dir, "c")):
            client = ServeClient(sock)
            client.run_sweep(_jobs("BFS"))
            client.run_sweep(_jobs("BFS"))
            status = client.status()
        assert (status.executed, status.cache_hits, status.deduped,
                status.workers) == (1, 1, 0, 1)

    def test_empty_sweep_answers_like_a_local_one(self, sock_dir):
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock):
            with RemoteSession(sock) as remote:
                served = remote.sweep([])
        local = LocalSession().sweep([])
        assert served.stats == local.stats == []
        assert (served.executed, served.cache_hits) == (0, 0)

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

    def test_retired_cache_verb_answered_and_connection_kept(self, sock_dir):
        """A type the codec does not know (here a cache verb the daemon
        no longer serves) is answered with a protocol error, and the
        connection stays open for the next request."""
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock):
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                raw.settimeout(10.0)
                raw.connect(sock)
                with raw.makefile("rb") as stream:
                    raw.sendall(json.dumps({"v": protocol.PROTOCOL_VERSION,
                                            "type": "cache_info"})
                                .encode() + b"\n")
                    reply = protocol.decode(stream.readline())
                    assert isinstance(reply, protocol.Error)
                    assert reply.code == "protocol"
                    assert "cache_info" in reply.message
                    raw.sendall(protocol.encode(protocol.Ping()))
                    pong = protocol.decode(stream.readline())
                    assert isinstance(pong, protocol.Pong)


class TestDedup:
    def test_two_connections_racing_one_job_simulate_it_once(
            self, sock_dir, monkeypatch):
        """Two clients sending the same job at once share one execution:
        the second request attaches to the first one's run."""
        executions = []
        gate = threading.Event()

        def fake_execute(job, engine):
            executions.append(job.describe())
            assert gate.wait(timeout=30.0)
            return SimStats(algorithm=job.algorithm, graph_name="VT",
                            scatter_cycles=123, edges_processed=456)

        monkeypatch.setattr(executor, "execute_job", fake_execute)
        submits = _spy_submits(monkeypatch)
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, cache_dir=os.path.join(sock_dir, "c")):
            client = ServeClient(sock)
            with concurrent.futures.ThreadPoolExecutor(2) as clients:
                replies = [clients.submit(client.run_sweep, _jobs("BFS"))
                           for _ in range(2)]
                _wait(lambda: len(submits) == 2, 10)
                gate.set()
                done = [reply.result(timeout=30) for reply in replies]
        assert submits == [True, False]
        assert executions == ["BFS/VT/HiGraph"]          # exactly one run
        owner, attached = sorted(done, key=lambda d: -d.executed)
        assert (owner.executed, owner.deduped, owner.cache_hits) == (1, 0, 0)
        assert (attached.executed, attached.deduped,
                attached.cache_hits) == (0, 1, 1)        # served, not simulated
        assert attached.stats == owner.stats

    def test_duplicate_keys_within_one_sweep(self, sock_dir, monkeypatch):
        executions = []

        def fake_execute(job, engine):
            executions.append(job.describe())
            return SimStats(algorithm=job.algorithm, scatter_cycles=7)

        monkeypatch.setattr(executor, "execute_job", fake_execute)
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, cache_dir=os.path.join(sock_dir, "c")):
            done = ServeClient(sock).run_sweep(_jobs("PR") + _jobs("PR"))
        assert len(executions) == 1
        assert done.executed == 1 and done.cache_hits == 1
        assert done.stats[0] == done.stats[1]

    def test_failed_run_fails_every_attached_request(self, sock_dir,
                                                     monkeypatch, caplog):
        gate = threading.Event()

        def fake_execute(job, engine):
            assert gate.wait(timeout=30.0)
            raise ValueError("synthetic simulation failure")

        monkeypatch.setattr(executor, "execute_job", fake_execute)
        submits = _spy_submits(monkeypatch)
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, cache_dir=os.path.join(sock_dir, "c")):
            client = ServeClient(sock)
            with concurrent.futures.ThreadPoolExecutor(2) as clients:
                replies = [clients.submit(client.run_sweep, _jobs("BFS"))
                           for _ in range(2)]
                _wait(lambda: len(submits) == 2, 10)
                gate.set()
                for reply in replies:
                    with pytest.raises(ServeError,
                                       match=r"\[failed\] ValueError: synthetic"):
                        reply.result(timeout=30)
            # the daemon survives and keeps serving
            assert client.ping().protocol == protocol.PROTOCOL_VERSION
        assert submits == [True, False]
        assert _unhandled(caplog) == []


class TestSharedCacheDir:
    def test_two_daemons_racing_one_job_leave_one_entry(
            self, sock_dir, monkeypatch):
        """Nothing coordinates two daemons on one cache directory: sent
        the same job at once, both simulate it, return the same stats,
        and the atomic write leaves one readable entry."""
        from pathlib import Path
        from repro.sweep.cache import ResultCache, code_version
        real_execute = executor.execute_job
        both_running = threading.Barrier(2, timeout=10)

        def racing_execute(job, engine):
            both_running.wait()          # breaks unless both daemons run it
            return real_execute(job, engine)

        monkeypatch.setattr(executor, "execute_job", racing_execute)
        cache_dir = os.path.join(sock_dir, "c")
        socks = [os.path.join(sock_dir, f"{name}.sock") for name in "ab"]
        job = _jobs("BFS")
        with serve_in_thread(socks[0], cache_dir=cache_dir), \
                serve_in_thread(socks[1], cache_dir=cache_dir):
            with concurrent.futures.ThreadPoolExecutor(2) as clients:
                done = list(clients.map(
                    lambda sock: ServeClient(sock).run_sweep(job), socks))
        assert [d.executed for d in done] == [1, 1]
        first, second = (json.dumps(d.stats, sort_keys=True) for d in done)
        assert first == second
        cache = ResultCache(cache_dir)
        key = job[0].cache_key(code_version())
        assert [entry.key for entry in cache.entries()] == [key]
        assert [cache.get(key).to_dict()] == done[0].stats
        assert list(Path(cache_dir).rglob("*.claim")) == []


class TestStreamedSweep:
    """A sweep is one request: ``progress`` events, then ``sweep_done``,
    on the connection that sent it."""

    def test_progress_events_precede_the_terminal_reply(self, sock_dir):
        sock = os.path.join(sock_dir, "d.sock")
        jobs = _jobs("BFS", "SSSP", "PR")
        with serve_in_thread(sock, cache_dir=os.path.join(sock_dir, "c")):
            ServeClient(sock).run_sweep(jobs[:1])    # one hit, two misses
            with _send_raw(sock, _sweep_msg(jobs)) as raw, \
                    raw.makefile("rb") as stream:
                replies = [protocol.decode(stream.readline())
                           for _ in range(len(jobs) + 1)]
                # the connection serves its next request
                raw.sendall(protocol.encode(protocol.Ping()))
                pong = protocol.decode(stream.readline())
        assert [type(r).TYPE for r in replies] == ["progress"] * 3 + [
            "sweep_done"]
        assert [(r.done, r.total) for r in replies[:3]] == [
            (1, 3), (2, 3), (3, 3)]
        assert replies[0].job == jobs[0].describe()          # the hit first
        assert sorted(r.job for r in replies[1:3]) == sorted(
            job.describe() for job in jobs[1:])
        assert (replies[3].executed, replies[3].cache_hits) == (2, 1)
        assert isinstance(pong, protocol.Pong)

    def test_a_sweep_longer_than_the_client_timeout_completes(
            self, sock_dir, monkeypatch):
        """No read waits longer than one job: three 0.6 s jobs finish
        under a 1 s socket timeout, with no progress callback."""
        def slow_execute(job, engine):
            time.sleep(0.6)
            return SimStats(algorithm=job.algorithm)

        monkeypatch.setattr(executor, "execute_job", slow_execute)
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock):
            done = ServeClient(sock, timeout=1.0).run_sweep(
                _jobs("BFS", "SSSP", "PR"))
        assert done.executed == 3

    def test_client_gone_mid_sweep_leaves_the_run_to_an_attached_request(
            self, sock_dir, monkeypatch, caplog):
        """The first client hangs up while its job runs; a second request
        attached to that run still gets its stats, the result is
        stored, and the daemon keeps serving."""
        gate = threading.Event()
        real_execute = executor.execute_job

        def gated_execute(job, engine):
            assert gate.wait(timeout=30.0)
            return real_execute(job, engine)

        monkeypatch.setattr(executor, "execute_job", gated_execute)
        submits = _spy_submits(monkeypatch)
        sock = os.path.join(sock_dir, "d.sock")
        job = _jobs("BFS")
        with serve_in_thread(sock, cache_dir=os.path.join(sock_dir, "c")):
            client = ServeClient(sock)
            raw = _send_raw(sock, _sweep_msg(job))
            _wait(lambda: len(submits) == 1, 10)
            with concurrent.futures.ThreadPoolExecutor(1) as clients:
                reply = clients.submit(client.run_sweep, job)
                _wait(lambda: len(submits) == 2, 10)
                raw.close()                      # the owner's client leaves
                gate.set()
                attached = reply.result(timeout=30)
            again = client.run_sweep(job)
            assert client.ping().protocol == protocol.PROTOCOL_VERSION
        assert submits == [True, False]
        assert (attached.executed, attached.deduped) == (0, 1)
        assert (again.executed, again.cache_hits) == (0, 1)
        assert again.stats == attached.stats
        assert _unhandled(caplog) == []


class TestNoRequestState:
    def test_warm_sweeps_leave_the_daemon_no_bigger(self, sock_dir):
        """The daemon keeps nothing per request: 200 warm sweeps of one
        job on an 18 KB inline graph grow the traced heap by < 1 MB."""
        sock = os.path.join(sock_dir, "d.sock")
        job = _inline_job(7, 6.0)
        with serve_in_thread(sock, cache_dir=os.path.join(sock_dir, "c")):
            with RemoteSession(sock) as remote:
                assert remote.sweep([job]).executed == 1
                remote.sweep([job])
                tracemalloc.start()
                try:
                    gc.collect()
                    before = tracemalloc.get_traced_memory()[0]
                    for _ in range(200):
                        assert remote.sweep([job]).cache_hits == 1
                    gc.collect()
                    grown = tracemalloc.get_traced_memory()[0] - before
                finally:
                    tracemalloc.stop()
        assert grown < 1_000_000


class TestFailedRequests:
    """A request that raises anything is answered with an ``error``, and
    the daemon keeps serving."""

    @pytest.fixture
    def failing(self, monkeypatch):
        def fake_execute(job, engine):
            raise ValueError("synthetic")

        monkeypatch.setattr(executor, "execute_job", fake_execute)
        monkeypatch.setenv("REPRO_SCALE", "0.01")

    def test_failed_served_report_is_answered(self, sock_dir, tmp_path,
                                              failing, caplog):
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, cache_dir=os.path.join(sock_dir, "c")):
            with RemoteSession(sock) as remote:
                with pytest.raises(ServeError, match=r"\[failed\] "
                                   r"ValueError: synthetic"):
                    remote.report(tmp_path / "r", sections=["latency"])
                assert remote.ping().protocol == protocol.PROTOCOL_VERSION
        assert _unhandled(caplog) == []

    def test_failed_served_sweep_is_answered(self, sock_dir, failing,
                                             caplog):
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, cache_dir=os.path.join(sock_dir, "c")):
            with RemoteSession(sock) as remote:
                with pytest.raises(ServeError, match=r"\[failed\] "
                                   r"ValueError: synthetic"):
                    remote.sweep(_jobs("BFS"))
                assert remote.ping().protocol == protocol.PROTOCOL_VERSION
        assert _unhandled(caplog) == []

    def test_job_the_kernel_cannot_run_is_answered_failed(
            self, sock_dir, monkeypatch, caplog):
        """A well-formed job that the daemon's ``soa`` kernel cannot
        simulate is answered ``failed`` naming the cause, not
        ``bad-request``, and the daemon serves on."""
        from repro.accel.engine import soakernel
        monkeypatch.setattr(soakernel, "_LIB", None)
        monkeypatch.setenv(soakernel.CACHE_ENV_VAR, os.path.join(sock_dir,
                                                                 "so"))
        monkeypatch.setattr(soakernel, "_find_compiler", lambda: None)
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock):
            with RemoteSession(sock) as remote:
                with pytest.raises(ServeError, match=r"^\[failed\] soa "
                                   r"kernel unavailable: no C compiler"):
                    remote.sweep(_jobs("BFS"))
                assert remote.ping().protocol == protocol.PROTOCOL_VERSION
        assert _unhandled(caplog) == []

    def test_served_sliced_job_from_a_bad_source_is_answered(self,
                                                              sock_dir):
        """A sliced job from source -1 is refused with an ``error`` reply
        naming the range, and the daemon answers the next ``ping``.  The
        daemon runs in a child process: a source that reached the C
        kernel would kill the process, and the test with it."""
        code = (
            "import sys\n"
            "from repro.accel import higraph\n"
            "from repro.api import RemoteSession\n"
            "from repro.errors import ServeError\n"
            "from repro.graph.generators import rmat\n"
            "from repro.serve.daemon import serve_in_thread\n"
            "from repro.sweep.jobs import SweepJob\n"
            "job = SweepJob(rmat(7, 5.0, seed=3), 'BFS', higraph(),\n"
            "               source=-1, num_slices=2)\n"
            "with serve_in_thread(sys.argv[1]):\n"
            "    with RemoteSession(sys.argv[1]) as remote:\n"
            "        try:\n"
            "            remote.sweep([job])\n"
            "        except ServeError as exc:\n"
            "            print(exc)\n"
            "        else:\n"
            "            print('no error reply')\n"
            "        print(remote.ping().protocol)\n")
        sock = os.path.join(sock_dir, "d.sock")
        proc = subprocess.run([sys.executable, "-c", code, sock],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (
            f"the daemon's process exited {proc.returncode}: "
            f"{proc.stderr[-2000:]}")
        error, pong = proc.stdout.splitlines()
        assert error == "[bad-request] source -1 out of range [0, 128)"
        assert pong == str(protocol.PROTOCOL_VERSION)


class TestLongLines:
    def test_inline_graph_over_64_kib_sweeps_like_a_local_run(
            self, sock_dir):
        """8,192 edges travel as a 186 KB line, past asyncio's default
        64 KiB limit."""
        job = _inline_job(10, 8.0)
        assert len(json.dumps(protocol.job_to_wire(job))) > 64 * 1024
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock):
            with RemoteSession(sock) as remote:
                served = remote.sweep([job])
        local = LocalSession().sweep([job])
        assert [s.to_dict() for s in served.stats] == \
            [s.to_dict() for s in local.stats]

    def test_line_over_the_limit_gets_a_protocol_error(
            self, sock_dir, monkeypatch, caplog):
        """A line past the limit is refused, not dropped: the client
        reads a ``protocol`` error even though the daemon hung up before
        the line was sent in full, and the daemon serves on."""
        monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 4096)
        job = _inline_job(12, 8.0)               # a 743 KB line
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock):
            client = ServeClient(sock)
            with pytest.raises(ServeError, match=r"\[protocol\] request "
                               r"line longer than 4096 bytes"):
                client.run_sweep([job])
            assert client.ping().protocol == protocol.PROTOCOL_VERSION
        assert _unhandled(caplog) == []


class TestJobThreads:
    def test_a_sweeps_misses_run_at_once_on_the_job_threads(
            self, sock_dir, monkeypatch):
        """With two job threads, a sweep's two misses simulate at the
        same time, off the event loop's thread."""
        threads = []
        both_running = threading.Barrier(2, timeout=10)

        def fake_execute(job, engine):
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

        def fake_execute(job, engine):
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
    def test_cache_info_and_gc(self, sock_dir, capsys):
        """`repro cache info|gc --cache-dir` count and trim the cache a
        running daemon fills; what gc removed is simulated again."""
        from repro.cli import main
        sock = os.path.join(sock_dir, "d.sock")
        cache_dir = os.path.join(sock_dir, "c")
        with serve_in_thread(sock, cache_dir=cache_dir):
            client = ServeClient(sock)
            cold = client.run_sweep(_jobs())
            assert cold.executed == 2
            capsys.readouterr()
            assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
            assert "entries: 2" in capsys.readouterr().out
            assert main(["cache", "gc", "--cache-dir", cache_dir,
                         "--max-bytes", "0", "--dry-run"]) == 0
            assert "would remove 2" in capsys.readouterr().out
            assert main(["cache", "gc", "--cache-dir", cache_dir,
                         "--max-bytes", "0"]) == 0
            assert "removed 2" in capsys.readouterr().out
            assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
            assert "entries: 0" in capsys.readouterr().out
            again = client.run_sweep(_jobs())
            assert (again.executed, again.cache_hits) == (2, 0)
            assert again.stats == cold.stats

    def test_cacheless_daemon_simulates_every_resubmission(self, sock_dir):
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock):
            client = ServeClient(sock)
            first = client.run_sweep(_jobs("BFS"))
            again = client.run_sweep(_jobs("BFS"))
            assert (first.executed, again.executed) == (1, 1)
            assert again.cache_hits == 0
            assert again.stats == first.stats
            status = client.status()
            assert (status.executed, status.cache_hits) == (2, 0)

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

    def test_session_engine_is_an_argument_of_its_runs(
            self, engines_built):
        """One job list swept by an ``engine="reference"`` session and
        then by an ``engine="soa"`` one runs on each session's engine:
        the engine belongs to the run, not to the jobs."""
        jobs = _jobs("BFS")
        with LocalSession(engine="reference") as first:
            first.sweep(jobs)
        assert engines_built == ["ReferenceEngine"]
        engines_built.clear()
        with LocalSession(engine="soa") as second:
            second.sweep(jobs)
        assert engines_built == ["SoaEngine"]

    def test_session_engine_governs_its_reports(self, tmp_path,
                                                 monkeypatch, engines_built):
        """A report's section jobs go through the session's sweep, so
        they run on the session's engine too."""
        monkeypatch.setenv("REPRO_SCALE", "0.01")
        with LocalSession(engine="reference") as local:
            report = local.report(tmp_path / "r", sections=["latency"])
        assert report.executed == 4
        assert engines_built == ["ReferenceEngine"] * 4

    def test_daemon_engine_stays_in_the_daemon(self, sock_dir,
                                               engines_built):
        """An embedded daemon started with ``engine="reference"`` runs
        its served jobs on reference and leaves the process as it was:
        a later in-process simulation still builds the default soa."""
        from repro.accel.accelerator import AcceleratorSim
        from repro.graph.datasets import load

        environ = dict(os.environ)
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, engine="reference"), \
                RemoteSession(sock) as remote:
            remote.sweep(_jobs("BFS", "SSSP"))
        assert engines_built == ["ReferenceEngine"] * 2
        assert dict(os.environ) == environ
        engines_built.clear()
        graph = load("VT", scale=0.03)
        AcceleratorSim(higraph(), graph, make_algorithm("BFS"))
        assert engines_built == ["SoaEngine"]

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
        first, second = capsys.readouterr().out.splitlines()
        assert first.startswith("workers: 1  uptime: ")
        assert second == "executed: 0  cache hits: 0  deduped: 0"

    def test_status_verb_reports_the_hit_totals(self, sock_dir, capsys):
        from repro.cli import main
        sock = os.path.join(sock_dir, "d.sock")
        with serve_in_thread(sock, cache_dir=os.path.join(sock_dir, "c")):
            client = ServeClient(sock)
            client.run_sweep(_jobs())           # cold: both simulated
            client.run_sweep(_jobs())           # warm: both cache hits
            assert main(["serve", "status", "--connect", sock]) == 0
        out = capsys.readouterr().out
        assert "executed: 2  cache hits: 2  deduped: 0" in out

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
