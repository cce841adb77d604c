"""Tests for the sweep subsystem: planning, caching, parallel execution."""

import dataclasses
import json
import threading
import time
from pathlib import Path

import pytest

from repro.accel import AcceleratorConfig, graphdyns, higraph
from repro.accel.engine import ENGINES
from repro.errors import ConfigError, SweepError
from repro.graph import CSRGraph, rmat
from repro.sweep import (
    GraphSpec,
    ResultCache,
    SweepJob,
    code_version,
    execute_job,
    graph_fingerprint,
    plan_jobs,
    resolve_workers,
    run_sweep,
    scheduled_order,
)
from repro.sweep import executor
from repro.sweep.jobs import parse_axis_value

SMALL = GraphSpec("VT", scale=0.03)


def _stats():
    from repro.accel import SimStats
    return SimStats(config_name="c", algorithm="BFS", graph_name="g")


@pytest.fixture(scope="module")
def tiny_graph():
    return rmat(7, 4.0, seed=5, name="tiny")


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------

class TestPlanning:
    def test_matrix_expansion_and_order(self):
        jobs = plan_jobs(["BFS", "SSSP"], ["VT", "R14"],
                         {"HiGraph": higraph(), "GraphDynS": graphdyns()})
        assert len(jobs) == 8
        # graphs outermost, then algorithms, then configs
        assert [j.describe() for j in jobs[:4]] == [
            "BFS/VT/HiGraph", "BFS/VT/GraphDynS",
            "SSSP/VT/HiGraph", "SSSP/VT/GraphDynS"]
        assert all(j.tags["graph"] == "R14" for j in jobs[4:])

    def test_sweep_axes_multiply_configs(self):
        jobs = plan_jobs(["PR"], ["R14"], {"HiGraph": higraph()},
                         sweep_axes={"fifo_depth": (40, 160),
                                     "vertex_combining": (True, False)})
        assert len(jobs) == 4
        assert {(j.config.fifo_depth, j.config.vertex_combining)
                for j in jobs} == {(40, True), (40, False),
                                   (160, True), (160, False)}
        assert jobs[0].tags["fifo_depth"] == 40

    def test_algorithm_kwargs_pairs(self):
        jobs = plan_jobs([("PR", {"iterations": 3})], ["VT"],
                         {"HiGraph": higraph()})
        assert jobs[0].make_algorithm().default_iterations == 3

    def test_plain_config_iterable_labelled_by_name(self):
        jobs = plan_jobs(["BFS"], ["VT"], [higraph(), graphdyns()])
        assert [j.tags["config"] for j in jobs] == ["HiGraph", "GraphDynS"]

    def test_empty_axes_rejected(self):
        with pytest.raises(SweepError):
            plan_jobs(["BFS"], ["VT"], {"H": higraph()},
                      sweep_axes={"fifo_depth": ()})

    def test_unknown_axis_rejected(self):
        with pytest.raises(SweepError, match=r"field\(s\): \['no_such_field'\]"):
            plan_jobs(["BFS"], ["VT"], {"H": higraph()},
                      sweep_axes={"no_such_field": (1, 2)})

    @pytest.mark.parametrize("axis, value", [
        ("fifo_depth", 160.5), ("fifo_depth", "160"), ("fifo_depth", True),
        ("vertex_combining", 1), ("name", 3)])
    def test_axis_value_of_another_type_rejected(self, axis, value):
        """A bad value for a known field is told apart from an unknown
        field, and never reaches a config (the soa engine binds the
        integer fields to int64 slots)."""
        with pytest.raises(SweepError,
                           match=f"sweep axis {axis}: .* is not "):
            plan_jobs(["BFS"], ["VT"], {"H": higraph()},
                      sweep_axes={axis: (value,)})

    def test_every_config_field_is_an_axis_type(self):
        """``--axis`` parses a value by its field default's type."""
        assert {type(f.default) for f in dataclasses.fields(
            AcceleratorConfig)} == {int, bool, str}

    @pytest.mark.parametrize("axis, text, value", [
        ("fifo_depth", "40", 40), ("vertex_combining", "true", True),
        ("vertex_combining", "FALSE", False), ("vertex_combining", "1", True),
        ("vertex_combining", "0", False), ("offset_site", "crossbar", "crossbar"),
        ("name", "42", "42")])
    def test_axis_text_parsed_as_field_type(self, axis, text, value):
        parsed = parse_axis_value(axis, text)
        assert parsed == value and type(parsed) is type(value)

    @pytest.mark.parametrize("axis, text", [
        ("fifo_depth", "160.5"), ("fifo_depth", "abc"), ("fifo_depth", ""),
        ("vertex_combining", "maybe"), ("vertex_combining", "2")])
    def test_axis_text_of_another_type_rejected(self, axis, text):
        with pytest.raises(SweepError, match=f"sweep axis {axis}: "):
            parse_axis_value(axis, text)

    def test_empty_dimension_rejected(self):
        with pytest.raises(SweepError):
            plan_jobs([], ["VT"], {"H": higraph()})
        with pytest.raises(SweepError):
            plan_jobs(["BFS"], [], {"H": higraph()})
        with pytest.raises(SweepError):
            plan_jobs(["BFS"], ["VT"], {})

    def test_bad_graph_entry_rejected(self):
        with pytest.raises(SweepError):
            plan_jobs(["BFS"], [42], {"H": higraph()})


class TestFingerprints:
    def test_spec_fingerprint_is_symbolic(self):
        assert graph_fingerprint(GraphSpec("VT", 0.5)) == "spec:VT:0.5:None"

    def test_csr_fingerprint_tracks_content(self, tiny_graph):
        fp = graph_fingerprint(tiny_graph)
        assert fp == graph_fingerprint(tiny_graph)
        other = CSRGraph(tiny_graph.offsets, tiny_graph.dst,
                         tiny_graph.weights + 1, name=tiny_graph.name)
        assert graph_fingerprint(other) != fp

    def test_tags_do_not_affect_cache_key(self):
        version = code_version()
        a = SweepJob(graph=SMALL, algorithm="BFS", config=higraph(),
                     tags={"graph": "VT"})
        b = SweepJob(graph=SMALL, algorithm="BFS", config=higraph(),
                     tags={"anything": "else"})
        assert a.cache_key(version) == b.cache_key(version)


# ----------------------------------------------------------------------
# Cache-key coverage
# ----------------------------------------------------------------------

def _perturbed(value):
    """A same-JSON-type value guaranteed to differ from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.5
    if isinstance(value, str):
        return value + "·perturbed"
    if isinstance(value, dict):
        return {**value, "·perturbed": 1}
    if isinstance(value, (list, tuple)):
        return type(value)([*value, 1])
    if value is None:
        return 1
    return str(value) + "·perturbed"


def _clone_with(base, name):
    """``base`` with field ``name`` perturbed, ``__post_init__`` bypassed.

    Bypassing validation is the point: it lets structurally-entangled
    fields (e.g. channel counts constrained to powers of the radix)
    vary one at a time, which is exactly the aliasing question the
    cache key must answer.
    """
    clone = object.__new__(AcceleratorConfig)
    for f in dataclasses.fields(AcceleratorConfig):
        value = getattr(base, f.name)
        object.__setattr__(clone, f.name,
                           _perturbed(value) if f.name == name else value)
    return clone


#: SweepJob field -> (overrides shared by both jobs, the field's new
#: value).  Every field but ``tags`` (caller-owned display labels) is
#: listed, so a new field fails here until it is given a perturbation.
JOB_PERTURBATIONS = {
    "graph": ({}, GraphSpec("VT", scale=0.06)),
    "algorithm": ({}, "BFS"),
    "config": ({}, graphdyns()),
    "algorithm_kwargs": ({}, {"iterations": 3}),
    "source": ({}, 1),
    "max_iterations": ({}, 2),
    "num_slices": ({}, 2),
    # the off-chip bandwidth is key material only once slicing is on
    "offchip_bytes_per_cycle": ({"num_slices": 2}, 128.0),
}


class TestCacheKeyCoverage:
    """Two jobs share a cache entry exactly when their keys match, so a
    field missing from the key hands one job another job's stats."""

    def test_to_dict_covers_every_config_field(self):
        field_names = {f.name for f in dataclasses.fields(AcceleratorConfig)}
        assert set(AcceleratorConfig().to_dict()) == field_names

    @pytest.mark.parametrize("name", [
        f.name for f in dataclasses.fields(AcceleratorConfig)])
    def test_config_field_reaches_config_hash(self, name):
        base = AcceleratorConfig()
        assert _clone_with(base, name).config_hash() != base.config_hash()

    def test_perturbed_always_differs(self):
        for value in (True, 0, 1.5, "s", {"k": 1}, [1], (1,), None):
            assert _perturbed(value) != value

    def test_every_job_field_but_tags_is_perturbed(self):
        field_names = {f.name for f in dataclasses.fields(SweepJob)}
        assert set(JOB_PERTURBATIONS) == field_names - {"tags"}

    @pytest.mark.parametrize("name", sorted(JOB_PERTURBATIONS))
    def test_job_field_reaches_cache_key(self, name):
        shared, value = JOB_PERTURBATIONS[name]
        base = SweepJob(graph=SMALL, algorithm="PR", config=higraph(),
                        algorithm_kwargs={"iterations": 2}, **shared)
        changed = dataclasses.replace(base, **{name: value})
        assert changed.cache_key("v") != base.cache_key("v")

    def test_code_version_reaches_cache_key(self):
        job = SweepJob(graph=SMALL, algorithm="BFS", config=higraph())
        key = job.cache_key(code_version())
        assert key == SweepJob(graph=SMALL, algorithm="BFS",
                               config=higraph()).cache_key(code_version())
        assert job.cache_key("other-code-version") != key


class TestFrozenJobs:
    """A job keeps its cache key on the instance; the key must follow
    the one input that is not a field, the code version."""

    @pytest.fixture
    def derivations(self, monkeypatch):
        """Graph fingerprints taken by ``repro.sweep.jobs``: one per key
        payload built."""
        from repro.sweep import jobs as jobs_mod
        calls = []
        real = jobs_mod.graph_fingerprint

        def counting(graph):
            calls.append(graph)
            return real(graph)

        monkeypatch.setattr(jobs_mod, "graph_fingerprint", counting)
        return calls

    @staticmethod
    def _job(**overrides):
        return SweepJob(graph=SMALL, algorithm="BFS", config=higraph(),
                        **overrides)

    def test_assigning_a_field_raises(self):
        job = self._job()
        for name, value in (("algorithm", "PR"), ("source", 1),
                            ("tags", {})):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(job, name, value)
        assert job.algorithm == "BFS" and job.source == 0

    def test_key_is_derived_once_per_instance(self, derivations):
        job = self._job()
        assert job.cache_key("v") == job.cache_key("v")
        assert len(derivations) == 1

    def test_replace_rekeys(self, derivations):
        base = self._job()
        key = base.cache_key("v")
        moved = dataclasses.replace(base, source=1)
        assert moved.cache_key("v") != key
        assert moved.cache_key("v") == self._job(source=1).cache_key("v")
        same = dataclasses.replace(base)
        assert same.cache_key("v") == key
        # base, moved, the fresh source=1 job and same: one payload each
        assert len(derivations) == 4

    def test_one_instance_rekeys_under_another_code_version(
            self, derivations):
        job = self._job()
        first = job.cache_key("v1")
        assert job.cache_key("v1") == first and len(derivations) == 1
        second = job.cache_key("v2")
        assert second != first and len(derivations) == 2
        assert second == self._job().cache_key("v2")

    def test_unknown_engine_fails_before_the_cache_is_read(self, tmp_path):
        """The sweep resolves its engine first, so no cache entry is
        looked up, not even for a job whose key is already kept."""
        cache = ResultCache(tmp_path)
        job = self._job()
        job.cache_key(code_version())
        with pytest.raises(ConfigError, match="warp-10"):
            run_sweep([job], cache=cache, engine="warp-10")
        assert (cache.hits, cache.misses) == (0, 0)

    def test_either_engine_warms_the_cache_for_both(self, tmp_path):
        """The engine that ran a job is no part of its key."""
        cache = ResultCache(tmp_path)
        cold = run_sweep([self._job()], cache=cache, engine="reference")
        warm = run_sweep([self._job()], cache=cache, engine="soa")
        assert (cold.executed, warm.executed, warm.cache_hits) == (1, 0, 1)
        assert warm.stats[0].to_dict() == cold.stats[0].to_dict()


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------

class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        job = SweepJob(graph=SMALL, algorithm="BFS", config=higraph())
        stats = execute_job(job)
        key = job.cache_key(code_version())
        assert cache.get(key) is None
        cache.put(key, stats)
        restored = cache.get(key)
        assert restored is not None
        assert restored.to_dict() == stats.to_dict()
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        assert cache.get(key) is None
        assert not path.exists()

    def test_stale_schema_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"stats": {"no_such_field": 1}}))
        assert cache.get(key) is None

    def test_entries_are_auditable_json(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = SweepJob(graph=SMALL, algorithm="BFS", config=higraph())
        key = job.cache_key(code_version())
        cache.put(key, execute_job(job), provenance={"job": job.describe()})
        payload = json.loads(cache._path(key).read_text())
        assert payload["key"] == key
        assert payload["provenance"]["job"] == "BFS/VT/HiGraph"
        assert payload["stats"]["algorithm"] == "BFS"

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = SweepJob(graph=SMALL, algorithm="BFS", config=higraph())
        cache.put(job.cache_key(code_version()), execute_job(job))
        assert cache.clear() == 1
        assert len(cache) == 0

    # -- resident entries ------------------------------------------------
    @staticmethod
    def _versioned(i):
        stats = _stats()
        stats.iterations = i
        return stats

    def test_warm_get_opens_no_file(self, tmp_path, monkeypatch):
        import builtins
        import io
        cache = ResultCache(tmp_path)
        key = "ef" + "0" * 62
        stats = self._versioned(3)
        cache.put(key, stats)
        assert cache.get(key).to_dict() == stats.to_dict()   # reads the file
        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for owner, name in ((builtins, "open"), (io, "open"),
                            (json, "load"), (json, "loads")):
            monkeypatch.setattr(owner, name,
                                counting(name, getattr(owner, name)))
        warm = cache.get(key)
        monkeypatch.undo()
        assert calls == []
        assert warm.to_dict() == stats.to_dict()
        assert (cache.hits, cache.misses) == (2, 0)

    def test_entry_replaced_behind_the_cache_is_read_again(self, tmp_path):
        from repro.sweep.atomic import atomic_write_json
        cache = ResultCache(tmp_path)
        key = "ef" + "1" * 62
        cache.put(key, self._versioned(1))
        assert cache.get(key).iterations == 1
        # same size on disk: only the stat signature tells them apart
        second = self._versioned(2)
        atomic_write_json(cache._path(key), {"key": key, "provenance": {},
                                             "stats": second.to_dict()},
                          indent=1, trailing_newline=False)
        assert cache.get(key).to_dict() == second.to_dict()

    def test_entry_unlinked_behind_the_cache_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" + "2" * 62
        cache.put(key, self._versioned(1))
        assert cache.get(key) is not None
        cache._path(key).unlink()
        assert cache.get(key) is None
        assert key not in cache._resident
        assert (cache.hits, cache.misses) == (1, 1)

    def test_returned_stats_are_the_callers_own(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" + "3" * 62
        stats = self._versioned(4)
        cache.put(key, stats)
        for _ in range(2):               # a cold read, then a warm one
            got = cache.get(key)
            got.iterations += 99
            got.config_name = "changed"
        assert cache.get(key).to_dict() == stats.to_dict()

    def test_gc_and_clear_forget_what_they_remove(self, tmp_path):
        import os
        cache = ResultCache(tmp_path)
        keys = [f"{i:02x}" + "0" * 62 for i in range(3)]
        for key in keys:
            cache.put(key, self._versioned(1))
            cache.get(key)
        assert sorted(cache._resident) == keys
        cache.gc(max_bytes=0, dry_run=True)
        assert sorted(cache._resident) == keys
        os.utime(cache._path(keys[0]), (1.0, 1.0))
        assert cache.gc(max_age_seconds=3600).removed == 1
        assert sorted(cache._resident) == keys[1:]
        assert cache.clear() == 2
        assert cache._resident == {}

    def test_two_caches_racing_one_put_leave_one_entry(self, tmp_path):
        """Two caches on one directory, as two processes hold them,
        putting one key at once leave one whole, readable entry and no
        temp file: nothing coordinates them but the atomic write."""
        caches = [ResultCache(tmp_path), ResultCache(tmp_path)]
        key = "ab" + "7" * 62
        stats = self._versioned(5)
        start = threading.Barrier(4, timeout=10)

        def put(writer):
            start.wait()
            caches[writer % 2].put(key, stats, provenance={"writer": writer})

        threads = [threading.Thread(target=put, args=(writer,))
                   for writer in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        reader = ResultCache(tmp_path)
        assert [entry.key for entry in reader.entries()] == [key]
        assert reader.get(key).to_dict() == stats.to_dict()
        entry = tmp_path / key[:2] / f"{key}.json"
        assert json.loads(entry.read_text())["provenance"]["writer"] \
            in range(4)
        assert [path.name for path in entry.parent.iterdir()] \
            == [entry.name]

    def test_concurrent_get_put_gc_unlink(self, tmp_path):
        """Every get under a put/gc/unlink race returns None or exactly
        one of the versions written, and never one another getter
        mutated."""
        import sys
        import threading
        import time
        cache = ResultCache(tmp_path)
        key = "ef" + "4" * 62
        versions = [self._versioned(i) for i in (1, 22, 333)]
        written = [v.to_dict() for v in versions]
        wrong, failures, seen = [], [], {"hit": 0, "miss": 0}
        stop = threading.Event()

        def loop(body):
            def run():
                try:
                    while not stop.is_set():
                        body()
                except Exception as exc:     # reported by the assert below
                    failures.append(repr(exc))
            return run

        def get():
            got = cache.get(key)
            if got is None:
                seen["miss"] += 1
                return
            seen["hit"] += 1
            if got.to_dict() not in written:
                wrong.append(got.to_dict())
            got.iterations = -1

        turn = iter(range(1 << 30))

        def put():
            cache.put(key, versions[next(turn) % len(versions)])

        def remove():
            time.sleep(0.002)
            if next(turn) % 2:
                cache.gc(max_bytes=0)
            else:
                try:
                    cache._path(key).unlink()
                except OSError:
                    pass

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=loop(body))
                       for body in (get, get, put, remove)]
            for thread in threads:
                thread.start()
            # race for 0.5 s, then on until both a hit and a miss were
            # seen: a loaded host gets 10 s before the assert below fails
            deadline = time.monotonic() + 10
            time.sleep(0.5)
            while not (seen["hit"] and seen["miss"]) \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(previous)
        alive = [thread.name for thread in threads if thread.is_alive()]
        assert not alive, (alive, seen)
        assert not failures, (failures, seen)
        assert not wrong, (len(wrong), wrong[:3], seen)
        assert seen["hit"] and seen["miss"], seen

    def test_code_version_is_stable_and_hex(self):
        assert code_version() == code_version()
        assert len(code_version()) == 64
        int(code_version(), 16)

    def test_code_version_digests_the_c_kernel(self, tmp_path):
        """An edit to the soa kernel alone must re-key the cache: a warm
        cache would otherwise keep serving the old kernel's results."""
        import shutil

        import repro
        from repro.sweep.cache import _digest_source_tree
        root = tmp_path / "repro"
        shutil.copytree(Path(repro.__file__).parent, root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        before = _digest_source_tree(root)
        kernel = root / "accel" / "engine" / "_soa_march.c"
        kernel.write_text(kernel.read_text() + "\n/* edited */\n")
        assert _digest_source_tree(root) != before


class TestCodeVersion:
    def test_code_version_memoized_per_process(self):
        assert code_version() is code_version()

    def test_sweepjob_cache_key_takes_precomputed_version(self):
        # the daemon computes the digest once and threads it through
        # every cache_key call; keys must match the ambient digest path
        job = SweepJob(graph=GraphSpec("VT", scale=0.03), algorithm="BFS",
                       config=higraph())
        assert job.cache_key(code_version()) == job.cache_key(code_version())
        assert job.cache_key("other") != job.cache_key(code_version())


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------

def _jobs():
    return plan_jobs(["BFS", ("PR", {"iterations": 2})], [SMALL],
                     {"HiGraph": higraph(), "GraphDynS": graphdyns()})


class TestExecutor:
    def test_resolve_workers(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7
        assert resolve_workers(None) >= 1
        assert resolve_workers(0) >= 1
        with pytest.raises(SweepError):
            resolve_workers(-2)

    def test_serial_results_in_job_order(self):
        outcome = run_sweep(_jobs(), num_workers=1)
        assert [s.algorithm for s in outcome.stats] == ["BFS", "BFS", "PR", "PR"]
        assert [s.config_name for s in outcome.stats] == [
            "HiGraph", "GraphDynS", "HiGraph", "GraphDynS"]
        assert outcome.executed == 4
        assert outcome.wall_seconds > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_parallel_identical_to_serial(self, engine):
        """Concurrent threads build and march their own engines: the
        stats equal a serial run's on every engine."""
        jobs = _jobs()
        serial = run_sweep(jobs, num_workers=1, engine=engine)
        parallel = run_sweep(jobs, num_workers=3, engine=engine)
        assert [s.to_dict() for s in serial.stats] == \
               [s.to_dict() for s in parallel.stats]
        assert parallel.workers_used == 3

    def test_threads_resolve_a_shared_graph_once(self, monkeypatch):
        """Threads that miss the graph memo for one GraphSpec at the
        same moment still generate the graph once."""
        import sys
        from repro.graph import datasets
        loads = []
        real = datasets.load

        def slow_load(*args, **kwargs):
            loads.append(args)
            time.sleep(0.2)              # the other threads arrive meanwhile
            return real(*args, **kwargs)

        monkeypatch.setattr(datasets, "load", slow_load)
        monkeypatch.setattr(executor, "_GRAPH_MEMO", {})
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            outcome = run_sweep(_jobs() * 2, num_workers=4)
        finally:
            sys.setswitchinterval(previous)
        # each distinct job runs once, so four threads race the memo
        assert (outcome.executed, outcome.cache_hits,
                outcome.workers_used) == (4, 4, 4)
        assert loads == [("VT",)]

    def test_graph_memo_serves_later_sweeps(self, monkeypatch):
        """The memo is process-wide: a threaded sweep after a serial one
        reuses the graph the serial one generated."""
        from repro.graph import datasets
        loads = []
        real = datasets.load

        def counted_load(*args, **kwargs):
            loads.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(datasets, "load", counted_load)
        monkeypatch.setattr(executor, "_GRAPH_MEMO", {})
        run_sweep(_jobs()[:1], num_workers=1)
        assert run_sweep(_jobs(), num_workers=2).executed == 4
        assert loads == [("VT",)]

    def test_failed_job_stops_the_sweep(self, monkeypatch):
        """The first job's exception propagates, and no job starts after
        it: only the two the threads took at once ever ran."""
        jobs = _jobs() * 3
        started, lock = [], threading.Lock()

        def fake_execute(job, engine):
            with lock:
                started.append(job)
                first = len(started) == 1
            if first:
                raise ValueError("synthetic simulation failure")
            time.sleep(0.2)
            return _stats()

        monkeypatch.setattr(executor, "execute_job", fake_execute)
        with pytest.raises(ValueError, match="synthetic"):
            run_sweep(jobs, num_workers=2)
        assert 1 <= len(started) <= 2

    def test_failed_progress_callback_stops_the_sweep(self, monkeypatch):
        """Progress runs on the caller's thread; when it raises, no job
        starts after it."""
        events, callers = [], []

        def fake_execute(job, engine):
            events.append("start")
            time.sleep(0.2)
            return _stats()

        def progress(done, total, job):
            callers.append(threading.current_thread())
            events.append("raise")
            raise KeyError("synthetic callback failure")

        monkeypatch.setattr(executor, "execute_job", fake_execute)
        with pytest.raises(KeyError, match="synthetic"):
            run_sweep(_jobs() * 3, num_workers=2, progress=progress)
        assert callers == [threading.current_thread()]
        assert events[events.index("raise") + 1:] == []

    def test_invalid_job_fails_a_threaded_sweep(self, tiny_graph):
        """A job's own error crosses from its pool thread to the caller."""
        bad = SweepJob(graph=tiny_graph, algorithm="BFS", config=higraph(),
                       num_slices=0)
        with pytest.raises(SweepError, match="num_slices"):
            run_sweep(_jobs() + [bad], num_workers=2)

    def test_pool_starts_the_largest_jobs_first(self, monkeypatch):
        """Two threads take the two largest jobs first, wherever the
        matrix lists them."""
        jobs = plan_jobs(["BFS"],
                         [GraphSpec("VT", 0.03), GraphSpec("R14", 0.03),
                          GraphSpec("R16", 0.03)],
                         {"HiGraph": higraph()})
        started, lock = [], threading.Lock()
        both_running = threading.Barrier(2, timeout=10)

        def fake_execute(job, engine):
            with lock:
                started.append(job.tags["graph"])
                first_two = len(started) <= 2
            if first_two:
                both_running.wait()      # each holds a thread until both do
            return _stats()

        monkeypatch.setattr(executor, "execute_job", fake_execute)
        assert run_sweep(jobs, num_workers=2).executed == 3
        assert sorted(started[:2]) == ["R14", "R16"]

    def test_cache_puts_and_progress_run_on_the_callers_thread(
            self, tmp_path, monkeypatch):
        """Pool threads only simulate: every cache write and progress
        call happens on the thread that called run_sweep."""
        job_threads, put_threads, progress_threads = set(), [], []
        real_put = ResultCache.put

        def fake_execute(job, engine):
            job_threads.add(threading.current_thread().name)
            time.sleep(0.02)
            return _stats()

        def spy_put(self, *args, **kwargs):
            put_threads.append(threading.current_thread())
            return real_put(self, *args, **kwargs)

        monkeypatch.setattr(executor, "execute_job", fake_execute)
        monkeypatch.setattr(ResultCache, "put", spy_put)
        outcome = run_sweep(
            _jobs(), num_workers=2, cache=tmp_path / "cache",
            progress=lambda done, total, job:
                progress_threads.append(threading.current_thread()))
        caller = threading.current_thread()
        assert (outcome.executed, outcome.workers_used) == (4, 2)
        assert put_threads == [caller] * 4
        assert progress_threads == [caller] * 4
        assert job_threads and all(name.startswith("repro-sweep_")
                                   for name in job_threads)

    def test_one_worker_runs_in_the_callers_thread(self, monkeypatch):
        threads = []

        def fake_execute(job, engine):
            threads.append(threading.current_thread())
            return _stats()

        monkeypatch.setattr(executor, "execute_job", fake_execute)
        assert run_sweep(_jobs(), num_workers=1).workers_used == 1
        assert threads == [threading.current_thread()] * 4

    def test_a_single_miss_runs_in_the_callers_thread(self, tmp_path,
                                                      monkeypatch):
        """With one job left to simulate, no pool is started however
        many workers were asked for."""
        threads = []

        def fake_execute(job, engine):
            threads.append(threading.current_thread())
            return _stats()

        monkeypatch.setattr(executor, "execute_job", fake_execute)
        jobs = _jobs()
        run_sweep(jobs[:3], num_workers=1, cache=tmp_path / "cache")
        outcome = run_sweep(jobs, num_workers=4, cache=tmp_path / "cache")
        assert (outcome.cache_hits, outcome.executed) == (3, 1)
        assert outcome.workers_used == 1
        assert threads == [threading.current_thread()] * 4

    def test_pool_is_no_wider_than_the_pending_jobs(self, monkeypatch):
        threads = set()

        def fake_execute(job, engine):
            threads.add(threading.current_thread().name)
            time.sleep(0.02)
            return _stats()

        monkeypatch.setattr(executor, "execute_job", fake_execute)
        outcome = run_sweep(_jobs()[:3], num_workers=8)
        assert (outcome.executed, outcome.workers_used) == (3, 3)
        assert 1 <= len(threads) <= 3

    def test_parallel_progress_counts_every_job(self, monkeypatch):
        """Jobs finish in any order on threads, yet ``done`` counts up
        by one per job and every job is reported once."""
        seen = []
        monkeypatch.setattr(executor, "execute_job",
                            lambda job, engine: _stats())
        jobs = _jobs()
        run_sweep(jobs, num_workers=2,
                  progress=lambda done, total, job:
                      seen.append((done, total, job.describe())))
        assert [(done, total) for done, total, _ in seen] == [
            (1, 4), (2, 4), (3, 4), (4, 4)]
        assert sorted(name for _, _, name in seen) == sorted(
            job.describe() for job in jobs)

    def test_duplicate_jobs_simulated_once_on_threads(self, tmp_path,
                                                      monkeypatch):
        from repro.accel import SimStats
        runs, lock = [], threading.Lock()

        def fake_execute(job, engine):
            with lock:
                runs.append(job.describe())
            return SimStats(config_name=job.config.name,
                            algorithm=job.algorithm, graph_name="VT")

        monkeypatch.setattr(executor, "execute_job", fake_execute)
        jobs = _jobs()
        outcome = run_sweep(jobs + jobs, num_workers=2,
                            cache=tmp_path / "cache")
        assert sorted(runs) == sorted(job.describe() for job in jobs)
        assert (outcome.executed, outcome.cache_hits) == (4, 4)
        assert [s.to_dict() for s in outcome.stats[:4]] == \
               [s.to_dict() for s in outcome.stats[4:]]

    def test_timed_execute_runs_the_current_execute_job(self, monkeypatch):
        """``execute_job`` is looked up per call, so a replacement made
        after import still runs (and is timed) on every path."""
        marker = _stats()

        def fake_execute(job, engine):
            time.sleep(0.01)
            return marker

        monkeypatch.setattr(executor, "execute_job", fake_execute)
        stats, seconds = executor.timed_execute(_jobs()[0])
        assert stats is marker and seconds >= 0.01

    def test_inline_graph_jobs_run_in_workers(self, tiny_graph):
        jobs = plan_jobs(["BFS"], [tiny_graph],
                         {"HiGraph": higraph(), "GraphDynS": graphdyns()})
        serial = run_sweep(jobs, num_workers=1)
        parallel = run_sweep(jobs, num_workers=2)
        assert [s.to_dict() for s in serial.stats] == \
               [s.to_dict() for s in parallel.stats]

    def test_cold_then_warm_cache(self, tmp_path):
        jobs = _jobs()
        cold = run_sweep(jobs, num_workers=1, cache=tmp_path / "cache")
        assert (cold.cache_hits, cold.executed) == (0, 4)
        warm = run_sweep(jobs, num_workers=1, cache=tmp_path / "cache")
        assert (warm.cache_hits, warm.executed) == (4, 0)
        assert warm.hit_rate == 1.0
        assert [s.to_dict() for s in warm.stats] == \
               [s.to_dict() for s in cold.stats]

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        jobs = _jobs()
        run_sweep(jobs, num_workers=2, cache=tmp_path / "cache")
        warm = run_sweep(jobs, num_workers=1, cache=tmp_path / "cache")
        assert warm.executed == 0

    def test_duplicate_jobs_simulated_once(self, tmp_path):
        jobs = _jobs() + _jobs()
        outcome = run_sweep(jobs, num_workers=1, cache=tmp_path / "cache")
        assert outcome.executed == 4
        assert outcome.cache_hits == 4       # the duplicate half
        assert [s.to_dict() for s in outcome.stats[:4]] == \
               [s.to_dict() for s in outcome.stats[4:]]

    def test_progress_callback_sees_every_job(self):
        seen = []
        run_sweep(_jobs(), num_workers=1,
                  progress=lambda done, total, job: seen.append((done, total)))
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_rows_merge_tags_and_metrics(self):
        outcome = run_sweep(_jobs()[:2], num_workers=1)
        rows = outcome.rows(metrics=("gteps",))
        assert rows[0]["algorithm"] == "BFS"
        assert rows[0]["config"] == "HiGraph"
        assert rows[0]["gteps"] == outcome.stats[0].gteps

    def test_cacheless_sweep_simulates_each_key_once(self, monkeypatch):
        """Without a cache, a repeated job still runs once: it is filled
        from the first one's result and counts as a hit."""
        runs = []

        def fake_execute(job, engine):
            runs.append(job.describe())
            return _stats()

        monkeypatch.setattr(executor, "execute_job", fake_execute)
        jobs = _jobs()
        outcome = run_sweep(jobs + jobs, num_workers=2)
        assert sorted(runs) == sorted(job.describe() for job in jobs)
        assert (outcome.executed, outcome.cache_hits,
                outcome.cache_misses) == (4, 4, 4)
        assert outcome.stats[4:] == outcome.stats[:4]

    def test_progress_reports_the_hits_first_and_every_job_once(
            self, tmp_path):
        jobs = _jobs()
        run_sweep(jobs[:2], cache=tmp_path / "cache")
        seen = []
        run_sweep(jobs + jobs[:1], cache=tmp_path / "cache",
                  progress=lambda done, total, job:
                      seen.append((done, total, job.describe())))
        assert [(done, total) for done, total, _ in seen] == [
            (1, 5), (2, 5), (3, 5), (4, 5), (5, 5)]
        assert [name for _, _, name in seen] == [
            job.describe() for job in (jobs[0], jobs[1], jobs[0],
                                       jobs[2], jobs[3])]

    def test_ledger_refuses_an_outcome_with_a_job_unfinished(self):
        ledger = executor.SweepLedger(_jobs(), None, "v")
        assert [index for index, _ in ledger.pending] == [0, 1, 2, 3]
        with pytest.raises(SweepError, match=r"jobs \[0, 1, 2, 3\] "
                           "produced no result"):
            ledger.outcome(1)

    def test_no_cache_means_every_job_executes(self):
        outcome = run_sweep(_jobs(), num_workers=1, cache=None)
        assert outcome.executed == 4
        assert outcome.cache_hits == 0

    def test_job_seconds_recorded_for_executed_only(self, tmp_path):
        jobs = _jobs()
        cold = run_sweep(jobs, num_workers=1, cache=tmp_path / "cache")
        assert len(cold.job_seconds) == 4
        assert all(s > 0 for s in cold.job_seconds)
        warm = run_sweep(jobs, num_workers=1, cache=tmp_path / "cache")
        assert warm.job_seconds == [0.0] * 4

    def test_wall_seconds_in_cache_provenance(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        jobs = _jobs()[:1]
        run_sweep(jobs, num_workers=1, cache=cache)
        key = jobs[0].cache_key(code_version())
        payload = json.loads(cache._path(key).read_text())
        assert payload["provenance"]["wall_seconds"] > 0

    def test_scheduled_order_is_largest_first_and_deterministic(self):
        jobs = plan_jobs(["BFS"],
                         [GraphSpec("VT", 0.03), GraphSpec("R16", 0.03),
                          GraphSpec("R14", 0.03)],
                         {"HiGraph": higraph()})
        pending = list(enumerate(jobs))
        order = [job.tags["graph"] for _i, job in scheduled_order(pending)]
        assert order == ["R16", "R14", "VT"]   # by registry edge count
        assert scheduled_order(pending) == scheduled_order(pending)

    def test_pr_jobs_cost_more_than_bfs_on_same_graph(self):
        bfs, pr = plan_jobs(["BFS", ("PR", {"iterations": 2})], [SMALL],
                            {"HiGraph": higraph()})
        assert pr.cost_hint() > bfs.cost_hint()


# ----------------------------------------------------------------------
# Sliced jobs (§5.3 on the sweep engine)
# ----------------------------------------------------------------------

class TestSlicedJobs:
    def test_sliced_job_matches_direct_sliced_simulation(self, tiny_graph):
        from repro.accel import SlicedAcceleratorSim
        from repro.algorithms import make_algorithm
        from repro.graph import partition_by_destination

        job = SweepJob(graph=tiny_graph, algorithm="PR",
                       algorithm_kwargs={"iterations": 2}, config=higraph(),
                       num_slices=2, offchip_bytes_per_cycle=64.0)
        got = execute_job(job)
        sim = SlicedAcceleratorSim(
            higraph(), tiny_graph, make_algorithm("PR", iterations=2),
            slices=partition_by_destination(tiny_graph, 2),
            offchip_bytes_per_cycle=64.0)
        assert got.to_dict() == sim.run().stats.to_dict()
        assert got.slices == 2

    def test_slicing_changes_cache_key(self):
        version = code_version()
        plain = SweepJob(graph=SMALL, algorithm="PR", config=higraph())
        sliced = SweepJob(graph=SMALL, algorithm="PR", config=higraph(),
                          num_slices=4)
        assert plain.cache_key(version) != sliced.cache_key(version)
        # bandwidth only matters once slicing is on
        other_bw = SweepJob(graph=SMALL, algorithm="PR", config=higraph(),
                            offchip_bytes_per_cycle=128.0)
        assert plain.cache_key(version) == other_bw.cache_key(version)
        sliced_bw = SweepJob(graph=SMALL, algorithm="PR", config=higraph(),
                             num_slices=4, offchip_bytes_per_cycle=128.0)
        assert sliced.cache_key(version) != sliced_bw.cache_key(version)

    def test_invalid_slice_count_rejected(self, tiny_graph):
        job = SweepJob(graph=tiny_graph, algorithm="PR", config=higraph(),
                       num_slices=0)
        with pytest.raises(SweepError):
            execute_job(job)

    def test_sliced_job_round_trips_through_cache(self, tmp_path, tiny_graph):
        job = SweepJob(graph=tiny_graph, algorithm="PR",
                       algorithm_kwargs={"iterations": 2}, config=higraph(),
                       num_slices=2)
        cold = run_sweep([job], num_workers=1, cache=tmp_path / "c")
        warm = run_sweep([job], num_workers=1, cache=tmp_path / "c")
        assert warm.executed == 0
        assert warm.stats[0].to_dict() == cold.stats[0].to_dict()


# ----------------------------------------------------------------------
# Cache GC
# ----------------------------------------------------------------------

class TestCacheGc:
    def _fill(self, tmp_path, count=3):
        cache = ResultCache(tmp_path / "cache")
        jobs = _jobs()[:count]
        run_sweep(jobs, num_workers=1, cache=cache)
        return cache

    def test_entries_oldest_first(self, tmp_path):
        cache = self._fill(tmp_path, 3)
        entries = cache.entries()
        assert len(entries) == 3
        assert [e.mtime for e in entries] == sorted(e.mtime for e in entries)
        assert cache.total_bytes() == sum(e.size_bytes for e in entries)

    def test_gc_without_budgets_is_a_noop(self, tmp_path):
        cache = self._fill(tmp_path, 2)
        stats = cache.gc()
        assert (stats.scanned, stats.removed) == (2, 0)
        assert len(cache) == 2

    def test_gc_by_age_removes_only_old_entries(self, tmp_path):
        import os as _os
        cache = self._fill(tmp_path, 3)
        old = cache.entries()[0]
        _os.utime(old.path, (1.0, 1.0))
        stats = cache.gc(max_age_seconds=3600)
        assert stats.removed == 1
        assert stats.bytes_freed == old.size_bytes
        assert len(cache) == 2
        assert not old.path.exists()

    def test_gc_by_bytes_evicts_oldest_first(self, tmp_path):
        import os as _os
        cache = self._fill(tmp_path, 3)
        entries = cache.entries()
        # force a deterministic age order
        for rank, entry in enumerate(entries):
            _os.utime(entry.path, (100.0 + rank, 100.0 + rank))
        entries = cache.entries()
        keep_budget = entries[-1].size_bytes + entries[-2].size_bytes
        stats = cache.gc(max_bytes=keep_budget)
        assert stats.removed == 1
        survivors = {e.key for e in cache.entries()}
        assert survivors == {entries[-1].key, entries[-2].key}

    def test_gc_dry_run_touches_nothing(self, tmp_path):
        cache = self._fill(tmp_path, 2)
        stats = cache.gc(max_bytes=0, dry_run=True)
        assert stats.removed == 2
        assert len(cache) == 2

    def test_gc_prunes_empty_shard_dirs(self, tmp_path):
        cache = self._fill(tmp_path, 2)
        cache.gc(max_bytes=0)
        assert len(cache) == 0
        assert not any(p.is_dir() for p in cache.root.glob("*"))

    def test_gc_result_reusable_after_eviction(self, tmp_path):
        cache = self._fill(tmp_path, 2)
        cache.gc(max_bytes=0)
        outcome = run_sweep(_jobs()[:2], num_workers=1, cache=cache)
        assert outcome.executed == 2     # re-simulated after eviction
