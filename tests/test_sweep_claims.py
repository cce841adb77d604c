"""Cache ownership: claim files, stale takeover, the code version."""

import os
import threading
import time

from repro.sweep.atomic import exclusive_create
from repro.sweep.cache import ResultCache, code_version


class TestExclusiveCreate:
    def test_first_writer_wins(self, tmp_path):
        target = tmp_path / "x" / "claim"
        assert exclusive_create(target, "one") is True
        assert exclusive_create(target, "two") is False
        assert target.read_text() == "one"

    def test_concurrent_creators_yield_one_winner(self, tmp_path):
        target = tmp_path / "claim"
        wins = []
        barrier = threading.Barrier(8)

        def attempt(i):
            barrier.wait()
            if exclusive_create(target, f"t{i}"):
                wins.append(i)

        threads = [threading.Thread(target=attempt, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        assert target.read_text() == f"t{wins[0]}"


class TestClaims:
    def test_claim_release_cycle(self, tmp_path):
        cache = ResultCache(tmp_path)
        claim = cache.claim("deadbeef")
        assert claim is not None
        assert claim.key == "deadbeef"
        assert os.path.exists(claim.path)
        assert cache.claim_owner("deadbeef") == claim.owner
        cache.release(claim)
        assert cache.claim_owner("deadbeef") is None

    def test_contended_key_has_one_owner(self, tmp_path):
        # two daemons sharing a cache dir race for the same entry; the
        # loser gets None and must wait, never a second simulation slot
        a, b = ResultCache(tmp_path), ResultCache(tmp_path)
        claim = a.claim("cafe01", owner="daemon-a")
        assert claim is not None
        assert b.claim("cafe01", owner="daemon-b") is None
        a.release(claim)
        taken = b.claim("cafe01", owner="daemon-b")
        assert taken is not None and taken.owner == "daemon-b"

    def test_distinct_keys_do_not_contend(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.claim("key-one") is not None
        assert cache.claim("key-two") is not None

    def test_stale_claim_taken_over(self, tmp_path):
        cache = ResultCache(tmp_path)
        dead = cache.claim("feed99", owner="crashed-daemon")
        old = time.time() - 10_000
        os.utime(dead.path, (old, old))
        fresh = cache.claim("feed99", owner="survivor",
                            stale_after=600.0)
        assert fresh is not None and fresh.owner == "survivor"
        assert cache.claim_owner("feed99") == "survivor"

    def test_live_claim_not_taken_over(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.claim("beef42", owner="alive")
        assert cache.claim("beef42", owner="poacher",
                           stale_after=600.0) is None
        assert cache.claim_owner("beef42") == "alive"

    def test_release_is_idempotent(self, tmp_path):
        cache = ResultCache(tmp_path)
        claim = cache.claim("abcd12")
        cache.release(claim)
        cache.release(claim)          # second release must not raise

    def test_default_owner_names_host_and_pid(self, tmp_path):
        claim = ResultCache(tmp_path).claim("aa11bb")
        assert str(os.getpid()) in claim.owner

    def test_claims_are_not_cache_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.claim("dead00")
        assert cache.entries() == []
        assert cache.get("dead00") is None


class TestCodeVersion:
    def test_code_version_memoized_per_process(self):
        assert code_version() is code_version()

    def test_sweepjob_cache_key_takes_precomputed_version(self, tmp_path):
        # the daemon computes the digest once and threads it through
        # every cache_key call; keys must match the ambient digest path
        from repro.accel import higraph
        from repro.sweep.jobs import GraphSpec, SweepJob
        job = SweepJob(graph=GraphSpec("VT", scale=0.03), algorithm="BFS",
                       config=higraph())
        assert job.cache_key(code_version()) == job.cache_key(code_version())
        assert job.cache_key("other") != job.cache_key(code_version())
