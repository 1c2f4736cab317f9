"""ResultCache as the fleet's shared store: concurrent publication,
enumeration, corruption."""

import os
import pickle

from repro.harness.parallel import ResultCache, map_jobs


def publish_one(job):
    """Fleet worker: publish one keyed entry into a shared cache."""
    cache_dir, key, value = job
    ResultCache(cache_dir).put(key, value)
    return key


class TestSharedResultCache:
    def test_put_get_roundtrip_and_keys(self, tmp_path):
        cache = ResultCache(str(tmp_path / "store"))
        key = ResultCache.key_of({"cell": 1})
        cache.put(key, {"cycles": 99})
        assert cache.get(key) == {"cycles": 99}
        assert key in cache
        assert cache.keys() == {key}
        assert len(cache) == 1

    def test_concurrent_writers_all_entries_land(self, tmp_path):
        cache_dir = str(tmp_path / "store")
        jobs = [(cache_dir, ResultCache.key_of({"cell": i}),
                 {"value": i}) for i in range(24)]
        done = map_jobs(publish_one, jobs, workers=4)
        cache = ResultCache(cache_dir)
        assert set(done) == cache.keys()
        assert len(cache) == len(jobs)
        for _dir, key, value in jobs:
            assert cache.get(key) == value

    def test_racing_writers_on_one_key_last_wins_clean(self,
                                                      tmp_path):
        cache_dir = str(tmp_path / "store")
        key = ResultCache.key_of({"cell": "contended"})
        jobs = [(cache_dir, key, {"value": i}) for i in range(8)]
        map_jobs(publish_one, jobs, workers=4)
        cache = ResultCache(cache_dir)
        got = cache.get(key)
        # atomic publish: some complete value, never a torn read
        assert got in [{"value": i} for i in range(8)]
        # no temp file survives its rename
        assert os.listdir(cache_dir) == [key + ".pkl"]
        assert cache.keys() == {key}

    def test_corrupt_entry_deleted_and_dropped_from_keys(
            self, tmp_path):
        cache = ResultCache(str(tmp_path / "store"))
        good = ResultCache.key_of({"cell": "good"})
        bad = ResultCache.key_of({"cell": "bad"})
        cache.put(good, 1)
        cache.put(bad, 2)
        with open(cache._file(bad), "wb") as fh:
            fh.write(b"\x80garbage")
        assert cache.get(bad) is None
        assert cache.stats()["corrupt"] == 1
        assert not os.path.exists(cache._file(bad))
        assert cache.keys() == {good}

    def test_entries_survive_process_restart(self, tmp_path):
        path = str(tmp_path / "store")
        first = ResultCache(path)
        key = ResultCache.key_of({"cell": 1})
        first.put(key, list(range(10)))
        second = ResultCache(path)  # fresh instance, same dir
        assert second.get(key) == list(range(10))
        with open(second._file(key), "rb") as fh:
            assert pickle.load(fh) == list(range(10))
        assert second.keys() == {key}
