import json
import os
import random
import sys
import threading

import pytest

from kurepa import _kernels as K
from kurepa import search as S
from kurepa.errors import (CheckpointError, DomainError, EmptyRangeError,
                           InvariantViolation)
from kurepa.modmath import iter_primes


class TestCampaignFixtures:
    def test_wilson_zero_small(self):
        assert S.run_campaign("wilson_zero", 3, 600).hits == [5, 13, 563]

    def test_gertsch_wilson_small(self):
        assert S.run_campaign("gertsch_wilson", 3, 100).hits == [3, 7]

    def test_gertsch_zero_empty(self):
        assert S.run_campaign("gertsch_zero", 3, 500).hits == []

    def test_wilson_plus_two(self):
        assert S.run_campaign("wilson_plus_two", 3, 100).hits == [3, 7, 71]

    def test_wilson_plus_half(self):
        assert S.run_campaign("wilson_plus_half", 3, 300).hits == [3, 227]

    def test_kurepa_zero_empty(self):
        assert S.run_campaign("kurepa_zero", 3, 2000).hits == []

    def test_wieferich_small(self):
        assert S.run_campaign("wieferich", 3, 4000).hits == [1093, 3511]

    def test_wilson_fast_paths_match_bernoulli_tables(self):
        # the W_p = -2 and W_p = -1/2 shortcuts must find exactly the primes
        # where the corresponding truncated Bernoulli sums vanish
        from kurepa.residues import bernoulli_index_sums
        from kurepa.modmath import iter_primes
        table_two, table_half = [], []
        for p in iter_primes(3, 1000):
            s = bernoulli_index_sums(p)
            if int(s.alternating) == 0:
                table_two.append(p)
            if int(s.even) == 0:
                table_half.append(p)
        assert S.run_campaign("wilson_plus_two", 3, 1000).hits == table_two
        assert S.run_campaign("wilson_plus_half", 3, 1000).hits == table_half

    def test_qpm_pairs(self):
        hits = S.run_campaign("qpm_zero", 3, 37, params={"m_max": 20}).hits
        for pair in [(2, 3), (6, 7), (14, 19), (5, 23), (19, 31), (20, 37)]:
            assert pair in hits

    def test_unknown_campaign(self):
        with pytest.raises(DomainError):
            S.run_campaign("nope", 3, 100)


class TestOddPrimes:
    @pytest.mark.parametrize("name", sorted(S.CAMPAIGNS))
    def test_from_two_scans_the_odd_primes(self, name):
        from_two, from_three = S.run_campaign(name, 2, 50), S.run_campaign(name, 3, 50)
        assert from_two.hits == from_three.hits
        assert from_two.scanned == from_three.scanned == 14

    def test_range_of_two_alone(self):
        ck = S.run_campaign("wilson_plus_half", 2, 2)
        assert (ck.hits, ck.scanned, ck.complete) == ([], 0, True)


class TestZeroCampaignWiring:
    # gertsch_zero and kurepa_zero have no known hits, so their fixtures
    # also pass for a scan that returns []; zeros planted in the run's
    # column generator must become exactly the hits
    PLANTED = [7, 23, 563, 1009]

    @staticmethod
    def _k(name, p, zero):
        """A !p entry whose !p mod p (kurepa_zero) or Gertsch_p (gertsch_zero)
        is 0 if zero, else 1."""
        if name == "kurepa_zero":
            return 0 if zero else 1
        return (K.bell_mod(p - 1, p * p) - 1 + (0 if zero else p)) % (p * p)

    @pytest.mark.parametrize("name", ["gertsch_zero", "kurepa_zero"])
    def test_planted_zeros_are_the_hits(self, monkeypatch, name):
        seen = []
        # gertsch_zero reads the true (p-1)! mod p^2 column; for kurepa_zero
        # it is all zeros, so reading it fails
        primes = list(iter_primes(3, 1100))
        fact = (dict(zip(primes, next(K.run_columns([primes], 2))[0]))
                if name == "gertsch_zero" else dict.fromkeys(primes, 0))

        def planted(blocks, e):
            assert e == S.CAMPAIGNS[name].e
            for block in blocks:
                seen.extend(block)
                yield ([fact[p] for p in block],
                       [self._k(name, p, p in self.PLANTED) for p in block])

        monkeypatch.setattr(K, "run_columns", planted)
        assert S.run_campaign(name, 2, 1100, stride=100).hits == self.PLANTED
        assert seen == list(iter_primes(3, 1100))


class TestCheckpointing:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "ck.json")
        ck = S.run_campaign("wilson_zero", 3, 1000, checkpoint_path=path)
        loaded = S.load_checkpoint(path)
        assert loaded.hits == ck.hits
        assert loaded.last_p == ck.last_p
        assert loaded.campaign == "wilson_zero"

    def test_json_schema(self, tmp_path):
        path = str(tmp_path / "ck.json")
        S.run_campaign("wilson_zero", 3, 200, checkpoint_path=path)
        obj = json.loads(open(path).read())
        assert set(obj) == {"campaign", "lo", "hi", "last_p", "hits",
                            "elapsed_s", "scanned", "version"}
        assert obj["version"] == 1

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            S.load_checkpoint(str(path))

    @pytest.mark.parametrize("top", ["[1, 2]", '"x"', "3", "null"])
    def test_top_level_not_an_object(self, tmp_path, top):
        path = tmp_path / "bad.json"
        path.write_text(top)
        with pytest.raises(CheckpointError):
            S.load_checkpoint(str(path))

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"campaign": "wilson_zero", "version": 1}))
        with pytest.raises(CheckpointError):
            S.load_checkpoint(str(path))

    def test_hits_outside_range(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "campaign": "wilson_zero", "lo": 3, "hi": 100, "last_p": 97,
            "hits": [563], "elapsed_s": 0.0, "scanned": 0, "version": 1}))
        with pytest.raises(CheckpointError):
            S.load_checkpoint(str(path))

    VALID = {"campaign": "wilson_zero", "lo": 100, "hi": 1000, "last_p": 99,
             "hits": [], "elapsed_s": 0.0, "scanned": 0, "version": 1}

    @pytest.mark.parametrize("field, value", [
        ("last_p", 1), ("last_p", 98), ("last_p", 1001), ("last_p", 5000),
        ("scanned", -3), ("elapsed_s", -0.5), ("elapsed_s", float("nan")),
        ("elapsed_s", float("inf")), ("elapsed_s", float("-inf"))])
    def test_out_of_range_state_rejected(self, tmp_path, field, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(self.VALID))
        S.load_checkpoint(str(path))
        path.write_text(json.dumps({**self.VALID, field: value}))
        with pytest.raises(CheckpointError):
            S.load_checkpoint(str(path))

    @pytest.mark.parametrize("field, value", [
        ("last_p", 500.9), ("last_p", 500.0), ("last_p", "500"), ("lo", 100.0),
        ("lo", 99.9), ("hi", 1000.5), ("hi", "1000"), ("scanned", 2.0),
        ("scanned", "7"), ("scanned", True), ("lo", True), ("elapsed_s", "2"),
        ("elapsed_s", True)])
    def test_non_integer_state_rejected(self, tmp_path, field, value):
        # int() and float() once truncated floats and parsed strings
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**self.VALID, field: value}))
        with pytest.raises(CheckpointError):
            S.load_checkpoint(str(path))
        with pytest.raises(CheckpointError):
            S.run_campaign("wilson_zero", 100, 1000, checkpoint_path=str(path),
                           resume=True)

    def test_integer_elapsed_accepted(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({**self.VALID, "elapsed_s": 2}))
        assert S.load_checkpoint(str(path)).elapsed_s == 2.0

    @pytest.mark.parametrize("hit", ["abc", None, [5], [2, 3, 101], [2.5, 101], 101.0])
    def test_malformed_hit_rejected(self, tmp_path, hit):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({**self.VALID, "last_p": 1000, "hits": [[2, 101]]}))
        S.load_checkpoint(str(path))
        path.write_text(json.dumps({**self.VALID, "last_p": 1000, "hits": [hit]}))
        with pytest.raises(CheckpointError):
            S.load_checkpoint(str(path))
        with pytest.raises(CheckpointError):
            S.run_campaign("wilson_zero", 100, 1000, checkpoint_path=str(path),
                           resume=True)

    def test_last_p_bounds_load(self, tmp_path):
        path = tmp_path / "ck.json"
        for last_p in (99, 1000):
            path.write_text(json.dumps({**self.VALID, "last_p": last_p}))
            assert S.load_checkpoint(str(path)).last_p == last_p

    def test_resume_from_below_lo_rejected(self, tmp_path):
        # a last_p below lo would resume from 3 and report 5 and 13
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({**self.VALID, "last_p": 1}))
        with pytest.raises(CheckpointError):
            S.run_campaign("wilson_zero", 100, 1000, checkpoint_path=str(path),
                           resume=True)

    @pytest.mark.parametrize("run", [
        S.run_campaign, lambda *a, **kw: S.run_sharded(*a, shards=2, **kw)],
        ids=["run_campaign", "run_sharded"])
    def test_empty_range_rejected(self, tmp_path, run):
        path = tmp_path / "ck.json"
        with pytest.raises(EmptyRangeError):
            run("wilson_zero", 50, 10, checkpoint_path=str(path))
        assert not os.path.exists(path)
        assert run("wilson_zero", 50, 50).hits == []

    def test_resume_wrong_campaign(self, tmp_path):
        path = str(tmp_path / "ck.json")
        S.run_campaign("wilson_zero", 3, 200, checkpoint_path=path)
        with pytest.raises(CheckpointError):
            S.run_campaign("wilson_plus_two", 3, 200, checkpoint_path=path, resume=True)

    def test_resume_needs_path(self):
        with pytest.raises(CheckpointError):
            S.run_campaign("wilson_zero", 3, 100, resume=True)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({
            "campaign": "wilson_zero", "lo": 3, "hi": 100, "last_p": 97,
            "hits": [], "elapsed_s": 0.0, "scanned": 0, "version": 99}))
        with pytest.raises(CheckpointError):
            S.load_checkpoint(str(path))


def _read(path):
    with open(path) as fh:
        return fh.read()


class TestCheckpointWriter:
    """Each checkpointed run hands its block snapshots to one writer thread
    that writes the newest; every text goes through `_write_text`."""

    @pytest.fixture
    def written(self, monkeypatch):
        texts = {}   # path -> every text written there, in order
        write = S._write_text

        def recording(path, text):
            write(path, text)
            texts.setdefault(path, []).append(text)

        monkeypatch.setattr(S, "_write_text", recording)
        before = set(threading.enumerate())
        yield texts
        # no writer outlives its run, whatever the run did
        assert set(threading.enumerate()) <= before

    @staticmethod
    def _last_ps(texts):
        return [json.loads(t)["last_p"] for t in texts]

    def _check(self, texts, path, ck):
        last_ps = self._last_ps(texts[path])
        assert all(a < b for a, b in zip(last_ps, last_ps[1:])), last_ps
        assert texts[path][-1] == ck.to_json()
        assert _read(path) == ck.to_json()

    @pytest.mark.parametrize("name, hi", [("wilson_zero", 2000), ("wilson_zero", 1999),
                                          ("wieferich", 4000)])
    def test_full_run(self, tmp_path, written, name, hi):
        path = str(tmp_path / "ck.json")
        ck = S.run_campaign(name, 3, hi, checkpoint_path=path, stride=17)
        assert ck.complete
        self._check(written, path, ck)

    def test_stop_then_resume(self, tmp_path, written):
        path = str(tmp_path / "ck.json")
        part = S.run_campaign("wilson_zero", 3, 2000, checkpoint_path=path,
                              stride=17, stop_after_blocks=5)
        self._check(written, path, part)
        stopped = len(written[path])
        resumed = S.run_campaign("wilson_zero", 3, 2000, checkpoint_path=path,
                                 resume=True, stride=17)
        self._check(written, path, resumed)
        assert self._last_ps(written[path][stopped:])[0] > part.last_p
        assert resumed.hits == [5, 13, 563]

    def test_resume_of_a_complete_run_rewrites_it(self, tmp_path, written):
        path = str(tmp_path / "ck.json")
        S.run_campaign("wilson_zero", 3, 600, checkpoint_path=path)
        again = S.run_campaign("wilson_zero", 3, 600, checkpoint_path=path, resume=True)
        assert written[path][-1] == _read(path) == again.to_json()

    def test_sharded(self, tmp_path, written):
        path = str(tmp_path / "ck.json")
        merged = S.run_sharded("wilson_zero", 3, 2000, shards=3,
                               checkpoint_path=path, stride=17)
        assert merged.hits == [5, 13, 563]
        for i in range(3):
            shard = S.load_checkpoint(f"{path}.shard{i}")
            assert shard.complete
            self._check(written, f"{path}.shard{i}", shard)

    def test_scan_does_not_wait_for_the_disk(self, tmp_path, written, monkeypatch):
        # every write blocks until the scan's last block is done; the scan
        # goes on meanwhile, and the writer then skips to the newest snapshot
        release, recording = threading.Event(), S._write_text

        def blocked(p, text):
            assert release.wait(timeout=10)
            recording(p, text)

        monkeypatch.setattr(S, "_write_text", blocked)
        seen = []

        def progress(ck):
            seen.append(ck.last_p)
            if ck.last_p == 1999:
                release.set()

        path = str(tmp_path / "ck.json")
        ck = S.run_campaign("wilson_zero", 3, 2000, checkpoint_path=path,
                            stride=17, progress=progress)
        assert len(seen) == 18
        assert len(written[path]) <= 3
        self._check(written, path, ck)

    def test_stress_short_switch_interval(self, tmp_path, written):
        # a lost or reordered snapshot shows as a non-increasing last_p or a
        # file that is not the returned checkpoint
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(3):
                path = str(tmp_path / f"ck{trial}.json")
                ck = S.run_campaign("kurepa_zero", 3, 3000, checkpoint_path=path,
                                    stride=3)
                self._check(written, path, ck)
        finally:
            sys.setswitchinterval(interval)

    def test_missing_directory(self, tmp_path, written):
        path = str(tmp_path / "missing" / "ck.json")
        with pytest.raises(CheckpointError) as err:
            S.run_campaign("wilson_zero", 3, 100, checkpoint_path=path)
        assert isinstance(err.value.__cause__, FileNotFoundError)
        assert not os.path.exists(path)

    def test_failed_final_write(self, tmp_path, written, monkeypatch):
        # the final checkpoint is always written, so failing it always raises
        path = str(tmp_path / "ck.json")
        recording = S._write_text

        def failing(p, text):
            if json.loads(text)["last_p"] == 2000:
                raise OSError(28, "No space left on device")
            recording(p, text)

        monkeypatch.setattr(S, "_write_text", failing)
        with pytest.raises(CheckpointError) as err:
            S.run_campaign("wilson_zero", 3, 2000, checkpoint_path=path, stride=17)
        assert isinstance(err.value.__cause__, OSError)
        if os.path.exists(path):
            assert S.load_checkpoint(path).last_p == self._last_ps(written[path])[-1]

    def test_failed_write_stops_the_scan(self, tmp_path, written, monkeypatch):
        # once the writer has failed, the next block boundary raises
        def failing(p, text):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(S, "_write_text", failing)
        seen = []

        def progress(ck):
            seen.append(ck.last_p)
            for t in threading.enumerate():
                if t.name == "kurepa-checkpoint-writer":
                    t.join(timeout=10)
                    assert not t.is_alive()

        with pytest.raises(CheckpointError):
            S.run_campaign("wilson_zero", 3, 2000, stride=17, progress=progress,
                           checkpoint_path=str(tmp_path / "ck.json"))
        assert seen == [61]

    @staticmethod
    def _composite_after_first_block(monkeypatch):
        run_columns = K.run_columns

        def planted(blocks, e):
            columns = run_columns(blocks, e)
            yield next(columns)
            for block in blocks[1:]:
                # (n-1)! = 0 (mod n) at a composite n > 4
                yield [0] * len(block), [0] * len(block)

        monkeypatch.setattr(K, "run_columns", planted)

    @pytest.mark.parametrize("where", ["ck.json", "missing/ck.json"])
    def test_scan_error_wins(self, tmp_path, written, monkeypatch, where):
        self._composite_after_first_block(monkeypatch)
        path = str(tmp_path / where)
        with pytest.raises(InvariantViolation):
            S.run_campaign("wilson_zero", 3, 2000, checkpoint_path=path, stride=17)
        if where == "ck.json":
            # the first block's checkpoint is on disk
            assert self._last_ps(written[path]) == [61]
            assert S.load_checkpoint(path).last_p == 61


class TestResumability:
    def test_interrupt_resume_identical(self, tmp_path):
        full = S.run_campaign("wilson_zero", 3, 2000)
        rng = random.Random(20250810)
        for trial in range(20):
            path = str(tmp_path / f"trial{trial}.json")
            stride = rng.choice([7, 17, 31, 50, 101])
            blocks = rng.randint(1, 6)
            part = S.run_campaign("wilson_zero", 3, 2000,
                                  checkpoint_path=path, stride=stride,
                                  stop_after_blocks=blocks)
            assert part.last_p < 2000 or part.complete
            resumed = S.run_campaign("wilson_zero", 3, 2000,
                                     checkpoint_path=path, resume=True,
                                     stride=stride)
            assert resumed.hits == full.hits
            assert resumed.last_p == 2000

    def test_double_resume(self, tmp_path):
        path = str(tmp_path / "ck.json")
        full = S.run_campaign("wilson_plus_two", 3, 3000)
        S.run_campaign("wilson_plus_two", 3, 3000, checkpoint_path=path,
                       stride=20, stop_after_blocks=2)
        S.run_campaign("wilson_plus_two", 3, 3000, checkpoint_path=path, resume=True,
                       stride=20, stop_after_blocks=3)
        final = S.run_campaign("wilson_plus_two", 3, 3000, checkpoint_path=path,
                               resume=True, stride=20)
        assert final.hits == full.hits

    def test_elapsed_accumulates(self, tmp_path):
        path = str(tmp_path / "ck.json")
        part = S.run_campaign("wilson_zero", 3, 3000, checkpoint_path=path,
                              stride=50, stop_after_blocks=2)
        resumed = S.run_campaign("wilson_zero", 3, 3000, checkpoint_path=path,
                                 resume=True, stride=50)
        assert resumed.elapsed_s >= part.elapsed_s
        assert resumed.scanned > part.scanned


class TestSharding:
    @pytest.mark.parametrize("shards", [1, 2, 3, 5, 8])
    def test_shard_invariance(self, shards):
        single = S.run_campaign("wilson_zero", 3, 2000)
        sharded = S.run_sharded("wilson_zero", 3, 2000, shards=shards)
        assert sharded.hits == single.hits

    def test_workers_other_than_one_raise(self):
        assert S.run_campaign("wilson_plus_two", 3, 2000, workers=1).hits == [3, 7, 71]
        with pytest.raises(DomainError):
            S.run_campaign("wilson_plus_two", 3, 2000, workers=2)

    @pytest.mark.parametrize("name", ["wilson_zero", "qpm_zero"])
    def test_sharded_checkpoint_resume(self, tmp_path, name):
        path = str(tmp_path / "ck.json")
        single = S.run_campaign(name, 3, 2000)
        part = S.run_sharded(name, 3, 2000, shards=3, checkpoint_path=path,
                             stride=50, stop_after_blocks=1)
        assert not part.complete
        assert [S.load_checkpoint(f"{path}.shard{i}").lo for i in range(3)] \
            == [3, 669, 1335]
        resumed = S.run_sharded(name, 3, 2000, shards=3, checkpoint_path=path,
                                resume=True, stride=50)
        assert resumed.complete
        assert sorted(resumed.hits) == sorted(single.hits)

    def test_sharded_resume_starts_missing_shards(self, tmp_path):
        path = str(tmp_path / "ck.json")
        S.run_sharded("wilson_zero", 3, 2000, shards=3, checkpoint_path=path,
                      stride=50, stop_after_blocks=1)
        os.remove(f"{path}.shard1")
        resumed = S.run_sharded("wilson_zero", 3, 2000, shards=3,
                                checkpoint_path=path, resume=True, stride=50)
        assert resumed.hits == [5, 13, 563]

    def test_sharded_resume_needs_path(self):
        with pytest.raises(CheckpointError):
            S.run_sharded("wilson_zero", 3, 2000, shards=3, resume=True)

    def test_pair_shard_invariance(self):
        single = S.run_campaign("qpm_zero", 3, 37, params={"m_max": 20})
        sharded = S.run_sharded("qpm_zero", 3, 37, shards=3,
                                params={"m_max": 20})
        assert sorted(sharded.hits) == sorted(single.hits)


class TestVerify:
    def test_pass(self):
        ck = S.run_campaign("wilson_plus_two", 3, 2000)
        rep = S.verify_expected("wilson_plus_two", ck)
        assert rep.status == "pass"

    def test_inconclusive_on_partial(self, tmp_path):
        path = str(tmp_path / "ck.json")
        part = S.run_campaign("wilson_plus_two", 3, 2000, checkpoint_path=path,
                              stride=10, stop_after_blocks=1)
        assert S.verify_expected("wilson_plus_two", part).status == "inconclusive"

    def test_fail_on_tampered_hits(self):
        ck = S.run_campaign("wilson_plus_two", 3, 2000)
        ck.hits.append(1999)
        assert S.verify_expected("wilson_plus_two", ck).status == "fail"

    def test_rate_exposed(self):
        ck = S.run_campaign("wilson_zero", 3, 2000)
        assert ck.scanned == len(list(__import__("kurepa").iter_primes(3, 2000)))
        assert ck.primes_per_second > 0
