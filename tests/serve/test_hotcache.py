"""Hot-tier unit tests: byte-bounded LRU behavior and the
TaskResult <-> record codecs."""

import json

import pytest

from repro.core.analysis import ProcedureReport
from repro.core.tasks import TaskResult
from repro.serve.hotcache import HotCache, record_to_result, result_to_record


def _sized_record(n_bytes: int, tag: str) -> dict:
    """A record whose compact-JSON size is exactly ``n_bytes``."""
    overhead = len(json.dumps({"pad": "", "tag": tag},
                              separators=(",", ":")))
    return {"pad": "x" * (n_bytes - overhead), "tag": tag}


class TestLRU:
    def test_get_put_roundtrip(self):
        hc = HotCache(max_bytes=1 << 20)
        assert hc.get("k") is None
        rec = {"kind": "cons", "proc": "p", "warnings": ["w"]}
        assert hc.put("k", rec)
        assert hc.get("k") == rec
        assert hc.stats()["hits"] == 1
        assert hc.stats()["misses"] == 1

    def test_bytes_never_exceed_budget(self):
        budget = 1000
        hc = HotCache(max_bytes=budget)
        for i in range(50):
            hc.put(f"k{i}", _sized_record(90, f"t{i}"))
            assert hc.bytes_used() <= budget
        assert hc.stats()["evictions"] > 0
        assert len(hc) < 50

    def test_evicts_least_recently_used(self):
        hc = HotCache(max_bytes=300)
        hc.put("a", _sized_record(100, "a"))
        hc.put("b", _sized_record(100, "b"))
        hc.put("c", _sized_record(100, "c"))
        hc.get("a")  # promote a; b becomes the LRU victim
        hc.put("d", _sized_record(100, "d"))
        assert hc.get("b") is None
        assert hc.get("a") is not None
        assert hc.get("c") is not None
        assert hc.get("d") is not None

    def test_oversize_record_rejected(self):
        hc = HotCache(max_bytes=100)
        assert not hc.put("big", _sized_record(500, "big"))
        assert len(hc) == 0
        assert hc.stats()["oversize"] == 1

    def test_restore_refreshes_size_and_recency(self):
        hc = HotCache(max_bytes=1000)
        hc.put("k", _sized_record(400, "v1"))
        hc.put("k", _sized_record(100, "v2"))
        assert len(hc) == 1
        assert hc.bytes_used() < 200
        assert hc.get("k")["tag"] == "v2"

    def test_zero_budget_forbidden(self):
        with pytest.raises(ValueError):
            HotCache(max_bytes=0)


class TestCodecs:
    def _report(self, **over):
        kw = dict(proc_name="p", config_name="Conc")
        kw.update(over)
        return ProcedureReport(**kw)

    def test_analyze_roundtrip(self):
        res = TaskResult(kind="analyze", proc_name="p",
                         report=self._report(warnings=["A1"]),
                         cache_stats={"hits": 3})
        rec = result_to_record(res)
        assert rec["kind"] == "analyze"
        back = record_to_result(rec)
        assert back.report == res.report
        # a hot hit did no disk-cache work: stats must not replay
        assert back.cache_stats is None

    def test_cons_roundtrip(self):
        res = TaskResult(kind="cons", proc_name="p",
                         cons_warnings=["w1", "w2"])
        back = record_to_result(result_to_record(res))
        assert back.cons_warnings == ["w1", "w2"]
        assert back.cons_timed_out is False

    def test_failures_and_timeouts_never_cached(self):
        failed = TaskResult(kind="analyze", proc_name="p",
                            failure={"type": "Boom", "message": ""})
        assert result_to_record(failed) is None
        timed = TaskResult(kind="analyze", proc_name="p",
                           report=self._report(timed_out=True))
        assert result_to_record(timed) is None
        cons_to = TaskResult(kind="cons", proc_name="p",
                             cons_warnings=[], cons_timed_out=True)
        assert result_to_record(cons_to) is None
        control = TaskResult(kind="echo", proc_name="p", value=1)
        assert result_to_record(control) is None

    def test_unknown_report_field_raises(self):
        rec = result_to_record(TaskResult(
            kind="analyze", proc_name="p", report=self._report()))
        rec["report"]["from_the_future"] = 1
        with pytest.raises(ValueError):
            record_to_result(rec)
