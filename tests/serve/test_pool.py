"""Failure-path tests for the persistent worker pool: crash recovery,
deadlines, drain.  Control tasks (echo/sleep/crash) keep these fast —
no solver work, just process plumbing."""

import os
import signal
import threading
import time

import pytest

from repro.core.tasks import AnalysisTask
from repro.serve.pool import PoolClosedError, WorkerPool


def _echo(payload="x"):
    return AnalysisTask(kind="echo", payload=payload)


def _sleep(seconds):
    return AnalysisTask(kind="sleep", payload=seconds)


@pytest.fixture()
def pool():
    p = WorkerPool(workers=1, max_retries=2, backoff_base=0.01)
    p.start()
    yield p
    p.close()


class TestRoundTrip:
    def test_echo(self, pool):
        res = pool.submit(_echo({"n": 3})).result(timeout=30)
        assert res.failure is None
        assert res.value == {"n": 3}

    def test_results_in_submission_order_per_future(self, pool):
        futs = [pool.submit(_echo(i)) for i in range(5)]
        assert [f.result(timeout=30).value for f in futs] == list(range(5))


class TestCrashRecovery:
    def test_sigkill_mid_request_restarts_and_retries(self, pool):
        fut = pool.submit(_sleep(0.6))
        # Wait until the task is actually on the worker, then murder it.
        deadline = time.monotonic() + 10
        while pool.in_flight() == 0:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        time.sleep(0.1)
        (pid,) = pool.worker_pids()
        os.kill(pid, signal.SIGKILL)
        res = fut.result(timeout=30)
        assert res.failure is None, res.failure
        assert res.value == 0.6
        counters = pool.counters()
        assert counters["retries"] >= 1
        assert counters["restarts"] >= 1
        # The replacement worker is a different process and still works.
        assert pool.worker_pids() != [pid]
        assert pool.submit(_echo("after")).result(timeout=30).value == "after"

    def test_repeated_crashes_exhaust_retries(self, pool):
        res = pool.submit(AnalysisTask(kind="crash")).result(timeout=60)
        assert res.failure is not None
        assert res.failure["type"] == "worker_crash"
        assert "retries exhausted" in res.failure["message"]
        counters = pool.counters()
        assert counters["crash_failures"] == 1
        assert counters["retries"] == pool.max_retries
        # Pool is not wedged.
        assert pool.submit(_echo("ok")).result(timeout=30).value == "ok"


class TestDeadlines:
    def test_deadline_expires_while_queued(self, pool):
        blocker = pool.submit(_sleep(0.5))
        fut = pool.submit(_echo("late"), deadline_seconds=0.05)
        res = fut.result(timeout=30)
        assert res.failure is not None
        assert res.failure["type"] == "deadline"
        assert "before the task started" in res.failure["message"]
        assert blocker.result(timeout=30).failure is None
        assert pool.counters()["deadline_kills"] >= 1

    def test_deadline_expires_mid_run_without_poisoning_queue(self, pool):
        fut = pool.submit(_sleep(30.0), deadline_seconds=0.3)
        res = fut.result(timeout=30)
        assert res.failure is not None
        assert res.failure["type"] == "deadline"
        assert "mid-run" in res.failure["message"]
        assert pool.counters()["deadline_kills"] == 1
        # The killed worker's slot restarts and serves the next task.
        assert pool.submit(_echo("next")).result(timeout=30).value == "next"
        # A deadline kill is not a crash retry.
        assert pool.counters()["retries"] == 0


class TestQueueOrder:
    def test_queued_tasks_dispatch_fifo(self, pool):
        blocker = pool.submit(_sleep(0.3))
        deadline = time.monotonic() + 10
        while pool.in_flight() == 0:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        order = []
        futs = [pool.submit(_echo(i)) for i in range(5)]
        for fut in futs:
            fut.add_done_callback(
                lambda f: order.append(f.result().value))
        for fut in futs:
            fut.result(timeout=30)
        blocker.result(timeout=30)
        assert order == list(range(5))


class TestStart:
    def test_every_worker_launches_before_any_handshake(self, monkeypatch):
        launched = []
        real = WorkerPool._handshake

        def spy(self, slot):
            if not launched:
                launched.append(sum(s.proc is not None
                                    for s in self._slots))
            real(self, slot)

        monkeypatch.setattr(WorkerPool, "_handshake", spy)
        pool = WorkerPool(workers=2)
        pool.start()
        try:
            assert launched == [2]
            assert len(pool.worker_pids()) == 2
        finally:
            pool.close()

    def test_handshake_timeout_kills_every_worker(self, monkeypatch):
        procs = []
        real = WorkerPool._launch

        def spy(self, slot):
            real(self, slot)
            procs.append(slot.proc)

        monkeypatch.setattr(WorkerPool, "_launch", spy)
        pool = WorkerPool(workers=2, start_timeout=0.0)
        with pytest.raises(TimeoutError):
            pool.start()
        assert len(procs) == 2
        assert not any(proc.is_alive() for proc in procs)
        assert all(slot.proc is None and slot.conn is None
                   for slot in pool._slots)
        pool.close()


class TestDrainAndClose:
    def test_drain_completes_accepted_and_rejects_new(self):
        pool = WorkerPool(workers=2, backoff_base=0.01)
        pool.start()
        try:
            futs = [pool.submit(_sleep(0.15)) for _ in range(4)]
            drained = []
            t = threading.Thread(
                target=lambda: drained.append(pool.drain(timeout=60)))
            t.start()
            time.sleep(0.05)
            with pytest.raises(PoolClosedError):
                pool.submit(_echo("too late"))
            t.join(60)
            assert drained == [True]
            for fut in futs:
                assert fut.result(timeout=1).failure is None
        finally:
            pool.close()

    def test_close_leaves_no_orphan_workers(self):
        pool = WorkerPool(workers=2)
        pool.start()
        pids = pool.worker_pids()
        assert len(pids) == 2
        pool.close()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            alive = [p for p in pids if _alive(p)]
            if not alive:
                return
            time.sleep(0.05)
        assert not alive, f"orphaned workers: {alive}"

    def test_close_fails_queued_tasks_as_shutdown(self):
        pool = WorkerPool(workers=1, backoff_base=0.01)
        pool.start()
        pool.submit(_sleep(0.3))
        queued = pool.submit(_echo("never"))
        pool.close()
        res = queued.result(timeout=10)
        assert res.failure is not None
        assert res.failure["type"] == "shutdown"


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
