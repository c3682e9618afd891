"""In-process daemon tests: protocol verbs, coalescing, flights,
backpressure, drain — all over a real Unix socket against a
:class:`ServerThread`."""

import gc
import json
import socket
import threading
import time
import warnings
from dataclasses import fields

import pytest

from repro.core import CONC, analyze_program, conservative_program
from repro.core.tasks import AnalysisTask
from repro.lang import parse_program, typecheck
from repro.serve import ServeClient, ServeError, ServerThread

FIG1_BPL = """
var Freed: [int]int;
procedure Foo(c: int, buf: int, cmd: int) modifies Freed;
{
  if (*) {
    A1: assert Freed[c] == 0;  Freed[c] := 1;
    A2: assert Freed[buf] == 0; Freed[buf] := 1;
    return;
  }
  if (cmd == 0) {
    if (*) {
      A3: assert Freed[c] == 0;  Freed[c] := 1;
      A4: assert Freed[buf] == 0; Freed[buf] := 1;
    }
  }
  A5: assert Freed[c] == 0;  Freed[c] := 1;
  A6: assert Freed[buf] == 0; Freed[buf] := 1;
}
"""

TWO_PROCS_BPL = """
procedure inc(x: int) returns (r: int)
  ensures r >= x;
{
  r := x + 1;
}

procedure dec(x: int) returns (r: int)
  ensures r <= x;
{
  r := x - 1;
}
"""

# wall-clock / machine-local fields excluded from equality checks
_VOLATILE = {"seconds", "phases", "budget_remaining", "solver_stats",
             "queries", "cache_hits", "queries_saved"}


def _stable(report):
    return [{f.name: getattr(r, f.name) for f in fields(r)
             if f.name not in _VOLATILE} for r in report.reports]


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    sock = str(tmp_path_factory.mktemp("serve") / "s.sock")
    with ServerThread(sock, pool_size=2, queue_limit=8) as st:
        yield st


@pytest.fixture()
def client(server):
    with ServeClient(server.server.address_spec) as c:
        yield c


class TestVerbs:
    def test_ping(self, client):
        resp = client.ping()
        assert resp["pong"] is True
        assert resp["draining"] is False

    def test_analyze_matches_batch(self, client):
        served = client.analyze(FIG1_BPL)
        program = typecheck(parse_program(FIG1_BPL))
        batch = analyze_program(program, config=CONC)
        assert _stable(served) == _stable(batch)
        assert served.config_name == "Conc"

    def test_cons_matches_batch(self, client):
        served = client.conservative(FIG1_BPL)
        program = typecheck(parse_program(FIG1_BPL))
        warnings, timeouts = conservative_program(program)
        assert served["warnings"] == warnings
        assert served["timeouts"] == timeouts
        assert served["failures"] == {}

    def test_status_then_result(self, client):
        acc = client.submit(TWO_PROCS_BPL)
        assert acc["procs"] == ["inc", "dec"]
        st = client.status(acc["id"])
        assert st["state"] in ("queued", "running", "done")
        assert st["total"] == 2
        res = client.result(acc["id"])
        assert res["failures"] == 0
        assert {r["proc_name"] for r in res["report"]["reports"]} == \
            {"inc", "dec"}
        assert client.status(acc["id"])["state"] == "done"

    def test_result_nowait_pending(self, client, server):
        # Hold every worker so the request cannot finish before we peek
        # (a worker that analyzed FIG1 before would answer at once).
        pool = server.server.pool
        blockers = [pool.submit(AnalysisTask(kind="sleep", payload=0.4))
                    for _ in range(pool.size)]
        acc = client.submit(FIG1_BPL)
        with pytest.raises(ServeError) as exc:
            client.result(acc["id"], wait=False)
        assert exc.value.code == "pending"
        for blocker in blockers:
            blocker.result(timeout=30)
        assert client.result(acc["id"])["report"] is not None

    def test_metrics(self, client):
        acc = client.submit(FIG1_BPL)
        client.result(acc["id"])
        snap = client.metrics()
        assert snap["counters"]["requests_accepted"] >= 1
        assert snap["counters"]["requests_completed"] >= 1
        assert snap["counters"]["procs_submitted"] >= 1
        assert snap["workers"] == 2
        assert len(snap["worker_pids"]) == 2
        assert set(snap["pool"]) >= {"restarts", "retries", "deadline_kills",
                                     "crash_failures", "completed"}
        assert "submit" in snap["verb_latency"]
        assert snap["verb_latency"]["submit"]["count"] >= 1
        for hist in ("task_wait", "task_run", "request_latency"):
            assert {"count", "mean_ms", "p50_ms", "p90_ms",
                    "p99_ms"} <= set(snap[hist])

    def test_unknown_request(self, client):
        with pytest.raises(ServeError) as exc:
            client.status("q999999")
        assert exc.value.code == "unknown_request"

    def test_unknown_verb(self, client):
        with pytest.raises(ServeError) as exc:
            client.request("frobnicate")
        assert exc.value.code == "bad_request"

    def test_parse_error_is_bad_request(self, client):
        with pytest.raises(ServeError) as exc:
            client.submit("procedure oops(")
        assert exc.value.code == "bad_request"
        assert "parse failed" in str(exc.value)

    def test_unknown_procs_rejected(self, client):
        with pytest.raises(ServeError) as exc:
            client.submit(FIG1_BPL, procs=["Nope"])
        assert exc.value.code == "bad_request"

    @pytest.mark.parametrize("source,procs", [
        ("var g: int;\n", None), (FIG1_BPL, [])],
        ids=["no-bodies", "empty-procs"])
    def test_request_without_procedures_is_finalized(self, client, source,
                                                     procs):
        served = client.analyze(source, procs=procs)
        batch = analyze_program(typecheck(parse_program(source)),
                                config=CONC, proc_names=procs)
        assert served.reports == batch.reports == []
        assert served.config_name == "Conc"
        acc = client.submit(source, kind="cons", procs=procs)
        assert acc["procs"] == []
        assert client.status(acc["id"])["state"] == "done"
        assert client.result(acc["id"], wait=False)["report"] == {
            "kind": "cons", "warnings": {}, "timeouts": 0, "failures": {},
            "cache_stats": {}}

    def test_malformed_json_line(self, server):
        addr = server.server.address[1]
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.connect(addr)
            s.sendall(b"this is not json\n")
            resp = json.loads(s.makefile("rb").readline())
        assert resp["ok"] is False
        assert resp["error"] == "bad_request"


class TestCoalescing:
    def test_identical_inflight_submissions_coalesce(self, tmp_path):
        sock = str(tmp_path / "s.sock")
        with ServerThread(sock, pool_size=1, queue_limit=8) as st:
            # Park the only worker so both submissions are in flight
            # together.
            blocker = st.server.pool.submit(
                AnalysisTask(kind="sleep", payload=0.5))
            with ServeClient(sock) as c:
                a = c.submit(FIG1_BPL)
                b = c.submit(FIG1_BPL)
                assert a["coalesced"] == 0
                assert b["coalesced"] == 1
                ra = c.result(a["id"])["report"]
                rb = c.result(b["id"])["report"]
                assert ra == rb
                assert c.metrics()["counters"]["coalesced_tasks"] >= 1
            blocker.result(timeout=30)

    def test_coalescing_can_be_disabled(self, tmp_path):
        sock = str(tmp_path / "s.sock")
        with ServerThread(sock, pool_size=1, queue_limit=8,
                          coalesce=False) as st:
            blocker = st.server.pool.submit(
                AnalysisTask(kind="sleep", payload=0.5))
            with ServeClient(sock) as c:
                a = c.submit(FIG1_BPL)
                b = c.submit(FIG1_BPL)
                assert a["coalesced"] == b["coalesced"] == 0
                # Two independent runs agree modulo wall-clock fields.
                from repro.core.analysis import program_report_from_json
                ra = program_report_from_json(c.result(a["id"])["report"])
                rb = program_report_from_json(c.result(b["id"])["report"])
                assert _stable(ra) == _stable(rb)
            blocker.result(timeout=30)


class TestFlights:
    def test_in_flight_requests_survive_gc(self, server):
        # Flight coroutines are fire-and-forget and the event loop holds
        # tasks only weakly, so the server keeps strong references to
        # them.  Pile up concurrent requests, force a collection while
        # they are in flight, and demand every one still finishes.
        srcs = [f"procedure G{i}(x: int) {{ A1: assert x + {i} > x; }}"
                for i in range(8)]
        with ServeClient(server.server.address_spec) as c:
            ids = [c.submit(src)["id"] for src in srcs]
            gc.collect()
            for rid in ids:
                assert c.result(rid)["failures"] == 0


class TestBackpressure:
    def test_overloaded_submit_rejected_with_retry_after(self, tmp_path):
        sock = str(tmp_path / "s.sock")
        with ServerThread(sock, pool_size=1, queue_limit=1) as st:
            blocker = st.server.pool.submit(
                AnalysisTask(kind="sleep", payload=0.6))
            with ServeClient(sock) as c:
                c.request("submit", source=FIG1_BPL)  # fills the queue
                with pytest.raises(ServeError) as exc:
                    c.request("submit", source=TWO_PROCS_BPL)
                assert exc.value.code == "overloaded"
                assert exc.value.response["retry_after"] > 0
                assert c.metrics()["counters"]["requests_rejected"] >= 1
                # The client's retry loop rides out the backpressure.
                acc = c.submit(TWO_PROCS_BPL)
                assert c.result(acc["id"])["failures"] == 0
            blocker.result(timeout=30)


class TestDrain:
    def test_drain_completes_accepted_and_rejects_new(self, tmp_path):
        sock = str(tmp_path / "s.sock")
        st = ServerThread(sock, pool_size=1, queue_limit=8).start()
        blocker = st.server.pool.submit(
            AnalysisTask(kind="sleep", payload=0.5))
        accept_client = ServeClient(sock)
        acc = accept_client.submit(FIG1_BPL)
        drain_resp = []
        drainer = ServeClient(sock)
        t = threading.Thread(
            target=lambda: drain_resp.append(drainer.drain()))
        t.start()
        time.sleep(0.15)  # let the drain verb land
        with ServeClient(sock) as late:
            with pytest.raises(ServeError) as exc:
                late.request("submit", source=FIG1_BPL)
            assert exc.value.code == "draining"
        t.join(120)
        assert drain_resp and drain_resp[0]["drained"] is True
        assert drain_resp[0]["completed"] >= 1
        blocker.result(timeout=30)
        # The accepted request was finished before the server exited.
        req = st.server._requests[acc["id"]]
        assert req.state == "done"
        assert req.report_json is not None
        # Clean exit: socket unlinked, no live workers.
        st.stop()
        assert st.server.pool.worker_pids() == []
        accept_client.close()
        drainer.close()


class TestClient:
    def test_failed_connect_leaves_no_socket_open(self, tmp_path):
        # every wait_ready poll against a path nobody serves opens a
        # socket whose connect raises; none may be left to the collector
        client = ServeClient(str(tmp_path / "missing.sock"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(OSError):
                client.wait_ready(timeout=0.2, interval=0.01)
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]
