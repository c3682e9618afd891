"""Load generator for the analysis service.

Answers the question the serving layer exists for: how much faster is a
*warm* daemon — workers that imported the solver stack once and stay
resident — than paying a cold ``python -m repro`` process per request?

The generator builds a batch of distinct single-procedure programs and
pushes them through both paths:

* **cold CLI** — one fresh subprocess per request, the pre-daemon
  workflow (interpreter start + full import + analysis, every time);
* **warm server** — the same requests against one :class:`ServerThread`
  over a Unix socket, submitted concurrently so the pool's workers
  overlap.

The acceptance bar is a >= 2x throughput win for the warm pool.  The
table reports both throughputs and the server's own request-latency
histogram quantiles (``docs/serving.md``).
"""

import pathlib
import subprocess
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _util import SCALE, TIMEOUT, emit  # noqa: E402

from repro.bench import render_table
from repro.serve import ServeClient, ServerThread

SRC_DIR = str(pathlib.Path(__file__).resolve().parent.parent / "src")

#: Number of requests per path (scaled like the suite sizes).
N_REQUESTS = max(4, round(8 * SCALE))

#: One interactive-triage-sized request: real solver work (branching +
#: two assertions), but small enough that per-request process startup
#: and import cost — what serving amortizes — dominates a cold CLI run.
_PROGRAM = """
procedure P{i}(x: int, y: int) returns (r: int)
{{
  var z: int;
  z := x + y + {i};
  if (z > 0) {{
    A1: assert z > 0;
    r := z;
  }} else {{
    r := {i} - z;
  }}
  A2: assert r >= {i};
}}
"""


def _requests():
    """Distinct programs so neither coalescing nor the persistent cache
    can hide work — the comparison isolates the warm-pool effect."""
    return [_PROGRAM.format(i=i) for i in range(N_REQUESTS)]


def _cold_cli(sources, tmp_path) -> float:
    """One fresh ``python -m repro`` process per request."""
    env = {"PYTHONPATH": SRC_DIR, "PATH": "/usr/bin:/bin"}
    t0 = time.monotonic()
    for i, source in enumerate(sources):
        path = tmp_path / f"cold_{i}.bpl"
        path.write_text(source)
        res = subprocess.run(
            [sys.executable, "-m", "repro", "--timeout", str(TIMEOUT),
             str(path)],
            env=env, capture_output=True, text=True, timeout=600)
        assert res.returncode in (0, 1), res.stderr
    return time.monotonic() - t0


def _warm_serve(sources, tmp_path) -> tuple[float, dict]:
    """The same requests against one warm daemon, submitted
    concurrently; returns (wall seconds, server metrics snapshot)."""
    sock = str(tmp_path / "serve.sock")
    with ServerThread(sock, pool_size=2, queue_limit=64) as st:
        with ServeClient(sock) as client:
            t0 = time.monotonic()
            ids = [client.submit(src, timeout=TIMEOUT)["id"]
                   for src in sources]
            for req_id in ids:
                resp = client.result(req_id)
                assert resp["failures"] == 0, resp
            wall = time.monotonic() - t0
            snapshot = client.metrics()
        assert st.server.pool.counters()["crash_failures"] == 0
    return wall, snapshot


def test_serve_load(benchmark, tmp_path):
    sources = _requests()
    state = {}

    def run():
        state["cold"] = _cold_cli(sources, tmp_path)
        state["warm"], state["snapshot"] = _warm_serve(sources, tmp_path)
        return state

    benchmark.pedantic(run, rounds=1, iterations=1)
    cold, warm, snap = state["cold"], state["warm"], state["snapshot"]
    n = len(sources)
    cold_rps = n / cold
    warm_rps = n / warm
    speedup = warm_rps / cold_rps
    latency = snap["request_latency"]

    table = render_table(
        ["Path", "Requests", "Wall (s)", "Throughput (req/s)"],
        [["cold CLI (one process per request)", n, f"{cold:.2f}",
          f"{cold_rps:.2f}"],
         ["warm server (pool=2)", n, f"{warm:.2f}", f"{warm_rps:.2f}"]])
    table += (f"\n\nspeedup {speedup:.2f}x; request latency "
              f"p50 {latency['p50_ms']:.0f}ms / p99 {latency['p99_ms']:.0f}ms"
              f" (mean {latency['mean_ms']:.0f}ms)")
    emit("serve_load", table)

    # the acceptance bar: the warm pool at least doubles throughput
    assert speedup >= 2.0, (cold, warm, speedup)

