#!/usr/bin/env python3
"""CI smoke test for the analysis service.

Starts a real ``python -m repro serve`` daemon, sweeps the fig5-small
suites through ``python -m repro submit`` twice — a cold pass and a
repeat pass, which the workers' analysis memos may answer — and diffs
every byte of stdout (and the exit code) of both passes against the
batch ``python -m repro`` invocation with the same flags: the served
path must be indistinguishable from the batch path.  Then SIGTERMs the
daemon and verifies the clean-shutdown contract: exit code 0, the
socket unlinked, and no orphaned worker processes.

Usage::

    python tools/serve_smoke.py [--scale 0.5] [--pool 2] [--timeout 30]

Exit codes: 0 all checks passed; 1 output mismatch or unclean shutdown;
2 infrastructure failure (daemon did not start).
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.bench import small_suites        # noqa: E402
from repro.serve import ServeClient         # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("REPRO_SERVE_SOCKET", None)
    env.pop("REPRO_CACHE_DIR", None)
    return env


def _repro(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=_env(), capture_output=True, text=True, timeout=1200)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="serve_smoke",
        description="diff a served fig5-small sweep (cold + repeat "
                    "passes) against the batch CLI, then check clean "
                    "SIGTERM shutdown")
    ap.add_argument("--scale", type=float, default=0.5,
                    help="suite scale factor (default 0.5)")
    ap.add_argument("--pool", type=int, default=2,
                    help="daemon worker-pool size (default 2)")
    ap.add_argument("--timeout", type=float, default=30.0,
                    help="per-procedure timeout in seconds (default 30)")
    args = ap.parse_args(argv)
    # the socket and the suite sources live in a temporary directory,
    # removed on exit whether the smoke passed or failed
    with tempfile.TemporaryDirectory(prefix="serve_smoke_") as tmp:
        return smoke(args, Path(tmp))


def smoke(args: argparse.Namespace, tmp: Path) -> int:
    sock = str(tmp / "serve.sock")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock,
         "--pool", str(args.pool)],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    client = ServeClient(sock)
    try:
        client.wait_ready(timeout=300)
    except Exception as exc:  # noqa: BLE001
        daemon.kill()
        print(f"FAIL: daemon never became ready: {exc}", file=sys.stderr)
        return 2
    worker_pids = client.metrics()["worker_pids"]
    print(f"daemon up on {sock} (pid {daemon.pid}, "
          f"workers {worker_pids})")

    failures = 0
    t0 = time.monotonic()
    for suite in small_suites(scale=args.scale):
        src_file = tmp / f"{suite.name}.c"
        src_file.write_text(suite.c_source)
        flags = ("--c", "--timeout", str(args.timeout), str(src_file))
        batch = _repro(*flags)
        for phase in ("cold", "repeat"):
            served = _repro("submit", "--socket", sock, *flags)
            if served.stdout == batch.stdout and \
                    served.returncode == batch.returncode:
                print(f"  {suite.name:<12} {phase:<6} OK "
                      f"({len(batch.stdout.splitlines())} lines, "
                      f"exit {batch.returncode})")
                continue
            failures += 1
            print(f"  {suite.name:<12} {phase:<6} MISMATCH "
                  f"(batch exit {batch.returncode}, "
                  f"served exit {served.returncode})", file=sys.stderr)
            for tag, res in (("batch", batch), ("served", served)):
                print(f"--- {tag} stdout ---\n{res.stdout}",
                      file=sys.stderr)
                if res.stderr:
                    print(f"--- {tag} stderr ---\n{res.stderr}",
                          file=sys.stderr)
    sweep_secs = time.monotonic() - t0
    snapshot = client.metrics()
    client.close()

    print(f"sweep finished in {sweep_secs:.1f}s; "
          f"requests {snapshot['counters'].get('requests_completed', 0)}, "
          f"coalesced {snapshot['counters'].get('coalesced_tasks', 0)}, "
          f"worker restarts {snapshot['pool']['restarts']}")

    # graceful shutdown: SIGTERM must drain, exit 0, unlink the socket,
    # and leave no worker processes behind
    daemon.send_signal(signal.SIGTERM)
    try:
        code = daemon.wait(timeout=300)
    except subprocess.TimeoutExpired:
        daemon.kill()
        print("FAIL: daemon did not exit within 300s of SIGTERM",
              file=sys.stderr)
        return 1
    out = daemon.stdout.read()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline and any(map(_alive, worker_pids)):
        time.sleep(0.1)
    orphans = [p for p in worker_pids if _alive(p)]

    ok = True
    if code != 0:
        print(f"FAIL: daemon exited {code} on SIGTERM", file=sys.stderr)
        ok = False
    if "drained, exiting" not in out:
        print(f"FAIL: no drain message in daemon output:\n{out}",
              file=sys.stderr)
        ok = False
    if os.path.exists(sock):
        print(f"FAIL: socket {sock} still exists after shutdown",
              file=sys.stderr)
        ok = False
    if orphans:
        print(f"FAIL: orphaned workers after shutdown: {orphans}",
              file=sys.stderr)
        ok = False
    if failures:
        print(f"FAIL: {failures} pass(es) diverged from the batch CLI",
              file=sys.stderr)
        ok = False
    if ok:
        print("serve smoke passed: served output byte-identical to batch "
              "(cold and repeat), clean SIGTERM shutdown, no orphans")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
