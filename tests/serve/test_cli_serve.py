"""End-to-end daemon tests through the real CLI: ``python -m repro
serve`` + ``python -m repro submit`` in subprocesses, byte-identical
output vs the batch CLI, env-var socket discovery, clean SIGTERM
shutdown with no orphaned workers, and no orphans after a SIGKILL."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve import ServeClient

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")

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


def _env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    env.pop("REPRO_SERVE_SOCKET", None)
    env.pop("REPRO_CACHE_DIR", None)
    env.update(extra)
    return env


def _repro(*args, **env_extra):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=_env(**env_extra), capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_serve")
    sock = str(tmp / "s.sock")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock,
         "--pool", "2"],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    client = ServeClient(sock)
    try:
        client.wait_ready(timeout=120)
    except Exception:
        proc.kill()
        raise
    yield proc, sock, client
    client.close()
    if proc.poll() is None:
        proc.terminate()
        proc.wait(60)
    proc.stdout.close()


@pytest.fixture(scope="module")
def fig1_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("inputs") / "fig1.bpl"
    p.write_text(FIG1_BPL)
    return str(p)


class TestSubmitParity:
    def test_submit_output_is_byte_identical_to_batch(self, daemon,
                                                      fig1_file):
        _, sock, _ = daemon
        args = ("--config", "Conc", "--config", "A1", "--show-cons",
                fig1_file)
        batch = _repro(*args)
        served = _repro("submit", "--socket", sock, *args)
        assert served.stdout == batch.stdout
        assert served.returncode == batch.returncode == 1

    def test_socket_from_environment(self, daemon, fig1_file):
        _, sock, _ = daemon
        batch = _repro(fig1_file)
        served = _repro("submit", fig1_file, REPRO_SERVE_SOCKET=sock)
        assert served.stdout == batch.stdout
        assert served.returncode == batch.returncode

    def test_unknown_procedure_exits_2(self, daemon, fig1_file):
        _, sock, _ = daemon
        res = _repro("submit", "--socket", sock, "--proc", "Nope", fig1_file)
        assert res.returncode == 2
        assert "no procedure named 'Nope'" in res.stderr

    def test_submit_without_socket_exits_2(self, fig1_file):
        res = _repro("submit", fig1_file)
        assert res.returncode == 2
        assert "REPRO_SERVE_SOCKET" in res.stderr


class TestDaemonLifecycle:
    def test_sigterm_drains_cleanly_without_orphans(self, daemon):
        proc, sock, client = daemon
        pids = client.metrics()["worker_pids"]
        assert len(pids) == 2
        client.close()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=120) == 0
        out = proc.stdout.read()
        assert "drained, exiting" in out
        assert not os.path.exists(sock)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if not any(_alive(p) for p in pids):
                break
            time.sleep(0.05)
        alive = [p for p in pids if _alive(p)]
        assert not alive, f"orphaned workers: {alive}"

    def test_sigkill_leaves_no_orphan_workers(self, tmp_path):
        # No drain runs on SIGKILL: the workers must notice their pipe
        # closing and exit on their own.
        sock = str(tmp_path / "k.sock")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock,
             "--pool", "1"],
            env=_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            with ServeClient(sock) as client:
                client.wait_ready(timeout=120)
                pids = client.metrics()["worker_pids"]
        finally:
            proc.kill()
            proc.wait(60)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if not any(_alive(p) for p in pids):
                break
            time.sleep(0.05)
        alive = [p for p in pids if _alive(p)]
        assert not alive, f"orphaned workers after SIGKILL: {alive}"


def test_serve_without_socket_exits_2():
    res = _repro("serve")
    assert res.returncode == 2
    assert "REPRO_SERVE_SOCKET" in res.stderr


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True
