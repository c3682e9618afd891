"""Helpers shared by the workloads: fixed parameters, set-up timing, the
measuring window, the reference clock, the outcome shape a workload
returns."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The checkout root (``benchmarks/e2e/e2ebench/common.py`` -> root).
ROOT = Path(__file__).resolve().parents[3]
#: Fixed per-workload parameters (scales, tail percentile, edit mix).
PARAMS_FILE = ROOT / "benchmarks" / "e2e" / "workloads.json"
#: Rounds every run makes however long they take, so that each unit has
#: several timings to take the median of.
MIN_ROUNDS = 3
#: Seconds :func:`reference_seconds` takes on the 2-vCPU machine the
#: benchmark was sized on when nothing else loads it (about the 5th
#: percentile of 8000 samples; the median was 0.83 ms).
REFERENCE_S = 0.0005
#: Units timed between two reference samples, in wall seconds.
CHUNK_S = 0.02


def load_params(workload: str) -> dict:
    return json.loads(PARAMS_FILE.read_text())[workload]


def python(*args: str) -> list:
    """A command line running this interpreter."""
    return [sys.executable, *args]


def timed_command(cmd: list, ok_codes=(0,)) -> float:
    """Wall seconds of one subprocess run, which must exit with one of
    ``ok_codes``."""
    # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
    # which would quantise the measurement.
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    if proc.returncode not in ok_codes:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return wall


def import_setup_s() -> float:
    """Wall seconds of a fresh interpreter importing the analysis stack —
    the set-up every CLI run pays."""
    return timed_command(python(
        "-c", "import repro.bench.runner, repro.core.tasks"))


def reference_seconds() -> float:
    """Wall seconds of one fixed pure-Python computation: the benchmark's
    own code, so no change to the program moves it, only the machine."""
    t0 = time.perf_counter()
    table: dict = {}
    for i in range(3000):
        key = (i % 97, i & 15)
        table[key] = table.get(key, 0) + 1
    return time.perf_counter() - t0


class ReferenceClock:
    """Converts measured wall seconds to *reference seconds*: what they
    would have been on a machine running :func:`reference_seconds` in
    ``REFERENCE_S``.

    On a shared host the speed of the same code drifts by a factor of up
    to two over minutes, and a whole run can fall in a slow phase.  So
    timed work is cut into chunks of about ``CHUNK_S``, the reference is
    timed between chunks, and each chunk's times are scaled by
    ``REFERENCE_S`` over the mean of the two reference samples around it.
    A chunk ends after the unit that fills it, so a longer unit (a CI
    run, a set-up) is a chunk of its own."""

    def __init__(self):
        self._before = reference_seconds()
        self._pending: list = []
        self._scaled: list = []
        #: mean reference sample of every chunk, over ``REFERENCE_S``
        self.slowdowns: list = []

    def add(self, seconds: float) -> None:
        """Record one timed unit's wall seconds."""
        self._pending.append(seconds)
        if sum(self._pending) >= CHUNK_S:
            self._close()

    def _close(self) -> None:
        after = reference_seconds()
        slowdown = (self._before + after) / 2 / REFERENCE_S
        self.slowdowns.append(slowdown)
        self._scaled.extend(t / slowdown for t in self._pending)
        self._before, self._pending = after, []

    def take(self) -> list:
        """Reference seconds of every unit recorded since the last call,
        in the order recorded."""
        if self._pending:
            self._close()
        scaled, self._scaled = self._scaled, []
        return scaled

    def slowdown(self) -> float:
        """The median chunk's slowdown against the reference machine."""
        return statistics.median(self.slowdowns)


def measuring_rounds(seconds: float):
    """Round numbers 0, 1, ... for a window of ``seconds``: at least
    ``MIN_ROUNDS``, and another one while it would be at least half done
    when the window ends, judged by the last round's length."""
    start = last = time.perf_counter()
    done = 0
    while True:
        now = time.perf_counter()
        if done >= MIN_ROUNDS and now + (now - last) / 2 > start + seconds:
            return
        last = now
        yield done
        done += 1


def outcome(*, attempted: int, failed: int, checks: dict, e2e: dict,
            layers: dict | None, rounds: int) -> dict:
    """What a workload returns.  ``checks`` maps each reference check to
    its number of mismatching outputs (0 = passed)."""
    return {"attempted": attempted, "failed": failed, "checks": checks,
            "e2e": e2e, "layers": layers, "rounds": rounds}
