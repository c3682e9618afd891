#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per-layer
metrics, every output checked against a reference.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--out FILE]

Without ``--workload`` every workload runs in turn.  Each workload runs
in a fresh ``python -m e2ebench.child`` process, after ``src`` has been
byte-compiled, with its own scratch directory under ``.bench_tmp/``.
Untraced runs report the end-to-end metrics; ``--trace`` runs the
workload untraced and then traced, each for half the window, and reports
the per-layer metrics plus ``trace.overhead_ratio``.  ``--out`` writes
the traced run's spans as JSON lines.

Human-readable results go to stdout; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when any output differs from its reference, 2 when the checkout has no
``src/repro`` to benchmark.  See ``benchmarks/e2e/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
E2E = ROOT / "benchmarks" / "e2e"
sys.path.insert(0, str(E2E))

from e2ebench.metrics import E2E_UNITS, LAYER_UNITS  # noqa: E402

WORKLOADS = ("sweep", "certified", "ci_edits")
#: The workload processes measuring one workload may take this long
#: together before the running one is killed.
TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: float, trace: int,
              tmp: Path, deadline: float) -> dict:
    """Run one workload in a fresh process, killed with everything it
    started if it is still running at ``deadline`` (``time.monotonic``)
    or this process is stopped; returns its outcome dict."""
    tmp.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(E2E)])
    env["TMPDIR"] = str(tmp)
    for var in ("REPRO_CACHE_DIR", "REPRO_SERVE_SOCKET"):
        env.pop(var, None)
    cmd = [sys.executable, "-m", "e2ebench.child", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--tmp", str(tmp)]
    if trace:
        cmd += ["--out", str(tmp / "spans.jsonl")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        kill_group(proc)
        raise SystemExit(f"error: {workload} did not finish within "
                         f"{TIMEOUT_S}s")
    except BaseException:
        kill_group(proc)
        raise
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the workload process's session and wait for the process."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def measure(workload: str, args, scratch: Path, spans_out) -> dict:
    """One workload's result: ``correct``/``attempted``/``failed``, the
    reference checks, and its metrics as ``{name: value}``."""
    deadline = time.monotonic() + TIMEOUT_S
    if not args.trace:
        res = run_child(workload, args.seed, args.seconds, 0,
                        scratch / "run", deadline)
        return {**res, "metrics": {n: res["e2e"][n] for n in E2E_UNITS}}
    # The untraced and the traced run share the window.
    base = run_child(workload, args.seed, args.seconds / 2, 0,
                     scratch / "untraced", deadline)
    res = run_child(workload, args.seed, args.seconds / 2, 1,
                    scratch / "traced", deadline)
    metrics = dict(res["layers"])
    metrics["trace.overhead_ratio"] = (base["e2e"]["throughput_per_s"]
                                       / res["e2e"]["throughput_per_s"])
    if spans_out is not None:
        with open(scratch / "traced" / "spans.jsonl") as fh:
            for line in fh:
                spans_out.write(json.dumps(
                    {"workload": workload, **json.loads(line)}) + "\n")
    checks = {k: base["checks"][k] + res["checks"][k] for k in res["checks"]}
    return {**res, "checks": checks, "metrics": metrics}


def report(workload: str, res: dict, units: dict) -> None:
    wrong = sum(res["checks"].values())
    checks = " ".join(f"{k}={v}" for k, v in sorted(res["checks"].items()))
    print(f"{workload}: {res['attempted']} units in {res['rounds']} rounds, "
          f"{res['failed']} failed, wrong_outputs={wrong} ({checks})")
    for name in units:
        print(f"  {name:<40} {res['metrics'][name]:>14.6g} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="run the repository benchmark (see "
                    "benchmarks/e2e/README.md)")
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="run one workload (default: all three)")
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; 0 reproduces the suites' "
                         "historical seeds (default 0)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured window per run (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="report per-layer metrics from a traced run")
    ap.add_argument("--out", type=Path, default=None,
                    help="with --trace: write every span as JSON lines")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT} to benchmark",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads(
            (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        print("error: src does not byte-compile", file=sys.stderr)
        return 2

    # Stopped by SIGTERM, unwind so that run_child kills the workload.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    units = LAYER_UNITS if args.trace else E2E_UNITS
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    base = ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    spans_out = open(args.out, "w") if args.trace and args.out else None
    results = {}
    try:
        for workload in workloads:
            scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
            try:
                results[workload] = measure(workload, args, scratch,
                                            spans_out)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            report(workload, results[workload], units)
    finally:
        if spans_out is not None:
            spans_out.close()

    correct = all(sum(r["checks"].values()) == 0 for r in results.values())
    metrics = {}
    for workload, res in results.items():
        prefix = "" if len(results) == 1 else f"{workload}."
        for name, unit in units.items():
            metrics[prefix + name] = {"value": res["metrics"][name],
                                      "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
