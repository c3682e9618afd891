"""Command-line driver, modeled on the original ACSpec tool (§5):

    "It accepts a source file in the Boogie language and a list of
     abstractions as input.  It outputs whether the procedure has a SIB
     under the abstractions, searches for the set of almost-correct
     specifications in the predicate vocabulary allowed by the
     abstractions, and prints the set of errors induced by the
     specifications."

Usage::

    python -m repro [--c] [--config NAME]... [--prune-k K]
                    [--timeout SECONDS] [--proc NAME] [--jobs N]
                    [--cache-dir DIR | --no-cache] [--self-check] FILE
    python -m repro serve  [--socket ADDR] [--pool N] [--queue-limit N] ...
    python -m repro submit [--socket ADDR] [--c] ... FILE
    python -m repro ci     DIR [--manifest PATH] [--jobs N] ...

``--c`` treats FILE as mini-C (the HAVOC path); otherwise it is parsed as
the mini-Boogie surface syntax.  ``--config`` may repeat (default: Conc);
``--proc`` restricts to one procedure.  ``--cache-dir`` (default: the
``REPRO_CACHE_DIR`` environment variable) enables the persistent
analysis cache, making re-runs on unchanged procedures near-instant;
``--no-cache`` turns it off regardless.

``serve`` runs the persistent analysis daemon (`repro.serve`) on
``--socket`` (default: the ``REPRO_SERVE_SOCKET`` environment variable,
mirroring the ``REPRO_CACHE_DIR`` pattern); ``submit`` sends a file
to a running daemon and prints *exactly* what the batch invocation
would print for the same flags — CI diffs the two.  ``ci`` is the
repo-scale incremental mode (``docs/ci_mode.md``): it ingests every
source under DIR, re-analyzes only what changed since the manifest's
previous run (plus spec-dependent callers), and exits 1 exactly when
the run introduced *new* warnings.  Every flag and every exit code is
documented with examples in ``docs/cli.md``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .core import BY_NAME, CONC, analyze_program
from .core.sib import SibStatus
from .frontend import compile_c
from .lang import parse_program, typecheck


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro",
        description="ACSpec: rank modular-verifier warnings by the "
                    "almost-correct specifications that induce them.")
    ap.add_argument("file", help="input program (mini-Boogie, or mini-C "
                                 "with --c)")
    ap.add_argument("--c", action="store_true", dest="c_mode",
                    help="treat the input as mini-C (HAVOC-style lowering)")
    ap.add_argument("--config", action="append", dest="configs",
                    metavar="NAME", choices=sorted(BY_NAME),
                    help="abstract configuration (repeatable; default Conc)")
    ap.add_argument("--prune-k", type=int, default=None, metavar="K",
                    help="clause pruning bound (§4.3); default: no pruning")
    ap.add_argument("--timeout", type=float, default=10.0,
                    help="per-procedure timeout in seconds (default 10, "
                         "as in the paper)")
    ap.add_argument("--proc", default=None,
                    help="analyze only this procedure")
    ap.add_argument("--unroll", type=int, default=2,
                    help="loop unrolling depth (default 2, as in the paper)")
    ap.add_argument("--bug-classes", metavar="SPEC", default=None,
                    help="comma-separated automatic assertion families the "
                         "mini-C lowering inserts (e.g. 'use-after-free,"
                         "divide-by-zero'; aliases: 'default', 'all').  "
                         "Only meaningful with --c; see docs/scenarios.md")
    ap.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="analyze procedures in N worker processes "
                         "(default 1: serial, deterministic)")
    ap.add_argument("--cache-dir", metavar="DIR",
                    default=os.environ.get("REPRO_CACHE_DIR"),
                    help="persistent analysis cache directory (default: "
                         "$REPRO_CACHE_DIR); unchanged procedures are "
                         "served from disk instead of re-analyzed")
    ap.add_argument("--no-cache", action="store_true",
                    help="disable the persistent cache even if "
                         "--cache-dir / $REPRO_CACHE_DIR is set")
    ap.add_argument("--self-check", action="store_true",
                    help="certificate-check every solver answer: unsat "
                         "answers must carry a DRUP proof accepted by the "
                         "standalone checker, sat answers a model "
                         "satisfying all asserted formulas (exit 3 on any "
                         "rejection)")
    ap.add_argument("--show-cons", action="store_true",
                    help="also print the conservative verifier's warnings")
    ap.add_argument("--triage", action="store_true",
                    help="run every configuration plus the doomed-point "
                         "check and print one confidence-ordered list")
    return ap


def _default_socket() -> str | None:
    return os.environ.get("REPRO_SERVE_SOCKET")


def _add_socket_flag(ap: argparse.ArgumentParser) -> None:
    ap.add_argument("--socket", metavar="ADDR", default=_default_socket(),
                    help="analysis-service address: a Unix socket path or "
                         "host:port (default: $REPRO_SERVE_SOCKET)")


def build_serve_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro serve",
        description="run the persistent analysis daemon: a warm worker "
                    "pool behind a JSON-lines socket protocol (see "
                    "docs/serving.md)")
    _add_socket_flag(ap)
    ap.add_argument("--pool", type=int, default=2, metavar="N",
                    help="number of persistent worker processes (default 2)")
    ap.add_argument("--queue-limit", type=int, default=64, metavar="N",
                    help="max distinct in-flight computations before "
                         "submissions are rejected with retry-after "
                         "(default 64)")
    ap.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                    help="default per-request wall deadline (requests may "
                         "override; default: none)")
    ap.add_argument("--cache-dir", metavar="DIR",
                    default=os.environ.get("REPRO_CACHE_DIR"),
                    help="persistent analysis cache shared by all workers "
                         "(default: $REPRO_CACHE_DIR)")
    ap.add_argument("--no-cache", action="store_true",
                    help="disable the persistent cache even if "
                         "--cache-dir / $REPRO_CACHE_DIR is set")
    ap.add_argument("--no-coalesce", action="store_true",
                    help="disable in-flight request coalescing")
    return ap


def build_submit_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro submit",
        description="submit a file to a running analysis daemon; output "
                    "is identical to the batch invocation with the same "
                    "flags")
    ap.add_argument("file", help="input program (mini-Boogie, or mini-C "
                                 "with --c)")
    _add_socket_flag(ap)
    ap.add_argument("--c", action="store_true", dest="c_mode",
                    help="treat the input as mini-C (HAVOC-style lowering)")
    ap.add_argument("--config", action="append", dest="configs",
                    metavar="NAME", choices=sorted(BY_NAME),
                    help="abstract configuration (repeatable; default Conc)")
    ap.add_argument("--prune-k", type=int, default=None, metavar="K",
                    help="clause pruning bound (§4.3); default: no pruning")
    ap.add_argument("--timeout", type=float, default=10.0,
                    help="per-procedure timeout in seconds (default 10)")
    ap.add_argument("--proc", default=None,
                    help="analyze only this procedure")
    ap.add_argument("--unroll", type=int, default=2,
                    help="loop unrolling depth (default 2)")
    ap.add_argument("--deadline", type=float, default=None,
                    metavar="SECONDS",
                    help="per-request wall deadline enforced by the server "
                         "(expired procedures come back as failures)")
    ap.add_argument("--self-check", action="store_true",
                    help="certificate-check every solver answer (exit 3 on "
                         "any rejection, as in batch mode)")
    ap.add_argument("--show-cons", action="store_true",
                    help="also print the conservative verifier's warnings")
    return ap


def build_ci_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="repro ci",
        description="repo-scale incremental analysis: re-analyze only the "
                    "procedures a diff can affect — changed/renamed/new "
                    "ones plus direct callers of spec-changed callees — "
                    "against the previous run's manifest (docs/ci_mode.md)")
    ap.add_argument("dir", help="repository root: every .bpl/.c under it "
                                "is ingested as one program")
    ap.add_argument("--manifest", metavar="PATH", default=None,
                    help="manifest file recording the previous run "
                         "(default: DIR/.repro-manifest.json); read before "
                         "the run, rewritten after")
    ap.add_argument("--config", default="Conc", metavar="NAME",
                    choices=sorted(BY_NAME),
                    help="abstract configuration (default Conc); changing "
                         "it invalidates the whole manifest")
    ap.add_argument("--prune-k", type=int, default=None, metavar="K",
                    help="clause pruning bound (§4.3); default: no pruning")
    ap.add_argument("--timeout", type=float, default=10.0,
                    help="per-procedure timeout in seconds (default 10)")
    ap.add_argument("--unroll", type=int, default=2,
                    help="loop unrolling depth (default 2)")
    ap.add_argument("--max-preds", type=int, default=12, metavar="N",
                    help="predicate vocabulary bound (default 12)")
    ap.add_argument("--bug-classes", metavar="SPEC", default=None,
                    help="comma-separated automatic assertion families the "
                         "mini-C lowering inserts (aliases: 'default', "
                         "'all'); part of the manifest's config "
                         "fingerprint, so changing it invalidates the "
                         "manifest (docs/scenarios.md)")
    ap.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="run the dirty set on a pool of N worker "
                         "processes, in plan order (default 1: serial)")
    ap.add_argument("--cache-dir", metavar="DIR",
                    default=os.environ.get("REPRO_CACHE_DIR"),
                    help="persistent analysis cache (default: "
                         "$REPRO_CACHE_DIR); renamed/moved procedures "
                         "re-serve with zero solver work")
    ap.add_argument("--no-cache", action="store_true",
                    help="disable the persistent cache even if "
                         "--cache-dir / $REPRO_CACHE_DIR is set")
    ap.add_argument("--delta-out", metavar="FILE", default=None,
                    help="also write the canonical warning-delta JSON "
                         "(byte-stable; CI diffs it against a golden)")
    return ap


def run_ci_cmd(argv: list[str], out=sys.stdout) -> int:
    args = build_ci_parser().parse_args(argv)
    from .core.incremental import render_delta, run_ci
    from .frontend.ingest import IngestError
    from .smt.api import CertificateError
    manifest_path = args.manifest or os.path.join(
        args.dir, ".repro-manifest.json")
    cache_dir = None if args.no_cache else args.cache_dir
    bug_classes = None
    if args.bug_classes is not None:
        from .scenarios.classes import parse_bug_classes
        try:
            bug_classes = parse_bug_classes(args.bug_classes)
        except ValueError as exc:
            print(f"error: --bug-classes: {exc}", file=sys.stderr)
            return 2
    try:
        result = run_ci(args.dir, manifest_path,
                        config=BY_NAME[args.config], prune_k=args.prune_k,
                        timeout=args.timeout, unroll_depth=args.unroll,
                        max_preds=args.max_preds, jobs=args.jobs,
                        cache_dir=cache_dir, bug_classes=bug_classes)
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"certificate rejected: {exc}", file=sys.stderr)
        return 3

    plan, stats = result.plan, result.stats
    counts = plan.counts()
    print(f"ci: {stats['files']} files, {stats['procedures']} procedures; "
          f"analyzing {stats['analyzed']} "
          f"({counts['changed']} changed, {counts['renamed']} renamed, "
          f"{counts['new']} new, {counts['dependent']} dependent), "
          f"{counts['clean']} clean [{plan.reason}]", file=out)
    for name in plan.order:
        report = result.reports[name]
        header = f"{name} [{args.config}]"
        if report.timed_out:
            print(f"{header}: TIMEOUT", file=out)
        elif report.failed:
            ftype = report.failure.get("type", "unknown")
            fmsg = report.failure.get("message", "")
            print(f"{header}: FAILED ({ftype}: {fmsg})", file=out)
        else:
            print(f"{header}: {report.status}", file=out)
            for w in report.warnings:
                print(f"  WARNING {w}", file=out)
    for cls in ("high", "cons"):
        d = result.delta[cls]
        print(f"delta[{cls}]: {len(d['new'])} new, {len(d['fixed'])} fixed, "
              f"{len(d['unchanged'])} unchanged", file=out)
        new_by_bug = {b: c["new"] for b, c in d.get("bug_classes",
                                                    {}).items() if c["new"]}
        if new_by_bug:
            print("  new by class: " + ", ".join(
                f"{b}={n}" for b, n in sorted(new_by_bug.items())),
                file=out)
        for w in d["new"]:
            print(f"  NEW {w}", file=out)

    if args.delta_out:
        with open(args.delta_out, "w") as fh:
            fh.write(render_delta(result.delta))
    if result.failed_procs:
        return 4
    return 1 if result.new_warnings else 0


def run_serve(argv: list[str], out=sys.stdout) -> int:
    ap = build_serve_parser()
    args = ap.parse_args(argv)
    if args.pool < 1:
        ap.error("--pool must be at least 1")
    if args.queue_limit < 1:
        ap.error("--queue-limit must be at least 1")
    if not args.socket:
        print("error: serve needs --socket or $REPRO_SERVE_SOCKET",
              file=sys.stderr)
        return 2
    from .serve import run_server
    cache_dir = None if args.no_cache else args.cache_dir
    print(f"repro serve: listening on {args.socket} "
          f"(pool={args.pool}, queue_limit={args.queue_limit}, "
          f"cache={'on' if cache_dir else 'off'})", file=out, flush=True)
    try:
        run_server(args.socket, pool_size=args.pool,
                   queue_limit=args.queue_limit, cache_dir=cache_dir,
                   default_deadline=args.deadline,
                   coalesce=not args.no_coalesce)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("repro serve: drained, exiting", file=out, flush=True)
    return 0


def run_submit(argv: list[str], out=sys.stdout) -> int:
    args = build_submit_parser().parse_args(argv)
    if not args.socket:
        print("error: submit needs --socket or $REPRO_SERVE_SOCKET",
              file=sys.stderr)
        return 2
    try:
        source = open(args.file).read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from .serve import ServeClient, ServeError
    configs = [BY_NAME[n] for n in (args.configs or ["Conc"])]
    procs = [args.proc] if args.proc is not None else None
    by_key = {}
    proc_names: list[str] = []
    client = ServeClient(args.socket)
    try:
        for config in configs:
            rep = client.analyze(
                source, lang="c" if args.c_mode else "boogie",
                config=config.name, procs=procs, prune_k=args.prune_k,
                timeout=args.timeout, unroll=args.unroll,
                self_check=args.self_check, deadline=args.deadline)
            proc_names = [r.proc_name for r in rep.reports]
            for r in rep.reports:
                by_key[(r.proc_name, config.name)] = r
    except ServeError as exc:
        if exc.code == "bad_request" and "no such procedures" in str(exc):
            print(f"error: no procedure named {args.proc!r}",
                  file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()
    for report in by_key.values():
        if report.failed and report.failure.get("type") == "CertificateError":
            print(f"certificate rejected: "
                  f"{report.failure.get('message', '')}", file=sys.stderr)
            return 3
    any_warning, any_failure = _print_reports(
        by_key, proc_names, configs, args.prune_k, args.show_cons, out)
    if any_failure:
        return 4
    return 1 if any_warning else 0


def _print_reports(by_key, proc_names, configs, prune_k, show_cons,
                   out) -> tuple[bool, bool]:
    """Render per-procedure reports exactly the same way for the batch
    and submit paths (CI diffs their outputs byte-for-byte)."""
    from .scenarios.classes import bug_class_of
    any_warning = False
    any_failure = False
    bug_counts: dict = {}
    for name in proc_names:
        for config in configs:
            report = by_key[(name, config.name)]
            header = f"{name} [{config.name}" + \
                (f", k={prune_k}" if prune_k is not None else "") + "]"
            if report.timed_out:
                print(f"{header}: TIMEOUT", file=out)
                continue
            if report.failed:
                any_failure = True
                ftype = report.failure.get("type", "unknown")
                fmsg = report.failure.get("message", "")
                print(f"{header}: FAILED ({ftype}: {fmsg})", file=out)
                continue
            print(f"{header}: {report.status}", file=out)
            if show_cons and report.conservative_warnings:
                print(f"  conservative warnings: "
                      f"{', '.join(report.conservative_warnings)}", file=out)
            for spec in report.specs:
                print(f"  almost-correct spec: {spec}", file=out)
            for w in report.warnings:
                any_warning = True
                bug = bug_class_of(w)
                bug_counts[bug] = bug_counts.get(bug, 0) + 1
                print(f"  WARNING {w}", file=out)
    if bug_counts:
        print("warnings by bug class: " + ", ".join(
            f"{b}={n}" for b, n in sorted(bug_counts.items())), file=out)
    return any_warning, any_failure


def run(argv: list[str] | None = None, out=sys.stdout) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "serve":
        return run_serve(argv[1:], out=out)
    if argv and argv[0] == "submit":
        return run_submit(argv[1:], out=out)
    if argv and argv[0] == "ci":
        return run_ci_cmd(argv[1:], out=out)
    args = build_arg_parser().parse_args(argv)
    try:
        source = open(args.file).read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    bug_classes = None
    if getattr(args, "bug_classes", None) is not None:
        from .scenarios.classes import parse_bug_classes
        try:
            bug_classes = parse_bug_classes(args.bug_classes)
        except ValueError as exc:
            print(f"error: --bug-classes: {exc}", file=sys.stderr)
            return 2
    try:
        if args.c_mode:
            program = compile_c(source, unroll_depth=args.unroll,
                                bug_classes=bug_classes)
        else:
            program = typecheck(parse_program(source))
    except (SyntaxError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cache_dir = None if args.no_cache else args.cache_dir

    from .smt.api import CertificateError

    if args.triage:
        from .core.report import triage_program
        names = [args.proc] if args.proc else None
        if args.proc and args.proc not in program.procedures:
            print(f"error: no procedure named {args.proc!r}", file=sys.stderr)
            return 2
        try:
            report = triage_program(program, prune_k=args.prune_k,
                                    timeout=args.timeout,
                                    unroll_depth=args.unroll, proc_names=names,
                                    cache_dir=cache_dir,
                                    self_check=args.self_check)
        except CertificateError as exc:
            print(f"certificate rejected: {exc}", file=sys.stderr)
            return 3
        for w in report.warnings:
            print(str(w), file=out)
        for name in report.timed_out:
            print(f"[TIMEOUT] {name}", file=out)
        return 1 if report.warnings else 0

    configs = [BY_NAME[n] for n in (args.configs or ["Conc"])]
    if args.proc is not None:
        if args.proc not in program.procedures:
            print(f"error: no procedure named {args.proc!r}", file=sys.stderr)
            return 2
        proc_names = [args.proc]
    else:
        proc_names = [n for n, p in program.procedures.items()
                      if p.body is not None]

    by_key = {}
    try:
        for config in configs:
            rep = analyze_program(
                program, config=config, prune_k=args.prune_k,
                timeout=args.timeout, unroll_depth=args.unroll,
                proc_names=proc_names, jobs=args.jobs, cache_dir=cache_dir,
                self_check=args.self_check)
            for r in rep.reports:
                by_key[(r.proc_name, config.name)] = r
    except CertificateError as exc:
        print(f"certificate rejected: {exc}", file=sys.stderr)
        return 3

    any_warning, any_failure = _print_reports(
        by_key, proc_names, configs, args.prune_k, args.show_cons, out)
    if any_failure:
        return 4
    return 1 if any_warning else 0


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run())
