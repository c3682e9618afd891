"""Spans recorded from outside the program, around calls into each layer.

A traced run replaces public callables at the module names their callers
look them up under (``repro.core.sib.predicate_cover``,
``repro.smt.api.Solver.check``, ...) with wrappers that record one span
per call: name, start, end, parent span and the benchmark unit it ran
for.  :meth:`Tracer.restore` puts every original back.  Spans stay in
memory; :meth:`Tracer.write` dumps them as JSON lines when the run ends.

A layer's *self time* is the summed duration of its spans minus the part
covered by their child spans.  In-process workloads are single-threaded,
so spans nest strictly and a stack gives each span its parent.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager, nullcontext

#: (module, attribute, span name) of every in-process call site traced.
#: A callable imported by name into several modules is wrapped in each,
#: because each module resolves its own global.
IN_PROCESS_SITES = (
    ("repro.bench.runner", "compile_c", "frontend.compile"),
    ("repro.frontend.lower", "compile_c", "frontend.compile"),
    ("repro.core.incremental", "ingest_directory", "frontend.ingest"),
    ("repro.frontend.ingest", "parse_program", "lang.parse"),
    ("repro.frontend.ingest", "typecheck", "lang.typecheck"),
    ("repro.lang.typecheck", "typecheck", "lang.typecheck"),
    ("repro.lang.transform", "prepare_procedure", "lang.prepare"),
    ("repro.core.sib", "prepare_procedure", "lang.prepare"),
    ("repro.core.analysis", "prepare_procedure", "lang.prepare"),
    ("repro.core.checker", "prepare_procedure", "lang.prepare"),
    ("repro.core.sib", "EncodedProcedure", "vc.encode"),
    ("repro.core.checker", "EncodedProcedure", "vc.encode"),
    ("repro.core.cache", "procedure_fingerprint", "vc.fingerprint"),
    ("repro.core.incremental", "procedure_fingerprint", "vc.fingerprint"),
    ("repro.core.sib", "mine_predicates", "core.predicates"),
    ("repro.core.sib", "predicate_cover", "core.cover"),
    ("repro.core.sib", "find_almost_correct_specs", "core.acspec"),
    ("repro.core.deadfail", "DeadFailOracle.conservative_fail",
     "core.deadfail.baseline"),
    ("repro.smt.api", "Solver.check", "smt.check"),
    ("repro.core.cache", "AnalysisCache.load_analysis", "core.cache.load"),
    ("repro.core.cache", "AnalysisCache.store_analysis", "core.cache.store"),
    ("repro.core.incremental", "plan_increment", "core.incremental.plan"),
    ("repro.core.incremental", "load_manifest", "core.incremental.manifest"),
    ("repro.core.incremental", "save_manifest", "core.incremental.manifest"),
)


def unit_span(tracer, unit):
    """The root span of one benchmark unit, or nothing when untraced."""
    if tracer is None:
        return nullcontext()
    tracer.unit = unit
    return tracer.span("bench.unit")


class Tracer:
    """In-memory span recorder.  A span is the tuple ``(name, start,
    end, parent index or None, unit id)``; its index in :attr:`spans` is
    its id."""

    def __init__(self):
        self.spans: list = []
        self.unit = None
        self._stack: list[int] = []
        self._patches: list = []
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """One span around the enclosed code."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[sid] = (name, start, time.perf_counter(), parent,
                               self.unit)
            self._stack.pop()

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def install(self, sites=IN_PROCESS_SITES) -> None:
        """Wrap every ``(module, "attr" | "Class.method", span)`` site."""
        for module_name, path, name in sites:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._wrap(owner, attr, name)

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        span = self.span

        def traced(*args, **kwargs):
            with span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # reduction and output
    # ------------------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """``(calls, self_seconds)`` per span name."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] is not None:
                covered[span[3]] += span[2] - span[1]
        calls: dict = {}
        self_s: dict = {}
        for sid, span in enumerate(self.spans):
            if span is None:
                continue
            name = span[0]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = (self_s.get(name, 0.0)
                            + (span[2] - span[1]) - covered[sid])
        return calls, self_s

    def write(self, path) -> None:
        """One JSON object per span: id, name, start/end in seconds since
        the tracer was created, parent id, unit id."""
        with open(path, "w") as fh:
            for sid, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, unit = span
                fh.write(json.dumps({
                    "id": sid, "name": name,
                    "start": start - self._t0, "end": end - self._t0,
                    "parent": parent, "unit": unit}) + "\n")
