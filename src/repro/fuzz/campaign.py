"""Fuzzing campaign driver (the engine behind ``tools/fuzz.py``).

Each iteration derives a per-iteration seed from the campaign seed,
generates programs in the fragments the oracles need, and runs:

* the ``roundtrip`` oracle on a general program (every iteration — it
  is nearly free and guards the corpus format itself);
* one heavyweight oracle from a fixed rotation
  (``interp-vs-wp`` → ``brute-vs-solver`` → ``incremental-vs-naive`` →
  ``cache`` → ``theory_justifications`` → ``incremental-vs-naive`` on
  the scenario preset);
* the ``jobs`` oracle every ``jobs_every``-th iteration (each run
  spawns a worker pool, which is expensive).

Solver-backed oracles run with certificate validation on by default, so
a campaign simultaneously fuzzes the solver's self-checking layer: a
:class:`repro.smt.api.CertificateError` is recorded as a certificate
failure, minimized (predicate: "still raises"), and reported alongside
oracle disagreements.

Any finding is delta-debugged (`minimize`) and written into the corpus
directory as a pretty-printed ``.bpl`` file with a machine-readable
header; ``tests/corpus/test_corpus_replay.py`` replays every committed
case on each pytest run, forever.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..lang.ast import Program
from ..lang.parser import parse_program
from ..lang.pretty import pp_program
from ..smt.api import CertificateError
from . import gen
from .gen import GenConfig, ProgramGen
from .minimize import count_stmts, minimize_program
from .oracles import ORACLES

#: heavyweight oracle rotation and the generator preset each one needs
ROTATION: list[tuple[str, GenConfig]] = [
    ("interp-vs-wp", gen.DETERMINISTIC),
    ("brute-vs-solver", gen.BRUTE),
    ("incremental-vs-naive", gen.SOLVER),
    ("cache", gen.SOLVER),
    ("theory_justifications", gen.SOLVER),
    ("incremental-vs-naive", gen.SCENARIOS),
]

_JOBS_CONFIG = gen.MULTIPROC


def iteration_seed(seed: int, i: int) -> int:
    """Stable per-iteration seed (no ``hash()``: that is salted for
    strings and must not leak into reproducibility)."""
    return (seed * 1_000_003 + i * 7919 + 12345) & 0x7FFFFFFF


@dataclass
class CampaignCase:
    """One finding: an oracle disagreement or a certificate rejection."""

    oracle: str
    iteration: int
    rng_seed: int
    detail: str
    source: str               # pretty-printed minimized program
    kind: str = "disagreement"   # or "certificate"
    path: str | None = None   # corpus file, when one was written


@dataclass
class CampaignResult:
    seed: int
    iterations: int
    executed: dict = field(default_factory=dict)   # oracle -> run count
    disagreements: list = field(default_factory=list)
    certificate_failures: list = field(default_factory=list)
    corpus_files: list = field(default_factory=list)
    #: per iteration, in order: (heavyweight or focused oracle, wall s)
    iteration_walls: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements and not self.certificate_failures

    def slowest(self) -> tuple[int, str, float] | None:
        """``(iteration, oracle, seconds)`` of the slowest iteration."""
        if not self.iteration_walls:
            return None
        i = max(range(len(self.iteration_walls)),
                key=lambda i: self.iteration_walls[i][1])
        return (i, *self.iteration_walls[i])


def _case_header(case: CampaignCase, campaign_seed: int) -> str:
    detail = " ".join(case.detail.split())
    if len(detail) > 200:
        detail = detail[:200] + "..."
    return (
        "// fuzz reproducer — replayed forever by "
        "tests/corpus/test_corpus_replay.py\n"
        f"// oracle: {case.oracle}\n"
        f"// rng-seed: {case.rng_seed}\n"
        f"// found: campaign-seed={campaign_seed} "
        f"iteration={case.iteration} kind={case.kind}\n"
        f"// detail: {detail}\n")


def parse_case_header(text: str) -> tuple[str, int]:
    """Extract ``(oracle, rng_seed)`` from a corpus file's comment
    header (the rest of the file is an ordinary mini-Boogie program)."""
    oracle = None
    rng_seed = 0
    for line in text.splitlines():
        if line.startswith("// oracle:"):
            oracle = line.split(":", 1)[1].strip()
        elif line.startswith("// rng-seed:"):
            rng_seed = int(line.split(":", 1)[1].strip())
    if oracle is None:
        raise ValueError("corpus case has no '// oracle:' header line")
    return oracle, rng_seed


def _write_case(case: CampaignCase, campaign_seed: int,
                corpus_dir: str | Path) -> str:
    corpus = Path(corpus_dir)
    corpus.mkdir(parents=True, exist_ok=True)
    name = f"{case.oracle}-s{campaign_seed}-i{case.iteration:04d}.bpl"
    path = corpus / name
    path.write_text(_case_header(case, campaign_seed) + case.source)
    return str(path)


def _minimize_case(oracle: str, program: Program, rng_seed: int,
                   want_certificate_error: bool) -> Program:
    fn = ORACLES[oracle]

    def still_fails(candidate: Program) -> bool:
        try:
            verdict = fn(candidate, random.Random(rng_seed))
        except CertificateError:
            return want_certificate_error
        return (not want_certificate_error) and verdict is not None

    return minimize_program(program, still_fails)


def run_campaign(seed: int = 0, iterations: int = 300,
                 corpus_dir: str | Path | None = None,
                 jobs_every: int = 50,
                 minimize: bool = True,
                 progress=None,
                 only: str | None = None) -> CampaignResult:
    """Run a campaign; never raises on findings — they are collected in
    the result (``result.ok`` is the pass/fail verdict).

    ``corpus_dir`` (usually ``tests/corpus``) receives one minimized
    ``.bpl`` reproducer per finding; ``None`` disables writing.
    ``jobs_every=0`` disables the worker-pool oracle.
    ``only`` focuses every iteration on a single named oracle (the CI
    uses it for targeted campaigns); the rotation, the per-iteration
    ``roundtrip`` guard and the ``jobs`` cadence are skipped.
    """
    result = CampaignResult(seed=seed, iterations=iterations)

    def record(oracle: str, program: Program, rng_seed: int, i: int,
               detail: str, kind: str) -> None:
        if minimize:
            program = _minimize_case(oracle, program, rng_seed,
                                     want_certificate_error=(
                                         kind == "certificate"))
        case = CampaignCase(oracle=oracle, iteration=i, rng_seed=rng_seed,
                            detail=detail, source=pp_program(program),
                            kind=kind)
        if corpus_dir is not None:
            case.path = _write_case(case, seed, corpus_dir)
            result.corpus_files.append(case.path)
        dest = result.certificate_failures if kind == "certificate" \
            else result.disagreements
        dest.append(case)
        if progress is not None:
            progress(f"[{i}] {kind} from {oracle}: {detail} "
                     f"(minimized to {count_stmts(program)} stmts)")

    def run_one(oracle: str, config: GenConfig, s: int, i: int) -> None:
        program = ProgramGen(random.Random(s), config).program()
        rng_seed = s ^ 0x5BF03635
        result.executed[oracle] = result.executed.get(oracle, 0) + 1
        try:
            detail = ORACLES[oracle](program, random.Random(rng_seed))
        except CertificateError as exc:
            record(oracle, program, rng_seed, i,
                   f"certificate rejected: {exc}", "certificate")
            return
        if detail is not None:
            record(oracle, program, rng_seed, i, detail, "disagreement")

    if only is not None and only not in ORACLES:
        raise ValueError(f"unknown oracle {only!r}; "
                         f"known: {sorted(ORACLES)}")
    focus_config = dict(ROTATION, roundtrip=gen.GENERAL,
                        jobs=_JOBS_CONFIG).get(only, gen.SOLVER)

    for i in range(iterations):
        s = iteration_seed(seed, i)
        t0 = time.perf_counter()
        if only is not None:
            run_one(only, focus_config, s + 1, i)
            result.iteration_walls.append((only, time.perf_counter() - t0))
            if progress is not None and (i + 1) % 25 == 0:
                progress(f"{i + 1}/{iterations} iterations (only={only}), "
                         f"{len(result.disagreements)} disagreements, "
                         f"{len(result.certificate_failures)} certificate "
                         f"failures")
            continue
        run_one("roundtrip", gen.GENERAL, s, i)
        heavy, config = ROTATION[i % len(ROTATION)]
        run_one(heavy, config, s + 1, i)
        if jobs_every and (i + 1) % jobs_every == 0:
            run_one("jobs", _JOBS_CONFIG, s + 2, i)
        result.iteration_walls.append((heavy, time.perf_counter() - t0))
        if progress is not None and (i + 1) % 25 == 0:
            progress(f"{i + 1}/{iterations} iterations, "
                     f"{len(result.disagreements)} disagreements, "
                     f"{len(result.certificate_failures)} certificate "
                     f"failures")
    return result


def replay_case_text(text: str) -> str | None:
    """Replay one corpus file's oracle on its program; returns the
    disagreement detail (``None`` = the regression stays fixed)."""
    from ..lang.typecheck import typecheck
    from .oracles import run_oracle
    oracle, rng_seed = parse_case_header(text)
    program = typecheck(parse_program(text))
    return run_oracle(oracle, program, seed=rng_seed)
