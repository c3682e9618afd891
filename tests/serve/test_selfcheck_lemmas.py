"""Serving with ``self_check`` on must be invisible in the results *and*
in the certificates: the reports a warm daemon produces for a fig5
suite are identical — modulo wall-clock fields — to the batch sweep's,
every answer is certificate-checked, and no theory lemma is ever taken
on trust."""

from dataclasses import fields

import pytest

from repro.bench import compile_suite, make_suite
from repro.core import CONC, analyze_program
from repro.serve import ServeClient, ServerThread

# wall-clock / machine-local fields excluded from the equality check
_VOLATILE = {"seconds", "phases", "budget_remaining", "solver_stats",
             "queries", "cache_hits", "queries_saved", "certificates"}


def _stable(report):
    return [{f.name: getattr(r, f.name) for f in fields(r)
             if f.name not in _VOLATILE} for r in report.reports]


def _cert_totals(report):
    totals: dict = {}
    for r in report.reports:
        for k, v in r.certificates.items():
            if k == "check_wall":  # wall clock: present but not compared
                continue
            totals[k] = totals.get(k, 0) + v
    return totals


@pytest.fixture(scope="module")
def suite():
    return make_suite("moufilter", scale=0.5)


def test_served_selfcheck_matches_batch_and_trusts_nothing(tmp_path, suite):
    names = [f.name for f in suite.functions]
    program = compile_suite(suite)
    batch = analyze_program(program, config=CONC, proc_names=names,
                            self_check=True)

    sock = str(tmp_path / "s.sock")
    with ServerThread(sock, pool_size=2, queue_limit=32):
        with ServeClient(sock) as client:
            served = client.analyze(suite.c_source, lang="c", procs=names,
                                    self_check=True)

    assert _stable(served) == _stable(batch)

    batch_certs = _cert_totals(batch)
    served_certs = _cert_totals(served)
    assert served_certs == batch_certs
    # self-check actually took effect on both sides...
    assert batch_certs["sat_checked"] + batch_certs["unsat_checked"] > 0
    # ...and with checked_theory_lemmas on (the default) no certificate
    # on either side fell back to trusting a lemma
    assert batch_certs["lemmas_trusted"] == 0
    assert served_certs["lemmas_trusted"] == 0
