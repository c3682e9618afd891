"""One raising procedure, or one dead worker, must become a structured
failure entry, not abort the sweep — the batch twin of the server's
error path (both go through ``repro.core.tasks.run_task``)."""

import pytest

from repro.core import CONC, analyze_program, conservative_program
from repro.core.analysis import failure_report, run_tasks
from repro.core.tasks import AnalysisTask
from repro.lang import parse_program, typecheck

TWO_PROCS_BPL = """
procedure good(x: int) returns (r: int)
  ensures r >= x;
{
  r := x + 1;
}

procedure boom(x: int) returns (r: int)
  ensures r >= x;
{
  r := x + 2;
}
"""


@pytest.fixture()
def program():
    return typecheck(parse_program(TWO_PROCS_BPL))


@pytest.fixture()
def exploding_sibs(monkeypatch):
    """Make the SIB search raise for the procedure named ``boom``."""
    import repro.core.analysis as analysis_mod
    real = analysis_mod.find_abstract_sibs

    def fake(program, proc_name, **kwargs):
        if proc_name == "boom":
            raise ValueError("synthetic analysis bug")
        return real(program, proc_name, **kwargs)

    monkeypatch.setattr(analysis_mod, "find_abstract_sibs", fake)


class TestAnalyzeFailureContainment:
    def test_one_raising_proc_does_not_abort_the_sweep(self, program,
                                                       exploding_sibs):
        rep = analyze_program(program, config=CONC,
                              proc_names=["good", "boom"])
        assert [r.proc_name for r in rep.reports] == ["good", "boom"]
        good, boom = rep.reports
        assert not good.failed
        assert good.status is not None
        assert boom.failed
        assert boom.failure == {"type": "ValueError",
                                "message": "synthetic analysis bug"}
        assert rep.n_failures == 1
        assert rep.failed_procs == ["boom"]

    def test_failed_procs_excluded_from_averages(self, program,
                                                 exploding_sibs):
        rep = analyze_program(program, config=CONC,
                              proc_names=["good", "boom"])
        # avg over the one non-failed report, not 2
        assert rep.avg("seconds") == rep.reports[0].seconds

    def test_failure_entries_survive_the_process_pool(self, program):
        # an unknown procedure raises in the worker as it does here; no
        # monkeypatch needed, which spawned workers would not see
        serial = analyze_program(program, config=CONC,
                                 proc_names=["good", "nosuch"])
        parallel = analyze_program(program, config=CONC,
                                   proc_names=["good", "nosuch"], jobs=2)
        assert parallel.n_failures == serial.n_failures == 1
        assert serial.reports[1].failure == {"type": "KeyError",
                                             "message": "'nosuch'"}
        assert parallel.reports[1].failure == serial.reports[1].failure
        assert not parallel.reports[0].failed


class TestConservativeFailureContainment:
    def test_cons_collects_failures_out(self, program, exploding_sibs,
                                        monkeypatch):
        import repro.core.checker as checker_mod
        real = checker_mod.check_procedure

        def fake(program, proc_name, **kwargs):
            if proc_name == "boom":
                raise RuntimeError("cons bug")
            return real(program, proc_name, **kwargs)

        # tasks._run_cons imports check_procedure at call time, so
        # patching the checker module is enough.
        monkeypatch.setattr(checker_mod, "check_procedure", fake)
        failures = {}
        warnings, timeouts = conservative_program(
            program, proc_names=["good", "boom"], failures_out=failures)
        assert warnings["boom"] == []
        assert warnings["good"] is not None
        assert failures == {"boom": {"type": "RuntimeError",
                                     "message": "cons bug"}}


def test_dead_worker_becomes_a_failure_entry():
    results = run_tasks([AnalysisTask(kind="crash"),
                         AnalysisTask(kind="echo", payload=1)], jobs=2)
    crash, echo = results
    assert crash.failure["type"] == "worker_crash"
    assert echo.failure is None
    assert echo.value == 1


def test_failure_report_shape():
    rep = failure_report("p", "Conc", {"type": "KeyError", "message": "k"})
    assert rep.failed and rep.proc_name == "p"
    assert rep.failure == {"type": "KeyError", "message": "k"}
    assert not rep.timed_out
