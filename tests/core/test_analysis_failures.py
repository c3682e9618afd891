"""One raising procedure must become a structured failure entry, not
abort the sweep — the batch twin of the server's error path (both go
through ``repro.core.tasks.run_task``)."""

import multiprocessing

import pytest

from repro.core import CONC, analyze_program, conservative_program
from repro.core.analysis import failure_report
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

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="monkeypatch only propagates into fork-started workers")
    def test_failure_entries_survive_the_process_pool(self, program,
                                                      exploding_sibs):
        serial = analyze_program(program, config=CONC,
                                 proc_names=["good", "boom"])
        parallel = analyze_program(program, config=CONC,
                                   proc_names=["good", "boom"], jobs=2)
        assert parallel.n_failures == serial.n_failures == 1
        assert parallel.reports[1].failure == serial.reports[1].failure


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


def test_failure_report_shape():
    rep = failure_report("p", "Conc", {"type": "KeyError", "message": "k"})
    assert rep.failed and rep.proc_name == "p"
    assert rep.failure == {"type": "KeyError", "message": "k"}
    assert not rep.timed_out
