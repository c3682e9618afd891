"""The ``Budget`` lifecycle (documented in ``docs/cli.md``)."""

import pytest

from repro.core.deadfail import AnalysisTimeout, Budget


def test_unbounded_budget_never_expires():
    b = Budget(None)
    b.check()  # no-op
    assert b.remaining() is None


def test_zero_budget_is_born_expired():
    b = Budget(0)
    with pytest.raises(AnalysisTimeout):
        b.check()
    assert b.remaining() == 0.0


def test_negative_budget_is_born_expired():
    b = Budget(-1)
    with pytest.raises(AnalysisTimeout):
        b.check()
    assert b.remaining() == 0.0


def test_positive_budget_checks_and_counts_down():
    b = Budget(60.0)
    b.check()  # far from the deadline: passes
    rem = b.remaining()
    assert rem is not None and 0.0 < rem <= 60.0


def test_expiry_raises_analysis_timeout():
    b = Budget(60.0)
    b.deadline -= 120.0  # wind the absolute deadline into the past
    with pytest.raises(AnalysisTimeout):
        b.check()
    assert b.remaining() == 0.0
