"""Fixtures shared by every test."""

import pytest

from repro.core.deadfail import clear_baseline_cache


@pytest.fixture(autouse=True)
def _empty_memo():
    """Start each test with an empty in-process memo, as a fresh process
    does: an entry that an earlier test left would answer without the
    solver (fingerprints are name-independent, so another suite's
    content-identical procedure counts too)."""
    clear_baseline_cache()
