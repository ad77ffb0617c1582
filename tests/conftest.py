"""Shared fixtures."""

import pytest

import brpqkd.optimize


@pytest.fixture(autouse=True)
def _empty_reach_memo():
    # each test starts and ends with no remembered reach: a test that counts
    # margin calls must see its own scans, and a reach found under a patched
    # model must not answer the next test
    brpqkd.optimize._reach_memo.clear()
    yield
    brpqkd.optimize._reach_memo.clear()
