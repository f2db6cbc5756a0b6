"""Fixtures shared by every test module."""

import pytest

from zlab import model, special


@pytest.fixture(autouse=True)
def clear_memos():
    """Start every test with empty memos of the lag-free stationary terms.

    No test then passes only because an earlier one filled a cache, and a
    test that monkeypatches model internals sees them run.
    """
    model._stationary_sigma2_integrals.cache_clear()
    special._l2_norm_f_squared.cache_clear()
