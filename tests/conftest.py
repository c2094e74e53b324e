"""Fixtures every test module shares."""
import pytest

from qrewrite import engine


@pytest.fixture(autouse=True)
def empty_window_memo():
    """Each test starts with no memoized window verdict, so a verdict decided
    in one test never answers a later test that patches what the decision
    reads (`sim.STATE_VECTORS`, `sim.apply_gate`, ...)."""
    engine._gates_equal_on.cache_clear()
    engine._window_circuits_equal.cache_clear()
