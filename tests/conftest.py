import sys

import pytest
import qtorus.lie_sl as lie_sl
import qtorus.link_invariants as link_invariants
import qtorus.voa_characters as voa_characters


@pytest.fixture(autouse=True)
def cold_cone_sums():
    """Each test starts and ends with empty cone-sum and cone-window memos, so
    a test that patches the window or the specialization walks it instead of
    reading a grid or a window that an earlier test left behind."""
    voa_characters._cone_sums.clear()
    lie_sl._windows.clear()
    yield voa_characters._cone_sums
    voa_characters._cone_sums.clear()
    lie_sl._windows.clear()


@pytest.fixture(autouse=True)
def cold_cut_sums():
    """Each test starts and ends with an empty memo of cut invariant sums, so a
    test that spies on the adder, the Kostka table or the window sees a build
    instead of a prefix read of a grid that an earlier test left behind."""
    link_invariants._cut_sums.clear()
    yield link_invariants._cut_sums
    link_invariants._cut_sums.clear()


@pytest.fixture
def replace_everywhere(monkeypatch):
    """``replace(orig, new)`` points every qtorus namespace that holds ``orig``
    at ``new``, as a tracer that wraps a module function does: a module that
    imported the function by name looks it up in its own namespace.  Undone
    with the test."""
    def replace(orig, new):
        for name, module in list(sys.modules.items()):
            if name == "qtorus" or name.startswith("qtorus."):
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        monkeypatch.setattr(module, attr, new)
    return replace
