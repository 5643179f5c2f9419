import sys

import pytest
from qtorus.qseries import clear_memos


@pytest.fixture(autouse=True)
def cold_memos():
    """Each test starts and ends with every registered memo and cache empty
    (``qseries.clear_memos``), so a test that patches or spies on a layer sees
    it run instead of a value that an earlier test left behind."""
    clear_memos()
    yield
    clear_memos()


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
