import pytest
import qtorus.lie_sl as lie_sl
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
