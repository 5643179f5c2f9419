import pytest
import qtorus.voa_characters as voa_characters


@pytest.fixture(autouse=True)
def cold_cone_sums():
    """Each test starts and ends with an empty cone-sum memo, so a test that
    patches the window or the specialization walks it instead of reading a
    grid that an earlier test left behind."""
    voa_characters._cone_sums.clear()
    yield voa_characters._cone_sums
    voa_characters._cone_sums.clear()
