import pytest

from smallpoints.numeric import clear_tables


@pytest.fixture
def fresh_tables():
    """Every process-wide table empty, as in a fresh process, when the test starts and ends."""
    clear_tables()
    yield
    clear_tables()
