import pytest

import besforge.driver


@pytest.fixture(autouse=True)
def _empty_host_cache():
    """The driver keeps the last host's pair multigraph across solves; start
    every test without it, so no test depends on which host ran before."""
    besforge.driver._last_host = None
