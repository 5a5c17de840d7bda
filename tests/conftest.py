import importlib

import pytest
from per_w_caches import per_w_caches

PER_W_CACHES = per_w_caches()
SWEEP = importlib.import_module("hesscells.sweep")


@pytest.fixture(autouse=True)
def empty_per_w_caches():
    # a per-w cache keeps its last w across tests, and so does the sweep's
    # table memo for `run_case`: an entry computed under one test's
    # monkeypatch must not answer for the next test
    for cached in PER_W_CACHES:
        cached.cache_clear()
    SWEEP._TABLES.clear()
