import pytest
from per_w_caches import per_w_caches

PER_W_CACHES = per_w_caches()


@pytest.fixture(autouse=True)
def empty_per_w_caches():
    # a per-w cache keeps its last w across tests, and an entry computed
    # under one test's monkeypatch must not answer for the next test
    for cached in PER_W_CACHES:
        cached.cache_clear()
