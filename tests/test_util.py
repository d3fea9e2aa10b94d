import numpy as np

from cuspcorr.util import parallel_map, rademacher, worker_count


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("CCL_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("CCL_THREADS", "0")
    assert worker_count() == 1
    monkeypatch.delenv("CCL_THREADS")
    assert worker_count() >= 1


def test_parallel_map_preserves_order(monkeypatch):
    items = list(range(37))
    monkeypatch.setenv("CCL_THREADS", "4")
    assert parallel_map(lambda x: x * x, items) == [x * x for x in items]
    monkeypatch.setenv("CCL_THREADS", "1")
    assert parallel_map(lambda x: x * x, items) == [x * x for x in items]


def test_rademacher_seeded():
    a = rademacher(100, 7)
    b = rademacher(100, 7)
    assert np.array_equal(a, b)
    assert set(np.unique(a)) <= {-1.0, 1.0}
    assert not np.array_equal(a, rademacher(100, 8))
