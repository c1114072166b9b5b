"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def fake_pool(monkeypatch):
    """Replaces the process pool with one that starts no process.

    Returns the list of pool sizes asked for, one per pool made. The fake
    runs the initializer and maps in this process. The CPU count reads 64,
    so workers and the job count alone set the pool size.
    """
    asked = []

    class InlinePool:
        def __init__(self, max_workers, initializer, initargs):
            asked.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("civgame.experiment.ProcessPoolExecutor", InlinePool)
    # the initializer runs here, so restore what it sets
    monkeypatch.setattr("civgame.experiment._shared_args", ())
    monkeypatch.setattr("civgame.experiment.os.cpu_count", lambda: 64)
    return asked
