"""Fixtures and helpers shared by the test modules."""

import pytest

from civgame.agents import QTable


class LoggingQTable(QTable):
    """A QTable that records every learning write.

    `write_log` gets (key, action, old, new, delta) for each `blend`,
    with the value before and after the write.
    """

    def __init__(self) -> None:
        super().__init__()
        self.write_log: list = []

    def blend(self, key, action, delta, alpha):
        old = self.value(key, action)
        super().blend(key, action, delta, alpha)
        self.write_log.append((key, action, old, self.rows[key][action], delta))


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

    # map_jobs imports the pool class from here when it makes a pool
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    # the initializer runs here, so restore what it sets
    monkeypatch.setattr("civgame.experiment._shared_args", ())
    monkeypatch.setattr("civgame.experiment.os.cpu_count", lambda: 64)
    return asked
