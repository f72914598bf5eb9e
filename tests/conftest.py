import re
from concurrent.futures import Future

import pytest

from granger_lab import experiments

_ACCEPTANCE = re.compile(r"test_acceptance\.py.*::test_(criterion_\d+)")
_results: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _ACCEPTANCE.search(report.nodeid)
    if match:
        name = match.group(1).replace("_", " ")
        _results[name] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_results, key=lambda s: int(s.split()[1])):
        terminalreporter.write_line(f"{name}: {_results[name]}")


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size, its submit calls
    and its shutdown arguments, and runs tasks inline (no process starts)."""

    sizes: list[int] = []
    submits: list[tuple] = []
    shutdowns: list[dict] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def submit(self, fn, *args):
        self.submits.append(args)
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.shutdowns.append({"wait": wait, "cancel_futures": cancel_futures})


@pytest.fixture
def pool(monkeypatch):
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", _InlinePool)
    for name in ("sizes", "submits", "shutdowns"):
        monkeypatch.setattr(_InlinePool, name, [])
    monkeypatch.delenv("GRANGER_LAB_THREADS", raising=False)
    return _InlinePool
