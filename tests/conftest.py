import os
import re

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


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes forked during the test. Forks are real:
    ``os.fork`` is wrapped to record each child it starts."""
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(experiments.os, "fork", recording)
    monkeypatch.delenv("GRANGER_LAB_THREADS", raising=False)
    return pids

