"""Shared pytest hooks.

The acceptance suite (tests/test_acceptance.py) doubles as the release
gate, so its outcome is echoed as one PASS/FAIL line per criterion at
the end of every run that includes it.

The process keeps every catalog witness it builds, and tests patch the
builders, so each test starts with that cache empty.
"""

import pytest

from torusdom.construct import best_upper_witness

_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    _ACCEPTANCE_RESULTS.append((name, "PASS" if report.passed else "FAIL"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for name, verdict in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line(f"  {verdict}  {name}")


@pytest.fixture(autouse=True)
def _fresh_witness_cache():
    best_upper_witness.cache_clear()
