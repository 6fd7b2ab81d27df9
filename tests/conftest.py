"""Shared pytest hooks: collects the acceptance PASS/FAIL lines and echoes
them in the terminal summary so they are visible without -s.  Also loads
the one hypothesis profile every property test runs under: no per-example
deadline, and examples derived from the test itself, so runs repeat."""
import pytest
from hypothesis import settings

settings.register_profile("etsgd", deadline=None, derandomize=True)
settings.load_profile("etsgd")

_ACCEPTANCE_LINES: list = []


@pytest.fixture(scope="session")
def criterion_report():
    """Reporter for acceptance tests: prints one line, records it, asserts."""

    def report(num: int, ok: bool, detail: str) -> None:
        line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
        print(line)
        _ACCEPTANCE_LINES.append(line)
        assert ok, line

    return report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES, key=_criterion_number):
            terminalreporter.write_line(line)


def _criterion_number(line: str) -> int:
    return int(line.split("criterion ")[1].split(":")[0])
