"""Shared fixtures; collects acceptance verdicts for the terminal summary.

Property tests run under one hypothesis profile: each test seeds its
examples from a hash of the test function, nothing is stored between runs,
and there is no per-example deadline, so every run checks the same
examples.
"""

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

acceptance_lines = []


@pytest.fixture(scope="session")
def record_criterion():
    """Append one pass/fail line per acceptance criterion to the summary."""

    def record(number: int, label: str, passed: bool, detail: str = ""):
        verdict = "PASS" if passed else "FAIL"
        line = f"criterion {number} {verdict} - {label}"
        if detail:
            line += f" ({detail})"
        acceptance_lines.append(line)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_lines:
        return
    terminalreporter.section("acceptance summary")
    for line in sorted(acceptance_lines):
        terminalreporter.write_line(line)
