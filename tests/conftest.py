"""Shared fixtures: sweep reports and the acceptance-criterion recorder."""

import pytest

from braidinv.hecke import FAMILY_TAGS, family_words
from braidinv.verify import run_equality_sweep

_criterion_lines = []


@pytest.fixture(scope="session")
def record_criterion():
    """Print and collect one pass/fail line per acceptance criterion."""
    def record(number: int, ok: bool, detail: str) -> None:
        line = f"[{'OK' if ok else 'FAIL'}] criterion {number:>2}: {detail}"
        _criterion_lines.append(line)
        print(line)
        assert ok, line
    return record


@pytest.fixture(scope="session")
def s4_report():
    return run_equality_sweep(family_words("S4"), audit_fraction=0.01)


@pytest.fixture(scope="session")
def s5_report():
    words = [cw for tag in FAMILY_TAGS[1:] for cw in family_words(tag)]
    return run_equality_sweep(words, audit_fraction=0.01)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_criterion_lines):
            terminalreporter.write_line(line)
