"""Prints one status line per acceptance criterion after the run, keyed on
test_criterion_<n> functions in test_acceptance.py, and fails any test that
leaves a thread it started running."""

import re
import threading

import pytest
from hypothesis import settings

# The same examples on every run: derandomized generation, and no example
# database replaying failures from earlier runs. Tests keep their own
# max_examples.
settings.register_profile("mwetag", derandomize=True, database=None, deadline=None)
settings.load_profile("mwetag")

CRITERIA = {
    1: "harmonic-mean identities on published totals",
    2: "chain CRF matches brute-force enumeration",
    3: "finite-difference gradient suite",
    4: "synthetic-corpus overfit, both heads",
    5: "labelling and corpus round-trips",
    6: "orphan-filtering ablation direction",
    7: "baseline feature contract and overfit",
    8: "end-to-end determinism",
    9: "seen/unseen split on real data (optional)",
}

_results: dict[int, str] = {}


@pytest.fixture(autouse=True)
def no_thread_left_behind():
    """Fail a test that leaves a thread it started running."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before]
    assert not left, f"threads still running after the test: {left}"


def _criterion_number(nodeid: str):
    match = re.search(r"test_criterion_(\d+)", nodeid)
    return int(match.group(1)) if match else None


def pytest_runtest_logreport(report):
    number = _criterion_number(report.nodeid)
    if number is None:
        return
    if report.skipped:
        _results[number] = "skipped"
    elif report.when == "call":
        _results[number] = report.outcome
    elif report.failed:
        _results[number] = "failed"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    status_text = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}
    for number in sorted(_results):
        status = status_text.get(_results[number], _results[number])
        label = CRITERIA.get(number, "")
        terminalreporter.write_line(f"criterion {number}: {status} - {label}")
