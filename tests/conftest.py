import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from acceptance_lines import ACCEPTANCE_LINES  # noqa: E402

# Acceptance criteria register their PASS/FAIL lines in ACCEPTANCE_LINES;
# the summary hook prints them after the run, outside pytest's capture.


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
