"""PASS/FAIL lines of the acceptance criteria, collected during the run.

A module of its own rather than a name in conftest.py: bench/ has a
conftest.py too, and when both directories are collected in one session
`import conftest` may resolve to either of them.
"""

ACCEPTANCE_LINES = []
