import re
import sys

from hypothesis import settings

# the suite leaves no __pycache__ under src, which would make that tree
# start faster than a fresh copy of the same code (see spawn.child_env)
sys.dont_write_bytecode = True

# Every property test draws the same examples on every run and keeps no
# example database; example counts are set per test.
settings.register_profile("cfdim", derandomize=True, deadline=None, database=None)
settings.load_profile("cfdim")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per acceptance criterion at the end of the run."""
    rows = []
    for key, label in (
        ("passed", "PASS"),
        ("failed", "FAIL"),
        ("error", "FAIL (error)"),
        ("xfailed", "XFAIL (deviation from a documented claim, expected failure)"),
        ("xpassed", "FAIL (unexpected pass of a documented deviation)"),
    ):
        for rep in terminalreporter.stats.get(key, []):
            m = re.search(r"test_(criterion_\d+[a-z]?)_(\w+)", rep.nodeid)
            if m:
                rows.append((m.group(1), m.group(2), label))
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for crit, name, label in sorted(set(rows)):
        terminalreporter.write_line("%s (%s): %s" % (crit, name, label))
