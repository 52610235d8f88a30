"""Library values pinned group by group (see golden_lib for the groups and the rewriter)."""

import golden_lib
import pytest
from mpmath import mp


def _moved():
    table = golden_lib.read_table()
    assert sorted(table) == sorted(golden_lib.GROUPS)
    return [group for group in golden_lib.GROUPS
            if golden_lib.digest(golden_lib.rows(group))
            != (table[group]["cases"], table[group]["sha256"])]


def test_every_library_group_keeps_its_rows():
    # a group that moves on purpose is rewritten by `python tests/golden_lib.py`;
    # `--rows GROUP` in the parent tree and in the change shows the rows that moved
    assert _moved() == []


@pytest.mark.parametrize("dps", [15, 200])
def test_every_library_group_keeps_its_rows_at_the_callers_precision(dps):
    # a caller's own mpmath precision moves no bit of any result
    with mp.workdps(dps):
        assert _moved() == []
