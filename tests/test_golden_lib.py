"""Library values pinned group by group (see golden_lib for the groups and the rewriter)."""

import golden_lib


def test_every_library_group_keeps_its_rows():
    # a group that moves on purpose is rewritten by `python tests/golden_lib.py`;
    # `--rows GROUP` in the parent tree and in the change shows the rows that moved
    table = golden_lib.read_table()
    assert sorted(table) == sorted(golden_lib.GROUPS)
    moved = [group for group in golden_lib.GROUPS
             if golden_lib.digest(golden_lib.rows(group))
             != (table[group]["cases"], table[group]["sha256"])]
    assert moved == []
