"""Library values pinned group by group (see golden_lib for the groups and the rewriter)."""

import os
import shutil
import subprocess
import sys

import golden_lib
import pytest
from mpmath import mp
from spawn import child_env

_ROOT = os.path.dirname(golden_lib.HERE)


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


def _rows_against(tree):
    child = subprocess.run([sys.executable, os.path.join(golden_lib.HERE, "golden_lib.py"),
                            "--rows", "special.series", "--against", tree],
                           env=child_env(), capture_output=True, text=True)
    assert (child.returncode, child.stderr) == (0, "")
    return child.stdout


def test_rows_against_this_tree_differ_nowhere():
    assert _rows_against(_ROOT) == ""


def test_rows_against_another_tree_show_each_row_that_differs(tmp_path):
    # a copy of src whose exponent refusal reads "limit" for "cap": the
    # three rows of zeta("1e7"), one per context, differ, and no other
    shutil.copytree(os.path.join(_ROOT, "src", "cfdim"), tmp_path / "src" / "cfdim")
    special = tmp_path / "src" / "cfdim" / "special.py"
    special.write_text(special.read_text().replace('"exponent cap is', '"exponent limit is'))
    lines = _rows_against(str(tmp_path)).splitlines()
    assert len(lines) == 9
    for index, there, here in zip(lines[::3], lines[1::3], lines[2::3]):
        assert index.isdigit()
        assert there.startswith("- ") and "zeta('1e7'" in there and "exponent limit is" in there
        assert here == "+ " + there[2:].replace("exponent limit is", "exponent cap is")
