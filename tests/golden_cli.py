"""The committed table of CLI outputs, and the helper that rewrites it.

    python tests/golden_cli.py    # rewrite tests/golden_cli.jsonl from this tree

Each line of golden_cli.jsonl is one command: its argv, its exit code,
its stdout and its stderr, all from ``cfdim.cli.main`` run in this
process.  test_cli runs every row and compares every field, so a change
that moves one byte of any output names the rows it moved.

The argvs are frozen in the file.  They are the 26 CLI_MATRIX argvs of
the acceptance tests and the seeded argvs of the benchmark's ``cli``
workload for seeds 1, 2 and 3, each distinct argv once, then one
refusal for each of the exit codes 2, 3 and 4.  The rewriter keeps the
argvs and recomputes everything else, so a row added by hand needs only
its argv.

Rewriting the table changes a check: a change that moves a row names
the row and the reason.  A new envelope version moves every row, so
such a change rewrites the whole table in the same commit.
"""

import contextlib
import io
import json
import os
import sys

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.jsonl")


def run(argv):
    """One row: argv, exit code, stdout and stderr of cfdim.cli.main(argv)."""
    from cfdim.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def read_rows():
    with open(TABLE, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    rows = [run(row["argv"]) for row in read_rows()]
    with open(TABLE, "w", encoding="utf-8") as f:
        f.writelines(json.dumps(row) + "\n" for row in rows)
    print("%d rows written to %s" % (len(rows), TABLE))


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(TABLE)), "src"))
    main()
