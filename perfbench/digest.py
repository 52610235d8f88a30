"""Stdout digests of cfdim CLI commands, for byte-identity checks across trees.

    python3 perfbench/digest.py --seed 1                   # digests of this tree
    python3 perfbench/digest.py --seed 1 --against ../base # compare with another tree

Run from the repository root.  The commands are the 26 CLI_MATRIX argvs
of the acceptance tests followed by the seeded argvs of the ``cli``
workload for the given seed (which include ``dim cover --threads 2``).
Each line is ``<sha256 of stdout> <exit code> <argv as JSON>``.  With
``--against`` the same commands run in both trees and every command
whose stdout or exit code differs is listed; the exit code is 1 when
any differs.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def digests(root, argvs):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = os.path.join(root, "src")
    out = []
    for argv in argvs:
        proc = subprocess.run([sys.executable, "-m", "cfdim"] + argv, cwd=root, env=env,
                              stdin=subprocess.DEVNULL, capture_output=True, timeout=300)
        out.append("%s %d %s" % (hashlib.sha256(proc.stdout).hexdigest(), proc.returncode,
                                 json.dumps(argv)))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--against", help="root of another checkout to compare with")
    args = ap.parse_args(argv)
    argvs = workloads.CLI_MATRIX + workloads.cli_argvs(args.seed)
    here = digests(os.getcwd(), argvs)
    if args.against is None:
        print("\n".join(here))
        return 0
    there = digests(os.path.abspath(args.against), argvs)
    differ = [(a, b) for a, b in zip(here, there) if a != b]
    for a, b in differ:
        print("differs: %s\n   here: %s\n  there: %s" % (a.split(" ", 2)[2], a[:70], b[:70]))
    print("%d of %d commands differ" % (len(differ), len(argvs)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
