"""The environment of a child interpreter that the tests start.

pytest reads src from pyproject's pythonpath into its own sys.path, but a
child such as ``python -m cfdim`` does not inherit that, so every spawn
passes ``env=child_env()``.  A child writes no bytecode: a stray
``__pycache__`` under src would make the checkout start faster than a
fresh copy of the same code, and so skew any timing taken from it.
"""

import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def child_env():
    """This process's environment, writing no bytecode, with the checkout's src on PYTHONPATH."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    return env
