"""The environment of a child interpreter that the tests start.

pytest reads src from pyproject's pythonpath into its own sys.path, but a
child such as ``python -m cfdim`` does not inherit that, so every spawn
passes ``env=child_env()``.
"""

import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def child_env():
    """This process's environment with the checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    return env
