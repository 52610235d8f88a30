"""Exact continued fraction cylinders, critical exponents and covering bounds.

The package splits into six layers: exact digit-word arithmetic
(cfcore), high precision zeta tails (special), index sequences and
digit sets (sequences), covering machinery with critical exponents
(dimension), constructive schedules with the size/separation/Holder
checks (construction), and closed-form dimension values (hirst).  The
cli module exposes all of it as the ``cfdim`` command.  The package
exports the names in the ``__all__`` of each layer and of errors.
"""

__version__ = "0.1.0"

from . import cfcore, construction, dimension, errors, hirst, sequences, special
from .cfcore import *  # noqa: F401,F403
from .construction import *  # noqa: F401,F403
from .dimension import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .hirst import *  # noqa: F401,F403
from .sequences import *  # noqa: F401,F403
from .special import *  # noqa: F401,F403

__all__ = [name for layer in (cfcore, special, sequences, dimension, construction, hirst, errors)
           for name in layer.__all__]
