"""Toolkit for designing and auditing two-tier weighted voting systems.

Exact Shapley-Shubik and Banzhaf power computation, enumeration of weighted
voting games up to isomorphism, inverse power-index search (choose weights so
the induced power vector approximates target population shares), and a Monte
Carlo simulator of a continuous median-voter model of assembly decisions.

Each module declares its public names in its own ``__all__``; the package
exports exactly those, module by module.
"""

from . import games, power, inverse, simulation, experiments
from .games import *
from .power import *
from .inverse import *
from .simulation import *
from .experiments import *

__all__ = []
__all__ += games.__all__
__all__ += power.__all__
__all__ += inverse.__all__
__all__ += simulation.__all__
__all__ += experiments.__all__

__version__ = "0.1.0"
