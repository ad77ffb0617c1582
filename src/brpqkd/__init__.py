"""Security analysis for weak-pulse QKD links protected by bright reference pulses.

The package is layered: photon statistics at the bottom, the analytic
security model on top of that, then searches/sweeps, a pulse-level Monte
Carlo validator, an optical-chain link budget, and a CLI that fronts the
lot (``brp-qkd``).

Each layer's ``__all__`` is the only list of its public names; the
package re-exports them all, in this order.
"""

from . import params, photon_stats, security, optimize, montecarlo, linkbudget
from .params import *
from .photon_stats import *
from .security import *
from .optimize import *
from .montecarlo import *
from .linkbudget import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *params.__all__,
    *photon_stats.__all__,
    *security.__all__,
    *optimize.__all__,
    *montecarlo.__all__,
    *linkbudget.__all__,
]
