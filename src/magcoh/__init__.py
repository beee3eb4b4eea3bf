"""Exact multi-magnon states of the ferromagnetic Heisenberg chain,
their subsystem reductions in magnon-number blocks, basis coherence
measures, and the two-level coherence thermodynamics they generate.
"""

from .errors import *
from .combinat import *
from .magnon_state import *
from .reduced_density import *
from .coherence import *
from .thermo import *
from .verify import *
from . import coherence, combinat, errors, magnon_state, reduced_density, thermo, verify

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *combinat.__all__,
    *magnon_state.__all__,
    *reduced_density.__all__,
    *coherence.__all__,
    *thermo.__all__,
    *verify.__all__,
    "__version__",
]
