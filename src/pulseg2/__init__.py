"""pulseg2: click-stream simulation and second-order coherence estimation.

The package separates what a pulsed-light correlation measurement mixes
together: the quantum state's photon statistics (`states`), the
deterministic pulse shape (`modes`), the stochastic detection record
(`simulate`, `streams`) and the estimators that take the record apart
again (`estimate`).  It republishes the `__all__` of each and of `errors`.
See README.md for the measurement conventions.
"""

from .errors import *
from .estimate import *
from .modes import *
from .simulate import *
from .states import *
from .streams import *

from ._version import __version__
