"""Exact characteristic-number lattices of highly connected manifolds.

Everything is computed in exact integer and rational arithmetic: Bernoulli
and tangent numbers at large index, the genus coefficients available on
highly connected manifolds, the invariants of the two standard plumbings,
the lattices of realizable characteristic numbers, the divisibility
constants for signatures and A-hat genera of bundles over surfaces, and a
verification harness for the long-range number-theoretic scans.
"""

from . import bernoulli, bundles, exact, genera, lattices, plumbing, verify
from .exact import *  # noqa: F403
from .bernoulli import *  # noqa: F403
from .genera import *  # noqa: F403
from .plumbing import *  # noqa: F403
from .lattices import *  # noqa: F403
from .bundles import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = (
    exact.__all__
    + bernoulli.__all__
    + genera.__all__
    + plumbing.__all__
    + lattices.__all__
    + bundles.__all__
    + verify.__all__
)
