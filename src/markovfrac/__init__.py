"""Exact arithmetic for the Markov fraction tree and exceptional bundle slopes.

The package constructs the tree of Markov fractions generated from 0/1
and 1/2 by the quadratic mediant, the slope function on dyadic rationals
whose image is the same tree, and the Diophantine invariants attached to
each fraction: free intervals with surd endpoints, best-approximation
constants, the interval-length sum converging to 1/2, congruence
solutions, and denominator-growth estimates.  All comparisons and
identities are evaluated exactly; floating point appears only in
explicitly approximate outputs.

The package namespace is each module's `__all__`, joined in import order.
"""

from . import analysis, exact, farey, markov, slopes
from .exact import *
from .farey import *
from .markov import *
from .slopes import *
from .analysis import *

__version__ = "0.1.0"

__all__ = [*exact.__all__, *farey.__all__, *markov.__all__, *slopes.__all__, *analysis.__all__]
