"""Maximum-length hybrid 90/150 cellular automata.

Enumerates, verifies, and runs every n-cell linear CA built from rules
90 and 150 whose nonzero states form a single cycle of length 2^n - 1.
The library covers the full pipeline: exact GF(2) polynomial
arithmetic, characteristic polynomials of the tridiagonal transition
matrix, primitivity testing, exhaustive rule-vector search, raw
simulation of the automaton as a bit generator, and re-verification of
the bundled n = 2..12 reference table.
"""

from . import automaton, charpoly, enumerator, gf2poly, primitivity, tables
from .automaton import *
from .charpoly import *
from .enumerator import *
from .gf2poly import *
from .primitivity import *
from .tables import *

__version__ = "1.0.0"

# Each module's __all__ is the one list of its public names.
__all__ = sorted(
    automaton.__all__
    + charpoly.__all__
    + enumerator.__all__
    + gf2poly.__all__
    + primitivity.__all__
    + tables.__all__
)
