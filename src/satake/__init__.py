"""Exact computational toolkit for Satake diagrams of real forms.

Encode a painted Dynkin diagram with arrow pairings, compute the node
involution and lattice involution it induces, extract restricted roots
with multiplicities, classify the catalogued real forms by whether the
induced involution is trivial, and report what that implies for real
structures on spherical homogeneous spaces.
"""

# a public name is declared once, in the __all__ of the module that defines it
from .diagram import *
from .errors import *
from .involution import *
from .realforms import *
from .rootsys import *
from .verdict import *

__version__ = "0.1.0"

__all__ = (diagram.__all__ + errors.__all__ + involution.__all__
           + realforms.__all__ + rootsys.__all__ + verdict.__all__)
