"""Danceability of twisted virtual knot diagrams.

Parse extended Gauss codes (classical and virtual crossings plus twist
bars), decide whether n dancers can trace the diagram in k-path routes under
the forward or matching rule with an over-first / under-first crossing
discipline, produce witness schedules, and minimize dancer counts.

Each module's ``__all__`` is the one list of its public names; the package
re-exports every one of them.
"""

from . import codec, facing, model, scheduler, solver
from .codec import *
from .facing import *
from .model import *
from .scheduler import *
from .solver import *

__version__ = "0.1.0"

__all__ = []
__all__ += codec.__all__
__all__ += facing.__all__
__all__ += model.__all__
__all__ += scheduler.__all__
__all__ += solver.__all__
