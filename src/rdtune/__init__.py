"""rdtune: per-clip tuning of the encoder Lagrange multiplier scale.

The library finds, for each clip, the scale factor k (applied inside the
encoder as lambda = k * lambda0 for targeted frame types) that minimizes
BD-Rate against the clip's own k=1 reference curve.  A synthetic encoder
model makes the whole pipeline runnable on a desk; real patched encoders
plug in through command templates.

The package exports each module's __all__ and the errors module's classes.
"""

from .errors import *
from .lambda_model import *
from .pchip import *
from .rd_curve import *
from .scalar_opt import *
from .encoder_bridge import *
from .sweep import *
from .report import *
from .plot import *

__version__ = "0.1.0"
