"""Pulse-width-modulation toolkit for quantum control.

Approximate continuous control fields by bang-bang pulse trains, propagate
the resulting dynamics with cached-eigenbasis steps (including higher-order
compositions), optimize pulses by exact-gradient descent, and compare the
analytic cost of the schemes.
"""

from . import costmodel, grape, model, propagate, pwm
from .costmodel import *  # noqa: F403
from .grape import *  # noqa: F403
from .model import *  # noqa: F403
from .propagate import *  # noqa: F403
from .pwm import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted({*costmodel.__all__, *grape.__all__, *model.__all__, *propagate.__all__,
                  *pwm.__all__})
