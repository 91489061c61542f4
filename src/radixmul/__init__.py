"""Bit-exact, cycle-accurate simulator of a digit-serial unsigned multiplier.

The modeled design consumes the multiplier k bits per clock cycle:
precomputed odd multiples of the multiplicand feed a multiplexer, a
barrel shifter turns the selected odd multiple into the digit's partial
product, and a carry-save plus ripple-carry central adder accumulates
it, emitting k product bits per cycle. A classical shift-and-add
multiplier and a native-integer oracle serve as independent references.
"""

from . import baseline, datapath, engine, word
from .baseline import *
from .datapath import *
from .engine import *
from .word import *

__version__ = "0.1.0"

__all__ = sorted([*baseline.__all__, *datapath.__all__, *engine.__all__, *word.__all__])
