"""Bit-exact, cycle-accurate simulator of a digit-serial unsigned multiplier.

The modeled design consumes the multiplier k bits per clock cycle:
precomputed odd multiples of the multiplicand feed a multiplexer, a
barrel shifter turns the selected odd multiple into the digit's partial
product, and a carry-save plus ripple-carry central adder accumulates
it, emitting k product bits per cycle. A classical shift-and-add
multiplier and a native-integer oracle serve as independent references.
"""

from .baseline import (
    ComparisonReport,
    ProductMismatchError,
    compare,
    oracle_multiply,
    shift_add_multiply,
)
from .datapath import (
    AdderSizingError,
    ControlError,
    CsaResult,
    DigitDecomposition,
    MultipleTable,
    barrel_shift,
    build_multiple_table,
    central_adder_step,
    csa,
    decompose_digit,
    mux_select,
    rca,
)
from .engine import (
    ConfigError,
    CycleRecord,
    FlushPolicy,
    SimConfig,
    SimResult,
    assemble_product,
    cycle_count_model,
    from_trace_dict,
    simulate,
    to_trace_dict,
    to_trace_json,
    verify_trace_dict,
)
from .word import (
    Digit,
    WidthMismatchError,
    WidthOverflowError,
    Word,
    parse_binary,
    parse_uint,
    parse_word,
    split_digits,
)

__version__ = "0.1.0"

__all__ = [
    "AdderSizingError",
    "ComparisonReport",
    "ConfigError",
    "ControlError",
    "CsaResult",
    "CycleRecord",
    "Digit",
    "DigitDecomposition",
    "FlushPolicy",
    "MultipleTable",
    "ProductMismatchError",
    "SimConfig",
    "SimResult",
    "WidthMismatchError",
    "WidthOverflowError",
    "Word",
    "assemble_product",
    "barrel_shift",
    "build_multiple_table",
    "central_adder_step",
    "compare",
    "csa",
    "cycle_count_model",
    "decompose_digit",
    "from_trace_dict",
    "mux_select",
    "oracle_multiply",
    "parse_binary",
    "parse_uint",
    "parse_word",
    "rca",
    "shift_add_multiply",
    "simulate",
    "split_digits",
    "to_trace_dict",
    "to_trace_json",
    "verify_trace_dict",
]
