"""Cycle-accurate simulation loop, configuration, and trace machinery.

The engine wires the datapath blocks into the per-cycle schedule: the
multiplier register chain streams one k-bit digit per clock, each digit
is decomposed into mux and shifter controls, the resulting partial
product runs through the central adder, k product bits are emitted, and
the remainder feeds back. Once the digits are shifted out the register
reads 0, so a flush cycle is a digit-0 cycle: the mux routes its
constant-zero line and the residue drains into the output registers.
Every cycle runs the same path; only its record marks a flush cycle,
with a null digit.

The loop is one integer kernel, _run. The ladder (datapath._ladder),
the digit decode, the mux, the barrel shift and the central adder
(datapath._central_step, its one implementation) all run on plain
ints, and the residue, the partial product, the emitted bits and the
product are ints from cycle to cycle: each cycle's emission is folded
into the product at bit cycle * k, as the output registers shift it
into place. _run returns the product and the cycle count, and builds
a CycleRecord per cycle only when it is handed a list: simulate hands
it one and wraps the records in its SimResult, and baseline.compare,
which reads only the product and the count, hands it None. Word
appears only at the boundary: the operands' widths are checked on
entry, and simulate wraps the 2n-bit product on exit. The digit
decode is a lookup in the decoder's fixed per-k control table
(datapath._controls), the same table that wires the ladder. The
independent model is the generator _native_records, which yields the
run's records one at a time by native arithmetic. The trace checker
reads it, and the tests check every record of simulate against it and
every record's decode, mux and shift against datapath's Word-level
views (decompose_digit, mux_select, barrel_shift) over
build_multiple_table.

The width checks that per-cycle Words would make are made on the ints
instead, and _run makes all of them by one rule, Word's: a register of
w bits holds a value exactly when value >> w is 0, which is nonzero
both for a value too wide and, the registers being unsigned, for any
negative value. Every register fault raises AdderSizingError; the
datapath's integer blocks have no error path. The operands' widths are
checked on entry; every ladder entry is checked against n + k bits
once per ladder build, so every partial product (an entry shifted by
at most k - 1) fits the barrel shifter's n + 2k - 1 output bits; masking keeps
the emitted bits within k; the residue is checked against n bits every
cycle, and the product against its 2n-bit register, with the residue
left after the last cycle folded in above the emitted bits. So the
central adder only ever adds a residue and a partial product that
their registers hold, and no fault in a value can hang a run. The
adder's width is checked once, when SimConfig enforces its floor of
n + k + 2 lines: a sum of 2^adder_width or more would leave a next
residue of at least 2^(n+2), so the residue check shows on every cycle
that each sum fit the adder. No run goes past full_width_cycles, the
emission slots of all 2n bits, so an early_stop run whose residue never
drains ends there and raises that error.

The initial adders build the multiplicand's odd multiples once, and the
mux and shifter only select and shift them, so _run holds the last
ladder it checked, entry 0 being the zero line, as one module-level
tuple keyed on the multiplicand's value, n, k and the builder
(_ladder, so a replaced builder is always run). It builds and checks a
ladder only when that key changes, never holds one that fails its
check, and reads and replaces key and ladder as one tuple, so no run,
in any thread, pairs one key with another run's ladder. A decoder
table that selects a line the ladder lacks raises ControlError.

The trace format lives in the writer, to_trace_dict and to_trace_json.
verify_trace_dict reads only a document's inputs, walks its records
beside those of _native_records (digit * a by multiplication, the
adder as + and shifts), stopping at the first that differs, and
accepts the document exactly when it is the one the writer gives.
"""

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import NamedTuple

from .datapath import _MAX_K, AdderSizingError, ControlError, _central_step, _controls, _ladder
from .word import Word

__all__ = [
    "ConfigError",
    "CycleRecord",
    "FlushPolicy",
    "SimConfig",
    "SimResult",
    "cycle_count_model",
    "simulate",
    "to_trace_dict",
    "to_trace_json",
    "verify_trace_dict",
]


class ConfigError(ValueError):
    """A simulation configuration the datapath cannot support."""


class FlushPolicy(Enum):
    """How post-digit cycles drain the residue.

    FULL_WIDTH always runs enough cycles to emit all 2n product bits,
    making the cycle count operand-independent. EARLY_STOP stops as
    soon as the digits are consumed and the residue is empty, making
    runtime depend on the multiplier.
    """

    FULL_WIDTH = "full_width"
    EARLY_STOP = "early_stop"


_CONFIG_TYPES = (
    ("n", (int,), "an int"),
    ("k", (int,), "an int"),
    ("adder_width", (int, type(None)), "an int or None"),
    ("clock_period_ns", (int, float), "an int or a float"),
    ("load_delay_ns", (int, float), "an int or a float"),
)


@dataclass(frozen=True)
class SimConfig:
    """Datapath geometry and timing parameters.

    The fields, their defaults and the checks below are the
    configuration's one description: the CLI takes its flag
    destinations, its help-text defaults and its limits on n and k from
    them, and the trace document's config block has one key per field.
    n defaults to 16 and k to 3, the paper's reference width and digit,
    so SimConfig() is the reference design; adder_width defaults to
    n + 3k (25 input lines there). The residue stays below
    2^n: if r < 2^n then r + digit * A < 2^(n+k), so the next residue,
    the sum shifted right by k, is below 2^n again, and n + k lines hold
    every sum. The enforced floor is still n + k + 2 lines, two above
    what that proof needs. The floor is checked once, here: a run checks
    the 2^n residue bound on every cycle, and a sum of 2^adder_width or
    more would leave a residue of at least 2^(n+2), so that one check
    also shows every sum fit the adder. k is at most 16: the ladder and
    the decoder's control table grow as 2^k. A config is frozen, and so hashable, and
    the checks hold for its lifetime: assigning a field raises
    dataclasses.FrozenInstanceError, and dataclasses.replace builds a
    new config through the same checks.

    Two cycle bounds are set here too, once, as plain attributes that
    are not fields (so no repr, comparison or trace document holds
    them) and that cannot be assigned: digit_cycles, the digit-consuming
    cycles, one per k-bit chunk of the padded multiplier, ceil(n/k); and
    full_width_cycles, the emission slots for all 2n product bits,
    ceil(2n/k), never fewer than digit_cycles.
    """

    n: int = 16
    k: int = 3
    adder_width: int | None = None
    clock_period_ns: float = 40.0
    load_delay_ns: float = 30.0
    flush_policy: FlushPolicy = FlushPolicy.FULL_WIDTH

    def __post_init__(self):
        # exact types: True is not a width and 16.0 not a count, in code and in a trace
        for name, types, need in _CONFIG_TYPES:
            value = getattr(self, name)
            if type(value) not in types:
                raise ConfigError(f"{name} is {value!r} ({type(value).__name__}), "
                                  f"need {need}")
        if self.adder_width is None:
            object.__setattr__(self, "adder_width", self.n + 3 * self.k)
        try:
            object.__setattr__(self, "flush_policy", FlushPolicy(self.flush_policy))
        except ValueError:
            raise ConfigError(f"unknown flush policy {self.flush_policy!r}") from None
        if not 1 <= self.k <= self.n:
            raise ConfigError(f"need 1 <= k <= n, got n={self.n} k={self.k}")
        object.__setattr__(self, "digit_cycles", -(-self.n // self.k))
        object.__setattr__(self, "full_width_cycles", -(-2 * self.n // self.k))
        if self.k > _MAX_K:
            raise ConfigError(f"k {self.k} above the maximum digit width {_MAX_K}")
        if self.adder_width < self.n + self.k + 2:
            raise ConfigError(
                f"adder_width {self.adder_width} below minimum "
                f"{self.n + self.k + 2} for n={self.n} k={self.k}"
            )
        try:
            if not (math.isfinite(self.clock_period_ns) and self.clock_period_ns > 0):
                raise ConfigError("clock_period_ns must be positive and finite")
            if not (math.isfinite(self.load_delay_ns) and self.load_delay_ns >= 0):
                raise ConfigError("load_delay_ns must be non-negative and finite")
            if not math.isfinite(self.total_time_ns(self.full_width_cycles)):
                raise ConfigError("clock_period_ns is so large that the total time overflows")
        except OverflowError:
            # an int timing, or the total time, too large to convert to a float
            raise ConfigError("clock_period_ns or load_delay_ns overflows a float, "
                              "alone or in the total time") from None

    def total_time_ns(self, cycles: int) -> float:
        """Load delay plus one clock period per cycle."""
        return self.load_delay_ns + cycles * self.clock_period_ns


class CycleRecord(NamedTuple):
    """What one clock cycle did; flush cycles carry digit=None."""

    cycle: int
    digit: int | None
    odd_core: int
    shift: int
    pp: int
    residue_before: int
    residue_after: int
    emitted: int


@dataclass
class SimResult:
    """A run's inputs, its 2n-bit product and its per-cycle records.

    cycles (one per record), total_time_ns and digit_cycles are read-only.
    """

    a: Word
    b: Word
    config: SimConfig
    product: Word
    trace: list[CycleRecord] = field(repr=False)

    @property
    def cycles(self) -> int:
        return len(self.trace)

    @property
    def total_time_ns(self) -> float:
        return self.config.total_time_ns(self.cycles)

    @property
    def digit_cycles(self) -> int:
        return self.config.digit_cycles


def simulate(a: Word, b: Word, cfg: SimConfig) -> SimResult:
    """Run the digit-serial multiplier cycle by cycle, recording every cycle.

    Per cycle: take the next k-bit digit of b (LSB digits first), factor
    it into an odd core and a shift, select the precomputed multiple,
    barrel-shift it into the final partial product, and push it through
    the central adder, which emits the k low bits, folded into the
    product at bit cycle * k, and feeds the rest back. Once the digits
    run out, flush cycles run until the flush policy is met, and never
    past full_width_cycles. A residue outside n bits (2^n or more, the
    bound every valid run keeps, or negative) raises AdderSizingError in
    the cycle that makes it, as do emitted bits past the 2n-bit product
    register, where the residue left after the last cycle is folded in
    above them: a run that ends on a nonzero residue raises.

    The loop is _run, the one integer kernel, which compare also runs
    without records: the digit, the mux and the barrel shift work over
    the odd multiples of the initial-adder ladder, each digit's mux
    selection and shift count are one lookup in the per-k control table,
    as a hardware decoder holds them, and every cycle's residue and
    partial product go through the central adder's integer core,
    _central_step. Every cycle runs that one path: a digit-0 cycle, and
    so a flush cycle, whose multiplier register reads 0, selects the
    mux's constant-zero line, and only the record gives a flush cycle a
    null digit. simulate hands _run a list, so one CycleRecord is kept
    per cycle. No Digit is built, and the one Word built is the
    product. The ladder is built and checked once per multiplicand,
    width, digit width and builder, and held for the runs after it; a
    ladder entry outside n + k bits, negative or wide enough to give a
    partial product past the barrel shifter's n + 2k - 1 output bits,
    raises AdderSizingError before the first cycle, on every run, as
    such a ladder is never held. A control-table selection with no mux
    input raises ControlError.
    """
    trace: list[CycleRecord] = []
    product, _ = _run(a, b, cfg, trace)
    return SimResult(a, b, cfg, Word(product, 2 * cfg.n), trace)


# the ladder _run checked last: ((a, n, k, builder), its odd multiples with
# the mux's zero line as entry 0); one tuple, read and replaced whole, so no
# run pairs one key with another run's ladder
_held_ladder: tuple = (None, None)


def _run(a: Word, b: Word, cfg: SimConfig,
         trace: list[CycleRecord] | None) -> tuple[int, int]:
    # the cycle loop simulate documents: the product as an int and the cycle
    # count, with one CycleRecord appended to trace per cycle when it is a list
    global _held_ladder
    if a.width != cfg.n or b.width != cfg.n:
        raise ConfigError(
            f"operand widths ({a.width}, {b.width}) do not match n={cfg.n}"
        )
    n, k = cfg.n, cfg.k
    # the builder is in the key, so a replaced engine._ladder is always run
    key = (a.value, n, k, _ladder)
    held, odd = _held_ladder
    if held != key:
        odd = _ladder(a.value, k)
        for entry in odd.values():
            if entry >> (n + k):
                raise AdderSizingError(f"ladder entry {entry} does not fit in {n + k} bits")
        odd[0] = 0  # the mux's constant-zero line, which digit 0 selects
        _held_ladder = (key, odd)
    controls = _controls(k)
    multiplier = b.value
    mask = (1 << k) - 1
    digit_cycles = cfg.digit_cycles
    full_width = cfg.full_width_cycles
    stop = digit_cycles if cfg.flush_policy is FlushPolicy.EARLY_STOP else full_width
    residue = product = 0

    cycle = 0
    # odd[odd_core] is the loop's one mapping lookup, so a KeyError is a
    # selection the decoder's table makes and the mux has no input for; the
    # try wraps the loop, not the lookup, which on 3.11 costs two
    # instructions per cycle
    try:
        # cycle < full_width and (cycle < stop or residue), as stop <= full_width,
        # with the test that decides most cycles first
        while cycle < stop or (residue and cycle < full_width):
            digit = multiplier & mask
            multiplier >>= k
            odd_core, shift = controls[digit]
            pp = odd[odd_core] << shift
            emitted, after = _central_step(residue, pp, k)
            if after >> n:
                raise AdderSizingError(f"residue {after} breaks the 2^n bound")
            if trace is not None:
                trace.append(CycleRecord(cycle, digit if cycle < digit_cycles else None,
                                         odd_core, shift, pp, residue, after, emitted))
            product |= emitted << cycle * k
            residue = after
            cycle += 1
    except KeyError:
        raise ControlError(f"no mux input for selection {odd_core}") from None

    product |= residue << cycle * k
    if product >> 2 * n:
        raise AdderSizingError(f"emitted bits exceed the {2 * n}-bit product register")
    return product, cycle


def cycle_count_model(a: Word, b: Word, cfg: SimConfig) -> int:
    """Closed-form cycle count that the simulation must reproduce.

    FULL_WIDTH needs every emission slot for 2n product bits; EARLY_STOP
    needs the digit cycles, or one cycle per k-bit chunk of the product
    if that is more.
    """
    if cfg.flush_policy is FlushPolicy.FULL_WIDTH:
        return cfg.full_width_cycles
    product_bits = (a.value * b.value).bit_length()
    return max(cfg.digit_cycles, -(-product_bits // cfg.k))


def _config_doc(cfg: SimConfig) -> dict:
    # the config sub-document: one key per SimConfig field, in field order
    config = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    config["flush_policy"] = cfg.flush_policy.value
    return config


def to_trace_dict(result: SimResult) -> dict:
    """JSON document for one run; multi-bit values as 0x-hex strings."""
    return {
        "config": _config_doc(result.config),
        "a": hex(result.a.value),
        "b": hex(result.b.value),
        "product": hex(result.product.value),
        "cycles": result.cycles,
        "total_time_ns": result.total_time_ns,
        "trace": [_record_doc(r) for r in result.trace],
    }


def _record_doc(record: CycleRecord) -> dict:
    # one record of the document's trace
    cycle, digit, odd_core, shift, pp, before, after, emitted = record
    return {
        "cycle": cycle,
        "digit": None if digit is None else hex(digit),
        "odd_core": hex(odd_core),
        "shift": shift,
        "pp": hex(pp),
        "residue_before": hex(before),
        "residue_after": hex(after),
        "emitted": hex(emitted),
    }


def _record_template(flush: bool) -> str:
    # one trace record laid out as json.dumps(indent=2) lays it out inside
    # the "trace" list, with a %-field per CycleRecord field in order; the
    # flush template writes the digit as null and takes the other 7 fields
    lines = []
    for name in CycleRecord._fields:
        if name in ("cycle", "shift"):
            value = "%d"
        elif name == "digit" and flush:
            value = "null"
        else:
            value = '"%#x"'
        lines.append(f'      "{name}": {value}')
    return "    {\n" + ",\n".join(lines) + "\n    }"


_DIGIT_RECORD = _record_template(flush=False)
_FLUSH_RECORD = _record_template(flush=True)


def to_trace_json(result: SimResult) -> str:
    """The run's JSON document as text.

    The text equals json.dumps(to_trace_dict(result), indent=2), byte for
    byte, but is written straight from the fixed document layout: one %
    fill of a record template per trace record, and repr for the config
    numbers and total_time_ns, which is what json.dumps writes for an
    exact finite int or float (SimConfig admits no other). The dict is
    never built.
    """
    config = ",\n".join(
        f'    "{key}": "{value}"' if isinstance(value, str) else f'    "{key}": {value!r}'
        for key, value in _config_doc(result.config).items()
    )
    records = ",\n".join([
        _FLUSH_RECORD % (r.cycle, *r[2:]) if r.digit is None else _DIGIT_RECORD % r
        for r in result.trace
    ])
    trace = f"[\n{records}\n  ]" if result.trace else "[]"
    return (
        f'{{\n  "config": {{\n{config}\n  }},\n'
        f'  "a": "{result.a.value:#x}",\n'
        f'  "b": "{result.b.value:#x}",\n'
        f'  "product": "{result.product.value:#x}",\n'
        f'  "cycles": {result.cycles:d},\n'
        f'  "total_time_ns": {result.total_time_ns!r},\n'
        f'  "trace": {trace}\n}}'
    )


def _native_records(a: Word, b: Word, cfg: SimConfig, cycles: int) -> Iterator[CycleRecord]:
    # the run's records one at a time, digit * a by multiplication and the adder
    # as + and shifts; of the datapath it shares only the decoder's control
    # table, so it is a model independent of simulate
    k = cfg.k
    mask = (1 << k) - 1
    controls = _controls(k)
    digit_cycles = cfg.digit_cycles
    residue = 0
    for i in range(cycles):
        digit = (b.value >> i * k) & mask
        pp = digit * a.value
        total = residue + pp
        yield CycleRecord(i, digit if i < digit_cycles else None, *controls[digit], pp,
                          residue, total >> k, total & mask)
        residue = total >> k


# a document's keys, in the order the checker searches them
_REPORT_ORDER = ("config", "a", "b", "trace", "product", "cycles", "total_time_ns")


def _difference(got, want, where: str) -> ValueError | None:
    # the first place, in want's key order, where got departs from want,
    # exact types included, as the error that names it; None if none does
    shown = where or "the document"
    if type(got) is not type(want):
        return ValueError(f"malformed trace document: {shown} is {got!r} "
                          f"({type(got).__name__}), need {type(want).__name__}")
    if not isinstance(want, dict):
        return None if got == want else ValueError(f"{where} is {got!r}, the run gives {want!r}")
    if got.keys() != want.keys():
        return ValueError(f"malformed trace document: {shown} has keys "
                          f"{list(got)}, need {list(want)}")
    for key, w in want.items():
        if error := _difference(got[key], w, f"{where}.{key}" if where else key):
            return error
    return None


def verify_trace_dict(doc: dict) -> SimResult:
    """Check a serialized trace against the run it names and return the run.

    Only the run's inputs are read: the config through SimConfig, and a
    and b as Words. A missing input key or a wrongly typed input raises
    ValueError("malformed trace document: ..."), a config value
    SimConfig refuses raises ConfigError, and an a or b that does not
    fit in n bits raises WidthOverflowError. The document is accepted
    exactly when it equals to_trace_dict of the native run, with cycle,
    shift, cycles and total_time_ns of the run's types, so that a JSON
    true is not 1 and 4.0 is not 4.

    One pass in document order raises ValueError naming the first field
    that differs: "<path> is <got>, the run gives <want>" for a wrong
    value, "malformed trace document: ..." for a wrong type or key set.
    It checks the key set, config, a, b and the trace's type; an
    early_stop trace shorter than its digit cycles then gets "trace has
    N entries, the run gives at least D", before a and b are multiplied,
    and any other trace shorter than its run (cycle_count_model) "trace
    has N entries, the run gives M"; then each record as _native_records
    yields it, a too long trace, product, cycles and total_time_ns. It
    stops at the first record that differs, so its time and memory grow
    with the document. The returned SimResult equals the simulate result
    the document was written from.
    """
    try:
        c = doc["config"]
        cfg = SimConfig(**{f.name: c[f.name] for f in fields(SimConfig)})
        a = Word(int(doc["a"], 16), cfg.n)
        b = Word(int(doc["b"], 16), cfg.n)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed trace document: {exc!r}") from None
    if type(doc) is not dict or doc.keys() != set(_REPORT_ORDER):
        raise _difference(doc, dict.fromkeys(_REPORT_ORDER), "")
    for key, want in (("config", _config_doc(cfg)), ("a", hex(a.value)), ("b", hex(b.value))):
        if doc[key] != want:
            raise _difference(doc[key], want, key)
    trace = doc["trace"]
    if type(trace) is not list:
        raise _difference(trace, [], "trace")
    if cfg.flush_policy is FlushPolicy.EARLY_STOP and len(trace) < cfg.digit_cycles:
        # past its digit cycles an early_stop run's length needs the product
        raise ValueError(f"trace has {len(trace)} entries, "
                         f"the run gives at least {cfg.digit_cycles}")
    cycles = cycle_count_model(a, b, cfg)
    wrong_length = ValueError(f"trace has {len(trace)} entries, the run gives {cycles}")
    if len(trace) < cycles:
        raise wrong_length
    records = []
    for row, record in zip(trace, _native_records(a, b, cfg, cycles)):
        want = _record_doc(record)
        if row != want or type(row["cycle"]) is not int or type(row["shift"]) is not int:
            raise _difference(row, want, f"trace[{record.cycle}]")
        records.append(record)
    if len(trace) > cycles:
        raise wrong_length
    run = SimResult(a, b, cfg, Word(a.value * b.value, 2 * cfg.n), records)
    for key, want in (("product", hex(run.product.value)), ("cycles", run.cycles),
                      ("total_time_ns", run.total_time_ns)):
        got = doc[key]
        if type(got) is not type(want) or got != want:
            raise _difference(got, want, key)
    return run
