"""Command-line front end: mul, verify, sweep, compare.

Operands accept decimal, 0x-prefixed hexadecimal, or bin:-prefixed
MSB-first binary. Exit codes: 0 success, 1 correctness failure (a
mismatch, a datapath register that cannot hold its value, or a mux
selection with no input), 2 usage or parse error.
"""

import argparse
import json
import random
import sys
from dataclasses import fields

from .baseline import ProductMismatchError, compare
from .datapath import AdderSizingError, ControlError
from .engine import FlushPolicy, SimConfig, simulate, to_trace_json
from .word import Word, parse_word

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

EXHAUSTIVE_MAX_N = 10


def _add_config_args(p: argparse.ArgumentParser, timing: bool = False) -> None:
    # one flag per SimConfig field, dest the field's name; an unset flag
    # stays None and SimConfig supplies the default the help text quotes;
    # the timing fields get flags only where a time is reported
    p.add_argument("--n", type=int, help=f"operand width in bits (default {SimConfig.n})")
    p.add_argument("--k", type=int,
                   help=f"multiplier digit width in bits (default {SimConfig.k})")
    p.add_argument("--adder-width", type=int,
                   help="central adder input lines (default n + 3k)")
    if timing:
        p.add_argument("--clock-ns", dest="clock_period_ns", metavar="CLOCK_NS", type=float,
                       help=f"clock period in ns (default {SimConfig.clock_period_ns:g})")
        p.add_argument("--load-ns", dest="load_delay_ns", metavar="LOAD_NS", type=float,
                       help=f"multiplier load delay in ns (default {SimConfig.load_delay_ns:g})")
    p.add_argument("--flush", dest="flush_policy", choices=[f.value for f in FlushPolicy],
                   help="flush policy after the digits run out "
                        f"(default {SimConfig.flush_policy.value})")


def _config_from_args(args) -> SimConfig:
    # the fields the subcommand has a flag for and the user set
    return SimConfig(**{f.name: value for f in fields(SimConfig)
                        if (value := getattr(args, f.name, None)) is not None})


def _decimal(value: int) -> str:
    # str() refuses an int past the interpreter's digit limit, a guard against
    # its quadratic time; each line that shows a decimal shows the hex too
    try:
        return str(value)
    except ValueError:
        return f"(more than {sys.get_int_max_str_digits()} digits; see hex)"


def _cmd_mul(args) -> int:
    cfg = _config_from_args(args)
    a = parse_word(args.a, cfg.n)
    b = parse_word(args.b, cfg.n)
    result = simulate(a, b, cfg)
    doc = to_trace_json(result) if args.trace or args.json else None
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as f:
            f.write(doc + "\n")
    if args.json:
        print(doc)
    else:
        print(f"product (bin) {result.product.to_bin()}")
        print(f"product (dec) {_decimal(result.product.value)}")
        print(f"product (hex) {result.product.to_hex()}")
        print(f"cycles        {result.cycles}")
        print(f"total_time_ns {result.total_time_ns:g}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    n = cfg.n
    if args.exhaustive:
        if args.seed is not None:
            raise ValueError("--seed applies only to --random")
        if n > EXHAUSTIVE_MAX_N:
            raise ValueError(f"--exhaustive is limited to n <= {EXHAUSTIVE_MAX_N}")
        mode = "exhaustive"
        seed = None
        size = 1 << n
        pairs = ((av, bv) for av in range(size) for bv in range(size))
        total = size * size
    else:
        if args.random < 1:
            raise ValueError(f"--random needs a COUNT of at least 1, got {args.random}")
        mode = f"random {args.random}"
        seed = random.SystemRandom().getrandbits(32) if args.seed is None else args.seed
        rng = random.Random(seed)
        pairs = ((rng.getrandbits(n), rng.getrandbits(n)) for _ in range(args.random))
        total = args.random

    failures = 0
    first_failure = None
    for av, bv in pairs:
        try:
            compare(Word(av, n), Word(bv, n), cfg)
        except ProductMismatchError as exc:
            failures += 1
            if first_failure is None:
                first_failure = str(exc)

    if args.json:
        print(json.dumps({
            "n": n,
            "k": cfg.k,
            "mode": mode,
            "seed": seed,
            "pairs": total,
            "failures": failures,
            "first_failure": first_failure,
        }))
    else:
        tail = "" if seed is None else f" (seed {seed})"
        print(f"verify n={n} k={cfg.k} {mode}: {total} pairs, "
              f"{failures} failures{tail}")
        if first_failure is not None:
            print(f"MISMATCH {first_failure}", file=sys.stderr)
    return EXIT_MISMATCH if failures else EXIT_OK


def _parse_k_range(text: str) -> range:
    # K or LO..HI, LO <= HI; SimConfig judges each k
    lo, dots, hi = text.partition("..")
    try:
        ks = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        ks = range(0)
    if not ks:
        raise ValueError(f"k range must be K or LO..HI, got {text!r}")
    return ks


def _cmd_sweep(args) -> int:
    # one config per k; SimConfig refuses a bad n or k
    configs = [SimConfig(n=args.n, k=k) for k in _parse_k_range(args.k)]
    rows = [{
        "k": cfg.k,
        "digit_cycles": cfg.digit_cycles,
        "cycles_full_width": cfg.full_width_cycles,
        "adder_width": cfg.adder_width,
        "table_size": 1 << (cfg.k - 1),
    } for cfg in configs]
    if args.json:
        print(json.dumps(rows))
    else:
        widths = {name: max(2, len(name)) for name in rows[0]}
        print("  ".join(f"{name:>{w}}" for name, w in widths.items()))
        for row in rows:
            print("  ".join(f"{row[name]:{w}d}" for name, w in widths.items()))
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg = _config_from_args(args)
    a = parse_word(args.a, cfg.n)
    b = parse_word(args.b, cfg.n)
    report = compare(a, b, cfg)
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        print(f"a = {_decimal(a.value)} ({a.to_hex()}, bin {a.to_bin()})")
        print(f"b = {_decimal(b.value)} ({b.to_hex()}, bin {b.to_bin()})")
        print(f"product               = {_decimal(report.product.value)} "
              f"({report.product.to_hex()})")
        print(f"baseline cycles       = {report.baseline_cycles} "
              f"(shift-and-add, one per multiplier bit)")
        print(f"reformed digit cycles = {report.reformed_digit_cycles} "
              f"({cfg.k} bits per cycle)")
        print(f"reformed total cycles = {report.reformed_cycles} "
              f"(flush included)")
        print(f"speedup (total)       = {report.speedup:.2f}x")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radixmul",
        description="Cycle-accurate digit-serial unsigned binary multiplier simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mul = sub.add_parser("mul", help="multiply two operands, optionally dumping the trace")
    p_mul.add_argument("--a", required=True, help="multiplicand (decimal, 0x hex, or bin: binary)")
    p_mul.add_argument("--b", required=True, help="multiplier (same formats)")
    _add_config_args(p_mul, timing=True)
    p_mul.add_argument("--trace", metavar="PATH", help="write the JSON trace to PATH")
    p_mul.add_argument("--json", action="store_true", help="print the JSON trace to stdout")
    p_mul.set_defaults(func=_cmd_mul)

    p_verify = sub.add_parser("verify", help="check oracle/shift-add/simulator agreement")
    mode = p_verify.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true",
                      help=f"all operand pairs (n <= {EXHAUSTIVE_MAX_N})")
    mode.add_argument("--random", type=int, metavar="COUNT",
                      help="COUNT seeded random pairs")
    p_verify.add_argument("--seed", type=int,
                          help="PRNG seed for --random (default: OS entropy)")
    _add_config_args(p_verify)
    p_verify.add_argument("--json", action="store_true", help="machine-readable summary")
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="cycle counts and table sizes across digit widths")
    p_sweep.add_argument("--n", type=int, default=SimConfig.n,
                         help=f"operand width in bits (default {SimConfig.n})")
    p_sweep.add_argument("--k", default=str(SimConfig.k),
                         help="digit width or range, e.g. 3 or 1..4")
    p_sweep.add_argument("--json", action="store_true", help="machine-readable rows")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = sub.add_parser("compare", help="baseline vs digit-serial on one operand pair")
    p_cmp.add_argument("--a", required=True, help="multiplicand")
    p_cmp.add_argument("--b", required=True, help="multiplier")
    _add_config_args(p_cmp)
    p_cmp.add_argument("--json", action="store_true", help="machine-readable report")
    p_cmp.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProductMismatchError, AdderSizingError, ControlError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
