# A tour of the individual hardware blocks: the initial-adder ladder that
# precomputes odd multiples, the digit decomposition driving the mux and
# barrel shifter, and the carry-save / ripple-carry adder pair.

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from radixmul import (
    Digit,
    Word,
    barrel_shift,
    build_multiple_table,
    csa,
    decompose_digit,
    mux_select,
    rca,
)

a = Word(13, 6)
k = 3

print(f"multiplicand A = {a.value}")
table = build_multiple_table(a, k)
steps = len(table) - 1
print(f"odd-multiple table (built with {steps} shifts and {steps} adds, "
      f"no multiplies):")
for m, w in sorted(table.items()):
    print(f"  {m} * A = {w.value:3d} = {w.to_bin()}")
print()

print("digit  selection  shift  partial product")
for d in range(1 << k):
    dec = decompose_digit(Digit(d, k))
    pp = barrel_shift(mux_select(table, dec.odd_core), dec.shift, k)
    sel = "zero line" if dec.odd_core == 0 else f"{dec.odd_core}*A"
    print(f"  {format(d, '03b')}  {sel:>9}  {dec.shift:5d}  "
          f"{pp.value:3d} (= {d} * {a.value})")
print()

# one central-adder addition, shown in its two stages
x, y = Word(11, 8), Word(91, 8)
stage1 = csa(x, y, Word(0, 8))
print(f"CSA({x.value}, {y.value}, 0) -> sum {stage1.sum.value}, "
      f"carry {stage1.carry.value}  "
      f"(sum + 2*carry = {stage1.sum.value + 2 * stage1.carry.value})")
total, carry_out = rca(stage1.sum, Word(stage1.carry.value << 1, 8))
print(f"RCA(sum, carry<<1) -> {total.value}, carry_out {carry_out}")
print(f"native check: {x.value} + {y.value} = {x.value + y.value}")
