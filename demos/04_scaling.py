# The design scales over both operand width n and digit width k: wider
# digits mean fewer cycles but a bigger odd-multiple table. Every point
# is cross-checked against the native oracle.

import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from radixmul import SimConfig, Word, cycle_count_model, simulate

rng = random.Random(2024)

for n in (8, 16, 32):
    print(f"n = {n}")
    print("  k  digit_cycles  total_cycles  adder_width  table_entries")
    all_ones = Word((1 << n) - 1, n)
    for k in range(1, 7):
        cfg = SimConfig(n=n, k=k)
        res = simulate(all_ones, all_ones, cfg)
        assert res.product.value == all_ones.value * all_ones.value
        assert res.cycles == cycle_count_model(all_ones, all_ones, cfg)
        print(f"  {k}  {res.digit_cycles:12d}  {res.cycles:12d}  "
              f"{cfg.adder_width:11d}  {1 << (k - 1):13d}")
    print()

print("random spot checks across shapes:")
checks = 0
for _ in range(200):
    n = rng.choice([8, 16, 24, 32])
    k = rng.randint(1, 6)
    a, b = rng.getrandbits(n), rng.getrandbits(n)
    res = simulate(Word(a, n), Word(b, n), SimConfig(n=n, k=k))
    assert res.product.value == a * b
    checks += 1
print(f"  {checks} random (n, k, a, b) points, all exact")
