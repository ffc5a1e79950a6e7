"""Play the CHSH game: every classical strategy, then the entangled one.

The players win when the product of their input bits equals the parity of
their answers.  Brute force over all 16 deterministic strategies shows a
hard ceiling of 3 wins out of 4; the input-dependent rotation strategy on
a shared entangled pair beats it.
"""

import math

from descriptorsim import (
    ALICE_ANGLES,
    BOB_ANGLES,
    all_strategies,
    chsh_win_rate,
    enumerate_classical,
    expected_win_rate,
    quantum_distribution,
    referee_demo,
)

print("deterministic strategies (alice answers | bob answers -> wins/4):")
for s in all_strategies():
    print(f"  a{ s.alice } b{ s.bob } -> {s.wins()}")

best, maximizers = enumerate_classical()
print(f"\nbest deterministic score: {best}/4  ({len(maximizers)} strategies reach it)")
print(f"uniform mixture of the maximizers: expected rate {expected_win_rate(maximizers)}")

print("\nquantum strategy angle table:")
print(f"  input 0: alice {ALICE_ANGLES[0]:.4f}, bob {BOB_ANGLES[0]:+.4f}")
print(f"  input 1: alice {ALICE_ANGLES[1]:.4f}, bob {BOB_ANGLES[1]:+.4f}")

print("\noutcome distribution per input pair:")
print(f"{'pair':>6} {'00':>12} {'01':>12} {'10':>12} {'11':>12}")
for x in (0, 1):
    for y in (0, 1):
        row = quantum_distribution(x, y).branch_measures
        print(f"  ({x},{y}) " + " ".join(f"{row[k]:12.8f}" for k in ("00", "01", "10", "11")))

rate = chsh_win_rate()
print(f"\nquantum win rate: {rate:.10f}  (= cos^2(pi/8) = {math.cos(math.pi/8)**2:.10f})")
print(f"empirical referee, 4000 seeded rounds: {referee_demo(7, 4000):.4f}")
