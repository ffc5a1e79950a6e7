"""The CHSH game: classical strategy exhaustion and the quantum strategy.

Two cooperating players each receive a bit and answer a bit; they win
when the product of the questions equals the parity of the answers.
Deterministic strategies are exhaustively enumerable (there are 16) and
win at most 3 of the 4 input pairs; shared randomness cannot help, so the
classical expected win rate is capped at 3/4.  The quantum strategy
rotates each player's half of an entangled pair by an input-dependent
angle before measuring, and wins with rate cos^2(pi/8).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .bell import BellConfig, BellOutcome, run_bells
from .operators import Value, as_index

ALICE_ANGLES = (0.0, math.pi / 2)
BOB_ANGLES = (math.pi / 4, -math.pi / 4)
CLASSICAL_BOUND = Fraction(3, 4)
INPUT_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def win_predicate(x: int, y: int, a: int, b: int) -> bool:
    """Product of the questions equals the parity of the answers."""
    for name, bit in (("x", x), ("y", y), ("a", a), ("b", b)):
        if as_index(bit, name, ValueError) not in (0, 1):
            raise ValueError(f"{name} must be a bit, got {bit}")
    return (x & y) == (a ^ b)


class DeterministicStrategy(Value):
    """Fixed answer functions; element i is the answer to question i."""

    _fields = ("alice", "bob")

    def __init__(self, alice: tuple[int, int], bob: tuple[int, int]) -> None:
        tables = []
        for player, table in (("alice", alice), ("bob", bob)):  # an answer per question bit
            what = f"{player}'s answer"
            bits = tuple([as_index(b, what, ValueError) for b in table]) if hasattr(table, "__len__") else ()
            if len(bits) != 2 or not set(bits) <= {0, 1}:
                raise ValueError(f"{player}'s answers {table!r} are not two bits")
            tables.append(bits)
        self._freeze(*tables)

    def wins(self) -> int:
        """How many of the four input pairs this strategy wins (exact)."""
        return sum(
            win_predicate(x, y, self.alice[x], self.bob[y]) for x, y in INPUT_PAIRS
        )


def all_strategies() -> list[DeterministicStrategy]:
    bits = ((0, 0), (0, 1), (1, 0), (1, 1))
    return [DeterministicStrategy(a, b) for a, b in product(bits, bits)]


def enumerate_classical() -> tuple[int, list[DeterministicStrategy]]:
    """Exhaustively score all 16 deterministic strategies; returns the best
    win count (out of 4) and every strategy achieving it."""
    scores = [(s.wins(), s) for s in all_strategies()]
    best = max(wins for wins, _ in scores)
    return best, [s for wins, s in scores if wins == best]


def expected_win_rate(strategies: list[DeterministicStrategy]) -> Fraction:
    """Exact expected rate of a uniform shared-randomness mixture."""
    if not strategies:
        raise ValueError("empty strategy mixture")
    return Fraction(sum(s.wins() for s in strategies), 4 * len(strategies))


def quantum_distribution(
    x: int | Sequence[int], y: int | Sequence[int]
) -> BellOutcome | list[BellOutcome]:
    """The entangled strategy's Bell run for one input pair, at the
    strategy's angles: its ``branch_measures`` are the outcome
    distribution, and its ``network`` the network they came from.  Two
    equal-length bit sequences give each pair's run, from one sweep."""
    sweep = isinstance(x, Sequence) or isinstance(y, Sequence)
    try:
        pairs = list(zip(x, y, strict=True)) if sweep else [(x, y)]
    except (TypeError, ValueError):  # a bit beside a sequence, or unequal lengths
        pairs = []
    if not pairs or any(as_index(bit, n, ValueError) not in (0, 1) for p in pairs for n, bit in zip("xy", p)):
        raise ValueError(f"inputs must be bits or equal-length bit sequences, got ({x}, {y})")
    outcomes = run_bells([BellConfig(ALICE_ANGLES[a], BOB_ANGLES[b]) for a, b in pairs])
    return outcomes if sweep else outcomes[0]


def win_rate(distributions: Mapping[tuple[int, int], Mapping[str, float]]) -> float:
    """Expected win rate over uniform inputs, from the outcome distribution
    of each input pair."""
    total = 0.0
    for x, y in INPUT_PAIRS:
        total += sum(
            p
            for key, p in distributions[(x, y)].items()
            if win_predicate(x, y, int(key[0]), int(key[1]))
        )
    return total / 4


def chsh_win_rate(
    alice_angles: tuple[float, float] = ALICE_ANGLES,
    bob_angles: tuple[float, float] = BOB_ANGLES,
) -> float:
    """Expected win rate of the rotation strategy over uniform inputs, from
    one sweep of the four input pairs; defaults to the optimal angle table."""
    for player, angles in (("alice", alice_angles), ("bob", bob_angles)):
        if not hasattr(angles, "__len__") or len(angles) != 2:
            raise ValueError(f"{player}_angles {angles!r} needs one angle per input bit")
    outcomes = run_bells([BellConfig(alice_angles[x], bob_angles[y]) for x, y in INPUT_PAIRS])
    return win_rate({pair: o.branch_measures for pair, o in zip(INPUT_PAIRS, outcomes)})


def referee_demo(seed: int, rounds: int = 1000) -> float:
    """Monte-Carlo referee sampling inputs and outcomes; demonstration
    only, the analytic rate is :func:`chsh_win_rate`."""
    if as_index(rounds, "referee_demo rounds", ValueError) < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if (seed := as_index(seed, "referee_demo seed", ValueError)) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    outcomes = quantum_distribution(*zip(*INPUT_PAIRS))
    rows = {pair: o.branch_measures for pair, o in zip(INPUT_PAIRS, outcomes)}
    wins = 0
    for _ in range(rounds):
        x, y = INPUT_PAIRS[rng.integers(4)]
        keys = list(rows[(x, y)])
        outcome = rng.choice(keys, p=[rows[(x, y)][k] for k in keys])
        wins += win_predicate(x, y, int(outcome[0]), int(outcome[1]))
    return wins / rounds
