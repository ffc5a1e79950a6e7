"""The benchmark's workloads, generated from the ``--seed`` argument.

Each workload is an endless sequence of *rounds*.  A round is a fixed
multiset of experiments: how many of each kind and shape never depends on
the seed.  The seed chooses only the angles, the order inside a round, the
output formats where they are not fixed, and the scramble seeds.  An
experiment is a dict of ``RunConfig`` keyword arguments, so this module
never imports the program.

Why each workload exists:

* ``bell_sweep`` -- many short N = 64 experiments, where per-call overhead,
  gate embedding for the oracle and orchestration (``chsh`` runs
  ``run_bell`` eight times) dominate, not the dense N^3 work.  Per format a
  round holds 5 ``bell``, 3 ``wigner`` and 1 ``nonisomorphism``, plus one
  ``chsh`` in a seeded format: 28 experiments.  The shares keep the median
  inside the ``bell`` latencies (11 % to 64 % of the sorted samples).  A
  20 s run holds 57 rounds, so 57 slow ``chsh`` samples, and the tail
  percentile (ten samples beyond it) is the 11th-largest of them: well
  inside the ``chsh`` share, not on its edge and not its extreme.
* ``copy_chain`` -- every ``Chained(alice, bob)`` shape with 0 to 2 links a
  side and alice + bob <= 3 (N = 64 to 512), where dense products in
  conjugation, ``branch_sum`` and validation dominate.  Chain(2, 2) at
  N = 1024 is left out: 14 s and 650 MB per experiment.  A round runs the
  three N = 256 shapes twice, so that they are 6 of its 11 experiments.
  A 20 s run holds 3 rounds: 6 samples at N = 512 and 18 at N = 256, so the
  median and the tail percentile (the 5th-largest N = 256 sample) both fall
  inside the N = 256 latencies, not on the edge between two sizes.
* ``decohered_seeds`` -- ``Decohered(seed)`` at N = 256 with a fresh
  scramble seed each time: the time-0 custom gate makes the engine update
  its cumulative frame on every later gate, and the run evolves a second
  probe and calls the oracle for diagnostics.

The timed run's number of rounds is ``--seconds`` over a fixed round
duration (``Workload.round_s``, measured on the 2-core machine the
benchmark was tuned on), never the time the program actually takes: a
faster or slower program runs the same schedule, so each metric keeps
reading the same kind and rank of sample.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

FORMATS = ("table", "csv", "json")
TOLERANCE = 1e-9
CHAIN_SHAPES = tuple((a, b) for a in range(3) for b in range(3) if a + b <= 3)


def _angles(rng: random.Random) -> dict:
    return {"theta": rng.uniform(-math.pi, math.pi), "phi": rng.uniform(-math.pi, math.pi)}


def _bell_sweep_round(rng: random.Random) -> list[dict]:
    specs = [{"experiment": "chsh", "format": rng.choice(FORMATS)}]
    for fmt in FORMATS:
        specs += [{"experiment": "bell", "format": fmt, **_angles(rng)} for _ in range(5)]
        specs += [{"experiment": "wigner", "format": fmt, **_angles(rng)} for _ in range(3)]
        specs.append({"experiment": "nonisomorphism", "format": fmt})
    rng.shuffle(specs)
    return specs


def _copy_chain_round(rng: random.Random) -> list[dict]:
    shapes = CHAIN_SHAPES + tuple((a, b) for a, b in CHAIN_SHAPES if a + b == 2)
    specs = [
        {"experiment": "chain", "chain_alice": a, "chain_bob": b,
         "format": rng.choice(FORMATS), **_angles(rng)}
        for a, b in shapes
    ]
    rng.shuffle(specs)
    return specs


def _decohered_round(rng: random.Random) -> list[dict]:
    specs = [
        {"experiment": "decoherence", "seed": rng.randrange(2**31), "format": fmt,
         **_angles(rng)}
        for fmt in FORMATS
    ]
    rng.shuffle(specs)
    return specs


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[random.Random], list[dict]]
    # the untimed warm-up, also the experiment a set-up probe ends with
    warmup: Callable[[random.Random], dict]
    # rounds in the traced run; fixed, so its counts repeat exactly
    trace_rounds: int
    # nominal seconds per round; sets the timed run's length in rounds
    round_s: float
    # fewest rounds in the timed run, whatever --seconds says
    min_rounds: int

    def timed_rounds(self, seconds: float) -> int:
        """Rounds in a timed run of ``seconds``; depends on nothing else."""
        return max(self.min_rounds, round(seconds / self.round_s))

    def schedule(self, rng: random.Random, n_rounds: int) -> list[list[dict]]:
        """The next ``n_rounds`` rounds drawn from ``rng``."""
        rounds = self.rounds(rng)
        return [next(rounds) for _ in range(n_rounds)]

    def rounds(self, rng: random.Random) -> Iterator[list[dict]]:
        while True:
            yield [{**spec, "tolerance": TOLERANCE} for spec in self.make_round(rng)]

    def warmup_spec(self, rng: random.Random) -> dict:
        return {**self.warmup(rng), "tolerance": TOLERANCE}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bell_sweep", _bell_sweep_round,
            lambda rng: {"experiment": "bell", "format": "table", **_angles(rng)},
            trace_rounds=4,
            # at least 16 chsh samples, so the tail is not their extreme
            round_s=0.35, min_rounds=16,
        ),
        Workload(
            "copy_chain", _copy_chain_round,
            lambda rng: {"experiment": "chain", "chain_alice": 1, "chain_bob": 1,
                         "format": "table", **_angles(rng)},
            trace_rounds=1,
            # with 2 experiments at N = 512 a round, fewer than three rounds
            # would put the tail percentile among the N = 128 ones
            round_s=7.5, min_rounds=3,
        ),
        Workload(
            "decohered_seeds", _decohered_round,
            lambda rng: {"experiment": "decoherence", "seed": rng.randrange(2**31),
                         "format": "table", **_angles(rng)},
            trace_rounds=3,
            # at least 12 samples, so the tail has ten beyond it
            round_s=1.5, min_rounds=4,
        ),
    )
}
