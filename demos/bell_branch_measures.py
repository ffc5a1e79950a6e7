"""Walk a Bell experiment through the operator picture, wire by wire.

Two particles are entangled and rotated by the input angles, each is
copied onto an observer qubit, and both outcomes land on a 4-level
record.  Everything here evolves operators: the state stays pinned at
|0...0> and the record's descriptor splits into four weighted branches
whose measures reproduce the familiar correlations.
"""

import math

import numpy as np

from descriptorsim import (
    BellConfig,
    NetworkEvolution,
    build_bell_network,
    closed_form_measures,
    is_sharp,
    run_bell,
)

theta, phi = 0.0, math.pi / 4

network = build_bell_network(BellConfig(theta, phi))
print(f"network: {len(network.slices)} time steps over "
      f"{[sid for sid, _ in network.layout.subsystems]}")
for t, sl in enumerate(network.slices):
    for app in sl:
        print(f"  t={t}: {', '.join(app.subsystems):<7} {app.gate!r}")

# Before measuring, each particle's z observable has lost any definite value.
evo = NetworkEvolution(network).run_to(3)
for sid in ("Q1", "Q2"):
    sharp, value = is_sharp(evo.descriptors[sid][1])
    print(f"z of {sid} at t=3: {'sharp, value ' + str(value) if sharp else 'not sharp'}")

# After the copy interactions, Alice still has no sharp observable at all:
# she has split into two local instances, one per outcome.
evo.run_to(4)
qx, qz = evo.descriptors["QA"]
qy = 1j * (qx @ qz)
print("Alice at t=4:",
      ", ".join(f"<{n}> = {o.expectation().real:+.3f}" for n, o in
                (("x", qx), ("y", qy), ("z", qz))))

outcome = run_bell(BellConfig(theta, phi))
expected = closed_form_measures(theta, phi)
print(f"\nrecord branch measures (theta={theta:.4f}, phi={phi:.4f}):")
print(f"{'branch':>8} {'measure':>14} {'closed form':>14}")
for key, measure in outcome.branch_measures.items():
    print(f"{key:>8} {measure:>14.10f} {expected[key]:>14.10f}")
print(f"sum = {sum(outcome.branch_measures.values()):.12f}")
print(f"Alice one-sided measures: {np.round(outcome.alice_marginal, 12)}")
print(f"reconstruction residual: {outcome.reconstruction_residual:.2e}")
