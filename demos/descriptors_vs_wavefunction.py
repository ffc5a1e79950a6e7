"""One wave function, many descriptor assignments.

Run nothing at all, or run a single controlled-not on |00>: the final
state vector is the same, every local expectation agrees, yet the
descriptors of the two histories differ by a large fixed norm.
Descriptors carry strictly more structure than the wave function they
project onto.
"""

import numpy as np

from descriptorsim import (
    Controlled,
    GateApplication,
    Network,
    NetworkEvolution,
    Plus,
    SpaceLayout,
    nonisomorphism_witness,
    simulate_statevector,
)

layout = SpaceLayout((("Q1", 2), ("Q2", 2)))
empty = Network(layout, ())
cnot = Network(layout, [[GateApplication(Controlled(Plus(1)), ("Q1", "Q2"))]])

print("final state vectors:")
for name, net in (("empty", empty), ("cnot ", cnot)):
    print(f"  {name}: {np.round(simulate_statevector(net).ravel(), 6)}")

print("\nQ1 x-component after each history:")
for name, net in (("empty", empty), ("cnot ", cnot)):
    comp = NetworkEvolution(net).run().descriptors["Q1"][0]
    rows = ["    " + "  ".join(f"{v.real:+.0f}" for v in row) for row in comp.matrix]
    print(f"  {name}:")
    print("\n".join(rows))

witness = nonisomorphism_witness()
print(f"\nstate distance:                 {witness.state_distance:.2e}")
print(f"descriptor distance (Frobenius): {witness.descriptor_distance:.6f}")
print(f"largest local expectation gap:   {witness.marginal_expectation_gap:.2e}")
print("\nSame wave function, same local statistics, different descriptors: "
      "the two\nrepresentations are not isomorphic, and the extra structure "
      "records which\ninteractions actually happened.")
