"""Independent state-vector simulator used as a brute-force oracle.

Evolves |0...0> through a network by plain matrix-vector products and
produces Born-rule outcome distributions.  It deliberately shares only
the layout and gate-matrix construction with the operator modules, never
the descriptor evolution path, so cross-checks are independent at the
algorithm level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import Network
from .operators import LayoutError, SpaceLayout


@dataclass(frozen=True, eq=False)
class StateVector:
    layout: SpaceLayout
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.shape != (self.layout.total_dim,):
            raise LayoutError(
                f"amplitude shape {amp.shape} does not match layout "
                f"dim {self.layout.total_dim}"
            )
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


def simulate_statevector(network: Network) -> StateVector:
    """Apply the network's embedded gate matrices to |0...0>;
    ``network.upto(t)`` gives the state after the first t slices."""
    amp = np.zeros(network.layout.total_dim, dtype=complex)
    amp[0] = 1.0
    for sl in network.slices:
        for app in sl:
            amp = network.embedded(app) @ amp
    return StateVector(network.layout, amp)


def joint_outcome_distribution(
    state: StateVector, subsystems: tuple[str, ...] | list[str]
) -> dict[tuple[int, ...], float]:
    """Born-rule probabilities of computational outcomes on ``subsystems``,
    marginalizing everything else."""
    subsystems = tuple(subsystems)
    if len(set(subsystems)) != len(subsystems):
        raise LayoutError(f"repeated subsystem in {subsystems}")
    layout = state.layout
    keep = [layout.index_of(sid) for sid in subsystems]
    probs = np.abs(state.amplitudes.reshape(layout.dims)) ** 2
    drop = tuple(i for i in range(len(layout.dims)) if i not in keep)
    marginal = probs.sum(axis=drop) if drop else probs
    # marginal axes follow layout order of the kept subsystems
    kept_order = sorted(keep)
    marginal = np.moveaxis(
        marginal, [kept_order.index(i) for i in keep], range(len(keep))
    )
    return {
        tuple(int(v) for v in idx): float(marginal[idx])
        for idx in np.ndindex(marginal.shape)
    }


def reduced_density_matrix(state: StateVector, subsystem: str) -> np.ndarray:
    """Partial trace onto one subsystem."""
    layout = state.layout
    k = layout.index_of(subsystem)
    d = layout.dims[k]
    psi = np.moveaxis(state.amplitudes.reshape(layout.dims), k, 0).reshape(d, -1)
    return psi @ psi.conj().T
