"""Independent state-vector simulator used as a brute-force oracle.

Evolves |0...0> through a network by plain matrix-vector products and
produces Born-rule outcome distributions.  Every reading takes the network
it reads, so how the oracle holds a state stays inside this module.  It
deliberately shares only the layout and gate-matrix construction with the
operator modules, never the descriptor evolution path, so cross-checks are
independent at the algorithm level.
"""

from __future__ import annotations

import numpy as np

from .gates import Network
from .operators import LayoutError


def simulate_statevector(network: Network) -> np.ndarray:
    """Apply the network's embedded gate matrices to |0...0>: read-only
    amplitudes with one axis per subsystem (shape ``layout.dims``);
    ``network.upto(t)`` gives the state after the first t slices."""
    amp = np.zeros(network.layout.total_dim, dtype=complex)
    amp[0] = 1.0
    for sl in network.slices:
        for app in sl:
            amp = network.embedded(app) @ amp
    amp = amp.reshape(network.layout.dims)
    amp.setflags(write=False)
    return amp


def joint_outcome_distribution(
    network: Network, subsystems: tuple[str, ...] | list[str]
) -> dict[tuple[int, ...], float]:
    """Born-rule probabilities of computational outcomes on ``subsystems``
    after the network, marginalizing everything else."""
    if isinstance(subsystems, str):  # tuple() would split it into one-letter ids
        raise LayoutError(f"subsystems {subsystems!r} is a string, not a tuple of ids")
    subsystems = tuple(subsystems)
    if len(set(subsystems)) != len(subsystems):
        raise LayoutError(f"repeated subsystem in {subsystems}")
    keep = [network.layout.index_of(sid) for sid in subsystems]
    probs = np.abs(simulate_statevector(network)) ** 2
    # sums the other axes and puts the kept ones in the requested order
    marginal = np.einsum(probs, range(probs.ndim), keep)
    return {
        tuple(int(v) for v in idx): float(marginal[idx])
        for idx in np.ndindex(marginal.shape)
    }


def reduced_density_matrix(network: Network, subsystem: str) -> np.ndarray:
    """Partial trace onto one subsystem after the network."""
    psi = np.moveaxis(simulate_statevector(network), network.layout.index_of(subsystem), 0)
    psi = psi.reshape(len(psi), -1)
    return psi @ psi.conj().T
