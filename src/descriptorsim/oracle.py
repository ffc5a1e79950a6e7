"""Independent state-vector simulator used as a brute-force oracle.

Evolves |0...0> through a network, each gate by its dense embedding up to
64 amplitudes and on its own axes above, and produces Born-rule outcome
distributions.  Every reading takes the network it reads and runs it from
|0...0>: the oracle keeps nothing between calls, so a network's amplitudes
are the same whatever ran before.  It deliberately shares only the layout
and gate-matrix construction with the operator modules, never the
descriptor evolution path, so cross-checks are independent at the
algorithm level.
"""

from __future__ import annotations

import numpy as np

from .gates import Network
from .operators import LayoutError


# up to this N each gate is embedded densely, as the benchmark's bell_sweep traces: a fresh Plain network (N = 64)
# took 67-87 us dense against 64-70 us axis-wise (one BLAS thread, 2-core x86_64)
DENSE_MAX_DIM = 64


def simulate_statevector(network: Network) -> np.ndarray:
    """Apply each gate, embedded or on its own axes, to |0...0>: read-only amplitudes with one axis per
    subsystem (shape ``layout.dims``); ``network.upto(t)`` gives the state after the first t slices.  A
    network holding a sweep's stacked gate is refused by name at that gate."""
    layout = network.layout
    dense = layout.total_dim <= DENSE_MAX_DIM
    amp = np.eye(1, layout.total_dim, dtype=complex)[0]
    for sl in network.slices:
        for app in sl:
            if dense:
                amp = network.embedded(app) @ amp
                continue
            matrix, axes = network.matrix_of(app), [layout.index_of(sid) for sid in app.subsystems]
            order = axes + [i for i in range(len(layout.dims)) if i not in axes]  # the gate's axes first
            back = sorted(range(len(order)), key=order.__getitem__)  # order^-1 as a list: np.argsort cost ~4 us more
            moved = amp.reshape(layout.dims).transpose(order)
            amp = (matrix @ moved.reshape(len(matrix), -1)).reshape(moved.shape).transpose(back)
        amp = amp.reshape(-1)  # a moved view is copied in C order: the readers sum one order
    amp.setflags(write=False)
    return amp.reshape(layout.dims)


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
