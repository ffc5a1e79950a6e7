"""Independent state-vector simulator used as a brute-force oracle.

Evolves |0...0> through a network, each gate by its dense embedding up to
64 amplitudes and on its own axes above, and produces Born-rule outcome
distributions.  Every reading takes the network it reads, so how the
oracle holds a state stays inside this module.  It deliberately shares
only the layout and gate-matrix construction with the operator modules,
never the descriptor evolution path, so cross-checks are independent at
the algorithm level.  It keeps the state after each slice of the last
network it simulated, and resumes a network after the longest prefix of
those slices (the same objects, on an equal layout) that it shares: a
network resumes after its ``upto(t)``, and one built anew starts from
|0...0> whatever ran before.
"""

from __future__ import annotations

import numpy as np

from .gates import Network
from .operators import LayoutError


# the last network's layout and slices, and at k the state after k slices;
# replaced whole, never changed in place, so a racing call loses a resume at
# most, and emptied while a network runs, so two networks' states never coexist
_last: tuple = (None, (), [])
# up to this N, a gate's dense embedding is faster than its matrix on its axes: a fresh Plain network
# (N = 64) took 98-109 us dense against 107-119 us axis-wise (one BLAS thread, 2-core x86_64)
DENSE_MAX_DIM = 64


def simulate_statevector(network: Network) -> np.ndarray:
    """Apply each gate, embedded or on its own axes, to |0...0>: read-only amplitudes with one axis per
    subsystem (shape ``layout.dims``); ``network.upto(t)`` gives the state after the first t slices.  A
    network holding a sweep's stacked gate is refused before any amplitude."""
    global _last
    layout = network.layout
    start = (layout, (), [np.eye(1, layout.total_dim, dtype=complex)[0]])
    _, slices, states = _last if _last[0] == layout else start
    k = 0
    while k < min(len(slices), len(network.slices)) and slices[k] is network.slices[k]:
        k += 1
    matrices = [list(map(network.matrix_of, sl)) for sl in network.slices[k:]]  # every gate's, first
    states, _last = states[:k + 1], (None, (), [])
    dense = layout.total_dim <= DENSE_MAX_DIM
    for sl, sl_matrices in zip(network.slices[k:], matrices):
        amp = states[-1] if dense else states[-1].reshape(layout.dims)
        for app, matrix in zip(sl, sl_matrices):
            if dense:
                amp = network.embedded(app) @ amp
                continue
            axes = [layout.index_of(sid) for sid in app.subsystems]
            order = axes + [i for i in range(amp.ndim) if i not in axes]  # the gate's axes first
            moved = amp.transpose(order)
            amp = (matrix @ moved.reshape(len(matrix), -1)).reshape(moved.shape).transpose(np.argsort(order))
        states.append(amp.reshape(-1))  # a moved view is copied in C order: the readers sum one order
    _last = (layout, network.slices, states)
    states[-1].setflags(write=False)  # so no caller can change a kept state
    return states[-1].reshape(layout.dims)


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
