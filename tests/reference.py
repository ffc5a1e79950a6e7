"""The reference routes the tests cross-check production against.

The dense reference engine, Schrödinger-picture cumulative conjugation,
cross-checks the library's step law on dense N x N components and shares
no term arithmetic with it.  The term route to a gate's generator images,
G^dag g G as two term-pair products of its expansion, cross-checks the
dense conjugation that builds them.  Both live beside the tests, so no
module of the package can call them: the production path is the step law
alone.
"""

import itertools
from math import prod

import numpy as np

from descriptorsim import Network, Operator, SpaceLayout, qudit_shift_clock
from descriptorsim.gates import gate_matrix
from descriptorsim.operators import _term_product


def cumulative_unitary(network: Network) -> np.ndarray:
    """Dense product of the network's embedded gate matrices, latest on
    the left; ``network.upto(t)`` gives the unitary of the first t slices."""
    u = np.eye(network.layout.total_dim, dtype=complex)
    for sl in network.slices:
        for app in sl:
            u = network.embedded(app) @ u
    return u


def cumulative_evolve(network: Network) -> dict[str, tuple[np.ndarray, ...]]:
    """Dense descriptor components at the network's end, ``U^dag g U`` for
    each generator g and the cumulative unitary U; the reference engine
    that cross-checks the step law.  It shares no term arithmetic with it."""
    layout, u = network.layout, cumulative_unitary(network)
    u_dag, out = u.conj().T, {}
    for i, (sid, dim) in enumerate(layout.subsystems):
        # g on subsystem i times u: g acts on that digit of u's row index
        rows = u.reshape(prod(layout.dims[:i]), dim, -1)
        out[sid] = tuple(
            u_dag @ np.einsum("ij,ajk->aik", g, rows).reshape(u.shape)
            for g in qudit_shift_clock(dim)
        )
    return out


def term_images(gate, dims: tuple[int, ...]) -> list[Operator]:
    """The images G^dag g G of the acted generators, shift then clock per
    position, on the acted subsystems' own layout, as term-pair products of
    the gate's expansion: two per image, none of them kept."""
    layout = SpaceLayout(tuple((str(i), d) for i, d in enumerate(dims)))
    g = Operator.from_matrix(layout, gate_matrix(gate, dims))
    product = _term_product.__wrapped__
    return [product(product(g.H, x), g) for x in itertools.chain(*layout.weyl.generators)]
