"""The reference routes the tests cross-check production against.

The dense reference engine, Schrödinger-picture cumulative conjugation,
cross-checks the library's step law on dense N x N components and shares
no term arithmetic with it.  The term route to a gate's generator images,
G^dag g G as two term-pair products of its expansion, cross-checks the
dense conjugation that builds them.  The uncached adjoint, expectation and
gate evaluation recompute on every call what the package keeps per row set
and per gate's rows, and cross-check those records bit for bit.  All of
them live beside the tests, so no module of the package can call them: the
production path is the step law alone.  The strided write of a gate's
dense embedding cross-checks the indexed copy that the package keeps the
positions of.  The branching oracle, a Schrödinger-picture split of the
state at each controlled gate onto a target, cross-checks the measures
of a walk along that target.
"""

import itertools
from math import prod

import numpy as np

from descriptorsim import Controlled, Network, Operator, SpaceLayout, qudit_shift_clock
from descriptorsim.engine import _weyl_terms
from descriptorsim.gates import gate_matrix
from descriptorsim.operators import _term_product, combination


def embed_matrix(small: np.ndarray, targets: tuple[str, ...], layout: SpaceLayout) -> np.ndarray:
    """``small`` on ``targets`` (in that order) tensored with the identity on
    every other subsystem, in layout order, written on every call through a
    strided view of the N x N result: the entries where row and column agree
    on every other subsystem, which the small matrix fills in one broadcast."""
    dims, m = layout.dims, len(layout.dims)
    t_idx = [layout.index_of(sid) for sid in targets]
    rest = [i for i in range(m) if i not in t_idx]
    n = layout.total_dim
    out = np.zeros((n, n), dtype=complex)
    # axes 0..m-1 are the row digits and m..2m-1 the column digits; a rest
    # column axis takes its row axis's label, so einsum views their diagonal
    cols = [i if i in rest else m + i for i in range(m)]
    block = np.einsum(out.reshape(dims * 2), list(range(m)) + cols,
                      t_idx + [m + i for i in t_idx] + rest)
    block[...] = np.reshape(small, [dims[i] for i in t_idx] * 2 + [1] * len(rest))
    return out


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


def branching_oracle(network: Network, target: str) -> dict[str, float]:
    """The branches of ``target``'s walk in the Schrödinger picture: |0...0>
    runs through the network, and at each controlled gate onto ``target``
    every branch state is first split by the control's computational value
    j, its key gaining str(j), and then the gate applies to each part.  A
    branch's measure is its state's squared norm."""
    layout = network.layout
    states = {"": np.eye(1, layout.total_dim, dtype=complex)[0]}
    for app in (app for sl in network.slices for app in sl):
        if isinstance(app.gate, Controlled) and app.subsystems[1:] == (target,):
            axis = layout.index_of(app.subsystems[0])
            value = np.indices(layout.dims)[axis].reshape(-1)  # the control's value at each amplitude
            states = {key + str(j): np.where(value == j, psi, 0)
                      for key, psi in states.items() for j in range(layout.dims[axis])}
        states = {key: network.embedded(app) @ psi for key, psi in states.items()}
    return {key: float(np.vdot(psi, psi).real) for key, psi in states.items()}


def term_images(gate, dims: tuple[int, ...]) -> list[Operator]:
    """The images G^dag g G of the acted generators, shift then clock per
    position, on the acted subsystems' own layout, as term-pair products of
    the gate's expansion: two per image, none of them kept."""
    layout = SpaceLayout(tuple((str(i), d) for i, d in enumerate(dims)))
    g = Operator.from_matrix(layout, gate_matrix(gate, dims))
    product = _term_product.__wrapped__
    return [product(product(g.H, x), g) for x in itertools.chain(*layout.weyl.generators)]


def adjoint(op: Operator) -> tuple[np.ndarray, np.ndarray]:
    """The rows and coefficients of op^dag, from op's rows on every call:
    (c X^a Z^b)^dag = conj(c) omega^(a.b) X^-a Z^-b."""
    w, m = op.layout.weyl, len(op.layout.dims)
    a, b = op.exponents[:, :m], op.exponents[:, m:]
    phase = w.table[(a * b) @ w.weights % len(w.table)]
    return -op.exponents % w.mods, (op.coefficients.T.conj() * phase).T


def expectation(op: Operator) -> complex | np.ndarray:
    """<0...0| op |0...0>, the shift-free terms found on every call; a
    sweep's members each sum their own terms."""
    shift_free = op.coefficients[~op.exponents[:, :len(op.layout.dims)].any(axis=1)]
    if shift_free.ndim > 1:
        return np.array([c[c != 0].sum() for c in shift_free.T])
    return complex(shift_free.sum())


def evaluate(app, descriptors, images: bool) -> list[Operator]:
    """The gate's expansion, or its generators' images, evaluated on the
    acted descriptors with each monomial and each prefix of one multiplied
    out once, in a table keyed by factor prefixes that every call rebuilds
    from the polynomials' rows."""
    args = [descriptors[sid] for sid in app.subsystems]
    layout, m = args[0][0].layout, len(args)
    polynomials = _weyl_terms(app.gate, tuple(layout.dim_of(sid) for sid in app.subsystems), images)
    factors = [[tuple((i, j) for i in range(m) for j in (0, 1) for _ in range(row[i + j * m]))
                for row in p.exponents.tolist()] for p in polynomials]
    monomials = {(): Operator.identity(layout)}
    for term in itertools.chain(*factors):
        for k in range(1, len(term) + 1):
            if term[:k] not in monomials:
                i, j = term[k - 1]
                monomials[term[:k]] = monomials[term[:k - 1]] @ args[i][j] if k > 1 else args[i][j]
    return [combination([monomials[f] for f in terms], p.coefficients) for p, terms in zip(polynomials, factors)]
