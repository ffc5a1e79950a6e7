"""Descriptor construction and evolution in the Heisenberg picture.

Each subsystem carries a descriptor: the tuple of its (shift, clock)
generator pair embedded in the full space, (sigma_x, sigma_z) for a
qubit, each component a short sum of Weyl terms, never an N x N matrix.
The time belongs to the evolution, not to the descriptors.  A gate G on
subsystems J maps each generator g of J to its image G^dag g G, a fixed
polynomial in the generators of J (a controlled-not sends x_c to x_c x_t
and z_t to z_c z_t); the step law evaluates it on the current descriptors
of J.  Those outside J commute with G and are left untouched.  The same
evaluator gives a gate's functional form, its expansion evaluated on the
current descriptors; on a qubit control a controlled gate's form is
P0 + P1 V, the split a foliation makes.  The tests cross-check this one
evolution path against dense cumulative conjugation, which shares no term
arithmetic with it, and conjugate the untouched descriptors anyway.
"""

from __future__ import annotations

import functools
from math import prod
from typing import Mapping, Sequence

import numpy as np

from .gates import Gate, GateApplication, Network, RotationY, gate_matrix
from .operators import (
    DEFAULT_TOLERANCE,
    DESCRIPTOR_BUDGET_BYTES,
    AlgebraError,
    LayoutError,
    Operator,
    SpaceLayout,
    _below,
    _merged,
    _pair_coefficients,
    _plan,
    _pruned,
    _read_only,
    _roots_of_unity,
    _terms,
    as_index,
    combination,
)


class EngineError(ValueError):
    """Evolution bookkeeping violated: an out-of-range or non-integer time."""


def initial_descriptors(layout: SpaceLayout) -> dict[str, tuple[Operator, ...]]:
    """Every subsystem's time-0 descriptor: its shift/clock pair, embedded:
    the single terms X_i and Z_i, built once per layout, in a new dict."""
    return dict(zip(layout.ids, layout.weyl.generators))


@functools.lru_cache(maxsize=256)
def _walk(m: int, *rows: bytes) -> tuple[tuple[tuple[int, int, int], ...], tuple[tuple[int, ...], ...]]:
    """Steps ``(head, position, component)``: step s + 1 is step ``head``'s monomial (0: I) times that factor;
    they form each monomial and prefix of polynomials with these rows once; per polynomial, each term's step."""
    steps, index, terms = [], {(): 0}, []
    for polynomial in rows:
        terms.append([])
        for row in np.frombuffer(polynomial, np.int64).reshape(-1, 2 * m).tolist():
            factors = tuple((i, j) for i in range(m) for j in (0, 1) for _ in range(row[i + j * m]))
            for k in range(1, len(factors) + 1):
                if factors[:k] not in index:
                    steps.append((index[factors[:k - 1]], *factors[k - 1]))
                    index[factors[:k]] = len(steps)
            terms[-1].append(index[factors])
    return tuple(steps), tuple(map(tuple, terms))


@functools.lru_cache(maxsize=16)
def _moves(dims: tuple[int, ...]) -> tuple[SpaceLayout, np.ndarray, np.ndarray]:
    """The acted subsystems' own layout and, per generator g, shift then clock
    per position, the rows of U that g U takes and their exact phases (N, 1):
    on digit i, row k_i + 1 takes row k_i, or row k_i gains omega^k_i."""
    n, digits, rows, phases = prod(dims), np.indices(dims).reshape(len(dims), -1), [], []
    for i, d in enumerate(dims):  # digit i less 1, wrapped: the row that row k_i + 1 takes
        rows += [np.ravel_multi_index(digits - np.eye(len(dims), 1, -i, int), dims, mode="wrap"), np.arange(n)]
        phases += [np.ones(n), _roots_of_unity(d)[digits[i]]]
    layout = SpaceLayout(tuple((str(i), d) for i, d in enumerate(dims)))
    return layout, *_read_only(np.array(rows), np.array(phases)[..., None])


_ZX = _read_only(np.array([[0, 1], [1, 0]], dtype=np.int64))[0]  # a qubit's clock row, then its shift row


@functools.lru_cache(maxsize=256)
def _weyl_terms(gate: Gate, dims: tuple[int, ...], images: bool = False) -> tuple[Operator, ...]:
    """The gate's nonzero expansion G = sum c X^a Z^b over the acted subsystems'
    shift/clock pairs, as a one-element tuple, or with ``images`` the images
    G^dag g G of those generators, in :func:`_moves`' order, on their own layout:
    each the dense U^dag (g U), expanded with as many others as the budget holds.
    A rotation's images are built in closed form, x -> sin z + cos x and
    z -> cos z - sin x, by the dense route's own float arithmetic, so to the bit."""
    (layout, rows, phases), u = _moves(dims), gate_matrix(gate, dims)
    if not images:
        return (Operator.from_matrix(layout, u),)
    if isinstance(gate, RotationY):  # cos and sin of theta from theta / 2's, as U^dag g U multiplies them
        c, s = u[0, 0].real, u[1, 0].real
        cos, sin = c * c - s * s, c * s + s * c
        return tuple(_pruned(layout, _ZX, np.array(image, dtype=complex)) for image in ((sin, cos), (cos, -sin)))
    n, members = len(u.T), u.reshape(-1, len(u.T), len(u.T))
    need = 8 * 16 * members.size  # per generator and member: g U, U^dag g U and six working copies
    if need > DESCRIPTOR_BUDGET_BYTES:
        raise LayoutError(f"a generator's images need {need / 2**30:.3g} GiB, over the byte budget")
    chunk, adjoint, out = DESCRIPTOR_BUDGET_BYTES // need, members.conj().swapaxes(1, 2)[:, None], []
    for k in range(0, len(rows), chunk):
        moved = members[:, rows[k:k + chunk]] * phases[k:k + chunk]
        # to 8 rows each product is rounded alone, as terms are: BLAS's fused multiply-add moves cos^2 - sin^2
        products = np.einsum("...ij,...jk->...ik", adjoint, moved) if n <= 8 else adjoint @ moved
        terms = Operator.from_matrix(layout, products.reshape(-1, n, n))
        coeffs = terms.coefficients.reshape(len(terms.exponents), len(members), -1)
        for j, keep in enumerate(coeffs.any(axis=1).T):  # each image's own terms, a column per member
            image = coeffs[keep, :, j] if u.ndim == 3 else coeffs[keep, 0, j]
            out.append(_terms(layout, terms.exponents if keep.all() else terms.exponents[keep], image))
    return tuple(out)


def _evaluate(app: GateApplication, descriptors: Mapping, images: bool) -> Sequence[Operator]:
    """The gate's expansion, or its generators' images, evaluated on the
    acted subsystems' descriptors, each monomial and each prefix of one
    multiplied out once.  On fresh subsystems, whose descriptors are still
    the layout's own generator tuples, the images are :func:`_placed`."""
    args = [descriptors[sid] for sid in app.subsystems]
    layout = args[0][0].layout
    acted = tuple(map(layout.index_of, app.subsystems))
    if images and all(arg is layout.weyl.generators[i] for arg, i in zip(args, acted)):
        return _placed(app.gate, layout, acted)
    polynomials = _weyl_terms(app.gate, tuple(layout.dim_of(sid) for sid in app.subsystems), images)
    steps, terms = _walk(len(args), *[p.exponents.tobytes() for p in polynomials])  # kept per rows
    monomials = [Operator.identity(layout)]
    for head, i, j in steps:
        monomials.append(monomials[head] @ args[i][j] if head else args[i][j])
    return [combination([monomials[s] for s in t], p.coefficients) for p, t in zip(polynomials, terms)]


@functools.lru_cache(maxsize=256)
def _placed(gate: Gate, layout: SpaceLayout, acted: tuple[int, ...]) -> tuple[Operator, ...]:
    """The gate's generator images on fresh subsystems at positions ``acted``
    of ``layout``, kept: each image's own terms move to the acted columns."""
    m = len(layout.dims)
    place = np.eye(2 * m, dtype=np.int64)[[*acted, *(m + i for i in acted)]]  # column moves
    polynomials = _weyl_terms(gate, tuple(layout.dims[i] for i in acted), True)
    return tuple(_merged(layout, [p.exponents @ place], p.coefficients) for p in polynomials)


def functional_form(
    app: GateApplication, descriptors: Mapping[str, tuple[Operator, ...]]
) -> Operator:
    """The gate's unitary expressed in the acted subsystems' descriptors.

    The gate's expansion over the time-0 generators, evaluated on the
    current ones.  Fed time-0 descriptors this reproduces the embedded
    gate matrix (the defining equation); fed time-t descriptors it is
    U(t)^dag G U(t), because conjugation preserves sums and products.
    """
    return _evaluate(app, descriptors, images=False)[0]


class NetworkEvolution:
    """Iterates the step law slice by slice through a network."""

    def __init__(self, network: Network):
        self.network = network
        self.descriptors = initial_descriptors(network.layout)
        self.time = 0

    def advance(self) -> tuple[GateApplication, ...]:
        """Apply every gate of the current slice (disjoint, so order-free)
        and return them: each acted component becomes its generator's
        image evaluated on the acted descriptors, or, on fresh subsystems,
        whose descriptors are still the time-0 tuples, the image itself; the
        rest commute with the gate and stay."""
        if self.time >= len(self.network.slices):
            raise EngineError(f"network exhausted at time {self.time}")
        descriptors = dict(self.descriptors)
        applied = self.network.slices[self.time]
        for app in applied:
            images = _evaluate(app, descriptors, True)
            descriptors.update(zip(app.subsystems, zip(images[::2], images[1::2])))
        self.time += 1
        self.descriptors = descriptors
        return applied

    def run_to(self, t: int) -> "NetworkEvolution":
        t = as_index(t, "time", EngineError)
        if not 0 <= t <= len(self.network.slices):
            raise EngineError(f"time {t} outside network range 0..{len(self.network.slices)}")
        if t < self.time:
            raise EngineError(f"cannot rewind from {self.time} to {t}")
        while self.time < t:
            self.advance()
        return self

    def run(self) -> "NetworkEvolution":
        return self.run_to(len(self.network.slices))


def is_sharp(o: Operator) -> tuple[bool, float | None] | list:
    """Whether the observable has a definite value (null variance) with
    respect to the reference vector; returns the value when it does.  A
    sweep gives one such pair per member."""
    if not o.is_hermitian():
        raise AlgebraError("sharpness is defined for hermitian observables")
    mean = o.expectation()
    if not _below(abs(mean.imag), DEFAULT_TOLERANCE):
        raise AlgebraError(f"hermitian expectation has imaginary part {mean.imag}")
    # <o o>: the sum over the term pairs whose shifts cancel
    plan = _plan(o, o)  # first: it refuses pairs over the budget
    second = _pair_coefficients(o, o, plan.phases)[plan.shift_free].sum(axis=0)
    sharp = abs(second - mean**2) < DEFAULT_TOLERANCE
    if isinstance(mean, complex):
        return (True, float(mean.real)) if sharp else (False, None)
    return [(True, float(m.real)) if s else (False, None) for s, m in zip(sharp, mean)]
