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
import itertools
from typing import Mapping, Sequence

import numpy as np

from .gates import Gate, GateApplication, Network, gate_matrix
from .operators import (
    DEFAULT_TOLERANCE,
    AlgebraError,
    Operator,
    SpaceLayout,
    _below,
    _merged,
    _pair_coefficients,
    _plan,
    _term_product,
    as_index,
    combination,
)


class EngineError(ValueError):
    """Evolution bookkeeping violated: an out-of-range or non-integer time."""


def initial_descriptors(layout: SpaceLayout) -> dict[str, tuple[Operator, ...]]:
    """Every subsystem's time-0 descriptor: its shift/clock pair, embedded:
    the single terms X_i and Z_i, built once per layout, in a new dict."""
    return dict(zip(layout.ids, layout.weyl.generators))


@functools.lru_cache(maxsize=16)
def _generators(dims: tuple[int, ...]) -> tuple[SpaceLayout, tuple[Operator, ...]]:
    """The acted subsystems' own layout and time-0 generators, per dims."""
    layout = SpaceLayout(tuple((str(i), d) for i, d in enumerate(dims)))
    return layout, tuple(itertools.chain(*layout.weyl.generators))


@functools.lru_cache(maxsize=4096)
def _factors(row: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """A Weyl row's factors ``(position, component)``, shift a then clock b times per position."""
    m = len(row) // 2
    return tuple((i, j) for i in range(m) for j in (0, 1) for _ in range(row[i + j * m]))


@functools.lru_cache(maxsize=256)
def _weyl_terms(gate: Gate, dims: tuple[int, ...], images: bool = False) -> tuple:
    """The gate's nonzero expansion G = sum c X^a Z^b over the acted
    subsystems' shift/clock pairs, as a one-element tuple, or with
    ``images`` the images G^dag g G of those generators, shift then clock,
    position by position.  Each polynomial is ``(terms, factors)``: its
    Weyl terms on the acted subsystems' own layout, and per term its
    :func:`_factors`; no factors is the identity."""
    layout, generators = _generators(dims)
    g = Operator.from_matrix(layout, gate_matrix(gate, dims))
    # not @: the traced product count must not depend on this cache, nor is the kept one needed
    product = _term_product.__wrapped__
    polynomials = [product(product(g.H, x), g) for x in generators] if images else [g]
    return tuple((p, tuple(map(_factors, map(tuple, p.exponents.tolist())))) for p in polynomials)


def _evaluate(app: GateApplication, descriptors: Mapping, images: bool,
              fresh: bool = False) -> Sequence[Operator]:
    """The gate's expansion, or its generators' images, evaluated on the
    acted subsystems' descriptors, each monomial and each prefix of one
    multiplied out once.  On ``fresh`` subsystems, which no gate has acted
    on, the descriptors are the generators: the images are :func:`_placed`."""
    args = [descriptors[sid] for sid in app.subsystems]
    layout = args[0][0].layout
    if fresh:
        return _placed(app.gate, layout, tuple(map(layout.index_of, app.subsystems)))
    polynomials = _weyl_terms(app.gate, tuple(layout.dim_of(sid) for sid in app.subsystems), images)
    monomials = {}
    # a loop, not a recursive closure: the closure's reference cycle would
    # hold every monomial until the cyclic garbage collector happened to run
    for factors in (f for _, fs in polynomials for f in fs):
        if not factors:
            monomials[()] = Operator.identity(layout)
        for k, (i, j) in enumerate(factors, 1):
            if factors[:k] not in monomials:
                head = factors[:k - 1]
                monomials[factors[:k]] = monomials[head] @ args[i][j] if head else args[i][j]
    return [combination([monomials[f] for f in fs], p.coefficients) for p, fs in polynomials]


@functools.lru_cache(maxsize=256)
def _placed(gate: Gate, layout: SpaceLayout, acted: tuple[int, ...]) -> tuple[Operator, ...]:
    """The gate's generator images on fresh subsystems at positions ``acted``
    of ``layout``, kept: each polynomial's own terms move to the acted
    columns, merged once, as the products (all phases 1) make them."""
    m = len(layout.dims)
    place = np.eye(2 * m, dtype=np.int64)[[*acted, *(m + i for i in acted)]]  # column moves
    polynomials = _weyl_terms(gate, tuple(layout.dims[i] for i in acted), True)
    return tuple(_merged(layout, p.exponents @ place, p.coefficients) for p, _ in polynomials)


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
        self._initial = initial_descriptors(network.layout)
        self.descriptors = dict(self._initial)
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
            fresh = all(descriptors[sid] is self._initial[sid] for sid in app.subsystems)
            images = _evaluate(app, descriptors, True, fresh)
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
