"""Descriptor construction and evolution in the Heisenberg picture.

Each subsystem carries a descriptor: the tuple of its (shift, clock)
generator pair embedded in the full space, (sigma_x, sigma_z) for a
qubit, each component a short sum of Weyl terms, never an N x N matrix.
The time belongs to the evolution, not to the descriptors.  A gate G
applied to subsystems J evolves every descriptor by conjugation with the
gate's functional form: G's expansion sum c X^a Z^b over the time-0
generators of J, evaluated on the current descriptors of J, which is
U(t)^dag G U(t) for the unitary U(t) of the gates before it.
Descriptors of subsystems outside J commute with that polynomial, so
they are left untouched; :func:`locality_residual` verifies this
numerically.  A controlled gate is expanded like any other; on a qubit
control its form is P0 + P1 V, the split a foliation makes.  This is the
package's one evolution path; the tests cross-check it against dense
cumulative conjugation, which shares no term arithmetic with it.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Mapping

import numpy as np

from .gates import Gate, GateApplication, Network
from .operators import (
    DEFAULT_TOLERANCE,
    AlgebraError,
    Operator,
    SpaceLayout,
    as_index,
    qudit_shift_clock,
)


class EngineError(ValueError):
    """Evolution bookkeeping violated: an out-of-range or non-integer time."""


def initial_descriptors(layout: SpaceLayout) -> dict[str, tuple[Operator, ...]]:
    """Every subsystem's time-0 descriptor: its shift/clock pair, embedded:
    the single terms X_i and Z_i."""
    m = len(layout.dims)
    unit = np.eye(2 * m, dtype=np.int64)
    return {
        sid: tuple(Operator(layout, unit[[j]], np.ones(1, complex)) for j in (i, m + i))
        for i, sid in enumerate(layout.ids)
    }


@functools.lru_cache(maxsize=256)
def _weyl_terms(gate: Gate, dims: tuple[int, ...]) -> tuple:
    """The gate's nonzero expansion G = sum c X^a Z^b over the acted
    subsystems' shift/clock pairs: ``((factors, c), ...)``, where each
    monomial's factors list ``(position, component)`` in product order,
    component 0 (the shift) a times, then component 1 (the clock) b times,
    position by position; no factors is the identity."""
    m = len(dims)
    layout = SpaceLayout(tuple((str(i), d) for i, d in enumerate(dims)))
    terms = Operator.from_matrix(layout, gate.matrix(dims))
    return tuple(
        (tuple((i, j) for i in range(m) for j in (0, 1) for _ in range(row[i + j * m])), c)
        for row, c in zip(terms.exponents.tolist(), terms.coefficients.tolist())
    )


def functional_form(
    app: GateApplication, descriptors: Mapping[str, tuple[Operator, ...]]
) -> Operator:
    """The gate's unitary expressed in the acted subsystems' descriptors.

    The gate's expansion over the time-0 generators, evaluated on the
    current ones.  Fed time-0 descriptors this reproduces the embedded
    gate matrix (the defining equation); fed time-t descriptors it is
    U(t)^dag G U(t), the conjugating unitary of the step-evolution law,
    because conjugation preserves sums and products.
    """
    args = [descriptors[sid] for sid in app.subsystems]
    layout = args[0][0].layout
    dims = tuple(layout.dim_of(sid) for sid in app.subsystems)

    def monomial(factors: tuple[tuple[int, int], ...]) -> Operator:
        ops = [args[i][j] for i, j in factors]
        return functools.reduce(operator.matmul, ops) if ops else Operator.identity(layout)

    return functools.reduce(
        operator.add, (monomial(f) * c for f, c in _weyl_terms(app.gate, dims))
    )


class NetworkEvolution:
    """Iterates the step law slice by slice through a network."""

    def __init__(self, network: Network):
        self._slices = network.slices
        self.descriptors = initial_descriptors(network.layout)
        self.time = 0

    def advance(self) -> list[tuple[GateApplication, Operator]]:
        """Apply every gate of the current slice (disjoint, so order-free);
        returns each gate with the functional form it was applied by.

        Only the acted subsystems' components are conjugated: components
        of non-acted subsystems commute with the gate polynomial, so
        conjugation leaves them unchanged; :func:`locality_residual`
        checks that identity explicitly.
        """
        if self.time >= len(self._slices):
            raise EngineError(f"network exhausted at time {self.time}")
        descriptors = dict(self.descriptors)
        applied = []
        for app in self._slices[self.time]:
            unitary = functional_form(app, descriptors)
            u_dag = unitary.H
            for sid in app.subsystems:
                descriptors[sid] = tuple(u_dag @ c @ unitary for c in descriptors[sid])
            applied.append((app, unitary))
        self.time += 1
        self.descriptors = descriptors
        return applied

    def run_to(self, t: int) -> "NetworkEvolution":
        t = as_index(t, "time", EngineError)
        if not 0 <= t <= len(self._slices):
            raise EngineError(f"time {t} outside network range 0..{len(self._slices)}")
        if t < self.time:
            raise EngineError(f"cannot rewind from {self.time} to {t}")
        while self.time < t:
            self.advance()
        return self

    def run(self) -> "NetworkEvolution":
        return self.run_to(len(self._slices))


def is_sharp(o: Operator) -> tuple[bool, float | None]:
    """Whether the observable has a definite value (null variance) with
    respect to the reference vector; returns the value when it does."""
    if not o.is_hermitian():
        raise AlgebraError("sharpness is defined for hermitian observables")
    mean = o.expectation()
    if abs(mean.imag) > DEFAULT_TOLERANCE:
        raise AlgebraError(f"hermitian expectation has imaginary part {mean.imag}")
    second = (o @ o).expectation()
    sharp = abs(second - mean**2) < DEFAULT_TOLERANCE
    return (True, float(mean.real)) if sharp else (False, None)


def locality_residual(network: Network) -> float:
    """Max Frobenius change a gate's conjugation would inflict on the
    descriptors of subsystems it does not act on.

    The step engine relies on that change being zero; this performs the
    conjugation anyway, for every gate and every non-acted component.
    """
    evo = NetworkEvolution(network)
    worst = 0.0
    for _ in network.slices:
        before = evo.descriptors
        for app, unitary in evo.advance():
            u_dag = unitary.H
            for sid in before.keys() - set(app.subsystems):
                for comp in before[sid]:
                    worst = max(worst, (u_dag @ comp @ unitary).distance(comp))
    return worst


def algebra_residual(descriptors: Mapping[str, tuple[Operator, ...]]) -> float:
    """Worst violation of the preserved algebraic relations: per subsystem,
    unitarity, x^d = z^d = I and z x = omega x z; across subsystems,
    commutation."""
    worst = 0.0
    for sid, (x, z) in descriptors.items():
        d = x.layout.dim_of(sid)
        eye = Operator.identity(x.layout)
        for c in (x, z):
            worst = max(worst, (c.H @ c).distance(eye), c.matpow(d).distance(eye))
        omega = qudit_shift_clock(d)[1][1, 1]  # the clock's second entry
        worst = max(worst, (z @ x).distance(omega * (x @ z)))
    comps = [(sid, c) for sid, desc in descriptors.items() for c in desc]
    for (s1, c1), (s2, c2) in itertools.combinations(comps, 2):
        if s1 != s2:
            worst = max(worst, (c1 @ c2).distance(c2 @ c1))
    return worst
