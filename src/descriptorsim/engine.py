"""Descriptor construction and evolution in the Heisenberg picture.

Each subsystem carries a descriptor: an ordered pair of generator
observables embedded in the full space ((x, z) for qubits, (shift, clock)
for qudits).  A gate G applied to subsystems J evolves every descriptor by
conjugation with the gate's functional form, the fixed polynomial in the
current descriptors of J that reproduces G's matrix when fed time-0
descriptors.  Descriptors of subsystems outside J commute with that
polynomial, so they are left untouched; :func:`locality_residual` verifies
this numerically and the cumulative-conjugation engine cross-checks the
whole step law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .gates import (
    Cnot,
    ControlledPlus,
    CustomGate,
    GateApplication,
    Hadamard,
    Network,
    Plus,
    RotationY,
)
from .operators import (
    DEFAULT_TOLERANCE,
    PAULI_X,
    PAULI_Z,
    AlgebraError,
    LayoutError,
    Operator,
    SpaceLayout,
    embed_local,
    embed_matrix,
    frobenius,
    half_sum,
    qudit_shift_clock,
)


class EngineError(ValueError):
    """Evolution bookkeeping violated: time mismatch or unsupported path."""


@dataclass(frozen=True)
class Descriptor:
    """The generator observables of one subsystem at one time step."""

    subsystem: str
    time: int
    components: tuple[Operator, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))
        layouts = {c.layout for c in self.components}
        if len(layouts) != 1:
            raise LayoutError("descriptor components live on different layouts")

    @property
    def layout(self) -> SpaceLayout:
        return self.components[0].layout


def initial_qubit_descriptor(sid: str, layout: SpaceLayout) -> Descriptor:
    """(sigma_x, sigma_z) embedded on subsystem ``sid``; time 0."""
    if layout.dim_of(sid) != 2:
        raise LayoutError(f"subsystem {sid!r} is not a qubit")
    return Descriptor(
        sid, 0, (embed_local(PAULI_X, sid, layout), embed_local(PAULI_Z, sid, layout))
    )


def initial_qudit_descriptor(sid: str, layout: SpaceLayout) -> Descriptor:
    """Embedded (shift, clock) pair; generates the subsystem's operator algebra."""
    shift, clock = qudit_shift_clock(layout.dim_of(sid))
    return Descriptor(
        sid, 0, (embed_local(shift, sid, layout), embed_local(clock, sid, layout))
    )


def initial_descriptors(layout: SpaceLayout) -> dict[str, Descriptor]:
    """Initial descriptors for every subsystem: qubit pairs for dim 2,
    shift/clock pairs otherwise."""
    out = {}
    for sid, dim in layout.subsystems:
        if dim == 2:
            out[sid] = initial_qubit_descriptor(sid, layout)
        else:
            out[sid] = initial_qudit_descriptor(sid, layout)
    return out


def functional_form(
    app: GateApplication,
    descriptors: Mapping[str, Descriptor],
    frame: Operator | None = None,
) -> Operator:
    """The gate's unitary expressed in the acted subsystems' descriptors.

    Fed time-0 descriptors this reproduces the embedded gate matrix (the
    defining equation); fed time-t descriptors it is the conjugating
    unitary of the step-evolution law.  Custom gates have no fixed
    polynomial and need the cumulative ``frame`` U(t) instead, giving
    U(t)^dag G U(t); at time 0 they take no frame and give G itself.
    """
    gate = app.gate
    args = [descriptors[sid] for sid in app.subsystems]
    times = {d.time for d in args}
    if len(times) != 1:
        raise EngineError(f"descriptor times differ: {sorted(times)}")
    layout = args[0].layout

    if isinstance(gate, Hadamard):
        qx, qz = args[0].components
        return (qx + qz) * (1 / np.sqrt(2))
    if isinstance(gate, RotationY):
        qx, qz = args[0].components
        half = gate.theta / 2
        return Operator.identity(layout) * np.cos(half) + (qx @ qz) * np.sin(half)
    # half_sum skips the involution re-check of a control's z component:
    # evolution preserves the algebra, which the property tests verify
    # independently
    if isinstance(gate, Cnot):
        control, target = args
        q_cz = control.components[1]
        q_tx = target.components[0]
        return half_sum(q_cz, +1) + half_sum(q_cz, -1) @ q_tx
    if isinstance(gate, Plus):
        shift = args[0].components[0]
        return shift.matpow(gate.k % args[0].layout.dim_of(args[0].subsystem))
    if isinstance(gate, ControlledPlus):
        control, target = args
        q_cz = control.components[1]
        shift = target.components[0]
        power = shift.matpow(gate.k % layout.dim_of(target.subsystem))
        return half_sum(q_cz, +1) + half_sum(q_cz, -1) @ power
    if isinstance(gate, CustomGate):
        if frame is None and times != {0}:
            raise EngineError(
                "custom gates after time 0 need the cumulative frame; "
                "use NetworkEvolution or cumulative_evolve"
            )
        dims = tuple(layout.dim_of(sid) for sid in app.subsystems)
        embedded = Operator(
            layout, embed_matrix(gate.matrix(dims), app.subsystems, layout)
        )
        return embedded if frame is None else frame.H @ embedded @ frame
    raise EngineError(f"unknown gate kind {type(gate).__name__}")


def _network_form(
    network: Network, app: GateApplication, descriptors: Mapping[str, Descriptor]
) -> Operator:
    """The functional form of one of the network's gates; a custom gate
    after time 0 gets the cumulative unitary of the slices before it as
    its frame."""
    frame = (
        cumulative_unitary(network, app.time)
        if isinstance(app.gate, CustomGate) and app.time > 0
        else None
    )
    return functional_form(app, descriptors, frame)


class NetworkEvolution:
    """Iterates the step law slice by slice through a network.

    The production evolution path; :func:`cumulative_evolve` is the
    independent reference.  A custom gate (the one gate kind without a
    fixed polynomial) after time 0 takes its frame from
    :func:`cumulative_unitary` when it is reached, so gates after the last
    custom gate pay nothing for it.
    """

    def __init__(self, network: Network):
        self.network = network
        self._slices = network.slices()
        self.descriptors = initial_descriptors(network.layout)
        self.time = 0

    def advance(self) -> None:
        """Apply every gate of the current slice (disjoint, so order-free).

        Only the acted subsystems' components are conjugated: components
        of non-acted subsystems commute with the gate polynomial, so
        conjugation leaves them unchanged; :func:`locality_residual`
        checks that identity explicitly.
        """
        if self.time >= len(self._slices):
            raise EngineError(f"network exhausted at time {self.time}")
        descriptors = dict(self.descriptors)
        for app in self._slices[self.time]:
            unitary = _network_form(self.network, app, descriptors)
            u_dag = unitary.H
            for sid in app.subsystems:
                comps = tuple(u_dag @ c @ unitary for c in descriptors[sid].components)
                descriptors[sid] = Descriptor(sid, self.time, comps)
        self.time += 1
        self.descriptors = {
            sid: Descriptor(sid, self.time, d.components)
            for sid, d in descriptors.items()
        }

    def run_to(self, t: int) -> "NetworkEvolution":
        if not 0 <= t <= len(self._slices):
            raise EngineError(f"time {t} outside network range 0..{len(self._slices)}")
        if t < self.time:
            raise EngineError(f"cannot rewind from {self.time} to {t}")
        while self.time < t:
            self.advance()
        return self

    def run(self) -> "NetworkEvolution":
        return self.run_to(len(self._slices))

    def descriptor(self, sid: str) -> Descriptor:
        return self.descriptors[sid]


def cumulative_unitary(network: Network, t: int | None = None) -> Operator:
    """Product of embedded gate matrices of the first ``t`` slices,
    latest on the left."""
    if t is None:
        t = network.n_steps
    if not 0 <= t <= network.n_steps:
        raise EngineError(f"time {t} outside network range 0..{network.n_steps}")
    u = Operator.identity(network.layout)
    for app in network.gates:
        if app.time >= t:
            break
        u = network.embedded(app) @ u
    return u


def cumulative_evolve(network: Network, t: int | None = None) -> dict[str, Descriptor]:
    """Descriptors at time t by direct conjugation with the cumulative
    unitary; the reference engine that cross-checks the step law."""
    if t is None:
        t = network.n_steps
    u = cumulative_unitary(network, t)
    u_dag = u.H
    out = {}
    for sid, desc in initial_descriptors(network.layout).items():
        comps = tuple(u_dag @ c @ u for c in desc.components)
        out[sid] = Descriptor(sid, t, comps)
    return out


def is_sharp(o: Operator) -> tuple[bool, float | None]:
    """Whether the observable has a definite value (null variance) with
    respect to the reference vector; returns the value when it does."""
    if not o.is_hermitian():
        raise AlgebraError("sharpness is defined for hermitian observables")
    mean = o.expectation()
    if abs(mean.imag) > DEFAULT_TOLERANCE:
        raise AlgebraError(f"hermitian expectation has imaginary part {mean.imag}")
    second = complex(o.matrix[0, :] @ o.matrix[:, 0])
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
    for sl in network.slices():
        for app in sl:
            unitary = _network_form(network, app, evo.descriptors)
            u_dag = unitary.H
            for sid, desc in evo.descriptors.items():
                if sid in app.subsystems:
                    continue
                for comp in desc.components:
                    moved = u_dag @ comp @ unitary
                    worst = max(worst, moved.distance(comp))
        evo.advance()
    return worst


def algebra_residual(
    descriptors: Mapping[str, Descriptor] | Iterable[Descriptor],
) -> float:
    """Worst violation of the preserved algebraic relations: unitarity and
    power/phase identities per subsystem, commutation across subsystems."""
    if isinstance(descriptors, Mapping):
        descs = list(descriptors.values())
    else:
        descs = list(descriptors)
    worst = 0.0
    for desc in descs:
        d = desc.layout.dim_of(desc.subsystem)
        a, b = desc.components
        eye = np.eye(desc.layout.total_dim)
        for c in desc.components:
            worst = max(worst, frobenius(c.matrix.conj().T @ c.matrix - eye))
        if d == 2:
            worst = max(worst, frobenius(a.matrix @ a.matrix - eye))
            worst = max(worst, frobenius(b.matrix @ b.matrix - eye))
            worst = max(worst, frobenius(a.matrix @ b.matrix + b.matrix @ a.matrix))
        else:
            omega = np.exp(2j * np.pi / d)
            worst = max(worst, frobenius(np.linalg.matrix_power(a.matrix, d) - eye))
            worst = max(worst, frobenius(np.linalg.matrix_power(b.matrix, d) - eye))
            worst = max(
                worst,
                frobenius(b.matrix @ a.matrix - omega * a.matrix @ b.matrix),
            )
    for i, d1 in enumerate(descs):
        for d2 in descs[i + 1 :]:
            for c1 in d1.components:
                for c2 in d2.components:
                    worst = max(
                        worst,
                        frobenius(c1.matrix @ c2.matrix - c2.matrix @ c1.matrix),
                    )
    return worst
