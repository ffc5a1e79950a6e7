"""Gate kinds, gate applications, and networks.

A network is a sequence of time slices over a declared layout; each slice
holds gate applications on disjoint subsystems, and a gate's time is the
position of its slice.  Gate kinds know their matrix form only; the
engine derives their functional (operator-valued) forms from it.
``matrix(dims)`` is also the one check that a gate fits the dims, and so
the number, of the subsystems it acts on: the network, its embedding and
the functional form all read it, once per (gate, dims), through
:func:`gate_matrix`.  A controlled gate is ``Controlled(gate)``.
"""

from __future__ import annotations

import functools
from math import isfinite, prod

import numpy as np

from .operators import (
    DEFAULT_TOLERANCE,
    SpaceLayout,
    Value,
    as_index,
    as_real,
    embed_matrix,
    qudit_shift_clock,
)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class NetworkError(ValueError):
    """Malformed network: a bad slice, an out-of-range time, or a gate/dim mismatch."""


def _require_dims(name: str, dims: tuple[int, ...], expected: tuple[int, ...]) -> None:
    if dims != expected:
        raise NetworkError(f"{name} expects subsystem dims {expected}, got {dims}")


class Hadamard(Value):
    def matrix(self, dims: tuple[int, ...]) -> np.ndarray:
        _require_dims("H", dims, (2,))
        return HADAMARD.copy()


class RotationY(Value):
    """Bloch-sphere rotation around the y axis by ``theta`` radians."""

    _fields = ("theta",)

    def __init__(self, theta: float) -> None:
        if not isfinite(as_real(theta, "Ry angle", NetworkError)):
            raise NetworkError(f"Ry angle {theta} is not finite")
        self._freeze(theta)

    def matrix(self, dims: tuple[int, ...]) -> np.ndarray:
        _require_dims("Ry", dims, (2,))
        c, s = np.cos(self.theta / 2), np.sin(self.theta / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)


class Plus(Value):
    """|j> -> |j + k mod d> on one qudit."""

    _fields = ("k",)

    def __init__(self, k: int) -> None:
        as_index(k, "Plus shift", NetworkError)
        self._freeze(k)

    def matrix(self, dims: tuple[int, ...]) -> np.ndarray:
        if len(dims) != 1:
            raise NetworkError(f"Plus expects subsystem dims (d,), got {dims}")
        shift, _ = qudit_shift_clock(dims[0])
        return np.linalg.matrix_power(shift, self.k % dims[0])


class Controlled(Value):
    """``gate`` raised to the control's value: on (control, *targets), block
    j of the matrix is ``gate``'s to the power j.  The controlled-not is
    ``Controlled(Plus(1))``; a Toffoli, ``Controlled(Controlled(Plus(1)))``."""

    _fields = ("gate",)

    def __init__(self, gate: Gate) -> None:
        if not isinstance(gate, Gate):
            raise NetworkError(f"Controlled needs a gate, got {gate!r}")
        self._freeze(gate)

    def matrix(self, dims: tuple[int, ...]) -> np.ndarray:
        if not dims:
            raise NetworkError(f"Controlled expects subsystem dims (control, *targets), got {dims}")
        g = self.gate.matrix(dims[1:])
        if g.ndim != 2:  # a stack of a sweep's members, not one matrix to raise to each power
            raise NetworkError(f"Controlled cannot hold the stacked {self.gate!r}")
        n = len(g)
        m = np.zeros((dims[0] * n, dims[0] * n), dtype=complex)
        for j in range(dims[0]):
            m[j * n:(j + 1) * n, j * n:(j + 1) * n] = np.linalg.matrix_power(g, j)
        return m


class CustomGate(Value):
    """An arbitrary unitary supplied as an explicit matrix, or a sweep's
    members as a (B, D, D) stack of unitaries, one per member."""

    _fields = ("name",)  # the unitary, set beside the name, is not shown
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, unitary: np.ndarray, name: str = "custom") -> None:
        u = np.array(unitary, dtype=complex)
        if u.ndim not in (2, 3) or u.shape[-1] != u.shape[-2] or not u.size:
            raise NetworkError(f"custom gate matrix must be square, or a stack of square ones, got {u.shape}")
        # a unitary's entries have modulus at most 1, which a NaN, infinite or
        # huge entry fails before the product could overflow on it
        bounded = (np.abs(u) <= 1 + DEFAULT_TOLERANCE).all()
        if not (bounded and np.linalg.norm(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1]),
                                           axis=(-2, -1)).max() <= DEFAULT_TOLERANCE):  # every member's
            raise NetworkError(f"custom gate {name!r} is not unitary")
        u.setflags(write=False)
        self._freeze(name)
        object.__setattr__(self, "unitary", u)

    def matrix(self, dims: tuple[int, ...]) -> np.ndarray:
        if self.unitary.shape[-1] != prod(dims):
            raise NetworkError(f"custom gate dim {self.unitary.shape[-1]} does not match acted dims {dims}")
        return self.unitary


Gate = Hadamard | RotationY | Plus | Controlled | CustomGate


class GateApplication(Value):
    """One gate applied to an ordered tuple of subsystem ids."""

    _fields = ("gate", "subsystems")

    def __init__(self, gate: Gate, subsystems: tuple[str, ...]) -> None:
        if not isinstance(gate, Gate):
            raise NetworkError(f"GateApplication needs a gate, got {gate!r}")
        if isinstance(subsystems, str):  # tuple() would split it into one-letter ids
            raise NetworkError(f"subsystems {subsystems!r} is a string, not a tuple of ids")
        try:
            subsystems = tuple(subsystems)
        except TypeError:
            raise NetworkError(f"subsystems {subsystems!r} are not a tuple of ids") from None
        if not all(isinstance(sid, str) for sid in subsystems):  # as in SpaceLayout: 3 is not "3"
            raise NetworkError(f"subsystem ids {subsystems!r} are not all strings")
        if not subsystems:
            raise NetworkError(f"{type(gate).__name__} acts on no subsystems")
        if len(set(subsystems)) != len(subsystems):
            raise NetworkError(f"repeated subsystem in {subsystems}")
        self._freeze(gate, subsystems)


class Network(Value):
    """Time slices of gate applications over a layout.

    A gate's time is the position of its slice; the gates of one slice
    act on disjoint subsystems, and every slice holds at least one gate.
    """

    _fields = ("layout", "slices")

    def __init__(self, layout: SpaceLayout, slices: tuple[tuple[GateApplication, ...], ...] = ()) -> None:
        if not isinstance(layout, SpaceLayout):
            raise NetworkError(f"Network needs a SpaceLayout, got {layout!r}")
        try:
            slices = tuple(tuple(sl) for sl in slices)
        except TypeError:
            raise NetworkError(f"slices {slices!r} are not sequences of gates") from None
        for t, sl in enumerate(slices):
            if not sl:
                raise NetworkError(f"slice {t} holds no gates")
            acted: set[str] = set()
            for app in sl:
                if not isinstance(app, GateApplication):
                    raise NetworkError(f"slice {t} holds {app!r}, not a GateApplication")
                dims = tuple(layout.dim_of(sid) for sid in app.subsystems)
                gate_matrix(app.gate, dims)  # the check that the gate fits these dims
                overlap = acted & set(app.subsystems)
                if overlap:
                    raise NetworkError(f"slice {t}: subsystems {sorted(overlap)} acted twice")
                acted |= set(app.subsystems)
        self._freeze(layout, slices)

    def upto(self, t: int) -> Network:
        """The prefix of the first ``t`` slices."""
        t = as_index(t, "time", NetworkError)
        if not 0 <= t <= len(self.slices):
            raise NetworkError(f"time {t} outside network range 0..{len(self.slices)}")
        return Network(self.layout, self.slices[:t])

    def matrix_of(self, app: GateApplication) -> np.ndarray:
        """The gate's one matrix on its subsystems, for a state vector, which no sweep's stack fits."""
        matrix = gate_matrix(app.gate, tuple(self.layout.dim_of(sid) for sid in app.subsystems))
        if matrix.ndim != 2:
            raise NetworkError(f"a state vector cannot take the stacked {app.gate!r}")
        return matrix

    def embedded(self, app: GateApplication) -> np.ndarray:
        """The gate's dense matrix tensored into the full space, for the
        state-vector oracle and the tests' dense reference."""
        return embed_matrix(self.matrix_of(app), app.subsystems, self.layout)


@functools.lru_cache(maxsize=64)
def gate_matrix(gate: Gate, dims: tuple[int, ...]) -> np.ndarray:
    """``gate.matrix(dims)``, computed once per (gate, dims), read-only: the
    fit check, the embeddings and the engine's expansion all read it."""
    matrix = gate.matrix(dims)
    matrix.setflags(write=False)
    return matrix
