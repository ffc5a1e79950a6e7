"""Dense complex operator algebra over composite Hilbert spaces.

Operators are stored as dense matrices in the full tensor-product space,
ordered by subsystem declaration order.  Expectation values are taken
against the fixed reference vector |0...0>, which never evolves; all
dynamics act on operators.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from math import prod

import numpy as np

DEFAULT_TOLERANCE = 1e-9
# the largest dense initial descriptors a layout may need; chain(2, 2), the
# largest Bell network the tests and demos run, needs 0.28 GiB
DESCRIPTOR_BUDGET_BYTES = 2**30

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class LayoutError(ValueError):
    """Malformed space layout, unknown subsystem id, or dimension mismatch."""


class AlgebraError(ValueError):
    """An operator violates a required algebraic predicate."""


def frobenius(matrix: np.ndarray) -> float:
    """Frobenius norm, the metric for all matrix-equality checks."""
    return float(np.linalg.norm(matrix))


def check_descriptor_budget(dims: dict[int, int]) -> None:
    """Refuse initial descriptors, two dense N x N complex components per
    subsystem, over the budget.  ``dims`` counts the subsystems of each
    dimension, so the check builds nothing of the layout's size."""
    budget = f"over the {DESCRIPTOR_BUDGET_BYTES / 2**30:g} GiB budget"
    # from N = 2^600 on, the estimate is over 1e308 GiB; N is not built
    if sum(m * (d.bit_length() - 1) for d, m in dims.items()) < 600:
        count, n = sum(dims.values()), prod(d**m for d, m in dims.items())
        estimate = 2 * count * n * n * 16
        if estimate <= DESCRIPTOR_BUDGET_BYTES:
            return
        if estimate < 10**308 * 2**30:  # a float holds the GiB figure
            raise LayoutError(
                f"initial descriptors need {estimate / 2**30:.3g} GiB "
                f"(2 x {count} subsystems x {n}^2 x 16 bytes), {budget}"
            )
    raise LayoutError(f"initial descriptors need over 1e+308 GiB, {budget}")


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered list of (id, dim) subsystems spanning one composite space.

    Tensor order equals declaration order.  The initial descriptors must
    fit in ``DESCRIPTOR_BUDGET_BYTES``, checked before any is allocated.
    """

    subsystems: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        subsystems = tuple((str(sid), int(dim)) for sid, dim in self.subsystems)
        object.__setattr__(self, "subsystems", subsystems)
        if not subsystems:
            raise LayoutError("layout needs at least one subsystem")
        ids = [sid for sid, _ in subsystems]
        if len(set(ids)) != len(ids):
            raise LayoutError(f"duplicate subsystem ids in {ids}")
        for sid, dim in subsystems:
            if dim < 2:
                raise LayoutError(f"subsystem {sid!r} has dim {dim} < 2")
        check_descriptor_budget(Counter(self.dims))

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(sid for sid, _ in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.subsystems)

    @property
    def total_dim(self) -> int:
        return prod(self.dims)

    def index_of(self, sid: str) -> int:
        for i, (name, _) in enumerate(self.subsystems):
            if name == sid:
                return i
        raise LayoutError(f"unknown subsystem id {sid!r}")

    def dim_of(self, sid: str) -> int:
        return self.subsystems[self.index_of(sid)][1]


@dataclass(frozen=True, eq=False)
class Operator:
    """A dense complex operator on a layout's full space.

    Immutable; arithmetic returns new instances.  Equality is numeric,
    via :meth:`distance` / :meth:`isclose`, never ``==``.
    """

    layout: SpaceLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=complex)
        n = self.layout.total_dim
        if matrix.shape != (n, n):
            raise LayoutError(
                f"operator shape {matrix.shape} does not match layout dim {n}"
            )
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def _wrap(cls, layout: SpaceLayout, matrix: np.ndarray) -> "Operator":
        # adopt a freshly computed array without the defensive copy
        op = object.__new__(cls)
        matrix.setflags(write=False)
        object.__setattr__(op, "layout", layout)
        object.__setattr__(op, "matrix", matrix)
        return op

    @classmethod
    def identity(cls, layout: SpaceLayout) -> "Operator":
        return cls._wrap(layout, np.eye(layout.total_dim, dtype=complex))

    def _same_layout(self, other: "Operator") -> None:
        if self.layout != other.layout:
            raise LayoutError("operators live on different layouts")

    def __matmul__(self, other: "Operator") -> "Operator":
        self._same_layout(other)
        return Operator._wrap(self.layout, self.matrix @ other.matrix)

    def __add__(self, other: "Operator") -> "Operator":
        self._same_layout(other)
        return Operator._wrap(self.layout, self.matrix + other.matrix)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator._wrap(self.layout, self.matrix * complex(scalar))

    __rmul__ = __mul__

    @property
    def H(self) -> "Operator":
        """Adjoint (conjugate transpose)."""
        return Operator._wrap(self.layout, self.matrix.conj().T)

    def matpow(self, k: int) -> "Operator":
        return Operator._wrap(self.layout, np.linalg.matrix_power(self.matrix, k))

    def expectation(self) -> complex:
        """<0...0| self |0...0>, the (0, 0) entry."""
        return complex(self.matrix[0, 0])

    def distance(self, other: "Operator") -> float:
        self._same_layout(other)
        return frobenius(self.matrix - other.matrix)

    def isclose(self, other: "Operator", tol: float = DEFAULT_TOLERANCE) -> bool:
        return self.distance(other) < tol

    def is_hermitian(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        return frobenius(self.matrix - self.matrix.conj().T) < tol

    def is_unitary(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        n = self.layout.total_dim
        return frobenius(self.matrix.conj().T @ self.matrix - np.eye(n)) < tol

    def is_involution(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        n = self.layout.total_dim
        return frobenius(self.matrix @ self.matrix - np.eye(n)) < tol

    def is_projector(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        sq = self.matrix @ self.matrix
        return (
            frobenius(sq - self.matrix) < tol
            and frobenius(self.matrix - self.matrix.conj().T) < tol
        )

    def commutes_with(self, other: "Operator", tol: float = DEFAULT_TOLERANCE) -> bool:
        self._same_layout(other)
        return frobenius(self.matrix @ other.matrix - other.matrix @ self.matrix) < tol


def embed_matrix(
    small: np.ndarray, targets: tuple[str, ...], layout: SpaceLayout
) -> np.ndarray:
    """Tensor a small matrix acting on ``targets`` (in that order) with the
    identity on every other subsystem, permuted into layout order."""
    small = np.asarray(small, dtype=complex)
    t_idx = [layout.index_of(sid) for sid in targets]
    if len(set(t_idx)) != len(t_idx):
        raise LayoutError(f"repeated target subsystems {targets}")
    dims = layout.dims
    acted = prod(dims[i] for i in t_idx)
    if small.shape != (acted, acted):
        raise LayoutError(
            f"gate shape {small.shape} does not match acted dims product {acted}"
        )
    rest = [i for i in range(len(dims)) if i not in t_idx]
    big = np.kron(small, np.eye(prod(dims[i] for i in rest) if rest else 1))
    # Axis a of the kron result corresponds to layout position order[a];
    # transpose so axis j corresponds to layout position j on both sides.
    order = t_idx + rest
    perm = [order.index(j) for j in range(len(dims))]
    n_axes = len(dims)
    tensor = big.reshape(tuple(dims[i] for i in order) * 2)
    tensor = tensor.transpose(perm + [n_axes + p for p in perm])
    n = layout.total_dim
    return np.ascontiguousarray(tensor.reshape(n, n))


def embed_local(op: np.ndarray, target: str, layout: SpaceLayout) -> Operator:
    """Embed a single-subsystem operator into the full space."""
    dim = layout.dim_of(target)
    op = np.asarray(op, dtype=complex)
    if op.shape != (dim, dim):
        raise LayoutError(
            f"operator shape {op.shape} does not match subsystem {target!r} dim {dim}"
        )
    return Operator._wrap(layout, embed_matrix(op, (target,), layout))


def compose(a: Operator | None, b: Operator | None) -> Operator | None:
    """a @ b, where None stands for the identity and costs no product."""
    return b if a is None else a if b is None else a @ b


def half_sum(q: Operator, sign: int) -> Operator:
    """(1 + sign*q)/2 without checks; callers guarantee q is an involution."""
    n = q.layout.total_dim
    return Operator._wrap(q.layout, (np.eye(n) + sign * q.matrix) / 2)


@functools.lru_cache(maxsize=16)
def qudit_shift_clock(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only generators of every d-level subsystem: shift
    (|j> -> |j+1 mod d>) and clock (diag of omega^j, omega = exp(2 pi i/d)).

    Their monomials shift^a clock^b form an operator basis.  The clock is
    the inverse FFT of the shift's first column, the convention the
    engine's Weyl expansion inverts with the forward FFT, and is exact at
    d = 2, (sigma_x, sigma_z), and d = 4, diag(1, i, -1, -i).
    """
    if dim < 2:
        raise ValueError(f"shift/clock need dim >= 2, got {dim}")
    shift = np.roll(np.eye(dim, dtype=complex), 1, axis=0)
    clock = np.diag(dim * np.fft.ifft(shift[:, 0]))
    for generator in (shift, clock):
        generator.setflags(write=False)
    return shift, clock


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
