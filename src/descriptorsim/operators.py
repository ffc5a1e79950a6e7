"""Complex operator algebra over composite Hilbert spaces, in Weyl terms.

An operator is a short sum of monomials c X^a Z^b, the tensor product
(in subsystem declaration order) of each subsystem's shift^a_i clock^b_i.
Each monomial is a phased permutation, so products, adjoints, norms and
expectations are sums over terms; dense N x N matrices appear only at the
edges: the state-vector oracle and the tests.
Expectation values are taken against the fixed reference vector |0...0>,
which never evolves; all dynamics act on operators.
"""

from __future__ import annotations

import functools
import numbers
import operator
from collections import Counter
from dataclasses import dataclass
from math import lcm, prod
from typing import NamedTuple

import numpy as np

DEFAULT_TOLERANCE = 1e-9
# the largest dense initial descriptors a layout may need (chain(2, 2) needs
# 0.28 GiB); it guards the dense oracle and the tests' dense views, and keeps
# N^2 below 2^63 for the int64 keys of Weyl terms
DESCRIPTOR_BUDGET_BYTES = 2**30
# a merged term with |c| <= PRUNE * max |c| is roundoff and is dropped;
# without this the residue of cancelled terms fills every operator in
PRUNE = 1e-14

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


class LayoutError(ValueError):
    """Malformed space layout, unknown subsystem id, or dimension mismatch."""


class AlgebraError(ValueError):
    """An operator violates a required algebraic predicate."""


def as_index(value, what: str, error: type[ValueError]) -> int:
    """``value`` as an int, raising ``error`` for a bool, a float, a string
    or any other non-integer, rather than truncating, parsing or failing
    later."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise error(f"{what} {value!r} is not an integer")


def as_real(value, what: str, error: type[ValueError]):
    """``value`` itself if it is a real number a float can hold, raising
    ``error`` for a bool, a string, None, any other non-real, or a real too
    large for a float, rather than failing later."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{what} {value!r} is not a real number")
    try:
        float(value)
    except OverflowError:
        raise error(f"{what} is too large for a float") from None
    return value


def check_descriptor_budget(dims: dict[int, int]) -> None:
    """Refuse dense initial descriptors (two N x N complex components per
    subsystem, the oracle's matrix size) over the budget.  ``dims`` counts
    each dimension's subsystems; nothing is built."""
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


class WeylConstants(NamedTuple):
    """Per-layout constants of the term arithmetic, over the exponent
    columns (a_1..a_m, b_1..b_m)."""

    mods: np.ndarray  # each column's dimension
    keys: np.ndarray  # mixed-radix weights: a row's int64 key is exps @ keys
    weights: np.ndarray  # omega_i^k = table[weights_i * k mod len(table)]
    table: np.ndarray  # the clock diagonal of dimension lcm(dims)


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered list of (id, dim) subsystems spanning one composite space.

    Tensor order equals declaration order.  The dense initial descriptors
    must fit in ``DESCRIPTOR_BUDGET_BYTES``, checked before any is built.
    """

    subsystems: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        try:
            pairs = [(sid, d) for sid, d in self.subsystems]
        except (TypeError, ValueError):
            raise LayoutError(f"{self.subsystems!r} are not (id, dim) pairs") from None
        subsystems = tuple(
            (sid, as_index(d, "subsystem dimension", LayoutError)) for sid, d in pairs
        )
        object.__setattr__(self, "subsystems", subsystems)
        if not subsystems:
            raise LayoutError("layout needs at least one subsystem")
        for sid, dim in subsystems:
            if not isinstance(sid, str):  # 3 is not renamed "3"
                raise LayoutError(f"subsystem id {sid!r} is not a string")
            if dim < 2:
                raise LayoutError(f"subsystem {sid!r} has dim {dim} < 2")
        ids = [sid for sid, _ in subsystems]
        if len(set(ids)) != len(ids):
            raise LayoutError(f"duplicate subsystem ids in {ids}")
        check_descriptor_budget(Counter(self.dims))

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(sid for sid, _ in self.subsystems)

    @functools.cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.subsystems)

    @functools.cached_property
    def total_dim(self) -> int:
        return prod(self.dims)

    @functools.cached_property
    def weyl(self) -> WeylConstants:
        mods = np.array(self.dims * 2, dtype=np.int64)
        keys = np.cumprod(np.r_[1, mods[:0:-1]])[::-1].copy()
        order = lcm(*self.dims)
        weights = order // mods[: len(self.dims)]
        return WeylConstants(mods, keys, weights, np.diag(qudit_shift_clock(order)[1]))

    def index_of(self, sid: str) -> int:
        for i, (name, _) in enumerate(self.subsystems):
            if name == sid:
                return i
        raise LayoutError(f"unknown subsystem id {sid!r}")

    def dim_of(self, sid: str) -> int:
        return self.subsystems[self.index_of(sid)][1]


@dataclass(frozen=True, eq=False)
class Operator:
    """sum_t coefficients[t] X^exponents[t, :m] Z^exponents[t, m:] on a
    layout of m subsystems, with distinct exponent rows.

    Immutable; arithmetic returns new instances.  Equality is numeric,
    via :meth:`distance` / :meth:`isclose`, never ``==``.
    """

    layout: SpaceLayout
    exponents: np.ndarray  # (terms, 2m) int64
    coefficients: np.ndarray  # (terms,) complex

    def __post_init__(self) -> None:
        self.exponents.setflags(write=False)
        self.coefficients.setflags(write=False)

    @classmethod
    def identity(cls, layout: SpaceLayout) -> "Operator":
        return cls(layout, np.zeros((1, 2 * len(layout.dims)), np.int64), np.ones(1, complex))

    @classmethod
    def from_matrix(cls, layout: SpaceLayout, matrix: np.ndarray) -> "Operator":
        """The Weyl terms of a dense matrix.  Per subsystem, M[k + a, k] =
        sum_b c_ab omega^(b k), so shifting each row index by a and taking
        the forward FFT over k gives c_ab."""
        matrix = np.asarray(matrix, dtype=complex)
        n = layout.total_dim
        if matrix.shape != (n, n):
            raise LayoutError(
                f"operator shape {matrix.shape} does not match layout dim {n}"
            )
        if not np.isfinite(matrix).all():
            raise ValueError("operator matrix has non-finite entries")
        dims, (digits, rows) = layout.dims, _row_shift(layout.dims)
        coeffs = np.take_along_axis(matrix, rows, axis=0)
        for i, d in enumerate(dims):  # the forward FFT over digit k_i, as a matrix
            dft = np.fft.fft(np.eye(d), norm="forward")
            shaped = coeffs.reshape(-1, d, prod(dims[i + 1:]))
            coeffs = np.einsum("akb,kc->acb", shaped, dft).reshape(n, n)
        a, b = np.nonzero(coeffs)
        return _pruned(layout, np.concatenate((digits[:, a], digits[:, b])).T, coeffs[a, b])

    @property
    def matrix(self) -> np.ndarray:
        """The dense N x N matrix, for the tests to compare against:
        X^a Z^b sends |k> to omega^(b.k) |k + a>, so each term fills one
        phased permutation."""
        w, n, m = self.layout.weyl, self.layout.total_dim, len(self.layout.dims)
        digits, shifted = _row_shift(self.layout.dims)
        a, b = np.split(self.exponents, 2, axis=1)
        rows = shifted[a @ w.keys[m:]]  # each term's row for every column k
        phase = (b * w.weights) @ digits % len(w.table)
        out = np.zeros((n, n), dtype=complex)
        np.add.at(out, (rows, np.arange(n)), self.coefficients[:, None] * w.table[phase])
        out.setflags(write=False)
        return out

    def _same_layout(self, other: "Operator") -> None:
        if self.layout != other.layout:
            raise LayoutError("operators live on different layouts")

    def __matmul__(self, other: "Operator") -> "Operator":
        self._same_layout(other)
        return _product(self, other)

    def __add__(self, other: "Operator") -> "Operator":
        self._same_layout(other)
        return combination([self, other], [1, 1])

    def __mul__(self, scalar: complex) -> "Operator":
        return _pruned(self.layout, self.exponents, self.coefficients * complex(scalar))

    __rmul__ = __mul__

    @property
    def H(self) -> "Operator":
        """Adjoint: (c X^a Z^b)^dag = conj(c) omega^(a.b) X^-a Z^-b."""
        w, m = self.layout.weyl, len(self.layout.dims)
        a, b = self.exponents[:, :m], self.exponents[:, m:]
        phase = w.table[(a * b) @ w.weights % len(w.table)]
        return Operator(self.layout, -self.exponents % w.mods, self.coefficients.conj() * phase)

    def matpow(self, k: int) -> "Operator":
        """self^k, k >= 0, by squaring."""
        k = as_index(k, "matpow exponent", ValueError)
        if k < 0:
            raise ValueError(f"matpow needs k >= 0, got {k}")
        if k < 2:
            return self if k else Operator.identity(self.layout)
        half = self.matpow(k // 2)
        return half @ half @ self if k % 2 else half @ half

    def expectation(self) -> complex:
        """<0...0| self |0...0>: the terms with no shift."""
        m = len(self.layout.dims)
        return complex(self.coefficients[~self.exponents[:, :m].any(axis=1)].sum())

    def distance(self, other: "Operator") -> float:
        """Frobenius norm of the difference, sqrt(N sum |c|^2)."""
        self._same_layout(other)
        diff = combination([self, other], [1, -1])
        return float(np.sqrt(self.layout.total_dim) * np.linalg.norm(diff.coefficients))

    def isclose(self, other: "Operator", tol: float = DEFAULT_TOLERANCE) -> bool:
        return self.distance(other) < tol

    def is_hermitian(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        return self.distance(self.H) < tol

    def is_unitary(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        return _product(self.H, self).distance(Operator.identity(self.layout)) < tol

    def is_involution(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        return _product(self, self).distance(Operator.identity(self.layout)) < tol

    def is_projector(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        return _product(self, self).distance(self) < tol and self.is_hermitian(tol)

    def commutes_with(self, other: "Operator", tol: float = DEFAULT_TOLERANCE) -> bool:
        self._same_layout(other)
        return _product(self, other).distance(_product(other, self)) < tol


@functools.lru_cache(maxsize=4)
def _row_shift(dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Every index's digits, and at [a, k] the index of k + a, digit by
    digit: the index tables of the dense edges, kept per dims."""
    digits = np.indices(dims).reshape(len(dims), -1)
    strides = np.cumprod((1,) + dims[:0:-1])[::-1]
    return digits, sum((k[:, None] + k) % d * s for k, d, s in zip(digits, dims, strides))


def _merged(layout: SpaceLayout, exps: np.ndarray, coeffs: np.ndarray) -> Operator:
    """Sum the terms that share an exponent row, keyed by its int64 key,
    then prune."""
    keys = exps @ layout.weyl.keys
    order = np.argsort(keys, kind="stable")
    s = keys[order]
    first = np.flatnonzero(np.concatenate((s[:1] >= 0, s[1:] != s[:-1])))  # keys are >= 0
    return _pruned(layout, exps[order[first]], np.add.reduceat(coeffs[order], first))


def combination(ops: list[Operator], coeffs: list[complex]) -> Operator:
    """sum_k coeffs[k] ops[k] on one layout, merged once."""
    if len(ops) == 1:  # a single term keeps its term order
        return ops[0] * coeffs[0]
    parts = [(o.exponents, o.coefficients * c) for o, c in zip(ops, coeffs)]
    return _merged(ops[0].layout, *map(np.concatenate, zip(*parts)))


def _pruned(layout: SpaceLayout, exps: np.ndarray, coeffs: np.ndarray) -> Operator:
    """Drop the roundoff terms, |c| <= PRUNE * max |c|."""
    magnitude = np.abs(coeffs)
    keep = magnitude > PRUNE * magnitude.max(initial=0.0)
    return Operator(layout, exps[keep], coeffs[keep])


def _product(a: Operator, b: Operator) -> Operator:
    """(X^a Z^b)(X^c Z^d) = omega^(b.c) X^(a+c) Z^(b+d), term by term."""
    w, m = a.layout.weyl, len(a.layout.dims)
    exps = ((a.exponents[:, None] + b.exponents[None]) % w.mods).reshape(-1, 2 * m)
    phase = w.table[(a.exponents[:, m:] * w.weights) @ b.exponents[:, :m].T % len(w.table)]
    coeffs = (a.coefficients[:, None] * b.coefficients * phase).ravel()
    if min(len(a.coefficients), len(b.coefficients)) == 1:
        return Operator(a.layout, exps, coeffs)  # a monomial factor: rows stay distinct
    return _merged(a.layout, exps, coeffs)


def embed_matrix(
    small: np.ndarray, targets: tuple[str, ...], layout: SpaceLayout
) -> np.ndarray:
    """Tensor a small matrix acting on ``targets`` (in that order) with the
    identity on every other subsystem, in layout order.  The result is zero
    except where row and column agree on every other subsystem: N D entries
    for targets of total dim D, which a strided view of it holds and the
    small matrix fills in one broadcast write.  Unchecked: the one caller,
    ``Network.embedded``, passes distinct targets (checked by
    ``GateApplication``) and a matrix that ``gate.matrix(dims)`` sized."""
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


def half_sum(q: Operator, sign: int) -> Operator:
    """(1 + sign*q)/2 without checks; callers guarantee q is an involution."""
    return combination([Operator.identity(q.layout), q], [0.5, 0.5 * sign])


@functools.lru_cache(maxsize=16)
def qudit_shift_clock(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only generators of every d-level subsystem: shift
    (|j> -> |j+1 mod d>) and clock (diag of omega^j, omega = exp(2 pi i/d)).

    Their monomials shift^a clock^b form an operator basis.  The clock is
    the inverse FFT of the shift's first column, the convention that
    :meth:`Operator.from_matrix` inverts with the forward FFT, and is exact
    at d = 2, (sigma_x, sigma_z), and d = 4, diag(1, i, -1, -i).
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
