"""Complex operator algebra over composite Hilbert spaces, in Weyl terms.

An operator is a short sum of monomials c X^a Z^b, the tensor product
(in subsystem declaration order) of each subsystem's shift^a_i clock^b_i.
Each monomial is a phased permutation, so products, adjoints, norms and
expectations are sums over terms; dense N x N matrices appear only at the
edges: the state-vector oracle and the tests.
Plans (a product's phases, pair rows and merge, or a merge's) and a row set's
adjoint rows, phases and shift-free rows are built once per dims and rows, so
each call computes only coefficients; a product or check of two single terms,
the only pairs that repeat, is kept by identity, safe as operators are immutable.
Expectation values are taken against the fixed reference vector |0...0>,
which never evolves; all dynamics act on operators.
"""

from __future__ import annotations

import cmath
import functools
import numbers
import operator
from collections import Counter
from dataclasses import FrozenInstanceError
from math import lcm, prod
from typing import NamedTuple

import numpy as np

DEFAULT_TOLERANCE = 1e-9
# the largest dense initial descriptors a layout may need (chain(2, 2) needs
# 0.28 GiB); it guards the tests' dense views, and keeps N^2 below 2^63 for
# the int64 keys of Weyl terms
DESCRIPTOR_BUDGET_BYTES = 2**30
# a merged term with |c| <= PRUNE * max |c| is roundoff and is dropped;
# without this the residue of cancelled terms fills every operator in
PRUNE = 1e-14
# a cached plan has at most PLAN_PAIRS term pairs (16 x 16, the workloads' largest); PLAN_ENTRIES are kept
PLAN_PAIRS = 256
PLAN_ENTRIES = 1024


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
    subsystem) over the budget.  ``dims`` counts each dimension's
    subsystems; nothing is built."""
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
    table: np.ndarray  # omega^k for k < lcm(dims), exactly 1 at k = 0
    identity: "Operator"  # the one identity, which products skip; its own adjoint
    generators: tuple  # each subsystem's time-0 (X_i, Z_i), which every evolution shares


class Value:
    """An immutable value of the fields ``_fields`` names, set once by :meth:`_freeze`: equal to an
    instance of its own class with equal fields, hashed by them, and shown as ``Name(field=value, ...)``."""

    _fields, _values = (), ()  # the fields' names; their values, which equality and the hash read

    def _freeze(self, *values) -> None:
        object.__setattr__(self, "_values", values)
        for name, value in zip(self._fields, values):  # not by __dict__: that slows every later read
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return self._values == other._values if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class SpaceLayout(Value):
    """Ordered list of (id, dim) subsystems spanning one composite space.

    Tensor order equals declaration order.  The dense initial descriptors
    must fit in ``DESCRIPTOR_BUDGET_BYTES``, checked before any is built.
    """

    _fields = ("subsystems",)

    def __init__(self, subsystems: tuple[tuple[str, int], ...]) -> None:
        try:
            pairs = [(sid, d) for sid, d in subsystems]
        except (TypeError, ValueError):
            raise LayoutError(f"{subsystems!r} are not (id, dim) pairs") from None
        subsystems = tuple((sid, as_index(d, "subsystem dimension", LayoutError)) for sid, d in pairs)
        if not subsystems:
            raise LayoutError("layout needs at least one subsystem")
        for sid, dim in subsystems:
            if not isinstance(sid, str):  # 3 is not renamed "3"
                raise LayoutError(f"subsystem id {sid!r} is not a string")
            if dim < 2:
                raise LayoutError(f"subsystem {sid!r} has dim {dim} < 2")
        positions = {sid: i for i, (sid, _) in enumerate(subsystems)}
        if len(positions) != len(subsystems):
            raise LayoutError(f"duplicate subsystem ids in {[sid for sid, _ in subsystems]}")
        self._freeze(subsystems)
        object.__setattr__(self, "_positions", positions)  # index_of's lookup, outside eq and hash
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
        m, one = len(self.dims), np.ones(1, complex)
        unit = _terms(self, np.zeros((1, 2 * m), np.int64), one)
        unit.__dict__["H"] = unit
        pairs = tuple(tuple(_terms(self, np.eye(1, 2 * m, j, np.int64), one) for j in (i, m + i))
                      for i in range(m))
        return WeylConstants(*_weyl_tables(self.dims), unit, pairs)

    def index_of(self, sid: str) -> int:
        if isinstance(sid, str) and sid in self._positions:  # a list, say, is not looked up
            return self._positions[sid]
        raise LayoutError(f"unknown subsystem id {sid!r}")

    def dim_of(self, sid: str) -> int:
        return self.dims[self.index_of(sid)]


class Operator(Value):
    """sum_t coefficients[t] X^exponents[t, :m] Z^exponents[t, m:] on a
    layout of m subsystems, with distinct exponent rows.

    A sweep's B members share the rows, with a column of coefficients each
    (0 where a member lacks a term); one column counts for every member.
    Its readings are per member, as if each ran alone; predicates, for all.

    Immutable: the constructor checks array-like rows and coefficients and keeps read-only copies, while
    arithmetic builds its terms by :func:`_terms`.  Equality is numeric, by :meth:`isclose`, never ``==``.
    """

    _fields = ("layout", "exponents", "coefficients")  # (terms, 2m) int64; (terms,) or, for a sweep, (terms, B) complex
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, layout: SpaceLayout, exponents: np.ndarray, coefficients: np.ndarray) -> None:
        try:  # ragged rows and coefficients that are not numbers fail here, by name, not inside numpy
            rows, dims = np.array(exponents), layout.dims
        except ValueError:
            raise LayoutError(f"rows {exponents!r} are ragged, not one row per term") from None
        try:
            coeffs = np.array(coefficients, complex)
        except (TypeError, ValueError):
            raise ValueError(f"coefficients {coefficients!r} are not complex numbers") from None
        if rows.shape[1:] != (2 * len(dims),) or coeffs.shape[:1] != rows.shape[:1] or coeffs.ndim > 2:
            raise LayoutError(f"rows {rows.shape} and coefficients {coeffs.shape} do not fit dims {dims}")
        digits = rows.dtype.kind in "iu" and ((rows >= 0) & (rows < dims * 2)).all()
        if not (digits and np.isfinite(coeffs).all() and len(np.unique(rows, axis=0)) == len(rows)):
            raise ValueError(f"rows need integer digits in [0, d) of dims {dims}, no row twice, "
                             "and finite coefficients")
        # private copies: kept products need operands that cannot change, and plans key int64 bytes
        object.__setattr__(self, "layout", layout)
        for name, array in zip(("exponents", "coefficients"), (rows.astype(np.int64, copy=False), coeffs)):
            object.__setattr__(self, name, *_read_only(array))

    @classmethod
    def identity(cls, layout: SpaceLayout) -> "Operator":
        return layout.weyl.identity

    @classmethod
    def from_matrix(cls, layout: SpaceLayout, matrix: np.ndarray) -> "Operator":
        """The Weyl terms of a dense matrix.  Per subsystem, M[k + a, k] =
        sum_b c_ab omega^(b k), so shifting each row index by a and taking
        the forward FFT over k gives c_ab.  A (B, N, N) stack of matrices
        gives a sweep of B members, on the union of their terms."""
        matrix = np.asarray(matrix, dtype=complex)
        n = layout.total_dim
        if matrix.shape[-2:] != (n, n) or matrix.ndim > 3:
            raise LayoutError(f"operator shape {matrix.shape} does not match layout dim {n}")
        if not np.isfinite(matrix).all():
            raise ValueError("operator matrix has non-finite entries")
        dims, (digits, rows, dfts) = layout.dims, _dense_tables(layout.dims)
        coeffs = matrix[..., rows, np.arange(n)]
        for i, (d, dft) in enumerate(zip(dims, dfts)):  # the forward FFT over digit k_i
            shaped = coeffs.reshape(-1, d, prod(dims[i + 1:]))
            coeffs = np.einsum("akb,kc->acb", shaped, dft).reshape(matrix.shape)
        a, b = np.nonzero(coeffs.reshape(-1, n, n).any(axis=0))
        return _pruned(layout, np.concatenate((digits[:, a], digits[:, b])).T, coeffs[..., a, b].T)

    @property
    def matrix(self) -> np.ndarray:
        """The dense N x N matrix, for the tests to compare against:
        X^a Z^b sends |k> to omega^(b.k) |k + a>, so each term fills one
        phased permutation, summed into each entry in term order."""
        w, n, m = self.layout.weyl, self.layout.total_dim, len(self.layout.dims)
        digits, shifted, _ = _dense_tables(self.layout.dims)
        a, b = np.split(self.exponents, 2, axis=1)
        flat = (shifted[a @ w.keys[m:]] * n + np.arange(n)).ravel()  # each term's entry in every column k
        values = (self.coefficients[:, None] * w.table[(b * w.weights) @ digits % len(w.table)]).ravel()
        out = np.empty((n, n), dtype=complex)  # bincount sums each entry's terms in input order
        out.real.flat, out.imag.flat = (np.bincount(flat, v, n * n) for v in (values.real, values.imag))
        return _read_only(out)[0]

    def _same_layout(self, other: "Operator") -> bool:
        """Whether ``other`` is an operator; one on another layout raises."""
        if not isinstance(other, Operator):
            return False
        if self.layout is not other.layout and self.layout != other.layout:
            raise LayoutError("operators live on different layouts")
        return True

    def __matmul__(self, other: "Operator") -> "Operator":
        return _product(self, other) if self._same_layout(other) else NotImplemented

    def __add__(self, other: "Operator") -> "Operator":
        return combination([self, other], [1, 1]) if self._same_layout(other) else NotImplemented

    def __mul__(self, scalar: complex) -> "Operator":
        if not cmath.isfinite(scalar := complex(scalar)):  # NaN or inf would prune every term
            raise ValueError(f"operator scalar {scalar} is not finite")
        return _pruned(self.layout, self.exponents, self.coefficients * scalar)

    __rmul__ = __mul__

    @functools.cached_property
    def H(self) -> "Operator":
        """Adjoint: (c X^a Z^b)^dag = conj(c) omega^(a.b) X^-a Z^-b."""
        rows, phases, _ = self._rows()
        return _terms(self.layout, rows, (self.coefficients.T.conj() * phases).T)

    def matpow(self, k: int) -> "Operator":
        """self^k, k >= 0, by squaring."""
        k = as_index(k, "matpow exponent", ValueError)
        if k < 0:
            raise ValueError(f"matpow needs k >= 0, got {k}")
        if k < 2:
            return self if k else Operator.identity(self.layout)
        half = self.matpow(k // 2)
        return half @ half @ self if k % 2 else half @ half

    def expectation(self) -> complex | np.ndarray:
        """<0...0| self |0...0>: the terms with no shift."""
        shift_free = self.coefficients[self._rows()[2]]
        if shift_free.ndim > 1:  # each member's own terms, summed as if it ran alone
            return np.array([c[c != 0].sum() for c in shift_free.T])
        return complex(shift_free.sum())

    def _rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The record of the rows (:func:`_cached_rows`), kept per dims and rows for at most PLAN_PAIRS."""
        build = _cached_rows if len(self.exponents) <= PLAN_PAIRS else _cached_rows.__wrapped__
        return build(self.layout.dims, self.exponents.tobytes())

    def distance(self, other: "Operator") -> float | np.ndarray:
        """Frobenius norm of the difference, sqrt(N sum |c|^2)."""
        if not self._same_layout(other):
            raise TypeError(f"expected an Operator, got {type(other).__name__}")
        diff = combination([self, other], [1, -1])
        if diff.coefficients.ndim > 1:  # each member's own terms, as if it ran alone
            return np.array([np.sqrt(self.layout.total_dim) * _norm(c[c != 0]) for c in diff.coefficients.T])
        return float(np.sqrt(self.layout.total_dim) * _norm(diff.coefficients))

    def isclose(self, other: "Operator", tol: float = DEFAULT_TOLERANCE) -> bool:
        return _below(self.distance(other), tol)

    def is_hermitian(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        return _below(self.distance(self.H), tol)

    def is_unitary(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        return _defect(self.H, self) < tol

    def is_involution(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        return _defect(self, self) < tol

    def is_projector(self, tol: float = DEFAULT_TOLERANCE) -> bool:
        return _below(_product(self, self).distance(self), tol) and self.is_hermitian(tol)

    def commutes_with(self, other: "Operator", tol: float = DEFAULT_TOLERANCE) -> bool:
        if not self._same_layout(other):
            raise TypeError(f"expected an Operator, got {type(other).__name__}")
        return _defect(self, other, commutator=True) < tol


@functools.lru_cache(maxsize=4)
def _dense_tables(dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Every index's digits, at [a, k] the index of k + a, digit by digit,
    and each digit's forward DFT as a matrix: the tables of the dense
    edges, kept per dims."""
    digits = np.indices(dims).reshape(len(dims), -1)
    strides = np.cumprod((1,) + dims[:0:-1])[::-1]
    shifted = sum((k[:, None] + k) % d * s for k, d, s in zip(digits, dims, strides))
    return digits, shifted, tuple(np.fft.fft(np.eye(d), norm="forward") for d in dims)


@functools.lru_cache(maxsize=16)
def _weyl_tables(dims: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The read-only mods, keys, weights and table of :class:`WeylConstants`, per dims."""
    mods, order = np.array(dims * 2, dtype=np.int64), lcm(*dims)
    keys = np.cumprod(np.r_[1, mods[:0:-1]])[::-1].copy()
    return *_read_only(mods, keys, order // mods[: len(dims)]), _roots_of_unity(order)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:  # the caches share them
        a.setflags(write=False)
    return arrays


class _Plan(NamedTuple):
    """What the dims and rows alone fix: a merge's stable sort by key (none keeps the rows, unpruned),
    each key's first place in it and the merged rows; a product's pair phases and shift-free pairs."""

    order: np.ndarray | None
    first: np.ndarray | None
    rows: np.ndarray
    phases: np.ndarray | None = None
    shift_free: np.ndarray | None = None

    def apply(self, layout: SpaceLayout, coeffs: np.ndarray) -> Operator:
        if self.order is None:
            return _terms(layout, self.rows, coeffs)
        distinct = len(self.first) == len(self.order)
        summed = coeffs[self.order] if distinct else np.add.reduceat(coeffs[self.order], self.first)
        return _pruned(layout, self.rows, summed)


@functools.lru_cache(maxsize=PLAN_ENTRIES)
def _cached_rows(dims: tuple[int, ...], x: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What int64 rows ``x`` alone fix: the adjoint's rows, their phases omega^(a.b), the shift-free rows."""
    (mods, _, weights, table), m = _weyl_tables(dims), len(dims)
    rows = np.frombuffer(x, np.int64).reshape(-1, 2 * m)
    a, b = rows[:, :m], rows[:, m:]
    return _read_only(-rows % mods, table[(a * b) @ weights % len(table)], ~a.any(axis=1))


@functools.lru_cache(maxsize=PLAN_ENTRIES)
def _cached_plan(dims: tuple[int, ...], x: bytes | memoryview, y: bytes | None, unit: bool = False) -> _Plan:
    """The merge of int64 rows ``x`` or, given ``y``, the product of terms with rows ``x`` by terms
    with rows ``y``, minus I (the zero row, last) with ``unit``; a monomial factor's rows stay distinct."""
    (mods, keys, weights, table), m = _weyl_tables(dims), len(dims)
    a, b = (np.frombuffer(r, np.int64).reshape(-1, 2 * m) for r in (x, x if y is None else y))
    if y is None:
        order = np.argsort(k := a @ keys, kind="stable")
        s = k[order]
        first = np.concatenate((s[:1] >= 0, s[1:] != s[:-1])).nonzero()[0]  # keys are >= 0
        return _Plan(*_read_only(order, first, a[order[first]]))
    rows = np.zeros((len(a) * len(b) + unit, 2 * m), np.int64)  # with unit, I's zero row last
    np.remainder(a[:, None] + b[None], mods, out=rows[:len(a) * len(b)].reshape(len(a), len(b), 2 * m))
    if unit or min(len(a), len(b)) != 1:  # the merge's input is its one copy of the pair rows
        plan = _cached_plan.__wrapped__(dims, rows.data, None)
    else:
        plan = _Plan(None, None, *_read_only(rows))
    phases = table[(a[:, m:] * weights) @ b[:, :m].T % len(table)]
    free = (-a[:, :m] % mods[:m] @ keys[:m])[:, None] == b[:, :m] % mods[:m] @ keys[:m]  # c undoes a's shift
    return _Plan(*plan[:3], *_read_only(phases, free.ravel()))


def _merged(layout: SpaceLayout, parts: list[np.ndarray], coeffs: np.ndarray) -> Operator:
    """Sum the terms that share an exponent row, then prune: the rows are ``parts``', in turn, joined."""
    build = _cached_plan if sum(map(len, parts)) <= PLAN_PAIRS else _cached_plan.__wrapped__
    return build(layout.dims, b"".join([p.tobytes() for p in parts]), None).apply(layout, coeffs)


def combination(ops: list[Operator], coeffs: list[complex] | np.ndarray) -> Operator:
    """sum_k coeffs[k] ops[k] on one layout, merged once.  ``coeffs`` may be
    (k, B), a value per op and member: a swept polynomial's terms."""
    if getattr(coeffs, "ndim", 1) > 1:  # the member axis leads in each product, then goes last
        parts = [(o.coefficients.T * c[:, None]).T for o, c in zip(ops, coeffs)]
        if len(ops) == 1:  # a single term keeps its term order
            return _pruned(ops[0].layout, ops[0].exponents, parts[0])
    elif len(ops) == 1:  # a single term keeps its term order
        return ops[0] if coeffs[0] == 1 else ops[0] * coeffs[0]
    elif not all(map(cmath.isfinite, coeffs)):
        raise ValueError(f"combination coefficients {coeffs} are not all finite")
    else:
        parts = [o.coefficients * c for o, c in zip(ops, coeffs)]
    try:
        summed = np.concatenate(parts)
    except ValueError:  # a sweep's parts beside single ones, which count for every member
        width = max(p.shape[1:] for p in parts)
        summed = np.concatenate([np.broadcast_to(p.reshape(len(p), -1), (len(p), *width)) for p in parts])
    return _merged(ops[0].layout, [o.exponents for o in ops], summed)


def _pruned(layout: SpaceLayout, exps: np.ndarray, coeffs: np.ndarray) -> Operator:
    """Drop the roundoff terms, |c| <= PRUNE * max |c|.  A sweep's members
    prune alone: to an exact 0, the row going when every member drops it."""
    magnitude = np.abs(coeffs)
    keep = magnitude > PRUNE * magnitude.max(axis=0, initial=0.0)
    if np.count_nonzero(keep) == keep.size:
        return _terms(layout, exps, coeffs)
    if keep.ndim > 1:
        coeffs, keep = np.where(keep, coeffs, 0), keep.any(axis=1)
    return _terms(layout, exps[keep], coeffs[keep])


def _terms(layout: SpaceLayout, exponents: np.ndarray, coefficients: np.ndarray) -> Operator:
    """The module's own terms, unchecked (distinct int64 rows, coefficients that fit them), made read-only;
    the fields are set one at a time, in field order, which keeps instance dicts sharing their keys."""
    op, _ = object.__new__(Operator), _read_only(exponents, coefficients)
    object.__setattr__(op, "layout", layout)
    object.__setattr__(op, "exponents", exponents)
    object.__setattr__(op, "coefficients", coefficients)
    return op


def _norm(c: np.ndarray) -> np.float64:
    """``np.linalg.norm`` of a 1-D complex array, by its own formula, without its dispatch."""
    return np.sqrt(c.real.dot(c.real) + c.imag.dot(c.imag))


def _below(value: float | np.ndarray, tol: float) -> bool:
    """Whether a reading, or every member's, is below ``tol``."""
    return value < tol if isinstance(value, float) else bool((value < tol).all())


def _plan(a: Operator, b: Operator, unit: bool = False, held: int = 1) -> _Plan:
    """The plan of ``a @ b`` (minus I with ``unit``), which every term-pair product takes first: over the
    byte budget, counting the members a cached plan does not know and the ``held`` plans of its size, it is
    refused unbuilt.  Of plans of at most PLAN_PAIRS pairs (a merge's: rows), PLAN_ENTRIES are kept."""
    m, x, y = len(a.layout.dims), a.coefficients, b.coefficients
    pairs = len(x) * len(y)
    # pair and merged rows (32m); merge key, order, sort buffer, firsts (48); phase (24); 4 coefficients (64);
    # and per operand term, the exponent sums and remainders that phases and shifts take (16m)
    need = pairs * (32 * m + 136) + 16 * m * (len(x) + len(y))
    if x.ndim + y.ndim > 2:  # a sweep: 64 more bytes a pair for each further member
        need += 64 * (max(x.size * len(y), len(x) * y.size) - pairs)
    if (need := held * need) > DESCRIPTOR_BUDGET_BYTES:
        plans = f"{held} plans of " if held > 1 else ""
        raise LayoutError(f"{plans}{pairs} term pairs need {need / 2**30:.3g} GiB, "
                          f"over the {DESCRIPTOR_BUDGET_BYTES / 2**30:g} GiB budget")
    build = _cached_plan if pairs <= PLAN_PAIRS else _cached_plan.__wrapped__
    return build(a.layout.dims, a.exponents.tobytes(), b.exponents.tobytes(), unit)


def _pair_coefficients(a: Operator, b: Operator, phases: np.ndarray) -> np.ndarray:
    """c_i d_j phases[i, j] at row i * len(b) + j, for term i of ``a`` and j
    of ``b``; a sweep's members broadcast over a single operator's terms."""
    x, y = a.coefficients, b.coefficients
    if x.ndim == y.ndim == 1:
        return (x[:, None] * y * phases).ravel()
    pairs = np.atleast_2d(x.T)[:, :, None] * np.atleast_2d(y.T)[:, None] * phases
    return pairs.reshape(len(pairs), -1).T


def _kept(compute):
    """``compute(a, b, **options)``, kept per operand pair by identity (operators are immutable, and the
    cache holds its keys, so no id is reused) for two single terms of one member, the angle-free monomials
    that repeat, the PLAN_ENTRIES last used; the rest are computed each time, as by ``__wrapped__``."""
    kept = functools.lru_cache(maxsize=PLAN_ENTRIES)(compute)

    def call(a: Operator, b: Operator, **kwargs):
        return (kept if a.coefficients.shape == b.coefficients.shape == (1,) else compute)(a, b, **kwargs)
    call.cache_info, call.cache_clear = kept.cache_info, kept.cache_clear
    return functools.update_wrapper(call, compute)


def _product(a: Operator, b: Operator) -> Operator:
    """(X^a Z^b)(X^c Z^d) = omega^(b.c) X^(a+c) Z^(b+d), term by term; the
    layout's identity returns the other factor, before any lookup."""
    if a is a.layout.weyl.identity or b is b.layout.weyl.identity:
        return b if a is a.layout.weyl.identity else a
    return _term_product(a, b)


@_kept
def _term_product(a: Operator, b: Operator) -> Operator:
    plan = _plan(a, b)  # first: it refuses pairs over the budget
    return plan.apply(a.layout, _pair_coefficients(a, b, plan.phases))


@_kept
def _defect(a: Operator, b: Operator, commutator: bool = False) -> float:
    """||ab - I||_F, or with ``commutator`` ||ab - ba||_F, from one merge:
    ab and ba share each term pair's row and differ only in its phase."""
    plan = _plan(a, b, unit=not commutator, held=2 if commutator else 1)  # ba's plan is as large
    coeffs = _pair_coefficients(a, b, plan.phases - _plan(b, a).phases.T if commutator else plan.phases)
    if not commutator:  # minus I, the all-zero row, from every member
        coeffs = np.concatenate((coeffs, np.full((1, *coeffs.shape[1:]), -1)))
    coeffs = plan.apply(a.layout, coeffs).coefficients
    norm = _norm(coeffs) if coeffs.ndim == 1 else np.linalg.norm(coeffs, axis=0).max()
    return float(np.sqrt(a.layout.total_dim) * norm)  # a sweep's worst member


def embed_matrix(
    small: np.ndarray, targets: tuple[str, ...], layout: SpaceLayout
) -> np.ndarray:
    """Tensor a small matrix acting on ``targets`` (in that order) with the
    identity on every other subsystem, in layout order.  The result is zero
    except where row and column agree on every other subsystem: N D entries
    for targets of total dim D, each a copy of one entry of the small matrix,
    written in one indexed copy through the positions :func:`_embedding` keeps.
    Unchecked: the one caller, ``Network.embedded``, passes distinct targets
    (checked by ``GateApplication``) and a matrix that ``gate.matrix(dims)`` sized."""
    n = layout.total_dim
    flat, source = _embedding(layout.dims, tuple(map(layout.index_of, targets)))
    out = np.zeros(n * n, dtype=complex)
    out[flat] = np.ravel(small)[source]
    return out.reshape(n, n)


@functools.lru_cache(maxsize=128)
def _embedding(dims: tuple[int, ...], t_idx: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only flat positions in the N x N embedding of a matrix on axes ``t_idx``, and the flat
    entry of the small matrix each one copies: a grid of flat indices seen through the strided view
    of those entries, and the small matrix's indices broadcast along the other subsystems."""
    m = len(dims)
    rest = [i for i in range(m) if i not in t_idx]
    # axes 0..m-1 are the row digits and m..2m-1 the column digits; a rest
    # column axis takes its row axis's label, so einsum views their diagonal
    cols = [i if i in rest else m + i for i in range(m)]
    block = np.einsum(np.arange(prod(dims) ** 2).reshape(dims * 2), list(range(m)) + cols,
                      [*t_idx, *(m + i for i in t_idx), *rest])
    acted = [dims[i] for i in t_idx]
    source = np.arange(prod(acted) ** 2).reshape(acted * 2 + [1] * len(rest))
    return _read_only(block.ravel(), np.broadcast_to(source, block.shape).ravel())


def half_sum(q: Operator, sign: int) -> Operator:
    """(1 + sign*q)/2 without checks; callers guarantee q is an involution."""
    return combination([Operator.identity(q.layout), q], [0.5, 0.5 * sign])


def qudit_shift_clock(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only generators of every d-level subsystem: shift
    (|j> -> |j+1 mod d>) and clock (diag of omega^j, omega = exp(2 pi i/d)).

    Their monomials shift^a clock^b form an operator basis.  The clock's
    diagonal is :func:`_roots_of_unity`, so d = 2 gives (sigma_x, sigma_z).
    """
    if as_index(dim, "shift/clock dim", ValueError) < 2:
        raise ValueError(f"shift/clock need dim >= 2, got {dim}")
    return _read_only(np.roll(np.eye(dim, dtype=complex), 1, axis=0), np.diag(_roots_of_unity(dim)))


def _roots_of_unity(dim: int) -> np.ndarray:
    """omega^k for k < dim, read-only: the inverse FFT of the shift's first
    column, which :meth:`Operator.from_matrix` inverts, but exactly 1 at
    k = 0, where the FFT leaves 1 - 1.1e-16 at some dims (49, 89, 98, ...)."""
    roots = dim * np.fft.ifft(np.eye(1, dim, 1)[0])
    roots[0] = 1
    return _read_only(roots)[0]


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))
