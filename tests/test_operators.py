import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descriptorsim import (
    LayoutError,
    Operator,
    SpaceLayout,
    FoliationError,
    foliate,
    initial_descriptors,
    qudit_shift_clock,
)
from descriptorsim.operators import combination, half_sum, haar_random_unitary

TWO_QUBITS = SpaceLayout((("Q1", 2), ("Q2", 2)))
# each qubit's time-0 (sigma_x, sigma_z), embedded
GENERATORS = initial_descriptors(TWO_QUBITS)
PAULI_X, PAULI_Z = qudit_shift_clock(2)


class TestSpaceLayout:
    def test_total_dim_is_product(self):
        layout = SpaceLayout((("a", 2), ("b", 3), ("c", 4)))
        assert layout.total_dim == 24
        assert layout.dims == (2, 3, 4)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(LayoutError):
            SpaceLayout((("a", 2), ("a", 2)))

    def test_dimension_cap(self):
        # the initial descriptors' estimated bytes, 2 x subsystems x N^2 x 16,
        # are capped: 10 qubits need 0.31 GiB, 11 qubits 1.38 GiB
        with pytest.raises(LayoutError):
            SpaceLayout(tuple((f"q{i}", 2) for i in range(15)))
        with pytest.raises(LayoutError, match=r"1\.38 GiB \(2 x 11 subsystems x 2048\^2"):
            SpaceLayout(tuple((f"q{i}", 2) for i in range(11)))
        SpaceLayout(tuple((f"q{i}", 2) for i in range(10)))

    def test_small_dims_rejected(self):
        with pytest.raises(LayoutError):
            SpaceLayout((("a", 1),))

    @pytest.mark.parametrize("dim", [2.5, "3", 3.0])
    def test_non_integer_dims_rejected(self, dim):
        # a dimension is never truncated (2.5 -> 2) or parsed ("3" -> 3)
        with pytest.raises(LayoutError):
            SpaceLayout((("a", dim),))

    @pytest.mark.parametrize("sid", [3, None, b"a", ("a",), ["a"]], ids=repr)
    def test_non_string_ids_rejected(self, sid):
        # an id is never renamed (3 -> "3", None -> "None")
        with pytest.raises(LayoutError, match="is not a string"):
            SpaceLayout(((sid, 2), ("b", 2)))

    def test_numpy_integer_dims_accepted(self):
        assert SpaceLayout((("a", np.int64(3)),)).dims == (3,)

    def test_unknown_id(self):
        with pytest.raises(LayoutError):
            TWO_QUBITS.index_of("nope")

    @pytest.mark.parametrize("sid", ["nope", ["Q1"], {"Q1": 2}, 3, None, ("Q1",)], ids=repr)
    def test_unknown_or_unhashable_id_raises_layout_error(self, sid):
        # ids are looked up in a per-layout dict, which cannot hash a list:
        # such an id is unknown too, in both lookups
        for lookup in (TWO_QUBITS.index_of, TWO_QUBITS.dim_of):
            with pytest.raises(LayoutError, match="unknown subsystem id"):
                lookup(sid)

    def test_operators_on_equal_layouts_that_are_other_objects_combine(self):
        first, second = (SpaceLayout((("A", 2), ("B", 3))) for _ in range(2))
        assert first is not second and first.index_of("B") == second.index_of("B") == 1
        x, z = first.weyl.generators[0][0], second.weyl.generators[1][1]
        assert np.allclose((x @ z).matrix, x.matrix @ z.matrix)
        assert np.allclose((x + z).matrix, x.matrix + z.matrix)

    def test_clock_table_is_one_at_zero_and_the_inverse_fft_elsewhere(self):
        # the FFT leaves 1 - 1.1e-16 at k = 0 for some d (49, 89, 98, ...)
        for d in range(2, 301):
            table = SpaceLayout((("a", d),)).weyl.table
            assert table[0] == 1
            assert table[1:].tobytes() == (d * np.fft.ifft(np.eye(1, d, 1)[0]))[1:].tobytes()

    def test_weyl_constants_build_no_dense_clock(self):
        # lcm(5, 7, 8, 9) = 2520: a dense clock of that dimension holds 97 MiB
        layout = SpaceLayout((("a", 5), ("b", 7), ("c", 8), ("d", 9)))
        tracemalloc.start()
        try:
            layout.weyl
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("subsystems", [(("Q1", 2, 3),), (5,), (("Q1",),), 5], ids=repr)
    def test_entries_that_are_not_pairs_rejected(self, subsystems):
        with pytest.raises(LayoutError, match=r"not \(id, dim\) pairs"):
            SpaceLayout(subsystems)


class TestEmbedLocal:
    """A single-subsystem operator embedded in the full space, in layout
    order: the identity and the time-0 generators."""

    def test_identity_embeds_to_identity(self):
        op = Operator.identity(TWO_QUBITS)
        assert np.allclose(op.matrix, np.eye(4))

    def test_sigma_x_on_first_qubit(self):
        op = GENERATORS["Q1"][0]
        assert op.matrix[0, 2] == 1
        assert np.allclose(op.matrix, np.kron(PAULI_X, np.eye(2)))

    def test_ordering_second_qubit(self):
        op = GENERATORS["Q2"][1]
        assert np.allclose(op.matrix, np.kron(np.eye(2), PAULI_Z))

    def test_disjoint_embeddings_commute_exactly(self):
        a = GENERATORS["Q1"][0]
        b = GENERATORS["Q2"][1]
        assert np.array_equal((a @ b).matrix, (b @ a).matrix)


class TestReferenceExpectation:
    def test_embedded_sigma_z_is_plus_one(self):
        for sid in ("Q1", "Q2"):
            assert GENERATORS[sid][1].expectation() == 1

    def test_embedded_sigma_x_is_zero(self):
        for sid in ("Q1", "Q2"):
            assert GENERATORS[sid][0].expectation() == 0

    def test_identity_is_one(self):
        assert Operator.identity(TWO_QUBITS).expectation() == 1

    def test_linearity(self, rng):
        a = Operator.from_matrix(TWO_QUBITS, rng.standard_normal((4, 4)))
        b = Operator.from_matrix(TWO_QUBITS, rng.standard_normal((4, 4)))
        lhs = (2.5 * a + b).expectation()
        rhs = 2.5 * a.expectation() + b.expectation()
        assert abs(lhs - rhs) < 1e-14

    def test_alice_z_after_bell_network_is_zero(self):
        # the entangled observer admits no mean z value
        from descriptorsim import BellConfig, NetworkEvolution, build_bell_network

        network = build_bell_network(BellConfig(0.3, 0.9))
        evo = NetworkEvolution(network).run_to(4)
        value = evo.descriptors["QA"][1].expectation()
        assert abs(value) < 1e-12


class TestProjectorPm:
    """The +-1 eigenprojectors (1 +- q)/2 of an involution q, as
    ``half_sum`` builds them for every foliation split."""

    def test_sigma_z_plus_projector_pattern(self):
        p = half_sum(GENERATORS["Q1"][1], +1)
        assert np.allclose(p.matrix, np.kron(np.diag([1.0, 0.0]), np.eye(2)))

    def test_plus_and_minus_sum_to_identity(self):
        q = GENERATORS["Q2"][0]
        total = half_sum(q, +1) + half_sum(q, -1)
        assert total.isclose(Operator.identity(TWO_QUBITS), 1e-14)

    def test_idempotent_for_evolved_component(self):
        # z component of Particle 1 after the rotations, inside the Bell net
        from descriptorsim import BellConfig, NetworkEvolution, build_bell_network

        network = build_bell_network(BellConfig(0.3, 0.9))
        evo = NetworkEvolution(network).run_to(3)
        p = half_sum(evo.descriptors["Q1"][1], +1)
        assert (p @ p).isclose(p, 1e-12)
        assert p.is_hermitian(1e-12)

    def test_random_involutions_give_hermitian_idempotents(self, rng):
        for _ in range(5):
            u = haar_random_unitary(4, rng)
            q = Operator.from_matrix(TWO_QUBITS, u @ np.diag([1, 1, -1, -1]) @ u.conj().T)
            for sign in (+1, -1):
                p = half_sum(q, sign)
                assert p.is_projector(1e-12)

    def test_non_involution_rejected(self):
        # a split checks its control before half_sum builds the projectors
        target = initial_descriptors(TWO_QUBITS)["Q2"]
        control = Operator.from_matrix(TWO_QUBITS, np.diag([1, 2, 3, 4.0]))
        with pytest.raises(FoliationError):
            foliate(target, control, target[0])


class TestShiftClock:
    def test_qubit_reduction(self):
        shift, clock = qudit_shift_clock(2)
        assert np.array_equal(shift, [[0, 1], [1, 0]])
        assert np.array_equal(clock, np.diag([1, -1]))

    def test_dim_four_clock_is_exact(self):
        _, clock = qudit_shift_clock(4)
        assert np.array_equal(clock, np.diag([1, 1j, -1, -1j]))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_generators_are_read_only(self, dim):
        for generator in qudit_shift_clock(dim):
            with pytest.raises(ValueError):
                generator[0, 0] = 5

    def test_dim_four_relations(self):
        shift, clock = qudit_shift_clock(4)
        assert np.allclose(np.linalg.matrix_power(shift, 4), np.eye(4))
        assert np.allclose(clock @ shift, 1j * shift @ clock)

    def test_shift_moves_basis_states(self):
        shift, _ = qudit_shift_clock(4)
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1
            assert np.allclose(shift @ e, np.eye(4)[:, (j + 1) % 4])

    def test_a_float_dim_is_refused_by_name(self):
        qudit_shift_clock(2)  # 2 is a dim, 2.0 is not
        with pytest.raises(ValueError, match="shift/clock dim 2.0 is not an integer"):
            qudit_shift_clock(2.0)

    def test_a_bool_dim_is_refused_by_name(self):
        with pytest.raises(ValueError, match="shift/clock dim True is not an integer"):
            qudit_shift_clock(True)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_monomials_span_operator_space(self, dim):
        shift, clock = qudit_shift_clock(dim)
        monomials = [
            (np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)).ravel()
            for a in range(dim)
            for b in range(dim)
        ]
        assert np.linalg.matrix_rank(np.array(monomials)) == dim * dim

    def test_small_dim_rejected(self):
        with pytest.raises(ValueError):
            qudit_shift_clock(1)


class TestOperator:
    def test_matrices_are_immutable(self):
        op = GENERATORS["Q1"][0]
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5

    def test_shape_validated(self):
        with pytest.raises(LayoutError):
            Operator.from_matrix(TWO_QUBITS, np.eye(3))
        with pytest.raises(ValueError):  # NaN terms would be pruned to 0
            Operator.from_matrix(TWO_QUBITS, np.diag([1.0, np.nan, 1.0, 1.0]))

    @pytest.mark.parametrize("rows, coeffs, error", [
        # 0.7 would be truncated to 0, the identity row
        ([[0.7, 0, 0, 0]], [1], ValueError),
        # X^-1 would read distance(X_a) as 2.0 where X^-1 = X_a is at 0
        ([[-1, 0, 0, 0]], [1], ValueError),
        # X^3 would share the int64 key 24 with [2, 2, 0, 0], so a merge would sum them
        ([[3, 0, 0, 0]], [1], ValueError),
        ([[1, 0, 0]], [1], LayoutError),
        ([[1, 0, 0, 0], [0, 1, 0, 0]], [1], LayoutError),  # a raw IndexError later
        ([[1, 0, 0, 0]], [[[1]]], LayoutError),
        # a NaN would make bad @ (X + Z) the zero operator and bad.distance(bad) 0.0
        ([[1, 0, 0, 0]], [np.nan], ValueError),
        ([[1, 0, 0, 0]], [np.inf], ValueError),
        # Z - Z has a zero matrix, yet commutes_with(X) read False, and @ X kept both rows
        ([[0, 0, 1, 0], [0, 0, 1, 0]], [1, -1], ValueError),
    ], ids=["fractional-row", "negative-digit", "digit-of-d", "three-columns", "short-coefficients",
            "three-axis-coefficients", "nan-coefficient", "inf-coefficient", "repeated-row"])
    def test_malformed_rows_and_coefficients_are_refused(self, rows, coeffs, error):
        with pytest.raises(error, match="do not fit" if error is LayoutError else "integer digits"):
            Operator(TWO_QUBITS, np.array(rows), np.array(coeffs, complex))

    @pytest.mark.parametrize("rows, coeffs, error, message", [
        ([[1, 0, 0, 0], [1]], [1, 1], LayoutError, "are ragged"),
        ([[1, 0, 0, 0]], ["one"], ValueError, "are not complex numbers"),
        ([[1, 0, 0, 0]], [{}], ValueError, "are not complex numbers"),
        ([[1, 0, 0, 0], [0, 1, 0, 0]], [[1], [1, 2]], ValueError, "are not complex numbers"),
    ], ids=["ragged-rows", "string-coefficient", "dict-coefficient", "ragged-coefficients"])
    def test_inputs_numpy_cannot_read_raise_the_constructors_own_errors(self, rows, coeffs, error, message):
        # numpy's own errors ("inhomogeneous shape", "malformed string") name neither rows nor coefficients
        with pytest.raises(error, match=message):
            Operator(TWO_QUBITS, rows, coeffs)

    def test_read_only_terms_from_outside_are_checked_too(self):
        # another operator's arrays, and a NaN made read-only, are no trusted terms
        x = GENERATORS["Q1"][0]
        with pytest.raises(LayoutError, match="do not fit"):
            Operator(SpaceLayout((("a", 2), ("b", 2), ("c", 2))), x.exponents, x.coefficients)
        nan = np.array([np.nan + 0j])
        nan.setflags(write=False)
        with pytest.raises(ValueError, match="finite coefficients"):
            Operator(TWO_QUBITS, x.exponents, nan)

    def test_lists_build_the_operator_equal_arrays_build(self):
        rows, coeffs = [[1, 0, 0, 1], [0, 1, 1, 0]], [1, 0.5j]
        want = Operator(TWO_QUBITS, np.array(rows), np.array(coeffs))
        for args in [(rows, coeffs), (np.array(rows), coeffs), (rows, np.array(coeffs))]:
            op = Operator(TWO_QUBITS, *args)
            assert op.exponents.dtype == np.int64 and op.coefficients.dtype == complex
            assert np.array_equal(op.exponents, want.exponents)
            assert np.array_equal(op.coefficients, want.coefficients)

    def test_adjoint_and_predicates(self):
        x, z = GENERATORS["Q1"]
        y = 1j * (x @ z)
        assert y.is_hermitian(1e-14)
        assert y.is_unitary(1e-14)
        assert y.is_involution(1e-14)
        assert y.H.isclose(y, 1e-14)

    def test_matpow_is_repeated_product(self):
        x = initial_descriptors(SpaceLayout((("Q", 4),)))["Q"][0]
        want = Operator.identity(x.layout)
        for k in range(6):
            assert np.array_equal(x.matpow(k).matrix, want.matrix)
            want = want @ x

    @pytest.mark.parametrize("k", [-1, 1.5, 2.5, True, "2"], ids=repr)
    def test_matpow_rejects_non_natural_exponents(self, k):
        # 1.5 is never truncated to 1, nor True read as 1
        x = initial_descriptors(SpaceLayout((("Q", 4),)))["Q"][0]
        with pytest.raises(ValueError):
            x.matpow(k)

    def test_haar_unitary_is_unitary(self, rng):
        for dim in (2, 4, 8):
            u = haar_random_unitary(dim, rng)
            assert np.allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)

    @pytest.mark.parametrize(
        "scalar", [math.nan, math.inf, -math.inf, complex(0, math.nan), complex(math.inf, 1)],
        ids=repr,
    )
    def test_non_finite_scalars_rejected(self, scalar):
        # a NaN fails every prune comparison and an infinite max prunes
        # every term: either would silently give the zero operator
        op = Operator.identity(SpaceLayout((("a", 2),)))
        for scaled in (lambda: op * scalar, lambda: scalar * op,
                       lambda: combination([op], [scalar]),
                       lambda: combination([op, GENERATORS["Q1"][0]], [1, scalar])):
            with pytest.raises(ValueError, match="not .*finite"):
                scaled()

    def test_one_identity_per_layout_is_its_own_adjoint(self):
        layout = SpaceLayout((("a", 2), ("b", 3)))
        assert Operator.identity(layout) is Operator.identity(layout)
        assert Operator.identity(layout).H is Operator.identity(layout)

    def test_products_by_the_identity_return_the_other_factor(self, rng):
        layout = SpaceLayout((("a", 2), ("b", 3)))
        unit = Operator.identity(layout)
        for _ in range(5):
            dense = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            a = Operator.from_matrix(layout, dense)
            assert unit @ a is a and a @ unit is a

    def test_mixed_layout_arithmetic_rejected(self):
        other = SpaceLayout((("A", 4),))
        with pytest.raises(LayoutError):
            GENERATORS["Q1"][0] @ Operator.identity(other)


@st.composite
def dense_operators(draw):
    """A layout of one to three subsystems of dims 2, 3 or 4 with N <= 16
    (a dense operator has up to N^2 terms, a product of two up to N^4),
    two random dense operators of Frobenius norm at most 1 with a drawn
    share of zeroed entries, and a complex scalar."""
    dims = draw(
        st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=3)
        .filter(lambda dims: math.prod(dims) <= 16)
    )
    layout = SpaceLayout(tuple((f"S{i}", d) for i, d in enumerate(dims)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.3, 1.0]))
    n = layout.total_dim
    mats = []
    for _ in range(2):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m *= rng.random((n, n)) < density
        mats.append(m / max(np.linalg.norm(m), 1.0))
    scalar = complex(*draw(st.tuples(st.floats(-2, 2), st.floats(-2, 2))))
    return layout, mats[0], mats[1], scalar


@settings(max_examples=60, derandomize=True, deadline=None)
@given(dense_operators())
def test_weyl_term_algebra_matches_dense(case):
    layout, a, b, scalar = case
    op_a, op_b = (Operator.from_matrix(layout, m) for m in (a, b))

    def dense_gap(op, want):
        return np.abs(op.matrix - want).max()

    assert dense_gap(op_a, a) < 1e-12 and dense_gap(op_b, b) < 1e-12
    assert dense_gap(op_a @ op_b, a @ b) < 1e-12
    assert dense_gap(op_a + op_b, a + b) < 1e-12
    assert dense_gap(scalar * op_a, scalar * a) < 1e-12
    assert dense_gap(op_a.H, a.conj().T) < 1e-12
    assert abs(op_a.expectation() - a[0, 0]) < 1e-12
    assert abs(op_a.distance(op_b) - np.linalg.norm(a - b)) < 1e-12


@st.composite
def weyl_operators(draw):
    """A layout of one to three subsystems of dims 2, 3 or 4 with N <= 24,
    and two operators on it, each the zero operator, a monomial of unit
    modulus (a phased permutation, unitary; an involution when its square
    is I) or a sum of two to six terms: what the one-merge checks meet."""
    dims = draw(
        st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=3)
        .filter(lambda dims: math.prod(dims) <= 24)
    )
    layout = SpaceLayout(tuple((f"S{i}", d) for i, d in enumerate(dims)))
    row = st.tuples(*(st.integers(0, d - 1) for d in dims * 2))
    phase = st.sampled_from([0.0, 0.5, 1.0, 1.5]) | st.floats(0, 2)
    ops = []
    for _ in range(2):
        size = draw(st.sampled_from([0, 1, 1, 2, 6]))
        rows = sorted(draw(st.sets(row, min_size=size, max_size=size)))
        if size == 1:
            coeffs = [np.exp(1j * math.pi * draw(phase))]
        else:
            coeffs = [complex(*draw(st.tuples(st.floats(-1, 1), st.floats(-1, 1))))
                      for _ in rows]
        exps = np.array(rows, dtype=np.int64).reshape(size, 2 * len(dims))
        ops.append(Operator(layout, exps, np.array(coeffs, dtype=complex)))
    return ops


@settings(max_examples=150, derandomize=True, deadline=None)
@given(weyl_operators())
def test_one_merge_checks_match_dense_norms(ops):
    a, b = ops
    dense_a, dense_b = a.matrix, b.matrix
    eye = np.eye(a.layout.total_dim)
    # each check's defect lies within 1e-12 of the dense norm it stands for,
    # so its predicate holds at that norm + 1e-12 and fails at norm - 1e-12
    for check, gap in (
        (lambda tol: a.commutes_with(b, tol), dense_a @ dense_b - dense_b @ dense_a),
        (a.is_involution, dense_a @ dense_a - eye),
        (a.is_unitary, dense_a.conj().T @ dense_a - eye),
    ):
        norm = np.linalg.norm(gap)
        assert check(norm + 1e-12) and not check(norm - 1e-12)
    assert a.H is a.H
    assert np.abs(a.H.matrix - dense_a.conj().T).max(initial=0.0) < 1e-12
