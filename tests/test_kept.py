"""A Bell run's angle-free algebra is done once per process.

Each layout shape is one object with its time-0 generators built once, the
fresh rule's images are kept per gate, layout and positions, and a product
or check of two single terms, the only pairs that repeat, is kept, by
operand identity.  Operators are immutable, which the identity key needs:
one built from outside keeps its own read-only copies, and those a run
builds never pass through the constructor.
"""

import itertools
import operator

import numpy as np
import pytest

from descriptorsim import (
    BellConfig,
    Chained,
    Decohered,
    Hadamard,
    NetworkEvolution,
    Operator,
    Plain,
    SpaceLayout,
    WignerUndo,
    build_bell_network,
    initial_descriptors,
    run_bell,
    run_bells,
)
from descriptorsim.engine import _weyl_terms
from descriptorsim.operators import PLAN_ENTRIES, PLAN_PAIRS, _defect, _term_product

QUBIT = SpaceLayout((("q", 2),))
PAIR = SpaceLayout((("p", 4), ("q", 4)))


def terms(count: int, members: int = 0) -> Operator:
    """An operator of ``count`` distinct terms on PAIR, with ``members`` coefficient columns."""
    rows = np.array(list(itertools.product(range(4), repeat=4))[:count])
    return Operator(PAIR, rows, np.ones((count, members) if members else count, complex))


def test_an_operator_on_views_of_writable_arrays_cannot_change():
    base, c = np.array([[1, 0]]), np.array([1.0 + 0j])
    op = Operator(QUBIT, base[:], c[:])
    square, adjoint = op @ op, op.H
    base[0, 1], c[0] = 1, 2
    assert np.array_equal(op.exponents, [[1, 0]]) and np.array_equal(op.coefficients, [1])
    assert np.array_equal((op @ op).coefficients, [1]) and (op @ op).isclose(square)
    assert op.H.isclose(adjoint) and np.array_equal(op.H.coefficients, [1])
    # memory that a buffer other than an array can write is copied as well
    raw = bytearray(np.array([1.0 + 0j]).tobytes())
    op = Operator(QUBIT, np.array([[1, 0]]), np.frombuffer(raw, complex))
    raw[:] = bytes(16)
    assert np.array_equal(op.coefficients, [1])


@pytest.mark.parametrize("writable", [True, False], ids=["writable", "read-only"])
def test_an_outside_operator_copies_its_inputs_and_leaves_their_flags(writable):
    rows, c = np.array([[1, 0]]), np.array([1.0 + 0j])
    for array in (rows, c):
        array.setflags(write=writable)
    for op in (Operator(QUBIT, rows, c), Operator(QUBIT, rows[:], c[:])):
        assert not (np.shares_memory(op.exponents, rows) or np.shares_memory(op.coefficients, c))
        assert not (op.exponents.flags.writeable or op.coefficients.flags.writeable)
        assert rows.flags.writeable == c.flags.writeable == writable


def test_products_and_checks_of_single_terms_are_kept():
    a, b = terms(1), Operator(PAIR, np.array([[0, 0, 1, 2]]), np.array([1j]))
    assert a.coefficients.shape == b.coefficients.shape == (1,)
    assert a @ b is a @ b
    hits, misses, *_ = _defect.cache_info()
    assert a.commutes_with(b) == a.commutes_with(b)
    assert _defect.cache_info()[:2] == (hits + 1, misses + 1)


@pytest.mark.parametrize("a, b", [
    (terms(17), terms(16)),  # over PLAN_PAIRS term pairs
    (terms(2), terms(2)),  # single members, but not single terms
    (terms(2, members=3), terms(2, members=3)),  # sweeps
    (terms(2), terms(2, members=3)),
    (terms(2, members=3), terms(2)),
], ids=["over-the-bound", "two-by-two-terms", "sweep", "single-by-sweep", "sweep-by-single"])
def test_products_and_checks_over_the_bound_or_of_sweeps_are_not_kept(a, b):
    lookups = [f.cache_info()[:2] for f in (_term_product, _defect)]  # hits and misses
    first, second = a @ b, a @ b
    assert first is not second
    assert np.array_equal(first.exponents, second.exponents)
    assert np.array_equal(first.coefficients, second.coefficients)
    a.commutes_with(b), b.commutes_with(a)
    assert [f.cache_info()[:2] for f in (_term_product, _defect)] == lookups


def test_no_operator_a_run_builds_passes_through_the_checking_constructor(monkeypatch):
    # the constructor checks and copies operators from outside; the module builds its own by _terms
    calls, init = [], Operator.__init__

    def recorded(self, *args):
        calls.append(self)
        init(self, *args)

    monkeypatch.setattr(Operator, "__init__", recorded)
    SpaceLayout((("x", 3), ("y", 2))).weyl
    for variant in (Plain(), Decohered(3), Chained(1, 2), WignerUndo()):
        run_bell(BellConfig(0.3, -1.1, variant))
        run_bells([BellConfig(t, 0.7, variant) for t in (0.2, 1.3)])
    Operator(QUBIT, np.array([[1, 0]]), np.ones(1))
    assert len(calls) == 1


def test_at_most_plan_entries_products_are_kept():
    assert _term_product.cache_info().maxsize == _defect.cache_info().maxsize == PLAN_ENTRIES
    x, z = QUBIT.weyl.generators[0]
    for k in range(PLAN_ENTRIES + 5):
        x @ (z * (k + 1))
    assert _term_product.cache_info().currsize == PLAN_ENTRIES


def test_identity_products_and_image_builds_keep_nothing():
    _weyl_terms.cache_clear()
    lookups = _term_product.cache_info()[:2]
    identity, x = PAIR.weyl.identity, terms(3)
    assert identity @ x is x and x @ identity is x
    _weyl_terms(Hadamard(), (2,), images=True)
    assert _term_product.cache_info()[:2] == lookups


@pytest.mark.parametrize("variant", [Plain(), Decohered(3), Chained(1, 2), WignerUndo()], ids=repr)
def test_two_builds_of_one_variant_share_a_layout_and_its_time_0_tuples(variant):
    first = build_bell_network(BellConfig(0.3, -1.1, variant)).layout
    second = build_bell_network(BellConfig(2.0, 0.4, variant)).layout
    assert first is second
    one, two = initial_descriptors(first), initial_descriptors(second)
    assert one is not two and all(one[sid] is two[sid] for sid in first.ids)
    # and the fresh rule's images: the first slice's Hadamard on Q1 is taken fresh
    images = [NetworkEvolution(build_bell_network(BellConfig(t, 0.2, variant))).run_to(1)
              for t in (0.1, 0.9)]
    assert all(map(operator.is_, images[0].descriptors["Q1"], images[1].descriptors["Q1"]))


def test_writing_into_descriptors_cannot_change_the_next_evolution():
    network = build_bell_network(BellConfig(0.3, 1.1))
    want = NetworkEvolution(network).run().descriptors
    written = NetworkEvolution(network)
    q2 = written.descriptors["Q2"]
    written.descriptors["Q1"] = q2
    initial_descriptors(network.layout)["Q2"] = written.descriptors["SC"]
    got = NetworkEvolution(network).run().descriptors
    for sid in network.layout.ids:
        for g, w in zip(got[sid], want[sid], strict=True):
            assert np.array_equal(g.exponents, w.exponents)
            assert np.array_equal(g.coefficients, w.coefficients)
    # the written evolution's Hadamard acts on what Q1 now holds: it swaps Q2's x and z
    written.advance()
    assert [c.exponents.tolist() for c in written.descriptors["Q1"]] == [q2[1].exponents.tolist(),
                                                                       q2[0].exponents.tolist()]
