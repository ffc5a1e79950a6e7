"""A term-pair product's plan (its phases, pair rows and merge) is cached per
layout dims and operand rows, and a merge's per dims and rows.

A cached plan must be the computation it replaces: every product, merge,
check and report is bit for bit the same with every cache emptied as warm.
The cache keys on the dims, keeps no plan over ``PLAN_PAIRS`` term pairs,
and never lets a sweep past the byte budget that its members alone break.
"""

import itertools
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from descriptorsim import (
    CustomGate,
    GateApplication,
    LayoutError,
    Network,
    NetworkEvolution,
    Operator,
    RotationY,
    SpaceLayout,
    is_sharp,
)
from descriptorsim import operators
from descriptorsim.cli import EXPERIMENTS, FORMATS, RunConfig, execute_and_report
from descriptorsim.operators import (
    PLAN_ENTRIES,
    PLAN_PAIRS,
    _cached_plan,
    _defect,
    _plan,
    _product,
    _term_product,
    combination,
    haar_random_unitary,
)
from test_differential import SETTINGS, networks


def empty_every_cache():
    for module in [m for n, m in sys.modules.items() if n.startswith("descriptorsim")]:
        for value in vars(module).values():
            getattr(value, "cache_clear", lambda: None)()


def swept(network):
    """``network`` after a first slice that turns its first qubit by a sweep
    of three angles, so that its operators carry three members."""
    qubit = next(sid for sid, d in network.layout.subsystems if d == 2)
    stack = CustomGate(np.stack([RotationY(t).matrix((2,)) for t in (0.3, -1.1, 2.9)]), "sweep")
    first = (GateApplication(stack, (qubit,)),)
    return Network(network.layout, (first, *network.slices))


def readings(a, b):
    """Each product, merge and check the plans serve, for two operators."""
    return [
        _product(a, b), _product(b, a), _product(a, a.H),
        combination([a, b, a.H], [0.5, -2j, 1.0]),
        _defect(a.H, a), _defect(a, a), _defect(a, b, commutator=True),
        a.is_unitary(), a.is_involution(), a.commutes_with(b), is_sharp(a + a.H),
    ]


def same(x, y):
    if isinstance(x, Operator):
        return np.array_equal(x.exponents, y.exponents) and np.array_equal(x.coefficients, y.coefficients)
    return x == y


@pytest.mark.parametrize("sweep", [False, True], ids=["single", "sweep"])
@SETTINGS
@given(network=networks(), data=st.data())
def test_a_cached_plan_is_the_computation_it_replaces(sweep, network, data):
    evolution = NetworkEvolution(swept(network) if sweep else network).run()
    components = [c for pair in evolution.descriptors.values() for c in pair]
    # a sweep's first operand is one of the components that carry its members
    a = data.draw(st.sampled_from([c for c in components if c.coefficients.ndim == 1 + sweep]))
    b = data.draw(st.sampled_from(components))
    first = readings(a, b)
    empty_every_cache()
    cold = readings(a, b)
    hits, kept = _cached_plan.cache_info().hits, [f.cache_info() for f in (_term_product, _defect)]
    warm = readings(a, b)
    # a kept product or check is only ever one of two single terms of one member
    now = [f.cache_info() for f in (_term_product, _defect)]
    if sweep:
        assert [info.currsize for info in now] == [0, 0]
    if a.coefficients.shape == (1,):  # _defect(a, a) at least is kept
        assert now[1].hits > kept[1].hits
    else:  # every reading has a or a.H as an operand, so none is even looked up
        assert [info[:2] for info in now] == [info[:2] for info in kept]
    # equal operands that are other objects find nothing kept, but the plans cached
    computed = readings(*(Operator(o.layout, o.exponents, o.coefficients) for o in (a, b)))
    if len(a.coefficients) * len(b.coefficients) <= PLAN_PAIRS:  # the plan of a @ b at least
        assert _cached_plan.cache_info().hits > hits
    for f, c, w, x in zip(first, cold, warm, computed, strict=True):
        assert same(c, w) and same(f, c) and same(w, x)


def test_plans_are_kept_per_dims():
    # the same exponent bytes on three layouts: each gets its own sums, mod
    # its own dims, and its own phases
    _cached_plan.cache_clear()
    rows = np.array([[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1]])
    for dims in [(2, 4), (4, 2), (3, 3)]:
        layout = SpaceLayout((("p", dims[0]), ("q", dims[1])))
        a = Operator(layout, rows, np.array([1, 0.5j, -0.25]))
        b = Operator(layout, rows[::-1].copy(), np.array([0.3, 1, 2j]))
        for x, y in [(a, b), (b, a), (a, a)]:
            assert np.allclose((x @ y).matrix, x.matrix @ y.matrix, atol=1e-12)
            assert np.allclose(combination([x, y], [1, -1]).matrix, x.matrix - y.matrix, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.int32, np.int16, np.uint8])
def test_narrow_exponent_rows_key_as_int64_rows(dtype):
    # plans key rows by their int64 bytes: narrower rows must not be read as
    # int64 ones, nor share the plans of other rows with the same bytes
    layout = SpaceLayout((("p", 2), ("q", 3)))
    a = Operator(layout, np.array([[1, 0, 0, 1], [0, 2, 1, 0]], dtype), np.array([1, 1j]))
    assert a.exponents.dtype == np.int64
    assert np.allclose((a @ a).matrix, a.matrix @ a.matrix, atol=1e-12)
    assert np.allclose((a + a.H).matrix, a.matrix + a.matrix.conj().T, atol=1e-12)


def test_cached_plans_are_read_only():
    layout = SpaceLayout((("p", 2), ("q", 3)))
    a = Operator(layout, np.array([[1, 0, 0, 1], [0, 2, 1, 0]]), np.array([1, 1j]))
    x = Operator(layout, np.array([[1, 1, 0, 0]]), np.array([2.0]))
    merge = _cached_plan(layout.dims, np.vstack((a.exponents, a.exponents)).tobytes(), None)
    for plan in (_plan(a, a), _plan(a, x), _plan(a.H, a, unit=True), merge):
        for array in plan:
            assert array is None or not array.flags.writeable


def test_a_sweep_over_the_budget_by_its_members_alone_is_refused_with_its_plan_cached():
    # 16 x 16 term pairs, whose plan is cached; 2^17 members need 48 bytes a
    # pair and member, 1.5 GiB, which the cached plan must not let through
    layout = SpaceLayout((("p", 4), ("q", 4)))
    rows = np.array(list(itertools.product((0, 1), repeat=4)))
    narrow = Operator(layout, rows, np.ones(16, complex))
    narrow @ narrow
    # a second product is kept whole and never reaches _plan: look the plan up itself
    hits = _cached_plan.cache_info().hits
    _plan(narrow, narrow)
    assert _cached_plan.cache_info().hits == hits + 1
    wide = Operator(layout, rows, np.ones((16, 2**17), complex))
    tracemalloc.start()
    try:
        with pytest.raises(LayoutError, match="term pairs need"):
            wide @ wide
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_a_product_over_the_bound_builds_its_plan_and_drops_it():
    # a Haar gate on three qubits has 64 Weyl terms: its product with its
    # adjoint pairs 64 x 64 terms, over PLAN_PAIRS
    assert PLAN_PAIRS < 64 * 64 and _cached_plan.cache_info().maxsize == PLAN_ENTRIES
    rng = np.random.default_rng(5)
    layout = SpaceLayout((("p", 2), ("q", 2), ("r", 2)))
    wide = Operator.from_matrix(layout, haar_random_unitary(8, rng))
    assert len(wide.coefficients) == 64
    _cached_plan.cache_clear()
    assert np.allclose((wide @ wide.H).matrix, np.eye(8), atol=1e-12)
    assert _cached_plan.cache_info().currsize == 0
    # a two-qubit one's 16 x 16 pairs are within the bound, and kept
    narrow = Operator.from_matrix(SpaceLayout((("p", 2), ("q", 2))), haar_random_unitary(4, rng))
    narrow @ narrow.H
    assert _cached_plan.cache_info().currsize > 0


def ten_qubit_operators():
    """Two operators of 200 terms on ten qubits: 200 x 200 term pairs, over
    PLAN_PAIRS, so no plan of theirs is cached."""
    layout = SpaceLayout(tuple((f"q{i}", 2) for i in range(10)))
    rng = np.random.default_rng(11)
    rows = np.unique(rng.integers(0, 2, (210, 20)), axis=0)[:200]
    a = Operator(layout, rows, rng.standard_normal(200) + 1j * rng.standard_normal(200))
    return a, a.H


def refused_estimate(monkeypatch, run) -> float:
    """The byte estimate of ``run``'s plans, read off its refusal under a small budget."""
    monkeypatch.setattr(operators, "DESCRIPTOR_BUDGET_BYTES", 2**20)
    with pytest.raises(LayoutError, match="40000 term pairs need") as refused:
        run()
    return float(re.search(r"need ([0-9.e+-]+) GiB", str(refused.value)).group(1)) * 2**30


@pytest.mark.parametrize("check", ["product", "unit defect", "commutator"])
def test_an_admitted_product_peaks_under_its_byte_estimate(monkeypatch, check):
    # under a budget just over the estimate the product, its merge with I's
    # zero row, or a commutator's two plans must be admitted and stay within it
    a, b = ten_qubit_operators()
    run = {"product": lambda: a @ b, "unit defect": lambda: _defect(b, a),
           "commutator": lambda: _defect(a, b, commutator=True)}[check]
    estimate = refused_estimate(monkeypatch, run)
    monkeypatch.setattr(operators, "DESCRIPTOR_BUDGET_BYTES", int(estimate * 1.01))
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < estimate


def test_a_commutator_check_admits_both_its_plans_before_building_either(monkeypatch):
    # ab and ba each fit a budget of one plan's estimate, but a commutator
    # check holds both: it is refused before either is built
    a, b = ten_qubit_operators()
    one = refused_estimate(monkeypatch, lambda: a @ b)
    monkeypatch.setattr(operators, "DESCRIPTOR_BUDGET_BYTES", int(one * 1.01))
    tracemalloc.start()
    try:
        with pytest.raises(LayoutError, match="2 plans of 40000 term pairs need"):
            a.commutes_with(b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    a @ b  # one plan alone is still admitted


def test_every_report_is_the_same_cold_and_warm():
    for experiment, fmt in itertools.product(EXPERIMENTS, FORMATS):
        cfg = RunConfig(experiment, format=fmt, chain_alice=1, chain_bob=1)
        empty_every_cache()
        cold = execute_and_report(cfg)
        assert execute_and_report(cfg) == cold
