"""What the package keeps per row set and per gate's rows must be the
computation it replaces.

An operator's adjoint rows and phases and its shift-free rows are kept per
dims and rows, and a gate's monomial walk per its polynomials' rows.  Every
operator on those rows, whatever its coefficients, a sweep's included, must
read bit for bit what the uncached computations of ``reference`` give; and
a fresh rotation, whose images are new operators on the rows every generic
rotation's images have, must take the walk an earlier rotation built.
"""

import numpy as np
import pytest

import reference
from conftest import random_network
from descriptorsim import (
    BellConfig,
    Chained,
    Decohered,
    GateApplication,
    NetworkEvolution,
    Plain,
    RotationY,
    WignerUndo,
    build_bell_network,
    engine,
)
from descriptorsim.operators import PLAN_PAIRS, _cached_rows, _terms
from test_plans import swept


def bits(x):
    """An array's or a reading's shape, type and bytes: -0.0 is not 0.0."""
    x = np.asarray(x)
    return x.shape, x.dtype, x.tobytes()


def same(op, rows, coefficients):
    return bits(op.exponents) == bits(rows) and bits(op.coefficients) == bits(coefficients)


def networks(rng, sweep):
    """Bell variants at random angles and random networks with a qudit, each
    after a first slice that sweeps three angles with ``sweep``."""
    variants = [Plain(), WignerUndo(), Chained(1, 2), Decohered(None), Decohered(3)]
    nets = [build_bell_network(BellConfig(*rng.uniform(-4, 4, 2), v)) for v in variants]
    nets += [random_network(rng, with_qudit=True) for _ in range(6)]
    return [swept(net) if sweep else net for net in nets]


@pytest.mark.parametrize("sweep", [False, True], ids=["single", "sweep"])
def test_operators_on_equal_rows_read_their_own_coefficients_through_one_record(sweep, rng):
    for network in networks(rng, sweep):
        evolution = NetworkEvolution(network)
        for t in range(len(network.slices) + 1):
            evolution.run_to(t)
            for op in (c for pair in evolution.descriptors.values() for c in pair):
                # a twin on the same rows, built after op: its adjoint and
                # expectation read the record op's rows left
                op.expectation()
                hits = _cached_rows.cache_info().hits
                twin = _terms(op.layout, op.exponents, op.coefficients * (0.5 - 1.5j))
                for x in (op, twin):
                    assert same(x.H, *reference.adjoint(x))
                    assert bits(x.expectation()) == bits(reference.expectation(x))
                if len(op.exponents) <= PLAN_PAIRS:
                    assert _cached_rows.cache_info().hits > hits


@pytest.mark.parametrize("sweep", [False, True], ids=["single", "sweep"])
def test_the_kept_walk_evaluates_every_gate_as_the_uncached_table(sweep, rng):
    for network in networks(rng, sweep):
        evolution = NetworkEvolution(network)
        for sl in network.slices:
            for app, images in ((app, images) for app in sl for images in (True, False)):
                got = engine._evaluate(app, evolution.descriptors, images)
                want = reference.evaluate(app, evolution.descriptors, images)
                assert len(got) == len(want)
                assert all(same(g, w.exponents, w.coefficients) for g, w in zip(got, want))
            evolution.advance()


def test_a_fresh_rotation_takes_the_walk_an_earlier_one_built():
    descriptors = NetworkEvolution(build_bell_network(BellConfig(0.3, 0.9))).run().descriptors
    engine._evaluate(GateApplication(RotationY(0.3), ("Q1",)), descriptors, True)
    before = engine._walk.cache_info()
    for theta in (1.1, -2.7):  # fresh gates, whose images are new operators on the same rows
        engine._evaluate(GateApplication(RotationY(theta), ("Q1",)), descriptors, True)
    after = engine._walk.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)
