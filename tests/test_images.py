"""A gate's generator images by dense conjugation against the term route.

Production builds the images G^dag g G of a gate's acted generators as the
dense products U^dag (g U), with g U's rows moved and phased exactly, and
expands them in one stacked pass; a ``RotationY``'s two images alone are
built in closed form, from the same float products.  ``reference.term_images``
builds the same images as term-pair products of the gate's expansion, an
independent route.  Hypothesis draws Haar gates on every small shape,
controlled shifts with the 4-level subsystem on either side, and rotations
at the angles where terms vanish, alone and as sweeps: each image must have
the reference's rows, and its coefficients within 1e-13 of the largest.
The closed form must give, bit for bit, what the dense route gives a
``CustomGate`` of the rotation's matrix, alone and inside whole evolutions.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from descriptorsim import (
    BellConfig,
    Chained,
    Controlled,
    CustomGate,
    Decohered,
    GateApplication,
    LayoutError,
    Network,
    NetworkEvolution,
    Plain,
    Plus,
    RotationY,
    WignerUndo,
    build_bell_network,
    foliate_along,
    haar_random_unitary,
)
from descriptorsim import engine
from descriptorsim.bell import RECORD
from reference import term_images
from test_differential import SETTINGS

SPECIAL = [0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi]
SHAPES = [(2,), (3,), (4,), (2, 2), (2, 3), (2, 4)]


def angles():
    return st.one_of(st.sampled_from(SPECIAL), st.floats(-2 * math.pi, 2 * math.pi))


def haar(dims):
    return st.integers(0, 2**32 - 1).map(
        lambda seed: CustomGate(haar_random_unitary(math.prod(dims), np.random.default_rng(seed))))


def assert_same_images(gate, dims):
    got, want = engine._weyl_terms.__wrapped__(gate, dims, True), term_images(gate, dims)
    assert len(got) == len(want) == 2 * len(dims)
    for g, w in zip(got, want):
        assert np.array_equal(g.exponents, w.exponents)
        assert g.coefficients.shape == w.coefficients.shape
        assert np.abs(g.coefficients - w.coefficients).max() <= 1e-13 * np.abs(w.coefficients).max()


@SETTINGS
@given(data=st.data(), dims=st.sampled_from(SHAPES))
def test_haar_gate_images_match_the_term_route(data, dims):
    assert_same_images(data.draw(haar(dims)), dims)


@SETTINGS
@given(k=st.integers(0, 7), dims=st.sampled_from([(2, 4), (4, 2)]))
def test_controlled_shift_images_match_the_term_route(k, dims):
    assert_same_images(Controlled(Plus(k)), dims)


@SETTINGS
@given(theta=angles())
@example(theta=1e-9)
def test_rotation_images_match_the_term_route(theta):
    assert_same_images(RotationY(theta), (2,))


@SETTINGS
@given(thetas=st.tuples(angles(), angles(), angles()))
def test_swept_rotation_images_match_the_term_route(thetas):
    assert_same_images(CustomGate(np.stack([RotationY(t).matrix((2,)) for t in thetas])), (2,))


@pytest.mark.parametrize("dims", [(2, 4), (2, 2, 2)], ids=str)
def test_images_built_a_generator_at_a_time_are_the_images_built_at_once(monkeypatch, dims):
    gate = CustomGate(haar_random_unitary(math.prod(dims), np.random.default_rng(7)))
    whole = engine._weyl_terms.__wrapped__(gate, dims, True)
    # a budget that holds one generator's dense copies, and not two
    monkeypatch.setattr(engine, "DESCRIPTOR_BUDGET_BYTES", 8 * 16 * math.prod(dims) ** 2 * 3 // 2)
    alone = engine._weyl_terms.__wrapped__(gate, dims, True)
    for a, w in zip(alone, whole, strict=True):
        assert np.array_equal(a.exponents, w.exponents)
        assert np.array_equal(a.coefficients, w.coefficients)
    monkeypatch.setattr(engine, "DESCRIPTOR_BUDGET_BYTES", 8 * 16 * math.prod(dims) ** 2 - 1)
    with pytest.raises(LayoutError, match="a generator's images need"):
        engine._weyl_terms.__wrapped__(gate, dims, True)


EDGES = [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 2 * math.pi, 4 * math.pi,
         1e-9, 1e-300, 1e308, -1e308]


def dense_rotation(theta):
    """The rotation's matrix as a custom gate, which the dense route expands."""
    return CustomGate(RotationY(theta).matrix((2,)))


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.exponents, w.exponents)  # the same rows, in the same order
        assert g.coefficients.tobytes() == w.coefficients.tobytes()  # to the sign of every zero


def test_rotation_images_in_closed_form_are_the_dense_routes_bit_for_bit():
    # the dense route's cos theta is c*c - s*s of the matrix's half angles, which np.cos(theta)
    # misses by an ulp at most angles; at 0 and pi a term drops, and its image's +0.0 parts stay
    thetas = [*np.random.default_rng(40).uniform(-50, 50, 20_000).tolist(), *EDGES]
    for theta in thetas:
        assert_same_bits(engine._weyl_terms.__wrapped__(RotationY(theta), (2,), True),
                         engine._weyl_terms.__wrapped__(dense_rotation(theta), (2,), True))


def as_custom(network):
    """The network with each rotation a custom gate that carries its matrix."""
    return Network(network.layout, [[GateApplication(dense_rotation(app.gate.theta), app.subsystems)
                                     if isinstance(app.gate, RotationY) else app for app in sl]
                                    for sl in network.slices])


def final_and_foliated(network):
    evo = NetworkEvolution(network)
    fol = foliate_along(evo, RECORD)
    return evo.descriptors, fol.measures(), fol.branch_sum()


@pytest.mark.parametrize("variant", [lambda t: Plain(), lambda t: Decohered(None), lambda t: Decohered(3),
                                     lambda t: Chained(2, 1), lambda t: WignerUndo(), WignerUndo],
                         ids=["plain", "decohered", "scrambled", "chained", "wigner", "wigner-rerotated"])
def test_closed_form_rotations_evolve_every_bell_variant_as_the_dense_route_does(variant):
    thetas = [*np.random.default_rng(41).uniform(-7, 7, 6).tolist(), 0.0, -0.0, math.pi / 2, -math.pi / 2,
              math.pi, -math.pi, 1e308]
    for i, theta in enumerate(thetas):
        phi, extra = thetas[i - 1], thetas[i - 3]
        network = build_bell_network(BellConfig(theta, phi, variant(extra)))
        # and a rotation on a fresh qubit that is not the layout's first: its images are placed
        first = (*network.slices[0], GateApplication(RotationY(extra), ("QB",)))
        network = Network(network.layout, (first, *network.slices[1:]))
        (descriptors, measures, sums), (want, want_measures, want_sums) = map(
            final_and_foliated, (network, as_custom(network)))
        for sid in network.layout.ids:
            assert_same_bits(descriptors[sid], want[sid])
        assert measures.keys() == want_measures.keys()
        assert all(np.array_equal(measures[k], want_measures[k]) for k in measures)
        assert_same_bits(sums, want_sums)
