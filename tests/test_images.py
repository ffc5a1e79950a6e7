"""A gate's generator images by dense conjugation against the term route.

Production builds the images G^dag g G of a gate's acted generators as the
dense products U^dag (g U), with g U's rows moved and phased exactly, and
expands them in one stacked pass.  ``reference.term_images`` builds the
same images as term-pair products of the gate's expansion, an
independent route.  Hypothesis draws Haar gates on every small shape,
controlled shifts with the 4-level subsystem on either side, and rotations
at the angles where terms vanish, alone and as sweeps: each image must have
the reference's rows, and its coefficients within 1e-13 of the largest.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from descriptorsim import Controlled, CustomGate, LayoutError, Plus, RotationY, haar_random_unitary
from descriptorsim import engine
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
