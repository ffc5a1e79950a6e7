"""A sweep of Bell configurations: one evolution with a member axis.

``run_bells`` evolves configurations that share a variant as one network
in which each gate whose matrix differs between the members is a
``CustomGate`` stack of the members' matrices, and each of its outcomes
must be ``==``, bit for bit, to the single run of that configuration: the
members prune, sum and read as if each ran alone.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from descriptorsim import (
    ALICE_ANGLES,
    BOB_ANGLES,
    BellConfig,
    Chained,
    CustomGate,
    Decohered,
    LayoutError,
    NetworkError,
    Operator,
    Plain,
    RotationY,
    SpaceLayout,
    WignerUndo,
    chsh_win_rate,
    closed_form_measures,
    quantum_distribution,
    run_bell,
    run_bells,
)
from descriptorsim import bell, cli, engine, oracle
from descriptorsim.chsh import INPUT_PAIRS
from descriptorsim.gates import gate_matrix
from descriptorsim.operators import _plan

SPECIAL = (0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi)
ANGLE = st.one_of(st.sampled_from(SPECIAL), st.floats(-4, 4, allow_nan=False))
ANGLE_PAIRS = st.lists(st.tuples(ANGLE, ANGLE), min_size=2, max_size=6)
VARIANTS = {
    "plain": st.just(Plain()),
    "chained": st.builds(Chained, st.integers(0, 2), st.integers(0, 2)),
    "decohered": st.builds(Decohered, st.one_of(st.none(), st.integers(0, 2**31))),
    "wigner": st.builds(WignerUndo, st.one_of(st.none(), ANGLE)),
}


def fields(outcome):
    """Everything an outcome reports, network aside."""
    return (outcome.config, outcome.branch_measures, outcome.alice_marginal,
            outcome.bob_marginal, outcome.reconstruction_residual,
            outcome.alice_sharpness, outcome.diagnostics)


def stacked(network):
    """The gates of ``network`` that hold a sweep's members: a stack of matrices."""
    return [app for sl in network.slices for app in sl
            if gate_matrix(app.gate, tuple(map(network.layout.dim_of, app.subsystems))).ndim == 3]


def rotations(*thetas):
    """The stack of the single-run rotation matrices at ``thetas``."""
    return CustomGate(np.stack([RotationY(theta).matrix((2,)) for theta in thetas]), "sweep")


@pytest.mark.parametrize("family", sorted(VARIANTS))
@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_member_equals_its_single_run(family, data):
    variant = data.draw(VARIANTS[family])
    angles = data.draw(ANGLE_PAIRS)
    cfgs = [BellConfig(theta, phi, variant) for theta, phi in angles]
    for member, cfg in zip(run_bells(cfgs), cfgs, strict=True):
        single = run_bell(cfg)
        assert fields(member) == fields(single)
        # the oracle diagnostics and the CLI's oracle column read the member's own network
        assert stacked(member.network) == []
        # each Decohered build makes its own CustomGate, which compares by identity
        assert family == "decohered" or member.network.slices == single.network.slices


@pytest.mark.parametrize("variant", [Plain(), Chained(2, 2), Decohered(3), WignerUndo(0.7)],
                         ids=repr)
def test_members_on_the_special_angles_equal_single_runs(variant):
    cfgs = [BellConfig(theta, phi, variant) for theta in SPECIAL for phi in SPECIAL[:3]]
    for member, cfg in zip(run_bells(cfgs), cfgs, strict=True):
        assert fields(member) == fields(run_bell(cfg))


def test_chsh_table_sweep_equals_single_runs():
    cfgs = [BellConfig(ALICE_ANGLES[x], BOB_ANGLES[y]) for x, y in INPUT_PAIRS]
    assert [fields(o) for o in run_bells(cfgs)] == [fields(run_bell(cfg)) for cfg in cfgs]


def test_the_oracle_never_sees_a_swept_network(monkeypatch):
    seen = []
    simulate = oracle.simulate_statevector

    def recording(network):
        # checked before the oracle runs, which would otherwise fail on a stack its own way
        seen.append(stacked(network))
        assert not seen[-1], "the oracle was handed a swept network"
        return simulate(network)

    monkeypatch.setattr(oracle, "simulate_statevector", recording)
    run_bells([BellConfig(t, 0.3, Decohered(4)) for t in (0.0, 1.0, 2.0)])
    cli.execute_and_report(cli.RunConfig("chsh"))
    assert len(seen) == 7


@pytest.fixture
def evolved(monkeypatch):
    """The networks that ``run_bells`` evolves, in order."""
    networks = []

    class Recording(bell.NetworkEvolution):
        def __init__(self, network):
            networks.append(network)
            super().__init__(network)

    monkeypatch.setattr(bell, "NetworkEvolution", Recording)
    return networks


def test_a_repeated_sweep_evolves_the_stack_it_kept(evolved):
    quantum_distribution(*zip(*INPUT_PAIRS))
    misses = engine._weyl_terms.cache_info().misses
    quantum_distribution(*zip(*INPUT_PAIRS))
    assert engine._weyl_terms.cache_info().misses == misses
    first, second = (stacked(network) for network in evolved)
    assert [a.subsystems for a in first] == [("Q1",), ("Q2",)]
    assert all(a.gate is b.gate for a, b in zip(first, second, strict=True))


def test_a_decohered_sweep_stacks_its_rotation_and_not_its_scramble(evolved):
    run_bells([BellConfig(theta, 1.1, Decohered(5)) for theta in (0.3, -0.7)])
    (network,) = evolved
    assert [a.subsystems for a in stacked(network)] == [("Q1",)]
    scramble = network.slices[0][0]
    assert (scramble.gate.name, scramble.subsystems) == ("env-scramble", ("QE", "QF"))


def test_changing_one_member_changes_only_its_outcome():
    angles = [(0.1, 0.7), (-1.2, 2.0), (math.pi, 0.0), (0.4, -0.4)]
    before = run_bells([BellConfig(t, p, Chained(1, 1)) for t, p in angles])
    angles[2] = (0.9, 0.0)
    after = run_bells([BellConfig(t, p, Chained(1, 1)) for t, p in angles])
    for i, (b, a) in enumerate(zip(before, after)):
        if i == 2:
            assert a.branch_measures != b.branch_measures
        else:
            assert fields(a) == fields(b)


def test_members_sharing_every_angle_equal_their_single_run():
    cfg = BellConfig(0.3, 1.1, Decohered(5))
    twice = run_bells([cfg, cfg])
    assert fields(twice[0]) == fields(twice[1]) == fields(run_bell(cfg))


def test_sweep_needs_one_shared_variant():
    with pytest.raises(ValueError, match="one or more configurations"):
        run_bells([])
    with pytest.raises(ValueError, match="share their variant"):
        run_bells([BellConfig(0.0, 0.5), BellConfig(0.0, 0.5, Chained(1, 1))])
    with pytest.raises(ValueError, match="share their variant"):
        run_bells([BellConfig(0.0, 0.5, Decohered(1)), BellConfig(0.0, 0.5, Decohered(2))])
    # anything but a configuration is refused, not read for a variant it lacks
    for cfgs in ([None], [BellConfig(0.3, 0.2), (0.3, 0.2)]):
        with pytest.raises(ValueError, match="configurations that share their variant"):
            run_bells(cfgs)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_chsh_report_is_the_report_of_four_single_runs(monkeypatch, fmt):
    swept = cli.execute_and_report(cli.RunConfig("chsh", format=fmt))

    def four_single_runs(xs, ys):
        return [run_bell(BellConfig(ALICE_ANGLES[x], BOB_ANGLES[y])) for x, y in zip(xs, ys)]

    monkeypatch.setattr(cli, "quantum_distribution", four_single_runs)
    assert cli.execute_and_report(cli.RunConfig("chsh", format=fmt)) == swept


def test_quantum_distribution_takes_equal_length_bit_sequences():
    xs, ys = zip(*INPUT_PAIRS)
    swept = quantum_distribution(xs, ys)
    assert [o.branch_measures for o in swept] == [
        quantum_distribution(x, y).branch_measures for x, y in INPUT_PAIRS
    ]
    for bad in (((0, 1), (0,)), ((0, 1), 1), ((), ()), ((0, 2), (1, 1))):
        with pytest.raises(ValueError, match="bits"):
            quantum_distribution(*bad)


def test_win_rate_refuses_a_short_angle_table():
    with pytest.raises(ValueError, match=r"alice_angles \(0,\)"):
        chsh_win_rate((0,), (0, 0))
    with pytest.raises(ValueError, match=r"bob_angles"):
        chsh_win_rate((0, 1), (0.5, 0.5, 0.5))
    # a table without a length is refused by name, not by len()'s TypeError
    with pytest.raises(ValueError, match="^alice_angles None needs one angle per input bit$"):
        chsh_win_rate(None, BOB_ANGLES)
    with pytest.raises(ValueError, match="^bob_angles 0.5 needs one angle per input bit$"):
        chsh_win_rate(ALICE_ANGLES, 0.5)


def test_bell_config_stores_its_angles_as_floats():
    cfg = BellConfig(Fraction(1, 3), np.float64(0.2))
    assert (type(cfg.theta), type(cfg.phi)) == (float, float)
    assert cfg == BellConfig(1 / 3, 0.2)
    assert fields(run_bell(cfg)) == fields(run_bell(BellConfig(1 / 3, 0.2)))


def spectrum(measures, shape):
    """The 2-D DFT of measures on a grid of ``shape`` (theta, phi), a table per
    branch key.  An angle that enters c gates makes a measure a trigonometric
    polynomial of degree 2c in its half, which 4c + 1 equispaced samples on
    [0, 4 pi) fix: the table is every one of its coefficients."""
    return {k: np.fft.fft2(np.reshape([m[k] for m in measures], shape)) / len(measures)
            for k in closed_form_measures(0.0, 0.0)}


@pytest.mark.parametrize("variant", [Plain(), Chained(1, 1), Decohered(3), Decohered(None),
                                     WignerUndo(None), WignerUndo(0.7)], ids=repr)
def test_every_measure_is_the_closed_form_at_every_angle(variant):
    # phi enters Bob's rotation, and with WignerUndo's default also his re-rotation pi - phi
    shape = (5, 9 if variant == WignerUndo(None) else 5)
    grid = list(itertools.product(*(np.arange(k) * 4 * np.pi / k for k in shape)))

    def bob(phi, sign=1):  # the angle Bob's particle is last measured at, phi's sign flipped by -1
        return sign * phi + (variant.angle(phi) if isinstance(variant, WignerUndo) else 0)

    got = spectrum([o.branch_measures for o in run_bells([BellConfig(*a, variant) for a in grid])], shape)
    want = spectrum([closed_form_measures(t, bob(p)) for t, p in grid], shape)
    flipped = spectrum([closed_form_measures(t, bob(p, -1)) for t, p in grid], shape)
    assert max(np.abs(got[k] - want[k]).max() for k in want) <= 1e-15
    assert max(np.abs(got[k] - flipped[k]).max() for k in want) > 0.1


class TestRotationSweep:
    def test_stacked_matrix_holds_each_members_rotation(self):
        stack = gate_matrix(rotations(0.0, 1.3, -2.0), (2,))
        assert stack.shape == (3, 2, 2)
        for member, theta in zip(stack, (0.0, 1.3, -2.0)):
            assert np.array_equal(member, RotationY(theta).matrix((2,)))

    def test_a_rotation_holds_one_angle(self):
        with pytest.raises(NetworkError, match=r"Ry angle \(0.3, 0.9\) is not a real number"):
            RotationY((0.3, 0.9))

    @pytest.mark.parametrize("stack, message", [
        # entries within modulus 1, so only the second member's own unitarity check refuses it
        pytest.param([np.eye(2), np.diag([1.0, 0.5])], "is not unitary", id="non-unitary"),
        pytest.param([np.eye(2), np.diag([1.0, np.nan])], "is not unitary", id="nan"),
        pytest.param([np.eye(2), np.diag([1.0, np.inf])], "is not unitary", id="inf"),
        pytest.param(np.zeros((0, 2, 2)), "must be square", id="empty"),
        pytest.param(np.zeros((2, 2, 3)), "must be square", id="non-square"),
        pytest.param(np.eye(2)[None, None], "must be square", id="4-d"),
    ])
    def test_every_member_of_a_stack_is_checked(self, stack, message):
        # a NaN or infinite member fails before any product could warn on it, an error under -X dev
        with pytest.raises(NetworkError, match=message):
            CustomGate(stack)

    def test_members_of_a_stacked_operator_are_each_matrixs_own_terms(self):
        layout = SpaceLayout((("q", 2),))
        angles = (0.0, math.pi / 2, math.pi, 0.4)
        sweep = Operator.from_matrix(layout, gate_matrix(rotations(*angles), (2,)))
        assert sweep.coefficients.shape == (2, 4)
        for column, theta in zip(sweep.coefficients.T, angles):
            single = Operator.from_matrix(layout, RotationY(theta).matrix((2,)))
            kept = column != 0
            assert np.array_equal(sweep.exponents[kept], single.exponents)
            assert np.array_equal(column[kept], single.coefficients)


class TestMemberAxis:
    """An operator with a column of coefficients per member: readings per
    member, predicates over all of them."""

    LAYOUT = SpaceLayout((("q", 2),))
    X = np.array([[1, 0]])  # the row of X

    def sweep(self, *columns):
        return Operator(self.LAYOUT, self.X, np.array([columns], dtype=complex))

    def test_readings_are_per_member(self):
        op = self.sweep(1, -2, 0.5j)
        assert np.array_equal(op.expectation(), [0, 0, 0])
        assert np.array_equal((op @ op).expectation(), [1, 4, -0.25])
        assert op.distance(self.sweep(1, 1, 1)) == pytest.approx([0, 3 * 2**0.5, abs(0.5j - 1) * 2**0.5])

    def test_a_predicate_holds_only_when_every_member_meets_it(self):
        assert self.sweep(1, -1).is_hermitian() and self.sweep(1, -1).is_unitary()
        assert not self.sweep(1, 1j).is_hermitian()
        assert self.sweep(1, 1j).is_unitary()
        assert not self.sweep(1, 2).is_unitary()
        assert not self.sweep(1, 2).is_involution()
        assert self.sweep(1, -1).is_involution()

    def test_members_broadcast_over_a_single_operator(self):
        single = Operator(self.LAYOUT, np.array([[0, 1]]), np.ones(1, complex))  # Z
        summed = self.sweep(1, 2) + single
        assert summed.coefficients.shape == (2, 2)
        assert np.array_equal((summed @ summed).expectation(), [2, 5])


class TestCleanFailures:
    """Library inputs of the wrong kind raise TypeError, not AttributeError."""

    OP = Operator.identity(SpaceLayout((("q", 2),)))

    def test_adding_a_number(self):
        with pytest.raises(TypeError):
            self.OP + 1

    def test_multiplying_by_a_number_as_a_matrix(self):
        with pytest.raises(TypeError):
            self.OP @ 1

    def test_distance_to_a_number(self):
        with pytest.raises(TypeError, match="Operator"):
            self.OP.distance(3)


def test_sweep_product_over_budget_only_by_its_members_is_refused_before_allocating():
    # all 1024 Weyl rows of five qubits pair into 2^20 term pairs: one
    # member's product passes the budget, 32 members' do not
    layout = SpaceLayout(tuple((f"q{i}", 2) for i in range(5)))
    rows = np.array(list(itertools.product((0, 1), repeat=10)), dtype=np.int64)
    rng = np.random.default_rng(0)
    wide = Operator(layout, rows, rng.standard_normal((1024, 32)) + 0j)
    narrow = Operator(layout, rows, wide.coefficients[:, 0].copy())
    assert _plan(narrow, narrow).phases.shape == (1024, 1024)
    tracemalloc.start()
    try:
        with pytest.raises(LayoutError, match="term pairs need"):
            wide @ wide
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
