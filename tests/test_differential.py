"""Differential tests over generated networks.

Hypothesis draws well-formed networks (2-4 qubits, an optional 4-level
system, every gate kind, Haar-random custom gates at any time, controlled
gates whose control may be the 4-level system, several disjoint gates per
slice) and checks the production step law against the two independent
references: cumulative conjugation and the state-vector oracle.  The
residual checks of the engine must stay at double-precision scale on every
such network, each gate's generator images must agree with conjugation by
its functional form, every controlled gate with a qubit control must
be a foliation of its target, and the walk along each such target must
rebuild it, with the branching oracle's measures, or refuse.  Neither one
gate per slice nor the order the layout declares its subsystems in may
change the outcome.  The oracle's dense gate embedding is checked
entry for entry against the Kronecker-product formula it replaced.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from descriptorsim import (
    BellConfig,
    Chained,
    Controlled,
    CustomGate,
    Decohered,
    FoliationError,
    GateApplication,
    Hadamard,
    Network,
    NetworkEvolution,
    Plain,
    Plus,
    RotationY,
    SpaceLayout,
    WignerUndo,
    build_bell_network,
    foliate,
    foliate_along,
    functional_form,
    haar_random_unitary,
    initial_descriptors,
    is_sharp,
    joint_outcome_distribution,
    simulate_statevector,
)
from conftest import algebra_residual, dense_distance, kron_embedding, locality_residual
from reference import branching_oracle, cumulative_evolve, evaluate

TOL = 1e-10
SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)


def haar_gates(dim):
    return st.integers(0, 2**32 - 1).map(
        lambda seed: CustomGate(haar_random_unitary(dim, np.random.default_rng(seed)))
    )


def one_subsystem_gates(dim):
    """H, Ry (qubits only), Plus or a Haar-random custom gate on ``dim`` levels."""
    gates = [st.integers(0, 4).map(Plus), haar_gates(dim)]
    if dim == 2:
        gates += [st.just(Hadamard()), st.floats(-math.pi, math.pi).map(RotationY)]
    return st.one_of(*gates)


@st.composite
def networks(draw):
    n_qubits = draw(st.integers(2, 4))
    dims = [2] * n_qubits + [4] * draw(st.integers(0, 1))
    layout = SpaceLayout(tuple((f"S{i}", d) for i, d in enumerate(dims)))
    qubits = [sid for sid, d in layout.subsystems if d == 2]
    qudits = [sid for sid, d in layout.subsystems if d == 4]
    kinds = ["H", "Ry", "Controlled", "Custom"] + (["Plus"] if qudits else [])

    slices, acted = [], set()
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(kinds))
        if kind == "H":
            gate, sids = Hadamard(), (draw(st.sampled_from(qubits)),)
        elif kind == "Ry":
            angle = draw(st.floats(-math.pi, math.pi))
            gate, sids = RotationY(angle), (draw(st.sampled_from(qubits)),)
        elif kind == "Controlled":
            # any subsystem controls, the 4-level one too; any other is the target
            sids = tuple(draw(st.permutations(layout.ids))[:2])
            gate = Controlled(draw(one_subsystem_gates(layout.dim_of(sids[1]))))
        elif kind == "Plus":
            gate, sids = Plus(draw(st.integers(0, 4))), (qudits[0],)
        else:
            sids = tuple(
                draw(st.lists(st.sampled_from(layout.ids), min_size=1, max_size=2, unique=True))
            )
            dim = math.prod(layout.dim_of(sid) for sid in sids)
            gate = draw(haar_gates(dim))
        # a gate opens a new slice when it overlaps the open one, or by draw
        if not slices or acted & set(sids) or not draw(st.booleans()):
            slices.append([])
            acted = set()
        acted |= set(sids)
        slices[-1].append(GateApplication(gate, sids))
    return Network(layout, slices)


@SETTINGS
@given(networks())
def test_step_law_matches_cumulative_conjugation_and_oracle(network):
    evo = NetworkEvolution(network)
    time0 = initial_descriptors(network.layout)
    for t in range(len(network.slices) + 1):
        evo.run_to(t)
        prefix = network.upto(t)
        reference = cumulative_evolve(prefix)
        state = simulate_statevector(prefix).ravel()
        for sid, initial in time0.items():
            assert dense_distance(evo.descriptors[sid], reference[sid]) < TOL
            for got, base in zip(evo.descriptors[sid], initial):
                # <0|U^dag c U|0> = <psi(t)| c |psi(t)>, for x and z (shift
                # and clock on the 4-level system)
                oracle = state.conj() @ base.matrix @ state
                assert abs(got.expectation() - oracle) < TOL


@SETTINGS
@given(networks())
def test_step_law_conjugates_by_the_functional_form(network):
    # each acted component after a gate is the component before it
    # conjugated by the gate's functional form there: the form a foliation
    # splits by is the unitary the generator images apply
    evo = NetworkEvolution(network)
    for _ in network.slices:
        before = evo.descriptors
        for app in evo.advance():
            u = functional_form(app, before)
            for sid in app.subsystems:
                for got, c in zip(evo.descriptors[sid], before[sid], strict=True):
                    assert got.distance(u.H @ c @ u) < TOL


@SETTINGS
@given(networks())
def test_every_controlled_gate_is_a_foliation(network):
    # the target's descriptor just before a controlled gate, split by the
    # control's clock and the inner gate's functional form on it: the
    # branches rebuild the target just after, and their measures are the
    # control's Born probabilities; a 4-level clock is no involution
    evo = NetworkEvolution(network)
    for t, sl in enumerate(network.slices):
        before = evo.descriptors
        after = evo.run_to(t + 1).descriptors
        for app in sl:
            if not isinstance(app.gate, Controlled):
                continue
            control, target = app.subsystems
            clock = before[control][1]
            poly = functional_form(GateApplication(app.gate.gate, (target,)), before)
            if network.layout.dim_of(control) != 2:
                with pytest.raises(FoliationError):
                    foliate(before[target], clock, poly)
                continue
            fol = foliate(before[target], clock, poly)
            for got, want in zip(fol.branch_sum(), after[target], strict=True):
                assert got.distance(want) < TOL
            born = joint_outcome_distribution(network.upto(t), (control,))
            measures = fol.measures()
            for bit in (0, 1):
                assert abs(measures[str(bit)] - born[(bit,)]) < 1e-12


@SETTINGS
@given(networks())
def test_foliate_along_rebuilds_or_refuses(network):
    # one walk per target of a qubit-controlled gate: it refuses, or each
    # of its k splits doubles the branches, whose measures lie in [0, 1]
    # and sum to 1, and whose relative descriptors add up to the evolved
    # target
    splits = [
        app.subsystems for sl in network.slices for app in sl
        if isinstance(app.gate, Controlled) and network.layout.dim_of(app.subsystems[0]) == 2
    ]
    for target in sorted({target for _, target in splits}):
        evo = NetworkEvolution(network)
        try:
            fol = foliate_along(evo, target)
        except FoliationError:
            continue
        assert evo.time == len(network.slices)
        k = sum(1 for sl in network.slices for app in sl
                if isinstance(app.gate, Controlled) and app.subsystems[1:] == (target,))
        assert len(fol.branches) == 2**k
        assert all(-TOL < value < 1 + TOL for value in fol.measures().values())
        assert abs(sum(fol.measures().values()) - 1) < TOL
        for got, want in zip(fol.branch_sum(), evo.descriptors[target], strict=True):
            assert got.distance(want) < TOL
        # each branch's measure is its share of the state split at the same gates
        oracle = branching_oracle(network, target)
        assert fol.measures().keys() == oracle.keys()
        assert all(abs(m - oracle[key]) < 1e-12 for key, m in fol.measures().items())


def walk(network, target):
    """The measures of the walk along ``target``, or None if it refuses."""
    try:
        return foliate_along(NetworkEvolution(network), target).measures()
    except FoliationError:
        return None


@SETTINGS
@given(networks())
def test_one_gate_per_slice_leaves_every_descriptor_bit_for_bit(network):
    serial = Network(network.layout, [[app] for sl in network.slices for app in sl])
    got, want = (NetworkEvolution(n).run().descriptors for n in (serial, network))
    for sid in network.layout.ids:
        for g, w in zip(got[sid], want[sid], strict=True):
            assert np.array_equal(g.exponents, w.exponents)
            assert np.array_equal(g.coefficients, w.coefficients)


@SETTINGS
@given(networks(), st.data())
def test_the_layout_order_changes_no_walk(network, data):
    # the subsystems declared reversed, and in a drawn order: a walk accepted
    # in one order is accepted in the other, with the same measures
    subsystems = network.layout.subsystems
    for order in (subsystems[::-1], tuple(data.draw(st.permutations(subsystems)))):
        declared = Network(SpaceLayout(order), network.slices)
        for target in {app.subsystems[-1] for sl in network.slices for app in sl
                       if isinstance(app.gate, Controlled)}:
            want, got = walk(network, target), walk(declared, target)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.keys() == want.keys()
                assert all(abs(got[key] - m) <= 1e-15 for key, m in want.items())


@SETTINGS
@given(networks())
def test_residuals_stay_at_double_precision(network):
    assert locality_residual(network) < TOL
    assert algebra_residual(NetworkEvolution(network).run().descriptors) < TOL


def _haar(dim, seed):
    return CustomGate(haar_random_unitary(dim, np.random.default_rng(seed)))


TOFFOLI = Controlled(Controlled(Plus(1)))
QUDIT_LAYOUT = SpaceLayout((("S0", 2), ("S1", 4), ("S2", 2)))


@SETTINGS
@given(networks())
# one subsystem, so no other is left
@example(Network(SpaceLayout((("S0", 4),)), [[GateApplication(_haar(4, 1), ("S0",))],
                                              [GateApplication(Plus(3), ("S0",))]]))
# the Toffoli out of layout order, with a subsystem left over
@example(Network(SpaceLayout(tuple((f"S{i}", 2) for i in range(4))), [
    [GateApplication(Hadamard(), ("S3",)), GateApplication(RotationY(0.7), ("S0",))],
    [GateApplication(TOFFOLI, ("S3", "S0", "S2"))],
]))
# a two-subsystem Haar gate on the 4-level system and a qubit, then gates
# on every subsystem, out of order: the Toffoli with a 4-level control and a
# Haar gate
@example(Network(QUDIT_LAYOUT, [
    [GateApplication(_haar(8, 2), ("S1", "S0")), GateApplication(Hadamard(), ("S2",))],
    [GateApplication(TOFFOLI, ("S1", "S2", "S0"))],
    [GateApplication(_haar(16, 3), ("S2", "S0", "S1"))],
]))
def test_embedding_equals_kronecker_formula(network):
    # the strided write of embed_matrix against the Kronecker product it
    # replaced, entry for entry, and the oracle against a simulation by it
    amp = np.zeros(network.layout.total_dim, dtype=complex)
    amp[0] = 1.0
    for sl in network.slices:
        for app in sl:
            dims = tuple(network.layout.dim_of(sid) for sid in app.subsystems)
            want = kron_embedding(app.gate.matrix(dims), app.subsystems, network.layout)
            assert np.array_equal(network.embedded(app), want)
            amp = want @ amp
    assert np.array_equal(simulate_statevector(network).ravel(), amp)


@pytest.mark.parametrize(
    "variant", [Plain(), Decohered(3), Chained(2, 1), WignerUndo()], ids=repr
)
def test_bell_step_law_matches_cumulative_conjugation(variant):
    network = build_bell_network(BellConfig(0.3, 0.9, variant))
    evo = NetworkEvolution(network)
    for t in range(len(network.slices) + 1):
        evo.run_to(t)
        for sid, want in cumulative_evolve(network.upto(t)).items():
            assert dense_distance(evo.descriptors[sid], want) < TOL


@SETTINGS
@given(networks())
# a 49-level target, where the inverse FFT gives omega^0 = 1 - 1.1e-16: the
# clock table holds an exact 1 there, so the product path's phases are exact
@example(Network(SpaceLayout((("S0", 2), ("S1", 49))),
                 [[GateApplication(Controlled(Plus(1)), ("S0", "S1"))]]))
def test_fresh_subsystem_gates_take_their_images_bit_for_bit(network):
    # a gate on subsystems no gate has acted on takes its images as its
    # new descriptors: the same exponents, coefficients and term order as
    # the reference's product path, which evaluates them on the untouched
    # generators
    evo, acted, checked = NetworkEvolution(network), set(), 0
    for _ in network.slices:
        before, fresh = evo.descriptors, set(network.layout.ids) - acted
        for app in evo.advance():
            acted |= set(app.subsystems)
            if not fresh.issuperset(app.subsystems):
                continue
            images = evaluate(app, before, images=True)
            got = [c for sid in app.subsystems for c in evo.descriptors[sid]]
            for g, want in zip(got, images, strict=True):
                assert np.array_equal(g.exponents, want.exponents)
                assert np.array_equal(g.coefficients, want.coefficients)
            checked += 1
    assert checked  # every gate at time 0 acts on fresh subsystems


@SETTINGS
@given(networks())
def test_oracle_resumed_from_a_prefix_equals_a_cold_run(network):
    # the full network, run just after the prefix upto(t) that shares its
    # slices, is bit for bit a run from |0...0> through every gate
    amp = np.zeros(network.layout.total_dim, dtype=complex)
    amp[0] = 1.0
    for sl in network.slices:
        for app in sl:
            amp = network.embedded(app) @ amp
    for t in range(len(network.slices) + 1):
        simulate_statevector(network.upto(t))
        assert np.array_equal(simulate_statevector(network).ravel(), amp)


@SETTINGS
@given(networks())
def test_sharpness_matches_the_dense_variance(network):
    # is_sharp reads <o o> from the term pairs whose shifts cancel; the
    # dense <0|o o|0> - <0|o|0>^2 of each qubit's x, y and z decides the same
    evo = NetworkEvolution(network)
    for t in range(len(network.slices) + 1):
        for sid, (x, z) in evo.run_to(t).descriptors.items():
            if network.layout.dim_of(sid) != 2:
                continue
            for o in (x, 1j * (x @ z), z):
                dense = o.matrix
                variance = abs((dense @ dense)[0, 0] - dense[0, 0] ** 2)
                if abs(variance - 1e-9) < 1e-12:  # too close to the threshold to tell
                    continue
                sharp, value = is_sharp(o)
                assert sharp == (variance < 1e-9)
                assert value is None if not sharp else abs(value - dense[0, 0].real) < 1e-12
