import numpy as np
import pytest
from hypothesis import given

from descriptorsim import (
    BellConfig,
    Chained,
    Controlled,
    CustomGate,
    Decohered,
    GateApplication,
    Hadamard,
    LayoutError,
    Network,
    NetworkError,
    Plain,
    Plus,
    RotationY,
    SpaceLayout,
    WignerUndo,
    build_bell_network,
    joint_outcome_distribution,
    reduced_density_matrix,
    simulate_statevector,
)
from descriptorsim import oracle
from conftest import random_network
from test_differential import SETTINGS, networks

TWO_QUBITS = SpaceLayout((("Q1", 2), ("Q2", 2)))
BELL_PAIR = Network(
    TWO_QUBITS,
    [[GateApplication(Hadamard(), ("Q1",))], [GateApplication(Controlled(Plus(1)), ("Q1", "Q2"))]],
)


def test_empty_network_leaves_reference_state():
    layout = SpaceLayout((("a", 2), ("b", 4)))
    state = simulate_statevector(Network(layout, ()))
    assert np.array_equal(state.ravel(), np.eye(8)[0])


def test_state_is_read_only_with_one_axis_per_subsystem(rng):
    for _ in range(10):
        net = random_network(rng, with_qudit=True)
        state = simulate_statevector(net)
        assert isinstance(state, np.ndarray)
        assert state.shape == net.layout.dims
        assert not state.flags.writeable


def test_bell_pair_amplitudes():
    state = simulate_statevector(BELL_PAIR)
    expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.allclose(state.ravel(), expected, atol=1e-15)


def test_partial_evolution_time():
    state = simulate_statevector(BELL_PAIR.upto(1))
    expected = np.array([1, 0, 1, 0]) / np.sqrt(2)
    assert np.allclose(state.ravel(), expected, atol=1e-15)
    with pytest.raises(NetworkError):
        BELL_PAIR.upto(3)


def test_norm_preserved_on_random_networks(rng):
    for _ in range(25):
        state = simulate_statevector(random_network(rng))
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_bell_marginal_is_maximally_mixed():
    dist = joint_outcome_distribution(BELL_PAIR, ("Q1",))
    assert dist == pytest.approx({(0,): 0.5, (1,): 0.5})


def test_joint_distribution_orders_by_request():
    # (|00> + |10>)/sqrt(2)
    dist = joint_outcome_distribution(BELL_PAIR.upto(1), ("Q2", "Q1"))
    assert dist[(0, 0)] == pytest.approx(0.5)
    assert dist[(0, 1)] == pytest.approx(0.5)
    assert dist[(1, 0)] == pytest.approx(0.0)


def test_joint_distribution_sums_to_one(rng):
    for _ in range(10):
        net = random_network(rng)
        ids = net.layout.ids[: max(1, len(net.layout.ids) - 1)]
        dist = joint_outcome_distribution(net, ids)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_joint_distribution_rejects_unknown_or_repeated_ids():
    with pytest.raises(LayoutError):
        joint_outcome_distribution(BELL_PAIR, ("QX",))
    with pytest.raises(LayoutError):
        joint_outcome_distribution(BELL_PAIR, ("Q1", "Q1"))
    # a string is not split into one-letter ids
    one_letter = Network(SpaceLayout((("A", 2), ("B", 2))), ())
    for net, ids in ((BELL_PAIR, "Q1"), (one_letter, "AB")):
        with pytest.raises(LayoutError, match=f"subsystems '{ids}' is a string"):
            joint_outcome_distribution(net, ids)


def test_reduced_density_of_bell_half_is_mixed():
    rho = reduced_density_matrix(BELL_PAIR, "Q1")
    assert np.allclose(rho, np.eye(2) / 2, atol=1e-14)
    assert abs(np.trace(rho) - 1.0) < 1e-14


def test_reduced_density_diagonal_is_the_marginal(rng):
    # the two readers agree on every subsystem, the 4-level one included
    for _ in range(10):
        net = random_network(rng, with_qudit=True)
        for sid in net.layout.ids:
            rho = reduced_density_matrix(net, sid)
            dist = joint_outcome_distribution(net, (sid,))
            assert rho.shape == (net.layout.dims[net.layout.index_of(sid)],) * 2
            assert np.diag(rho).real == pytest.approx(
                [dist[(j,)] for j in range(len(rho))], abs=1e-12
            )
            assert abs(np.trace(rho) - 1.0) < 1e-12


def counting_embeddings(monkeypatch):
    """The number of gate embeddings the oracle asks for, counted live."""
    calls, embedded = [], Network.embedded

    def counted(self, app):
        calls.append(app)
        return embedded(self, app)

    monkeypatch.setattr(Network, "embedded", counted)
    return calls


def test_a_network_after_its_own_prefix_runs_every_gate_again(monkeypatch):
    # the oracle keeps nothing between calls: a prefix of the same slice
    # objects, run just before, saves the network none of its gates
    calls = counting_embeddings(monkeypatch)
    net = Network(TWO_QUBITS, [*BELL_PAIR.slices, [GateApplication(Hadamard(), ("Q2",))]])
    cold = simulate_statevector(Network(TWO_QUBITS, [list(sl) for sl in net.slices]))
    simulate_statevector(net.upto(2))
    calls.clear()
    state = simulate_statevector(net)
    assert calls == [app for sl in net.slices for app in sl]
    assert state.tobytes() == cold.tobytes()


def test_same_slices_on_another_layout_start_afresh(monkeypatch):
    calls = counting_embeddings(monkeypatch)
    swapped = Network(SpaceLayout((("Q2", 2), ("Q1", 2))), BELL_PAIR.slices)
    assert swapped.slices[0] is BELL_PAIR.slices[0]
    simulate_statevector(BELL_PAIR)
    calls.clear()
    state = simulate_statevector(swapped)
    assert len(calls) == 2
    # (|00> + |11>)/sqrt(2) has the same amplitudes in either order
    assert np.allclose(state.ravel(), np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)
    assert not state.flags.writeable


def dense_run(network):
    """|0...0> through every gate's dense embedding: the route up to
    ``oracle.DENSE_MAX_DIM``, as a reference for the axis-wise one."""
    amp = np.eye(1, network.layout.total_dim, dtype=complex)[0]
    for sl in network.slices:
        for app in sl:
            amp = network.embedded(app) @ amp
    return amp.reshape(network.layout.dims)


def large_networks(rng, count):
    """Random networks of 5 or 6 qubits and the 4-level system, N = 128 or
    256: above ``oracle.DENSE_MAX_DIM``, so gates act on their own axes."""
    nets = []
    while len(nets) < count:
        net = random_network(rng, max_subsystems=7, max_gates=12, with_qudit=True)
        if net.layout.total_dim >= 128:
            nets.append(net)
    assert oracle.DENSE_MAX_DIM < 128
    return nets


def check_axis_wise_route(network):
    # Haar gates on two or three subsystems sum their terms in another order
    # than the dense product, which moves amplitudes in the last bits
    cold = simulate_statevector(network)
    assert np.abs(cold - dense_run(network)).max() < 1e-14
    assert cold.flags.c_contiguous and not cold.flags.writeable
    for t in range(len(network.slices) + 1):  # run after each prefix, bit for bit
        simulate_statevector(network.upto(t))
        assert np.array_equal(simulate_statevector(network), cold)
    for i, sid in enumerate(network.layout.ids):  # the readers see the cold state
        want = (np.abs(cold) ** 2).sum(axis=tuple(j for j in range(cold.ndim) if j != i))
        dist = joint_outcome_distribution(network, (sid,))
        assert [dist[(j,)] for j in range(len(want))] == pytest.approx(want, abs=1e-14)


def test_large_networks_take_the_axis_wise_route(rng):
    for net in large_networks(rng, 8):
        check_axis_wise_route(net)


@SETTINGS
@given(networks())
def test_axis_wise_route_agrees_with_the_dense_one_on_generated_networks(network):
    # the generated networks stop at N = 64; a cutoff of 1 sends them all,
    # Haar gates on up to three subsystems included, along the axis-wise route
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "DENSE_MAX_DIM", 1)
        check_axis_wise_route(network)


BELL_VARIANTS = [Plain(), WignerUndo(), *(Chained(a, b) for a in range(3) for b in range(3)),
                 Decohered(None), Decohered(0), Decohered(3), Decohered(12345)]


@pytest.mark.parametrize("variant", BELL_VARIANTS, ids=repr)
def test_axis_wise_route_is_the_dense_one_bit_for_bit_on_every_bell_variant(variant, rng):
    # JSON reports print oracle_residual down to 1e-17, so their bytes hold only
    # if each gate's amplitudes are summed in the dense route's order; a cutoff
    # of 1 sends the N = 64 networks along the axis-wise route too
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "DENSE_MAX_DIM", 1)
        for theta, phi in rng.uniform(-4, 4, (5, 2)):
            network = build_bell_network(BellConfig(theta, phi, variant))
            assert np.array_equal(simulate_statevector(network), dense_run(network))


def test_route_is_chosen_by_the_layout_size(monkeypatch, rng):
    calls = counting_embeddings(monkeypatch)
    for _ in range(5):
        small = random_network(rng, max_subsystems=3)  # N <= 16
        calls.clear()
        simulate_statevector(small)
        assert len(calls) == sum(map(len, small.slices))  # once per gate
    calls.clear()
    for net in large_networks(rng, 3):
        simulate_statevector(net)
    assert not calls


def test_every_call_reads_each_gate_matrix_once(monkeypatch, rng):
    # dense: one embedding per gate, which reads the matrix; axis-wise: the
    # matrix alone; the same again on a second call of the same network
    reads, matrix_of = [], Network.matrix_of
    monkeypatch.setattr(Network, "matrix_of", lambda self, app: reads.append(app) or matrix_of(self, app))
    embeddings = counting_embeddings(monkeypatch)
    for net in [random_network(rng, max_subsystems=3) for _ in range(3)] + large_networks(rng, 3):
        gates = [app for sl in net.slices for app in sl]
        for _ in range(2):
            reads.clear(), embeddings.clear()
            simulate_statevector(net)
            assert reads == gates
            assert embeddings == (gates if net.layout.total_dim <= oracle.DENSE_MAX_DIM else [])


@pytest.mark.parametrize("qubits", [1, 7], ids=["dense", "axis-wise"])
def test_a_stacked_gate_is_refused_by_name(qubits):
    # a sweep's members are a (B, D, D) stack of matrices, which one state
    # vector cannot take: refused by name on either route, N = 2 or 128
    layout = SpaceLayout(tuple((f"q{i}", 2) for i in range(qubits)))
    stack = CustomGate(np.stack([RotationY(t).matrix((2,)) for t in (0.3, 0.9)]), "sweep")
    network = Network(layout, [[GateApplication(Hadamard(), ("q0",))], [GateApplication(stack, ("q0",))]])
    simulate_statevector(network.upto(1))
    for read in (simulate_statevector, lambda n: joint_outcome_distribution(n, ("q0",)),
                 lambda n: reduced_density_matrix(n, "q0"), lambda n: n.embedded(n.slices[1][0])):
        with pytest.raises(NetworkError, match=r"stacked CustomGate\(name='sweep'\)"):
            read(network)
