import time

import numpy as np
import pytest

from descriptorsim import (
    Controlled,
    CustomGate,
    GateApplication,
    Hadamard,
    Network,
    NetworkError,
    Plus,
    RotationY,
    SpaceLayout,
)
from descriptorsim.gates import gate_matrix

LAYOUT = SpaceLayout((("Q1", 2), ("Q2", 2), ("SC", 4)))


def test_gate_matrices():
    assert np.allclose(Hadamard().matrix((2,)), np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    theta = 0.81
    ry = RotationY(theta).matrix((2,))
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    assert np.allclose(ry, [[c, -s], [s, c]])
    cnot = Controlled(Plus(1)).matrix((2, 2))
    assert np.allclose(cnot @ cnot, np.eye(4))
    # control bit 1 flips the target
    assert cnot[3, 2] == 1 and cnot[2, 3] == 1 and cnot[0, 0] == 1
    # nested, it is the Toffoli: the target flips when both controls hold 1
    toffoli = np.eye(8)
    toffoli[6:, 6:] = [[0, 1], [1, 0]]
    assert np.array_equal(Controlled(Controlled(Plus(1))).matrix((2, 2, 2)), toffoli)
    # a controlled one-dimensional gate is a controlled phase, here of 1
    assert np.array_equal(Controlled(CustomGate(np.eye(1))).matrix((2,)), np.eye(2))


def test_plus_gate_cycles_basis():
    m = Plus(1).matrix((4,))
    for j in range(4):
        assert m[(j + 1) % 4, j] == 1
    assert np.allclose(Plus(4).matrix((4,)), np.eye(4))
    assert np.allclose(Plus(2).matrix((4,)), m @ m)


def test_controlled_plus_blocks():
    m = Controlled(Plus(2)).matrix((2, 4))
    assert np.allclose(m[:4, :4], np.eye(4))
    assert np.allclose(m[4:, 4:], np.linalg.matrix_power(Plus(1).matrix((4,)), 2))
    # a d-level control raises the gate to its value: block j is g^j
    g = Plus(1).matrix((4,))
    m = Controlled(Plus(1)).matrix((3, 4))
    zero = np.zeros((4, 4))
    assert np.array_equal(m, np.block([
        [np.eye(4), zero, zero], [zero, g, zero], [zero, zero, g @ g]
    ]))


def test_controlled_refuses_a_stacked_inner_gate():
    # a swept rotation is a stack of matrices, not one gate to raise to powers
    stack = CustomGate(np.stack([RotationY(t).matrix((2,)) for t in (0.3, 0.9)]), "sweep")
    swept = Controlled(stack)
    with pytest.raises(NetworkError, match=r"stacked CustomGate\(name='sweep'\)"):
        swept.matrix((2, 2))
    with pytest.raises(NetworkError, match="stacked CustomGate"):
        Network(SpaceLayout((("Q1", 2), ("Q2", 2))), [[GateApplication(swept, ("Q1", "Q2"))]])
    with pytest.raises(NetworkError, match="stacked CustomGate"):
        Controlled(Controlled(stack)).matrix((2, 2, 2))


def test_custom_gate_must_be_unitary():
    with pytest.raises(NetworkError):
        CustomGate(np.diag([1.0, 2.0]))
    # NaN, infinite and huge entries fail without a warning from the product
    for entry in (np.nan, np.inf, 1e200):
        with pytest.raises(NetworkError, match="is not unitary"):
            CustomGate(np.diag([1.0, entry]))
    with pytest.raises(NetworkError):
        RotationY(np.nan)
    with pytest.raises(NetworkError):
        RotationY(np.inf)
    with pytest.raises(NetworkError, match="Ry angle is too large for a float"):
        RotationY(10**400)
    with pytest.raises(NetworkError, match="Ry angle '0.3' is not a real number"):
        RotationY("0.3")
    # a shift is an integer power of the shift generator
    with pytest.raises(NetworkError, match="Plus shift 1.5 is not an integer"):
        Plus(1.5)
    with pytest.raises(NetworkError, match="Plus shift 2.0 is not an integer"):
        Controlled(Plus(2.0))
    with pytest.raises(NetworkError, match="Plus shift True is not an integer"):
        Plus(True)
    # a controlled gate holds a gate, not a gate kind or a matrix
    for inner in (Plus, np.eye(2)):
        with pytest.raises(NetworkError, match="Controlled needs a gate"):
            Controlled(inner)
    CustomGate(np.diag([1.0, -1.0]))  # fine


def test_custom_gate_repr_is_its_name():
    u = np.diag([1.0, -1.0])
    assert repr(CustomGate(u, "env-scramble")) == "CustomGate(name='env-scramble')"


def test_application_arity_checked():
    # a gate's arity is checked by its matrix, when a network holds it
    wrong_arity = GateApplication(Hadamard(), ("Q1", "Q2"))
    with pytest.raises(NetworkError, match="expects subsystem dims"):
        Network(LAYOUT, [[wrong_arity]])
    with pytest.raises(NetworkError):
        GateApplication(Controlled(Plus(1)), ("Q1", "Q1"))
    with pytest.raises(NetworkError):
        GateApplication(CustomGate([[1j]]), ())
    # a string is not split into one-letter ids
    for ids in ("Q1", "AB"):
        with pytest.raises(NetworkError, match=f"subsystems '{ids}' is a string"):
            GateApplication(Controlled(Plus(1)), ids)
    # a gate is checked when applied, not when a network first reads its matrix
    for not_gate in (5, "H", np.eye(2), Hadamard):
        with pytest.raises(NetworkError, match="GateApplication needs a gate"):
            GateApplication(not_gate, ("Q1",))


def test_application_refuses_subsystem_ids_that_are_not_strings():
    # as SpaceLayout does: a list is no id, and 3 is not renamed "3" to fail later in a Network
    for ids in ((["Q1"],), (3,), ("Q1", 3)):
        with pytest.raises(NetworkError, match="not all strings"):
            GateApplication(Hadamard(), ids)


def test_application_refuses_subsystems_that_are_not_a_sequence():
    # tuple(3) raises Python's own TypeError ("'int' object is not iterable"), which names no value
    for ids in (3, None, 2.5):
        with pytest.raises(NetworkError, match=f"subsystems {ids!r} are not a tuple of ids"):
            GateApplication(Hadamard(), ids)


def test_network_time_validation():
    # a gate's time is the index of its slice
    h = GateApplication(Hadamard(), ("Q1",))
    with pytest.raises(NetworkError, match=r"slice 1: subsystems \['Q1'\] acted twice"):
        Network(LAYOUT, [[h], [GateApplication(Controlled(Plus(1)), ("Q2", "Q1")), h]])
    with pytest.raises(NetworkError, match="slice 1 holds no gates"):
        Network(LAYOUT, [[h], [], [h]])
    cnot = GateApplication(Controlled(Plus(1)), ("Q1", "Q2"))
    net = Network(LAYOUT, [[h], [cnot, GateApplication(Plus(1), ("SC",))]])
    assert [len(sl) for sl in net.slices] == [1, 2]
    # a slice holds applications, the slices are sequences, the layout is one
    with pytest.raises(NetworkError, match="slice 0 holds .* not a GateApplication"):
        Network(LAYOUT, [[(Hadamard(), ("Q1",))]])
    with pytest.raises(NetworkError, match="not sequences of gates"):
        Network(LAYOUT, [h])
    with pytest.raises(NetworkError, match="needs a SpaceLayout"):
        Network("x", [])


def test_upto_is_a_prefix_within_range():
    h = GateApplication(Hadamard(), ("Q1",))
    net = Network(LAYOUT, [[h], [GateApplication(Controlled(Plus(1)), ("Q1", "Q2"))], [h]])
    assert net.upto(len(net.slices)) == net
    assert net.upto(1).slices == ((h,),)
    assert net.upto(0).slices == ()
    for t in (-1, len(net.slices) + 1):
        with pytest.raises(NetworkError, match=rf"time {t} outside network range 0\.\.3"):
            net.upto(t)


@pytest.mark.parametrize(
    "app",
    [
        GateApplication(Hadamard(), ("SC",)),
        GateApplication(Hadamard(), ("Q1", "Q2")),
        GateApplication(Controlled(Plus(1)), ("Q1",)),
        GateApplication(Plus(1), ("Q1", "SC")),
        GateApplication(Controlled(Hadamard()), ("Q1", "SC")),
        GateApplication(CustomGate(np.eye(2)), ("Q1", "Q2")),
        # the inner controlled gate is left no control subsystem
        pytest.param(
            GateApplication(Controlled(Controlled(CustomGate(np.eye(1)))), ("Q1",)),
            id="Controlled-Controlled-Q1",
        ),
    ],
    ids=lambda app: "-".join((type(app.gate).__name__, *app.subsystems)),
)
def test_network_gate_dims_checked(app):
    with pytest.raises(NetworkError):
        Network(LAYOUT, [[app]])


def test_gate_matrix_cache_is_keyed_by_dims():
    # a network's fit check reads the cached matrix: a fit on (2, 2) must
    # not let the same gate through on other dims
    cnot = Controlled(Plus(1))
    layout = SpaceLayout((("a", 2), ("b", 2), ("c", 3)))
    Network(layout, [[GateApplication(cnot, ("a", "b"))]])
    for sids in (("a",), ("a", "c", "b")):
        with pytest.raises(NetworkError):
            Network(layout, [[GateApplication(cnot, sids)]])
    cached = gate_matrix(Hadamard(), (2,))
    with pytest.raises(ValueError):
        cached[0, 0] = 5
    public = Hadamard().matrix((2,))
    public[0, 0] = 5  # still a writable copy
    assert np.array_equal(gate_matrix(Hadamard(), (2,)), Hadamard().matrix((2,)))


def test_embedded_respects_target_order():
    # the controlled-not with control Q2, target Q1: embedding must permute correctly
    net = Network(LAYOUT, [[GateApplication(Controlled(Plus(1)), ("Q2", "Q1"))]])
    m = net.embedded(net.slices[0][0])
    for q1 in range(2):
        for q2 in range(2):
            for sc in range(4):
                src = (q1 * 2 + q2) * 4 + sc
                out_q1 = q1 ^ q2  # target flips when control is 1
                dst = (out_q1 * 2 + q2) * 4 + sc
                assert m[dst, src] == 1


def test_embedded_nonadjacent_targets():
    layout = SpaceLayout((("a", 2), ("b", 2), ("c", 2)))
    net = Network(layout, [[GateApplication(Controlled(Plus(1)), ("a", "c"))]])
    m = net.embedded(net.slices[0][0])
    for a in range(2):
        for b in range(2):
            for c in range(2):
                src = a * 4 + b * 2 + c
                dst = a * 4 + b * 2 + (c ^ a)
                assert m[dst, src] == 1


def test_empty_network():
    net = Network(LAYOUT, ())
    assert net.slices == ()
    assert net.upto(0) == net


def test_long_network_builds_in_linear_time():
    # each slice's overlap check sees only its own gates, so 20 000
    # one-gate slices build in well under 2 s
    layout = SpaceLayout((("Q1", 2), ("Q2", 2)))
    slices = tuple(
        (GateApplication(Hadamard(), (("Q1", "Q2")[t % 2],)),) for t in range(20_000)
    )
    start = time.perf_counter()
    network = Network(layout, slices)
    assert time.perf_counter() - start < 2.0
    assert len(network.slices) == 20_000
    with pytest.raises(NetworkError, match=r"slice 19999: subsystems \['Q2'\] acted twice"):
        Network(layout, slices[:-1] + (slices[-1] * 2,))
