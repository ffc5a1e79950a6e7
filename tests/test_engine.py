import math
import tracemalloc

import numpy as np
import pytest

from descriptorsim import (
    AlgebraError,
    BellConfig,
    Controlled,
    CustomGate,
    Decohered,
    EngineError,
    GateApplication,
    Hadamard,
    LayoutError,
    Network,
    NetworkError,
    NetworkEvolution,
    Operator,
    Plus,
    RotationY,
    SpaceLayout,
    build_bell_network,
    functional_form,
    initial_descriptors,
    is_sharp,
)
from descriptorsim import engine
from descriptorsim.operators import haar_random_unitary, qudit_shift_clock
import conftest
from conftest import algebra_residual, dense_distance, locality_residual, random_network
from reference import cumulative_evolve, cumulative_unitary

ONE_QUBIT = SpaceLayout((("Q1", 2),))
TWO_QUBITS = SpaceLayout((("Q1", 2), ("Q2", 2)))
THREE_QUBITS = SpaceLayout((("Q1", 2), ("Q2", 2), ("Q3", 2)))
QUBIT_AND_RECORD = SpaceLayout((("Q1", 2), ("SC", 4)))
MIXED = SpaceLayout((("Q1", 2), ("Q2", 2), ("Q3", 2), ("SC", 4)))
PAULI_X, PAULI_Z = qudit_shift_clock(2)


def embedded(net, app):
    """The gate's embedded matrix, in Weyl terms."""
    return Operator.from_matrix(net.layout, net.embedded(app))


def single(layout, app):
    """The network of one slice holding ``app``."""
    return Network(layout, [[app]])


def evolved(layout, *apps):
    """Final descriptors of the network of ``apps``, one slice each."""
    return NetworkEvolution(Network(layout, [[app] for app in apps])).run().descriptors


class TestInitialDescriptors:
    def test_single_qubit_pair(self):
        d = initial_descriptors(ONE_QUBIT)["Q1"]
        assert np.array_equal(d[0].matrix, PAULI_X)
        assert np.array_equal(d[1].matrix, PAULI_Z)

    def test_two_qubit_ordering(self):
        d = initial_descriptors(TWO_QUBITS)["Q2"]
        assert np.array_equal(d[0].matrix, np.kron(np.eye(2), PAULI_X))
        assert np.array_equal(d[1].matrix, np.kron(np.eye(2), PAULI_Z))

    def test_components_anticommute_exactly(self):
        d = initial_descriptors(TWO_QUBITS)["Q1"]
        x, z = (c.matrix for c in d)
        assert np.array_equal(x @ z, -(z @ x))

    def test_qudit_embedded_patterns(self):
        d = initial_descriptors(QUBIT_AND_RECORD)["SC"]
        shift, clock = qudit_shift_clock(4)
        assert np.allclose(d[0].matrix, np.kron(np.eye(2), shift))
        assert np.allclose(d[1].matrix, np.kron(np.eye(2), clock))

    def test_mixed_layout_pairs_are_exact(self):
        descs = initial_descriptors(QUBIT_AND_RECORD)
        eye2, eye4 = np.eye(2), np.eye(4)
        shift = np.roll(eye4, 1, axis=0)
        clock = np.diag([1, 1j, -1, -1j])
        expected = {
            "Q1": (np.kron(PAULI_X, eye4), np.kron(PAULI_Z, eye4)),
            "SC": (np.kron(eye2, shift), np.kron(eye2, clock)),
        }
        for sid, pair in expected.items():
            for got, want in zip(descs[sid], pair):
                assert np.array_equal(got.matrix, want)

    def test_computational_observable_is_clock_polynomial(self):
        # solve diag(0..3) = sum_k c_k clock^k and check the reconstruction
        _, clock = qudit_shift_clock(4)
        vander = np.array([[clock[j, j] ** k for k in range(4)] for j in range(4)])
        coeffs = np.linalg.solve(vander, np.arange(4.0))
        rebuilt = sum(
            coeffs[k] * np.linalg.matrix_power(clock, k) for k in range(4)
        )
        assert np.allclose(rebuilt, np.diag([0, 1, 2, 3]), atol=1e-12)

    def test_dim_two_qudit_matches_qubit(self):
        pair = initial_descriptors(TWO_QUBITS)["Q1"]
        for got, pauli in zip(pair, ([[0, 1], [1, 0]], np.diag([1, -1]))):
            assert np.array_equal(got.matrix, np.kron(pauli, np.eye(2)))


class TestFunctionalForm:
    def fresh(self, layout):
        return initial_descriptors(layout)

    def test_hadamard_defining_equation(self):
        app = GateApplication(Hadamard(), ("Q1",))
        net = single(ONE_QUBIT, app)
        u = functional_form(app, self.fresh(ONE_QUBIT))
        assert u.isclose(embedded(net, app), 1e-15)
        x, z = (c.matrix for c in initial_descriptors(ONE_QUBIT)["Q1"])
        assert np.allclose(u.matrix, (x + z) / np.sqrt(2))

    def test_rotation_zero_angle_is_identity(self):
        app = GateApplication(RotationY(0.0), ("Q1",))
        u = functional_form(app, self.fresh(ONE_QUBIT))
        assert np.allclose(u.matrix, np.eye(2))

    @pytest.mark.parametrize("seed", range(6))
    def test_rotation_defining_equation_random_angles(self, seed):
        theta = float(np.random.default_rng(seed).uniform(-2 * np.pi, 2 * np.pi))
        app = GateApplication(RotationY(theta), ("Q1",))
        net = single(ONE_QUBIT, app)
        u = functional_form(app, self.fresh(ONE_QUBIT))
        assert u.isclose(embedded(net, app), 1e-12)

    def test_cnot_defining_equation_and_action(self):
        app = GateApplication(Controlled(Plus(1)), ("Q1", "Q2"))
        net = single(TWO_QUBITS, app)
        descs = self.fresh(TWO_QUBITS)
        u = functional_form(app, descs)
        assert u.isclose(embedded(net, app), 1e-14)
        # explicit conjugation moves control x onto the target
        q1x = descs["Q1"][0]
        moved = u.H @ q1x @ u
        q2x = descs["Q2"][0]
        assert moved.isclose(q1x @ q2x, 1e-13)

    def test_controlled_plus_defining_equation(self):
        app = GateApplication(Controlled(Plus(2)), ("Q1", "SC"))
        net = single(QUBIT_AND_RECORD, app)
        u = functional_form(app, self.fresh(QUBIT_AND_RECORD))
        assert u.isclose(embedded(net, app), 1e-14)

    def test_plus_defining_equation(self):
        app = GateApplication(Plus(3), ("SC",))
        net = single(QUBIT_AND_RECORD, app)
        u = functional_form(app, self.fresh(QUBIT_AND_RECORD))
        assert u.isclose(embedded(net, app), 1e-14)

    @pytest.mark.parametrize(
        "sids",
        [("Q1",), ("Q1", "Q2"), ("Q1", "SC"), ("SC", "Q1"), ("Q3", "Q1", "Q2")],
        ids=["2", "2x2", "2x4", "4x2", "2x2x2"],
    )
    def test_custom_gate_at_time_zero(self, rng, sids):
        dim = int(np.prod([MIXED.dim_of(sid) for sid in sids]))
        gate = CustomGate(haar_random_unitary(dim, rng), "scramble")
        app = GateApplication(gate, sids)
        net = single(MIXED, app)
        u = functional_form(app, self.fresh(MIXED))
        assert u.isclose(embedded(net, app), 1e-13)

    def test_custom_gate_later_is_the_conjugated_gate(self, rng):
        # the expansion on time-t descriptors is U(t)^dag G U(t)
        mix = CustomGate(haar_random_unitary(8, rng), "mix")
        net = Network(MIXED, [
            [GateApplication(Hadamard(), ("Q1",))],
            [GateApplication(Controlled(Plus(1)), ("Q1", "Q2"))],
            [GateApplication(Controlled(Plus(1)), ("Q2", "SC"))],
            [GateApplication(mix, ("SC", "Q1"))],
        ])
        (app,) = net.slices[3]
        descs = NetworkEvolution(net).run_to(3).descriptors
        u = cumulative_unitary(net.upto(3))
        want = Operator.from_matrix(MIXED, u.conj().T @ net.embedded(app) @ u)
        assert functional_form(app, descs).isclose(want, 1e-12)

    @pytest.mark.parametrize(
        "gate, sids, terms",
        [
            (Hadamard(), ("Q1",), 2),
            (RotationY(0.7), ("Q1",), 2),
            (RotationY(0.0), ("Q1",), 1),
            (Controlled(Plus(1)), ("Q1", "Q2"), 4),
            (Plus(3), ("SC",), 1),
            (Plus(4), ("SC",), 1),
            (Controlled(Plus(2)), ("Q1", "SC"), 4),
            (Controlled(Plus(0)), ("Q1", "SC"), 1),
        ],
        ids=repr,
    )
    def test_fixed_gates_expand_exactly(self, gate, sids, terms):
        # H, Ry, the controlled-not, Plus and controlled Plus take their textbook
        # expansions, with no roundoff-scale terms beside them
        app = GateApplication(gate, sids)
        dims = tuple(MIXED.dim_of(sid) for sid in sids)
        (expansion,) = engine._weyl_terms(gate, dims)
        coeffs = expansion.coefficients.tolist()
        assert len(coeffs) == terms
        assert {abs(c) for c in coeffs} <= {
            0.5, 1.0, 1 / np.sqrt(2), abs(np.cos(0.35)), abs(np.sin(0.35))
        }
        u = functional_form(app, self.fresh(MIXED))
        assert u.isclose(embedded(single(MIXED, app), app), 1e-15)

    @pytest.mark.parametrize(
        "gate, dims, images",
        [
            (Hadamard(), (2,), [((0, 1),), ((0, 0),)]),
            (
                Controlled(Plus(1)),
                (2, 2),
                [((0, 0), (1, 0)), ((0, 1),), ((1, 0),), ((0, 1), (1, 1))],
            ),
        ],
        ids=["H", "controlled-not"],
    )
    def test_fixed_gates_map_generators_to_monomials(self, gate, dims, images):
        # the images G^dag g G, shift then clock per position: H swaps x and
        # z; the controlled-not sends x_c to x_c x_t and z_t to z_c z_t and
        # fixes z_c and x_t; each is one monomial of modulus 1, with no
        # roundoff-scale terms beside it
        got = engine._weyl_terms(gate, dims, images=True)
        m = len(dims)  # factor (i, j) raises column i of the shifts (j = 0) or of the clocks (j = 1)
        rows = [[[sum(i + j * m == col for i, j in f) for col in range(2 * m)]] for f in images]
        assert [terms.exponents.tolist() for terms in got] == rows
        assert all(abs(abs(c) - 1) < 1e-15 for terms in got for c in terms.coefficients)


class TestStepEvolve:
    def test_hadamard_swaps_components(self):
        descs = initial_descriptors(TWO_QUBITS)
        out = evolved(TWO_QUBITS, GateApplication(Hadamard(), ("Q1",)))
        assert out["Q1"][0].isclose(descs["Q1"][1], 1e-14)
        assert out["Q1"][1].isclose(descs["Q1"][0], 1e-14)

    def test_cnot_after_hadamard_matches_wire_labels(self):
        descs = evolved(
            TWO_QUBITS,
            GateApplication(Hadamard(), ("Q1",)),
            GateApplication(Controlled(Plus(1)), ("Q1", "Q2")),
        )
        generators = initial_descriptors(TWO_QUBITS)
        q1x0, q1z0 = generators["Q1"]
        q2x0, q2z0 = generators["Q2"]
        assert descs["Q1"][0].isclose(q1z0 @ q2x0, 1e-13)
        assert descs["Q1"][1].isclose(q1x0, 1e-13)
        assert descs["Q2"][0].isclose(q2x0, 1e-13)
        assert descs["Q2"][1].isclose(q2z0 @ q1x0, 1e-13)

    @pytest.mark.parametrize("seed", range(20))
    def test_rotation_mixes_components(self, seed):
        theta = float(np.random.default_rng(seed + 100).uniform(-np.pi, np.pi))
        descs = initial_descriptors(TWO_QUBITS)
        out = evolved(TWO_QUBITS, GateApplication(RotationY(theta), ("Q1",)))
        qx, qz = descs["Q1"]
        c, s = math.cos(theta), math.sin(theta)
        assert out["Q1"][0].isclose(c * qx + s * qz, 1e-12)
        assert out["Q1"][1].isclose(-s * qx + c * qz, 1e-12)

    def test_identity_slice_leaves_descriptors_exactly(self):
        # Ry(0), Plus(0) and Controlled(Plus(4)) on a 4-level record expand to
        # the one term 1 * I; conjugating by it copies every term exactly
        layout = SpaceLayout((("Q1", 2), ("Q2", 2), ("SC", 4), ("SD", 4)))
        scramble = CustomGate(haar_random_unitary(8, np.random.default_rng(5)))
        net = Network(layout, [
            [GateApplication(Hadamard(), ("Q1",))],
            [GateApplication(scramble, ("Q1", "SC"))],
            [GateApplication(Controlled(Plus(1)), ("Q1", "Q2"))],
            [GateApplication(Controlled(Plus(1)), ("Q2", "SD"))],
            [
                GateApplication(RotationY(0.0), ("Q1",)),
                GateApplication(Controlled(Plus(4)), ("Q2", "SC")),
                GateApplication(Plus(0), ("SD",)),
            ],
        ])
        evo = NetworkEvolution(net).run_to(4)
        before = evo.descriptors
        after = evo.run().descriptors
        for sid, desc in before.items():
            for b, a in zip(desc, after[sid], strict=True):
                assert np.array_equal(a.exponents, b.exponents)
                assert np.array_equal(a.coefficients, b.coefficients)

    @pytest.mark.parametrize("qubits", [6, 7])
    def test_six_and_seven_qubit_gates_evolve_to_their_dense_images(self, qubits):
        # a Haar gate on n qubits has 4^n Weyl terms, whose term-pair images
        # once needed 2 GiB of pair arrays at n = 6; dense conjugation needs
        # a few dense 2^n x 2^n copies per generator
        layout = SpaceLayout(tuple((f"q{i}", 2) for i in range(qubits)))
        u = haar_random_unitary(2**qubits, np.random.default_rng(qubits))
        evo = NetworkEvolution(Network(layout, [[GateApplication(CustomGate(u), layout.ids)]]))
        evo.advance()
        initial = initial_descriptors(layout)
        for sid in ("q0", f"q{qubits - 1}"):  # the outermost and innermost digit of U's rows
            for image, g in zip(evo.descriptors[sid], initial[sid], strict=True):
                assert np.abs(image.matrix - u.conj().T @ g.matrix @ u).max() < 1e-12

    def test_gate_whose_image_products_cannot_fit_is_refused_before_allocating(self, monkeypatch):
        # one generator's images of a 9-qubit gate take 8 dense 512 x 512
        # complex copies (32 MiB): under a 16 MiB budget the gate is refused
        # before the first copy (4 MiB) is made
        layout = SpaceLayout(tuple((f"q{i}", 2) for i in range(9)))
        gate = CustomGate(haar_random_unitary(512, np.random.default_rng(9)))
        evo = NetworkEvolution(Network(layout, [[GateApplication(gate, layout.ids)]]))
        monkeypatch.setattr(engine, "DESCRIPTOR_BUDGET_BYTES", 16 * 2**20)
        tracemalloc.start()
        try:
            with pytest.raises(LayoutError, match="a generator's images need 0.0312 GiB"):
                evo.advance()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 512 * 16

    def test_non_acted_descriptor_passed_through_unchanged(self):
        descs = initial_descriptors(TWO_QUBITS)
        out = evolved(TWO_QUBITS, GateApplication(Hadamard(), ("Q1",)))
        for a, b in zip(out["Q2"], descs["Q2"]):
            assert np.array_equal(a.matrix, b.matrix)


class TestCumulativeEvolve:
    def test_time_zero_is_initial(self):
        net = single(TWO_QUBITS, GateApplication(Hadamard(), ("Q1",)))
        out = cumulative_evolve(net.upto(0))
        init = initial_descriptors(TWO_QUBITS)
        for sid in TWO_QUBITS.ids:
            assert dense_distance(init[sid], out[sid]) < 1e-15

    def test_out_of_range(self):
        net = single(TWO_QUBITS, GateApplication(Hadamard(), ("Q1",)))
        with pytest.raises(NetworkError, match=r"time 2 outside network range 0\.\.1"):
            net.upto(2)
        with pytest.raises(NetworkError, match=r"time 1\.5 is not an integer"):
            net.upto(1.5)

    def test_bell_alice_z_component_shape(self):
        theta, phi = 0.37, -1.1
        network = build_bell_network(BellConfig(theta, phi))
        layout = network.layout
        out = cumulative_evolve(network.upto(4))
        generators = initial_descriptors(layout)
        q1x, q1z = generators["Q1"]
        q2x = generators["Q2"][0]
        qax, qaz = generators["QA"]
        expected_z = qaz @ (
            (-math.sin(theta)) * (q1z @ q2x) + math.cos(theta) * q1x
        )
        assert dense_distance((qax, expected_z), out["QA"]) < 1e-12

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_step_engine_on_random_networks(self, seed):
        net = random_network(np.random.default_rng(seed))
        evo = NetworkEvolution(net).run()
        cum = cumulative_evolve(net)
        worst = max(dense_distance(evo.descriptors[sid], cum[sid]) for sid in net.layout.ids)
        assert worst < 1e-9

    def test_step_engine_handles_custom_gates_via_frame(self, rng):
        mix = CustomGate(haar_random_unitary(4, rng), "mix")
        turn = CustomGate(haar_random_unitary(2, rng), "turn")
        cx = Controlled(Plus(1))
        shapes = [
            [[(Hadamard(), ("Q1",))], [(mix, ("Q1", "Q2"))], [(RotationY(0.7), ("Q2",))]],
            # the custom gate follows another gate of its own slice (time 2)
            [
                [(Hadamard(), ("Q1",))], [(cx, ("Q1", "Q2"))],
                [(RotationY(0.4), ("Q3",)), (mix, ("Q1", "Q2"))], [(cx, ("Q2", "Q3"))],
            ],
            # two custom gates at different times
            [
                [(Hadamard(), ("Q1",))], [(mix, ("Q1", "Q2"))], [(cx, ("Q2", "Q3"))],
                [(turn, ("Q3",))], [(Hadamard(), ("Q2",))],
            ],
        ]
        for slices in shapes:
            net = Network(
                THREE_QUBITS,
                [[GateApplication(g, sids) for g, sids in sl] for sl in slices],
            )
            evo = NetworkEvolution(net).run()
            cum = cumulative_evolve(net)
            for sid in THREE_QUBITS.ids:
                assert dense_distance(evo.descriptors[sid], cum[sid]) < 1e-11
            assert locality_residual(net) < 1e-12


class TestSharpness:
    def test_initial_z_sharp_plus_one(self):
        z = initial_descriptors(TWO_QUBITS)["Q1"][1]
        assert is_sharp(z) == (True, 1.0)

    def test_identity_sharp_value_one(self):
        from descriptorsim import Operator

        assert is_sharp(Operator.identity(TWO_QUBITS)) == (True, 1.0)

    def test_entangled_alice_not_sharp(self):
        network = build_bell_network(BellConfig(0.2, 0.9))
        evo = NetworkEvolution(network).run_to(4)
        qz = evo.descriptors["QA"][1]
        sharp, value = is_sharp(qz)
        assert not sharp and value is None
        assert abs(qz.expectation()) < 1e-12
        assert abs(complex(qz.matrix[0, :] @ qz.matrix[:, 0]) - 1) < 1e-12

    def test_non_hermitian_rejected(self):
        shift = initial_descriptors(QUBIT_AND_RECORD)["SC"][0]
        with pytest.raises(AlgebraError):
            is_sharp(shift)


class TestInvariants:
    def test_algebra_preserved_along_bell_network(self):
        network = build_bell_network(BellConfig(0.5, -0.3))
        evo = NetworkEvolution(network)
        for _ in network.slices:
            evo.advance()
            assert algebra_residual(evo.descriptors) < 1e-11

    def test_locality_residual_small_on_random_networks(self, rng):
        for _ in range(5):
            assert locality_residual(random_network(rng)) < 1e-12

    def test_locality_residual_on_bell_network(self):
        network = build_bell_network(BellConfig(0.4, 1.2))
        assert locality_residual(network) < 1e-12

    def test_locality_residual_builds_each_form_once(self, monkeypatch):
        # locality_residual builds each gate's form once, from the
        # descriptors before its slice
        calls = []
        form = conftest.functional_form

        def counting_form(app, descriptors):
            calls.append(app)
            return form(app, descriptors)

        monkeypatch.setattr(conftest, "functional_form", counting_form)
        network = build_bell_network(BellConfig(0.4, 1.2, Decohered(3)))
        assert locality_residual(network) < 1e-12
        assert len(calls) == sum(map(len, network.slices)) == 10

    def test_evolution_rewind_rejected(self):
        net = single(TWO_QUBITS, GateApplication(Hadamard(), ("Q1",)))
        evo = NetworkEvolution(net).run()
        with pytest.raises(EngineError):
            evo.run_to(0)

    def test_non_integer_time_rejected(self):
        # 1.5 is not rounded up to the next slice
        net = Network(TWO_QUBITS, [[GateApplication(Hadamard(), ("Q1",))]] * 2)
        evo = NetworkEvolution(net)
        with pytest.raises(EngineError, match=r"time 1\.5 is not an integer"):
            evo.run_to(1.5)
        assert evo.time == 0