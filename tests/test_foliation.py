import math

import numpy as np
import pytest

from descriptorsim import (
    BellConfig,
    Chained,
    Controlled,
    Decohered,
    FoliationError,
    GateApplication,
    Hadamard,
    NetworkEvolution,
    Network,
    Plus,
    RotationY,
    SpaceLayout,
    build_bell_network,
    foliate,
    foliate_along,
    functional_form,
    initial_descriptors,
    joint_outcome_distribution,
)
from descriptorsim.foliation import Branch, Foliation
from descriptorsim.operators import Operator


def bell_evolution(theta=0.0, phi=math.pi / 4):
    network = build_bell_network(BellConfig(theta, phi))
    return network, NetworkEvolution(network)


class TestFoliate:
    def test_alice_measurement_splits_half_half(self):
        network, evo = bell_evolution(0.3, 1.1)
        evo.run_to(3)
        alice = evo.descriptors["QA"]
        control = evo.descriptors["Q1"][1]  # z of Particle 1
        gate_poly = alice[0]  # conditioned not = x component
        fol = foliate(alice, control, gate_poly)
        measures = fol.measures()
        assert measures["0"] == pytest.approx(0.5, abs=1e-12)
        assert measures["1"] == pytest.approx(0.5, abs=1e-12)
        # each instance indicates a definite z outcome: P(+-1) (qx, +-qz)
        plus, minus = fol.branches
        qx, qz = alice
        for branch, sign in ((plus, 1), (minus, -1)):
            rel = fol.relative_components(branch)
            assert rel[0].isclose(branch.projector @ qx, 1e-12)
            assert rel[1].isclose(branch.projector @ (sign * qz), 1e-12)

    def test_sharp_control_gives_degenerate_measures(self):
        layout = SpaceLayout((("Q1", 2), ("Q2", 2)))
        from descriptorsim import initial_descriptors

        descs = initial_descriptors(layout)
        control = descs["Q1"][1]  # sharp, value +1
        fol = foliate(descs["Q2"], control, descs["Q2"][0])
        assert fol.measures() == pytest.approx({"0": 1.0, "1": 0.0}, abs=1e-14)

    def test_branch_sum_reconstructs_step_evolution(self):
        network, evo = bell_evolution(0.9, -0.4)
        evo.run_to(4)
        record = evo.descriptors["SC"]
        control = evo.descriptors["QA"][1]
        gate_poly = record[0].matpow(2)
        fol = foliate(record, control, gate_poly)
        evo.run_to(5)
        evolved = evo.descriptors["SC"]
        for got, want in zip(fol.branch_sum(), evolved):
            assert got.isclose(want, 1e-12)

    def test_nested_foliation_reconstructs_final_record(self):
        network, evo = bell_evolution(0.25, 0.8)
        evo.run_to(4)
        record = evo.descriptors["SC"]
        fol = foliate(record, evo.descriptors["QA"][1], record[0].matpow(2))
        evo.run_to(5)
        fol = fol.refine(evo.descriptors["QB"][1], record[0])
        assert len(fol.branches) == 4
        assert [b.key for b in fol.branches] == ["00", "01", "10", "11"]
        evo.run_to(6)
        for got, want in zip(fol.branch_sum(), evo.descriptors["SC"]):
            assert got.isclose(want, 1e-12)
        assert sum(fol.measures().values()) == pytest.approx(1.0, abs=1e-12)

    def test_refine_rejects_non_unitary_polynomial(self):
        # refine checks its interaction exactly as foliate does
        network, evo = bell_evolution(0.25, 0.8)
        evo.run_to(4)
        record = evo.descriptors["SC"]
        fol = foliate(record, evo.descriptors["QA"][1], record[0].matpow(2))
        evo.run_to(5)
        with pytest.raises(FoliationError, match="not unitary"):
            fol.refine(evo.descriptors["QB"][1], record[0] * 3)

    def test_follow_up_autonomy(self):
        # a later local unitary evolves each branch independently, and the
        # branchwise sum equals the directly evolved descriptor
        network, evo = bell_evolution(0.3, 1.1)
        evo.run_to(3)
        alice = evo.descriptors["QA"]
        control = evo.descriptors["Q1"][1]
        fol = foliate(alice, control, alice[0])

        angle = 1.234
        follow = GateApplication(RotationY(angle), ("QA",))
        gate_poly_base = functional_form(
            follow, {"QA": alice}
        )  # expressed in base components

        fol = fol.evolve_branches(gate_poly_base)

        extended = Network(network.layout, network.slices[:4] + ((follow,),))
        direct = NetworkEvolution(extended).run_to(5).descriptors["QA"]
        for got, want in zip(fol.branch_sum(), direct):
            assert got.isclose(want, 1e-9)

    def test_non_commuting_control_rejected(self):
        layout = SpaceLayout((("Q1", 2), ("Q2", 2)))
        from descriptorsim import initial_descriptors

        descs = initial_descriptors(layout)
        control = descs["Q2"][0]
        with pytest.raises(FoliationError):
            foliate(descs["Q2"], control, descs["Q2"][0])

    def test_non_involutive_control_rejected(self):
        layout = SpaceLayout((("Q1", 2), ("Q2", 2)))
        from descriptorsim import initial_descriptors

        descs = initial_descriptors(layout)
        control = Operator.from_matrix(layout, np.diag([1, 2, 3, 4.0]))
        with pytest.raises(FoliationError):
            foliate(descs["Q2"], control, descs["Q2"][0])


def record_split(evo, *splits):
    """Foliate the record by each (subsystem, time, k) of ``splits`` in
    turn, as run_bell splits it by Alice's and Bob's record gates."""
    fol = None
    for sid, t, k in splits:
        evo.run_to(t)
        record = evo.descriptors["SC"]
        control = evo.descriptors[sid][1]
        gate_poly = record[0].matpow(k)
        fol = (
            foliate(record, control, gate_poly)
            if fol is None
            else fol.refine(control, gate_poly)
        )
    return fol


ALICE_SPLIT = ("QA", 4, 2)
BOB_SPLIT = ("QB", 5, 1)


class TestBranchMeasure:
    def test_single_projector_half(self):
        network, evo = bell_evolution(0.7, 0.1)
        measures = record_split(evo, ALICE_SPLIT).measures()
        assert measures == pytest.approx({"0": 0.5, "1": 0.5}, abs=1e-12)

    def test_joint_projectors_reproduce_closed_form(self):
        theta, phi = 0.0, math.pi / 4
        network, evo = bell_evolution(theta, phi)
        value = record_split(evo, ALICE_SPLIT, BOB_SPLIT).measures()["00"]
        assert value == pytest.approx(0.4267766953, abs=1e-9)
        assert value == pytest.approx(math.cos(math.pi / 8) ** 2 / 2, abs=1e-12)

    def test_empty_product_is_one(self):
        # before any split: one branch, with the empty key and measure 1, and
        # with the identity as projector and conditional, so it is the base itself
        layout = SpaceLayout((("Q1", 2),))
        base = initial_descriptors(layout)["Q1"]
        identity = Operator.identity(layout)
        root = Foliation(base, (Branch("", identity, identity, 1.0),))
        assert root.measures() == {"": 1.0}
        for got, want in zip(root.branch_sum(), base, strict=True):
            assert got.distance(want) == 0.0

    def test_non_idempotent_rejected(self):
        # a refinement checks its control as the first split does
        network, evo = bell_evolution(0.7, 0.1)
        fol = record_split(evo, ALICE_SPLIT)
        control = 2 * Operator.identity(network.layout)
        with pytest.raises(FoliationError):
            fol.refine(control, fol.base[0])

    def test_refine_by_a_control_that_does_not_commute_with_an_earlier_one_raises(self):
        # the three splits of three_copies made by hand, without the walk
        evo = NetworkEvolution(three_copies()).run_to(1)
        base = evo.descriptors["T"]
        poly = functional_form(GateApplication(Plus(1), ("T",)), {"T": base})
        fol = foliate(base, evo.descriptors["A"][1], poly)
        fol = fol.refine(evo.run_to(2).descriptors["B"][1], poly)
        assert len(fol.controls) == 2
        with pytest.raises(FoliationError, match="does not commute with an earlier split's control"):
            fol.refine(evo.run_to(5).descriptors["B"][1], poly)

    def test_non_commuting_rejected(self):
        network, evo = bell_evolution(0.7, 0.1)
        fol = record_split(evo, ALICE_SPLIT)
        # the record's shift squared: an involution that anticommutes with
        # the record's clock
        control = fol.base[0].matpow(2)
        assert control.is_involution()
        with pytest.raises(FoliationError):
            fol.refine(control, fol.base[0])

    def test_measures_within_unit_interval(self):
        network, evo = bell_evolution(1.2, -2.0)
        measures = record_split(evo, ALICE_SPLIT, BOB_SPLIT).measures()
        assert sorted(measures) == ["00", "01", "10", "11"]
        for value in measures.values():
            assert -1e-12 <= value <= 1 + 1e-12


def marginal(network, sid):
    """The oracle's Born probabilities of ``sid``'s z outcome, keyed as
    branch keys are."""
    return {str(bit): p for (bit,), p in joint_outcome_distribution(network, (sid,)).items()}


def three_copies():
    """A and B copy onto T; then A's and B's Hadamards and a copy from A to
    B leave B's clock x_A x_B, which commutes with T's base and with z_A z_B
    but not with A's clock z_A, the first split's control.  Unchecked, the
    third split made measures negative."""
    layout = SpaceLayout((("A", 2), ("B", 2), ("T", 2)))
    copy = Controlled(Plus(1))
    return Network(layout, [
        [GateApplication(Hadamard(), ("A",)), GateApplication(RotationY(0.7), ("B",))],
        [GateApplication(copy, ("A", "T"))],
        [GateApplication(copy, ("B", "T"))],
        [GateApplication(Hadamard(), ("A",)), GateApplication(Hadamard(), ("B",))],
        [GateApplication(copy, ("A", "B"))],
        [GateApplication(copy, ("B", "T"))],
    ])


class TestFoliateAlong:
    def test_environment_splits_by_particle_one(self):
        network = build_bell_network(BellConfig(0.3, 0.9, Decohered(3)))
        (t,) = (t for t, sl in enumerate(network.slices) for app in sl
                if app.subsystems == ("Q1", "QE"))
        fol = foliate_along(NetworkEvolution(network), "QE")
        assert fol.measures() == pytest.approx(marginal(network.upto(t), "Q1"), abs=1e-12)

    def test_chain_link_splits_until_it_controls_the_record(self):
        network = build_bell_network(BellConfig(0.3, 0.9, Chained(2, 2)))
        (t,) = (t for t, sl in enumerate(network.slices) for app in sl
                if app.subsystems == ("QA2", "SC"))
        cut = network.upto(t)
        evo = NetworkEvolution(cut)
        fol = foliate_along(evo, "QA2")
        assert fol.measures() == pytest.approx(marginal(cut, "QA2"), abs=1e-12)
        for got, want in zip(fol.branch_sum(), evo.descriptors["QA2"], strict=True):
            assert got.distance(want) < 1e-12
        # on the whole network the link goes on to control the record
        with pytest.raises(FoliationError, match=rf"Controlled.* on \('QA2', 'SC'\) at time {t} "):
            foliate_along(NetworkEvolution(network), "QA2")

    def test_no_controlled_gate_onto_the_target_raises(self):
        # Q1 takes a Hadamard and controls two gates, but no gate controls it
        network, evo = bell_evolution()
        with pytest.raises(FoliationError, match="no controlled gate onto 'Q1'"):
            foliate_along(evo, "Q1")

    def test_later_gate_on_the_target_evolves_every_branch(self):
        # acceptance criterion 08's network: Alice's copy, then Ry on QA
        network = build_bell_network(BellConfig(0.6, -0.9))
        angle = float(np.random.default_rng(8).uniform(-math.pi, math.pi))
        follow = GateApplication(RotationY(angle), ("QA",))
        extended = Network(network.layout, network.slices[:4] + ((follow,),))
        fol = foliate_along(NetworkEvolution(extended), "QA")
        assert len(fol.branches) == 2
        direct = NetworkEvolution(extended).run().descriptors["QA"]
        for got, want in zip(fol.branch_sum(), direct, strict=True):
            assert got.isclose(want, 1e-9)

    def test_split_by_a_control_that_does_not_commute_with_an_earlier_one_raises(self):
        network = three_copies()
        with pytest.raises(FoliationError, match=r"\('B', 'T'\) at time 5 splits by a control"):
            foliate_along(NetworkEvolution(network), "T")
        # cut before the third split, the two commuting splits stand
        fol = foliate_along(NetworkEvolution(network.upto(5)), "T")
        assert all(value > 0 for value in fol.measures().values())

    @pytest.mark.parametrize("theta, phi", [(0.0, math.pi / 4), (1.2, -2.0), (0.25, 0.8)])
    def test_record_walk_equals_the_hand_placed_splits(self, theta, phi):
        # record_split builds its polynomials with matpow, not functional_form
        want = record_split(bell_evolution(theta, phi)[1], ALICE_SPLIT, BOB_SPLIT).measures()
        got = foliate_along(bell_evolution(theta, phi)[1], "SC").measures()
        assert list(got) == list(want)
        assert got == pytest.approx(want, abs=1e-12)
