import math
import tracemalloc

import numpy as np
import pytest

from descriptorsim import (
    BellConfig,
    Chained,
    Controlled,
    CustomGate,
    Decohered,
    LayoutError,
    NetworkError,
    NetworkEvolution,
    Plain,
    Plus,
    RotationY,
    WignerUndo,
    build_bell_network,
    closed_form_measures,
    initial_descriptors,
    joint_outcome_distribution,
    nonisomorphism_witness,
    run_bell,
    run_wigner_undo,
)
from descriptorsim import bell
from descriptorsim.operators import Operator

COS8 = math.cos(math.pi / 8) ** 2 / 2  # 0.4267766952966369
SIN8 = math.sin(math.pi / 8) ** 2 / 2  # 0.0732233047033631


def timed(network):
    """Every gate application with its time, the position of its slice."""
    return [(t, app) for t, sl in enumerate(network.slices) for app in sl]


def kind(gate) -> str:
    """A gate's class name; a controlled gate's repr, which names its inner gate."""
    return repr(gate) if isinstance(gate, Controlled) else type(gate).__name__


# the controlled-not, which also records Bob's outcome, and Alice's record gate
CX, CP2 = repr(Controlled(Plus(1))), repr(Controlled(Plus(2)))


def assert_measures(outcome, expected, tol=1e-9):
    for key, want in expected.items():
        assert outcome.branch_measures[key] == pytest.approx(want, abs=tol), key


class TestPlainNetwork:
    def test_structure_and_timing(self):
        net = build_bell_network(BellConfig(0.1, 0.2))
        assert len(net.slices) == 6
        kinds = [kind(app.gate) for _, app in timed(net)]
        assert kinds == ["Hadamard", CX, "RotationY", "RotationY", CX, CX, CP2, CX]
        # Alice's record interaction strictly precedes Bob's
        (alice,), (bob,) = net.slices[-2:]
        assert alice.subsystems == ("QA", "SC")
        assert bob.subsystems == ("QB", "SC")

    def test_table_row_zero_zero(self):
        out = run_bell(BellConfig(0.0, math.pi / 4))
        assert_measures(out, {"00": COS8, "01": SIN8, "10": SIN8, "11": COS8})
        assert_measures(
            out, {"00": 0.4267766953, "01": 0.0732233047}, tol=1e-9
        )

    def test_equal_angles_are_perfectly_correlated(self):
        out = run_bell(BellConfig(0.77, 0.77))
        assert_measures(out, {"00": 0.5, "01": 0.0, "10": 0.0, "11": 0.5})

    def test_table_row_one_one(self):
        out = run_bell(BellConfig(math.pi / 2, -math.pi / 4))
        assert_measures(out, {"00": SIN8, "01": COS8, "10": COS8, "11": SIN8})

    @pytest.mark.parametrize("theta,phi", [(0.3, -1.2), (2.5, 0.4), (-0.8, -0.8)])
    def test_closed_form_and_oracle_agree(self, theta, phi):
        cfg = BellConfig(theta, phi)
        out = run_bell(cfg)
        assert_measures(out, closed_form_measures(theta, phi))
        dist = joint_outcome_distribution(build_bell_network(cfg), ("SC",))
        for value, prob in dist.items():
            key = format(value[0], "02b")
            assert out.branch_measures[key] == pytest.approx(prob, abs=1e-9)

    def test_marginals_and_diagnostics(self):
        out = run_bell(BellConfig(1.0, 0.25))
        assert out.alice_marginal == pytest.approx((0.5, 0.5), abs=1e-12)
        assert out.bob_marginal == pytest.approx((0.5, 0.5), abs=1e-12)
        assert out.reconstruction_residual < 1e-12
        assert out.alice_sharpness == {"x": False, "z": False, "y": False}
        assert sum(out.branch_measures.values()) == pytest.approx(1.0, abs=1e-12)

    def test_each_control_checked_once(self, monkeypatch):
        # Alice's and Bob's controls are checked by their splits alone; the
        # projectors and the marginals reuse those checks
        checked = []
        is_involution = Operator.is_involution

        def counting_is_involution(self, *args, **kwargs):
            checked.append(self)
            return is_involution(self, *args, **kwargs)

        monkeypatch.setattr(Operator, "is_involution", counting_is_involution)
        run_bell(BellConfig(0.3, 1.1))
        assert len(checked) == 2

    def test_outcome_carries_its_network(self):
        out = run_bell(BellConfig(0.3, 1.1, Decohered(4)))
        dist = joint_outcome_distribution(out.network, ("SC",))
        for value, prob in dist.items():
            key = format(value[0], "02b")
            assert out.branch_measures[key] == pytest.approx(prob, abs=1e-9)
        # the network is bookkeeping: out of the repr and of equality
        assert "network" not in repr(out)
        other = run_bell(BellConfig(0.3, 1.1, Decohered(4)))
        assert other.network is not out.network and other == out

    def test_infinite_angle_rejected(self):
        with pytest.raises(ValueError):
            BellConfig(math.inf, 0.0)
        # an int a float cannot hold is rejected, not an OverflowError
        with pytest.raises(ValueError, match="theta is too large for a float"):
            BellConfig(10**400, 0.0)
        with pytest.raises(ValueError, match="phi is too large for a float"):
            BellConfig(0.0, -(10**400))
        # an angle is a real number, not a string parsed later
        with pytest.raises(ValueError, match="theta '0.3' is not a real number"):
            BellConfig("0.3", 0)


class TestDecoherence:
    def test_measures_match_plain(self):
        plain = run_bell(BellConfig(0.0, math.pi / 4))
        dec = run_bell(BellConfig(0.0, math.pi / 4, Decohered(seed=0)))
        assert_measures(dec, plain.branch_measures)

    def test_fresh_environment_wire_label(self):
        # before scrambling, the environment copy gives q1x(3) * qEx
        cfg = BellConfig(0.6, -0.2, Decohered(seed=None))
        network = build_bell_network(cfg)
        evo = NetworkEvolution(network).run_to(3)
        q1x_3 = evo.descriptors["Q1"][0]
        evo.run_to(4)
        qex = initial_descriptors(network.layout)["QE"][0]
        assert evo.descriptors["Q1"][0].isclose(q1x_3 @ qex, 1e-12)
        assert evo.descriptors["Q1"][1].isclose(
            NetworkEvolution(network).run_to(3).descriptors["Q1"][1],
            1e-12,
        )

    def test_seeds_leave_measures_invariant(self):
        plain = run_bell(BellConfig(0.9, 0.2)).branch_measures
        for seed in (1, 7, 42):
            dec = run_bell(BellConfig(0.9, 0.2, Decohered(seed)))
            for key in plain:
                assert dec.branch_measures[key] == pytest.approx(
                    plain[key], abs=1e-9
                )

    def test_decoherence_diagnostics(self):
        dec = run_bell(BellConfig(0.4, 1.0, Decohered(3)))
        assert dec.diagnostics["q1_x_expectation"] < 1e-9
        assert dec.diagnostics["q1_offdiagonal"] < 1e-9

    def test_one_evolution_pass(self, monkeypatch):
        # the environment diagnostic, both foliations and the final record
        # are all read from a single pass over the network
        times = []
        advance = NetworkEvolution.advance

        def counting_advance(self):
            times.append(self.time)
            advance(self)

        monkeypatch.setattr(NetworkEvolution, "advance", counting_advance)
        cfg = BellConfig(0.4, 1.0, Decohered(3))
        run_bell(cfg)
        assert times == list(range(len(build_bell_network(cfg).slices)))

    def test_bad_seed_rejected(self):
        # a seed is a non-negative integer, checked before any gate is built
        with pytest.raises(ValueError, match="seed 1.5 is not an integer"):
            Decohered(1.5)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            Decohered(-1)

    def test_scramble_is_seed_deterministic(self):
        a = build_bell_network(BellConfig(0.1, 0.2, Decohered(5)))
        b = build_bell_network(BellConfig(0.1, 0.2, Decohered(5)))
        ga, gb = a.slices[0][0].gate, b.slices[0][0].gate
        assert isinstance(ga, CustomGate) and isinstance(gb, CustomGate)
        assert np.array_equal(ga.unitary, gb.unitary)


class TestChain:
    def test_zero_length_chain_matches_plain(self):
        plain = run_bell(BellConfig(0.3, 0.8))
        chained = run_bell(BellConfig(0.3, 0.8, Chained(0, 0)))
        assert_measures(chained, plain.branch_measures, tol=1e-12)

    def test_network_retargets_record_gates(self):
        network = build_bell_network(BellConfig(0.0, 0.0, Chained(2, 2)))
        record_gates = [
            app for _, app in timed(network)
            if isinstance(app.gate, Controlled) and app.subsystems[1:] == ("SC",)
        ]
        assert record_gates[0].subsystems == ("QA2", "SC")
        assert record_gates[1].subsystems == ("QB2", "SC")
        chain_hops = [
            app.subsystems
            for t, app in timed(network)
            if isinstance(app.gate, Controlled) and t >= 4
        ]
        assert ("QA", "QA1") in chain_hops and ("QA1", "QA2") in chain_hops

    def test_chain_controller_carries_product_of_z_factors(self):
        cfg = BellConfig(0.5, -0.9, Chained(1, 0))
        network = build_bell_network(cfg)
        layout = network.layout
        evo = NetworkEvolution(network).run_to(3)
        q1z_3 = evo.descriptors["Q1"][1]
        # Alice's record gate is controlled by the end of her chain
        (t_record,) = [t for t, app in timed(network) if app.subsystems == ("QA1", "SC")]
        evo.run_to(t_record)
        control = evo.descriptors["QA1"][1]
        generators = initial_descriptors(layout)
        qaz, qa1z = generators["QA"][1], generators["QA1"][1]
        assert control.isclose(qaz @ qa1z @ q1z_3, 1e-12)
        # the extra factors hold reference eigenvalue 1
        assert (qaz @ qa1z).expectation() == pytest.approx(1.0, abs=1e-14)

    def test_small_chains_leave_measures_invariant(self):
        plain = run_bell(BellConfig(0.0, math.pi / 4)).branch_measures
        for lengths in ((1, 1), (2, 0)):
            chained = run_bell(BellConfig(0.0, math.pi / 4, Chained(*lengths)))
            for key in plain:
                assert chained.branch_measures[key] == pytest.approx(
                    plain[key], abs=1e-9
                )

    def test_layout_cap_exceeded(self):
        with pytest.raises(LayoutError):
            build_bell_network(BellConfig(0.0, 0.0, Chained(8, 8)))

    def test_byte_budget_rejects_chain_3_3_without_allocating(self):
        # chain(2, 2), N = 1024, needs 0.28 GiB and is admitted; chain(3, 3),
        # N = 4096, would need 5.5 GiB and is refused by its layout
        assert build_bell_network(BellConfig(0.0, 0.0, Chained(2, 2))).layout.total_dim == 1024
        tracemalloc.start()
        try:
            with pytest.raises(LayoutError, match=r"5\.5 GiB \(2 x 11 subsystems x 4096\^2"):
                build_bell_network(BellConfig(0.0, 0.0, Chained(3, 3)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_long_chain_refused_before_any_link_is_built(self, monkeypatch):
        # a million links: the budget is checked from the subsystem count,
        # before the per-link gates (one controlled-not each) exist
        built = []

        def bounded_controlled(gate):
            built.append(None)
            if len(built) > 300:
                raise RuntimeError("per-link gates built before the budget check")
            return Controlled(gate)

        monkeypatch.setattr(bell, "Controlled", bounded_controlled)
        with pytest.raises(LayoutError, match=r"over 1e\+308 GiB"):
            build_bell_network(BellConfig(0, 0.7, Chained(10**6, 0)))

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            Chained(-1, 0)
        # a length is an integer, checked before any link is built
        for alice, bob in ((1.5, 0), ("1", 0), (0, 2.0), (True, 0)):
            with pytest.raises(ValueError, match="chain length .* is not an integer"):
                Chained(alice, bob)


class TestWignerUndo:
    def test_flipped_pairing_at_theta_zero(self):
        report = run_wigner_undo(0.0, 0.83)
        assert report.conditional_bob_given_alice[(1, 0)] == pytest.approx(
            1.0, abs=1e-9
        )
        assert_measures(
            report.outcome, {"00": 0.0, "01": 0.5, "10": 0.5, "11": 0.0}
        )
        assert report.effective_bob_angle == pytest.approx(math.pi)

    def test_non_finite_rerotation_rejected(self):
        with pytest.raises(NetworkError):
            run_wigner_undo(0.0, 0.5, float("nan"))
        with pytest.raises(NetworkError):
            run_bell(BellConfig(0.0, 0.5, WignerUndo(math.inf)))

    def test_identity_rerotation_restores_plain(self):
        report = run_wigner_undo(0.4, 0.9, rerotation=0.0)
        assert_measures(report.outcome, closed_form_measures(0.4, 0.9), tol=1e-12)

    def test_network_contains_undo_sequence(self):
        network = build_bell_network(BellConfig(0.0, 0.7, WignerUndo()))
        apps = [app for _, app in timed(network)]
        kinds = [(kind(app.gate), app.subsystems) for app in apps]
        assert kinds[6] == (CX, ("Q2", "QB"))  # undo
        assert kinds[7][0] == "RotationY"
        assert kinds[8] == (CX, ("Q2", "QB"))  # re-measure
        rerot = apps[7].gate
        assert isinstance(rerot, RotationY)
        assert rerot.theta == pytest.approx(math.pi - 0.7)

    def test_oracle_agrees(self):
        report = run_wigner_undo(0.3, 0.5)
        network = build_bell_network(report.outcome.config)
        dist = joint_outcome_distribution(network, ("SC",))
        for value, prob in dist.items():
            key = format(value[0], "02b")
            assert report.outcome.branch_measures[key] == pytest.approx(
                prob, abs=1e-9
            )

    def test_undefined_conditional_guard(self):
        # theta=phi keeps Alice/Bob perfectly correlated, and the undo makes
        # them perfectly anticorrelated; conditionals stay defined there, so
        # force a degenerate marginal instead via closed-form check
        report = run_wigner_undo(0.0, 0.4)
        assert all(v is not None for v in report.conditional_bob_given_alice.values())


@pytest.mark.parametrize(
    "variant, angles",
    [
        # at theta = 0, Alice's rotation Ry(0) is exactly I
        pytest.param(variant, angles, id=repr(variant) + suffix)
        for angles, suffix in (((0.3, 0.9), ""), ((0.0, math.pi / 4), "-theta=0"))
        for variant in (
            Plain(), Decohered(3), Decohered(None), Chained(1, 1), Chained(0, 2),
            WignerUndo(),
        )
    ],
)
def test_run_bell_never_multiplies_by_the_identity(variant, angles):
    # the foliation's root branch holds I as projector and conditional, and
    # at theta = 0 the engine conjugates by Ry(0) = I; products with I are
    # exact, so the branches still rebuild the evolved record
    out = run_bell(BellConfig(*angles, variant))
    assert out.reconstruction_residual < 1e-12


H, RY, CU = "Hadamard", "RotationY", "CustomGate"
# every variant's slices 1 and 2: the controlled-not on (Q1, Q2), then both rotations
HEAD = [(1, CX, ("Q1", "Q2")), (2, RY, ("Q1",)), (2, RY, ("Q2",))]


# each variant's layout ids and (time, gate kind, subsystems) list
NETWORKS = {
    Plain(): ("Q1 Q2 QA QB SC", [
        (0, H, ("Q1",)), *HEAD,
        (3, CX, ("Q1", "QA")), (3, CX, ("Q2", "QB")),
        (4, CP2, ("QA", "SC")), (5, CX, ("QB", "SC")),
    ]),
    Decohered(3): ("Q1 Q2 QE QF QA QB SC", [
        (0, CU, ("QE", "QF")), (0, H, ("Q1",)), *HEAD,
        (3, CX, ("Q1", "QE")),
        (4, CX, ("Q1", "QA")), (4, CX, ("Q2", "QB")),
        (5, CP2, ("QA", "SC")), (6, CX, ("QB", "SC")),
    ]),
    Decohered(None): ("Q1 Q2 QE QF QA QB SC", [
        (0, H, ("Q1",)), *HEAD,
        (3, CX, ("Q1", "QE")),
        (4, CX, ("Q1", "QA")), (4, CX, ("Q2", "QB")),
        (5, CP2, ("QA", "SC")), (6, CX, ("QB", "SC")),
    ]),
    Chained(2, 1): ("Q1 Q2 QA QA1 QA2 QB QB1 SC", [
        (0, H, ("Q1",)), *HEAD,
        (3, CX, ("Q1", "QA")), (3, CX, ("Q2", "QB")),
        (4, CX, ("QA", "QA1")), (4, CX, ("QB", "QB1")),
        (5, CX, ("QA1", "QA2")),
        (6, CP2, ("QA2", "SC")), (7, CX, ("QB1", "SC")),
    ]),
    Chained(0, 2): ("Q1 Q2 QA QB QB1 QB2 SC", [
        (0, H, ("Q1",)), *HEAD,
        (3, CX, ("Q1", "QA")), (3, CX, ("Q2", "QB")),
        (4, CX, ("QB", "QB1")),
        (5, CX, ("QB1", "QB2")),
        (6, CP2, ("QA", "SC")), (7, CX, ("QB2", "SC")),
    ]),
    WignerUndo(0.4): ("Q1 Q2 QA QB SC", [
        (0, H, ("Q1",)), *HEAD,
        (3, CX, ("Q1", "QA")), (3, CX, ("Q2", "QB")),
        (4, CX, ("Q2", "QB")), (5, RY, ("Q2",)), (6, CX, ("Q2", "QB")),
        (7, CP2, ("QA", "SC")), (8, CX, ("QB", "SC")),
    ]),
}


@pytest.mark.parametrize("variant", NETWORKS, ids=repr)
def test_every_variant_builds_its_whole_network(variant):
    ids, gates = NETWORKS[variant]
    network = build_bell_network(BellConfig(0.3, 0.9, variant))
    assert network.layout.ids == tuple(ids.split())
    assert [
        (t, kind(app.gate), app.subsystems) for t, app in timed(network)
    ] == gates


class TestLocalityWitness:
    def test_bob_side_gates_leave_alice_unchanged(self):
        # between Alice's measurement and her record interaction, three
        # Bob-side gates fire in the undo network; Alice's descriptor stays put
        network = build_bell_network(BellConfig(0.3, 0.7, WignerUndo()))
        evo = NetworkEvolution(network).run_to(4)
        before = [c.matrix.copy() for c in evo.descriptors["QA"]]
        evo.run_to(7)
        after = evo.descriptors["QA"]
        for b, a in zip(before, after):
            assert np.array_equal(b, a.matrix)


class TestNonIsomorphism:
    def test_witness_report(self):
        report = nonisomorphism_witness()
        assert report.states_match
        assert report.state_distance < 1e-12
        assert report.descriptors_differ
        assert report.descriptor_distance == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert report.marginal_expectation_gap < 1e-12


@pytest.mark.parametrize("angles", [(0.3, 0.9), (0.0, math.pi / 4), (-2.1, 1.3)])
@pytest.mark.parametrize(
    "variant, bound",
    [(Plain(), 6), (Chained(2, 2), 6), (WignerUndo(), 6), (Decohered(3), 30)],
    ids=repr,
)
def test_evolved_components_stay_short_weyl_sums(variant, bound, angles):
    # the operators' pruning drops the roundoff residue of cancelled terms;
    # kept, it fills the components in as the network runs
    network = build_bell_network(BellConfig(*angles, variant))
    evo = NetworkEvolution(network)
    for t in range(len(network.slices) + 1):
        evo.run_to(t)
        for sid, desc in evo.descriptors.items():
            for component in desc:
                assert len(component.coefficients) <= bound, (t, sid)
