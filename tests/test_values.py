"""The package's value classes: immutable, equal and hashed alike when their
fields are, never equal to another class's, and shown by their fields."""

import dataclasses

import numpy as np
import pytest

from descriptorsim.bell import (
    BellConfig,
    BellOutcome,
    Chained,
    Decohered,
    NonIsomorphismReport,
    Plain,
    WignerReport,
    WignerUndo,
)
from descriptorsim.chsh import DeterministicStrategy
from descriptorsim.cli import RunConfig
from descriptorsim.foliation import Branch, Foliation
from descriptorsim.gates import (
    Controlled,
    CustomGate,
    GateApplication,
    Hadamard,
    Network,
    Plus,
    RotationY,
)
from descriptorsim.operators import Operator, SpaceLayout

QUBIT = SpaceLayout((("q", 2),))
PAIR = SpaceLayout((("q", 2), ("r", 2)))
OP = Operator(QUBIT, [[1, 0]], [0.5])
OP_REPR = ("Operator(layout=SpaceLayout(subsystems=(('q', 2),)), exponents=array([[1, 0]]), "
           "coefficients=array([0.5+0.j]))")
BRANCH_REPR = f"Branch(key='', projector={OP_REPR}, conditional={OP_REPR}, measure=1.0)"
OUTCOME_REPR = (
    "BellOutcome(config=BellConfig(theta=0.0, phi=0.7853981633974483, variant=Plain()), "
    "branch_measures={'00': 0.5}, alice_marginal=(1.0, 0.0), bob_marginal=(0.5, 0.5), "
    "reconstruction_residual=0.0, alice_sharpness={'00': True}, diagnostics={})"
)


def outcome():
    network = Network(PAIR, ((GateApplication(Hadamard(), ("q",)),),))
    return BellOutcome(BellConfig(), {"00": 0.5}, (1.0, 0.0), (0.5, 0.5), 0.0, {"00": True}, network)


# (a factory of instances with equal fields, their fields, their repr)
VALUES = {
    "SpaceLayout": (lambda: SpaceLayout((("q", 2), ("r", 3))), ("subsystems",),
                    "SpaceLayout(subsystems=(('q', 2), ('r', 3)))"),
    "Hadamard": (Hadamard, (), "Hadamard()"),
    "RotationY": (lambda: RotationY(0.5), ("theta",), "RotationY(theta=0.5)"),
    "Plus": (lambda: Plus(1), ("k",), "Plus(k=1)"),
    "Controlled": (lambda: Controlled(Plus(1)), ("gate",), "Controlled(gate=Plus(k=1))"),
    "GateApplication": (lambda: GateApplication(Controlled(Plus(1)), ("q", "r")), ("gate", "subsystems"),
                        "GateApplication(gate=Controlled(gate=Plus(k=1)), subsystems=('q', 'r'))"),
    "Network": (lambda: Network(PAIR, ((GateApplication(Hadamard(), ("q",)),),)), ("layout", "slices"),
                "Network(layout=SpaceLayout(subsystems=(('q', 2), ('r', 2))), "
                "slices=((GateApplication(gate=Hadamard(), subsystems=('q',)),),))"),
    "Plain": (Plain, (), "Plain()"),
    "Decohered": (lambda: Decohered(None), ("seed",), "Decohered(seed=None)"),
    "Chained": (lambda: Chained(1, 0), ("alice", "bob"), "Chained(alice=1, bob=0)"),
    "WignerUndo": (WignerUndo, ("rerotation",), "WignerUndo(rerotation=None)"),
    "WignerReport": (lambda: WignerReport(OUTCOME, 0.5, {(0, 0): None}),
                     ("outcome", "effective_bob_angle", "conditional_bob_given_alice"),
                     f"WignerReport(outcome={OUTCOME_REPR}, effective_bob_angle=0.5, "
                     "conditional_bob_given_alice={(0, 0): None})"),
    "DeterministicStrategy": (lambda: DeterministicStrategy((0, 1), (1, 0)), ("alice", "bob"),
                              "DeterministicStrategy(alice=(0, 1), bob=(1, 0))"),
    "Branch": (lambda: Branch("", OP, OP, 1.0), ("key", "projector", "conditional", "measure"),
               BRANCH_REPR),
    "Foliation": (lambda: Foliation((OP,), (Branch("", OP, OP, 1.0),)), ("base", "branches", "controls"),
                  f"Foliation(base=({OP_REPR},), branches=({BRANCH_REPR},), controls=())"),
    "RunConfig": (lambda: RunConfig("bell"), ("experiment", "format", "output"),
                  "RunConfig(experiment='bell', theta=0.0, phi=0.7853981633974483, seed=0, chain_alice=2, "
                  "chain_bob=2, tolerance=1e-09, format='table', output=None)"),
    "BellConfig": (BellConfig, ("theta", "phi", "variant"),
                   "BellConfig(theta=0.0, phi=0.7853981633974483, variant=Plain())"),
    "BellOutcome": (lambda: OUTCOME, ("config", "network", "diagnostics"), OUTCOME_REPR),
    "NonIsomorphismReport": (lambda: NonIsomorphismReport(0.0, 1.0, 0.0, True, True),
                             ("states_match", "descriptor_distance"),
                             "NonIsomorphismReport(state_distance=0.0, descriptor_distance=1.0, "
                             "marginal_expectation_gap=0.0, states_match=True, descriptors_differ=True)"),
}
# identity classes: an instance equals only itself
IDENTITY = {
    "Operator": (lambda: Operator(QUBIT, [[1, 0]], [0.5]), ("layout", "exponents", "coefficients"), OP_REPR),
    "CustomGate": (lambda: CustomGate(np.eye(2), "env-scramble"), ("unitary", "name"),
                   "CustomGate(name='env-scramble')"),
}
UNHASHABLE = {"WignerReport", "BellOutcome"}  # they hold dicts
OUTCOME = outcome()


@pytest.mark.parametrize("name", VALUES)
def test_equal_fields_make_equal_values_with_equal_hashes(name):
    make, _, _ = VALUES[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1


def test_one_differing_field_makes_values_unequal():
    assert Plus(1) != Plus(2) and Chained(1, 0) != Chained(0, 1)
    assert GateApplication(Plus(1), ("q",)) != GateApplication(Plus(1), ("r",))
    assert DeterministicStrategy((0, 1), (1, 0)) != DeterministicStrategy((0, 1), (1, 1))


@pytest.mark.parametrize("first, second", [(Plus(1), RotationY(1.0)), (Decohered(2), WignerUndo(2.0)),
                                           (Hadamard(), Plain())])
def test_equal_field_values_on_different_classes_are_different_values(first, second):
    assert first != second and second != first
    assert len({first: 0, second: 1}) == 2


@pytest.mark.parametrize("name", IDENTITY)
def test_operators_and_custom_gates_compare_by_identity(name):
    make, _, _ = IDENTITY[name]
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a: 0, b: 1}) == 2


@pytest.mark.parametrize("name", [*VALUES, *IDENTITY])
def test_repr_shows_the_fields(name):
    make, _, shown = {**VALUES, **IDENTITY}[name]
    assert repr(make()) == shown


@pytest.mark.parametrize("name", [*VALUES, *IDENTITY])
def test_fields_cannot_be_set_or_deleted(name):
    make, fields, shown = {**VALUES, **IDENTITY}[name]
    value = make()
    for field in fields:
        kept = getattr(value, field)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, field)
        assert getattr(value, field) is kept
    assert repr(value) == shown


def test_a_layout_equals_a_fresh_one_after_filling_its_caches():
    layout, fresh = (SpaceLayout((("q", 2), ("r", 3))) for _ in range(2))
    assert layout.total_dim == 6 and layout.weyl.identity.H is layout.weyl.identity
    assert layout == fresh and hash(layout) == hash(fresh) and repr(layout) == repr(fresh)
