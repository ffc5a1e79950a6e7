"""The Bell-experiment networks and their descriptor-level runners.

The plain network entangles two particles, rotates them by the two input
angles, copies each particle's z observable onto an observer qubit, and
records both outcomes on a 4-level register by ``Controlled(Plus(2))``
and ``Controlled(Plus(1))`` (Alice's side strictly first); each copy is
the controlled-not ``Controlled(Plus(1))``.  Each variant edits that
network: an environment copies Particle 1 before the measurements, copy
chains carry the outcomes to the record, or Bob's measurement is undone
and redone after an extra rotation.

All branch measures come from foliating the record's descriptor at the
controlled gates onto it; the state-vector oracle is used only for
decoherence diagnostics, never for the measures themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import NetworkEvolution, functional_form, is_sharp
from .foliation import foliate
from .gates import (
    Controlled,
    CustomGate,
    GateApplication,
    Hadamard,
    Network,
    Plus,
    RotationY,
)
from .operators import (
    DEFAULT_TOLERANCE,
    Operator,
    SpaceLayout,
    as_index,
    as_real,
    check_descriptor_budget,
    haar_random_unitary,
)
from .oracle import reduced_density_matrix, simulate_statevector

BRANCH_KEYS = ("00", "01", "10", "11")


@dataclass(frozen=True)
class Plain:
    def edit(self, cfg: BellConfig, qubits: list[str], stages: dict) -> None:
        """Leave the plain network as it is."""


@dataclass(frozen=True)
class Decohered:
    """Environment qubit copies Particle 1's z basis before measurement.

    ``seed`` scrambles the environment (plus a hidden ancilla) with a
    Haar-random two-qubit unitary so its descriptor is a generic Pauli
    representation; ``seed=None`` leaves the environment fresh.
    """

    seed: int | None = 0

    def __post_init__(self) -> None:
        if self.seed is not None and as_index(self.seed, "seed", ValueError) < 0:
            raise ValueError("seed must be >= 0")

    def edit(self, cfg: BellConfig, qubits: list[str], stages: dict) -> None:
        """Add QE, QF (scrambled first if seeded); QE copies Q1 after the rotations."""
        qubits[2:2] = ["QE", "QF"]
        if self.seed is not None:
            u = haar_random_unitary(4, np.random.default_rng(self.seed))
            stages["prepare"][0].insert(0, (CustomGate(u, "env-scramble"), ("QE", "QF")))
        stages["rotate"].append([(Controlled(Plus(1)), ("Q1", "QE"))])


@dataclass(frozen=True)
class Chained:
    """Outcomes travel through copy chains before reaching the record."""

    alice: int = 2
    bob: int = 2

    def __post_init__(self) -> None:
        if min(as_index(n, "chain length", ValueError) for n in (self.alice, self.bob)) < 0:
            raise ValueError("chain lengths must be >= 0")

    def edit(self, cfg: BellConfig, qubits: list[str], stages: dict) -> None:
        """Copy QA and QB along their chains; the record reads each chain's end."""
        # the one unbounded variant: its layout is counted before any link exists
        check_descriptor_budget({2: len(qubits) + self.alice + self.bob, 4: 1})
        chains = [
            [head] + [f"{head}{i}" for i in range(1, n + 1)]
            for head, n in (("QA", self.alice), ("QB", self.bob))
        ]
        qubits[2:] = chains[0] + chains[1]
        for i in range(max(self.alice, self.bob)):
            stages["measure"].append([
                (Controlled(Plus(1)), (ids[i], ids[i + 1])) for ids in chains if i + 1 < len(ids)
            ])
        for sl, ids in zip(stages["record"], chains):
            sl[:] = [(gate, (ids[-1], record)) for gate, (_, record) in sl]


@dataclass(frozen=True)
class WignerUndo:
    """Undo Bob's measurement, rotate his particle again, re-measure.

    ``rerotation`` defaults to pi - phi, the angle that flips which Bob
    each Alice meets.
    """

    rerotation: float | None = None

    def angle(self, phi: float) -> float:
        """The re-rotation applied to Bob's particle after rotation ``phi``."""
        return math.pi - phi if self.rerotation is None else self.rerotation

    def edit(self, cfg: BellConfig, qubits: list[str], stages: dict) -> None:
        """Undo Bob's measurement, re-rotate Q2 and measure it again."""
        undo = (Controlled(Plus(1)), ("Q2", "QB"))  # the controlled-not is self-inverse
        rerotate = (RotationY(self.angle(cfg.phi)), ("Q2",))
        stages["measure"] += [[undo], [rerotate], [undo]]


Variant = Plain | Decohered | Chained | WignerUndo


@dataclass(frozen=True)
class BellConfig:
    theta: float = 0.0
    phi: float = math.pi / 4
    variant: Variant = field(default_factory=Plain)

    def __post_init__(self) -> None:
        if not (
            math.isfinite(as_real(self.theta, "theta", ValueError))
            and math.isfinite(as_real(self.phi, "phi", ValueError))
        ):
            raise ValueError("angles must be finite")


@dataclass(frozen=True)
class BellOutcome:
    config: BellConfig
    branch_measures: dict[str, float]
    alice_marginal: tuple[float, float]
    bob_marginal: tuple[float, float]
    reconstruction_residual: float
    alice_sharpness: dict[str, bool]
    network: Network = field(repr=False, compare=False)
    diagnostics: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class WignerReport:
    outcome: BellOutcome
    effective_bob_angle: float
    conditional_bob_given_alice: dict[tuple[int, int], float | None]


@dataclass(frozen=True)
class NonIsomorphismReport:
    state_distance: float
    descriptor_distance: float
    marginal_expectation_gap: float
    states_match: bool
    descriptors_differ: bool


RECORD = "SC"


def closed_form_measures(theta: float, phi: float) -> dict[str, float]:
    """The four record measures as closed trigonometric forms of theta - phi."""
    half = theta / 2 - phi / 2  # theta - phi overflows for angles near 1e308
    c, s = math.cos(half) ** 2 / 2, math.sin(half) ** 2 / 2
    return {"00": c, "01": s, "10": s, "11": c}


def build_bell_network(cfg: BellConfig) -> Network:
    """Assemble the network's slices: the plain network's qubits and its
    named stages (each a list of slices of (gate, subsystems), in time
    order), as the variant's ``edit`` changes them."""
    if not isinstance(cfg.variant, Variant):
        raise TypeError(f"unknown variant {type(cfg.variant).__name__}")
    qubits = ["Q1", "Q2", "QA", "QB"]
    stages = {
        "prepare": [[(Hadamard(), ("Q1",))]],
        "entangle": [[(Controlled(Plus(1)), ("Q1", "Q2"))]],
        "rotate": [[(RotationY(cfg.theta), ("Q1",)), (RotationY(cfg.phi), ("Q2",))]],
        "measure": [[(Controlled(Plus(1)), ("Q1", "QA")), (Controlled(Plus(1)), ("Q2", "QB"))]],
        "record": [[(Controlled(Plus(2)), ("QA", RECORD))],
                   [(Controlled(Plus(1)), ("QB", RECORD))]],
    }
    cfg.variant.edit(cfg, qubits, stages)
    layout = SpaceLayout(tuple((sid, 2) for sid in qubits) + ((RECORD, 4),))
    slices = (sl for stage in stages.values() for sl in stage)
    return Network(layout, [[GateApplication(g, sids) for g, sids in sl] for sl in slices])


def _marginal(control: Operator) -> tuple[float, float]:
    """<(1 +- q)/2>, read off <q>: the expectations of ``half_sum(q, +-1)``,
    the combination of I and q with coefficients 1/2 and +-1/2."""
    q = control.expectation().real
    return ((1 + q) / 2, (1 - q) / 2)


def run_bell(cfg: BellConfig) -> BellOutcome:
    """Run the configured experiment and report the record's branch measures.

    One evolution, in one pass: the environment diagnostics just after the
    gate that copies Q1 onto the environment, then the record foliated by
    Alice's and refined by Bob's record gate (each splits by its control's
    clock and conditions by its inner gate, evaluated on the foliated
    record), then the final record for the reconstruction check and
    Alice's sharpness.
    """
    network = build_bell_network(cfg)
    evo = NetworkEvolution(network)
    timed = [(t, app) for t, sl in enumerate(network.slices) for app in sl]
    env_diagnostics: dict[str, float] = {}
    for t, app in timed:
        if app.subsystems == ("Q1", "QE"):
            q1x_after = evo.run_to(t + 1).descriptors["Q1"][0]
            env_diagnostics["q1_x_expectation"] = abs(q1x_after.expectation())
            rho = reduced_density_matrix(network.upto(t + 1), "Q1")
            env_diagnostics["q1_offdiagonal"] = float(abs(rho[0, 1]))

    (t_alice, alice), (t_bob, bob) = (
        (t, app) for t, app in timed
        if isinstance(app.gate, Controlled) and app.subsystems[1:] == (RECORD,)
    )
    evo.run_to(t_alice)
    base = {RECORD: evo.descriptors[RECORD]}
    poly_a, poly_b = (
        functional_form(GateApplication(app.gate.gate, (RECORD,)), base) for app in (alice, bob)
    )
    control_a = evo.descriptors[alice.subsystems[0]][1]
    fol = foliate(base[RECORD], control_a, poly_a)
    evo.run_to(t_bob)
    control_b = evo.descriptors[bob.subsystems[0]][1]
    fol = fol.refine(control_b, poly_b)

    evo.run()
    residual = max(
        got.distance(want)
        for got, want in zip(fol.branch_sum(), evo.descriptors[RECORD])
    )

    qx, qz = evo.descriptors[alice.subsystems[0]]
    qy = 1j * (qx @ qz)
    sharpness = {"x": is_sharp(qx)[0], "z": is_sharp(qz)[0], "y": is_sharp(qy)[0]}

    measures = fol.measures()
    return BellOutcome(
        config=cfg,
        branch_measures={k: measures[k] for k in BRANCH_KEYS},
        alice_marginal=_marginal(control_a),
        bob_marginal=_marginal(control_b),
        reconstruction_residual=residual,
        alice_sharpness=sharpness,
        network=network,
        diagnostics=env_diagnostics,
    )


def run_wigner_undo(
    theta: float, phi: float, rerotation: float | None = None
) -> WignerReport:
    """Undo-and-redo continuation of Bob's measurement, with the joint
    measures and the conditional measures of Bob's record given Alice's."""
    variant = WignerUndo(rerotation)
    outcome = run_bell(BellConfig(theta, phi, variant))
    m = outcome.branch_measures
    conditionals: dict[tuple[int, int], float | None] = {}
    for a in (0, 1):
        total = m[f"{a}0"] + m[f"{a}1"]
        for b in (0, 1):
            conditionals[(b, a)] = (
                None if total < DEFAULT_TOLERANCE else m[f"{a}{b}"] / total
            )
    return WignerReport(outcome, phi + variant.angle(phi), conditionals)


def nonisomorphism_witness() -> NonIsomorphismReport:
    """Two networks with one final wave function but different descriptors.

    The empty two-qubit network and a single controlled-not both leave the
    state at |00>, yet the controlled-not rewrites Q1's x component into a
    two-qubit product; descriptors carry strictly more structure than the state.
    """
    layout = SpaceLayout((("Q1", 2), ("Q2", 2)))
    empty = Network(layout, ())
    cnot = Network(layout, [[GateApplication(Controlled(Plus(1)), ("Q1", "Q2"))]])

    state_distance = float(
        np.linalg.norm(simulate_statevector(empty) - simulate_statevector(cnot))
    )

    evo_empty = NetworkEvolution(empty).run()
    evo_cnot = NetworkEvolution(cnot).run()
    descriptor_distance = max(
        a.distance(b)
        for sid in layout.ids
        for a, b in zip(evo_empty.descriptors[sid], evo_cnot.descriptors[sid])
    )

    # <x>, <y> = <i x z> and <z> of every evolved qubit, in both networks
    marginals = [
        [
            o.expectation()
            for x, z in (evo.descriptors[sid] for sid in layout.ids)
            for o in (x, 1j * (x @ z), z)
        ]
        for evo in (evo_empty, evo_cnot)
    ]
    gap = max(abs(a - b) for a, b in zip(*marginals))

    return NonIsomorphismReport(
        state_distance=state_distance,
        descriptor_distance=descriptor_distance,
        marginal_expectation_gap=gap,
        states_match=state_distance < 1e-12,
        descriptors_differ=descriptor_distance > 0.5,
    )
