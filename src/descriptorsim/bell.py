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
controlled gates onto it, a key bit per split, Alice's first; the oracle
only checks them (``record_measures``) and reads the decoherence diagnostics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .engine import NetworkEvolution, is_sharp
from .foliation import foliate_along
from .gates import (
    Controlled,
    CustomGate,
    GateApplication,
    Hadamard,
    Network,
    NetworkError,
    Plus,
    RotationY,
    gate_matrix,
)
from .operators import (
    DEFAULT_TOLERANCE,
    SpaceLayout,
    Value,
    as_index,
    as_real,
    check_descriptor_budget,
    haar_random_unitary,
)
from .oracle import joint_outcome_distribution, reduced_density_matrix, simulate_statevector


class Plain(Value):
    def edit(self, cfg: BellConfig, qubits: list[str], stages: dict) -> None:
        """Leave the plain network as it is."""


class Decohered(Value):
    """Environment qubit copies Particle 1's z basis before measurement.

    ``seed`` scrambles the environment (plus a hidden ancilla) with a
    Haar-random two-qubit unitary so its descriptor is a generic Pauli
    representation; ``seed=None`` leaves the environment fresh.
    """

    _fields = ("seed",)

    def __init__(self, seed: int | None = 0) -> None:
        if seed is not None and as_index(seed, "seed", ValueError) < 0:
            raise ValueError("seed must be >= 0")
        self._freeze(seed)

    def edit(self, cfg: BellConfig, qubits: list[str], stages: dict) -> None:
        """Add QE, QF (scrambled first if seeded); QE copies Q1 after the rotations."""
        qubits[2:2] = ["QE", "QF"]
        if self.seed is not None:
            u = haar_random_unitary(4, np.random.default_rng(self.seed))
            stages["prepare"][0].insert(0, GateApplication(CustomGate(u, "env-scramble"), ("QE", "QF")))
        stages["rotate"].append([GateApplication(_CNOT, ("Q1", "QE"))])


class Chained(Value):
    """Outcomes travel through copy chains before reaching the record."""

    _fields = ("alice", "bob")

    def __init__(self, alice: int = 2, bob: int = 2) -> None:
        if min(as_index(n, "chain length", ValueError) for n in (alice, bob)) < 0:
            raise ValueError("chain lengths must be >= 0")
        self._freeze(alice, bob)

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
            stages["measure"].append([GateApplication(_CNOT, (ids[i], ids[i + 1]))
                                      for ids in chains if i + 1 < len(ids)])
        for sl, ids in zip(stages["record"], chains):
            sl[:] = [GateApplication(app.gate, (ids[-1], RECORD)) for app in sl]


class WignerUndo(Value):
    """Undo Bob's measurement, rotate his particle again, re-measure.

    ``rerotation`` defaults to pi - phi, the angle that flips which Bob
    each Alice meets.
    """

    _fields = ("rerotation",)

    def __init__(self, rerotation: float | None = None) -> None:
        if rerotation is not None and not math.isfinite(as_real(rerotation, "rerotation", NetworkError)):
            raise NetworkError(f"rerotation {rerotation} is not finite")  # as its RotationY would
        self._freeze(rerotation)

    def angle(self, phi: float) -> float:
        """The re-rotation applied to Bob's particle after rotation ``phi``."""
        return math.pi - phi if self.rerotation is None else self.rerotation

    def edit(self, cfg: BellConfig, qubits: list[str], stages: dict) -> None:
        """Undo Bob's measurement, re-rotate Q2 and measure it again."""
        undo = GateApplication(_CNOT, ("Q2", "QB"))  # the controlled-not is self-inverse
        rerotate = GateApplication(RotationY(self.angle(cfg.phi)), ("Q2",))
        stages["measure"] += [[undo], [rerotate], [undo]]


Variant = Plain | Decohered | Chained | WignerUndo


@dataclass(frozen=True)
class BellConfig:
    theta: float = 0.0
    phi: float = math.pi / 4
    variant: Variant = field(default_factory=Plain)

    def __post_init__(self) -> None:
        for name in ("theta", "phi"):  # stored as floats: a Fraction or numpy real reads as one
            object.__setattr__(self, name, float(as_real(getattr(self, name), name, ValueError)))
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
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


class WignerReport(Value):
    _fields = ("outcome", "effective_bob_angle", "conditional_bob_given_alice")

    def __init__(self, outcome: BellOutcome, effective_bob_angle: float,
                 conditional_bob_given_alice: dict[tuple[int, int], float | None]) -> None:
        self._freeze(outcome, effective_bob_angle, conditional_bob_given_alice)


@dataclass(frozen=True)
class NonIsomorphismReport:
    state_distance: float
    descriptor_distance: float
    marginal_expectation_gap: float
    states_match: bool
    descriptors_differ: bool


RECORD = "SC"
# one layout object per shape: a run's angle-free operators are then the ones its last run kept
_layout = functools.lru_cache(maxsize=32)(SpaceLayout)
# the angle-free gates, built once: the caches keyed by a gate (its matrix, the engine's images)
# then find them by identity, and a build constructs only its rotations (and a scramble)
_H, _CNOT, _PLUS_2 = Hadamard(), Controlled(Plus(1)), Controlled(Plus(2))


def record_measures(network: Network) -> dict[str, float]:
    """The oracle's Born measure of each record value, labelled by its two binary digits,
    Alice's first: her record gate adds 2 and Bob's 1, so value 2a + b is branch "ab"."""
    return {format(value, "02b"): p for (value,), p in joint_outcome_distribution(network, (RECORD,)).items()}


def closed_form_measures(theta: float, phi: float) -> dict[str, float]:
    """The four record measures as closed trigonometric forms of theta - phi, in half
    angles: theta - phi overflows near 1e308, theta/2 - phi/2 loses phi at large |theta|."""
    for name, angle in (("theta", theta), ("phi", phi)):
        if not math.isfinite(as_real(angle, name, ValueError)):
            raise ValueError(f"{name} {angle} is not finite")
    (ct, st), (cp, sp) = ((math.cos(a / 2), math.sin(a / 2)) for a in (theta, phi))
    c, s = (ct * cp + st * sp) ** 2 / 2, (st * cp - ct * sp) ** 2 / 2
    return {"00": c, "01": s, "10": s, "11": c}


def build_bell_network(cfg: BellConfig) -> Network:
    """Assemble the network's slices: the plain network's qubits and its
    named stages (each a list of slices of gate applications, in time
    order), as the variant's ``edit`` changes them."""
    if not isinstance(cfg.variant, Variant):
        raise TypeError(f"unknown variant {type(cfg.variant).__name__}")
    qubits = ["Q1", "Q2", "QA", "QB"]
    stages = {
        "prepare": [[GateApplication(_H, ("Q1",))]],
        "entangle": [[GateApplication(_CNOT, ("Q1", "Q2"))]],
        "rotate": [[GateApplication(RotationY(cfg.theta), ("Q1",)),
                    GateApplication(RotationY(cfg.phi), ("Q2",))]],
        "measure": [[GateApplication(_CNOT, ("Q1", "QA")), GateApplication(_CNOT, ("Q2", "QB"))]],
        "record": [[GateApplication(_PLUS_2, ("QA", RECORD))], [GateApplication(_CNOT, ("QB", RECORD))]],
    }
    cfg.variant.edit(cfg, qubits, stages)
    layout = _layout(tuple((sid, 2) for sid in qubits) + ((RECORD, 4),))
    return Network(layout, [sl for stage in stages.values() for sl in stage])


def _marginal(expectation: complex) -> tuple[float, float]:
    """<(1 +- q)/2>, read off <q>: the expectations of ``half_sum(q, +-1)``,
    the combination of I and q with coefficients 1/2 and +-1/2."""
    q = float(expectation.real)
    return ((1 + q) / 2, (1 - q) / 2)


@functools.lru_cache(maxsize=64)
def _swept_app(apps: tuple[GateApplication, ...], layout: SpaceLayout) -> GateApplication:
    """Differing member gates at one position as one: the first's if their matrices are equal
    (each Decohered build's scramble), else their stack, kept so that a repeat finds its images."""
    matrices = np.stack([gate_matrix(a.gate, tuple(map(layout.dim_of, a.subsystems))) for a in apps])
    same = (matrices == matrices[0]).all()
    return apps[0] if same else GateApplication(CustomGate(matrices, "sweep"), apps[0].subsystems)


def _swept(networks: list[Network]) -> Network:
    """The members' networks as one, in member order; equal gates need no matrix read."""
    return Network(networks[0].layout, [[apps[0] if all(a.gate == apps[0].gate for a in apps) else
                                         _swept_app(apps, networks[0].layout) for apps in zip(*sls)]
                                        for sls in zip(*(n.slices for n in networks))])


def _each(reading, count: int) -> list:
    """A sweep's reading, one per member; one that no swept gate reached is every member's."""
    return list(reading) if isinstance(reading, (list, np.ndarray)) else [reading] * count


def run_bells(cfgs: Sequence[BellConfig]) -> list[BellOutcome]:
    """Run configurations that share a variant and report each one's record
    branch measures, foliated along the network, with the environment
    diagnostics just after Q1's copy onto the environment, the
    reconstruction and Alice's sharpness.  They run as one sweep: one
    evolution with a column of coefficients per member.  Each member's own
    network is built as a single run builds it; its oracle diagnostics and
    its outcome read that one."""
    if not cfgs or not all(isinstance(cfg, BellConfig) and cfg.variant == cfgs[0].variant for cfg in cfgs):
        raise ValueError("a sweep needs one or more configurations that share their variant")
    networks = [build_bell_network(cfg) for cfg in cfgs]
    n = len(networks)
    network = networks[0] if n == 1 else _swept(networks)
    evo = NetworkEvolution(network)
    timed = [(t, app) for t, sl in enumerate(network.slices) for app in sl]
    env_diagnostics: list[dict[str, float]] = [{} for _ in cfgs]
    for t, app in timed:
        if app.subsystems == ("Q1", "QE"):
            q1x_after = _each(evo.run_to(t + 1).descriptors["Q1"][0].expectation(), n)
            for diagnostics, q1x, member in zip(env_diagnostics, q1x_after, networks):
                diagnostics["q1_x_expectation"] = float(abs(q1x))
                rho = reduced_density_matrix(member.upto(t + 1), "Q1")
                diagnostics["q1_offdiagonal"] = float(abs(rho[0, 1]))

    fol = foliate_along(evo, RECORD)
    final = evo.descriptors
    residuals = zip(*(_each(got.distance(want), n) for got, want in zip(fol.branch_sum(), final[RECORD])))

    # a controlled gate leaves its control's clock as it was, so the final clocks split the record
    (qx, qz), (_, bz) = (final[a.subsystems[0]] for _, a in timed if a.subsystems[1:] == (RECORD,))
    sharpness = zip(*(_each(is_sharp(q), n) for q in (qx, qz, 1j * (qx @ qz))))
    marginals = zip(_each(qz.expectation(), n), _each(bz.expectation(), n))
    measures = {k: _each(m, n) for k, m in fol.measures().items()}
    return [
        BellOutcome(
            config=cfg,
            branch_measures={k: float(m[i]) for k, m in measures.items()},
            alice_marginal=_marginal(alice),
            bob_marginal=_marginal(bob),
            reconstruction_residual=float(max(residual)),
            alice_sharpness={k: sharp for k, (sharp, _) in zip("xzy", member_sharpness)},
            network=networks[i],
            diagnostics=env_diagnostics[i],
        )
        for i, (cfg, residual, member_sharpness, (alice, bob))
        in enumerate(zip(cfgs, residuals, sharpness, marginals))
    ]


def run_bell(cfg: BellConfig) -> BellOutcome:
    """The configured experiment's outcome: the one-member sweep."""
    return run_bells([cfg])[0]


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
    layout = _layout((("Q1", 2), ("Q2", 2)))
    empty = Network(layout, ())
    cnot = Network(layout, [[GateApplication(_CNOT, ("Q1", "Q2"))]])

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
