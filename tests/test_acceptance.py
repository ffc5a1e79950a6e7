"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible under ``pytest -s`` or
on failure) and asserts at the criterion's stated tolerance.  Expensive
experiment families (the 20x20 angle grid, the 20 decoherence seeds, the
length-2 chains) are computed once in module-scoped fixtures and shared.
"""

import math

import numpy as np
import pytest

from descriptorsim import (
    BellConfig,
    Chained,
    Decohered,
    GateApplication,
    NetworkEvolution,
    Network,
    RotationY,
    WignerUndo,
    build_bell_network,
    chsh_win_rate,
    closed_form_measures,
    enumerate_classical,
    foliate,
    functional_form,
    nonisomorphism_witness,
    quantum_distribution,
    reduced_density_matrix,
    run_bell,
    run_bells,
    run_wigner_undo,
)
from conftest import dense_distance, locality_residual, random_network, record_distribution
from reference import cumulative_evolve

COS8 = math.cos(math.pi / 8) ** 2
GRID = [
    (theta, phi)
    for theta in np.linspace(-math.pi, math.pi, 20)
    for phi in np.linspace(-math.pi, math.pi, 20)
]


def report(criterion: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {criterion:2d} [{'PASS' if ok else 'FAIL'}] {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def oracle_record_distribution(cfg: BellConfig) -> dict[str, float]:
    return record_distribution(build_bell_network(cfg))


@pytest.fixture(scope="module")
def angle_grid():
    # one sweep of the 400 configurations; the oracle reads each member's network
    outcomes = run_bells([BellConfig(theta, phi) for theta, phi in GRID])
    return [
        (theta, phi, outcome, record_distribution(outcome.network))
        for (theta, phi), outcome in zip(GRID, outcomes, strict=True)
    ]


@pytest.fixture(scope="module")
def chain_two_two():
    cfg = BellConfig(0.0, math.pi / 4, Chained(2, 2))
    return run_bell(cfg), oracle_record_distribution(cfg)


@pytest.fixture(scope="module")
def decohered_twenty():
    runs = []
    for seed in range(20):
        cfg = BellConfig(0.0, math.pi / 4, Decohered(seed))
        runs.append((seed, run_bell(cfg), oracle_record_distribution(cfg)))
    return runs


def test_criterion_01_quantum_win_rate():
    rate = chsh_win_rate()
    ok = abs(rate - COS8) < 1e-9 and abs(rate - 0.8535533906) < 1e-9
    report(1, "CHSH quantum win rate equals cos^2(pi/8)", ok, f"rate={rate:.12f}")


def test_criterion_02_classical_bound():
    best, maximizers = enumerate_classical()
    ok = best == 3 and len(maximizers) == 8
    report(2, "best deterministic strategy wins exactly 3 of 4", ok, f"best={best}")


def test_criterion_03_strategy_distribution_table():
    c, s = COS8 / 2, math.sin(math.pi / 8) ** 2 / 2
    patterns = {
        (0, 0): (c, s, s, c),
        (0, 1): (c, s, s, c),
        (1, 0): (c, s, s, c),
        (1, 1): (s, c, c, s),
    }
    worst = 0.0
    for pair, pattern in patterns.items():
        dist = quantum_distribution(*pair).branch_measures
        for key, want in zip(("00", "01", "10", "11"), pattern):
            worst = max(worst, abs(dist[key] - want))
    report(3, "all four input-pair rows match the distribution table", worst < 1e-9,
           f"worst={worst:.2e}")


def test_criterion_04_closed_form_on_grid(angle_grid):
    worst = 0.0
    worst_sum = 0.0
    for theta, phi, outcome, _ in angle_grid:
        expected = closed_form_measures(theta, phi)
        for key, want in expected.items():
            worst = max(worst, abs(outcome.branch_measures[key] - want))
        worst_sum = max(worst_sum, abs(sum(outcome.branch_measures.values()) - 1.0))
    ok = worst < 1e-9 and worst_sum < 1e-12
    report(4, "20x20 grid matches the closed-form measures", ok,
           f"worst={worst:.2e} sum_drift={worst_sum:.2e}")


def test_criterion_05_marginals_on_grid(angle_grid):
    worst = 0.0
    for _, _, outcome, _ in angle_grid:
        for marginal in (outcome.alice_marginal, outcome.bob_marginal):
            worst = max(worst, max(abs(m - 0.5) for m in marginal))
    report(5, "single-sided measures are (1/2, 1/2) for all grid angles",
           worst < 1e-9, f"worst={worst:.2e}")


def test_criterion_06_locality(rng):
    networks = [
        build_bell_network(BellConfig(0.3, 0.8)),
        build_bell_network(BellConfig(0.3, 0.8, Decohered(4))),
        build_bell_network(BellConfig(0.3, 0.8, WignerUndo())),
        build_bell_network(BellConfig(0.3, 0.8, Chained(1, 1))),
    ] + [random_network(rng) for _ in range(20)]
    worst = max(locality_residual(net) for net in networks)
    report(6, "gates leave non-acted descriptors unchanged", worst < 1e-12,
           f"worst={worst:.2e} over {len(networks)} networks")


def test_criterion_07_engine_equivalence():
    worst = 0.0
    for seed in range(100):
        net = random_network(np.random.default_rng(seed))
        evo = NetworkEvolution(net).run()
        cum = cumulative_evolve(net)
        for sid in net.layout.ids:
            worst = max(worst, dense_distance(evo.descriptors[sid], cum[sid]))
    report(7, "step evolution equals cumulative conjugation on 100 networks",
           worst < 1e-9, f"worst={worst:.2e}")


def test_criterion_08_reconstruction_and_autonomy():
    outcome = run_bell(BellConfig(0.6, -0.9))
    reconstruction = outcome.reconstruction_residual

    network = build_bell_network(BellConfig(0.6, -0.9))
    evo = NetworkEvolution(network).run_to(3)
    alice = evo.descriptors["QA"]
    control = evo.descriptors["Q1"][1]
    fol = foliate(alice, control, alice[0])
    angle = float(np.random.default_rng(8).uniform(-math.pi, math.pi))
    follow = GateApplication(RotationY(angle), ("QA",))
    fol = fol.evolve_branches(functional_form(follow, {"QA": alice}))
    extended = Network(network.layout, network.slices[:4] + ((follow,),))
    direct = NetworkEvolution(extended).run_to(5).descriptors["QA"]
    autonomy = max(
        got.distance(want) for got, want in zip(fol.branch_sum(), direct)
    )
    ok = reconstruction < 1e-12 and autonomy < 1e-9
    report(8, "branch sums reconstruct; follow-up autonomy holds", ok,
           f"reconstruction={reconstruction:.2e} autonomy={autonomy:.2e}")


def test_criterion_09_decoherence_invariance(decohered_twenty):
    plain = run_bell(BellConfig(0.0, math.pi / 4)).branch_measures
    worst = 0.0
    worst_offdiag = 0.0
    for seed, outcome, _ in decohered_twenty:
        for key, want in plain.items():
            worst = max(worst, abs(outcome.branch_measures[key] - want))
        worst_offdiag = max(worst_offdiag, outcome.diagnostics["q1_offdiagonal"])
    ok = worst < 1e-9 and worst_offdiag < 1e-9
    report(9, "decohered measures equal plain for 20 seeds; z-diagonal marginal",
           ok, f"worst={worst:.2e} offdiag={worst_offdiag:.2e}")


def test_criterion_10_chain_invariance(chain_two_two):
    chained, _ = chain_two_two
    plain = run_bell(BellConfig(0.0, math.pi / 4)).branch_measures
    worst = max(
        abs(chained.branch_measures[key] - want) for key, want in plain.items()
    )
    report(10, "chained(2,2) measures equal plain measures", worst < 1e-9,
           f"worst={worst:.2e}")


def test_criterion_11_wigner_undo():
    result = run_wigner_undo(0.0, 0.642)
    conditional = result.conditional_bob_given_alice[(1, 0)]
    joint = result.outcome.branch_measures
    expected = {"00": 0.0, "01": 0.5, "10": 0.5, "11": 0.0}
    worst = max(abs(joint[key] - want) for key, want in expected.items())
    ok = conditional is not None and abs(conditional - 1.0) < 1e-9 and worst < 1e-9
    report(11, "undo continuation pairs Alice-0 with Bob-1 at measure 1", ok,
           f"conditional={conditional} joint_worst={worst:.2e}")


def test_criterion_12_oracle_equivalence(angle_grid, chain_two_two, decohered_twenty):
    worst = 0.0
    for _, _, outcome, oracle in angle_grid:
        for key, prob in oracle.items():
            worst = max(worst, abs(outcome.branch_measures[key] - prob))
    chained, oracle = chain_two_two
    for key, prob in oracle.items():
        worst = max(worst, abs(chained.branch_measures[key] - prob))
    for _, outcome, oracle in decohered_twenty:
        for key, prob in oracle.items():
            worst = max(worst, abs(outcome.branch_measures[key] - prob))
    wigner = run_wigner_undo(0.25, 1.3)
    oracle = oracle_record_distribution(wigner.outcome.config)
    for key, prob in oracle.items():
        worst = max(worst, abs(wigner.outcome.branch_measures[key] - prob))
    report(12, "descriptor measures match the state-vector oracle everywhere",
           worst < 1e-9, f"worst={worst:.2e}")


def test_criterion_13_nonisomorphism_witness():
    witness = nonisomorphism_witness()
    ok = witness.state_distance < 1e-12 and witness.descriptor_distance > 0.5
    report(13, "identical wave functions, descriptors apart in norm", ok,
           f"state={witness.state_distance:.2e} "
           f"descriptor={witness.descriptor_distance:.3f}")


def test_criterion_09b_decoherence_reduced_matrix(decohered_twenty):
    # oracle-side check that the environment interaction kills Q1 coherence
    worst = 0.0
    for seed, _, _ in decohered_twenty[:5]:
        cfg = BellConfig(0.0, math.pi / 4, Decohered(seed))
        network = build_bell_network(cfg)
        (t_copy,) = [
            t for t, sl in enumerate(network.slices)
            for app in sl if app.subsystems == ("Q1", "QE")
        ]
        rho = reduced_density_matrix(network.upto(t_copy + 1), "Q1")
        worst = max(worst, abs(rho[0, 1]))
    report(9, "oracle reduced matrix of Q1 is z-diagonal", worst < 1e-9,
           f"offdiag={worst:.2e}")
