"""Production code never calls the reference engine, nor densifies.

``reference.cumulative_unitary`` and ``reference.cumulative_evolve`` are
the independent reference path for cross-checks, and they live beside the
tests with ``conftest``'s locality and algebra checkers and the term route
to a gate's images, ``reference.term_images``: no module of the package
imports ``reference`` or ``conftest``, or names any of these five
functions, not even in a re-export.  So each Bell variant, the
non-isomorphism witness and every CLI experiment get their results from
the step law alone.  So does a network with a custom gate after time 0,
whose functional form is its expansion on the current descriptors, not a
cumulative frame.

``Operator.matrix`` builds the dense N x N matrix for the tests.  No
production module reads it, and with it made to raise each Bell variant
and every CLI experiment still run.

The reference in turn shares no term arithmetic with the step law: it
returns dense components, and with ``Operator.from_matrix`` (the term
expansion behind every functional form) made to raise, it still runs.

The foliation walk reads descriptors only: ``foliation.py`` imports
neither the oracle nor the Bell and CLI layers above it, so the oracle
stays an independent cross-check of every branch measure.
"""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

from descriptorsim import (
    BellConfig,
    Chained,
    Controlled,
    CustomGate,
    Decohered,
    GateApplication,
    Hadamard,
    Network,
    NetworkEvolution,
    Operator,
    Plain,
    Plus,
    SpaceLayout,
    WignerUndo,
    build_bell_network,
    haar_random_unitary,
    initial_descriptors,
    nonisomorphism_witness,
    run_bell,
    simulate_statevector,
)
from descriptorsim.cli import EXPERIMENTS, RunConfig, execute_and_report
from conftest import dense_distance, locality_residual
from reference import cumulative_evolve

PACKAGE = Path(sys.modules["descriptorsim"].__file__).parent
TEST_SIDE = ("reference", "conftest")
REFERENCE = ("cumulative_unitary", "cumulative_evolve", "locality_residual", "algebra_residual", "term_images")


@pytest.fixture
def no_dense(monkeypatch):
    def forbidden(self):
        raise AssertionError("production code built a dense operator matrix")

    monkeypatch.setattr(Operator, "matrix", property(forbidden))


@pytest.mark.parametrize(
    "variant",
    [Plain(), Decohered(3), Decohered(None), Chained(1, 1), WignerUndo()],
    ids=repr,
)
def test_run_bell_never_calls_the_reference(no_dense, variant):
    out = run_bell(BellConfig(0.3, 0.9, variant))
    assert sum(out.branch_measures.values()) == pytest.approx(1.0, abs=1e-12)


def test_witness_never_calls_the_reference():
    report = nonisomorphism_witness()
    assert report.states_match and report.descriptors_differ
    assert report.marginal_expectation_gap < 1e-12


def test_late_custom_gate_never_calls_the_reference():
    layout = SpaceLayout((("Q1", 2), ("Q2", 2), ("SC", 4)))
    mix = CustomGate(haar_random_unitary(8, np.random.default_rng(5)), "mix")
    net = Network(layout, [
        [GateApplication(Hadamard(), ("Q1",))],
        [GateApplication(Controlled(Plus(1)), ("Q1", "Q2"))],
        [GateApplication(mix, ("SC", "Q1"))],
        [GateApplication(Controlled(Plus(1)), ("Q2", "SC"))],
    ])
    evolved = NetworkEvolution(net).run().descriptors
    # <0|U^dag c U|0> of every evolved component is <psi|c|psi> at the end
    psi = simulate_statevector(net).ravel()
    for sid, initial in initial_descriptors(layout).items():
        for got, c in zip(evolved[sid], initial):
            want = psi.conj() @ c.matrix @ psi
            assert got.expectation() == pytest.approx(want, abs=1e-12)
    assert locality_residual(net) < 1e-12


@pytest.mark.parametrize("variant", [Decohered(3), Chained(1, 1)], ids=repr)
def test_reference_never_expands_into_terms(monkeypatch, variant):
    network = build_bell_network(BellConfig(0.3, 0.9, variant))
    evolved = NetworkEvolution(network).run().descriptors

    def forbidden(cls, layout, matrix):
        raise AssertionError("the reference engine expanded a matrix into terms")

    monkeypatch.setattr(Operator, "from_matrix", classmethod(forbidden))
    reference = cumulative_evolve(network)
    for sid, components in evolved.items():
        assert all(isinstance(c, np.ndarray) for c in reference[sid])
        assert dense_distance(components, reference[sid]) < 1e-10


# "all" runs the same six sections
@pytest.mark.parametrize("experiment", [e for e in EXPERIMENTS if e != "all"])
def test_cli_experiment_never_calls_the_reference(no_dense, experiment):
    code, _ = execute_and_report(
        RunConfig(experiment, seed=3, chain_alice=1, chain_bob=1)
    )
    assert code == 0


def test_no_production_module_imports_the_reference():
    # an import names its module in ``module`` (absolute or relative) or in an alias
    for path in sorted(PACKAGE.glob("*.py")):
        found = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [getattr(node, "module", None)] + [a.name for a in node.names]
                found += [
                    (node.lineno, m) for m in modules if m and m.split(".")[0] in TEST_SIDE
                ]
            for attr in ("id", "attr", "name", "asname"):
                if getattr(node, attr, None) in REFERENCE:
                    found.append((node.lineno, getattr(node, attr)))
        assert found == [], f"{path.name} reaches the test-side reference: {found}"


def test_no_production_module_reads_the_dense_matrix():
    # ``gate.matrix(dims)`` is a call; ``op.matrix`` is a read of the property
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        reads = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "matrix"
            and id(node) not in called
        ]
        assert reads == [], f"{path.name} reads .matrix at lines {reads}"


def test_foliation_imports_neither_the_oracle_nor_the_layers_above():
    # every dotted part of every module an import names, absolute or relative
    tree = ast.parse((PACKAGE / "foliation.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in [getattr(node, "module", None)] + [a.name for a in node.names]:
                imported |= set((name or "").split("."))
    assert "engine" in imported  # the guard sees the imports it looks for
    assert imported.isdisjoint({"oracle", "bell", "cli"})
