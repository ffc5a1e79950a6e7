import itertools
import os
from math import prod
from pathlib import Path
from typing import Mapping

import numpy as np
import pytest

import descriptorsim
from descriptorsim import (
    Controlled,
    GateApplication,
    Hadamard,
    Network,
    NetworkEvolution,
    Operator,
    Plus,
    RotationY,
    SpaceLayout,
    functional_form,
    joint_outcome_distribution,
    qudit_shift_clock,
)


def random_network(
    rng: np.random.Generator,
    max_subsystems: int = 4,
    max_gates: int = 8,
    with_qudit: bool | None = None,
) -> Network:
    """A random well-formed network: qubits plus (optionally) one 4-level
    system, gate kinds drawn uniformly; a gate joins the open slice when
    it is disjoint from it and a coin says so, else it opens a new one."""
    n_sub = int(rng.integers(2, max_subsystems + 1))
    if with_qudit is None:
        with_qudit = bool(rng.integers(2))
    subsystems = [(f"S{i}", 2) for i in range(n_sub)]
    if with_qudit:
        subsystems[-1] = (subsystems[-1][0], 4)
    layout = SpaceLayout(tuple(subsystems))
    qubits = [sid for sid, dim in layout.subsystems if dim == 2]
    qudits = [sid for sid, dim in layout.subsystems if dim == 4]

    slices, acted = [], set()
    n_gates = int(rng.integers(1, max_gates + 1))
    placed = 0
    while placed < n_gates:
        kind = rng.integers(5)
        if kind == 0:
            app = GateApplication(Hadamard(), (rng.choice(qubits),))
        elif kind == 1:
            theta = float(rng.uniform(-np.pi, np.pi))
            app = GateApplication(RotationY(theta), (rng.choice(qubits),))
        elif kind == 2 and len(qubits) >= 2:
            c, tgt = rng.choice(qubits, size=2, replace=False)
            app = GateApplication(Controlled(Plus(1)), (c, tgt))
        elif kind == 3 and qudits:
            app = GateApplication(Plus(int(rng.integers(1, 4))), (rng.choice(qudits),))
        elif kind == 4 and qudits:
            app = GateApplication(
                Controlled(Plus(int(rng.integers(1, 4)))),
                (rng.choice(qubits), rng.choice(qudits)),
            )
        else:
            continue
        if not slices or acted & set(app.subsystems) or rng.integers(2):
            slices.append([])
            acted = set()
        slices[-1].append(app)
        acted |= set(app.subsystems)
        placed += 1
    return Network(layout, slices)


def kron_embedding(small, targets, layout) -> np.ndarray:
    """The reference for ``operators.embed_matrix``: the Kronecker product
    of ``small`` with the identity on the other subsystems, its 2m axes
    transposed into layout order."""
    t_idx = [layout.index_of(sid) for sid in targets]
    rest = [i for i in range(len(layout.dims)) if i not in t_idx]
    big = np.kron(np.asarray(small, dtype=complex), np.eye(prod(layout.dims[i] for i in rest)))
    order = t_idx + rest
    perm = [order.index(j) for j in range(len(order))]
    tensor = big.reshape([layout.dims[i] for i in order] * 2)
    tensor = tensor.transpose(perm + [len(order) + p for p in perm])
    return tensor.reshape(layout.total_dim, layout.total_dim)


def record_distribution(network: Network) -> dict[str, float]:
    """The oracle's Born measure of each value v of a Bell network's 4-level
    record "SC", keyed by the bits of v: Alice's record gate adds 2, Bob's 1."""
    dist = joint_outcome_distribution(network, ("SC",))
    return {f"{value >> 1}{value & 1}": p for (value,), p in dist.items()}


def child_env() -> dict[str, str]:
    """The environment of a child Python process that imports the package
    these tests import, installed or not."""
    src = str(Path(descriptorsim.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def dense_distance(descriptor, reference) -> float:
    """Worst Frobenius distance between a descriptor's components and the
    reference engine's dense ones, the measure of ``Operator.distance``."""
    return max(
        float(np.linalg.norm(op.matrix - ref))
        for op, ref in zip(descriptor, reference, strict=True)
    )


def locality_residual(network: Network) -> float:
    """Max Frobenius change a gate's conjugation would inflict on the
    descriptors of subsystems it does not act on.

    The step engine relies on that change being zero; this performs the
    conjugation anyway, for every gate and every non-acted component.
    """
    evo = NetworkEvolution(network)
    worst = 0.0
    for _ in network.slices:
        before = evo.descriptors
        for app in evo.advance():
            unitary = functional_form(app, before)
            u_dag = unitary.H
            for sid in before.keys() - set(app.subsystems):
                for comp in before[sid]:
                    worst = max(worst, (u_dag @ comp @ unitary).distance(comp))
    return worst


def algebra_residual(descriptors: Mapping[str, tuple[Operator, ...]]) -> float:
    """Worst violation of the preserved algebraic relations: per subsystem,
    unitarity, x^d = z^d = I and z x = omega x z; across subsystems,
    commutation."""
    worst = 0.0
    for sid, (x, z) in descriptors.items():
        d = x.layout.dim_of(sid)
        eye = Operator.identity(x.layout)
        for c in (x, z):
            worst = max(worst, (c.H @ c).distance(eye), c.matpow(d).distance(eye))
        omega = qudit_shift_clock(d)[1][1, 1]  # the clock's second entry
        worst = max(worst, (z @ x).distance(omega * (x @ z)))
    comps = [(sid, c) for sid, desc in descriptors.items() for c in desc]
    for (s1, c1), (s2, c2) in itertools.combinations(comps, 2):
        if s1 != s2:
            worst = max(worst, (c1 @ c2).distance(c2 @ c1))
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
