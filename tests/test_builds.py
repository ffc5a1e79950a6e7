"""A Bell build's angle-free gates, and each gate embedding's positions, are
built once per process, while every experiment stays independent of the
ones before it.

The Hadamard, the controlled-not and the record's Controlled(Plus(2)) are
module constants, so a build constructs only its rotations, a Decohered
scramble, the applications and the network; its slices are new, and the
oracle, which keeps nothing between calls, runs every gate of each
experiment.  The dense embedding copies the small matrix through flat
positions kept per layout dims and target positions, and must write what the
strided view of ``reference.embed_matrix`` writes, bit for bit.
"""

from collections import Counter

import numpy as np
import pytest

import reference
from descriptorsim import (
    BellConfig,
    Chained,
    CustomGate,
    Decohered,
    GateApplication,
    Network,
    Plain,
    RotationY,
    SpaceLayout,
    WignerUndo,
    build_bell_network,
    oracle,
    simulate_statevector,
)
from descriptorsim.operators import Value, embed_matrix
from test_oracle import counting_embeddings

VARIANTS = [Plain(), Decohered(None), Decohered(5), Chained(2, 1), WignerUndo()]


def test_embedding_equals_the_strided_write_bit_for_bit(rng):
    for _ in range(60):
        dims = [2] * int(rng.integers(1, 5)) + [4]
        rng.shuffle(dims)
        layout = SpaceLayout(tuple((f"S{i}", d) for i, d in enumerate(dims)))
        k = int(rng.integers(1, min(3, len(dims)) + 1))
        targets = tuple(rng.permutation(layout.ids)[:k].tolist())  # in any order
        d = int(np.prod([layout.dim_of(sid) for sid in targets]))
        small = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        got, want = embed_matrix(small, targets, layout), reference.embed_matrix(small, targets, layout)
        assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
        assert got.flags.writeable  # the kept positions are not the result


def test_targets_out_of_layout_order_with_the_qudit_are_covered():
    layout = SpaceLayout((("a", 2), ("b", 4), ("c", 2)))
    small = np.arange(256).reshape(16, 16) * (1 + 1j)  # a corner of it is not contiguous
    for targets in [("b", "a"), ("c", "b", "a"), ("c", "a", "b"), ("b",)]:
        d = int(np.prod([layout.dim_of(sid) for sid in targets]))
        want = reference.embed_matrix(small[:d, :d], targets, layout)
        assert embed_matrix(small[:d, :d], targets, layout).tobytes() == want.tobytes()


@pytest.mark.parametrize("variant", VARIANTS, ids=repr)
def test_two_builds_share_every_angle_free_gate_and_no_slice(variant, monkeypatch):
    cfg = BellConfig(0.3, -1.1, variant)
    first = build_bell_network(cfg)
    built = []
    freeze = Value._freeze
    monkeypatch.setattr(Value, "_freeze", lambda self, *values: built.append(type(self)) or freeze(self, *values))
    second = build_bell_network(cfg)
    monkeypatch.undo()
    first_apps, apps = ([app for sl in network.slices for app in sl] for network in (first, second))
    assert [a.subsystems for a in first_apps] == [b.subsystems for b in apps]
    fresh = [app.gate for app in apps if isinstance(app.gate, (RotationY, CustomGate))]  # rotations, scramble
    assert [a.gate is not b.gate for a, b in zip(first_apps, apps)] == [any(b.gate is f for f in fresh) for b in apps]
    assert not any(s is t for s in first.slices for t in second.slices)
    # besides the applications, the build constructs its rotations and scramble and the network alone
    assert Counter(t for t in built if t is not GateApplication) == Counter([Network, *map(type, fresh)])


@pytest.mark.parametrize("variant", VARIANTS, ids=repr)
def test_the_oracle_embeds_every_gate_of_each_experiment(variant, monkeypatch):
    # dense up to N = 512, so every variant takes the embedding route
    monkeypatch.setattr(oracle, "DENSE_MAX_DIM", 512)
    cfg = BellConfig(0.3, -1.1, variant)
    first = simulate_statevector(build_bell_network(cfg))
    calls = counting_embeddings(monkeypatch)
    second = build_bell_network(cfg)
    assert second.layout.total_dim <= oracle.DENSE_MAX_DIM
    assert simulate_statevector(second).tobytes() == first.tobytes()
    assert calls == [app for sl in second.slices for app in sl]  # nothing kept from the first
