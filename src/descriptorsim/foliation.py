"""Foliation of descriptors into labeled relative descriptors.

A conditioned interaction whose control observable is unsharp splits a
descriptor into projector-weighted instances, one per control eigenvalue.
Each branch keeps three things: its key, one bit per split, the
accumulated projector onto the controlling eigenvalues, and the accumulated
conditioned unitary (expressed in the base: the foliated descriptor, a
tuple of components, which is where every later gate polynomial must be
expressed as well).  The branch's relative descriptor is projector *
W^dag(base component)W, component by component, and the branch measure
is the reference expectation of the projector.  :meth:`Foliation.branch_sum`
adds every branch's relative part of a component in one merge.

:func:`foliate` is the first split, a :meth:`Foliation.refine` of a root
foliation whose one branch has the empty key, measure 1 and the identity
as both projector and conditional: the unit of the descriptor algebra.
Each split checks its control once, and against the earlier splits'
controls, then builds its two projectors unchecked.  :func:`foliate_along`
places the splits: it walks an evolution through its network and splits a
target at each controlled gate onto it.
"""

from __future__ import annotations

import numpy as np

from .engine import NetworkEvolution, functional_form
from .gates import Controlled, GateApplication
from .operators import (
    DEFAULT_TOLERANCE,
    AlgebraError,
    Operator,
    Value,
    _below,
    combination,
    half_sum,
)


class FoliationError(AlgebraError):
    """Control observable unsuitable for foliation."""


class Branch(Value):
    """``key``: a bit per split, in order, 0 for eigenvalue +1; ``projector``: the split projectors' product, I at
    the root; ``conditional``: the conditioned gates, latest on the left, I if none; ``measure``, or one per member."""

    _fields = ("key", "projector", "conditional", "measure")

    def __init__(self, key: str, projector: Operator, conditional: Operator, measure: float) -> None:
        self._freeze(key, projector, conditional, measure)


class Foliation(Value):
    """The foliated descriptor's components ``base``, its ``branches``, and each split's control, in split order."""

    _fields = ("base", "branches", "controls")

    def __init__(self, base: tuple[Operator, ...], branches: tuple[Branch, ...], controls: tuple[Operator, ...] = ()):
        self._freeze(base, branches, controls)

    def relative_components(self, branch: Branch) -> tuple[Operator, ...]:
        p, w = branch.projector, branch.conditional
        return tuple(p @ (w.H @ c @ w) for c in self.base)

    def branch_sum(self) -> tuple[Operator, ...]:
        """Componentwise sum of all relative descriptors; reconstructs the
        evolved descriptor."""
        relative = [self.relative_components(b) for b in self.branches]
        return tuple(combination(comps, [1] * len(comps)) for comps in zip(*relative))

    def measures(self) -> dict[str, float]:
        return {b.key: b.measure for b in self.branches}

    def refine(self, control: Operator, gate_poly: Operator) -> "Foliation":
        """Split every branch again by a further conditioned interaction.

        ``gate_poly`` is the conditioned unitary expressed in the base
        components; within a branch it multiplies the accumulated
        conditional from the left.
        """
        _check_interaction(control, gate_poly, self.base)
        if not all(control.commutes_with(c) for c in self.controls):
            raise FoliationError("control does not commute with an earlier split's control")
        proj = {s: half_sum(control, s) for s in (+1, -1)}
        new_branches = []
        for branch in self.branches:
            for sign, bit in ((+1, "0"), (-1, "1")):
                projector = branch.projector @ proj[sign]
                conditional = gate_poly @ branch.conditional if sign == -1 else branch.conditional
                new_branches.append(Branch(branch.key + bit, projector, conditional, _real_measure(projector)))
        return Foliation(self.base, tuple(new_branches), self.controls + (control,))

    def evolve_branches(self, gate_poly: Operator) -> "Foliation":
        """Follow-up unitary on the foliated system alone: every branch
        evolves independently, no splitting.  ``gate_poly`` again in base
        components."""
        branches = (Branch(b.key, b.projector, gate_poly @ b.conditional, b.measure) for b in self.branches)
        return Foliation(self.base, tuple(branches), self.controls)


def foliate(
    target: tuple[Operator, ...], control: Operator, gate_poly: Operator
) -> Foliation:
    """Split ``target`` under a conditioned interaction into two labeled
    relative descriptors.

    The +1 branch of the control is untouched; the -1 branch is conjugated
    by ``gate_poly`` (the conditioned unitary's functional form at the
    target's current time).  A sharp control is permitted and yields a
    measure-0 branch.
    """
    identity = Operator.identity(target[0].layout)
    root = Foliation(target, (Branch("", identity, identity, 1.0),))
    return root.refine(control, gate_poly)


def foliate_along(evolution: NetworkEvolution, target: str) -> Foliation:
    """Run ``evolution`` to its network's end, foliating ``target``: gates
    on it evolve it until the first controlled gate on (control, target),
    where :func:`foliate` splits its descriptor, the base; each later one
    refines.  Each split is by the control's clock and the inner gate's
    functional form on the base; a split that fails its checks raises,
    naming the gate.  A later gate on ``target`` alone evolves every
    branch; any other gate on it after the first split, or no split at all,
    raises."""
    fol, base = None, {}
    for t, applications in enumerate(evolution.network.slices[evolution.time:], evolution.time):
        now = evolution.descriptors
        for app in (a for a in applications if target in a.subsystems):
            split = isinstance(app.gate, Controlled) and app.subsystems[1:] == (target,)
            if fol is not None and not split and app.subsystems != (target,):
                raise FoliationError(f"{app.gate!r} on {app.subsystems} at time {t} "
                                     f"touches the foliated {target!r}")
            if split:
                base = base or {target: now[target]}
                clock = now[app.subsystems[0]][1]
                poly = functional_form(GateApplication(app.gate.gate, (target,)), base)
                try:
                    fol = foliate(base[target], clock, poly) if fol is None else fol.refine(clock, poly)
                except FoliationError as e:
                    raise FoliationError(f"{app.gate!r} on {app.subsystems} at time {t} "
                                         f"splits by a control: {e}") from e
            elif fol is not None:
                fol = fol.evolve_branches(functional_form(app, base))
        evolution.advance()
    if fol is None:
        raise FoliationError(f"no controlled gate onto {target!r}")
    return fol


def _check_interaction(
    control: Operator, gate_poly: Operator, target: tuple[Operator, ...]
) -> None:
    """The conditioned interaction a split is made by: an involutive
    control commuting with the target, and a unitary gate polynomial."""
    if not control.is_involution():
        raise FoliationError("control observable is not an involution")
    for c in target:
        if not control.commutes_with(c):
            raise FoliationError(
                "control observable does not commute with the target descriptor"
            )
    if not gate_poly.is_unitary():
        raise FoliationError("conditioned gate polynomial is not unitary")


def _real_measure(projector: Operator) -> float | np.ndarray:
    """The projector's reference expectation, which must be real; one per
    member of a sweep."""
    value = projector.expectation()
    if not _below(abs(value.imag), DEFAULT_TOLERANCE):
        raise AlgebraError(f"branch measure has imaginary part {value.imag}")
    return value.real
