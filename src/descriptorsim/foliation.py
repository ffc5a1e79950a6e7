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
Each split checks its control once, then builds its two projectors
unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .operators import (
    DEFAULT_TOLERANCE,
    AlgebraError,
    Operator,
    combination,
    half_sum,
)


class FoliationError(AlgebraError):
    """Control observable unsuitable for foliation."""


@dataclass(frozen=True)
class Branch:
    key: str  # one bit per split, in foliation order; eigenvalue +1 is 0
    projector: Operator  # the product of the split projectors; I at the root
    conditional: Operator  # the conditioned gates, latest on the left; I if none
    measure: float


@dataclass(frozen=True)
class Foliation:
    base: tuple[Operator, ...]  # the foliated descriptor's components
    branches: tuple[Branch, ...]

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
        proj = {s: half_sum(control, s) for s in (+1, -1)}
        new_branches = []
        for branch in self.branches:
            for sign, bit in ((+1, "0"), (-1, "1")):
                projector = branch.projector @ proj[sign]
                conditional = gate_poly @ branch.conditional if sign == -1 else branch.conditional
                new_branches.append(
                    Branch(branch.key + bit, projector, conditional, _real_measure(projector))
                )
        return Foliation(self.base, tuple(new_branches))

    def evolve_branches(self, gate_poly: Operator) -> "Foliation":
        """Follow-up unitary on the foliated system alone: every branch
        evolves independently, no splitting.  ``gate_poly`` again in base
        components."""
        return Foliation(
            self.base,
            tuple(
                Branch(b.key, b.projector, gate_poly @ b.conditional, b.measure)
                for b in self.branches
            ),
        )


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


def _real_measure(projector: Operator) -> float:
    value = projector.expectation()
    if abs(value.imag) > DEFAULT_TOLERANCE:
        raise AlgebraError(f"branch measure has imaginary part {value.imag}")
    return float(value.real)
