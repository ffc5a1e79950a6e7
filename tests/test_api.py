"""The algebraic tolerance is one constant, ``operators.DEFAULT_TOLERANCE``.

No public function or method of the layers above the operator algebra
takes a tolerance, and ``BellConfig`` carries none; only ``Operator``'s
primitive predicates keep a ``tol`` argument, for tighter checks.
"""

import dataclasses
import inspect

import pytest

import descriptorsim
from descriptorsim import bell, chsh, engine, foliation

TOLERANCE_NAMES = {"tol", "tolerance"}


def public_callables(module):
    """Name and function of every public function, and of every public
    method or constructor of a public class, defined in ``module``."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize(
    "module, known",
    [
        (bell, "run_bell"),
        (bell, "run_bells"),
        (chsh, "chsh_win_rate"),
        (engine, "is_sharp"),
        (foliation, "Foliation.refine"),
    ],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_no_public_callable_takes_a_tolerance(module, known):
    found = dict(public_callables(module))
    assert known in found
    takes_tolerance = [
        name
        for name, function in found.items()
        if TOLERANCE_NAMES & set(inspect.signature(function).parameters)
    ]
    assert takes_tolerance == []


def test_bell_config_has_no_tolerance_field():
    names = {f.name for f in dataclasses.fields(bell.BellConfig)}
    assert names == {"theta", "phi", "variant"}


def test_package_exports_the_sweep_runner():
    assert descriptorsim.run_bells is bell.run_bells
