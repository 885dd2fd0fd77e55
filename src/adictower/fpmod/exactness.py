"""Exactness checks for complexes of finitely presented modules."""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..exactalg.matrices import Matrix
from .modules import FpModule, ModuleMorphism
from .morphisms import (
    cokernel,
    compose,
    is_injective,
    is_surjective,
    is_zero_morphism,
    kernel_columns,
    lift,
    submodule,
)


def is_exact(maps: List[ModuleMorphism]) -> bool:
    """Exactness at every interior node of a chain: each image equals the
    next kernel.  ``compose`` raises ``ValueError`` on maps that do not
    chain."""
    return all(
        is_zero_morphism(compose(right, left))
        and lift(left, kernel_columns(right)) is not None
        for left, right in zip(maps, maps[1:])
    )


def short_exact_failure(
    inject: ModuleMorphism, surject: ModuleMorphism
) -> Optional[str]:
    """Why 0 -> A -> B -> C -> 0 is not short exact, or None when it is.

    ``inject`` must end where ``surject`` starts.
    """
    if not is_injective(inject):
        return "inject has nontrivial kernel"
    if not is_surjective(surject):
        return "surject is not onto"
    if not is_exact([inject, surject]):
        return "image of inject differs from kernel of surject"
    return None


def submodule_quotient(
    ambient: FpModule, columns: Matrix
) -> Tuple[FpModule, ModuleMorphism, FpModule, ModuleMorphism]:
    """Submodule generated by the columns, its inclusion, the quotient by it,
    and the projection."""
    sub = submodule(ambient, columns)
    quot, proj = cokernel(sub.inclusion)
    return sub.module, sub.inclusion, quot, proj
