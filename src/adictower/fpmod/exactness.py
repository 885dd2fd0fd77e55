"""Exactness checks for complexes of finitely presented modules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

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


class ExactnessResult(NamedTuple):
    ok: bool
    failing_index: Optional[int]


def is_exact(maps: List[ModuleMorphism]) -> ExactnessResult:
    """Exactness at every interior node of a composable chain.

    ``failing_index`` is the first interior position (0-based, counting the
    target of maps[0] as position 0) where image and kernel differ.
    """
    for left, right in zip(maps, maps[1:]):
        if not right.source.same_presentation(left.target):
            raise ValueError("chain maps do not compose")
    for i in range(len(maps) - 1):
        left, right = maps[i], maps[i + 1]
        if not is_zero_morphism(compose(right, left)):
            return ExactnessResult(False, i)
        if lift(left, kernel_columns(right)) is None:
            return ExactnessResult(False, i)
    return ExactnessResult(True, None)


@dataclass(frozen=True)
class ShortExactSeq:
    left: FpModule
    middle: FpModule
    right: FpModule
    inject: ModuleMorphism
    surject: ModuleMorphism

    def validate(self) -> Tuple[bool, str]:
        """Full short-exactness: injectivity, surjectivity, middle exactness."""
        if not self.inject.source.same_presentation(self.left):
            return False, "inject does not start at the left module"
        if not self.inject.target.same_presentation(self.middle):
            return False, "inject does not end at the middle module"
        if not self.surject.source.same_presentation(self.middle):
            return False, "surject does not start at the middle module"
        if not self.surject.target.same_presentation(self.right):
            return False, "surject does not end at the right module"
        if not is_injective(self.inject):
            return False, "inject has nontrivial kernel"
        if not is_surjective(self.surject):
            return False, "surject is not onto"
        result = is_exact([self.inject, self.surject])
        if not result.ok:
            return False, "image of inject differs from kernel of surject"
        return True, ""


def submodule_quotient(
    ambient: FpModule, columns: Matrix
) -> Tuple[FpModule, ModuleMorphism, FpModule, ModuleMorphism]:
    """Submodule generated by the columns, its inclusion, the quotient by it,
    and the projection."""
    sub = submodule(ambient, columns)
    quot, proj = cokernel(sub.inclusion)
    return sub.module, sub.inclusion, quot, proj
