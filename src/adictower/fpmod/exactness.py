"""Exactness checks for complexes of finitely presented modules.

Short exact sequences of finite modules are decided by counting: once the
ends are certified injective and surjective, the middle is exact when the
composite is zero and |A|.|C| = |B|.  A free part anywhere takes the
kernel columns of the right map and lifts them through the left one.  A
quotient by a submodule is the cokernel of a map onto its generators
(:func:`adictower.fpmod.morphisms.cokernel`).
"""

from __future__ import annotations

from typing import List, Optional

from .modules import ModuleMorphism, module_order
from .morphisms import (
    compose,
    is_injective,
    is_surjective,
    is_zero_morphism,
    kernel_columns,
    lift,
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

    ``inject`` must end where ``surject`` starts, and both must be well
    defined: the decision counts elements of their images.  With A, B and
    C finite, an injective ``inject`` and a surjective ``surject`` with
    zero composite are exact in the middle exactly when |A|.|C| = |B|.
    """
    if not is_injective(inject):
        return "inject has nontrivial kernel"
    if not is_surjective(surject):
        return "surject is not onto"
    ends = (inject.source, inject.target, surject.target)
    orders = [module_order(m) for m in ends]
    if None in orders:
        exact = is_exact([inject, surject])
    else:
        exact = (
            is_zero_morphism(compose(surject, inject))
            and orders[0] * orders[2] == orders[1]
        )
    if not exact:
        return "image of inject differs from kernel of surject"
    return None

