"""Finitely presented modules, morphisms and functors."""

from .modules import (
    FpModule,
    ModuleMorphism,
    Normalization,
    annihilator_generator,
    cyclic_module,
    direct_sum,
    element_keys,
    free_module,
    is_zero_module,
    module_elements,
    module_order,
    normalize,
)
from .morphisms import (
    compose,
    identity_morphism,
    is_injective,
    is_isomorphism,
    is_surjective,
    is_well_defined,
    submodule_contains,
    submodules_equal,
    vanishes,
)
from .functors import (
    HomModule,
    hom_module,
    induced_hom,
)
