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
    cokernel,
    equal_morphisms,
    find_isomorphism,
    identity_morphism,
    invert_isomorphism,
    is_injective,
    is_isomorphic,
    is_isomorphism,
    is_surjective,
    is_well_defined,
    lift,
    submodule_contains,
    submodules_equal,
    vanishes,
)
from .functors import (
    HomModule,
    hom_module,
    induced_hom,
    tensor_module,
)
