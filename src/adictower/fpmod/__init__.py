"""Finitely presented modules, morphisms, functors and exactness."""

from .modules import (
    FpModule,
    ModuleMorphism,
    Normalization,
    annihilator_generator,
    cyclic_module,
    direct_sum,
    element_key,
    free_module,
    is_zero_module,
    module_elements,
    module_order,
    normalize,
    zero_module,
)
from .morphisms import (
    Submodule,
    compose,
    cokernel,
    equal_morphisms,
    find_isomorphism,
    identity_morphism,
    image,
    invert_isomorphism,
    is_injective,
    is_isomorphism,
    is_surjective,
    is_well_defined,
    is_zero_morphism,
    kernel,
    lift,
    submodule,
    submodule_contains,
    submodules_equal,
    zero_morphism,
)
from .functors import (
    HomModule,
    TensorModule,
    hom_module,
    induced_hom,
    tensor_map_left,
    tensor_map_right,
    tensor_module,
)
from .exactness import (
    is_exact,
    short_exact_failure,
    submodule_quotient,
)
