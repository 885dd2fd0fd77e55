"""Morphism calculus: well-definedness, kernels, cokernels, isomorphisms."""

import pytest
from hypothesis import given, settings, strategies as st

from adictower.exactalg.matrices import Matrix, hstack
from adictower.exactalg.rings import integer_ring, polynomial_ring
from adictower.fpmod.modules import (
    FpModule,
    ModuleMorphism,
    cyclic_module,
    element_key,
    module_elements,
    module_order,
)
from adictower.fpmod.morphisms import (
    cokernel,
    compose,
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

Z = integer_ring()


def zmod(n):
    return cyclic_module(Z, n)


def hom(source, target, rows):
    return ModuleMorphism(source, target, Matrix.from_rows(Z, rows))


def test_well_definedness():
    # doubling Z/4 -> Z/8 respects relations, identity coordinates do not
    assert is_well_defined(hom(zmod(4), zmod(8), [[2]]))
    assert not is_well_defined(hom(zmod(4), zmod(8), [[1]]))
    assert is_well_defined(hom(zmod(8), zmod(4), [[1]]))


def test_equality_modulo_relations():
    f = hom(zmod(4), zmod(4), [[1]])
    g = hom(zmod(4), zmod(4), [[5]])
    h = hom(zmod(4), zmod(4), [[2]])
    assert equal_morphisms(f, g)
    assert not equal_morphisms(f, h)
    assert is_zero_morphism(hom(zmod(4), zmod(4), [[4]]))


def test_kernel_of_reduction():
    red = hom(zmod(8), zmod(2), [[1]])
    ker = kernel(red)
    assert module_order(ker.module) == 4
    assert is_zero_morphism(compose(red, ker.inclusion))


def test_cokernel_of_multiplication():
    double = hom(zmod(8), zmod(8), [[2]])
    coker, proj = cokernel(double)
    assert module_order(coker) == 2
    assert is_zero_morphism(compose(proj, double))


def test_order_multiplicativity_through_image():
    f = hom(zmod(12), zmod(12), [[4]])
    ker = kernel(f)
    img = image(f)
    assert module_order(ker.module) * module_order(img.module) == 12
    # f factors through its image: the inclusion is injective and every
    # column of f lifts through it
    assert is_injective(img.inclusion)
    assert lift(img.inclusion, f.matrix) is not None


def test_injective_surjective_iso():
    f = hom(zmod(6), zmod(6), [[5]])
    assert is_injective(f) and is_surjective(f) and is_isomorphism(f)
    back = invert_isomorphism(f)
    assert equal_morphisms(compose(back, f), identity_morphism(zmod(6)))
    assert equal_morphisms(compose(f, back), identity_morphism(zmod(6)))
    g = hom(zmod(6), zmod(6), [[2]])
    assert not is_injective(g)
    assert not is_surjective(g)
    with pytest.raises(ValueError):
        invert_isomorphism(g)


def test_find_isomorphism_matches_invariants():
    two_three = FpModule(Z, 2, Matrix.from_rows(Z, [[2, 0], [0, 3]]))
    six = zmod(6)
    iso = find_isomorphism(two_three, six)
    assert iso is not None
    assert is_isomorphism(iso)
    two_four = FpModule(Z, 2, Matrix.from_rows(Z, [[2, 0], [0, 4]]))
    assert find_isomorphism(two_four, zmod(8)) is None


def test_submodule_saturation():
    amb = zmod(8)
    sub = submodule(amb, Matrix.from_rows(Z, [[2]]))
    assert module_order(sub.module) == 4
    assert is_injective(sub.inclusion)
    assert submodule_contains(amb, Matrix.from_rows(Z, [[2]]), Matrix.from_rows(Z, [[4]]))
    assert not submodule_contains(amb, Matrix.from_rows(Z, [[4]]), Matrix.from_rows(Z, [[2]]))
    assert submodules_equal(amb, Matrix.from_rows(Z, [[2]]), Matrix.from_rows(Z, [[6]]))


def test_zero_morphism_properties():
    z = zero_morphism(zmod(4), zmod(8))
    assert is_zero_morphism(z)
    assert module_order(kernel(z).module) == 4


@given(st.integers(2, 12), st.integers(2, 12), st.integers(-12, 12))
@settings(max_examples=60, deadline=None)
def test_well_defined_iff_divisibility(d, e, c):
    # a scalar c defines Z/d -> Z/e exactly when e divides c*d
    f = hom(zmod(d), zmod(e), [[c]])
    assert is_well_defined(f) == ((c * d) % e == 0)


@given(st.integers(2, 10), st.integers(-10, 10))
@settings(max_examples=60, deadline=None)
def test_kernel_image_order_product(d, c):
    f = hom(zmod(d), zmod(d), [[c]])
    ker = kernel(f)
    img = image(f)
    assert module_order(ker.module) * module_order(img.module) == d


def _elements(ring, nonunit=False):
    """Small ring elements: |n| <= 4 over Z, degree <= 1 over F_p[x];
    ``nonunit`` draws 2..6 over Z and degree exactly 1 over F_p[x]."""
    p = ring.characteristic
    if ring.kind == "integers":
        return st.integers(2, 6) if nonunit else st.integers(-4, 4)
    lead = st.integers(1, p - 1) if nonunit else st.integers(0, p - 1)
    return st.tuples(st.integers(0, p - 1), lead).map(ring.canonical)


def _finite_module(data, ring):
    """One or two generators with upper triangular relations of non-unit
    diagonal, so the module is finite and nonzero."""
    k = data.draw(st.integers(1, 2))
    rows = [
        [
            data.draw(_elements(ring, nonunit=i == j)) if i <= j else ring.zero
            for j in range(k)
        ]
        for i in range(k)
    ]
    return FpModule(ring, k, Matrix.from_rows(ring, rows))


@given(
    st.sampled_from([Z, polynomial_ring(2), polynomial_ring(3)]),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_lift_finds_a_preimage_exactly_when_one_exists(ring, data):
    source = _finite_module(data, ring)
    base = _finite_module(data, ring)
    # a common factor keeps the image of f a proper submodule now and then
    factor = data.draw(st.one_of(st.just(ring.one), _elements(ring, nonunit=True)))
    mat = Matrix.from_rows(
        ring,
        [
            [data.draw(_elements(ring)) for _ in range(source.generators)]
            for _ in range(base.generators)
        ],
    ).scale(factor)
    # adding the images of the source relations makes f well defined
    target = FpModule(
        ring, base.generators, hstack([base.relations, mat @ source.relations])
    )
    f = ModuleMorphism(source, target, mat)
    assert is_well_defined(f)
    y = Matrix.column(ring, [data.draw(_elements(ring)) for _ in range(target.generators)])
    image_keys = {element_key(target, mat @ x) for x in module_elements(source, 64)}
    x = lift(f, y)
    assert (x is None) == (element_key(target, y) not in image_keys)
    if x is not None:
        assert element_key(target, mat @ x) == element_key(target, y)
