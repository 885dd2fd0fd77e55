"""Morphism calculus: well-definedness, kernels, cokernels, isomorphisms."""

import pytest
from hypothesis import given, settings, strategies as st

from adictower import memo
from adictower.exactalg.matrices import Matrix, hstack
from adictower.exactalg.rings import integer_ring, polynomial_ring
from adictower.fpmod.modules import (
    FpModule,
    ModuleMorphism,
    cyclic_module,
    free_module,
    module_elements,
    module_order,
)
from adictower.fpmod.morphisms import (
    cokernel,
    compose,
    find_isomorphism,
    identity_morphism,
    is_injective,
    is_isomorphism,
    is_surjective,
    is_well_defined,
    kernel,
    submodule_contains,
    submodules_equal,
)
from oracles import (
    element_key,
    equal_morphisms,
    invert_isomorphism,
    is_zero_morphism,
    lift,
    zero_morphism,
)
from strategies import finite_module, ring_elements

Z = integer_ring()


def zmod(n):
    return cyclic_module(Z, n)


def hom(source, target, rows):
    return ModuleMorphism(source, target, Matrix.from_rows(Z, rows))


def image(f):
    """Inclusion of the image of f: the kernel of its cokernel projection."""
    return kernel(cokernel(f)[1])


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
    assert module_order(ker.source) == 4
    assert is_zero_morphism(compose(red, ker))


def test_cokernel_of_multiplication():
    double = hom(zmod(8), zmod(8), [[2]])
    coker, proj = cokernel(double)
    assert module_order(coker) == 2
    assert is_zero_morphism(compose(proj, double))


def test_order_multiplicativity_through_image():
    f = hom(zmod(12), zmod(12), [[4]])
    ker = kernel(f)
    img = image(f)
    assert module_order(ker.source) * module_order(img.source) == 12
    # f factors through its image: the inclusion is injective and every
    # column of f lifts through it
    assert is_injective(img)
    assert lift(img, f.matrix) is not None


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
    two_three = FpModule(Matrix.from_rows(Z, [[2, 0], [0, 3]]))
    six = zmod(6)
    iso = find_isomorphism(two_three, six)
    assert iso is not None
    assert is_isomorphism(iso)
    two_four = FpModule(Matrix.from_rows(Z, [[2, 0], [0, 4]]))
    assert find_isomorphism(two_four, zmod(8)) is None


def test_submodule_saturation():
    amb = zmod(8)
    sub = image(hom(free_module(Z, 1), amb, [[2]]))
    assert module_order(sub.source) == 4
    assert is_injective(sub)
    assert submodule_contains(amb, Matrix.from_rows(Z, [[2]]), Matrix.from_rows(Z, [[4]]))
    assert not submodule_contains(amb, Matrix.from_rows(Z, [[4]]), Matrix.from_rows(Z, [[2]]))
    assert submodules_equal(amb, Matrix.from_rows(Z, [[2]]), Matrix.from_rows(Z, [[6]]))


def test_zero_morphism_properties():
    z = zero_morphism(zmod(4), zmod(8))
    assert is_zero_morphism(z)
    assert module_order(kernel(z).source) == 4


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
    assert module_order(ker.source) * module_order(img.source) == d


@given(
    st.sampled_from([Z, polynomial_ring(2), polynomial_ring(3)]),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_lift_finds_a_preimage_exactly_when_one_exists(ring, data):
    source = finite_module(data, ring)
    base = finite_module(data, ring)
    # a common factor keeps the image of f a proper submodule now and then
    factor = data.draw(st.one_of(st.just(ring.one), ring_elements(ring, nonunit=True)))
    mat = Matrix.from_rows(
        ring,
        [
            [data.draw(ring_elements(ring)) for _ in range(source.generators)]
            for _ in range(base.generators)
        ],
    ).scale(factor)
    # adding the images of the source relations makes f well defined
    target = FpModule(hstack([base.relations, mat @ source.relations]))
    f = ModuleMorphism(source, target, mat)
    assert is_well_defined(f)
    y = Matrix.column(ring, [data.draw(ring_elements(ring)) for _ in range(target.generators)])
    image_keys = {element_key(target, mat @ x) for x in module_elements(source, 64)}
    x = lift(f, y)
    assert (x is None) == (element_key(target, y) not in image_keys)
    if x is not None:
        assert element_key(target, mat @ x) == element_key(target, y)


def _predicate_answers(f):
    """Every predicate on f; injectivity only where f is well defined, its
    precondition."""
    defined = is_well_defined(f)
    injective = is_injective(f) if defined else None
    return defined, injective, is_surjective(f), is_isomorphism(f)


@given(
    st.sampled_from([Z, polynomial_ring(2), polynomial_ring(3)]),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_memoised_predicates_match_unscoped(ring, data):
    assert memo._memo is None
    source = finite_module(data, ring)
    base = finite_module(data, ring)
    mat = Matrix.from_rows(
        ring,
        [
            [data.draw(ring_elements(ring)) for _ in range(source.generators)]
            for _ in range(base.generators)
        ],
    )
    relations = base.relations
    if data.draw(st.booleans()):
        # adding the images of the source relations makes f well defined
        relations = hstack([relations, mat @ source.relations])
    f = ModuleMorphism(source, FpModule(relations), mat)
    factor = data.draw(ring_elements(ring, nonunit=True))
    # the same matrix between other presentations: a key that missed a
    # relations matrix would hand f their answers
    decoys = [
        ModuleMorphism(source, free_module(ring, base.generators), mat),
        ModuleMorphism(FpModule(source.relations.scale(factor)), f.target, mat),
        ModuleMorphism(source, FpModule(hstack([relations, mat])), mat),
    ]
    unscoped = _predicate_answers(f)
    with memo.memo_scope():
        for decoy in decoys:
            _predicate_answers(decoy)
        assert _predicate_answers(f) == unscoped
        stored = len(memo._memo)
        # new module objects with the same presentations: answered from
        # the memo, without a new entry
        twin = ModuleMorphism(
            FpModule(source.relations),
            FpModule(relations),
            Matrix.from_rows(ring, mat.to_lists()),
        )
        assert _predicate_answers(twin) == unscoped
        assert len(memo._memo) == stored
