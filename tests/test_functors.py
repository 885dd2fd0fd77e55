"""Hom and tensor functors against brute-force enumeration oracles.

For cyclic inputs Z/d and Z/e every morphism is a scalar, so the hom and
tensor modules can be counted from first principles: morphisms Z/d -> Z/e
are scalars c with e | c*d (there are gcd(d, e) classes), and
Z/d (x) Z/e has gcd(d, e) elements.  The functor layer must agree with
those counts and with element-by-element enumeration.
"""

import math

from adictower.exactalg.matrices import Matrix
from adictower.exactalg.rings import integer_ring, polynomial_ring
from adictower.fpmod.modules import (
    FpModule,
    ModuleMorphism,
    cyclic_module,
    element_key,
    module_order,
)
from adictower.fpmod.functors import (
    hom_module,
    induced_hom,
    tensor_map_left,
    tensor_map_right,
    tensor_module,
)
from adictower.fpmod.morphisms import (
    compose,
    equal_morphisms,
    is_well_defined,
    is_isomorphism,
)

Z = integer_ring()
F2X = polynomial_ring(2)


def zmod(n):
    return cyclic_module(Z, n)


def scalar_hom(source, target, c):
    return ModuleMorphism(source, target, Matrix.from_rows(Z, [[c]]))


def brute_force_morphisms(d, e):
    """All distinct morphisms Z/d -> Z/e as canonical scalar classes."""
    out = set()
    for c in range(e):
        if (c * d) % e == 0:
            out.add(c)
    return out


def test_hom_order_matches_brute_force_counts():
    for d in range(2, 13):
        for e in range(2, 13):
            hom = hom_module(zmod(d), zmod(e))
            assert module_order(hom.module) == len(brute_force_morphisms(d, e))
            assert module_order(hom.module) == math.gcd(d, e)


def test_tensor_order_matches_gcd():
    for d in range(2, 13):
        for e in range(2, 13):
            tens = tensor_module(zmod(d), zmod(e))
            assert module_order(tens.module) == math.gcd(d, e)


def test_hom_frozen_examples():
    assert module_order(hom_module(zmod(4), zmod(8)).module) == 4
    assert module_order(hom_module(zmod(2), zmod(3)).module) == 1
    assert module_order(tensor_module(zmod(4), zmod(6)).module) == 2


def test_encode_decode_roundtrip_all_morphisms():
    for d, e in ((4, 8), (6, 4), (9, 3), (2, 2)):
        hom = hom_module(zmod(d), zmod(e))
        seen = set()
        for c in brute_force_morphisms(d, e):
            f = scalar_hom(zmod(d), zmod(e), c)
            col = hom.encode(f)
            back = hom.decode(col)
            assert equal_morphisms(back, f)
            seen.add(element_key(hom.module, col))
        # encoding separates distinct morphisms and reaches every class
        assert len(seen) == module_order(hom.module)


def test_encode_rejects_non_morphism():
    hom = hom_module(zmod(4), zmod(8))
    bad = scalar_hom(zmod(4), zmod(8), 1)
    try:
        hom.encode(bad)
    except ValueError:
        pass
    else:
        raise AssertionError("encode accepted a non-morphism")


def test_basis_morphisms_are_well_defined():
    hom = hom_module(zmod(4), zmod(8))
    for t in range(len(hom.basis)):
        f = hom.basis_morphism(t)
        assert is_well_defined(f)


def test_induced_hom_precomposition():
    # restriction along Z/2 -> Z/4 (doubling) on Hom(-, Z/4)
    incl = scalar_hom(zmod(2), zmod(4), 2)
    restricted = induced_hom(incl, zmod(4), "pre")
    assert is_well_defined(restricted)
    hom_big = hom_module(zmod(4), zmod(4))
    hom_small = hom_module(zmod(2), zmod(4))
    assert restricted.source.same_presentation(hom_big.module)
    assert restricted.target.same_presentation(hom_small.module)
    ident = hom_big.encode(scalar_hom(zmod(4), zmod(4), 1))
    moved = hom_small.decode(restricted.matrix @ ident)
    assert equal_morphisms(moved, compose(scalar_hom(zmod(4), zmod(4), 1), incl))


def test_induced_hom_postcomposition():
    step = scalar_hom(zmod(4), zmod(8), 2)
    pushed = induced_hom(step, zmod(2), "post")
    hom_from = hom_module(zmod(2), zmod(4))
    hom_to = hom_module(zmod(2), zmod(8))
    assert pushed.source.same_presentation(hom_from.module)
    assert pushed.target.same_presentation(hom_to.module)
    f = scalar_hom(zmod(2), zmod(4), 2)
    moved = hom_to.decode(pushed.matrix @ hom_from.encode(f))
    assert equal_morphisms(moved, compose(step, f))


def test_tensor_pure_elements():
    tens = tensor_module(zmod(4), zmod(6))
    a = Matrix.column(Z, [1])
    b = Matrix.column(Z, [3])
    pure = tens.pure(a, b)
    assert pure.rows == tens.module.generators
    # 1 (x) 3 = 3 (1 (x) 1) which is 3 mod 2 = 1 times the generator
    one_one = tens.pure(a, Matrix.column(Z, [1]))
    assert element_key(tens.module, pure) == element_key(
        tens.module, one_one.scale(3)
    )


def test_tensor_maps_commute_on_pure_tensors():
    left = scalar_hom(zmod(4), zmod(8), 2)
    tens_src = tensor_module(zmod(4), zmod(6))
    tens_dst = tensor_module(zmod(8), zmod(6))
    lifted = tensor_map_left(left, zmod(6))
    assert lifted.source.same_presentation(tens_src.module)
    assert lifted.target.same_presentation(tens_dst.module)
    a = Matrix.column(Z, [1])
    b = Matrix.column(Z, [1])
    moved = lifted.matrix @ tens_src.pure(a, b)
    direct = tens_dst.pure(left.matrix @ a, b)
    assert element_key(tens_dst.module, moved) == element_key(
        tens_dst.module, direct
    )


def test_tensor_map_right_identity():
    f = scalar_hom(zmod(6), zmod(6), 5)
    lifted = tensor_map_right(zmod(4), f)
    assert is_isomorphism(lifted)


def test_hom_adjunction_order_spot_check():
    # |Hom(A (x) B, C)| = |Hom(A, Hom(B, C))| for cyclic pieces
    for d, e, f in ((2, 4, 8), (6, 4, 3), (9, 6, 12)):
        lhs = hom_module(tensor_module(zmod(d), zmod(e)).module, zmod(f))
        rhs = hom_module(zmod(d), hom_module(zmod(e), zmod(f)).module)
        assert module_order(lhs.module) == module_order(rhs.module)


def test_polynomial_hom_counts():
    x = (0, 1)
    x2 = F2X.mul(x, x)
    small = cyclic_module(F2X, x)
    big = cyclic_module(F2X, x2)
    hom = hom_module(small, big)
    assert module_order(hom.module) == 2
    hom_endo = hom_module(big, big)
    assert module_order(hom_endo.module) == 4


def test_hom_of_two_generator_module():
    two_four = FpModule(Z, 2, Matrix.from_rows(Z, [[2, 0], [0, 4]]))
    hom = hom_module(two_four, two_four)
    # End(Z/2 + Z/4) has order gcd-grid product 2*2*2*4 = 32
    assert module_order(hom.module) == 32
    ident = ModuleMorphism(two_four, two_four, Matrix.identity(Z, 2))
    col = hom.encode(ident)
    assert equal_morphisms(hom.decode(col), ident)
