"""Finitely presented modules: normalization, orders, element listing."""

import pytest
from hypothesis import given, settings, strategies as st

from adictower.exactalg.matrices import Matrix, hstack
from adictower.exactalg.rings import integer_ring, polynomial_ring
from adictower.memo import memo_scope
from adictower.fpmod.functors import hom_module, tensor_module
from adictower.fpmod.modules import (
    FpModule,
    ModuleMorphism,
    annihilator_generator,
    cyclic_module,
    direct_sum,
    free_module,
    is_zero_module,
    module_elements,
    module_order,
    normalize,
)
from oracles import element_key, power
from strategies import finite_module, ring_elements

Z = integer_ring()
F2X = polynomial_ring(2)
F3X = polynomial_ring(3)


def test_cyclic_module_shape():
    m = cyclic_module(Z, 4)
    assert m.generators == 1
    assert m.relations.to_lists() == [[4]]
    assert module_order(m) == 4


def test_free_and_zero_modules():
    f = free_module(Z, 2)
    assert module_order(f) is None
    assert not is_zero_module(f)
    z = free_module(Z, 0)
    assert is_zero_module(z)
    assert module_order(z) == 1
    assert annihilator_generator(z) == 1


def test_normalize_diagonal_presentation():
    # presentation with mixed torsion and a unit row to be dropped
    rel = Matrix.from_rows(Z, [[2, 0], [0, 1], [0, 0]])
    m = FpModule(rel)
    n = normalize(m)
    assert n.factors == (2,)
    assert n.rank == 1
    assert module_order(m) is None


def test_normalize_roundtrip_maps():
    rel = Matrix.from_rows(Z, [[4, 6], [0, 12]])
    m = FpModule(rel)
    n = normalize(m)
    fwd_back = n.to_standard @ n.from_standard
    assert fwd_back.entries == Matrix.identity(Z, n.standard.generators).entries
    order = 1
    for f in n.factors:
        order *= abs(f)
    assert module_order(m) == order


def test_annihilator_generator():
    assert annihilator_generator(cyclic_module(Z, 8)) == 8
    two_four = FpModule(Matrix.from_rows(Z, [[2, 0], [0, 4]]))
    assert annihilator_generator(two_four) == 4
    assert annihilator_generator(free_module(Z, 1)) == 0


def test_module_elements_and_keys():
    m = cyclic_module(Z, 3)
    elems = module_elements(m, 10)
    assert len(elems) == 3
    keys = {element_key(m, e) for e in elems}
    assert len(keys) == 3
    # shifting by a relation does not change the key
    a = Matrix.column(Z, [1])
    b = Matrix.column(Z, [4])
    assert element_key(m, a) == element_key(m, b)


def test_module_elements_respects_bound():
    m = cyclic_module(Z, 64)
    assert module_elements(m, 10) is None
    assert module_elements(free_module(Z, 1), 10) is None


def test_direct_sum_roundtrip():
    a = cyclic_module(Z, 2)
    b = cyclic_module(Z, 3)
    summed, injs, projs = direct_sum([a, b])
    assert summed.generators == 2
    assert module_order(summed) == 6
    for i, (inj, proj) in enumerate(zip(injs, projs)):
        assert inj.source.generators == 1
        assert (proj.matrix @ inj.matrix).entries == Matrix.identity(Z, 1).entries
    cross = projs[0].matrix @ injs[1].matrix
    assert cross.is_zero()


def test_polynomial_module_order():
    x = F2X.parse("x")
    m = cyclic_module(F2X, F2X.mul(x, x))
    assert module_order(m) == 4
    assert F2X.format(annihilator_generator(m)) == "x^2"


@given(st.sampled_from([Z, F2X, polynomial_ring(3)]), st.data())
@settings(max_examples=60, deadline=None)
def test_equal_relations_share_a_normalization(ring, data):
    # A module is its presentation: equal relations, built apart, make
    # equal modules that share every stored result.
    first = finite_module(data, ring)
    second = FpModule(Matrix.from_rows(ring, first.relations.to_lists()))
    assert first is not second and first.relations is not second.relations
    assert first == second and hash(first) == hash(second)
    with memo_scope():
        assert normalize(first) is normalize(second)
        assert hom_module(first, first) is hom_module(second, second)
    # maps on distinct but equal modules are equal maps
    unit = Matrix.identity(ring, first.generators)
    assert ModuleMorphism(first, first, unit) == ModuleMorphism(second, second, unit)
    # other relations make another module, even an isomorphic one
    factor = data.draw(ring_elements(ring, nonunit=True))
    for other in (
        FpModule(first.relations.scale(factor)),
        FpModule(hstack([first.relations, first.relations])),
    ):
        assert other != first


def test_morphism_matrix_must_fit_its_endpoints():
    z3, z9 = cyclic_module(Z, 3), cyclic_module(Z, 9)
    with pytest.raises(ValueError, match="wrong number of rows"):
        ModuleMorphism(z3, free_module(Z, 2), Matrix.identity(Z, 1))
    with pytest.raises(ValueError, match="wrong number of columns"):
        ModuleMorphism(free_module(Z, 2), z3, Matrix.identity(Z, 1))
    over_f2 = cyclic_module(F2X, F2X.parse("x"))
    for source, target, ring in (
        (z3, z9, F2X),
        (over_f2, z3, Z),
        (z3, over_f2, Z),
    ):
        with pytest.raises(ValueError, match="different rings"):
            ModuleMorphism(source, target, Matrix.identity(ring, 1))


def test_morphisms_are_equal_and_hash_by_endpoints_and_matrix():
    z4 = cyclic_module(Z, 4)
    f = ModuleMorphism(z4, z4, Matrix.from_rows(Z, [[3]]))
    twin = ModuleMorphism(cyclic_module(Z, 4), cyclic_module(Z, 4), Matrix.from_rows(Z, [[3]]))
    assert f is not twin and f == twin and hash(f) == hash(twin)
    assert hash(f) == hash((f.source, f.target, f.matrix))
    assert f != (f.source, f.target, f.matrix)
    assert f != ModuleMorphism(cyclic_module(Z, 8), z4, f.matrix)


def test_levels_61_apart_hash_apart():
    # 2**61 = 1 mod 2**61 - 1, the modulus of Python's integer hash; module
    # hashes must not repeat with that period along a 2-adic tower.
    hashes = {hash(cyclic_module(Z, 2**n)) for n in range(1, 257)}
    assert len(hashes) == 256


def test_module_with_an_entry_of_degree_20000_builds_and_hashes():
    # The entry's int has about 6,000 decimal digits, more than str()
    # writes; the module hashes all the same, and equal relations built
    # apart hash alike.
    x = F2X.parse("x")
    top = F2X.add(power(F2X, x, 20_000), F2X.one)
    first = cyclic_module(F2X, top)
    second = FpModule(Matrix.from_rows(F2X, [[top]]))
    assert first == second and hash(first) == hash(second)
    assert first != cyclic_module(F2X, power(F2X, x, 20_000))


def test_powers_of_x_61_apart_are_apart_over_f2():
    # Packed, x^5 and x^66 are 2**5 and 2**66, which Python's integer hash
    # maps to the same residue mod 2**61 - 1.
    low, high = (cyclic_module(F2X, F2X.parse(f"x^{n}")) for n in (5, 66))
    assert low != high
    assert hash(low) != hash(high)
    hashes = {hash(cyclic_module(F2X, F2X.parse(f"x^{n}"))) for n in range(2, 258)}
    assert len(hashes) == 256


def test_powers_of_x_61_apart_are_apart_over_f3():
    # Bit-sliced, x^n and 2*x^n hold 2**n in one plane and 0 in the other,
    # so their plain tuple hashes repeat with n every 61 steps.
    for coefficient in ("", "2*"):
        low, high = (
            cyclic_module(F3X, F3X.parse(f"{coefficient}x^{n}")) for n in (5, 66)
        )
        assert hash(low.relations.entries) == hash(high.relations.entries)
        assert low != high
        assert hash(low) != hash(high)
        hashes = {
            hash(cyclic_module(F3X, F3X.parse(f"{coefficient}x^{n}")))
            for n in range(2, 258)
        }
        assert len(hashes) == 256


def test_value_classes_carry_no_instance_dict():
    m = FpModule(Matrix.from_rows(Z, [[2, 1], [0, 4]]))
    norm = normalize(m)
    for obj in (
        m,
        m.relations,
        norm,
        norm.to_standard,
        ModuleMorphism(m, norm.standard, norm.to_standard),
        hom_module(m, m),
        tensor_module(m, m),
    ):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
