"""Finitely presented modules: normalization, orders, element listing."""

from adictower.exactalg.matrices import Matrix
from adictower.exactalg.rings import integer_ring, polynomial_ring
from adictower.memo import memo_scope
from adictower.fpmod.functors import hom_module, tensor_module
from adictower.fpmod.modules import (
    FpModule,
    annihilator_generator,
    cyclic_module,
    direct_sum,
    element_key,
    free_module,
    is_zero_module,
    module_elements,
    module_order,
    normalize,
)

Z = integer_ring()
F2X = polynomial_ring(2)


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
    m = FpModule(Z, 3, rel)
    n = normalize(m)
    assert n.factors == (2,)
    assert n.rank == 1
    assert module_order(m) is None


def test_normalize_roundtrip_maps():
    rel = Matrix.from_rows(Z, [[4, 6], [0, 12]])
    m = FpModule(Z, 2, rel)
    n = normalize(m)
    fwd_back = n.to_standard.matrix @ n.from_standard.matrix
    assert fwd_back.entries == Matrix.identity(Z, n.standard.generators).entries
    order = 1
    for f in n.factors:
        order *= abs(f)
    assert module_order(m) == order


def test_annihilator_generator():
    assert annihilator_generator(cyclic_module(Z, 8)) == 8
    two_four = FpModule(Z, 2, Matrix.from_rows(Z, [[2, 0], [0, 4]]))
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
    x = (0, 1)
    m = cyclic_module(F2X, F2X.mul(x, x))
    assert module_order(m) == 4
    assert annihilator_generator(m) == (0, 0, 1)


def test_equal_relations_share_a_normalization():
    first = FpModule(Z, 2, Matrix.from_rows(Z, [[4, 6], [0, 12]]))
    second = FpModule(Z, 2, Matrix.from_rows(Z, [[4, 6], [0, 12]]))
    assert first is not second
    with memo_scope():
        assert normalize(first) is normalize(second)


def test_value_classes_carry_no_instance_dict():
    m = FpModule(Z, 2, Matrix.from_rows(Z, [[2, 1], [0, 4]]))
    norm = normalize(m)
    for obj in (
        m,
        m.relations,
        norm,
        norm.to_standard,
        hom_module(m, m),
        tensor_module(m, m),
    ):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
