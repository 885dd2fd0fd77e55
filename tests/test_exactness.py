"""Exactness checks for short chains of finitely presented modules."""

import pytest

from adictower.exactalg.matrices import Matrix
from adictower.exactalg.rings import integer_ring
from adictower.fpmod.modules import ModuleMorphism, cyclic_module, module_order
from adictower.fpmod.exactness import (
    ShortExactSeq,
    is_exact,
    submodule_quotient,
)
from adictower.fpmod.morphisms import compose, is_zero_morphism

Z = integer_ring()


def zmod(n):
    return cyclic_module(Z, n)


def scalar_hom(source, target, c):
    return ModuleMorphism(source, target, Matrix.from_rows(Z, [[c]]))


def test_exact_sequence_accepts_valid_chain():
    # Z/2 --2--> Z/4 --1--> Z/2 is exact in the middle
    inject = scalar_hom(zmod(2), zmod(4), 2)
    surject = scalar_hom(zmod(4), zmod(2), 1)
    result = is_exact([inject, surject])
    assert result.ok
    assert result.failing_index is None


def test_exact_sequence_flags_nonexact_node():
    # zero followed by reduction: kernel of the right map is all of 2Z/4
    # but the image of the left map is trivial
    left = scalar_hom(zmod(2), zmod(4), 0)
    right = scalar_hom(zmod(4), zmod(2), 1)
    result = is_exact([left, right])
    assert not result.ok
    assert result.failing_index == 0


def test_exact_rejects_mismatched_chain():
    with pytest.raises(ValueError):
        is_exact([scalar_hom(zmod(2), zmod(4), 2), scalar_hom(zmod(8), zmod(2), 1)])


def test_short_exact_seq_validate():
    ses = ShortExactSeq(
        zmod(2),
        zmod(4),
        zmod(2),
        scalar_hom(zmod(2), zmod(4), 2),
        scalar_hom(zmod(4), zmod(2), 1),
    )
    ok, reason = ses.validate()
    assert ok, reason


def test_short_exact_seq_rejects_non_injective():
    ses = ShortExactSeq(
        zmod(4),
        zmod(4),
        zmod(2),
        scalar_hom(zmod(4), zmod(4), 2),
        scalar_hom(zmod(4), zmod(2), 1),
    )
    ok, reason = ses.validate()
    assert not ok
    assert "kernel" in reason


def test_submodule_quotient_orders():
    amb = zmod(8)
    sub, incl, quot, proj = submodule_quotient(amb, Matrix.from_rows(Z, [[4]]))
    assert module_order(sub) == 2
    assert module_order(quot) == 4
    assert is_zero_morphism(compose(proj, incl))
