"""Exactness and injectivity of finitely presented modules.

Injectivity between finite modules is decided by counting; the kernel
module of ``tests/oracles.py`` is the reference it is checked against.
The facts that the verifier takes from construction or from a theorem,
rather than checking them per tower, are checked here on random modules:
a cokernel projection is onto and kills the map, and Hom(-, X) turns a
short exact sequence into a left exact one.
"""

import pytest
from hypothesis import given, settings, strategies as st

from adictower.exactalg.matrices import Matrix
from adictower.exactalg.rings import integer_ring, polynomial_ring
from adictower.fpmod import morphisms
from adictower.fpmod.functors import hom_module, induced_hom
from adictower.fpmod.modules import (
    ModuleMorphism,
    cyclic_module,
    free_module,
    module_order,
)
from adictower.fpmod.morphisms import (
    cokernel,
    compose,
    is_injective,
    is_surjective,
    kernel,
)
from oracles import is_exact, is_injective_by_kernel, is_zero_morphism
from strategies import finite_module, module_with_free_part, ring_elements

Z = integer_ring()
F2X = polynomial_ring(2)
F3X = polynomial_ring(3)


def zmod(n):
    return cyclic_module(Z, n)


def scalar_hom(source, target, c):
    return ModuleMorphism(source, target, Matrix.from_rows(Z, [[c]]))


def quotient_by(ambient, columns):
    """The projection of the ambient module onto its quotient by the span
    of the columns."""
    spanning = ModuleMorphism(free_module(ambient.ring, columns.cols), ambient, columns)
    return cokernel(spanning)[1]


def test_exact_sequence_accepts_valid_chain():
    # Z/2 --2--> Z/4 --1--> Z/2 is exact in the middle
    inject = scalar_hom(zmod(2), zmod(4), 2)
    surject = scalar_hom(zmod(4), zmod(2), 1)
    assert is_exact([inject, surject])


def test_exact_sequence_flags_nonexact_node():
    # zero followed by reduction: kernel of the right map is all of 2Z/4
    # but the image of the left map is trivial
    left = scalar_hom(zmod(2), zmod(4), 0)
    right = scalar_hom(zmod(4), zmod(2), 1)
    assert not is_exact([left, right])


def test_exact_rejects_mismatched_chain():
    with pytest.raises(ValueError):
        is_exact([scalar_hom(zmod(2), zmod(4), 2), scalar_hom(zmod(8), zmod(2), 1)])


def test_short_exact_seq_validate():
    # short exact: injective, exact in the middle and surjective
    inject = scalar_hom(zmod(2), zmod(4), 2)
    surject = scalar_hom(zmod(4), zmod(2), 1)
    assert is_injective(inject)
    assert is_exact([inject, surject])
    assert is_surjective(surject)


def test_short_exact_seq_rejects_non_injective():
    # Z/4 --2--> Z/4 --1--> Z/2 is exact in the middle, but not on the left
    inject = scalar_hom(zmod(4), zmod(4), 2)
    surject = scalar_hom(zmod(4), zmod(2), 1)
    assert is_exact([inject, surject])
    assert not is_injective(inject)


def test_short_exact_seq_names_each_failure():
    inject = scalar_hom(zmod(2), zmod(8), 4)
    assert not is_surjective(scalar_hom(zmod(8), zmod(4), 2))
    # Z/2 --4--> Z/8 --1--> Z/2: the kernel 2Z/8 has order 4, the image 2
    assert is_injective(inject)
    assert not is_exact([inject, scalar_hom(zmod(8), zmod(2), 1)])


def test_submodule_quotient_orders():
    proj = quotient_by(zmod(8), Matrix.from_rows(Z, [[4]]))
    incl = kernel(proj)
    assert module_order(incl.source) == 2
    assert module_order(proj.target) == 4
    assert is_zero_morphism(compose(proj, incl))


def _random_columns(data, ring, rows):
    k = data.draw(st.integers(1, 2))
    return Matrix.from_rows(
        ring, [[data.draw(ring_elements(ring)) for _ in range(k)] for _ in range(rows)]
    )


def _random_hom(data, source, target):
    """A well-defined map, drawn as a column of Hom(source, target)."""
    hom = hom_module(source, target)
    column = Matrix.column(
        source.ring,
        [data.draw(ring_elements(source.ring)) for _ in range(hom.module.generators)],
    )
    return hom.decode(column)


@pytest.mark.parametrize("ring", [Z, F2X, F3X], ids=["Z", "F2x", "F3x"])
def test_counting_agrees_with_the_kernel_oracle(ring):
    # Along the way, the facts the verifier's quotient lemma takes from
    # construction and left exactness hold for every split drawn:
    # 0 -> A -> B -> coker -> 0 and its dual
    # 0 -> Hom(coker, X) -> Hom(B, X) -> Hom(A, X).
    seen = set()

    @given(st.data())
    @settings(
        max_examples=150,
        deadline=None,
        derandomize=True,
        database=None,
    )
    def check(data):
        middle = finite_module(data, ring)
        if data.draw(st.booleans()):
            inject = _random_hom(data, finite_module(data, ring), middle)
        else:
            cols = _random_columns(data, ring, middle.generators)
            inject = kernel(quotient_by(middle, cols))
        if data.draw(st.booleans()):
            surject = _random_hom(data, middle, finite_module(data, ring))
        else:
            cols = _random_columns(data, ring, middle.generators)
            surject = quotient_by(middle, cols)
        injective = is_injective(inject)
        assert injective == is_injective_by_kernel(inject)
        assert is_injective(surject) == is_injective_by_kernel(surject)
        seen.add(injective)
        _, proj = cokernel(inject)
        assert is_surjective(proj)
        assert is_zero_morphism(compose(proj, inject))
        other = finite_module(data, ring)
        pre_proj = induced_hom(proj, other, "pre")
        assert is_injective(pre_proj)
        assert is_exact([pre_proj, induced_hom(inject, other, "pre")])

    check()
    assert seen == {True, False}


@pytest.mark.parametrize("ring", [Z, F2X, F3X], ids=["Z", "F2x", "F3x"])
def test_free_part_injectivity_agrees_with_the_kernel_oracle(ring):
    # a free part at either end decides injectivity by the kernel columns
    # vanishing in the source; the oracle takes the kernel module instead
    seen = set()

    @given(st.data())
    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        database=None,
    )
    def check(data):
        free_end = data.draw(st.sampled_from(["source", "target", "both"]))
        if free_end == "target":
            source = finite_module(data, ring)
        else:
            source = module_with_free_part(data, ring)
        if free_end == "source":
            target = finite_module(data, ring)
        else:
            target = module_with_free_part(data, ring)
        f = _random_hom(data, source, target)
        injective = is_injective(f)
        assert injective == is_injective_by_kernel(f)
        seen.add(injective)

    check()
    assert seen == {True, False}


def _spy(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("ring, g", [(Z, 2), (Z, 5), (F2X, (1, 1, 1))])
def test_free_part_sequence_takes_the_kernel_path(monkeypatch, ring, g):
    # condition 4's presentation R --g--> R -> R/(g)
    g = ring.canonical(g)
    kernels = _spy(monkeypatch, morphisms, "kernel_columns")
    free = free_module(ring, 1)
    unit = Matrix.identity(ring, 1)
    inject = ModuleMorphism(free, free, unit.scale(g))
    surject = ModuleMorphism(free, cyclic_module(ring, g), unit)
    assert is_injective(inject)
    assert is_exact([inject, surject])
    assert kernels
    too_far = ModuleMorphism(free, cyclic_module(ring, ring.mul(g, g)), unit)
    assert not is_exact([inject, too_far])


def test_non_injective_map_out_of_a_free_module_is_rejected():
    free = free_module(Z, 1)
    into_torsion = ModuleMorphism(free, zmod(4), Matrix.from_rows(Z, [[2]]))
    zero = ModuleMorphism(free, free, Matrix.from_rows(Z, [[0]]))
    torsion_into_free = ModuleMorphism(zmod(2), free, Matrix.from_rows(Z, [[0]]))
    for f in (into_torsion, zero, torsion_into_free):
        assert not is_injective(f)
        assert not is_injective_by_kernel(f)
