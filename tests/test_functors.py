"""Hom and tensor functors against brute-force enumeration oracles.

For cyclic inputs Z/d and Z/e every morphism is a scalar, so the hom and
tensor modules can be counted from first principles: morphisms Z/d -> Z/e
are scalars c with e | c*d (there are gcd(d, e) classes), and
Z/d (x) Z/e has gcd(d, e) elements.  The functor layer must agree with
those counts and with element-by-element enumeration.
"""

import math

import pytest
from hypothesis import event, given, settings, strategies as st

from adictower.exactalg.matrices import Matrix, hstack, kronecker
from adictower.exactalg.rings import integer_ring, polynomial_ring
from adictower.memo import memo_scope
from adictower.fpmod.modules import (
    FpModule,
    ModuleMorphism,
    cyclic_module,
    element_keys,
    module_elements,
    module_order,
    normalize,
)
from adictower.fpmod.functors import hom_module, induced_hom, tensor_module
from adictower.fpmod.morphisms import (
    compose,
    is_well_defined,
    is_isomorphism,
)
from oracles import (
    basis_morphism,
    element_key,
    encode_block,
    equal_morphisms,
    induced_hom_by_basis,
    tensor_map_left,
    tensor_map_right,
)
from strategies import finite_module, module_with_free_part, ring_elements

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
            assert module_order(tens) == math.gcd(d, e)


def test_hom_frozen_examples():
    assert module_order(hom_module(zmod(4), zmod(8)).module) == 4
    assert module_order(hom_module(zmod(2), zmod(3)).module) == 1
    assert module_order(tensor_module(zmod(4), zmod(6))) == 2


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
        f = basis_morphism(hom, t)
        assert is_well_defined(f)


def test_induced_hom_precomposition():
    # restriction along Z/2 -> Z/4 (doubling) on Hom(-, Z/4)
    incl = scalar_hom(zmod(2), zmod(4), 2)
    restricted = induced_hom(incl, zmod(4), "pre")
    assert is_well_defined(restricted)
    hom_big = hom_module(zmod(4), zmod(4))
    hom_small = hom_module(zmod(2), zmod(4))
    assert restricted.source == hom_big.module
    assert restricted.target == hom_small.module
    ident = hom_big.encode(scalar_hom(zmod(4), zmod(4), 1))
    moved = hom_small.decode(restricted.matrix @ ident)
    assert equal_morphisms(moved, compose(scalar_hom(zmod(4), zmod(4), 1), incl))


def test_induced_hom_postcomposition():
    step = scalar_hom(zmod(4), zmod(8), 2)
    pushed = induced_hom(step, zmod(2), "post")
    hom_from = hom_module(zmod(2), zmod(4))
    hom_to = hom_module(zmod(2), zmod(8))
    assert pushed.source == hom_from.module
    assert pushed.target == hom_to.module
    f = scalar_hom(zmod(2), zmod(4), 2)
    moved = hom_to.decode(pushed.matrix @ hom_from.encode(f))
    assert equal_morphisms(moved, compose(step, f))


def test_tensor_pure_elements():
    tens = tensor_module(zmod(4), zmod(6))
    a = Matrix.column(Z, [1])
    b = Matrix.column(Z, [3])
    pure = kronecker(a, b)
    assert pure.rows == tens.generators
    # 1 (x) 3 = 3 (1 (x) 1) which is 3 mod 2 = 1 times the generator
    one_one = kronecker(a, Matrix.column(Z, [1]))
    assert element_key(tens, pure) == element_key(tens, one_one.scale(3))


def test_tensor_maps_commute_on_pure_tensors():
    left = scalar_hom(zmod(4), zmod(8), 2)
    tens_src = tensor_module(zmod(4), zmod(6))
    tens_dst = tensor_module(zmod(8), zmod(6))
    lifted = tensor_map_left(left, zmod(6))
    assert lifted.source == tens_src
    assert lifted.target == tens_dst
    a = Matrix.column(Z, [1])
    b = Matrix.column(Z, [1])
    moved = lifted.matrix @ kronecker(a, b)
    direct = kronecker(left.matrix @ a, b)
    assert element_key(tens_dst, moved) == element_key(tens_dst, direct)


def test_tensor_map_right_identity():
    f = scalar_hom(zmod(6), zmod(6), 5)
    lifted = tensor_map_right(zmod(4), f)
    assert is_isomorphism(lifted)


def test_hom_adjunction_order_spot_check():
    # |Hom(A (x) B, C)| = |Hom(A, Hom(B, C))| for cyclic pieces
    for d, e, f in ((2, 4, 8), (6, 4, 3), (9, 6, 12)):
        lhs = hom_module(tensor_module(zmod(d), zmod(e)), zmod(f))
        rhs = hom_module(zmod(d), hom_module(zmod(e), zmod(f)).module)
        assert module_order(lhs.module) == module_order(rhs.module)


def test_polynomial_hom_counts():
    x = F2X.parse("x")
    x2 = F2X.mul(x, x)
    small = cyclic_module(F2X, x)
    big = cyclic_module(F2X, x2)
    hom = hom_module(small, big)
    assert module_order(hom.module) == 2
    hom_endo = hom_module(big, big)
    assert module_order(hom_endo.module) == 4


def test_hom_of_two_generator_module():
    two_four = FpModule(Matrix.from_rows(Z, [[2, 0], [0, 4]]))
    hom = hom_module(two_four, two_four)
    # End(Z/2 + Z/4) has order gcd-grid product 2*2*2*4 = 32
    assert module_order(hom.module) == 32
    ident = ModuleMorphism(two_four, two_four, Matrix.identity(Z, 2))
    col = hom.encode(ident)
    assert equal_morphisms(hom.decode(col), ident)


def _copy(module):
    return FpModule(module.relations)


def _assert_same_hom(memoised, fresh):
    assert memoised.module.relations == fresh.module.relations
    elements = module_elements(fresh.module, 4096)
    assert elements
    for col in elements:
        assert memoised.decode(col).matrix == fresh.decode(col).matrix
        assert memoised.encode(memoised.decode(col)) == fresh.encode(fresh.decode(col))


@given(
    st.sampled_from([Z, F2X, polynomial_ring(3)]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_memoised_functors_match_fresh_ones(ring, data):
    source = finite_module(data, ring)
    base = finite_module(data, ring)
    other = finite_module(data, ring)
    mat = Matrix.from_rows(
        ring,
        [
            [data.draw(ring_elements(ring)) for _ in range(source.generators)]
            for _ in range(base.generators)
        ],
    )
    # adding the images of the source relations makes f well defined
    target = FpModule(hstack([base.relations, mat @ source.relations]))
    f = ModuleMorphism(source, target, mat)
    fresh_hom = hom_module(source, target)
    fresh_tensor = tensor_module(source, other)
    fresh_induced = [induced_hom(f, other, v) for v in ("pre", "post")]
    with memo_scope():
        hom = hom_module(source, target)
        tens = tensor_module(source, other)
        induced = [induced_hom(f, other, v) for v in ("pre", "post")]
        # keyed by presentation: equal presentations share one object
        assert hom_module(_copy(source), _copy(target)) is hom
        assert tensor_module(_copy(source), _copy(other)) is tens
        copied = ModuleMorphism(_copy(source), _copy(target), mat)
        for variance, stored in zip(("pre", "post"), induced):
            assert induced_hom(copied, _copy(other), variance) is stored
    _assert_same_hom(hom, fresh_hom)
    assert tens.relations == fresh_tensor.relations
    for got, want in zip(induced, fresh_induced):
        assert got.matrix == want.matrix
        assert got.source.relations == want.source.relations
        assert got.target.relations == want.target.relations


@given(
    st.sampled_from([Z, F2X, polynomial_ring(3)]),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_induced_hom_matches_one_basis_morphism_at_a_time(ring, data):
    def draw_module():
        if data.draw(st.booleans()):
            return finite_module(data, ring)
        return module_with_free_part(data, ring)

    source, base, other = draw_module(), draw_module(), draw_module()
    mat = Matrix.from_rows(
        ring,
        [
            [data.draw(ring_elements(ring)) for _ in range(source.generators)]
            for _ in range(base.generators)
        ],
    )
    # adding the images of the source relations makes f well defined
    target = FpModule(hstack([base.relations, mat @ source.relations]))
    f = ModuleMorphism(source, target, mat)
    for variance in ("pre", "post"):
        got = induced_hom(f, other, variance)
        want = induced_hom_by_basis(f, other, variance)
        assert got == want
        assert is_well_defined(got)


def _encode_one_at_a_time(hom, matrices):
    """Per-morphism ``encode`` of each matrix, None where it raises."""
    out = []
    for mat in matrices:
        try:
            out.append(hom.encode(ModuleMorphism(hom.source, hom.target, mat)))
        except ValueError:
            out.append(None)
    return out


@given(
    st.sampled_from([Z, F2X, polynomial_ring(3)]),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_batched_encoding_and_keys_match_one_column_at_a_time(ring, data):
    source = finite_module(data, ring)
    target = finite_module(data, ring)
    hom = hom_module(source, target)
    elements = module_elements(hom.module, 4096)
    # the batched keys of an enumeration are the keys of its columns, and
    # they tell the classes apart
    keys = element_keys(hom.module, hstack(elements))
    assert keys == [element_key(hom.module, col) for col in elements]
    assert len(set(keys)) == len(elements)
    # morphisms decoded from random classes, and random matrices, most of
    # which are not morphisms
    morphisms = [
        hom.decode(col).matrix
        for col in data.draw(st.lists(st.sampled_from(elements), max_size=3))
    ]
    arbitrary = [
        Matrix.from_rows(
            ring,
            [
                [data.draw(ring_elements(ring)) for _ in range(source.generators)]
                for _ in range(target.generators)
            ],
        )
        for _ in range(data.draw(st.integers(1, 2)))
    ]
    matrices = data.draw(st.permutations(morphisms + arbitrary))
    singles = _encode_one_at_a_time(hom, matrices)
    event(f"generators {source.generators}x{target.generators}")
    event("a non-morphism in the batch" if None in singles else "morphisms only")
    ns, nt = normalize(source), normalize(target)
    for mat, col in zip(matrices, singles):
        # encoding rejects exactly the matrices that are not morphisms
        # between the standard forms
        std = nt.to_standard @ mat @ ns.from_standard
        assert (col is None) == (
            not is_well_defined(ModuleMorphism(ns.standard, nt.standard, std))
        )
        f = ModuleMorphism(source, target, mat)
        if is_well_defined(f):
            assert equal_morphisms(hom.decode(col), f)
    if None in singles:
        with pytest.raises(ValueError, match="does not define a morphism"):
            hom.encode_cells(hom.cells(matrices))
        return
    batch = hom.encode_cells(hom.cells(matrices))
    assert batch.rows == hom.module.generators
    assert batch.cols == len(matrices)
    assert batch == hstack(singles)
    assert element_keys(hom.module, batch) == [
        element_key(hom.module, col) for col in singles
    ]


def _cell_matrix(ring, blocks, ns, nt):
    """Cells of standard blocks in grid order, one column per block."""
    rows = tuple(
        tuple(block[j][i] for block in blocks) for i in range(ns) for j in range(nt)
    )
    return Matrix(ring, ns * nt, len(blocks), rows)


def _encode_each(hom, blocks):
    """The oracle's columns side by side, or None when it rejects a block."""
    try:
        columns = [encode_block(hom, block) for block in blocks]
    except ValueError:
        return None
    if not columns:
        return Matrix.zeros(hom.ring, len(hom.basis), 0)
    return hstack(columns)


@given(
    st.sampled_from([Z, F2X, polynomial_ring(3)]),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_cell_encoder_matches_the_per_block_oracle(ring, data):
    # finite modules, and modules with a free part for the free cells
    def draw_module():
        if data.draw(st.booleans()):
            return finite_module(data, ring)
        return module_with_free_part(data, ring)

    source, target = draw_module(), draw_module()
    hom = hom_module(source, target)
    norm_s, norm_t = normalize(source), normalize(target)
    ns, nt = norm_s.standard.generators, norm_t.standard.generators

    def standard_block(mat):
        return (norm_t.to_standard @ mat @ norm_s.from_standard).entries

    def drawn_block():
        return tuple(
            tuple(data.draw(ring_elements(ring)) for _ in range(ns)) for _ in range(nt)
        )

    size = len(hom.basis)
    coefficients = st.lists(ring_elements(ring), min_size=size, max_size=size)
    morphisms = [
        standard_block(hom.decode(Matrix.column(ring, column)).matrix)
        for column in data.draw(st.lists(coefficients, max_size=4))
    ]
    # a one in a single cell is no morphism when that cell's divisor is not
    # a unit, if there is such a cell
    units = [
        tuple(
            tuple(ring.one if (r, c) == (j, i) else ring.zero for c in range(ns))
            for r in range(nt)
        )
        for i in range(ns)
        for j in range(nt)
    ]
    strays = [block for block in units if _encode_each(hom, [block]) is None]
    batches = [
        [],
        morphisms,
        data.draw(st.permutations(morphisms + [drawn_block() for _ in range(2)])),
    ]
    if strays:
        at = data.draw(st.integers(0, len(morphisms)))
        stray = data.draw(st.sampled_from(strays))
        batches.append(morphisms[:at] + [stray] + morphisms[at:])
    event("a cell that can reject" if strays else "every block is a morphism")
    for blocks in batches:
        want = _encode_each(hom, blocks)
        cells = _cell_matrix(ring, blocks, ns, nt)
        if want is None:
            with pytest.raises(ValueError, match="does not define a morphism"):
                hom.encode_cells(cells)
        else:
            assert hom.encode_cells(cells) == want
    assert _encode_each(hom, morphisms) is not None
    if strays:
        assert _encode_each(hom, batches[-1]) is None


def test_batched_encoding_rejects_a_non_morphism_among_morphisms():
    # 1: Z/2 -> Z/4 is no morphism (2 does not go to 0); 2 is one
    hom = hom_module(zmod(2), zmod(4))
    good, bad = Matrix.from_rows(Z, [[2]]), Matrix.from_rows(Z, [[1]])
    assert hom.encode_cells(hom.cells([good, good])).to_lists() == [
        [1, 1]
    ]
    with pytest.raises(ValueError, match="does not define a morphism"):
        hom.encode_cells(hom.cells([good, bad]))
    with pytest.raises(ValueError, match="does not define a morphism"):
        hom.encode(scalar_hom(zmod(2), zmod(4), 1))
