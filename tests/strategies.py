"""Hypothesis strategies for small elements, one-row relations with wide
entries, finite modules, modules with a free part and finite inverse
systems over Z and F_p[x], and small towers, hand-built over Z or
genuine, or hand-built over Z, F_2[x] and F_3[x] with zero and unit
moduli."""

from hypothesis import strategies as st

from adictower.exactalg.matrices import Matrix
from adictower.exactalg.rings import integer_ring, polynomial_ring
from adictower.fpmod.functors import hom_module
from adictower.fpmod.modules import FpModule, direct_sum, free_module
from adictower.towers import build_adic_tower
from oracles import hand_built_tower, power


def ring_elements(ring, nonunit=False):
    """Small ring elements: |n| <= 4 over Z, degree <= 1 over F_p[x];
    ``nonunit`` draws 2..6 over Z and degree exactly 1 over F_p[x]."""
    p = ring.characteristic
    if ring.kind == "integers":
        return st.integers(2, 6) if nonunit else st.integers(-4, 4)
    lead = st.integers(1, p - 1) if nonunit else st.integers(0, p - 1)
    return st.tuples(st.integers(0, p - 1), lead).map(ring.canonical)


def one_row_entries(ring):
    """Entries for one-row relations: zero, units, small elements
    (negative ones over Z), powers of a small non-unit up to the 70th,
    which divide one another, and random elements of 61 to 80 bits over Z
    or degree 61 to 70 over F_p[x]."""
    p = ring.characteristic
    if ring.kind == "integers":
        units = st.sampled_from([1, -1])
        wide = st.integers(2**60, 2**80 - 1)
        wide = st.builds(lambda sign, v: sign * v, st.sampled_from([1, -1]), wide)
    else:
        units = st.integers(1, p - 1).map(ring.canonical)
        wide = st.builds(
            lambda low, lead: ring.canonical((*low, lead)),
            st.lists(st.integers(0, p - 1), min_size=61, max_size=70),
            st.integers(1, p - 1),
        )
    powers = st.builds(
        lambda unit, base, k: ring.mul(unit, power(ring, base, k)),
        units,
        ring_elements(ring, nonunit=True),
        st.integers(0, 70),
    )
    return st.one_of(st.just(ring.zero), units, ring_elements(ring), powers, wide)


def one_row_relations(ring):
    """A 1 x c relations matrix, c from 0 to 4, of :func:`one_row_entries`:
    the presentation of a cyclic module, a free one or the zero module."""
    return st.lists(one_row_entries(ring), max_size=4).map(
        lambda row: Matrix(ring, 1, len(row), (tuple(row),))
    )


def finite_module(data, ring):
    """One or two generators with upper triangular relations of non-unit
    diagonal, so the module is finite and nonzero."""
    k = data.draw(st.integers(1, 2))
    rows = [
        [
            data.draw(ring_elements(ring, nonunit=i == j)) if i <= j else ring.zero
            for j in range(k)
        ]
        for i in range(k)
    ]
    return FpModule(Matrix.from_rows(ring, rows))


def module_with_free_part(data, ring):
    """One free generator, alone or after a module drawn by
    :func:`finite_module`, so the module is infinite."""
    free = free_module(ring, 1)
    if data.draw(st.booleans()):
        return free
    return direct_sum([finite_module(data, ring), free])[0]


def inverse_system(data, ring):
    """One to four modules drawn by :func:`finite_module`, and between each
    module and the one below it a map drawn as a combination of the hom
    basis with :func:`ring_elements` coefficients: well defined, and
    surjective or not."""
    modules = [finite_module(data, ring) for _ in range(data.draw(st.integers(1, 4)))]
    maps = []
    for source, target in zip(modules[1:], modules):
        hom = hom_module(source, target)
        count = hom.module.generators
        coefficients = [data.draw(ring_elements(ring)) for _ in range(count)]
        maps.append(hom.decode(Matrix.column(ring, coefficients)))
    return modules, maps


@st.composite
def z_tower_specs(draw):
    """``(moduli, multipliers, generator)`` for ``oracles.hand_built_tower``:
    depth 2 to 4, moduli 1 to 64, multipliers 0 to 64.  Each modulus is
    any of 1..64 or a multiple of the one below, each multiplier any of
    0..64 or, where the modulus above is a multiple of the one below, that
    quotient times 1..8, and the generator 2..8 or the bottom modulus, so
    towers that pass condition 5 and have transitions come up often."""
    depth = draw(st.integers(2, 4))
    moduli = [draw(st.integers(1, 64))]
    for _ in range(depth - 1):
        below = moduli[-1]
        multiples = st.integers(1, 64 // below).map(lambda k, below=below: k * below)
        moduli.append(draw(st.one_of(st.integers(1, 64), multiples)))
    multipliers = []
    for lower, upper in zip(moduli, moduli[1:]):
        choices = st.integers(0, 64)
        if upper % lower == 0:
            step = upper // lower
            scaled = st.integers(1, 8).map(lambda u, step=step: u * step)
            choices = st.one_of(choices, scaled)
        multipliers.append(draw(choices))
    generators = st.integers(2, 8)
    if moduli[0] >= 2:
        generators = st.one_of(generators, st.just(moduli[0]))
    return tuple(moduli), tuple(multipliers), draw(generators)


GENUINE_TOWERS = (
    (integer_ring(), 2),
    (integer_ring(), 3),
    (integer_ring(), 5),
    (integer_ring(), 6),
    (polynomial_ring(3), (1, 1)),
    (polynomial_ring(3), (1, 0, 1)),
    (polynomial_ring(2), (1, 1, 1)),
    (polynomial_ring(2), (0, 1)),
)


def small_towers():
    """Hand-built Z towers of :func:`z_tower_specs` and genuine Z, F_3[x]
    and F_2[x] towers of depth 2 to 6 (Z with g=6 fails condition 4)."""
    hand_built = z_tower_specs().map(lambda spec: hand_built_tower(*spec))
    genuine = st.builds(
        lambda ring_and_g, depth: build_adic_tower(*ring_and_g, depth),
        st.sampled_from(GENUINE_TOWERS),
        st.integers(2, 6),
    )
    return st.one_of(hand_built, genuine)


EDGE_MODULI = (0, 1, -1, 2, -4, 4, 6, 8, 12)


@st.composite
def edge_towers(draw):
    """Hand-built towers of depth 2 or 3 with zero, unit and non-canonical
    moduli.  Over Z the moduli come from ``EDGE_MODULI`` and the
    multipliers from -2..8.  Over F_2[x] and F_3[x] the moduli and
    multipliers have degree at most 2 (zero, units and non-monic elements
    among them); each modulus may be a multiple of the one below, and each
    multiplier a multiple of their quotient, so some towers pass."""
    depth = draw(st.integers(2, 3))
    rings = (integer_ring(), polynomial_ring(2), polynomial_ring(3))
    ring = draw(st.sampled_from(rings))
    if ring.kind == "integers":
        moduli = [draw(st.sampled_from(EDGE_MODULI)) for _ in range(depth)]
        multipliers = [draw(st.integers(-2, 8)) for _ in range(depth - 1)]
        return hand_built_tower(moduli, multipliers, draw(st.sampled_from((2, 3))))
    p = ring.characteristic
    small = st.lists(st.integers(0, p - 1), max_size=3).map(ring.canonical)
    moduli = [draw(small)]
    for _ in range(depth - 1):
        below = moduli[-1]
        multiples = small.map(lambda k, below=below: ring.mul(k, below))
        moduli.append(draw(st.one_of(small, multiples)))
    multipliers = []
    for lower, upper in zip(moduli, moduli[1:]):
        step = ring.try_div(upper, lower) if not ring.is_zero(lower) else None
        choices = small
        if step is not None:
            scaled = small.map(lambda k, step=step: ring.mul(k, step))
            choices = st.one_of(small, scaled)
        multipliers.append(draw(choices))
    generator = draw(st.sampled_from(((0, 1), (1, 1), (1, 0, 1))))
    return hand_built_tower(moduli, multipliers, generator, ring)
