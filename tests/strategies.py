"""Hypothesis strategies for small elements, one-row relations with wide
entries, finite modules, modules with a free part and finite inverse
systems over Z and F_p[x]."""

from hypothesis import strategies as st

from adictower.exactalg.matrices import Matrix
from adictower.fpmod.functors import hom_module
from adictower.fpmod.modules import FpModule, direct_sum, free_module
from oracles import power


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
