"""Hypothesis strategies for small elements, finite modules and modules
with a free part over Z and F_p[x]."""

from hypothesis import strategies as st

from adictower.exactalg.matrices import Matrix
from adictower.fpmod.modules import FpModule, direct_sum, free_module


def ring_elements(ring, nonunit=False):
    """Small ring elements: |n| <= 4 over Z, degree <= 1 over F_p[x];
    ``nonunit`` draws 2..6 over Z and degree exactly 1 over F_p[x]."""
    p = ring.characteristic
    if ring.kind == "integers":
        return st.integers(2, 6) if nonunit else st.integers(-4, 4)
    lead = st.integers(1, p - 1) if nonunit else st.integers(0, p - 1)
    return st.tuples(st.integers(0, p - 1), lead).map(ring.canonical)


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
