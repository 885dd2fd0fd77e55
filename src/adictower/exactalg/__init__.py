"""Exact linear algebra over the supported Euclidean domains."""

from .matrices import (
    Matrix,
    SmithForm,
    hstack,
    is_solvable,
    kernel_basis,
    kronecker,
    smith_diagonal,
    smith_form,
    solve_matrix,
    vstack,
)
from .rings import (
    Ideal,
    IntegerRing,
    PrimeFieldPolynomialRing,
    Ring,
    RingElement,
    RingError,
    integer_ring,
    polynomial_ring,
)

__all__ = [
    "Matrix",
    "SmithForm",
    "hstack",
    "is_solvable",
    "kernel_basis",
    "kronecker",
    "smith_diagonal",
    "smith_form",
    "solve_matrix",
    "vstack",
    "Ideal",
    "IntegerRing",
    "PrimeFieldPolynomialRing",
    "Ring",
    "RingElement",
    "RingError",
    "integer_ring",
    "polynomial_ring",
]
