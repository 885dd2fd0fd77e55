"""Exact linear algebra over the supported Euclidean domains."""

from .matrices import (
    Matrix,
    SmithForm,
    hstack,
    kernel_basis,
    kronecker,
    smith_form,
    smith_rows,
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
    "kernel_basis",
    "kronecker",
    "smith_form",
    "smith_rows",
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
