"""The packed F_p[x] that :func:`adictower.exactalg.rings.polynomial_ring`
hands out for p = 2 and p = 3.

F_2[x] holds each element in one int and F_3[x] bit-slices it into two.
Both read and write coefficients through the view of
:class:`~adictower.exactalg.rings.PrimeFieldPolynomialRing`, so text,
residues and Rabin's test are the tuple ring's; that ring, built directly,
is their test oracle.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .rings import PrimeFieldPolynomialRing, RingError, _hex_rows


class _PackedPolynomialRing(PrimeFieldPolynomialRing):
    """An F_p[x] whose elements are all of one packed type, that of
    ``zero``.  ``canonical`` passes an element of that type through, so a
    packed element is never mistaken for an int constant or a coefficient
    sequence."""

    def canonical(self, value):
        """A packed element as it is; otherwise as for every F_p[x], the
        element with coefficient sequence ``value`` or the constant
        ``value``."""
        if type(value) is type(self.zero):
            return value
        return super().canonical(value)


class _Bits(int):
    """An element of F_2[x]: a non-negative int whose bit i is the
    coefficient of x^i.

    ``len`` is the number of coefficients (degree + 1, and 0 for zero), as
    for a coefficient tuple, so code that sizes polynomial entries by
    ``len`` reads every format alike.
    """

    __slots__ = ()
    __len__ = int.bit_length


def _bit_reversed(width: int) -> Iterator[_Bits]:
    """0, 1, ..., 2^width - 1, each with its ``width`` bits reversed.

    Reversals of the low bits come from one table, and the iterator is a
    ``map`` over it, or a chain of blocks, one per reversal of the high
    bits: a caller that lists it runs no Python frame per residue, and one
    that stops early builds only the blocks it reads."""
    low = min(width, 12)
    table = [0]
    for _ in range(low):
        table = [c0 | (rest << 1) for c0 in (0, 1) for rest in table]
    if width == low:
        return map(_Bits, table)
    shift = width - low
    table = [t << shift for t in table]
    return itertools.chain.from_iterable(
        [_Bits(high | t) for t in table] for high in _bit_reversed(shift)
    )


class _BinaryPolynomialRing(_PackedPolynomialRing):
    """F_2[x] with each element packed in one non-negative int, bit i
    holding the coefficient of x^i.

    Addition is XOR, multiplication carry-less shift-and-XOR and division
    cancels leading bits (Brent, Gaudry, Thomé & Zimmermann, "Faster
    multiplication in GF(2)[x]", ANTS VIII, 2008).  The loops run on plain
    ints and each result is wrapped once as a :class:`_Bits`.  The
    coefficient view reads and writes the bits, so text and Rabin's test
    are the tuple ring's; residues are listed in the tuple ring's order.
    """

    zero = _Bits(0)
    one = _Bits(1)

    def __init__(self):
        super().__init__(2)

    def coefficients(self, a):
        return tuple(map(int, bin(a)[:1:-1])) if a else ()

    def _from_coefficients(self, coeffs):
        return _Bits("".join(map(str, reversed(coeffs))) or "0", 2)

    # Most operands in a tower are zero or one, and those return an
    # operand as it is rather than wrap a new int.

    def add(self, a, b):
        if not b:
            return a
        if not a:
            return b
        return _Bits(a ^ b)

    sub = add

    def neg(self, a):
        return a

    def mul(self, a, b):
        if a.bit_length() < b.bit_length():
            a, b = b, a
        if b <= 1:
            return a if b else b
        out = 0
        while b:
            low = b & -b
            out ^= a << (low.bit_length() - 1)
            b ^= low
        return _Bits(out)

    def euclid_divmod(self, a, b):
        if not b:
            raise RingError("division by zero")
        if b == 1:
            return a, self.zero
        size = b.bit_length()
        shift = a.bit_length() - size
        if shift < 0:
            return self.zero, a
        q = 0
        while shift >= 0:
            q ^= 1 << shift
            a ^= b << shift
            shift = a.bit_length() - size
        return _Bits(q), _Bits(a)

    def rem(self, a, b):
        if not b:
            raise RingError("division by zero")
        size = b.bit_length()
        shift = a.bit_length() - size
        if shift < 0:
            return a
        while shift >= 0:
            a ^= b << shift
            shift = a.bit_length() - size
        return _Bits(a)

    def rem_row(self, row, b):
        # a row of residues of lower degree than b, such as an enumeration
        # of R/(b), is its own remainder: one C-level max decides it
        if not b:
            raise RingError("division by zero")
        if not row or max(row).bit_length() < b.bit_length():
            return row
        rem = self.rem
        return [rem(v, b) for v in row]

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a == 1

    def unit_normalize(self, a):
        return a, self.one

    def unit_inverse(self, u):
        if u != 1:
            raise RingError(f"{self.format(u)} is not a unit")
        return self.one

    def norm(self, a):
        return a.bit_length() - 1

    def residues(self, d):
        # The tuple ring's order: the coefficients are the bits of the
        # index, c_0 most significant, so residue i is i with its deg bits
        # reversed.
        deg = self.norm(d)
        if deg < 0:
            raise RingError("R/(0) is infinite")
        return _bit_reversed(deg)

    hash_key = staticmethod(_hex_rows)

    def __repr__(self):
        return "polynomial_ring(2)"


class _Trits(tuple):
    """An element of F_3[x] as two bit planes ``(lo, hi)``: bit i of ``lo``
    is set when the coefficient of x^i is 1, and bit i of ``hi`` when it
    is 2.

    ``len`` is the number of coefficients, as for a coefficient tuple and
    a :class:`_Bits`, not the number of planes.
    """

    __slots__ = ()

    def __len__(self):
        return (self[0] | self[1]).bit_length()


_ZERO3 = _Trits((0, 0))
_ONE3 = _Trits((1, 0))
_TWO3 = _Trits((0, 1))
_LO_PLANE = str.maketrans("012", "010")
_HI_PLANE = str.maketrans("012", "001")


class _TernaryPolynomialRing(_PackedPolynomialRing):
    """F_3[x] bit-sliced: each element is a :class:`_Trits`, two ints whose
    bits mark the coefficients 1 and 2 (Harrison, Page & Smart, "Software
    implementation of finite fields of characteristic three", LMS J.
    Comput. Math. 5, 2002).

    Addition is seven bitwise operations on whole polynomials (Kawahara,
    Aoki & Takagi, Pairing 2008) and negation swaps the planes.  The planes
    share no bit, so the larger holds the leading coefficient.
    Multiplication shifts and adds the longer operand once per nonzero
    coefficient of the shorter one, and division cancels leading
    coefficients as in packed F_2[x].  The loops run on plain ints and
    each result is wrapped once.  The coefficient view reads and writes
    the planes, so text, residues and Rabin's test are the tuple ring's.
    """

    zero = _ZERO3
    one = _ONE3

    def __init__(self):
        super().__init__(3)

    def coefficients(self, a):
        lo, hi = a
        return tuple([(lo >> i & 1) | (hi >> i & 1) << 1 for i in range(len(a))])

    def _from_coefficients(self, coeffs):
        digits = "".join(map(str, reversed(coeffs))) or "0"
        lo = int(digits.translate(_LO_PLANE), 2)
        return _Trits((lo, int(digits.translate(_HI_PLANE), 2)))

    # Most operands in a tower are zero or constants, and those return an
    # operand as it is rather than wrap new planes.

    def add(self, a, b):
        if a == _ZERO3:
            return b
        if b == _ZERO3:
            return a
        a0, a1 = a
        b0, b1 = b
        t = (a0 | b1) ^ (a1 | b0)
        return _Trits(((a1 | b1) ^ t, (a0 | b0) ^ t))

    def neg(self, a):
        return _Trits((a[1], a[0]))

    def mul(self, a, b):
        a0, a1 = a
        b0, b1 = b
        rest = b0 | b1
        if (a0 | a1) < rest:  # loop over the shorter operand, b
            a, a0, a1, b0, b1 = b, b0, b1, a0, a1
            rest = b0 | b1
        if rest <= 1:  # zero, one or two
            return _Trits((a1, a0)) if b1 else a if b0 else _ZERO3
        lo = hi = 0
        while rest:
            low = rest & -rest
            shift = low.bit_length() - 1
            if b0 & low:
                c0, c1 = a0 << shift, a1 << shift
            else:
                c0, c1 = a1 << shift, a0 << shift
            t = (lo | c1) ^ (hi | c0)
            lo, hi = (hi | c1) ^ t, (lo | c0) ^ t
            rest ^= low
        return _Trits((lo, hi))

    def euclid_divmod(self, a, b):
        b0, b1 = b
        size = (b0 | b1).bit_length()
        if size <= 1:
            if not size:
                raise RingError("division by zero")
            return self.neg(a) if b1 else a, _ZERO3  # 2 * 2 = 1
        r0, r1 = a
        shift = (r0 | r1).bit_length() - size
        if shift < 0:
            return _ZERO3, a
        monic = b0 > b1
        q0 = q1 = 0
        while shift >= 0:
            # subtract factor * b * x^shift, factor = lead(r) / lead(b)
            if (r0 > r1) == monic:
                q0 |= 1 << shift
                c1, c0 = b0 << shift, b1 << shift
            else:
                q1 |= 1 << shift
                c1, c0 = b1 << shift, b0 << shift
            t = (r0 | c1) ^ (r1 | c0)
            r0, r1 = (r1 | c1) ^ t, (r0 | c0) ^ t
            shift = (r0 | r1).bit_length() - size
        return _Trits((q0, q1)), _Trits((r0, r1))

    def is_zero(self, a):
        return a == _ZERO3

    def is_unit(self, a):
        return (a[0] | a[1]) == 1

    def unit_normalize(self, a):
        lo, hi = a
        if hi > lo:
            return _Trits((hi, lo)), _TWO3
        return a, _ONE3

    def unit_inverse(self, u):
        if (u[0] | u[1]) != 1:
            raise RingError(f"{self.format(u)} is not a unit")
        return u  # 1 * 1 = 2 * 2 = 1

    def norm(self, a):
        return (a[0] | a[1]).bit_length() - 1

    def hash_key(self, rows):
        # the hex of both planes of every element, as _hex_rows keys ints
        return _hex_rows(map(itertools.chain.from_iterable, rows))

    def __repr__(self):
        return "polynomial_ring(3)"


PACKED_RINGS = {2: _BinaryPolynomialRing, 3: _TernaryPolynomialRing}
