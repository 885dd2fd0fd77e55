"""Exact arithmetic in the supported Euclidean domains.

Two domains are available: the ring of integers, and univariate polynomial
rings over a prime field.  Elements are plain Python values:

* an integer is an arbitrary precision ``int``;
* an element of F_2[x] is a non-negative ``int`` whose bit i is the
  coefficient of x^i, so addition is XOR and multiplication carry-less
  (held as the ``int`` subclass ``_Bits``);
* an element of F_3[x] is bit-sliced into two ints, the planes ``(lo,
  hi)``: bit i of ``lo`` is set when the coefficient of x^i is 1, and bit
  i of ``hi`` when it is 2, so addition is seven bitwise operations on
  whole polynomials (held as the 2-tuple subclass ``_Trits``);
* an element of F_p[x] for p >= 5 is a tuple of coefficients in ascending
  degree, with no trailing zeros and ``()`` meaning zero.

The ``len`` of a polynomial element of any format is its number of
coefficients, degree + 1 and 0 for zero.

Only this module and :mod:`adictower.exactalg.packed`, which holds the
F_2[x] and F_3[x] rings, know these formats.  All arithmetic goes through
a ring object so the matrix and module layers stay domain-agnostic, and
the polynomial rings read and write coefficients through one view,
``coefficients``, so text, residues and Rabin's test are shared by all
three formats.  Rings are interned: :func:`integer_ring` and
:func:`polynomial_ring` hand out one object per ring, and rings compare
by identity, so the shape checks of every matrix and module operation
cost a pointer comparison.

Ring operations take canonical elements and return canonical elements:
polynomial coefficients are ints in ``range(p)`` with no trailing zero.
They do not re-check their operands.  ``canonical`` is for values that come
from outside: ``parse``, :class:`Ideal`, and the callers that
build elements from user data (``Matrix.from_rows``).  Over every F_p[x] it
takes an element, a sequence of coefficients in ascending degree, or an
int, which is a constant: ``polynomial_ring(2).canonical(2)`` and
``polynomial_ring(3).canonical(3)`` are zero, as they are over coefficient
tuples.  A plain tuple is always a coefficient sequence, even over F_3[x],
whose elements are tuples of planes.

Canonical associates are positive integers respectively monic polynomials;
``gcd_ext`` and the normal form routines always return those.

Prime elements are decided exactly and in-tree: integers by
:func:`adictower.exactalg.primes.is_prime`, polynomials by Rabin's
irreducibility test over F_p (Rabin, SIAM J. Comput. 9, 1980).
"""

from __future__ import annotations

import itertools
import re
import sys
from typing import Dict, Iterator, Tuple, Union

from .primes import is_prime, prime_divisors

RingElement = Union[int, Tuple[int, ...]]


class RingError(ValueError):
    """Raised for malformed or out-of-domain ring elements."""


# Highest degree of a polynomial literal: the number of digits CPython's
# int() accepts by default, so both rings refuse oversized literals alike.
MAX_LITERAL_DEGREE = 4300


def _literal_int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more than sys.get_int_max_str_digits() digits
        raise RingError(f"literal of {len(digits)} digits is too long") from None


class Ring:
    """Common interface of the supported Euclidean domains."""

    kind: str
    characteristic: int
    zero: RingElement
    one: RingElement

    def canonical(self, value) -> RingElement:
        """The canonical element for a value from outside; over F_p[x] an
        int is a constant and a sequence lists coefficients."""
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def euclid_divmod(self, a, b):
        """Return (q, r) with a = q*b + r and r a canonical residue mod b."""
        raise NotImplementedError

    def rem(self, a, b):
        return self.euclid_divmod(a, b)[1]

    def try_div(self, a, b):
        """Exact quotient a/b, or None when b does not divide a."""
        if self.is_zero(b):
            return self.zero if self.is_zero(a) else None
        q, r = self.euclid_divmod(a, b)
        return q if self.is_zero(r) else None

    def div(self, a, b):
        q = self.try_div(a, b)
        if q is None:
            raise RingError(f"{self.format(b)} does not divide {self.format(a)}")
        return q

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def unit_normalize(self, a):
        """Return (c, u) with a = u*c, u a unit and c the canonical associate."""
        raise NotImplementedError

    def unit_inverse(self, u):
        raise NotImplementedError

    def gcd_ext(self, a, b):
        """Extended gcd: (g, s, t) with g = s*a + t*b and g canonical.

        gcd(0, 0) is 0 with s = t = 0 by convention.
        """
        old_r, r = a, b
        old_s, s = self.one, self.zero
        old_t, t = self.zero, self.one
        while not self.is_zero(r):
            q, _ = self.euclid_divmod(old_r, r)
            old_r, r = r, self.sub(old_r, self.mul(q, r))
            old_s, s = s, self.sub(old_s, self.mul(q, s))
            old_t, t = t, self.sub(old_t, self.mul(q, t))
        if self.is_zero(old_r):
            return self.zero, self.zero, self.zero
        g, unit = self.unit_normalize(old_r)
        w = self.unit_inverse(unit)
        return g, self.mul(w, old_s), self.mul(w, old_t)

    def gcd(self, a, b):
        return self.gcd_ext(a, b)[0]

    def norm(self, a) -> int:
        """Euclidean size: |a| for integers, degree for polynomials."""
        raise NotImplementedError

    def is_prime_element(self, a) -> bool:
        raise NotImplementedError

    def residue_count(self, d) -> int:
        """Cardinality of R/(d) for nonzero d."""
        raise NotImplementedError

    def residues(self, d) -> Iterator[RingElement]:
        """Canonical residue representatives mod a nonzero d, in a fixed order."""
        raise NotImplementedError

    def residue_at(self, d, i: int) -> RingElement:
        """The i-th element of ``residues(d)``, without enumerating the rest."""
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    def check_formattable_power(self, a, k: int) -> None:
        """Raise RingError when ``format`` cannot write a^k."""

    def parse(self, text: str) -> RingElement:
        raise NotImplementedError

    def hash_key(self, rows: tuple):
        """A hashable stand-in for a tuple of rows of elements.

        Python hashes an int by its residue mod 2**61 - 1, so rows of int
        elements such as [[2**n]] and [[2**(n + 61)]] hash alike.  Rings
        whose elements are ints, or pairs of ints, key them by their hex
        text instead, which, unlike ``str``, has no digit limit.
        """
        return rows


def _hex_rows(rows: tuple) -> tuple:
    return tuple([hex(v) for row in rows for v in row])


class IntegerRing(Ring):
    kind = "integers"
    characteristic = 0
    zero = 0
    one = 1

    def canonical(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise RingError(f"not an integer element: {value!r}")
        return value

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def euclid_divmod(self, a, b):
        if b == 0:
            raise RingError("division by zero")
        q, r = divmod(a, abs(b))
        if b < 0:
            q = -q
        return q, r

    def rem(self, a, b):
        if b == 0:
            raise RingError("division by zero")
        return a % abs(b)

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a in (1, -1)

    def unit_normalize(self, a):
        if a < 0:
            return -a, -1
        return a, 1

    def unit_inverse(self, u):
        if u not in (1, -1):
            raise RingError(f"{u} is not a unit")
        return u

    def norm(self, a):
        return abs(a)

    def is_prime_element(self, a):
        return is_prime(abs(a))

    def residue_count(self, d):
        if d == 0:
            raise RingError("R/(0) is infinite")
        return abs(d)

    def residues(self, d):
        return iter(range(self.residue_count(d)))

    def residue_at(self, d, i):
        return range(self.residue_count(d))[i]

    def format(self, a):
        return str(a)

    def check_formattable_power(self, a, k):
        # str() refuses integers of more than this many decimal digits.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            return
        # 2^(3 * limit) < 10^limit < 2^(4 * limit) and
        # 2^((bits - 1) * k) <= |a|^k < 2^(bits * k)
        bits = abs(a).bit_length()
        if bits * k <= 3 * limit:
            return
        if (bits - 1) * k > 4 * limit or abs(a) ** k >= 10**limit:
            raise RingError(
                f"a {bits}-bit ideal at depth {k} has a level "
                f"modulus of more than {limit} digits"
            )

    def parse(self, text):
        text = text.strip()
        if not re.fullmatch(r"-?[0-9]+", text):
            raise RingError(f"not an integer literal: {text!r}")
        return _literal_int(text)

    hash_key = staticmethod(_hex_rows)

    def __repr__(self):
        return "IntegerRing()"


def _stripped(coeffs) -> Tuple[int, ...]:
    """Coefficients already in range(p), as a tuple without trailing zeros."""
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


_TERM_RE = re.compile(
    r"(?:(?P<cx>[0-9]+)\*)?x(?:\^(?P<exp>[0-9]+))?|(?P<const>[0-9]+)"
)


class PrimeFieldPolynomialRing(Ring):
    """F_p[x] with coefficient tuples in ascending degree.

    Everything that reads or writes coefficients (``canonical``,
    ``format``, ``parse``, ``residues``, ``residue_at``) and Rabin's test go
    through the coefficient view, ``coefficients`` and
    ``_from_coefficients``, so a subclass that packs its elements
    differently overrides the view and the arithmetic and nothing else.
    """

    kind = "polynomials"
    zero: RingElement = ()
    one: RingElement = (1,)

    def __init__(self, p: int):
        if not is_prime(p):
            raise RingError(f"characteristic must be prime, got {p}")
        self.characteristic = p

    def coefficients(self, a) -> Tuple[int, ...]:
        """Coefficients of a canonical element in ascending degree, in
        ``range(p)`` and without trailing zeros (``()`` for zero)."""
        return a

    def _from_coefficients(self, coeffs) -> RingElement:
        """The element with coefficients ``coeffs``, already in ``range(p)``
        and possibly with trailing zeros."""
        return _stripped(coeffs)

    def canonical(self, value):
        """The element with coefficient sequence ``value``; an int is a
        constant."""
        p = self.characteristic
        if isinstance(value, bool):
            raise RingError(f"not a polynomial element: {value!r}")
        if isinstance(value, int):
            value = (value,)
        if not isinstance(value, (tuple, list)) or not all(
            isinstance(c, int) for c in value
        ):
            raise RingError(f"not a polynomial element: {value!r}")
        return self._from_coefficients([c % p for c in value])

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        p = self.characteristic
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
        return _stripped(out)

    def neg(self, a):
        return tuple((-c) % self.characteristic for c in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        p = self.characteristic
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        # p is prime, so the leading coefficient a[-1] * b[-1] stays nonzero
        return tuple([c % p for c in out])

    def euclid_divmod(self, a, b):
        if not b:
            raise RingError("division by zero")
        if len(a) < len(b):
            return (), a
        p = self.characteristic
        lead_inv = pow(b[-1], p - 2, p)
        rem = list(a)
        quo = [0] * (len(a) - len(b) + 1)
        while len(rem) >= len(b):
            shift = len(rem) - len(b)
            factor = (rem[-1] * lead_inv) % p
            quo[shift] = factor
            for i, c in enumerate(b):
                rem[shift + i] = (rem[shift + i] - factor * c) % p
            while rem and rem[-1] == 0:
                rem.pop()
        # the first factor is the nonzero a[-1] / b[-1], so quo is stripped
        return tuple(quo), tuple(rem)

    def is_zero(self, a):
        return len(a) == 0

    def is_unit(self, a):
        return len(a) == 1

    def unit_normalize(self, a):
        if not a:
            return (), self.one
        lead = a[-1]
        if lead == 1:
            return a, self.one
        inv = pow(lead, self.characteristic - 2, self.characteristic)
        return self.mul(a, (inv,)), (lead,)

    def unit_inverse(self, u):
        if len(u) != 1:
            raise RingError(f"{self.format(u)} is not a unit")
        return (pow(u[0], self.characteristic - 2, self.characteristic),)

    def norm(self, a):
        if not a:
            return -1
        return len(a) - 1

    def is_prime_element(self, a):
        """Rabin's test: a of degree n >= 1 is irreducible iff
        x^(p^n) = x mod a and gcd(x^(p^(n/q)) - x, a) = 1 for every prime
        q dividing n."""
        n = self.norm(a)
        if n < 1:
            return False
        x = self.canonical((0, 1))
        frobenius = [self.rem(x, a)]  # frobenius[k] = x^(p^k) mod a
        for _ in range(n):
            frobenius.append(self._power_mod(frobenius[-1], self.characteristic, a))
        if frobenius[n] != frobenius[0]:
            return False
        return all(
            self.is_unit(self.gcd(self.sub(frobenius[n // q], x), a))
            for q in prime_divisors(n)
        )

    def _power_mod(self, b, k, modulus):
        """b^k mod modulus by square-and-multiply."""
        out = self.one
        while k:
            if k & 1:
                out = self.rem(self.mul(out, b), modulus)
            b = self.rem(self.mul(b, b), modulus)
            k >>= 1
        return out

    def residue_count(self, d):
        if self.is_zero(d):
            raise RingError("R/(0) is infinite")
        return self.characteristic ** self.norm(d)

    def residues(self, d):
        deg = self.norm(d)
        if deg < 0:
            raise RingError("R/(0) is infinite")
        for coeffs in itertools.product(range(self.characteristic), repeat=deg):
            yield self._from_coefficients(coeffs)

    def residue_at(self, d, i):
        # itertools.product varies the last coefficient fastest, so the
        # coefficients are the base-p digits of i, most significant first.
        p = self.characteristic
        deg = self.norm(d)
        i = range(self.residue_count(d))[i]  # bounds check, as for a list
        coeffs = [0] * deg
        for k in range(deg - 1, -1, -1):
            i, coeffs[k] = divmod(i, p)
        return self._from_coefficients(coeffs)

    def format(self, a):
        a = self.coefficients(a)
        if not a:
            return "0"
        parts = []
        for exp in range(len(a) - 1, -1, -1):
            c = a[exp]
            if c == 0:
                continue
            if exp == 0:
                parts.append(str(c))
            elif exp == 1:
                parts.append("x" if c == 1 else f"{c}*x")
            else:
                parts.append(f"x^{exp}" if c == 1 else f"{c}*x^{exp}")
        return "+".join(parts)

    def parse(self, text):
        """Parse the strict ASCII form produced by format.

        Terms are joined by '+', exponents strictly decreasing, coefficients
        in 1..p-1 with no redundant '1*' or 'x^1'/'x^0' spellings.  Anything
        non-canonical is rejected rather than normalized.
        """
        p = self.characteristic
        stripped = text.strip()
        if stripped == "0":
            return self.zero
        coeffs = {}
        last_exp = None
        for term in stripped.split("+"):
            term = term.strip()
            m = _TERM_RE.fullmatch(term)
            if not m:
                raise RingError(f"not a polynomial term: {term!r}")
            if m.group("const") is not None:
                coeff, exp = _literal_int(m.group("const")), 0
                if coeff == 0 and stripped != "0":
                    raise RingError("zero term in a polynomial literal")
            else:
                coeff = _literal_int(m.group("cx")) if m.group("cx") else 1
                exp = _literal_int(m.group("exp")) if m.group("exp") else 1
                if m.group("cx") is not None and coeff < 2:
                    raise RingError(f"non-canonical coefficient in {term!r}")
                if m.group("exp") is not None and exp < 2:
                    raise RingError(f"non-canonical exponent in {term!r}")
                if exp > MAX_LITERAL_DEGREE:
                    raise RingError(f"degree {exp} is above {MAX_LITERAL_DEGREE}")
            if coeff >= p:
                raise RingError(
                    f"coefficient {coeff} is not reduced modulo {p}"
                )
            if last_exp is not None and exp >= last_exp:
                raise RingError("polynomial terms must have decreasing exponents")
            last_exp = exp
            coeffs[exp] = coeff
        out = [0] * (max(coeffs) + 1)
        for exp, c in coeffs.items():
            out[exp] = c
        return self.canonical(tuple(out))

    def __repr__(self):
        return f"PrimeFieldPolynomialRing({self.characteristic})"


_INTEGERS = IntegerRing()


def integer_ring() -> IntegerRing:
    return _INTEGERS


_POLYNOMIAL_RINGS: Dict[int, PrimeFieldPolynomialRing] = {}


def polynomial_ring(p: int) -> PrimeFieldPolynomialRing:
    """The one F_p[x] of each characteristic, so rings compare by identity.

    Three element formats: F_2[x] packs each element in one int, F_3[x]
    bit-slices it into two ints (one plane per nonzero coefficient value),
    and p >= 5 keeps coefficient tuples.  ``PrimeFieldPolynomialRing(p)``
    built directly keeps tuples for every p; it is the packed rings' test
    oracle.
    """
    ring = _POLYNOMIAL_RINGS.get(p)
    if ring is None:
        # The packed rings subclass PrimeFieldPolynomialRing, so their
        # module imports this one; it is imported on first use.
        from .packed import PACKED_RINGS

        packed = PACKED_RINGS.get(p)
        ring = _POLYNOMIAL_RINGS[p] = (
            packed() if packed else PrimeFieldPolynomialRing(p)
        )
    return ring


class Ideal:
    """Principal ideal of a ring, held by its canonical generator."""

    def __init__(self, ring: Ring, generator):
        generator = ring.canonical(generator)
        if ring.is_zero(generator):
            raise RingError("ideal generator must be nonzero")
        if ring.is_unit(generator):
            raise RingError("ideal generator must not be a unit")
        self.ring = ring
        self.generator, _ = ring.unit_normalize(generator)

    def __repr__(self):
        return f"Ideal({self.ring!r}, {self.ring.format(self.generator)})"
