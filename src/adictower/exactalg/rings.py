"""Exact arithmetic in the supported Euclidean domains.

Two domains are available: the ring of integers, and univariate polynomial
rings over a prime field.  Elements are plain Python values (arbitrary
precision ``int`` for the integers, tuples of coefficients in ascending
degree for polynomials, with no trailing zeros and ``()`` meaning zero).
All arithmetic goes through a ring object so the matrix and module layers
stay domain-agnostic.

Canonical associates are positive integers respectively monic polynomials;
``gcd_ext`` and the normal form routines always return those.

Prime elements are decided exactly and in-tree: integers by
:func:`adictower.exactalg.primes.is_prime`, polynomials by Rabin's
irreducibility test over F_p (Rabin, SIAM J. Comput. 9, 1980).
"""

from __future__ import annotations

import itertools
import re
from typing import Iterator, Tuple, Union

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
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def power(self, a, k: int):
        if k < 0:
            raise RingError("negative powers are not defined in the ring")
        out = self.one
        for _ in range(k):
            out = self.mul(out, a)
        return out

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
        old_r, r = self.canonical(a), self.canonical(b)
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

    def from_int(self, n: int) -> RingElement:
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    def parse(self, text: str) -> RingElement:
        raise NotImplementedError


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

    def from_int(self, n):
        return n

    def format(self, a):
        return str(a)

    def parse(self, text):
        text = text.strip()
        if not re.fullmatch(r"-?[0-9]+", text):
            raise RingError(f"not an integer literal: {text!r}")
        return _literal_int(text)

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash(self.kind)

    def __repr__(self):
        return "IntegerRing()"


_TERM_RE = re.compile(
    r"(?:(?P<cx>[0-9]+)\*)?x(?:\^(?P<exp>[0-9]+))?|(?P<const>[0-9]+)"
)


class PrimeFieldPolynomialRing(Ring):
    """F_p[x] with coefficient tuples in ascending degree."""

    kind = "polynomials"
    zero: Tuple[int, ...] = ()
    one: Tuple[int, ...] = (1,)

    def __init__(self, p: int):
        if not is_prime(p):
            raise RingError(f"characteristic must be prime, got {p}")
        self.characteristic = p

    def canonical(self, value):
        p = self.characteristic
        if isinstance(value, bool):
            raise RingError(f"not a polynomial element: {value!r}")
        if isinstance(value, int):
            value = (value,)
        if not isinstance(value, (tuple, list)) or not all(
            isinstance(c, int) for c in value
        ):
            raise RingError(f"not a polynomial element: {value!r}")
        coeffs = [c % p for c in value]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return tuple(coeffs)

    def add(self, a, b):
        n = max(len(a), len(b))
        out = [0] * n
        for i, c in enumerate(a):
            out[i] = c
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.characteristic
        return self.canonical(tuple(out))

    def neg(self, a):
        return tuple((-c) % self.characteristic for c in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % self.characteristic
        return self.canonical(tuple(out))

    def euclid_divmod(self, a, b):
        if not b:
            raise RingError("division by zero")
        p = self.characteristic
        lead_inv = pow(b[-1], p - 2, p)
        rem = list(a)
        quo = [0] * max(len(a) - len(b) + 1, 1)
        while len(rem) >= len(b):
            if rem[-1] == 0:
                rem.pop()
                continue
            shift = len(rem) - len(b)
            factor = (rem[-1] * lead_inv) % p
            quo[shift] = factor
            for i, c in enumerate(b):
                rem[shift + i] = (rem[shift + i] - factor * c) % p
            while rem and rem[-1] == 0:
                rem.pop()
        return self.canonical(tuple(quo)), tuple(rem)

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
        x = (0, 1)
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
        if not d:
            raise RingError("R/(0) is infinite")
        return self.characteristic ** (len(d) - 1)

    def residues(self, d):
        deg = self.norm(d)
        if deg < 0:
            raise RingError("R/(0) is infinite")
        for coeffs in itertools.product(range(self.characteristic), repeat=deg):
            yield self.canonical(coeffs)

    def residue_at(self, d, i):
        # itertools.product varies the last coefficient fastest, so the
        # coefficients are the base-p digits of i, most significant first.
        p = self.characteristic
        deg = self.norm(d)
        i = range(self.residue_count(d))[i]  # bounds check, as for a list
        coeffs = [0] * deg
        for k in range(deg - 1, -1, -1):
            i, coeffs[k] = divmod(i, p)
        return self.canonical(coeffs)

    def from_int(self, n):
        return self.canonical((n,))

    def format(self, a):
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
            return ()
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

    def __eq__(self, other):
        return (
            isinstance(other, PrimeFieldPolynomialRing)
            and other.characteristic == self.characteristic
        )

    def __hash__(self):
        return hash((self.kind, self.characteristic))

    def __repr__(self):
        return f"PrimeFieldPolynomialRing({self.characteristic})"


_INTEGERS = IntegerRing()


def integer_ring() -> IntegerRing:
    return _INTEGERS


def polynomial_ring(p: int) -> PrimeFieldPolynomialRing:
    return PrimeFieldPolynomialRing(p)


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

    def generator_power(self, k: int):
        return self.ring.power(self.generator, k)

    def __eq__(self, other):
        return (
            isinstance(other, Ideal)
            and other.ring == self.ring
            and other.generator == self.generator
        )

    def __repr__(self):
        return f"Ideal({self.ring!r}, {self.ring.format(self.generator)})"
