"""Euclidean domain layer: integers and prime-field polynomials."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from adictower.exactalg.primes import is_prime, prime_divisors
from adictower.exactalg.rings import (
    Ideal,
    RingError,
    integer_ring,
    polynomial_ring,
)
from oracles import is_irreducible, is_prime as trial_division_is_prime

Z = integer_ring()
F2X = polynomial_ring(2)
F3X = polynomial_ring(3)
F5X = polynomial_ring(5)


def test_integer_canonical_and_units():
    assert Z.canonical(-0) == 0
    assert Z.unit_normalize(-6) == (6, -1)
    assert Z.unit_normalize(6) == (6, 1)
    assert Z.is_unit(-1) and Z.is_unit(1)
    assert not Z.is_unit(2) and not Z.is_unit(0)


def test_integer_divmod_canonical_residues():
    q, r = Z.euclid_divmod(7, 3)
    assert (q, r) == (2, 1)
    q, r = Z.euclid_divmod(-7, 3)
    assert (q, r) == (-3, 2)
    q, r = Z.euclid_divmod(7, -3)
    assert (q, r) == (-2, 1)
    assert 0 <= r < 3


def test_integer_gcd_ext_frozen():
    g, s, t = Z.gcd_ext(12, 8)
    assert g == 4
    assert s * 12 + t * 8 == 4
    assert (g, s, t) == (4, 1, -1)
    assert Z.gcd_ext(0, 0) == (0, 0, 0)
    g, s, t = Z.gcd_ext(-4, 6)
    assert g == 2 and s * -4 + t * 6 == 2


def test_integer_parse_strictness():
    assert Z.parse("-17") == -17
    assert Z.parse("0") == 0
    assert Z.parse(" 2 ") == 2
    for bad in ("", "1.5", "x", "+3", "0x2", "1 2", "7" * 5000):
        with pytest.raises(RingError):
            Z.parse(bad)


def test_integer_primality():
    assert Z.is_prime_element(2)
    assert Z.is_prime_element(-3)
    assert not Z.is_prime_element(6)
    assert not Z.is_prime_element(1)
    assert not Z.is_prime_element(0)


@given(st.integers(-(10**6), 10**6))
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == trial_division_is_prime(n)
    assert Z.is_prime_element(n) == trial_division_is_prime(abs(n))


@pytest.mark.parametrize(
    "n",
    [
        # Carmichael numbers
        561,
        41041,
        825265,
        # strong pseudoprimes to bases 2, 3, 5 and 7, to the first 12
        # prime bases, and to the first 13 (so decided by BPSW)
        3215031751,
        318665857834031151167461,
        3317044064679887385961981,
        (2**61 - 1) * (2**89 - 1),
    ],
)
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


@pytest.mark.parametrize("e", [61, 89, 107, 127])
def test_is_prime_accepts_mersenne_primes(e):
    assert is_prime(2**e - 1)


@given(st.integers(1, 3000))
def test_prime_divisors_match_trial_division(n):
    expected = [q for q in range(2, n + 1) if n % q == 0 and trial_division_is_prime(q)]
    assert prime_divisors(n) == expected


def test_poly_requires_prime_characteristic():
    for bad in (4, 1, 0, -3, 561):
        with pytest.raises(RingError):
            polynomial_ring(bad)


def test_poly_basic_arithmetic():
    x = (0, 1)
    one = (1,)
    assert F2X.add(x, x) == ()
    assert F2X.mul(x, x) == (0, 0, 1)
    assert F2X.add(one, x) == (1, 1)
    assert F3X.neg((1, 2)) == (2, 1)
    assert F2X.is_zero(())


def test_poly_divmod():
    # x^3 + x divided by x^2 + 1 over F_2: quotient x, remainder 0
    q, r = F2X.euclid_divmod((0, 1, 0, 1), (1, 0, 1))
    assert q == (0, 1)
    assert r == ()
    # x^2 + 1 divided by x over F_3: quotient x, remainder 1
    q, r = F3X.euclid_divmod((1, 0, 1), (0, 1))
    assert q == (0, 1)
    assert r == (1,)
    with pytest.raises(RingError):
        F2X.euclid_divmod((1,), ())


def test_poly_gcd_ext_frozen():
    # gcd(x^2 + x, x) = x over F_2 with cofactors (0, 1)
    g, s, t = F2X.gcd_ext((0, 1, 1), (0, 1))
    assert g == (0, 1)
    assert F2X.add(F2X.mul(s, (0, 1, 1)), F2X.mul(t, (0, 1))) == (0, 1)
    assert (s, t) == ((), (1,))


def test_poly_canonical_is_monic():
    g, unit = F3X.unit_normalize((1, 2))
    assert g == (2, 1)
    assert F3X.mul(unit, g) == (1, 2)


def test_poly_format_parse_roundtrip():
    cases = [(), (1,), (0, 1), (1, 1, 1), (2, 0, 1)]
    for c in cases:
        ring = F3X
        assert ring.parse(ring.format(c)) == c
    assert F2X.format((1, 1, 1)) == "x^2+x+1"
    assert F2X.format((0, 1)) == "x"
    assert F2X.format(()) == "0"


def test_poly_parse_rejects_noncanonical():
    for bad in ("x^1", "x^0", "1*x", "2x", "x+x", "3", "x^2+3x"):
        with pytest.raises(RingError):
            F2X.parse(bad)


def test_poly_parse_bounds_the_degree():
    assert len(F2X.parse("x^4300+1")) == 4301
    for bad in ("x^4301", "x^99999999999", "x^" + "9" * 5000, "1" * 5000):
        with pytest.raises(RingError):
            F2X.parse(bad)


def test_poly_irreducibility():
    assert F2X.is_prime_element((1, 1, 1))
    assert not F2X.is_prime_element((1, 0, 1))
    assert F2X.is_prime_element((0, 1))
    assert not F2X.is_prime_element((1,))
    assert F2X.is_prime_element((1, 1, 0, 1))


@given(
    st.sampled_from([F2X, F3X, F5X]).flatmap(
        lambda ring: st.tuples(
            st.just(ring),
            st.lists(st.integers(0, ring.characteristic - 1), max_size=7),
        )
    )
)
@settings(max_examples=300)
def test_poly_irreducibility_matches_brute_force(ring_and_coeffs):
    # Up to degree 6, leading coefficients other than 1 included.
    ring, coeffs = ring_and_coeffs
    a = ring.canonical(tuple(coeffs))
    assert ring.is_prime_element(a) == is_irreducible(ring, a)


def test_is_prime_matches_sympy_on_large_integers():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(0)
    for _ in range(300):
        n = rng.getrandbits(rng.randint(64, 256))
        assert is_prime(n) == bool(sympy.isprime(n)), n
        p = int(sympy.nextprime(n))
        assert is_prime(p), p


def test_poly_irreducibility_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(0)
    x = sympy.Symbol("x")
    for p in (2, 3, 7, 101, 65537):
        ring = polynomial_ring(p)
        for _ in range(60):
            degree = rng.randint(1, 10)
            coeffs = [rng.randrange(p) for _ in range(degree)] + [rng.randrange(1, p)]
            a = ring.canonical(tuple(coeffs))
            expected = sympy.Poly(list(reversed(a)), x, modulus=p).is_irreducible
            assert ring.is_prime_element(a) == expected, (p, a)


def test_poly_residues_count():
    residues = list(F2X.residues((1, 0, 1)))
    assert len(residues) == 4
    assert F2X.residue_count((1, 0, 1)) == 4
    assert F3X.residue_count((0, 1)) == 3


@pytest.mark.parametrize(
    "ring, modulus",
    [
        (Z, 12),
        (Z, 1),
        (F2X, (1, 1, 0, 1)),
        (F2X, (0, 1)),
        (F3X, (1, 0, 1)),
        (F3X, (2, 1, 1, 1)),
    ],
)
def test_residue_at_indexes_residues(ring, modulus):
    listed = list(ring.residues(modulus))
    assert [ring.residue_at(modulus, i) for i in range(len(listed))] == listed
    with pytest.raises(IndexError):
        ring.residue_at(modulus, len(listed))


def test_ideal_rejects_degenerate_generators():
    with pytest.raises(RingError):
        Ideal(Z, 0)
    with pytest.raises(RingError):
        Ideal(Z, 1)
    with pytest.raises(RingError):
        Ideal(Z, -1)
    ideal = Ideal(Z, -2)
    assert ideal.generator == 2
    assert ideal.generator_power(3) == 8


@given(st.integers(-200, 200), st.integers(-200, 200).filter(lambda b: b != 0))
def test_integer_euclidean_property(a, b):
    q, r = Z.euclid_divmod(a, b)
    assert q * b + r == a
    assert 0 <= r < abs(b)


@given(st.integers(-60, 60), st.integers(-60, 60))
def test_integer_gcd_ext_property(a, b):
    g, s, t = Z.gcd_ext(a, b)
    assert s * a + t * b == g
    assert g >= 0
    if g != 0:
        assert a % g == 0 and b % g == 0


small_poly = st.lists(st.integers(0, 2), min_size=0, max_size=4).map(
    lambda cs: F3X.canonical(tuple(cs))
)


@given(small_poly, small_poly.filter(lambda p: p != ()))
def test_poly_euclidean_property(a, b):
    q, r = F3X.euclid_divmod(a, b)
    assert F3X.add(F3X.mul(q, b), r) == a
    assert F3X.norm(r) < F3X.norm(b)


@given(small_poly, small_poly)
def test_poly_gcd_ext_property(a, b):
    g, s, t = F3X.gcd_ext(a, b)
    assert F3X.add(F3X.mul(s, a), F3X.mul(t, b)) == g
    if g != ():
        assert g[-1] == 1
        assert F3X.rem(a, g) == ()
        assert F3X.rem(b, g) == ()
