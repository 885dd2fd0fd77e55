"""Euclidean domain layer: integers and prime-field polynomials."""

import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from adictower.exactalg.matrices import Matrix, hstack
from adictower.exactalg.primes import is_prime, prime_divisors
from adictower.exactalg.rings import (
    Ideal,
    PrimeFieldPolynomialRing,
    RingError,
    integer_ring,
    polynomial_ring,
)
from oracles import (
    is_irreducible,
    is_prime as trial_division_is_prime,
    poly_add,
    poly_euclid_divmod,
    poly_mul,
)

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


def test_rings_are_interned():
    assert integer_ring() is integer_ring()
    assert polynomial_ring(3) is polynomial_ring(3)
    assert polynomial_ring(3) is not polynomial_ring(5)
    a = Matrix.from_rows(polynomial_ring(3), [[(1, 1)], [(2,)]])
    b = Matrix.from_rows(polynomial_ring(3), [[(0, 1), (1,)]])
    assert (a @ b) == Matrix.from_rows(
        polynomial_ring(3), [[(0, 1, 1), (1, 1)], [(0, 2), (2,)]]
    )
    assert hstack([a, a]).cols == 2


def test_poly_basic_arithmetic():
    x = F2X.parse("x")
    assert F2X.add(x, x) == F2X.zero
    assert F2X.coefficients(F2X.mul(x, x)) == (0, 0, 1)
    assert F2X.coefficients(F2X.add(F2X.one, x)) == (1, 1)
    assert F3X.neg(F3X.canonical((1, 2))) == F3X.canonical((2, 1))
    assert F2X.is_zero(F2X.canonical(()))


def test_poly_divmod():
    # x^3 + x divided by x^2 + 1 over F_2: quotient x, remainder 0
    q, r = F2X.euclid_divmod(F2X.canonical((0, 1, 0, 1)), F2X.canonical((1, 0, 1)))
    assert F2X.coefficients(q) == (0, 1)
    assert F2X.coefficients(r) == ()
    # x^2 + 1 divided by x over F_3: quotient x, remainder 1
    q, r = F3X.euclid_divmod(F3X.canonical((1, 0, 1)), F3X.canonical((0, 1)))
    assert F3X.coefficients(q) == (0, 1)
    assert F3X.coefficients(r) == (1,)
    with pytest.raises(RingError):
        F2X.euclid_divmod(F2X.one, F2X.zero)


def test_poly_gcd_ext_frozen():
    # gcd(x^2 + x, x) = x over F_2 with cofactors (0, 1)
    a, x = F2X.canonical((0, 1, 1)), F2X.canonical((0, 1))
    g, s, t = F2X.gcd_ext(a, x)
    assert F2X.coefficients(g) == (0, 1)
    assert F2X.add(F2X.mul(s, a), F2X.mul(t, x)) == x
    assert (F2X.coefficients(s), F2X.coefficients(t)) == ((), (1,))


def test_poly_canonical_is_monic():
    a = F3X.canonical((1, 2))
    g, unit = F3X.unit_normalize(a)
    assert F3X.coefficients(g) == (2, 1)
    assert F3X.mul(unit, g) == a


def test_poly_format_parse_roundtrip():
    cases = [(), (1,), (0, 1), (1, 1, 1), (2, 0, 1)]
    for c in cases:
        a = F3X.canonical(c)
        assert F3X.parse(F3X.format(a)) == a
        assert F3X.coefficients(a) == c
    assert F2X.format(F2X.canonical((1, 1, 1))) == "x^2+x+1"
    assert F2X.format(F2X.canonical((0, 1))) == "x"
    assert F2X.format(F2X.canonical(())) == "0"


def test_poly_parse_rejects_noncanonical():
    for bad in ("x^1", "x^0", "1*x", "2x", "x+x", "3", "x^2+3x"):
        with pytest.raises(RingError):
            F2X.parse(bad)


def test_poly_parse_bounds_the_degree():
    assert len(F2X.coefficients(F2X.parse("x^4300+1"))) == 4301
    for bad in ("x^4301", "x^99999999999", "x^" + "9" * 5000, "1" * 5000):
        with pytest.raises(RingError):
            F2X.parse(bad)


def test_poly_irreducibility():
    c = F2X.canonical
    assert F2X.is_prime_element(c((1, 1, 1)))
    assert not F2X.is_prime_element(c((1, 0, 1)))
    assert F2X.is_prime_element(c((0, 1)))
    assert not F2X.is_prime_element(c((1,)))
    assert F2X.is_prime_element(c((1, 1, 0, 1)))


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
            coeffs = list(reversed(ring.coefficients(a)))
            expected = sympy.Poly(coeffs, x, modulus=p).is_irreducible
            assert ring.is_prime_element(a) == expected, (p, a)


def test_poly_residues_count():
    residues = list(F2X.residues(F2X.canonical((1, 0, 1))))
    assert len(residues) == 4
    assert F2X.residue_count(F2X.canonical((1, 0, 1))) == 4
    assert F3X.residue_count(F3X.canonical((0, 1))) == 3


@pytest.mark.parametrize(
    "ring, modulus",
    [
        (Z, 12),
        (Z, 1),
        (F2X, (1, 1, 0, 1)),
        (F2X, (0, 1)),
        (F3X, (1, 0, 1)),
        (F3X, (2, 1, 1, 1)),
        (F5X, (1, 0, 3, 1)),
        (polynomial_ring(7), (0, 2, 5)),
    ],
)
def test_residue_at_indexes_residues(ring, modulus):
    modulus = ring.canonical(modulus)
    listed = list(ring.residues(modulus))
    assert len(set(listed)) == len(listed) == ring.residue_count(modulus)
    assert all(type(r) is type(ring.zero) and ring.canonical(r) == r for r in listed)
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


@given(st.integers(-200, 200), st.integers(-200, 200).filter(lambda b: b != 0))
def test_integer_euclidean_property(a, b):
    q, r = Z.euclid_divmod(a, b)
    assert q * b + r == a
    assert 0 <= r < abs(b)
    assert Z.rem(a, b) == r


def test_integer_rem_by_zero_is_a_ring_error():
    with pytest.raises(RingError):
        Z.rem(3, 0)


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


@given(small_poly, small_poly.filter(lambda p: p != F3X.zero))
def test_poly_euclidean_property(a, b):
    q, r = F3X.euclid_divmod(a, b)
    assert F3X.add(F3X.mul(q, b), r) == a
    assert F3X.norm(r) < F3X.norm(b)


@given(small_poly, small_poly)
def test_poly_gcd_ext_property(a, b):
    g, s, t = F3X.gcd_ext(a, b)
    assert F3X.add(F3X.mul(s, a), F3X.mul(t, b)) == g
    if g != F3X.zero:
        assert F3X.coefficients(g)[-1] == 1
        assert F3X.rem(a, g) == F3X.zero
        assert F3X.rem(b, g) == F3X.zero


ORACLE_RINGS = [polynomial_ring(p) for p in (2, 3, 5, 7, 65537)]


def _assert_canonical(ring, value):
    assert type(value) is type(ring.zero)
    coeffs = ring.coefficients(value)
    assert all(type(c) is int and 0 <= c < ring.characteristic for c in coeffs)
    assert not coeffs or coeffs[-1] != 0
    assert ring.canonical(coeffs) == value


@st.composite
def _poly_pairs(draw):
    """Canonical a and b of degree below 6; the top coefficients of b
    negate those of a in about half the draws, down to b = -a."""
    ring = draw(st.sampled_from(ORACLE_RINGS))
    p = ring.characteristic
    coeffs = st.lists(st.integers(0, p - 1), max_size=5)
    lead = st.integers(1, p - 1)
    a = draw(coeffs) + [draw(lead)]
    b = draw(coeffs)
    b = (b + [0] * len(a))[: len(a)] if draw(st.booleans()) else b + [draw(lead)]
    cancel = draw(st.integers(0, len(a))) if len(b) == len(a) else 0
    for i in range(len(a) - cancel, len(a)):
        b[i] = (-a[i]) % p
    if draw(st.booleans()):
        a, b = b, a
    return ring, ring.canonical(tuple(a)), ring.canonical(tuple(b))


@given(_poly_pairs())
@settings(max_examples=400)
def test_poly_arithmetic_matches_canonicalising_oracle(pair):
    ring, a, b = pair
    neg_b = ring.canonical(tuple(-c for c in ring.coefficients(b)))
    results = [
        (ring.add(a, b), poly_add(ring, a, b)),
        (ring.add(b, a), poly_add(ring, a, b)),
        (ring.neg(b), neg_b),
        (ring.sub(a, b), poly_add(ring, a, neg_b)),
        (ring.mul(a, b), poly_mul(ring, a, b)),
        (ring.mul(b, a), poly_mul(ring, a, b)),
    ]
    for x, y in ((a, b), (b, a)):
        if y:
            results += zip(ring.euclid_divmod(x, y), poly_euclid_divmod(ring, x, y))
        else:
            with pytest.raises(RingError):
                ring.euclid_divmod(x, y)
    for got, expected in results:
        _assert_canonical(ring, got)
        assert got == expected


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=lambda r: f"F{r.characteristic}")
def test_poly_arithmetic_edge_cases(ring):
    p = ring.characteristic
    c = ring.canonical
    zero = c(())
    a = c((1, p - 1, 1))  # x^2 - x + 1
    minus_a = ring.neg(a)
    assert ring.add(a, minus_a) == ring.sub(a, a) == zero
    assert ring.add(a, zero) == ring.add(zero, a) == ring.sub(a, zero) == a
    assert ring.mul(a, zero) == ring.mul(zero, a) == zero
    # the x^2 and x terms cancel and leave the constant 2
    assert ring.add(a, c((1, 1, p - 1))) == c((2,))
    # a divisor of higher degree leaves the dividend as the remainder
    assert ring.euclid_divmod(a, c((0, 0, 0, 1))) == (zero, a)
    assert ring.euclid_divmod(zero, a) == (zero, zero)
    assert ring.mul(c((p - 1,)), c((p - 1,))) == c((1,))


# Built directly, F_2[x] and F_3[x] keep coefficient tuples: the oracles of
# the packed rings that polynomial_ring(2) and polynomial_ring(3) hand out.
TUPLE_F2X = PrimeFieldPolynomialRing(2)
PACKED = [F2X, F3X]
TUPLE_RINGS = {2: TUPLE_F2X, 3: PrimeFieldPolynomialRing(3)}


def _packed_id(ring):
    return f"F{ring.characteristic}"


@pytest.mark.parametrize("ring", PACKED, ids=_packed_id)
@given(data=st.data())
@settings(max_examples=300)
def test_packed_ring_matches_the_tuple_ring(ring, data):
    p = ring.characteristic
    tuple_ring = TUPLE_RINGS[p]
    assert ring is not tuple_ring

    def coefficients(max_size):
        return data.draw(st.lists(st.integers(0, p - 1), max_size=max_size))

    def same(packed, expected):
        # equal coefficients, and len() counts them as for a tuple
        return (
            ring.coefficients(packed) == expected
            and len(packed) == len(expected) == ring.norm(packed) + 1
        )

    def all_same(packed, expected):
        return len(packed) == len(expected) and all(map(same, packed, expected))

    a_coeffs, b_coeffs, d_coeffs = coefficients(12), coefficients(12), coefficients(5)
    a, b = ring.canonical(a_coeffs), ring.canonical(b_coeffs)
    ta, tb = tuple_ring.canonical(a_coeffs), tuple_ring.canonical(b_coeffs)
    assert same(a, ta) and same(b, tb)
    assert same(ring.add(a, b), tuple_ring.add(ta, tb))
    assert same(ring.sub(a, b), tuple_ring.sub(ta, tb))
    assert same(ring.neg(a), tuple_ring.neg(ta))
    assert same(ring.mul(a, b), tuple_ring.mul(ta, tb))
    quotient = ring.try_div(a, b)
    expected = tuple_ring.try_div(ta, tb)
    assert (quotient is None) == (expected is None)
    if quotient is not None:
        assert same(quotient, expected)
    if b != ring.zero:
        assert all_same(ring.euclid_divmod(a, b), tuple_ring.euclid_divmod(ta, tb))
        assert same(ring.rem(a, b), tuple_ring.rem(ta, tb))
    else:
        with pytest.raises(RingError):
            ring.euclid_divmod(a, b)
    assert all_same(ring.gcd_ext(a, b), tuple_ring.gcd_ext(ta, tb))
    assert all_same(ring.unit_normalize(a), tuple_ring.unit_normalize(ta))
    assert ring.norm(a) == tuple_ring.norm(ta)
    assert ring.format(a) == tuple_ring.format(ta)
    assert ring.parse(tuple_ring.format(ta)) == a
    assert ring.is_prime_element(a) == tuple_ring.is_prime_element(ta)
    d, td = ring.canonical(d_coeffs + [1]), tuple_ring.canonical(d_coeffs + [1])
    residues = list(ring.residues(d))
    assert all_same(residues, list(tuple_ring.residues(td)))
    assert [ring.residue_at(d, i) for i in range(len(residues))] == residues
    assert ring.residue_count(d) == tuple_ring.residue_count(td)


@pytest.mark.parametrize("degree", [12, 13, 14])
def test_packed_f2_residues_past_the_reversal_table_match_the_tuple_ring(degree):
    # residues of degree above 12 are built from a table of the low bits
    d = F2X.canonical((1,) * (degree + 1))
    td = TUPLE_F2X.canonical((1,) * (degree + 1))
    packed = list(F2X.residues(d))
    assert [F2X.coefficients(r) for r in packed] == list(TUPLE_F2X.residues(td))
    assert all(type(r) is type(F2X.zero) for r in packed)


def test_packed_f2_residues_stay_lazy_and_in_order_at_high_degree():
    d = F2X.canonical((0,) * 40 + (1,))
    head = list(itertools.islice(F2X.residues(d), 3 * 4096 + 5))
    assert head == [F2X.residue_at(d, i) for i in range(len(head))]


@pytest.mark.parametrize("ring", PACKED, ids=_packed_id)
def test_packed_canonical_takes_elements_and_coefficient_sequences(ring):
    p = ring.characteristic
    tuple_ring = TUPLE_RINGS[p]
    x_plus_one = ring.parse("x+1")
    assert ring.canonical(x_plus_one) is x_plus_one
    assert ring.canonical((1, 1)) == ring.canonical([1 + p, 1 - p, 0]) == x_plus_one
    # a plain sequence lists coefficients, even one shaped like an element
    for coeffs in ((1, 2), [1, 2], (1, 0), (p - 1, 1)):
        converted = ring.canonical(coeffs)
        assert type(converted) is type(ring.zero)
        assert ring.coefficients(converted) == tuple_ring.canonical(coeffs)
    # an int is a constant, as over coefficient tuples and every p >= 5
    for n in range(-p - 1, 2 * p + 1):
        assert ring.coefficients(ring.canonical(n)) == tuple_ring.canonical(n)
    assert ring.canonical(p) == ring.zero and ring.canonical(p) != ring.parse("x")
    assert ring.coefficients(ring.parse("x^4300+x+1")) == (1, 1) + (0,) * 4298 + (1,)
    for bad in (True, "x", (1, "1"), 1.0):
        with pytest.raises(RingError):
            ring.canonical(bad)
    assert repr(ring) != repr(tuple_ring)


def test_formattable_power_stops_at_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    Z.check_formattable_power(10, limit - 1)
    Z.check_formattable_power(-(10**limit - 1), 1)
    for a, k in ((10, limit), (-(10**limit), 1), (3, 10**9)):
        with pytest.raises(RingError, match=f"depth {k}"):
            Z.check_formattable_power(a, k)
    F2X.check_formattable_power(F2X.parse("x"), 10**9)
