"""Exact primality of integers.

``is_prime`` trial-divides by the first 13 primes and then runs the strong
Miller–Rabin test with those 13 bases, which no composite below
``MILLER_RABIN_BOUND`` = 3317044064679887385961981 passes (Sorenson &
Webster, Math. Comp. 86, 2017).  From that bound on it runs BPSW: a strong
base-2 test and a strong Lucas test with Selfridge's parameters (Baillie &
Wagstaff, Math. Comp. 35, 1980).  No composite is known to pass BPSW.
"""

from __future__ import annotations

from math import isqrt
from typing import List

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if n < MILLER_RABIN_BOUND:
        return all(_strong_probable_prime(n, a) for a in SMALL_PRIMES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def prime_divisors(n: int) -> List[int]:
    """The distinct prime divisors of n >= 1 by trial division, ascending."""
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _strong_probable_prime(n: int, a: int) -> bool:
    """Strong Fermat test of the odd n > a to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of the odd n > 41 with Selfridge's parameters:
    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4."""
    if isqrt(n) ** 2 == n:
        return False  # no such D exists for a square
    d_param = 5
    while True:
        j = _jacobi(d_param, n)
        if j == -1:
            break
        if j == 0 and abs(d_param) != n:
            return False
        d_param = -d_param - 2 if d_param > 0 else -d_param + 2
    q_param = (1 - d_param) // 4

    def half(v):
        v %= n
        return (v + n if v % 2 else v) // 2

    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # U_d, V_d and Q^d mod n, by doubling and stepping through d's bits.
    u, v, qk = 0, 2, 1
    for bit in bin(d)[2:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = half(u + v), half(d_param * u + v)
            qk = qk * q_param % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False
