import cmath
import random

from fractions import Fraction
from math import gcd, lcm

import click
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from monomial.cli import _parse_prime_power
from monomial.cyclotomic import (
    Cyclotomic,
    _cyclo_coeffs,
    _galois_apply,
    _mobius,
    _poly_rem,
    factorize,
    sqrt_prime,
    trace_row,
)
from oracles import is_one, sqrt_prime_power


def zeta(m, k=1):
    return Cyclotomic.root_of_unity(m, k)


def random_elt(rng, m):
    return Cyclotomic(m, [Fraction(rng.randrange(-3, 4)) for _ in range(m)])


def test_roots_of_unity_basics():
    assert is_one(zeta(1))
    assert (zeta(4) * zeta(4)) == Cyclotomic.from_rational(-1)
    assert is_one(zeta(3) * zeta(3) * zeta(3))
    # 1 + z3 + z3^2 = 0
    assert (1 + zeta(3) + zeta(3, 2)).is_zero()
    # full sum of m-th roots vanishes for m > 1
    for m in (2, 3, 4, 5, 6, 8, 12):
        total = sum((zeta(m, k) for k in range(m)), Cyclotomic.zero())
        assert total.is_zero()


def test_cross_modulus_equality():
    # zeta_6^3 = -1 = zeta_2, different moduli
    assert zeta(6, 3) == zeta(2, 1)
    assert zeta(6, 2) == zeta(3, 1)
    assert zeta(12, 3) == zeta(4, 1)
    assert zeta(6, 2) != zeta(3, 2)


elements = st.tuples(
    st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12]),
    st.lists(st.integers(-3, 3), min_size=1, max_size=6),
).map(lambda t: Cyclotomic(t[0], [Fraction(c) for c in t[1][: t[0]]] or [Fraction(0)]))


@settings(max_examples=60, deadline=None)
@given(elements, elements)
def test_ring_axioms_and_conjugation(x, y):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    # |xy|^2 = |x|^2 |y|^2
    assert (x * y) * (x * y).conjugate() == (x * x.conjugate()) * (y * y.conjugate())


def _fraction_product(x, y):
    """(modulus, coefficients) of x * y promoted, multiplied and reduced in
    Fraction arithmetic throughout: the oracle for the integer kernels."""
    m = lcm(x.m, y.m)
    phi = _cyclo_coeffs(m)

    def promoted(z):
        out = [Fraction(0)] * m
        for k, c in enumerate(z.coeffs):
            out[(k * (m // z.m)) % m] += c
        return _poly_rem(out, phi)

    a, b = promoted(x), promoted(y)
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return m, tuple(_poly_rem(out, phi))


def test_integer_product_matches_fraction_oracle():
    rng = random.Random(41)
    moduli = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 20]

    def element():
        m = rng.choice(moduli)
        kind = rng.randrange(5)
        if kind == 0:
            return Cyclotomic.zero(m)
        if kind == 1:
            return Cyclotomic.from_rational(Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)), m)
        dens = [1, 2, 3, 4, 6, 7, 12]
        return Cyclotomic(m, [Fraction(rng.randrange(-5, 6), rng.choice(dens)) for _ in range(m)])

    for _ in range(300):
        x, y = element(), element()
        oracle = _fraction_product(x, y)
        for got in (x * y, y * x):
            assert (got.m, got.coeffs) == oracle
            assert all(type(c) is Fraction for c in got.coeffs)
            assert hash(got) == hash(Cyclotomic(*oracle))
        r = Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
        oracle = _fraction_product(x, Cyclotomic.from_rational(r))
        for got in (x * r, r * x):
            assert (got.m, got.coeffs) == oracle


def test_numeric_cross_check():
    # Sanity only: the exact zero test agrees with numerics on random data.
    rng = random.Random(7)
    for _ in range(200):
        m = rng.choice([3, 4, 5, 6, 8, 12])
        x, y = random_elt(rng, m), random_elt(rng, m)
        exact = (x * y - y * x).is_zero()
        assert exact  # commutativity, trivially zero
        z = x * y + x
        approx = z.to_complex()
        direct = x.to_complex() * y.to_complex() + x.to_complex()
        assert abs(approx - direct) < 1e-7
        assert z.is_zero() == (abs(approx) < 1e-7)


def test_sqrt_prime():
    for p in (2, 3, 5, 7, 11, 13):
        s = sqrt_prime(p)
        assert s * s == Cyclotomic.from_rational(p)
        assert abs(s.to_complex() - cmath.sqrt(p)) < 1e-9  # positive root
    assert sqrt_prime_power(2, 4) == Cyclotomic.from_rational(4)
    s = sqrt_prime_power(3, 3)
    assert s * s == Cyclotomic.from_rational(27)


def test_shrink_and_hash():
    x = zeta(6, 2)  # lives in Q(zeta_3)
    assert x.shrink().m == 3
    assert hash(zeta(6, 2)) == hash(zeta(3, 1))
    assert hash(Cyclotomic.from_rational(5, 12)) == hash(Fraction(5))


def test_cyclotomic_polynomials_multiply_to_binomial():
    # prod_{d | n} Phi_d = x^n - 1
    for n in range(1, 301):
        prod = np.array([1], dtype=np.int64)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = np.convolve(prod, np.array([int(c) for c in _cyclo_coeffs(d)], dtype=np.int64))
        assert prod.tolist() == [-1] + [0] * (n - 1) + [1], n
    # the first cyclotomic polynomial with a coefficient outside {-1, 0, 1}
    assert -2 in _cyclo_coeffs(105)
    assert all(abs(c) <= 1 for n in range(1, 105) for c in _cyclo_coeffs(n))


def test_trace_row_is_galois_trace():
    for m in (1, 2, 3, 4, 6, 8, 9, 12, 15):
        for k in range(m):
            total = Cyclotomic.zero()
            for t in range(1, m + 1):
                if gcd(t, m) == 1:
                    total = total + zeta(m, k * t)
            assert total == Cyclotomic.from_rational(trace_row(m)[k])


def test_shrink_matches_all_automorphisms():
    def least_field(x):
        m = x.m
        for d in range(1, m + 1):
            if m % d == 0 and all(
                _galois_apply(x, t) == x
                for t in range(1, m)
                if gcd(t, m) == 1 and t % d == 1 % d
            ):
                return d

    rng = random.Random(7)
    for m in (12, 15, 16, 20, 24):
        for d in (1, 3, 4, 5, m):
            if m % d:
                continue
            # an element of Q(zeta_d), written at modulus m
            x = Cyclotomic(d, [rng.randrange(-2, 3) for _ in range(d)]).promote(m)
            shrunk = x.shrink()
            assert shrunk.m == least_field(x)
            assert shrunk == x


def _old_mobius(n):
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def _old_sylow_primes(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n, e = n // p, e + 1
            out.append((p, e))
        p += 1
    return out + [(n, 1)] if n > 1 else out


def _old_is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def _old_parse_prime_power(q):
    for p in range(2, q + 1):
        if q % p == 0:
            f = 0
            while q % p == 0:
                q, f = q // p, f + 1
            if q != 1:
                raise click.ClickException("q must be a prime power")
            return p, f
    raise click.ClickException("q must be a prime power >= 2")


def _outcome(parse, q):
    try:
        return parse(q)
    except click.ClickException as exc:
        return exc.message


def test_factorize_agrees_with_the_trial_division_loops_it_replaced():
    # the old Moebius function, Sylow prime list, p-power test (now the
    # prime set test in fitting_subgroup) and prime-power parse, n <= 5000
    small_primes = [p for p in range(2, 50) if all(p % d for d in range(2, p))]
    for n in range(-2, 5001):
        assert _outcome(_parse_prime_power, n) == _outcome(_old_parse_prime_power, n), n
        if n < 1:
            continue
        pairs = factorize(n)
        assert pairs == _old_sylow_primes(n), n
        assert _mobius(n) == _old_mobius(n), n
        for p in small_primes:
            assert all(r == p for r, _ in pairs) == _old_is_p_power(n, p), (n, p)
