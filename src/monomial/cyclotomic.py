"""Exact arithmetic in cyclotomic fields Q(zeta_m).

An element is a rational polynomial in zeta_m reduced modulo the m-th
cyclotomic polynomial, so equality of reduced representations (after
embedding into a common Q(zeta_lcm)) is equality of complex numbers.

Cyclotomic is a ring with complex conjugation: addition, multiplication
(also by rationals) and zeta -> zeta^-1, but no division.  The one
inverse the package needs, of a root value c * p^(k/2), has c * conj(c)
rational and is c-bar over that norm (tame.RootValue.inverse).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


def _is_prime(m: int) -> bool:
    return m > 1 and all(m % d for d in range(2, int(m**0.5) + 1))


def _multiplicative_order(q: int, ell: int) -> int:
    """ord(q mod ell) for ell prime to q."""
    m = 1
    while pow(q, m, ell) != 1:
        m += 1
    return m


def factorize(n: int) -> list[tuple[int, int]]:
    """The prime factorisation of n >= 1 as ascending (p, e) pairs, by
    trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _mobius(n: int) -> int:
    exps = [e for _, e in factorize(n)]
    return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)


@lru_cache(maxsize=None)
def _cyclo_coeffs(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, ascending degree.

    Phi_m = prod_{d | m} (x^d - 1)^mu(m/d): multiply out the factors with
    mu = 1, then divide exactly by the binomials with mu = -1.
    """
    poly = [1]
    divide_by = []
    for d in _divisors(m):
        mu = _mobius(m // d)
        if mu == 1:
            out = [-c for c in poly] + [0] * d
            for i, c in enumerate(poly):
                out[i + d] += c
            poly = out
        elif mu == -1:
            divide_by.append(d)
    for d in divide_by:
        # poly = q * (x^d - 1), i.e. poly[i] = q[i - d] - q[i]
        q = [0] * (len(poly) - d)
        for i in range(len(q)):
            q[i] = (q[i - d] if i >= d else 0) - poly[i]
        poly = q
    return tuple(poly)


@lru_cache(maxsize=None)
def trace_row(m: int) -> tuple[int, ...]:
    """Tr_{Q(zeta_m)/Q}(zeta_m^k) for k < m: the Ramanujan sums
    c_m(k) = sum over d | gcd(k, m) of d * mu(m/d); c_m(0) = phi(m)."""
    return tuple(
        sum(d * _mobius(m // d) for d in _divisors(gcd(k, m)))
        for k in range(m)
    )


def _poly_rem(num: list, den: tuple[int, ...]) -> list:
    """Remainder of num modulo the monic integer polynomial den, in the
    coefficients' own type (int or Fraction)."""
    num = list(num)
    dd = len(den) - 1
    while len(num) > dd:
        lead = num[-1]
        if lead:
            shift = len(num) - 1 - dd
            for i, c in enumerate(den):
                num[shift + i] -= lead * c
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return num


def _poly_mul(a: list, b: list) -> list:
    """Product of two coefficient lists in the coefficients' own type."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


class Cyclotomic:
    """An exact element of Q(zeta_m)."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs):
        self.m = m
        # integer input is reduced in integers and converted afterwards
        reduced = _poly_rem(
            [c if type(c) is int else Fraction(c) for c in coeffs],
            _cyclo_coeffs(m),
        )
        self.coeffs = tuple(Fraction(c) if type(c) is int else c for c in reduced)

    @staticmethod
    def _from_numerators(m: int, num: list[int], den: int) -> "Cyclotomic":
        """num / den reduced modulo Phi_m.  The remainder is linear, so
        reducing the integer numerators and dividing once by den gives the
        same Fractions as reducing in Fraction arithmetic."""
        rem = _poly_rem(num, _cyclo_coeffs(m))
        out = object.__new__(Cyclotomic)
        out.m = m
        out.coeffs = tuple(Fraction(c, den) for c in rem)
        return out

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(m: int = 1) -> "Cyclotomic":
        return Cyclotomic(m, [])

    @staticmethod
    def from_rational(value, m: int = 1) -> "Cyclotomic":
        return Cyclotomic(m, [Fraction(value)])

    @staticmethod
    def root_of_unity(m: int, k: int = 1) -> "Cyclotomic":
        """zeta_m ** k."""
        k %= m
        return Cyclotomic(m, [0] * k + [1])

    # -- structure -------------------------------------------------------

    def promote(self, m_new: int) -> "Cyclotomic":
        """Embed into Q(zeta_m_new); m must divide m_new."""
        if m_new == self.m:
            return self
        if m_new % self.m:
            raise ValueError(f"cannot embed modulus {self.m} into {m_new}")
        return _substitute(self, m_new, m_new // self.m)

    def _common(self, other: "Cyclotomic"):
        m = lcm(self.m, other.m)
        return self.promote(m), other.promote(m)

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def as_rational(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        if len(self.coeffs) == 1:
            return self.coeffs[0]
        raise ValueError(f"not rational: {self!r}")

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other, self.m)
        a, b = self._common(other)
        n = max(len(a.coeffs), len(b.coeffs))
        pa = list(a.coeffs) + [Fraction(0)] * (n - len(a.coeffs))
        pb = list(b.coeffs) + [Fraction(0)] * (n - len(b.coeffs))
        return Cyclotomic(a.m, [x + y for x, y in zip(pa, pb)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.m, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_coerce(other, self.m))

    def __rsub__(self, other):
        return _coerce(other, self.m) - self

    def __mul__(self, other):
        other = _coerce(other, self.m)
        a, b = self._common(other)
        na, da = _numerators(a.coeffs)
        nb, db = _numerators(b.coeffs)
        return Cyclotomic._from_numerators(a.m, _poly_mul(na, nb), da * db)

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation zeta -> zeta^{-1}."""
        return _substitute(self, self.m, -1)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        # Hash embedding-invariantly: rationals hash as rationals, others
        # by the reduced tuple at their own modulus after shrinking.
        shrunk = self.shrink()
        if len(shrunk.coeffs) <= 1:
            return hash(shrunk.as_rational())
        return hash((shrunk.m, shrunk.coeffs))

    def shrink(self) -> "Cyclotomic":
        """Smallest modulus d | m (same squarefree trick not attempted:
        just try all divisors) that contains this element."""
        if len(self.coeffs) <= 1:
            return Cyclotomic(1, self.coeffs)
        return _shrink(self.m, self.coeffs)

    # -- misc ------------------------------------------------------------

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.m)
        return sum(float(c) * z**k for k, c in enumerate(self.coeffs)) + 0j

    def __repr__(self):
        if not self.coeffs:
            return "Cyc(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*z{self.m}^{k}" if k else f"{c}")
        return "Cyc(" + " + ".join(terms) + ")"


def _numerators(coeffs) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator."""
    den = lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _substitute(x: Cyclotomic, m: int, t: int) -> Cyclotomic:
    """x with zeta_{x.m}^k replaced by zeta_m^(k t): the embedding into
    Q(zeta_m) for t = m / x.m, the Galois action zeta -> zeta^t for m = x.m."""
    num, den = _numerators(x.coeffs)
    out = [0] * m
    for k, c in enumerate(num):
        out[(k * t) % m] += c
    return Cyclotomic._from_numerators(m, out, den)


def _coerce(value, m: int) -> Cyclotomic:
    if isinstance(value, Cyclotomic):
        return value
    return Cyclotomic.from_rational(value, m)


@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def _shrink(m: int, coeffs: tuple[Fraction, ...]) -> Cyclotomic:
    """Cyclotomic.shrink, memoised on the reduced representation."""
    x = Cyclotomic(m, coeffs)
    for d in sorted(_divisors(m)):
        if d == m:
            break
        # The element lies in Q(zeta_d) iff it is fixed by every Galois
        # automorphism that fixes Q(zeta_d) pointwise.
        if _fixed_by_subfield(x, d):
            return _project_to(x, d)
    return x


def _galois_apply(x: Cyclotomic, t: int) -> Cyclotomic:
    """The automorphism zeta_m -> zeta_m^t (t coprime to m)."""
    return _substitute(x, x.m, t)


def _fixed_by_subfield(x: Cyclotomic, d: int) -> bool:
    m = x.m
    for t in range(1, m):
        if gcd(t, m) == 1 and t % d == 1 % d:
            if _galois_apply(x, t) != x:
                return False
    return True


def _project_to(x: Cyclotomic, d: int) -> Cyclotomic:
    """Rewrite x (known to lie in Q(zeta_d)) on the zeta_d power basis by
    solving a small rational linear system."""
    m = x.m
    scale = m // d
    # Basis of Q(zeta_d) inside Q(zeta_m): zeta_m^{scale*k}, k < deg(Phi_d).
    deg = len(_cyclo_coeffs(d)) - 1
    basis = [Cyclotomic.root_of_unity(m, scale * k) for k in range(deg)]
    # Solve sum a_k basis_k = x by Gaussian elimination over Q on the
    # coordinates of the zeta_m representation.
    width = len(_cyclo_coeffs(m)) - 1
    rows = []
    for k in range(width):
        rows.append(
            [b.coeffs[k] if k < len(b.coeffs) else Fraction(0) for b in basis]
            + [x.coeffs[k] if k < len(x.coeffs) else Fraction(0)]
        )
    sol = _solve_rational(rows, deg)
    if sol is None:
        raise ArithmeticError("projection failed; element not in subfield")
    return Cyclotomic(d, sol)


def _solve_rational(aug: list[list[Fraction]], nvars: int):
    rows = [list(r) for r in aug]
    piv_rows = []
    col = 0
    r = 0
    for col in range(nvars):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][col]
        rows[r] = [c / lead for c in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [c - f * d for c, d in zip(rows[i], rows[r])]
        piv_rows.append((r, col))
        r += 1
    sol = [Fraction(0)] * nvars
    for rr, cc in piv_rows:
        sol[cc] = rows[rr][-1]
    # consistency
    for i in range(len(rows)):
        if all(rows[i][j] == 0 for j in range(nvars)) and rows[i][-1]:
            return None
    return sol


@lru_cache(maxsize=None)
def sqrt_prime(p: int) -> Cyclotomic:
    """Exact square root of a prime p as a cyclotomic number.

    Uses the classical evaluation of the quadratic Gauss sum:
    g = sum_x (x|p) zeta_p^x equals sqrt(p) for p = 1 (mod 4) and
    i*sqrt(p) for p = 3 (mod 4); sqrt(2) = zeta_8 + zeta_8^{-1}.
    """
    if p == 2:
        return Cyclotomic.root_of_unity(8, 1) + Cyclotomic.root_of_unity(8, 7)
    g = Cyclotomic.zero(p)
    for x in range(1, p):
        legendre = pow(x, (p - 1) // 2, p)
        sign = 1 if legendre == 1 else -1
        g = g + sign * Cyclotomic.root_of_unity(p, x)
    if p % 4 == 1:
        return g
    # g / i = g * zeta_4^3
    return g.promote(lcm(p, 4)) * Cyclotomic.root_of_unity(4, 3)
