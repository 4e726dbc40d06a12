"""Exact tame local constants: finite fields, Gauss sums, root numbers,
norm transport, the lifting identities, and Galois-group Delta models.

Everything is exact, and each quantity has one construction.  The trace
F_q -> F_p is a linear form: an element's digits against Tr(x^i), the power
sums of the modulus's roots.  A Gauss sum is one int64 array of exponents
mod M, one term per unit g^k read off the per-field arrays (k, Tr(g^k)),
and a root number is that array shifted by the uniformizer and chibar(e)
twists.  M is any multiple of p and of the order r = (q - 1)/gcd(j, q - 1)
of chibar_j (and of z_den for a root number): the lifting identity is
decided at the lcm of the moduli its characters need, not at q_K - 1.
Both representations are counted from these arrays: the integer vectors
modulo x^M - 1 (CycVec) that the large-field identities multiply, and the
dense Cyclotomic values (gauss_sum, root_number) converted from them at the
fixed moduli their docstrings give.  The CycVec zero test is the exact
integer cyclotomic projector of Lam-Leung (J. Algebra 224, 2000); it refuses
max|a| * prod(2p) >= 2^62 with TooLarge (the `tame` corpus needs 20 bits).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import index

import numpy as _np

from .cyclotomic import (
    Cyclotomic,
    _is_prime,
    _multiplicative_order,
    factorize,
    sqrt_prime,
)
from .errors import (
    CertificateFailed,
    DegenerateCase,
    DomainMismatch,
    ModulusMismatch,
    NotAbelianTameCase,
    NotTame,
    OutOfDomain,
    PrimeMismatch,
    TooLarge,
    UnsupportedModel,
)
from .extend import ValueGroup, delta_function


# ---------------------------------------------------------------------------
# finite fields
#
# Elements of F_{p^f} are encoded as integers: the polynomial
# sum c_i x^i (0 <= c_i < p) is the integer sum c_i p^i.  The modulus is
# the least (in this integer encoding) monic irreducible of degree f, found
# by trial division, and the generator is the least element of full
# multiplicative order, so discrete logarithms are reproducible.  Every
# product of field elements, for the exp table and for vetting generator
# candidates alike, is the one digit-wise Horner step _mul_digits.


def _poly_rem_p(a, m, p):
    a = list(a)
    inv_lead = pow(m[-1], -1, p)
    while len(a) >= len(m):
        if a[-1]:
            c = a[-1] * inv_lead % p
            shift = len(a) - len(m)
            for i, x in enumerate(m):
                a[shift + i] = (a[shift + i] - c * x) % p
        a.pop()
    return a


def _is_irreducible(m, p):
    """A monic m of degree f is irreducible iff no monic polynomial of
    degree 1 to f // 2 divides it."""
    for d in range(1, (len(m) - 1) // 2 + 1):
        for enc in range(p**d):
            divisor = [enc // p**i % p for i in range(d)] + [1]
            if not any(_poly_rem_p(m, divisor, p)):
                return False
    return True


class FiniteField:
    """F_{p^f} with integer-encoded elements and full log/exp tables."""

    def __init__(self, p: int, f: int):
        if not (_is_prime(p) and f >= 1):
            raise OutOfDomain(f"no field F_{{p^f}} for p = {p}, f = {f}")
        self.p = p
        self.f = f
        self.q = p**f
        self.modulus = self._least_irreducible()
        self._power_traces = self._power_sums()
        self._build_tables()

    def _least_irreducible(self):
        p, f = self.p, self.f
        for enc in range(p**f):
            coeffs = self._decode(enc) + [1]
            if _is_irreducible(coeffs, p):
                return tuple(coeffs)
        raise CertificateFailed(
            "no irreducible polynomial found", witness=(p, f)
        )

    def _power_sums(self) -> tuple[int, ...]:
        """Tr(x^i) for i < f: the power sums s_i of the modulus's roots,
        by Newton's identities s_k = -(c_{f-1} s_{k-1} + ... + c_{f-k+1} s_1
        + k c_{f-k}) for the monic modulus sum c_i x^i, and s_0 = f."""
        c, p, f = self.modulus, self.p, self.f
        s = [f % p]
        for k in range(1, f):
            s.append(-(sum(c[f - i] * s[k - i] for i in range(1, k)) + k * c[f - k]) % p)
        return tuple(s)

    def _decode(self, enc: int):
        p = self.p
        out = []
        for _ in range(self.f):
            out.append(enc % p)
            enc //= p
        return out

    def _encode(self, coeffs) -> int:
        enc = 0
        for c in reversed(coeffs):
            enc = enc * self.p + (c % self.p)
        return enc

    def add(self, a: int, b: int) -> int:
        ca, cb = self._decode(a), self._decode(b)
        return self._encode([(x + y) % self.p for x, y in zip(ca, cb)])

    def _mul_digits(self, a, b):
        """a * b on digit lists: Horner over b's digits, each step one shift
        (times x) and one subtraction of top * the monic modulus."""
        p, low = self.p, self.modulus[:-1]
        out = [0] * self.f
        for d in reversed(b):
            top = out[-1]
            out = [0] + out[:-1]
            if top:
                out = [(x - top * c) % p for x, c in zip(out, low)]
            if d:
                out = [(x + d * y) % p for x, y in zip(out, a)]
        return out

    def _raw_mul(self, a: int, b: int) -> int:
        return self._encode(self._mul_digits(self._decode(a), self._decode(b)))

    def _build_tables(self):
        q = self.q
        factors = [ell for ell, _ in factorize(q - 1)]
        self.generator = next(
            cand for cand in range(1, q)
            if all(self._pow_raw(cand, (q - 1) // ell) != 1 for ell in factors)
        )
        gen_digits = self._decode(self.generator)
        while gen_digits[-1] == 0:
            gen_digits.pop()
        cur = self._decode(1)
        self.exp = [1]
        for _ in range(q - 2):
            cur = self._mul_digits(cur, gen_digits)
            self.exp.append(self._encode(cur))
        self.log = {x: k for k, x in enumerate(self.exp)}
        if len(self.log) != q - 1:
            order = len(self.log)
            raise CertificateFailed(f"F_{q}'s generator has order {order}", witness=order)

    def _pow_raw(self, a: int, e: int) -> int:
        out = 1
        b = a
        while e:
            if e & 1:
                out = self._raw_mul(out, b)
            b = self._raw_mul(b, b)
            e >>= 1
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        return self.pow(a, -1)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e <= 0:
                raise OutOfDomain(f"0^{e} is undefined in {self}")
            return 0
        return self.exp[(self.log[a] * e) % (self.q - 1)]

    def trace(self, a: int) -> int:
        """Absolute trace to F_p, returned as an integer in [0, p): the
        F_p-linear form taking the digits of a against Tr(x^i)."""
        total = 0
        for s in self._power_traces:
            a, digit = divmod(a, self.p)
            total += digit * s
        return total % self.p

    def embedding_root(self, big: "FiniteField") -> int:
        """The least root in `big` of this field's modulus (an explicit
        subfield embedding); requires f | big.f and equal p."""
        if big.p != self.p or big.f % self.f:
            raise DomainMismatch(f"{self} is not a subfield of {big}")
        mod = list(self.modulus)
        for alpha in range(big.q):
            acc = 0
            for c in reversed(mod):
                acc = big.add(big.mul(acc, alpha), c % self.p)
            if acc == 0:
                return alpha
        raise CertificateFailed(
            "no embedding root found", witness=(self.modulus, big.modulus)
        )

    def embed(self, x: int, big: "FiniteField", root: int | None = None) -> int:
        if root is None:
            root = self.embedding_root(big)
        acc = 0
        for c in reversed(self._decode(x)):
            acc = big.add(big.mul(acc, root), c)
        return acc

    def __repr__(self):
        return f"F_{self.q}"


@lru_cache(maxsize=None)
def finite_field(p: int, f: int) -> FiniteField:
    return FiniteField(p, f)


@lru_cache(maxsize=None)
def _exp_traces(p: int, f: int) -> tuple[_np.ndarray, _np.ndarray]:
    """The read-only int64 arrays k and Tr(g^k) for k < q - 1, g the
    field's generator."""
    ff = finite_field(p, f)
    k = _np.arange(ff.q - 1, dtype=_np.int64)
    tr = _np.array([ff.trace(x) for x in ff.exp], dtype=_np.int64)
    k.flags.writeable = tr.flags.writeable = False
    return k, tr


# ---------------------------------------------------------------------------
# Gauss sums


def _residue_order(q: int, j: int) -> tuple[int, int]:
    """(g, r): g = gcd(j, q - 1) and r = (q - 1)/g, the order of chibar_j."""
    g = gcd(j, q - 1)
    return g, (q - 1) // g


def _gauss_indices(M: int, ff: FiniteField, j: int, shift: int = 0) -> _np.ndarray:
    """zeta_M^shift * G(chibar_j) in Z[zeta_M] as one int64 array of
    exponents mod M, each term with coefficient 1.  chibar_j has order
    r = (q - 1)/g, g = gcd(j, q - 1), so the unit g^k contributes
    ((-j mod (q - 1))/g k mod r) M/r + Tr(g^k) M/p + shift.  M is any
    multiple of r and p; j and shift are reduced in Python integers, so
    every int64 step stays below 3M."""
    g, r = _residue_order(ff.q, j)
    if M % r or M % ff.p:
        raise ModulusMismatch(
            f"Gauss sum of order {r} over F_{ff.q} needs {r} and p to divide M = {M}"
        )
    k, tr = _exp_traces(ff.p, ff.f)
    units = ((-j) % (ff.q - 1)) // g * k % r
    return (units * (M // r) + tr * (M // ff.p) + shift % M) % M


@lru_cache(maxsize=None)
def gauss_sum(p: int, f: int, j: int) -> Cyclotomic:
    """sum over x in F_q^* of chibar^{-1}(x) psibar(x), where chibar is
    the j-th power of the canonical character (generator to zeta_{q-1})
    and psibar(x) = zeta_p^{Tr(x)}, in Q(zeta_lcm(q-1, p))."""
    M = lcm(p**f - 1, p)
    return _gauss_vec(M, finite_field(p, f), j).to_cyclotomic()


# ---------------------------------------------------------------------------
# root values: exact c * p^(k/2)


@dataclass(frozen=True)
class RootValue:
    p: int
    c: Cyclotomic
    k: int  # the value is c * p^(k/2); normalized to k in {0, 1}

    def _same_prime(self, other: "RootValue") -> None:
        if self.p != other.p:
            raise PrimeMismatch(f"root values at p = {self.p} and p = {other.p}")

    def __eq__(self, other):
        if not isinstance(other, RootValue):
            return NotImplemented
        self._same_prime(other)
        if self.k == other.k:
            return self.c == other.c
        lo, hi = (self, other) if self.k < other.k else (other, self)
        return lo.c == hi.c * sqrt_prime(self.p)

    def __hash__(self):
        # == equates c * p^(1/2) with (c * sqrt(p)) * p^0, so only p is stable
        return hash(self.p)

    def __mul__(self, other):
        self._same_prime(other)
        return root_value(self.p, self.c * other.c, self.k + other.k)

    def inverse(self):
        """conj(c) / N * p^(-k/2) with N = c * conj(c).  A root value is a
        product of roots of unity, Gauss sums and sqrt(p), so N is rational;
        any other c is refused."""
        bar = self.c.conjugate()
        norm = self.c * bar
        if norm.is_zero() or len(norm.coeffs) > 1:
            raise OutOfDomain(f"{self.c!r} is zero or has a non-rational norm")
        return root_value(self.p, bar * (1 / norm.coeffs[0]), -self.k)

    def __repr__(self):
        return f"RootValue({self.c.to_complex():.6g} * {self.p}^({self.k}/2))"


def root_value(p: int, c: Cyclotomic, k: int) -> RootValue:
    shift = (k - (k % 2)) // 2
    if shift:
        c = c * Fraction(p) ** shift
    return RootValue(p=p, c=c, k=k % 2)


def root_value_one(p: int) -> RootValue:
    return RootValue(p=p, c=Cyclotomic.from_rational(1), k=0)


class RootValueGroup(ValueGroup):
    """ValueGroup over exact root values for a fixed prime p."""

    def __init__(self, p: int):
        self.p = p

    def one(self):
        return root_value_one(self.p)

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return a.inverse()


# ---------------------------------------------------------------------------
# tame fields and characters


@dataclass(frozen=True)
class TameField:
    """An extension E of the base local field F, described by its residue
    field data: e in {1, l} (unramified / totally tame), relative residue
    degree f, level of the transported additive character."""

    base: FiniteField
    e: int
    f: int
    lpsi_base: int = 0

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def d(self) -> int:
        return self.e - 1  # tame differental exponent

    @property
    def lpsi(self) -> int:
        return self.e * self.lpsi_base - self.d

    @property
    def residue(self) -> FiniteField:
        return finite_field(self.base.p, self.base.f * self.f)

    @property
    def q(self) -> int:
        return self.residue.q

    def __repr__(self):
        return f"TameField(q={self.base.q}, e={self.e}, f={self.f})"


def tame_field(base: FiniteField, e: int, f: int, lpsi_base: int = 0) -> TameField:
    if not (e == 1 or _is_prime(e)):
        raise NotAbelianTameCase(f"ramification index {e} is neither 1 nor a prime")
    if e > 1 and e % base.p == 0:
        raise NotTame(f"ramification index {e} is divisible by p = {base.p}: wild")
    if f < 1:
        raise OutOfDomain(f"relative residue degree {f} is below 1")
    return TameField(base=base, e=e, f=f, lpsi_base=lpsi_base)


@dataclass(frozen=True)
class TameChar:
    """A tame character: residue part = j-th power of the canonical
    residue character, uniformizer value z = zeta_z_den^z_num."""

    field: TameField
    j: int
    z_num: int = 0
    z_den: int = 1

    @property
    def a(self) -> int:
        return 0 if self.j % (self.field.q - 1 or 1) == 0 else 1

    def residue_value(self, x: int) -> Cyclotomic:
        """chibar at a nonzero residue element."""
        ff = self.field.residue
        if ff.q == 2:
            return Cyclotomic.from_rational(1)
        return Cyclotomic.root_of_unity(ff.q - 1, self.j * ff.log[x])

    def mul(self, other: "TameChar") -> "TameChar":
        if self.field != other.field:
            raise DomainMismatch(f"characters of {self.field} and {other.field}")
        num, den = _root_mul((self.z_num, self.z_den), (other.z_num, other.z_den))
        return tame_char(self.field, self.j + other.j, num, den)

    def inverse(self) -> "TameChar":
        return tame_char(
            self.field,
            (-self.j) % (self.field.q - 1 or 1),
            (-self.z_num) % self.z_den,
            self.z_den,
        )


def tame_char(
    field: TameField, j: int, z_num: int = 0, z_den: int = 1, a: int | None = None
) -> TameChar:
    if z_den < 1:
        raise OutOfDomain(f"uniformizer value zeta_{z_den}^{z_num}: the order must be >= 1")
    z_num %= z_den
    if z_num == 0:
        z_num, z_den = 0, 1
    else:
        g = gcd(z_num, z_den)
        z_num, z_den = z_num // g, z_den // g
    chi = TameChar(field=field, j=j % (field.q - 1 or 1), z_num=z_num, z_den=z_den)
    if a is not None and a != chi.a:
        if a > 1:
            raise NotTame("conductor exponent above 1 is wild")
        raise NotTame(f"conductor {a} inconsistent with the residue part")
    return chi


def twist_exponent(chi: TameChar) -> int:
    return chi.a - chi.field.lpsi


def _root_number_indices(M: int, chi: TameChar) -> tuple[_np.ndarray, int]:
    """Delta(chi) = z^(a - lpsi) * (chibar(e) * G(chibar) * p^(-f/2) if
    a = 1) as the int64 exponents mod M of its terms in Z[zeta_M], each
    with coefficient 1, and the half-power k of p; M is a multiple of
    _delta_modulus(chi)."""
    field = chi.field
    if M % chi.z_den:
        raise ModulusMismatch(f"uniformizer root of order {chi.z_den} does not divide M = {M}")
    zexp = chi.z_num * (M // chi.z_den) * twist_exponent(chi)
    if chi.a == 0:
        return _np.array([zexp % M], dtype=_np.int64), 0
    ff = field.residue
    # the additive character of a ramified E reduces to psibar(e * x),
    # so the Gauss sum picks up chibar(e) (a trivial twist when e = 1);
    # an M that r does not divide is refused by _gauss_indices
    g, r = _residue_order(ff.q, chi.j)
    zexp += chi.j // g * ff.log[field.e % field.p] * (M // r)
    return _gauss_indices(M, ff, chi.j, zexp), -ff.f


def _delta_modulus(chi: TameChar) -> int:
    """The modulus that _root_number_indices needs to divide M: z_den if
    chi is unramified, else lcm(z_den, r, p) with r the order of chibar."""
    if chi.a == 0:
        return chi.z_den
    return lcm(chi.z_den, _residue_order(chi.field.q, chi.j)[1], chi.field.p)


def root_number(chi: TameChar) -> RootValue:
    """Delta(chi) in Q(zeta_M), M = z_den if chi is unramified and
    lcm(z_den, q - 1, p) otherwise."""
    field = chi.field
    M = chi.z_den if chi.a == 0 else lcm(chi.z_den, field.q - 1, field.p)
    vec, k = _delta_vec(M, chi)
    return root_value(field.p, vec.to_cyclotomic(), k)


def conductor_inductivity(e, f, d, a_k, dim, lpsi) -> dict:
    """Both sides of the induced-conductor identity, with the transported
    level lpsi_K = e*lpsi - d and a_F(Ind) = f*(d*dim + a_K)."""
    lpsi_k = e * lpsi - d
    lhs = f * (d * dim + a_k) - e * f * dim * lpsi
    rhs = f * (a_k - dim * lpsi_k)
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}


def _minus_one_root(ff: FiniteField, j: int) -> tuple[int, int]:
    """chibar_j(-1) as a root-of-unity pair (num, den)."""
    if ff.p == 2:
        return 0, 1
    return (j * (ff.q - 1) // 2) % (ff.q - 1), ff.q - 1


def _root_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The product of two root-of-unity pairs (num, den)."""
    den = lcm(a[1], b[1])
    return (a[0] * (den // a[1]) + b[0] * (den // b[1])) % den, den


# ---------------------------------------------------------------------------
# integer coefficient vectors modulo x^M - 1
#
# The large-field identities multiply Gauss sums whose dense cyclotomic
# form is too expensive.  CycVec keeps exact integer coordinates in
# Z[x]/(x^M - 1).  A Gauss sum or root number is a sum of roots of unity,
# so its vector is one np.bincount of its int64 exponent array.
#
# Coefficients are below 2^62 in absolute value: _coefficient refuses a
# non-integer (OutOfDomain) or |c| >= 2^62 (TooLarge) in constructor input
# that is not an int64 array, from_pairs sums (taken in Python integers) and
# scale factors; an int64 array is trusted, as the class's own results are.
# So a - b cannot wrap (< 2^63), and a difference past 2^62 is refused.
#
# A product a * b is the outer product over the two supports: the term
# a_i b_j lands at (i + j) mod M, and np.add.at accumulates the terms into
# one int64 vector, at most _OUTER_BLOCK terms at a time so that two dense
# factors do not build an M x M array.  It is exact because _bound_product
# first checks, in Python integers, that max|a| * ||b||_1 < 2^62.  Each
# term is then below 2^62, and for a fixed output index k every b_j meets
# at most one a_i (i = k - j mod M), so every partial sum at k is at most
# sum_j |b_j| * max|a| < 2^62 in absolute value: no step can wrap.
#
# The zero test is the cyclotomic projector (Lam-Leung, "On vanishing sums
# of roots of unity", J. Algebra 224, 2000).  For p | M prime, T_p adds the p
# rows of the (p, M/p) reshape: at an M-th root of unity w, T_p(w) = p if
# w^(M/p) = 1, else 0.  So b = prod_p (p - T_p) a is rad(M) a(w) at primitive
# w and 0 at the other M-th roots, which fix b: b = 0 iff a(zeta_M) = 0.  A
# fold multiplies max|b| by at most 2p, so is_zero refuses max|a| * prod(2p)
# >= 2^62 with TooLarge before it starts; the `tame` corpus needs 20 bits.

_COEFF_LIMIT = 2**62
_OUTER_BLOCK = 2**20


class CycVec:
    """An exact element of Z[zeta_M] held as an integer vector mod x^M - 1."""

    __slots__ = ("M", "arr")

    @staticmethod
    def _coefficient(c) -> int:
        """c as a Python int below 2^62 in absolute value, or a refusal."""
        try:
            c = index(c)
        except TypeError:
            raise OutOfDomain(f"CycVec coefficient {c!r} is not an integer") from None
        if abs(c) >= _COEFF_LIMIT:
            raise TooLarge(f"CycVec coefficient {c} reaches 2^62")
        return c

    def __init__(self, M: int, arr):
        """A caller's int64 array is bounded by one max/min pass, any other
        input coefficient by coefficient, so no entry reaches 2^62."""
        raw = isinstance(arr, _np.ndarray) and arr.dtype == _np.int64
        if not raw:
            checked = _np.frompyfunc(CycVec._coefficient, 1, 1)(_np.asarray(arr, dtype=object))
            arr = _np.asarray(checked, dtype=_np.int64)
        if arr.shape != (M,):
            raise ModulusMismatch(f"CycVec of shape {arr.shape} at M = {M}")
        self.M, self.arr = M, arr
        if raw:
            self._bound_product(1)

    @classmethod
    def _of(cls, M: int, arr) -> "CycVec":
        """An int64 array this module computed inside the 2^62 bound, taken
        without a coefficient pass."""
        if arr.shape != (M,):
            raise ModulusMismatch(f"CycVec of shape {arr.shape} at M = {M}")
        vec = cls.__new__(cls)
        vec.M, vec.arr = M, arr
        return vec

    @staticmethod
    def from_pairs(M: int, pairs) -> "CycVec":
        sums = {}
        for e, c in pairs:
            sums[e % M] = sums.get(e % M, 0) + c
        arr = _np.zeros(M, dtype=_np.int64)
        for e, c in sums.items():
            arr[e] = CycVec._coefficient(c)
        return CycVec._of(M, arr)

    def _same_modulus(self, other: "CycVec") -> None:
        if self.M != other.M:
            raise ModulusMismatch(f"CycVec moduli {self.M} and {other.M} differ")

    def __sub__(self, other: "CycVec") -> "CycVec":
        self._same_modulus(other)
        diff = CycVec._of(self.M, self.arr - other.arr)
        diff._bound_product(1)
        return diff

    def _bound_product(self, factor: int) -> None:
        """Refuse when max|coefficient| * factor (a scalar, a vector's l1 norm
        or the zero test's prod(2p)) could reach 2^62, in Python integers."""
        top = max(int(self.arr.max(initial=0)), -int(self.arr.min(initial=0)))
        if top * factor >= _COEFF_LIMIT:
            raise TooLarge(f"CycVec bound {top} * {factor} reaches 2^62 at M = {self.M}")

    def scale(self, c: int) -> "CycVec":
        c = self._coefficient(c)
        self._bound_product(abs(c))
        return CycVec._of(self.M, self.arr * c)

    def __mul__(self, other: "CycVec") -> "CycVec":
        self._same_modulus(other)
        ia, ib = _np.flatnonzero(self.arr), _np.flatnonzero(other.arr)
        a, b = self, other
        if len(ia) < len(ib):
            a, b, ia, ib = b, a, ib, ia
        ca, cb = a.arr[ia], b.arr[ib]
        a._bound_product(sum(map(abs, cb.tolist())))
        out = _np.zeros(self.M, dtype=_np.int64)
        step = _OUTER_BLOCK // max(len(ia), 1) + 1
        for s in range(0, len(ib), step):
            rows = slice(s, s + step)
            _np.add.at(
                out,
                (ib[rows, None] + ia[None, :]) % self.M,
                cb[rows, None] * ca[None, :],
            )
        return CycVec._of(self.M, out)

    def is_zero(self) -> bool:
        primes = [p for p, _ in factorize(self.M)]
        self._bound_product(prod(2 * p for p in primes))
        b = self.arr.copy()
        for p in primes:
            cols = b.reshape(p, self.M // p)
            sums = cols.sum(axis=0)
            cols *= p
            cols -= sums
        return not b.any()

    def to_cyclotomic(self) -> Cyclotomic:
        return Cyclotomic(self.M, self.arr.tolist())


@lru_cache(maxsize=None)
def _sqrt_pairs(p: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """sqrt(p) as (modulus, [(exponent, coeff), ...]) with integer coeffs."""
    s = sqrt_prime(p)
    pairs = []
    for k, c in enumerate(s.coeffs):
        if c.denominator != 1:
            raise CertificateFailed(f"sqrt({p}) has the non-integer coefficient {c}", witness=c)
        if c:
            pairs.append((k, int(c)))
    return s.m, tuple(pairs)


def _sqrt_vec(M: int, p: int) -> CycVec:
    sm, pairs = _sqrt_pairs(p)
    if M % sm:
        raise ModulusMismatch(f"sqrt({p}) lies in Q(zeta_{sm}), and {sm} does not divide M = {M}")
    scale = M // sm
    return CycVec.from_pairs(M, [(e * scale, c) for e, c in pairs])


def _gauss_vec(M: int, ff: FiniteField, j: int) -> CycVec:
    return CycVec._of(M, _np.bincount(_gauss_indices(M, ff, j), minlength=M))


def _delta_vec(M: int, chi: TameChar) -> tuple[CycVec, int]:
    """The root number as (vector, k) with value vec * p^(k/2)."""
    idx, k = _root_number_indices(M, chi)
    return CycVec._of(M, _np.bincount(idx, minlength=M)), k


# ---------------------------------------------------------------------------
# norm transport and norm-trivial character groups


@lru_cache(maxsize=None)
def _embedding_data(small: FiniteField, big: FiniteField):
    root = small.embedding_root(big)
    back = {small.embed(x, big, root): x for x in range(small.q)}
    return root, back


def _norm_log(small: FiniteField, big: FiniteField) -> int:
    """m0 with N(g_big) = g_small^m0, N the norm from big to small
    (small.q > 2): the residue norm is x -> x^((q_big - 1)/(q_small - 1))."""
    _, back = _embedding_data(small, big)
    return small.log[back[big.exp[(big.q - 1) // (small.q - 1)]]]


def _swept_characters(field: TameField):
    """Every residue part of `field`'s characters, each with the uniformizer
    values 1 and a primitive (q-1)-th root of unity (zeta_4 when q = 2)."""
    q = field.q
    for j in range(max(q - 1, 1)):
        for z_num, z_den in [(0, 1), (1, q - 1)] if q > 2 else [(0, 1), (1, 4)]:
            yield tame_char(field, j, z_num, z_den)


def base_field_of(K: TameField) -> TameField:
    """The base local field as a trivial extension datum."""
    return tame_field(K.base, 1, 1, K.lpsi_base)


def norm_transport(K: TameField, chi: TameChar) -> TameChar:
    """chi o N for a base-field character chi: the character of K^* given
    by composing with the norm map of the degree-l tame extension."""
    if chi.field != base_field_of(K):
        raise DomainMismatch(f"chi lives on {chi.field}, not on the base field of {K}")
    base = K.base
    q = base.q
    ell = K.e * K.f
    if ell == 1:
        return tame_char(K, chi.j, chi.z_num, chi.z_den)
    if K.e == 1:
        # unramified: residue norm x -> x^((q^l-1)/(q-1)), N(pi) = pi^l
        big = K.residue
        if q > 2:
            idx = (big.q - 1) // (q - 1)
            j_k = (chi.j * _norm_log(base, big) * idx) % (big.q - 1)
        else:
            j_k = 0
        return tame_char(K, j_k, chi.z_num * ell, chi.z_den)
    if not _is_prime(ell):
        raise NotAbelianTameCase(f"ramified degree {ell} is not prime")
    if K.f == 1:
        # totally tame: residue norm x -> x^l, N(pi_K) = (-1)^(l-1) pi
        # (the Eisenstein convention x^l - pi)
        j_k = (ell * chi.j) % (q - 1) if q > 2 else 0
        sign = _minus_one_root(base, chi.j * (ell - 1))
        num, den = _root_mul((chi.z_num, chi.z_den), sign)
        return tame_char(K, j_k, num, den)
    raise NotAbelianTameCase("mixed ramified/inert extensions are unsupported")


def norm_characters(K: TameField) -> list[TameChar]:
    """S(K|F): the base-field characters trivial on norms from K, for the
    two abelian tame shapes (unramified; Kummer with l | q-1)."""
    base = K.base
    q = base.q
    ell = K.e * K.f
    f_datum = base_field_of(K)
    if ell == 1:
        return [tame_char(f_datum, 0)]
    if not _is_prime(ell):
        raise NotAbelianTameCase(f"degree {ell} is not prime")
    if K.e == 1:
        return [tame_char(f_datum, 0, t, ell) for t in range(ell)]
    if K.f == 1:
        if (q - 1) % ell:
            raise NotAbelianTameCase(
                f"l = {ell} does not divide q - 1 = {q - 1}: K|F is not Galois"
            )
        out = []
        for t in range(ell):
            j_t = t * (q - 1) // ell
            num, den = _minus_one_root(base, j_t * (ell - 1))
            out.append(tame_char(f_datum, j_t, num, den))
        return out
    raise NotAbelianTameCase("mixed ramified/inert extensions are unsupported")


# ---------------------------------------------------------------------------
# the degree-l lifting identity (abelian case)


def check_DH_I(K: TameField, chi: TameChar) -> bool:
    """Delta(K, chi o N) * prod_{mu in S(K|F)} Delta(F, mu)
       = prod_{mu in S(K|F)} Delta(F, chi mu), exactly.

    Both sides are multiplied in Z[zeta_M], M the lcm of p, l, the modulus
    of sqrt(p) (8, or 4p) and the _delta_modulus of every root number in
    the identity.  chi o N and each mu have order dividing q - 1, so q_K - 1
    never enters M.  x -> x^(M'/M) maps Z[zeta_M] injectively into any
    Z[zeta_M'] with M | M', so the verdict is the same at every such M'."""
    p = K.base.p
    chi_k = norm_transport(K, chi)
    s_chars = norm_characters(K)
    twisted = [chi.mul(mu) for mu in s_chars]
    M = lcm(
        p,
        *map(_delta_modulus, [chi_k, *s_chars, *twisted]),
        K.e * K.f,
        8 if p == 2 else 4 * p,
    )
    lhs, lhs_k = _delta_vec(M, chi_k)
    for mu in s_chars:
        v, k = _delta_vec(M, mu)
        lhs, lhs_k = lhs * v, lhs_k + k
    rhs, rhs_k = CycVec.from_pairs(M, [(0, 1)]), 0
    for mu in twisted:
        v, k = _delta_vec(M, mu)
        rhs, rhs_k = rhs * v, rhs_k + k
    if (lhs_k - rhs_k) % 2:
        # equalize parity with an exact sqrt(p) factor
        if lhs_k < rhs_k:
            lhs, lhs_k = lhs * _sqrt_vec(M, p), lhs_k + 1
        else:
            rhs, rhs_k = rhs * _sqrt_vec(M, p), rhs_k + 1
    if lhs_k > rhs_k:
        lhs = lhs.scale(p ** ((lhs_k - rhs_k) // 2))
    elif rhs_k > lhs_k:
        rhs = rhs.scale(p ** ((rhs_k - lhs_k) // 2))
    return (lhs - rhs).is_zero()


def dh1_sweep(
    p: int, f: int, ell: int, ramified: bool, lpsi: int = 0, cap: int = 4096
) -> dict:
    """check_DH_I over every tame character of the base field (all residue
    parts, uniformizer values sampled in {1, zeta}); each failing case is
    recorded in "failures" and makes "ok" false."""
    base = finite_field(p, f)
    q = base.q
    if ramified:
        if (q - 1) % ell:
            raise NotAbelianTameCase(f"l = {ell} does not divide q - 1")
        K = tame_field(base, ell, 1, lpsi)
    else:
        if q**ell > cap:
            raise TooLarge(f"residue field size {q**ell} exceeds cap {cap}")
        K = tame_field(base, 1, ell, lpsi)
    cases = 0
    failures = []
    for chi in _swept_characters(base_field_of(K)):
        if not check_DH_I(K, chi):
            failures.append({"j": chi.j, "z": (chi.z_num, chi.z_den)})
        cases += 1
    return {
        "q": q, "ell": ell, "ramified": ramified, "cases": cases,
        "ok": not failures, "failures": failures,
    }


# ---------------------------------------------------------------------------
# the non-Galois tame lifting identity


def check_DH_III_tame(p: int, f: int, ell: int, lpsi: int = 0, cap: int = 256) -> dict:
    """The ramified degree-l identity when l does not divide q - 1:
    with m = ord(q mod l), L the unramified degree-m extension and
    K = L(pi^(1/l)),

      Delta(E, chi o N_{E|F}) * prod_{[mu] != [1]} Delta(L, mu)
        = Delta(F, chi) * prod_{[mu]} Delta(L, (chi o N_{L|F}) mu)

    where mu runs over one representative per Frobenius orbit of the
    nontrivial elements of S(K|L) (the root numbers are checked to be
    orbit-independent).  Each failing orbit or case is recorded in
    "failures" and makes "ok" false."""
    base = finite_field(p, f)
    q = base.q
    if not _is_prime(ell):
        raise NotAbelianTameCase(f"l = {ell} is not prime")
    if ell == p:
        raise NotTame(f"l = p = {p} is wildly ramified")
    if (q - 1) % ell == 0:
        raise DegenerateCase(
            f"l = {ell} divides q - 1 = {q - 1}; use the abelian identity"
        )
    m = _multiplicative_order(q, ell)
    if q**m > cap:
        raise TooLarge(f"residue field size {q**m} exceeds cap {cap}")
    l_res = finite_field(p, f * m)
    f_datum = tame_field(base, 1, 1, lpsi)
    l_over_f = tame_field(base, 1, m, lpsi)  # L, unramified of degree m
    e_over_f = tame_field(base, ell, 1, lpsi)  # E = F(pi^(1/l)), not Galois
    l_datum = tame_field(l_res, 1, 1, l_over_f.lpsi)  # L as a base field
    k_over_l = tame_field(l_res, ell, 1, l_over_f.lpsi)  # K = L(pi^(1/l))

    by_j = {mu.j: mu for mu in norm_characters(k_over_l) if mu.j != 0}
    if len(by_j) != ell - 1:
        raise CertificateFailed(
            f"S(K|L) has {len(by_j)} nontrivial characters, not l - 1 = {ell - 1}",
            witness=tuple(by_j),
        )
    # Frobenius orbits: j -> q*j on residue parts, z fixed
    orbit_js = []
    for j in by_j:
        if all(j not in js for js in orbit_js):
            orbit_js.append(_frob_orbit_js(j, q, l_res.q - 1))
    # each orbit has length m, and inversion permutes the orbits (so for
    # odd total degree a rep system stable under mu -> mu^{-1} exists)
    orbit_sets = {frozenset(js) for js in orbit_js}
    for js in orbit_js:
        if len(js) != m:
            raise CertificateFailed(
                f"a Frobenius orbit has length {len(js)}, not m = {m}",
                witness=tuple(js),
            )
        if frozenset((-j) % (l_res.q - 1) for j in js) not in orbit_sets:
            raise CertificateFailed(
                "j -> -j does not permute the Frobenius orbits",
                witness=tuple(js),
            )
    failures = []
    for js in orbit_js:
        # orbit-independence of the root numbers
        first = root_number(by_j[js[0]])
        if not all(root_number(by_j[j]) == first for j in js[1:]):
            failures.append({"orbit": js})
    orbits = [by_j[min(js)] for js in orbit_js]

    cases = 0
    for chi in _swept_characters(f_datum):
        chi_e = norm_transport(e_over_f, chi)
        chi_l_raw = norm_transport(l_over_f, chi)
        chi_l = tame_char(l_datum, chi_l_raw.j, chi_l_raw.z_num, chi_l_raw.z_den)
        lhs = root_number(chi_e)
        rhs = root_number(chi)
        for mu in orbits:
            lhs = lhs * root_number(mu)
            rhs = rhs * root_number(chi_l.mul(mu))
        if lhs != rhs:
            failures.append({"j": chi.j, "z": (chi.z_num, chi.z_den)})
        cases += 1
    return {
        "q": q, "ell": ell, "m": m, "cases": cases,
        "ok": not failures, "failures": failures,
    }


def _frob_orbit_js(j: int, q: int, mod: int) -> list[int]:
    out = [j]
    cur = (q * j) % mod
    while cur != j:
        out.append(cur)
        cur = (q * cur) % mod
    return out


# ---------------------------------------------------------------------------
# Gauss-sum sweeps (fast exact paths)


def gauss_modulus_check(p: int, f: int) -> bool:
    """|g(chibar)|^2 = q for every nontrivial chibar."""
    ff = finite_field(p, f)
    q = ff.q
    M = lcm(p, max(q - 1, 1))
    for j in range(1, q - 1):
        g = _gauss_vec(M, ff, j)
        gbar = CycVec._of(M, _np.concatenate(([g.arr[0]], g.arr[:0:-1])))
        diff = g * gbar - CycVec.from_pairs(M, [(0, q)])
        if not diff.is_zero():
            return False
    return True


def gauss_functional_check(p: int, f: int) -> bool:
    """g(chibar) g(chibar^{-1}) = chibar(-1) q for every nontrivial
    chibar (the Gauss-sum core of the functional equation)."""
    ff = finite_field(p, f)
    q = ff.q
    M = lcm(p, max(q - 1, 1))
    for j in range(1, q - 1):
        prod = _gauss_vec(M, ff, j) * _gauss_vec(M, ff, (-j) % (q - 1))
        num, den = _minus_one_root(ff, j)
        expected = CycVec.from_pairs(M, [((num * (M // den)) % M, q)])
        if not (prod - expected).is_zero():
            return False
    return True


def functional_equation(chi: TameChar) -> bool:
    """Delta(chi) Delta(chi^{-1}) = chi(-1) at the root-value level (a unit
    evaluation, so only the residue part matters)."""
    lhs = root_number(chi) * root_number(chi.inverse())
    num, den = _minus_one_root(chi.field.residue, chi.j)
    return lhs == root_value(chi.field.p, Cyclotomic.root_of_unity(den, num), 0)


# ---------------------------------------------------------------------------
# Galois-group Delta models
#
# For a tame Galois extension K|F the subgroup-character pairs of
# Gal(K|F) correspond to intermediate fields with a character of their
# unit-and-uniformizer group, and the root numbers of those characters
# give an exact RootValue-valued Delta function on the pair classes.
# Supported shapes: unramified cyclic; Kummer cyclic and bicyclic
# (l | q - 1); the Frobenius-group shape (l not dividing q - 1, with
# inertia of order l and unramified part of order m = ord(q mod l)).
# When l | q - 1, tau is the image of F's residue generator g_F in
# inertia, and the fixed field E of H reads chi through Art_E = Art_F o N:
# on units E's own generator g_E goes to tau^m0 with N(g_E) = g_F^m0, so
# m0 scales chi's residue part.  The s3 shape (l not dividing q - 1) has
# no such tau over F and reads chi(tau) through g_E.  A subgroup that
# meets inertia partially is refused (UnsupportedModel).


def _char_root(chi, x: int) -> tuple[int, int]:
    """chi(x) as a root-of-unity pair."""
    return chi.exponent_of(x) % chi.modulus, chi.modulus


def _galois_pair_value(
    g, inertia_set, sigma: int, tau: int, base: FiniteField, lpsi: int, h, chi
) -> RootValue:
    """Root number of the character of the fixed field of H obtained
    from chi via the reciprocity conventions Art(units) = tau-part,
    Art(pi) = sigma-power times the (-1)^(l-1) unit correction."""
    e_total = len(inertia_set)
    f_total = g.order // e_total
    ih = [x for x in h.elements if x in inertia_set]
    e_ke = len(ih)
    f_ke = h.order // e_ke
    e_e = e_total // e_ke
    f_e = f_total // f_ke
    field_e = tame_field(base, e_e, f_e, lpsi)
    q_e = field_e.q

    if e_ke == 1:
        # K|E unramified: the transported character is unramified with
        # z = chi(Frob), Frob the unique element of H over sigma^f_E
        target = g.inv(g.power(sigma, f_e))
        frobs = [x for x in h.elements if g.mul(x, target) in inertia_set]
        if len(frobs) != 1:
            raise CertificateFailed(f"H has {len(frobs)} Frobenius lifts, not 1", witness=frobs)
        num, den = _char_root(chi, frobs[0])
        return root_number(tame_char(field_e, 0, num, den))
    if e_ke != e_total:
        raise UnsupportedModel(
            f"inertia of order {e_total} meets H in a part of order {e_ke}"
        )
    ell = e_total
    # residue part from chi on inertia: chi(tau) = zeta_l^s
    num_t, den_t = _char_root(chi, tau)
    if (num_t * ell) % den_t:
        raise CertificateFailed("chi is not order-l on inertia", witness=(num_t, den_t))
    s = num_t * ell // den_t
    if f_e > 1 and (base.q - 1) % ell == 0:
        # Art_E = Art_F o N on units, so E's generator g_E goes to tau^m0
        s *= _norm_log(base, field_e.residue)
    j = s * (q_e - 1) // ell if q_e > 2 else 0
    t0 = ((q_e - 1) // 2) % 2 if (ell == 2 and q_e % 2) else 0
    art_pi = g.mul(g.power(sigma, f_e), g.power(tau, t0))
    num, den = _char_root(chi, art_pi)
    return root_number(tame_char(field_e, j, num, den))


def galois_delta(
    model: str, p: int = 2, f: int = 1, ell: int | None = None,
    degree: int | None = None, lpsi: int = 0,
):
    """An exact RootValue Delta function on the pair classes of the
    Galois group of a supported tame extension shape.  Models:
    "unramified" (cyclic of the given degree), "kummer" (ramified cyclic
    of prime degree ell | q-1), "bikummer" (unramified times ramified,
    (Z/ell)^2), "s3" (nonabelian: inertia of order ell with
    ell not dividing q-1)."""
    from .catalog import catalog_group
    from .groups import (
        full_subgroup,
        metacyclic,
        normal_subgroups,
        trivial_subgroup,
    )
    from .brauer import pair_classes

    base = finite_field(p, f)
    q = base.q
    if model == "unramified":
        if degree is None or not 1 <= degree <= 16:
            raise UnsupportedModel("unramified model needs a degree in 1..16")
        g = catalog_group(f"C{degree}")
        inertia_set = frozenset({0})
        sigma, tau = (1 if degree > 1 else 0), 0
    elif model == "kummer":
        if ell is None or not _is_prime(ell) or (q - 1) % ell:
            raise UnsupportedModel("kummer model needs a prime ell | q - 1")
        g = catalog_group(f"C{ell}")
        inertia_set = frozenset(range(ell))
        sigma, tau = 0, 1
    elif model == "bikummer":
        if ell is None or not _is_prime(ell) or (q - 1) % ell:
            raise UnsupportedModel("bikummer model needs a prime ell | q - 1")
        # element a + ell*b is tau^a sigma^b
        g = metacyclic(ell, ell, 1, 0, name=f"C{ell}xC{ell}")
        inertia_set = frozenset(range(ell))
        sigma, tau = ell, 1
    elif model == "s3":
        if ell is None or not _is_prime(ell) or ell == p:
            raise UnsupportedModel("s3 model needs a prime ell, ell != p")
        if (q - 1) % ell == 0:
            raise UnsupportedModel(
                "ell divides q - 1: the extension is abelian (use kummer)"
            )
        m = _multiplicative_order(q, ell)
        name = "S3" if (ell, m) == (3, 2) else f"F{ell}_{m}"
        try:
            g = catalog_group(name)
        except Exception as exc:
            raise UnsupportedModel(f"no catalog group for shape ({ell}, {m})") from exc
        inertia = next(
            h for h in normal_subgroups(g) if h.order == ell
        )
        inertia_set = inertia.element_set
        tau = min(x for x in inertia_set if x != 0)
        q_action = q % ell
        sigma = None
        for x in range(g.order):
            if x in inertia_set:
                continue
            if g.conj(x, tau) == g.power(tau, q_action):
                cos_order = g.element_order(x)
                if cos_order % m == 0:
                    sigma = x
                    break
        if sigma is None:
            raise CertificateFailed("no Frobenius lift with the q-power action", witness=tau)
    else:
        raise UnsupportedModel(f"unknown model {model!r}")

    full = full_subgroup(g)
    triv = trivial_subgroup(g)
    vgroup = RootValueGroup(p)
    assignments = {}
    for cls in pair_classes(full, triv):
        if cls.char.is_trivial():
            continue
        assignments[cls] = _galois_pair_value(
            g, inertia_set, sigma, tau, base, lpsi, cls.subgroup, cls.char
        )
    return delta_function(g, triv, vgroup, assignments)
