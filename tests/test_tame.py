import random
from functools import lru_cache
from math import gcd, lcm

import numpy as np
import pytest

from monomial.cyclotomic import Cyclotomic, _cyclo_coeffs, _poly_rem, sqrt_prime
from monomial.errors import (
    DegenerateCase,
    NotAbelianTameCase,
    NotTame,
    PrimeMismatch,
    TooLarge,
    UnsupportedModel,
)
from monomial.extend import (
    FreeAbelianGroup,
    check_conditions,
    extend,
    uniqueness_check,
    verify_tower,
)
from monomial.groups import full_subgroup
from monomial.tame import (
    CycVec,
    RootValue,
    RootValueGroup,
    base_field_of,
    check_DH_I,
    check_DH_III_tame,
    conductor_inductivity,
    dh1_sweep,
    finite_field,
    functional_equation,
    galois_delta,
    gauss_functional_check,
    gauss_modulus_check,
    gauss_sum,
    norm_characters,
    norm_transport,
    root_number,
    root_value,
    root_value_one,
    tame_char,
    tame_field,
    twist_exponent,
    _delta_modulus,
    _delta_vec,
    _gauss_indices,
    _gauss_vec,
    _is_irreducible,
    _root_number_indices,
    _sqrt_vec,
    _swept_characters,
)


def test_finite_field_structure():
    f4 = finite_field(2, 2)
    assert f4.modulus == (1, 1, 1)  # x^2 + x + 1, the only choice
    assert f4.q == 4
    # exp/log are mutually inverse and the generator has full order
    assert sorted(f4.exp) == [1, 2, 3]
    assert all(f4.log[f4.exp[k]] == k for k in range(3))
    f9 = finite_field(3, 2)
    assert len(set(f9.exp)) == 8
    # field axioms on a sample: distributivity
    for a in range(9):
        for b in range(9):
            assert f9.mul(a, f9.add(b, 1)) == f9.add(f9.mul(a, b), a)
    # inverse
    for a in range(1, 9):
        assert f9.mul(a, f9.inv(a)) == 1


def test_trace_and_embedding():
    f4 = finite_field(2, 2)
    # Tr(x) = x + x^2; the two non-subfield elements have trace 1
    assert f4.trace(0) == 0 and f4.trace(1) == 0
    assert f4.trace(2) == 1 and f4.trace(3) == 1
    f2, f16 = finite_field(2, 1), finite_field(2, 4)
    # prime-field elements embed identically
    assert [f2.embed(x, f16) for x in range(2)] == [0, 1]
    f4_in_f16 = f4.embedding_root(f16)
    # the image satisfies x^2 + x + 1 = 0
    assert f16.add(f16.add(f16.mul(f4_in_f16, f4_in_f16), f4_in_f16), 1) == 0
    # embedding is a ring homomorphism
    for a in range(4):
        for b in range(4):
            assert f4.embed(f4.mul(a, b), f16, f4_in_f16) == f16.mul(
                f4.embed(a, f16, f4_in_f16), f4.embed(b, f16, f4_in_f16)
            )


def _sweep_fields():
    """(p, f) of every residue field the acceptance sweeps build: the
    Gauss-sum fields q <= 64, the unramified dh1 residue fields up to the
    4096 cap, and the dh3 fields F_{q^m}, m = ord(q mod ell)."""
    fields = {(p, f) for p in range(2, 64) if all(p % d for d in range(2, p))
              for f in range(1, 7) if p**f <= 64}
    for p, f in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                 (11, 1), (13, 1), (2, 4)):
        fields |= {(p, f * ell) for ell in (2, 3, 5) if p ** (f * ell) <= 4096}
    for p, f, ell in ((2, 1, 3), (3, 1, 5), (2, 1, 7), (5, 1, 3)):
        fields.add((p, f * next(m for m in range(1, ell) if pow(p**f, m, ell) == 1)))
    return sorted(fields)


def test_trace_is_the_sum_of_conjugates():
    # Tr(a) = a + a^p + ... + a^(p^(f-1)), summed digit by digit mod p
    for p, f in _sweep_fields():
        ff = finite_field(p, f)
        for a in range(ff.q):
            digits = [0] * f
            conj = a
            for _ in range(f):
                rest = conj
                for i in range(f):
                    rest, d = divmod(rest, p)
                    digits[i] = (digits[i] + d) % p
                conj = ff.pow(conj, p) if conj else 0
            assert digits[1:] == [0] * (f - 1), (p, f, a)
            assert ff.trace(a) == digits[0], (p, f, a)


def _raw_mul(ff, a, b):
    """a * b in ff by polynomial multiplication and reduction mod p."""
    p, f, mod = ff.p, ff.f, list(ff.modulus)
    da = [a // p**i % p for i in range(f)]
    db = [b // p**i % p for i in range(f)]
    prod = [0] * (2 * f - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    for top in range(2 * f - 2, f - 1, -1):
        c = prod[top]
        for i, m in enumerate(mod):
            prod[top - f + i] = (prod[top - f + i] - c * m) % p
    return sum(d * p**i for i, d in enumerate(prod[:f]))


def _rabin_irreducible(m, p):
    """Rabin's test, as the fields used it before trial division: a monic m
    of degree f is irreducible iff x^(p^f) = x mod m and
    gcd(x^(p^(f/l)) - x, m) is constant for every prime l | f."""
    def trim(a):
        while a and a[-1] == 0:
            a = a[:-1]
        return a

    def rem(a, b):
        a = trim([c % p for c in a])
        while len(a) >= len(b):
            c, shift = a[-1] * pow(b[-1], -1, p) % p, len(a) - len(b)
            a = trim([(x - c * b[i - shift]) % p if i >= shift else x
                      for i, x in enumerate(a)])
        return a

    def mul_mod(a, b):
        out = [0] * (len(a) + len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return rem(out, m)

    def x_to_p_to(k):
        cur = [0, 1]
        for _ in range(k):
            out, base, e = [1], cur, p
            while e:
                out = mul_mod(out, base) if e & 1 else out
                base, e = mul_mod(base, base), e >> 1
            cur = out
        return cur

    f = len(m) - 1
    if x_to_p_to(f) != rem([0, 1], m):
        return False
    for ell in (d for d in range(2, f + 1)
                if f % d == 0 and all(d % r for r in range(2, d))):
        diff = x_to_p_to(f // ell) + [0, 0]
        diff[1] -= 1
        a, b = m, rem(diff, m)
        while b:
            a, b = b, rem(a, b)
        if len(a) > 1:
            return False
    return True


def _monic(enc, p, f):
    return [enc // p**i % p for i in range(f)] + [1]


def test_trial_division_agrees_with_rabin():
    # every monic polynomial with p^f <= 1024, 729, 625, 343 and 121
    checked = 0
    for p, top in ((2, 1024), (3, 729), (5, 625), (7, 343), (11, 121)):
        f = 1
        while p**f <= top:
            for enc in range(p**f):
                m = _monic(enc, p, f)
                assert _is_irreducible(m, p) == _rabin_irreducible(m, p), (p, m)
                checked += 1
            f += 1
    assert checked == 4449


def test_exp_table_matches_polynomial_products():
    # the least irreducible modulus, the least primitive element and its
    # powers, one polynomial product per entry, on every field the sweeps
    # build
    for p, f in _sweep_fields():
        ff = finite_field(p, f)
        q = ff.q
        least = next(m for m in (_monic(enc, p, f) for enc in range(q))
                     if _rabin_irreducible(m, p))
        assert ff.modulus == tuple(least), (p, f)

        def power(a, e):
            out = 1
            for _ in range(e):
                out = _raw_mul(ff, out, a)
            return out

        primes = [d for d in range(2, q) if (q - 1) % d == 0
                  and all(d % r for r in range(2, d))]
        gen = next((a for a in range(1, q)
                    if all(power(a, (q - 1) // r) != 1 for r in primes)), 1)
        exp = [1]
        for _ in range(q - 2):
            exp.append(_raw_mul(ff, exp[-1], gen))
        assert ff.generator == gen, (p, f)
        assert ff.exp == exp, (p, f)
        assert ff.log == {x: k for k, x in enumerate(exp)}, (p, f)


@lru_cache(maxsize=None)
def _dense_gauss_sum(p, f, j):
    """The Gauss sum term by term in dense cyclotomic arithmetic."""
    ff = finite_field(p, f)
    q = ff.q
    total = Cyclotomic.zero()
    for k in range(q - 1):
        e = (-j * k) % (q - 1) if q > 2 else 0
        term = Cyclotomic.root_of_unity(q - 1, e) if q > 2 else Cyclotomic.from_rational(1)
        total = total + term * Cyclotomic.root_of_unity(p, ff.trace(ff.exp[k]))
    return total


def _dense_root_number(chi):
    """z^(a - lpsi) * chibar(e) * G(chibar) * q^(-1/2) factor by factor."""
    field = chi.field
    z_pow = Cyclotomic.root_of_unity(chi.z_den, chi.z_num * (chi.a - field.lpsi))
    if chi.a == 0:
        return root_value(field.p, z_pow, 0)
    g = _dense_gauss_sum(field.p, field.residue.f, chi.j)
    if field.e > 1:
        g = g * chi.residue_value(field.e % field.p)
    return root_value(field.p, z_pow * g, -field.residue.f)


def _small_characters():
    """Every residue part on the fields q <= 16, over E = F (e = 1) and
    the tame ramified E with e = 2 or 3 (e != p), at levels 0 and 1, with
    three uniformizer values."""
    for p, f in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                 (11, 1), (13, 1), (2, 4)):
        base = finite_field(p, f)
        for e in (1, 2, 3):
            for lpsi in (0, 1):
                if e == p:
                    continue
                field = tame_field(base, e, 1, lpsi)
                for j in range(max(base.q - 1, 1)):
                    for z_num, z_den in ((0, 1), (1, max(base.q - 1, 4)), (1, 6)):
                        yield tame_char(field, j, z_num, z_den)


def _exact(v):
    return v.p, v.k, v.c.m, v.c.coeffs


def test_gauss_sum_and_root_number_match_dense_oracle():
    chars = 0
    for chi in _small_characters():
        g = gauss_sum(chi.field.p, chi.field.residue.f, chi.j)
        dense = _dense_gauss_sum(chi.field.p, chi.field.residue.f, chi.j)
        assert (g.m, g.coeffs) == (dense.m, dense.coeffs)
        assert _exact(root_number(chi)) == _exact(_dense_root_number(chi)), chi
        chars += 1
    assert chars > 1000


def test_delta_vec_is_the_promoted_root_number():
    for chi in _small_characters():
        rn = root_number(chi)
        M = 2 * lcm(rn.c.m, chi.field.p, chi.field.q - 1)
        vec, k = _delta_vec(M, chi)
        from_vec = root_value(chi.field.p, vec.to_cyclotomic(), k)
        assert (from_vec.k, from_vec.c.coeffs) == (rn.k, rn.c.promote(M).coeffs), chi


def _pair_gauss(M, ff, j):
    """The Gauss sum as (exponent, coefficient) pairs, one per unit g^k:
    the oracle for the index-array construction."""
    q1 = ff.q - 1
    return [
        (((-j * k) % q1) * (M // q1) + ff.trace(x) * (M // ff.p), 1)
        for k, x in enumerate(ff.exp)
    ]


def _pair_root_number(M, chi):
    """The root number as (exponent mod M, coefficient) pairs and k."""
    field = chi.field
    zexp = chi.z_num * (M // chi.z_den) * twist_exponent(chi)
    if chi.a == 0:
        return [(zexp % M, 1)], 0
    ff = field.residue
    zexp += chi.j * ff.log[field.e % field.p] * (M // (ff.q - 1))
    return [((zexp + x) % M, c) for x, c in _pair_gauss(M, ff, chi.j)], -ff.f


def _same_vector(vec, pairs, M):
    expected = CycVec.from_pairs(M, pairs).arr
    assert vec.arr.dtype == np.int64 and vec.arr.shape == (M,)
    return np.array_equal(vec.arr, expected)


def _same_terms(idx, m, pairs, M):
    """Exponents mod m and oracle pairs mod M name the same roots of unity,
    term by term, once both are lifted into Z[zeta_lcm(m, M)]."""
    big = lcm(m, M)
    expected = np.array([e % M for e, _ in pairs], dtype=np.int64) * (big // M)
    return np.array_equal(idx * (big // m), expected)


_DH1_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
               (13, 1), (2, 4))


def _dh1_extensions():
    """Every (K, M) of the dh1 sweeps on q <= 16 and l in {2, 3, 5}, with
    the modulus check_DH_I multiplies at (the swept z_den is q - 1, or 4
    when q = 2)."""
    for p, f in _DH1_FIELDS:
        base = finite_field(p, f)
        q = base.q
        for ell in (2, 3, 5):
            for ramified in (False, True):
                if ramified and (q - 1) % ell or not ramified and q**ell > 4096:
                    continue
                K = tame_field(base, ell, 1) if ramified else tame_field(base, 1, ell)
                M = lcm(p, K.q - 1, max(q - 1, 1), ell, 4 if q == 2 else 1,
                        8 if p == 2 else 4 * p)
                yield K, M


def _gauss_fields():
    """(p, f) of every field F_q with q <= 64."""
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        f = 1
        while p**f <= 64:
            yield p, f
            f += 1


def test_index_vectors_match_pair_oracle():
    # at M = lcm(q - 1, p) and 3M the vectors are the oracle's; at the
    # character's own modulus M' (lcm(r, p) for a Gauss sum, r the order of
    # chibar_j; _delta_modulus for a root number) and at 3M', the exponents
    # are the oracle's at M, term by term, once lifted to a common modulus
    reduced = 0
    for p, f in _gauss_fields():
        ff = finite_field(p, f)
        q1 = ff.q - 1
        M = lcm(q1, p)
        for j in range(q1):
            for m in (M, 3 * M):
                assert _same_vector(_gauss_vec(m, ff, j), _pair_gauss(m, ff, j), m)
            own = lcm(q1 // gcd(j, q1), p)
            pairs = _pair_gauss(M, ff, j)
            for m in (own, 3 * own):
                assert _same_terms(_gauss_indices(m, ff, j), m, pairs, M), (p, f, j, m)
            reduced += own < M
    assert reduced > 300
    extensions = reduced = 0
    for K, M in _dh1_extensions():
        mus = norm_characters(K)
        for chi in _swept_characters(base_field_of(K)):
            for c in [chi, norm_transport(K, chi), *mus, *(chi.mul(mu) for mu in mus)]:
                vec, k = _delta_vec(M, c)
                pairs, k_pairs = _pair_root_number(M, c)
                assert k == k_pairs and _same_vector(vec, pairs, M), (K, c)
                own = _delta_modulus(c)
                assert M % own == 0, (K, c)
                for m in (own, 3 * own):
                    idx, k_idx = _root_number_indices(m, c)
                    assert k_idx == k and _same_terms(idx, m, pairs, M), (K, c, m)
                reduced += c.a == 1 and (c.field.q - 1) % own != 0
        extensions += 1
    assert extensions == 36 and reduced > 100


def _check_DH_I_at_the_residue_modulus(K, chi):
    """check_DH_I with every vector at lcm(p, q_K - 1, q - 1, l, z_den, 8
    or 4p), the modulus it took before it used each character's own."""
    p, q = K.base.p, K.base.q
    M = lcm(p, max(K.q - 1, 1), max(q - 1, 1), K.e * K.f, chi.z_den,
            8 if p == 2 else 4 * p)
    s_chars = norm_characters(K)
    lhs, lhs_k = _delta_vec(M, norm_transport(K, chi))
    rhs, rhs_k = CycVec.from_pairs(M, [(0, 1)]), 0
    for mu in s_chars:
        v, k = _delta_vec(M, mu)
        lhs, lhs_k = lhs * v, lhs_k + k
        v, k = _delta_vec(M, chi.mul(mu))
        rhs, rhs_k = rhs * v, rhs_k + k
    if (lhs_k - rhs_k) % 2:
        if lhs_k < rhs_k:
            lhs, lhs_k = lhs * _sqrt_vec(M, p), lhs_k + 1
        else:
            rhs, rhs_k = rhs * _sqrt_vec(M, p), rhs_k + 1
    if lhs_k > rhs_k:
        lhs = lhs.scale(p ** ((lhs_k - rhs_k) // 2))
    elif rhs_k > lhs_k:
        rhs = rhs.scale(p ** ((rhs_k - lhs_k) // 2))
    return (lhs - rhs).is_zero()


def test_dh1_verdicts_match_the_residue_modulus():
    cases = 0
    for K, _ in _dh1_extensions():
        for chi in _swept_characters(base_field_of(K)):
            assert check_DH_I(K, chi) == _check_DH_I_at_the_residue_modulus(K, chi), (K, chi)
            cases += 1
    assert cases > 300


@lru_cache(maxsize=None)
def _all_primitive(M):
    return [t for t in range(M) if gcd(t, M) == 1]


def _fft_is_zero(v):
    """v(zeta_M) == 0 read from a complex FFT at every primitive index.  A
    nonzero algebraic integer has a conjugate of absolute value >= 1, so the
    oracle insists the largest conjugate is clearly near 0 or clearly >= 1."""
    top = float(np.abs(np.fft.fft(v.arr)[_all_primitive(v.M)]).max())
    assert top < 1e-6 or top > 0.99, (v.M, top)
    return top < 0.5


def _remainder_is_zero(v):
    """v(zeta_M) == 0 read from the exact remainder of v modulo Phi_M."""
    return not any(_poly_rem(v.arr.tolist(), _cyclo_coeffs(v.M)))


def _structured_zero(rng, M):
    """A signed sum of shifted full sets of d-th roots of unity, d > 1."""
    divisors = [d for d in range(2, M + 1) if M % d == 0]
    pairs = []
    for _ in range(rng.randrange(1, 4)):
        d, s, c = rng.choice(divisors), rng.randrange(M), rng.choice([-3, -1, 1, 2])
        pairs += [(s + k * (M // d), c) for k in range(d)]
    return pairs


def test_zero_test_matches_exact_remainder_and_fft():
    rng = random.Random(13)
    for M in (1, 2, 3, 12, 15, 30, 126, 87780):
        oracle = _remainder_is_zero if M <= 126 else _fft_is_zero
        for _ in range(30):
            pairs = [(rng.randrange(M), rng.randrange(-3, 4)) for _ in range(rng.randrange(1, 8))]
            cases = [pairs]
            if M > 1:
                zero = _structured_zero(rng, M)
                # the last is a root of unity, never zero
                cases += [zero, zero + pairs, zero + [(rng.randrange(M), 1)]]
            for case in cases:
                v = CycVec.from_pairs(M, case)
                assert v.is_zero() == oracle(v), (M, case)
            if M > 1:
                assert CycVec.from_pairs(M, zero).is_zero()
                assert not CycVec.from_pairs(M, zero + [(rng.randrange(M), 1)]).is_zero()


def test_gauss_sum_oracles():
    # trivial character: the full additive sum over nonzero elements
    assert gauss_sum(5, 1, 0) == Cyclotomic.from_rational(-1)
    assert gauss_sum(2, 1, 0) == Cyclotomic.from_rational(-1)
    # q = 3 quadratic: zeta_3 - zeta_3^2, whose square is -3
    g = gauss_sum(3, 1, 1)
    assert g == Cyclotomic.root_of_unity(3, 1) - Cyclotomic.root_of_unity(3, 2)
    assert g * g == Cyclotomic.from_rational(-3)
    # F_4 cubic characters: the classical value 2 (trace form is symmetric)
    assert gauss_sum(2, 2, 1) == Cyclotomic.from_rational(2)
    assert gauss_sum(2, 2, 2) == Cyclotomic.from_rational(2)


def test_gauss_modulus_small_dense():
    # |g|^2 = q via dense cyclotomic arithmetic, cross-checking the
    # vector fast path on the same fields
    for p, f in ((3, 1), (5, 1), (2, 2), (7, 1), (3, 2)):
        q = p**f
        for j in range(1, q - 1):
            g = gauss_sum(p, f, j)
            assert g * g.conjugate() == Cyclotomic.from_rational(q)
        assert gauss_modulus_check(p, f)
        assert gauss_functional_check(p, f)


def test_root_value_algebra():
    five = root_value(5, Cyclotomic.from_rational(1), 2)
    assert five.k == 0 and five.c == Cyclotomic.from_rational(5)
    # sqrt(5) both as an odd half-power and as an explicit cyclotomic
    assert root_value(5, sqrt_prime(5), 0) == root_value_one(5) * RootValue(
        5, Cyclotomic.from_rational(1), 1
    )
    vg = RootValueGroup(7)
    a = root_value(7, Cyclotomic.root_of_unity(3, 1), 1)
    assert vg.eq(vg.mul(a, vg.inv(a)), vg.one())
    assert vg.pow(a, 2) == a * a
    assert vg.describe(a) == repr(a)
    with pytest.raises(PrimeMismatch):
        vg.eq(a, root_value_one(5))
    with pytest.raises(PrimeMismatch):
        vg.mul(a, root_value_one(5))


def test_value_group_pow_is_repeated_mul():
    free = FreeAbelianGroup()
    word = free.mul(free.symbol("a"), free.inv(free.mul(free.symbol("b"), free.symbol("b"))))
    root = root_value(7, Cyclotomic.root_of_unity(3, 1), 1)
    cases = [(free, word), (RootValueGroup(7), root)]
    for vg, a in cases:
        for n in range(-6, 7):
            step, out = a if n >= 0 else vg.inv(a), vg.one()
            for _ in range(abs(n)):
                out = vg.mul(out, step)
            assert vg.pow(a, n) == out, (a, n)


def test_equal_root_values_hash_alike():
    # sqrt(5) * 5^0 and 1 * 5^(1/2) are equal, so they must hash alike
    a = root_value(5, sqrt_prime(5), 0)
    b = RootValue(5, Cyclotomic.from_rational(1), 1)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_tame_char_and_root_number():
    base = finite_field(5, 1)
    f_datum = tame_field(base, 1, 1)
    assert f_datum.lpsi == 0 and f_datum.d == 0
    chi = tame_char(f_datum, 1, 1, 4)
    assert chi.a == 1
    assert twist_exponent(chi) == 1
    unram = tame_char(f_datum, 0, 1, 4)
    assert unram.a == 0
    # level-0 unramified characters have root number 1
    assert root_number(unram) == root_value_one(5)
    # ramified: |Delta| = 1 exactly (Delta * conj = 1 via functional eq)
    assert functional_equation(chi)
    # wild conductor is refused
    with pytest.raises(NotTame):
        tame_char(f_datum, 1, a=2)
    # levels transport through ramification: lpsi_E = e*lpsi - (e-1)
    e_datum = tame_field(base, 3, 1, 1)
    assert e_datum.lpsi == 1 and e_datum.d == 2
    # e = p = 5 is wild ramification
    with pytest.raises(NotTame):
        tame_field(base, 5, 1)


def test_functional_equation_sweep():
    for p, f in ((5, 1), (7, 1), (3, 2)):
        base = finite_field(p, f)
        f_datum = tame_field(base, 1, 1)
        q = base.q
        for j in range(q - 1):
            for z_num, z_den in ((0, 1), (1, q - 1)):
                assert functional_equation(tame_char(f_datum, j, z_num, z_den))


def test_conductor_inductivity():
    for e in (1, 2, 3):
        for f in (1, 2, 3):
            for a_k in (0, 1, 2):
                for dim in (1, 2):
                    for lpsi in (0, 1):
                        out = conductor_inductivity(e, f, e - 1, a_k, dim, lpsi)
                        assert out["equal"], out


def test_norm_transport_unramified_is_compatible():
    # chibar_K agrees with chibar_F composed with the residue norm
    base = finite_field(3, 1)
    K = tame_field(base, 1, 2)
    big = K.residue
    chi = tame_char(base_field_of(K), 1, 1, 2)
    chi_k = norm_transport(K, chi)
    assert chi_k.z_num * 2 % chi_k.z_den == 0  # z_K = z^2 = -1... z^l
    root = base.embedding_root(big)
    back = {base.embed(x, big, root): x for x in range(base.q)}
    idx = (big.q - 1) // (base.q - 1)
    for x in range(1, big.q):
        nx = back[big.pow(x, idx)]
        assert chi_k.residue_value(x) == chi.residue_value(nx)


def test_norm_transport_ramified():
    base = finite_field(7, 1)
    K = tame_field(base, 3, 1)
    chi = tame_char(base_field_of(K), 1, 1, 6)
    chi_k = norm_transport(K, chi)
    assert chi_k.j == 3  # residue norm is cubing
    # mixed shapes are refused
    with pytest.raises(NotAbelianTameCase):
        norm_transport(tame_field(base, 3, 2), tame_char(tame_field(base, 1, 1), 0))


def test_norm_characters():
    base = finite_field(7, 1)
    # unramified: l unramified characters of order dividing l
    K = tame_field(base, 1, 3)
    s = norm_characters(K)
    assert len(s) == 3 and all(mu.j == 0 for mu in s)
    # each mu is trivial on norms: mu o N = 1
    for mu in s:
        t = norm_transport(K, mu)
        assert t.j == 0 and t.z_num == 0
    # ramified Kummer: residue parts of order dividing l
    K2 = tame_field(base, 3, 1)
    s2 = norm_characters(K2)
    assert len(s2) == 3 and sorted(mu.j for mu in s2) == [0, 2, 4]
    for mu in s2:
        t = norm_transport(K2, mu)
        assert t.j == 0 and t.z_num == 0
    # non-Galois ramified shape has no character group
    with pytest.raises(NotAbelianTameCase):
        norm_characters(tame_field(finite_field(2, 1), 3, 1))


def _dh1_sides_dense(K, chi):
    """Both sides of check_DH_I as RootValues on the dense cyclotomic path
    (small fields only): the oracle for the vector path."""
    s_chars = norm_characters(K)
    lhs = root_number(norm_transport(K, chi))
    rhs = root_value_one(K.base.p)
    for mu in s_chars:
        lhs = lhs * root_number(mu)
        rhs = rhs * root_number(chi.mul(mu))
    return lhs, rhs


def test_dh1_dense_matches_fast_path():
    for p, f, ell, ramified in (
        (3, 1, 2, True),
        (5, 1, 2, True),
        (7, 1, 3, True),
        (2, 1, 2, False),
        (3, 1, 2, False),
    ):
        base = finite_field(p, f)
        K = tame_field(base, ell, 1) if ramified else tame_field(base, 1, ell)
        f_datum = base_field_of(K)
        q = base.q
        for j in range(max(q - 1, 1)):
            chi = tame_char(f_datum, j, 1, max(q - 1, 2))
            lhs, rhs = _dh1_sides_dense(K, chi)
            assert (lhs == rhs) == check_DH_I(K, chi)
            assert lhs == rhs


def test_dh1_sweeps():
    assert dh1_sweep(5, 1, 2, True)["ok"]
    assert dh1_sweep(2, 2, 3, False)["ok"]
    with pytest.raises(TooLarge):
        dh1_sweep(2, 4, 5, False)  # 16^5 over the residue cap
    with pytest.raises(NotAbelianTameCase):
        dh1_sweep(5, 1, 3, True)


def test_dh3_instances_and_refusals():
    out = check_DH_III_tame(2, 1, 3)
    assert out["ok"] and out["m"] == 2
    out = check_DH_III_tame(5, 1, 3)
    assert out["ok"] and out["m"] == 2
    with pytest.raises(DegenerateCase):
        check_DH_III_tame(3, 1, 2)
    with pytest.raises(NotTame):
        check_DH_III_tame(3, 1, 3)
    with pytest.raises(TooLarge):
        check_DH_III_tame(7, 1, 5)  # residue field 7^4 over the cap


# Every DH_I check and every root-number comparison is made to fail; the
# sweeps must report it and the CLI must say so, with and without -O.
_INJECT_FAILURES = """
from click.testing import CliRunner
from monomial import cli, tame

tame.check_DH_I = lambda K, chi: False
tame.RootValue.__eq__ = lambda self, other: False
dh1 = tame.dh1_sweep(5, 1, 2, True)
dh3 = tame.check_DH_III_tame(2, 1, 3)
print(dh1["ok"], dh1["failures"][0], len(dh1["failures"]) == dh1["cases"])
print(dh3["ok"], len(dh3["failures"]) == dh3["cases"] + 1)
for args in (["dh1", "--q", "5", "--ell", "2", "--ramified"],
             ["dh3", "--q", "2", "--ell", "3"]):
    res = CliRunner().invoke(cli.main, ["tame", *args])
    print(res.exit_code, res.output.split()[-1])
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_tame_failures_are_verdicts(flags, run_python):
    out = run_python(flags, _INJECT_FAILURES)
    assert out[:4] == [
        "False {'j': 0, 'z': (0, 1)} True",
        "False True",
        "1 verdict=fail",
        "1 verdict=fail",
    ]


# The dh3 orbit data patched out of shape: a missing character of S(K|L),
# Frobenius orbits of the wrong length, and orbits that j -> -j does not
# permute are each refused with the offending orbit, with and without -O.
_DH3_ORBIT_SHAPE = """
from monomial import tame
from monomial.errors import CertificateFailed

norm, orbit = tame.norm_characters, tame._frob_orbit_js
for name, fake, args in (
    ("norm_characters", lambda k: norm(k)[:-1], (2, 1, 3)),
    ("_frob_orbit_js", lambda j, q, mod: [j], (2, 1, 3)),
    ("_frob_orbit_js", lambda j, q, mod: [1, 2, 5] if j in (1, 2, 5) else [3, 4, 6],
     (2, 1, 7)),
):
    setattr(tame, name, fake)
    try:
        print(tame.check_DH_III_tame(*args)["ok"])
    except CertificateFailed as exc:
        print(f"{exc}: {sorted(exc.witness)}")
    tame.norm_characters, tame._frob_orbit_js = norm, orbit
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_dh3_orbit_shape_is_certified(flags, run_python):
    out = run_python(flags, _DH3_ORBIT_SHAPE)
    assert out[:3] == [
        "S(K|L) has 1 nontrivial characters, not l - 1 = 2: [1]",
        "a Frobenius orbit has length 1, not m = 2: [1]",
        "j -> -j does not permute the Frobenius orbits: [1, 2, 5]",
    ]


# sqrt(p) patched to a non-integer coefficient is refused with that
# coefficient as witness, with and without -O.
_SQRT_PAIRS = """
from fractions import Fraction
from monomial import tame
from monomial.cyclotomic import Cyclotomic
from monomial.errors import CertificateFailed

tame.sqrt_prime = lambda p: Cyclotomic(4, [0, Fraction(1, 2)])
try:
    print(tame._sqrt_pairs(2))
except CertificateFailed as exc:
    print(f"{exc}: {exc.witness}")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_sqrt_pairs_refuses_non_integer_coefficients(flags, run_python):
    out = run_python(flags, _SQRT_PAIRS)
    assert out[0] == "sqrt(2) has the non-integer coefficient 1/2: 1/2"


# Mixed primes, int64 overflow, sqrt(p) outside Z[zeta_M], characters of
# different fields, the inverse of a root value c * p^(k/2) with c = 0 or
# with a non-rational norm c * conj(c), and a Galois pair whose subgroup
# meets inertia partially (H = {0, 2} in C4 as inertia) are refused by
# type, not by an assert.
_REFUSALS = """
from monomial.characters import characters_of
from monomial.cyclotomic import Cyclotomic
from monomial.errors import (
    DomainMismatch, ModulusMismatch, OutOfDomain, PrimeMismatch, TooLarge,
    UnsupportedModel,
)
from monomial.groups import metacyclic, subgroup
from monomial.tame import (
    CycVec, _galois_pair_value, _sqrt_vec, finite_field, norm_transport,
    root_value, root_value_one, tame_char, tame_field,
)

f5, f7 = tame_field(finite_field(5, 1), 1, 1), tame_field(finite_field(7, 1), 1, 1)
c4 = metacyclic(4, 1, 1, 0)
h = subgroup(c4, [0, 2])
chi = next(x for x in characters_of(h) if not x.is_trivial())
for attempt in (
    lambda: root_value_one(2) == root_value_one(3),
    lambda: root_value_one(2) * root_value_one(3),
    lambda: CycVec(4, [2**40, 2**40, 0, 0]) * CycVec(4, [2**23, 2**23, 0, 0]),
    lambda: CycVec(4, [2**40, -2**40, 0, 0]).scale(-2**22),
    lambda: _sqrt_vec(10, 3),
    lambda: tame_char(f5, 1).mul(tame_char(f7, 1)),
    lambda: norm_transport(tame_field(finite_field(5, 1), 2, 1), tame_char(f7, 1)),
    lambda: root_value(5, Cyclotomic.zero(), 0).inverse(),
    lambda: root_value(5, 1 + Cyclotomic.root_of_unity(5), 1).inverse(),
    lambda: _galois_pair_value(c4, frozenset(range(4)), 0, 1, finite_field(5, 1), 0, h, chi),
):
    try:
        print(attempt())
    except (
        DomainMismatch, ModulusMismatch, OutOfDomain, PrimeMismatch, TooLarge,
        UnsupportedModel,
    ) as exc:
        print(type(exc).__name__)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_refusals_hold_under_optimisation(flags, run_python):
    out = run_python(flags, _REFUSALS)
    assert out[:10] == [
        "PrimeMismatch", "PrimeMismatch", "TooLarge", "TooLarge",
        "ModulusMismatch", "DomainMismatch", "DomainMismatch",
        "OutOfDomain", "OutOfDomain", "UnsupportedModel",
    ]


# Fields, extensions and characters outside their domain, a wildly
# ramified extension, zero's inverse and a non-subfield embedding are
# refused by type, not by an assert.
_FIELD_REFUSALS = """
from monomial.errors import MonomialError
from monomial.tame import finite_field, tame_char, tame_field

f5 = finite_field(5, 1)
for attempt in (
    lambda: finite_field(6, 1),
    lambda: f5.inv(0),
    lambda: f5.pow(0, -1),
    lambda: tame_char(tame_field(f5, 1, 1), 1, 1, 0),
    lambda: tame_field(f5, 4, 1),
    lambda: tame_field(f5, 5, 1),
    lambda: finite_field(2, 2).embedding_root(finite_field(3, 2)),
    lambda: finite_field(2, 2).embedding_root(finite_field(2, 3)),
):
    try:
        print(attempt())
    except MonomialError as exc:
        print(type(exc).__name__)
print(f5.inv(2), f5.pow(2, -1), f5.pow(0, 3))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_field_refusals_hold_under_optimisation(flags, run_python):
    out = run_python(flags, _FIELD_REFUSALS)
    assert out[:9] == [
        "OutOfDomain", "OutOfDomain", "OutOfDomain", "OutOfDomain",
        "NotAbelianTameCase", "NotTame", "DomainMismatch", "DomainMismatch", "3 3 0",
    ]


# Vectors and exponent pairs at an incompatible modulus are refused by type.
_MODULUS_REFUSALS = """
from monomial.errors import ModulusMismatch
from monomial.tame import (
    CycVec, _gauss_indices, _root_number_indices, finite_field, tame_char, tame_field,
)

chi = tame_char(tame_field(finite_field(5, 1), 1, 1), 1, 1, 4)
for attempt in (
    lambda: CycVec(4, [1, 2, 3]),
    lambda: CycVec(3, [1, 0, 0]) - CycVec(4, [1, 0, 0, 0]),
    lambda: CycVec(3, [1, 0, 0]) * CycVec(4, [1, 0, 0, 0]),
    lambda: _gauss_indices(10, finite_field(5, 1), 1),
    lambda: _root_number_indices(30, chi),
    lambda: _gauss_indices(15, finite_field(5, 1), 2),  # r = 2 does not divide M
    lambda: _gauss_indices(4, finite_field(5, 1), 1),  # p = 5 does not divide M
):
    try:
        print(attempt())
    except ModulusMismatch as exc:
        print(type(exc).__name__)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_modulus_refusals_hold_under_optimisation(flags, run_python):
    out = run_python(flags, _MODULUS_REFUSALS)
    assert out[:7] == ["ModulusMismatch"] * 7


# The CycVec int64 boundary: sums that wrap, entries past 2^62 (lists or a
# caller's int64 arrays), scale factors past 2^62 and non-integer
# coefficients are refused by type; sums that cancel in Python integers,
# other integer dtypes and int64 arrays inside the bound are accepted.
_CYCVEC_BOUNDARY = """
from fractions import Fraction

import numpy as np

from monomial.errors import OutOfDomain, TooLarge
from monomial.tame import CycVec

for attempt in (
    lambda: CycVec.from_pairs(2, [(0, 2**62), (0, 2**62)]),
    lambda: CycVec(4, [2**63, 0, 0, 0]),
    lambda: CycVec(4, [-2**62, 0, 0, 0]),
    lambda: CycVec(4, [0] * 4).scale(2**64),
    lambda: CycVec(4, [0] * 4).scale(2**62),
    lambda: CycVec(3, [0.5, 0, 0]),
    lambda: CycVec(3, [Fraction(1, 2), 0, 0]),
    lambda: CycVec(2, [2**62 - 1, 0]) - CycVec(2, [-1, 0]),
    lambda: CycVec.from_pairs(2, [(0, 2**63), (0, -2**63), (3, 2**62 - 1)]).arr.tolist(),
    lambda: CycVec(2, np.array([3, -4], dtype=np.int32)).arr.tolist(),
    lambda: (CycVec(2, [2**62 - 1, 0]) - CycVec(2, [1, 0])).arr.tolist(),
    lambda: CycVec(1, np.array([2**63 - 1])) - CycVec(1, np.array([-(2**63 - 1)])),
    lambda: CycVec(2, np.array([0, -2**63])),
    lambda: CycVec(2, np.array([2**62 - 1, 1 - 2**62])).arr.tolist(),
):
    try:
        print(attempt())
    except (OutOfDomain, TooLarge) as exc:
        print(type(exc).__name__)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_cycvec_int64_boundary(flags, run_python):
    out = run_python(flags, _CYCVEC_BOUNDARY)
    assert out[:14] == [
        "TooLarge", "TooLarge", "TooLarge", "TooLarge", "TooLarge",
        "OutOfDomain", "OutOfDomain", "TooLarge",
        f"[0, {2**62 - 1}]", "[3, -4]", f"[{2**62 - 2}, 0]",
        "TooLarge", "TooLarge", f"[{2**62 - 1}, {1 - 2**62}]",
    ]


# The zero test's bound max|a| * prod(2p) < 2^62: at the largest max|a|
# below it a coset sum of roots of unity (zero) and a scaled root of unity
# (nonzero) are decided, and vectors with alternating signs agree with the
# exact remainder modulo Phi_M; one more is refused, with and without -O.
_ZERO_TEST_BOUND = """
from math import prod

import numpy as np

from monomial.cyclotomic import _cyclo_coeffs, _poly_rem, factorize
from monomial.errors import TooLarge
from monomial.tame import CycVec

for M in (30, 126, 87780):
    top = (2**62 - 1) // prod(2 * p for p, _ in factorize(M))
    d = factorize(M)[-1][0]
    zero = CycVec.from_pairs(M, [(1 + k * (M // d), top) for k in range(d)])
    root = CycVec.from_pairs(M, [(1, -top)])
    print(M, zero.is_zero(), root.is_zero())
    if M <= 126:
        rng = np.random.default_rng(M)
        agree = True
        for _ in range(20):
            arr = top * rng.choice([-1, 0, 1], size=M)
            arr[:d] = top * (-1) ** np.arange(d)
            v = CycVec(M, arr)
            exact = not any(_poly_rem(v.arr.tolist(), _cyclo_coeffs(M)))
            agree &= v.is_zero() == exact
        print(M, agree)
    for v in (zero, root):
        try:
            print(CycVec(M, v.arr + np.sign(v.arr)).is_zero())
        except TooLarge as exc:
            print(type(exc).__name__)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_zero_test_just_below_the_bound(flags, run_python):
    out = run_python(flags, _ZERO_TEST_BOUND)
    assert out[:11] == [
        "30 True False", "30 True", "TooLarge", "TooLarge",
        "126 True False", "126 True", "TooLarge", "TooLarge",
        "87780 True False", "TooLarge", "TooLarge",
    ]


def test_cycvec_products_below_the_bound_are_exact():
    a = CycVec(4, [2**40, 2**40, 0, 0])
    assert (a * CycVec(4, [2**20, 2**20, 0, 0])).arr.tolist() == [2**60, 2**61, 2**60, 0]
    assert a.scale(-2**21).arr.tolist() == [-2**61, -2**61, 0, 0]


def _roll_product(a, b):
    """The CycVec product as one np.roll per nonzero term of the sparser
    factor: the oracle for the outer-product kernel."""
    if np.count_nonzero(a.arr) < np.count_nonzero(b.arr):
        a, b = b, a
    out = np.zeros(a.M, dtype=np.int64)
    for e in np.nonzero(b.arr)[0]:
        out += np.roll(a.arr, int(e)) * int(b.arr[e])
    return out.tolist()


def _random_vec(rng, M, nonzeros, size):
    # exponents drawn past M wrap in from_pairs as they do in the product
    pairs = [(rng.randrange(3 * M), rng.randrange(-size, size + 1)) for _ in range(nonzeros)]
    return CycVec.from_pairs(M, pairs)


def test_cycvec_product_matches_roll_oracle():
    rng = random.Random(29)
    for M in (1, 2, 7, 126, 87780):
        for _ in range(6):
            x = _random_vec(rng, M, rng.randrange(0, 40), 2**20)
            y = _random_vec(rng, M, rng.randrange(0, 40), 2**20)
            full = CycVec(M, [rng.randrange(-2**20, 2**20 + 1) for _ in range(M)])
            # at M = 87780 a full vector times a sparse one spans several
            # outer-product blocks; full times full is left to small M
            for a, b in [(x, y), (full, x)] + ([(full, full)] if M <= 126 else []):
                expected = _roll_product(a, b)
                assert (a * b).arr.tolist() == expected, M
                assert (b * a).arr.tolist() == expected, M


def test_cycvec_product_just_below_the_bound():
    # max|a| * ||b||_1 = 2^62 - 2^40, and every output coefficient of the
    # constant a times b's wrapping terms reaches it
    for M in (1, 2, 7, 126, 87780):
        a = CycVec(M, np.full(M, 2**40, dtype=np.int64))
        cs = [2**21, 2**20, 2**20 - 1] if M >= 3 else [2**22 - 1]
        b = CycVec.from_pairs(M, [(M - 1 + k, c) for k, c in enumerate(cs)])
        exact = 2**62 - 2**40
        expected = [exact] * M
        assert (a * b).arr.tolist() == expected == _roll_product(a, b)
        assert (b * a).arr.tolist() == expected
        assert (a * b.scale(-1)).arr.tolist() == [-exact] * M
        with pytest.raises(TooLarge):
            a * CycVec.from_pairs(M, [(0, 2**22)])


def test_cycvec_zero_test():
    # x^2 + x + 1 at M = 3 is zero in Z[zeta_3]
    v = CycVec.from_pairs(3, [(0, 1), (1, 1), (2, 1)])
    assert v.is_zero()
    assert not CycVec.from_pairs(3, [(0, 1), (1, 1)]).is_zero()
    # products agree with dense cyclotomic multiplication
    a = CycVec.from_pairs(12, [(1, 2), (5, -1)])
    b = CycVec.from_pairs(12, [(0, 3), (7, 4)])
    dense = (
        2 * Cyclotomic.root_of_unity(12, 1) - Cyclotomic.root_of_unity(12, 5)
    ) * (3 + 4 * Cyclotomic.root_of_unity(12, 7))
    assert (a * b).to_cyclotomic() == dense


def test_cycvec_zero_test_ignores_added_root_sums():
    rng = random.Random(11)
    for m in (3, 12, 15, 30):
        assert not CycVec.from_pairs(m, [(0, 1)]).is_zero()
        divisors = [d for d in range(2, m + 1) if m % d == 0]
        for _ in range(40):
            # the d-th roots of unity sum to zero
            d = rng.choice(divisors)
            sign = rng.choice([-1, 1])
            zero = [(k * (m // d), sign) for k in range(d)]
            pairs = [(rng.randrange(m), rng.randrange(-2, 3)) for _ in range(4)]
            v = CycVec.from_pairs(m, pairs)
            assert CycVec.from_pairs(m, zero).is_zero()
            assert CycVec.from_pairs(m, pairs + zero).is_zero() == v.is_zero()
            assert v.is_zero() == _remainder_is_zero(v)


def test_galois_delta_s3_worked_values():
    # at level 0 every value of the S3-shaped model is 1
    d = galois_delta("s3", p=2, f=1, ell=3)
    one = root_value_one(2)
    assert all(v == one for v in d.values.values())
    g = d.ambient.parent
    assert g.name == "S3"
    assert check_conditions(d) == []
    ext = extend(d)
    assert ext is not None


def test_galois_delta_unramified_values():
    # Delta(E, chi) = z^{-lpsi} with z = chi(Frobenius of the fixed field)
    d = galois_delta("unramified", p=3, f=1, degree=4, lpsi=1)
    g = d.ambient.parent
    full = full_subgroup(g)
    from monomial.characters import characters_of

    for chi in characters_of(full):
        if chi.is_trivial():
            continue
        expected = root_value(
            3, Cyclotomic.root_of_unity(chi.modulus, -chi.exponent_of(1)), 0
        )
        assert d.value(full, chi) == expected


def test_galois_delta_models_extend():
    for model, kw in (
        ("kummer", dict(p=3, f=1, ell=2)),
        ("kummer", dict(p=7, f=1, ell=3, lpsi=1)),
        ("bikummer", dict(p=3, f=1, ell=2)),
        ("s3", dict(p=2, f=1, ell=3, lpsi=1)),
    ):
        d = galois_delta(model, **kw)
        assert check_conditions(d) == []
        assert uniqueness_check(extend(d))
        assert verify_tower(d) == []


def test_galois_delta_refusals():
    with pytest.raises(UnsupportedModel):
        galois_delta("kummer", p=2, f=1, ell=3)  # 3 does not divide 1
    with pytest.raises(UnsupportedModel):
        galois_delta("s3", p=3, f=1, ell=2)  # 2 | q - 1: abelian
    with pytest.raises(UnsupportedModel):
        galois_delta("nonsense")
    with pytest.raises(UnsupportedModel):
        galois_delta("unramified", p=2, f=1)  # degree missing


def test_root_value_inverse_by_conjugation():
    # v * v^-1 = 1 for every Delta value of the four tame_galois_* golden
    # models and for every product of two of them
    for model, kw in (
        ("kummer", dict(p=7, f=1, ell=3)),
        ("bikummer", dict(p=7, f=1, ell=3)),
        ("unramified", dict(p=2, f=1, degree=3)),
        ("s3", dict(p=2, f=1, ell=3)),
    ):
        values = list(galois_delta(model, **kw).values.values())
        one = root_value_one(kw["p"])
        products = [a * b for i, a in enumerate(values) for b in values[i:]]
        for v in values + products:
            assert v * v.inverse() == one, (model, v)


@pytest.mark.parametrize(
    "p, f, ell, lpsi",
    [(13, 1, 3, 0), (2, 2, 3, 0), (2, 2, 3, 1), (7, 1, 3, 1)]
    + [(p, f, 2, lpsi) for p, f in ((5, 1), (3, 2), (11, 1), (17, 1)) for lpsi in (0, 1)],
)
def test_bikummer_models_meet_the_conditions(p, f, ell, lpsi):
    # Art_E = Art_F o N on units: at q = 13 reading chi(tau) through E's own
    # generator broke condition I on six pairs
    d = galois_delta("bikummer", p=p, f=f, ell=ell, lpsi=lpsi)
    assert check_conditions(d) == []
