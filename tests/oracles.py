"""Reference implementations the tests check the package against.

The package computes each thing one way.  The functions here are second,
independent ways to compute the same things, kept small and direct so that
an agreement test can catch a fault in either:

* class functions: induction by the coset formula and inner products by
  summing Cyclotomic values over classes, against the integer character
  table;
* lattices: equality by mutual membership, against the kernel-lattice
  verdict's saturation argument;
* xi blocks: an element of R+ split by the conjugation orbit of the
  restriction to N, from one Character per conjugate;
* the relation configurations and basic relations of each (G, N), built
  afresh for that N, against the blocks the package shares across N;
* the irreducibles of H/[N,N] from the quotient's own character table,
  against the rows of H's table that are trivial on [N,N];
* minimal abelian normal subgroups, sqrt(p^f) and the test x == 1.

Nothing in `src/monomial` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from monomial import relations
from monomial.brauer import RPlusElement, pair_class, rplus
from monomial.characters import (
    Character,
    ClassFunction,
    _require_same_domain,
    characters_of,
    characters_trivial_on,
    conjugate_character,
    extensions_of,
    irreducible_characters,
    subgroup_classes,
)
from monomial.cyclotomic import Cyclotomic, _is_prime, sqrt_prime
from monomial.errors import CertificateFailed, NotASubgroup
from monomial.groups import (
    Group,
    Subgroup,
    commutator_subgroup,
    full_subgroup,
    is_normal_in,
    minimal_normal_subgroups,
    quotient,
    subgroup,
    subgroup_class_reps,
)
from monomial.intlin import Lattice
from monomial.relations import (
    Configuration,
    _glued_reps,
    _subgroups_of,
)


# ---------------------------------------------------------------------------
# class functions by Cyclotomic arithmetic


def zero_class_function(domain: Subgroup) -> ClassFunction:
    return ClassFunction(
        domain, tuple(Cyclotomic.zero() for _ in subgroup_classes(domain))
    )


def character_class_function(chi: Character) -> ClassFunction:
    dom = chi.domain
    return ClassFunction(
        dom,
        tuple(
            chi.value(cls[0]) for cls in subgroup_classes(dom)
        ),
    )


def restrict_class_function(f: ClassFunction, k: Subgroup) -> ClassFunction:
    if not f.domain.contains_subgroup(k):
        raise NotASubgroup(f"{k} not contained in {f.domain}")
    return ClassFunction(
        k, tuple(f.value_at(cls[0]) for cls in subgroup_classes(k))
    )


def inner_product(a: ClassFunction, b: ClassFunction) -> Cyclotomic:
    _require_same_domain(a.domain, b.domain, "inner product")
    total = Cyclotomic.zero()
    for cls, va, vb in zip(subgroup_classes(a.domain), a.values, b.values):
        total = total + len(cls) * va * vb.conjugate()
    return total * Fraction(1, a.domain.order)


@lru_cache(maxsize=None)
def induce(chi: Character, target: Subgroup) -> ClassFunction:
    """Ind_H^T(chi) by the standard coset formula, exactly."""
    return induce_class_function(character_class_function(chi), target)


def induce_class_function(f: ClassFunction, target: Subgroup) -> ClassFunction:
    h = f.domain
    if not target.contains_subgroup(h):
        raise NotASubgroup(f"{h} not contained in {target}")
    parent = h.parent
    values = []
    hset = h.element_set
    for cls in subgroup_classes(target):
        g0 = cls[0]
        total = Cyclotomic.zero()
        for x in target.elements:
            y = parent.mul(parent.mul(parent.inv(x), g0), x)
            if y in hset:
                total = total + f.value_at(y)
        values.append(total * Fraction(1, h.order))
    return ClassFunction(target, tuple(values))


def irreducibles_mod_derived_by_quotient(
    h: Subgroup, n: Subgroup
) -> list[ClassFunction]:
    """The irreducible characters of H/[N,N] as class functions on H, from
    the character table of the quotient group."""
    inner = h.as_group
    pos = {x: i for i, x in enumerate(h.elements)}
    n_inner = subgroup(inner, [pos[x] for x in n.elements])
    dn = commutator_subgroup(n_inner, n_inner)
    qm = quotient(inner, dn)
    out = []
    for f in irreducible_characters(qm.quotient):
        values = tuple(
            f.value_at(qm.project(pos[cls[0]]))
            for cls in subgroup_classes(h)
        )
        out.append(ClassFunction(h, values))
    return out


# ---------------------------------------------------------------------------
# lattices by mutual membership


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    if not a:
        return []
    cols_b = len(b[0]) if b else 0
    out = [[0] * cols_b for _ in range(len(a))]
    for i, row in enumerate(a):
        for k, aik in enumerate(row):
            if aik:
                brow = b[k]
                orow = out[i]
                for j in range(cols_b):
                    orow[j] += aik * brow[j]
    return out


def in_lattice(basis: list[list[int]], vector: list[int]) -> bool:
    """Is `vector` an integer combination of the rows of `basis`?"""
    return vector in Lattice(basis)


def lattice_rank(basis: list[list[int]]) -> int:
    return Lattice(basis).rank


def lattice_equal(
    basis_a: list[list[int]], basis_b: list[list[int]]
) -> tuple[bool, list[list[int]]]:
    """Decide span_Z(basis_a) == span_Z(basis_b) by mutual membership.

    Returns (equal, vectors of basis_a not contained in span(basis_b)).
    """
    span_b = Lattice(basis_b)
    missing = [row for row in basis_a if row not in span_b]
    if missing:
        return False, missing
    span_a = Lattice(basis_a)
    return all(row in span_a for row in basis_b), missing


# ---------------------------------------------------------------------------
# xi blocks


@dataclass(frozen=True)
class XiBlock:
    n: Subgroup
    orbit: tuple[Character, ...]  # the full conjugation orbit, sorted
    component: RPlusElement


def _orbit_of_restriction(g: Group, n: Subgroup, chi: Character):
    mu = chi.restrict(n)
    orbit = {conjugate_character(mu, x) for x in range(g.order)}
    return tuple(sorted(orbit, key=lambda m: m.exponents))


def xi_decompose(x: RPlusElement, n: Subgroup) -> list[XiBlock]:
    """Split x by the conjugation orbit of the restriction to N."""
    g = x.ambient.parent
    blocks: dict[tuple, list] = {}
    orbits: dict[tuple, tuple] = {}
    for cls, coeff in x.coefficients:
        orbit = _orbit_of_restriction(g, n, cls.char)
        key = tuple(m.exponents for m in orbit)
        blocks.setdefault(key, []).append((cls, coeff))
        orbits[key] = orbit
    return [
        XiBlock(
            n=n,
            orbit=orbits[key],
            component=rplus(x.ambient, n, items),
        )
        for key, items in sorted(blocks.items())
    ]


def stabilizer_of(mu: Character) -> Subgroup:
    g = mu.domain.parent
    return subgroup(
        g, [x for x in range(g.order) if conjugate_character(mu, x) == mu]
    )


def mu_component(x: RPlusElement, mu: Character) -> RPlusElement:
    """The component of x over the stabilizer of mu: each class [H,chi]
    with chi|_N in the orbit of mu is conjugated so the restriction is
    exactly mu; the result lives in R+(N <= Omega_mu)."""
    n = mu.domain
    g = x.ambient.parent
    omega_mu = stabilizer_of(mu)
    items = []
    for cls, coeff in x.coefficients:
        orbit = _orbit_of_restriction(g, n, cls.char)
        if mu not in orbit:
            continue
        for t in range(g.order):
            moved = conjugate_character(cls.char, t)
            if moved.restrict(n) == mu:
                items.append((pair_class(moved.domain, moved, omega_mu), coeff))
                break
    return rplus(omega_mu, n, items)


# ---------------------------------------------------------------------------
# relation configurations per N


def configurations(g: Group, n: Subgroup, kind: str) -> tuple:
    """Every configuration of family kind whose floor contains N, built
    afresh for this N: the floor test sits inside each family's loop."""
    family = {"I": _type_I, "II": _type_II, "III": _type_III}[kind]
    return tuple(
        cfg for b in subgroup_class_reps(g) for cfg in family(g, n, b)
    )


def _type_I(g: Group, n: Subgroup, b: Subgroup):
    """K normal of prime index in B with K >= N; one per chi in B^*."""
    for k in _subgroups_of(g, b):
        index = b.order // k.order
        if not (
            _is_prime(index)
            and k.contains_subgroup(n)
            and is_normal_in(b, k)
        ):
            continue
        rel_chars = characters_trivial_on(b, k)
        if len(rel_chars) != index:
            raise CertificateFailed(
                "(B/K)^* does not have (B:K) characters", witness=(b, k)
            )
        for chi in characters_of(b):
            yield Configuration(
                "I", b, (k, chi), (("K", k), ("chi", chi)),
                head=(k, chi.restrict(k)),
                terms=tuple((b, mu, chi.mul(mu)) for mu in rel_chars),
            )


def _type_II(g: Group, n: Subgroup, b: Subgroup):
    """Z >= N in B with B/Z elementary abelian of order l^2 (so Z >= [B,B]
    and Z is normal) and [B,B]/[Z,B] of order l; one per character eta of
    Z that kills [Z,B] but not [B,B]."""
    bb = commutator_subgroup(b, b)
    subs = _subgroups_of(g, b)
    for z in subs:
        index = b.order // z.order
        ell = round(index**0.5)
        if not (
            ell * ell == index
            and _is_prime(ell)
            and z.contains_subgroup(n)
            and z.contains_subgroup(bb)
            and all(g.power(x, ell) in z.element_set for x in b.elements)
        ):
            continue
        zb = commutator_subgroup(z, b)
        if bb.order != zb.order * ell:
            continue
        mids = [
            h
            for h in subs
            if h.order == z.order * ell and h.contains_subgroup(z)
        ]
        if len(mids) != ell + 1:
            raise CertificateFailed(
                "B/Z does not have l + 1 subgroups of order l", witness=(b, z)
            )
        for eta in characters_of(z):
            if all(eta.exponent_of(x) == 0 for x in zb.elements) and any(
                eta.exponent_of(x) != 0 for x in bb.elements
            ):
                options = [(h, e) for h in mids for e in extensions_of(eta, h)]
                yield Configuration(
                    "II", b, (z, eta), (("Z", z), ("eta", eta)),
                    options=tuple(options),
                )


def _type_III(g: Group, n: Subgroup, b: Subgroup):
    """H maximal non-normal in B with core K >= N and its normal complement
    C; one per chi in B^*, with mu over H-orbit representatives of (C/K)^*.
    The (H, K, C) triples are enumerated afresh, past the block cache."""
    for h, k, c in relations.type_iii_configurations(b):
        if not k.contains_subgroup(n):
            continue
        glued = _glued_reps(h, c, "min")
        for chi in characters_of(b):
            yield Configuration(
                "III", b, (h, k, c, chi), (("H", h), ("C", c), ("chi", chi)),
                head=(h, chi.restrict(h)),
                terms=tuple(
                    (u, nu, chi.restrict(u).mul(nu)) for u, nu in glued
                ),
            )


def basic_relations(g: Group, n: Subgroup) -> list[tuple]:
    """(kind, B, witness, element) of every basic relation of (G, N), from
    the configurations above, in the package's order and with its rule for
    dropping duplicates."""
    full = full_subgroup(g)
    out = []
    for kind in ("I", "II", "III"):
        seen: set = set()
        for cfg in configurations(g, n, kind):
            for witness, terms in cfg.relations():
                elt = rplus(
                    full,
                    n,
                    [(pair_class(u, chi, full), sign) for u, chi, sign in terms],
                )
                if elt.coefficients not in seen:
                    seen.add(elt.coefficients)
                    out.append((kind, cfg.b, witness, elt))
    return out


# ---------------------------------------------------------------------------
# groups and cyclotomic numbers


def minimal_abelian_normal_subgroups(g: Group) -> list[Subgroup]:
    """Minimal among nontrivial abelian normal subgroups.

    For solvable groups the minimal normal subgroups are elementary
    abelian, so this coincides with minimal_normal_subgroups.  (The
    lambda recursion strips relative layers above N instead, with
    `extend._minimal_abelian_layers`.)
    """
    return [n for n in minimal_normal_subgroups(g) if n.as_group.is_abelian()]


def sqrt_prime_power(p: int, f: int) -> Cyclotomic:
    """Exact sqrt(p**f)."""
    whole = Cyclotomic.from_rational(p ** (f // 2))
    if f % 2:
        return whole * sqrt_prime(p)
    return whole


def is_one(x: Cyclotomic) -> bool:
    return x.coeffs == (Fraction(1),)
