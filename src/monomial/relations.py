"""The three families of kernel relations and the kernel-equality check.

`configurations(g, n, kind)` is the single source of the instances of each
family: `basic_relations(g, n, kinds)`, the single entry for the relations
of any families, and the compatibility conditions in `extend` both loop
over its records.  A configuration depends on N only through its floor
subgroup (K, Z or the core K), which must contain N, so the floors of each
subgroup B are found once and each floor's block is built the first time
an N passes its floor test.  Each relation is an explicit element of
Ker(phi) built inside B and pushed up by induction; its element is built
once per configuration and kernel-checked once per group, so per N only
the floor filter and the dedupe run.  The headline verifier compares the
integer lattice they span with the full kernel by one saturation argument;
the enumeration per N, lattice equality by mutual membership and the
xi-block split of an R+ element are test oracles (`tests/oracles.py`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from . import intlin
from .brauer import (
    RPlusElement,
    _phi_column,
    _phi_matrix,
    canonical_coefficients,
    coordinates,
    glued_character,
    kernel_basis,
    pair_class,
    phi_is_zero,
    rplus_element,
)
from .characters import (
    Character,
    characters_of,
    characters_trivial_on,
    conjugation_sources,
    extensions_of,
    trivial_character,
)
from .cyclotomic import _is_prime
from .errors import CertificateFailed, NotNormal, ParseError
from .groups import (
    Group,
    Subgroup,
    all_subgroups,
    commutator_subgroup,
    core_in,
    full_subgroup,
    intersection,
    is_normal,
    is_normal_in,
    maximal_subgroups,
    product_set,
    subgroup,
    subgroup_class_reps,
)


@dataclass(frozen=True)
class BasicRelation:
    kind: str  # "I" | "II" | "III"
    b: Subgroup = field(compare=False)
    witness: tuple = field(compare=False)
    element: RPlusElement


def _subgroups_of(g: Group, b: Subgroup):
    return [h for h in all_subgroups(g) if b.contains_subgroup(h)]


def _check_kernel(elt: RPlusElement) -> None:
    if not phi_is_zero(elt):
        raise CertificateFailed("relation not in the kernel", witness=elt)


@lru_cache(maxsize=None)
def _glued_reps(u: Subgroup, m: Subgroup, rep_choice: str) -> tuple:
    """(U_mu M, mu') for mu over the U-conjugation orbits on (M/(U & M))^*:
    mu is the least or greatest exponent vector of its orbit (by
    rep_choice), U_mu its stabilizer in U, and mu' glues the trivial
    character of U_mu to mu.  Built once per key, for the type III
    configurations and the lambda recursion alike."""
    chars = {
        mu.exponents: mu
        for mu in characters_trivial_on(m, intersection(u, m))
    }
    source = conjugation_sources(m, u.elements)

    def moved(exps, x):
        return tuple([exps[i] for i in source[x]])

    seen = set()
    out = []
    for exps in chars:
        if exps in seen:
            continue
        orbit = {moved(exps, x) for x in u.elements}
        if not orbit <= chars.keys():
            raise CertificateFailed(
                f"the U-orbit of {exps} leaves (M/(U & M))^*",
                witness=sorted(orbit - chars.keys()),
            )
        seen.update(orbit)
        pick = (min if rep_choice == "min" else max)(orbit)
        stab = subgroup(
            u.parent, [x for x in u.elements if moved(pick, x) == pick]
        )
        glued = glued_character(stab, trivial_character(stab), m, chars[pick])
        out.append((product_set(stab, m), glued))
    return tuple(out)


# ---------------------------------------------------------------------------
# configurations: the single source of relations and conditions


@dataclass(frozen=True)
class Configuration:
    """One instance of a relation family inside B.

    Types I and III: the relation [U0, chi|U0] - sum_i [U_i, chi|U_i nu_i],
    with head = (U0, chi|U0) and terms = ((U_i, nu_i, chi|U_i nu_i), ...).
    Type I has U0 = K, U_i = B and nu_i in (B/K)^*; type III has U0 = H,
    U_i = H_mu C and nu_i = mu'.  Type II: options = the pairs (H, ext)
    with ext extending eta from Z to one of the l + 1 intermediate H; its
    relations are [H1, e1] - [H2, e2] for options on different H.

    witness is the relation witness (type II appends (H1, H2)); labels are
    the (key, value) pairs that name the configuration in a violation.
    """

    kind: str  # "I" | "II" | "III"
    b: Subgroup
    witness: tuple
    labels: tuple
    head: tuple = ()
    terms: tuple = ()
    options: tuple = ()

    def relations(self):
        """(witness, signed terms (U, chi, +1 or -1) in B) per relation."""
        if self.kind != "II":
            yield self.witness, ((*self.head, 1),) + tuple(
                (u, twisted, -1) for u, _, twisted in self.terms
            )
            return
        for h1, e1 in self.options:
            for h2, e2 in self.options:
                if h1 != h2:
                    yield self.witness + (h1, h2), ((h1, e1, 1), (h2, e2, -1))

    @cached_property
    def relation_coefficients(self) -> tuple:
        """(witness, canonical coefficients in R+(G)) per relation, built
        once and shared by every N; each Heisenberg induction of type II is
        checked irreducible first."""
        full = full_subgroup(self.b.parent)
        for _, ext in self.options:
            _check_heisenberg_irreducible(self.b, ext)
        return tuple(
            (
                witness,
                canonical_coefficients(
                    [(pair_class(u, chi, full), s) for u, chi, s in terms]
                ),
            )
            for witness, terms in self.relations()
        )


@lru_cache(maxsize=None)
def configurations(g: Group, n: Subgroup, kind: str) -> tuple[Configuration, ...]:
    """Every configuration of family kind ("I", "II" or "III") whose floor
    (K, Z or the core K) contains N, with B over the subgroup class
    representatives; any other kind is refused with ParseError.  The
    floors of each B are found once by tests that do not read N, and a
    floor's block is built the first time an N passes its floor test, so
    per N only the floor test runs."""
    family = {
        "I": (_type_I_floors, _type_I_at),
        "II": (_type_II_floors, _type_II_at),
        "III": (_type_III_floors, _type_III_at),
    }.get(kind)
    if family is None:
        raise ParseError(f"relation kind {kind!r} is not I, II or III")
    floors, block = family
    return tuple(
        cfg
        for b in subgroup_class_reps(g)
        for floor, args in floors(b)
        if floor.contains_subgroup(n)
        for cfg in block(b, *args)
    )


@lru_cache(maxsize=None)
def _type_I_floors(b: Subgroup) -> tuple:
    """(K, (K,)) for every K normal of prime index in B."""
    return tuple(
        (k, (k,))
        for k in _subgroups_of(b.parent, b)
        if _is_prime(b.order // k.order) and is_normal_in(b, k)
    )


@lru_cache(maxsize=None)
def _type_I_at(b: Subgroup, k: Subgroup) -> tuple[Configuration, ...]:
    """K normal of prime index in B; one per chi in B^*, with the relation
    [K, chi_K] - sum over mu in (B/K)^* of [B, chi mu]."""
    index = b.order // k.order
    rel_chars = characters_trivial_on(b, k)
    if len(rel_chars) != index:
        raise CertificateFailed(
            "(B/K)^* does not have (B:K) characters", witness=(b, k)
        )
    return tuple(
        Configuration(
            "I", b, (k, chi), (("K", k), ("chi", chi)),
            head=(k, chi.restrict(k)),
            terms=tuple((b, mu, chi.mul(mu)) for mu in rel_chars),
        )
        for chi in characters_of(b)
    )


@lru_cache(maxsize=None)
def _type_II_floors(b: Subgroup) -> tuple:
    """(Z, (Z,)) for every Z >= [B,B] in B with B/Z of exponent l and
    order l^2, l prime."""
    g = b.parent
    bb = commutator_subgroup(b, b)
    out = []
    for z in _subgroups_of(g, b):
        index = b.order // z.order
        ell = round(index**0.5)
        if (
            ell * ell == index
            and _is_prime(ell)
            and z.contains_subgroup(bb)
            and all(g.power(x, ell) in z.element_set for x in b.elements)
        ):
            out.append((z, (z,)))
    return tuple(out)


@lru_cache(maxsize=None)
def _type_II_at(b: Subgroup, z: Subgroup) -> tuple[Configuration, ...]:
    """Z in B with B/Z elementary abelian of order l^2 (so Z >= [B,B] and
    Z is normal) and [B,B]/[Z,B] of order l; one per character eta of Z
    that kills [Z,B] but not [B,B], with the relations [H1, eta^H1] -
    [H2, eta^H2] for the extensions of eta to two of the l + 1 subgroups
    between Z and B.  Empty when [B,B]/[Z,B] has another order."""
    ell = round((b.order // z.order) ** 0.5)
    bb = commutator_subgroup(b, b)
    zb = commutator_subgroup(z, b)
    if bb.order != zb.order * ell:
        return ()
    mids = [
        h
        for h in _subgroups_of(b.parent, b)
        if h.order == z.order * ell and h.contains_subgroup(z)
    ]
    if len(mids) != ell + 1:
        raise CertificateFailed(
            "B/Z does not have l + 1 subgroups of order l", witness=(b, z)
        )
    return tuple(
        Configuration(
            "II", b, (z, eta), (("Z", z), ("eta", eta)),
            options=tuple(
                (h, e) for h in mids for e in extensions_of(eta, h)
            ),
        )
        for eta in characters_of(z)
        if all(eta.exponent_of(x) == 0 for x in zb.elements)
        and any(eta.exponent_of(x) != 0 for x in bb.elements)
    )


@lru_cache(maxsize=None)
def _type_III_floors(b: Subgroup) -> tuple:
    """(K, (H, K, C)) for every triple (H, K, C) of B."""
    return tuple((k, (h, k, c)) for h, k, c in type_iii_configurations(b))


@lru_cache(maxsize=None)
def _type_III_at(
    b: Subgroup, h: Subgroup, k: Subgroup, c: Subgroup
) -> tuple[Configuration, ...]:
    """H maximal non-normal in B with core K and its normal complement C
    (HC = B, H & C = K); one per chi in B^*, with the relation [H, chi_H] -
    sum over H-orbit representatives mu of (C/K)^* of [H_mu C, chi mu']."""
    glued = _glued_reps(h, c, "min")
    return tuple(
        Configuration(
            "III", b, (h, k, c, chi), (("H", h), ("C", c), ("chi", chi)),
            head=(h, chi.restrict(h)),
            terms=tuple((u, nu, chi.restrict(u).mul(nu)) for u, nu in glued),
        )
        for chi in characters_of(b)
    )


def type_iii_configurations(b: Subgroup) -> tuple:
    """(H, K, C) triples in B: H maximal non-normal, K its core in B, C
    the unique normal subgroup with HC = B and H & C = K."""
    g = b.parent
    out = []
    for hm in maximal_subgroups(b.as_group):
        h = subgroup(g, [b.elements[x] for x in hm.elements])
        if is_normal_in(b, h):
            continue
        k = core_in(b, h)
        candidates = [
            c
            for c in _subgroups_of(g, b)
            if is_normal_in(b, c)
            and product_set(h, c) == b
            and intersection(h, c) == k
        ]
        if len(candidates) != 1:
            raise CertificateFailed(
                "complement is not unique", witness=(b, h, tuple(candidates))
            )
        out.append((h, k, candidates[0]))
    return tuple(out)


def _check_heisenberg_irreducible(b: Subgroup, ext: Character) -> None:
    """Ind_H^B(ext) is irreducible: its integer coordinates on B's
    character table have sum of squares 1."""
    if sum(c * c for c in _phi_column(b, ext)) != 1:
        raise CertificateFailed(
            "Heisenberg induction is not irreducible", witness=(b, ext)
        )


# ---------------------------------------------------------------------------
# the relations


def _relations(g: Group, n: Subgroup, kind: str) -> list[BasicRelation]:
    """The relations of every configuration of family kind, induced up to
    G, each checked to lie in the kernel once per group; duplicates are
    dropped."""
    if not is_normal(g, n):
        raise NotNormal(f"{n} is not normal")
    full = full_subgroup(g)
    checked = _kernel_checked(g)
    out: list[BasicRelation] = []
    seen: set = set()
    for cfg in configurations(g, n, kind):
        for witness, coeffs in cfg.relation_coefficients:
            if coeffs in seen:
                continue
            seen.add(coeffs)
            elt = rplus_element(full, n, coeffs)
            if coeffs not in checked:
                _check_kernel(elt)
                checked.add(coeffs)
            out.append(BasicRelation(kind, cfg.b, witness, elt))
    return out


@lru_cache(maxsize=None)
def _kernel_checked(g: Group) -> set:
    """The coefficient tuples of G's relations that `_relations` has
    checked to lie in the kernel, whatever N and family it found them in."""
    return set()


def basic_relations(
    g: Group, n: Subgroup, kinds=("I", "II", "III")
) -> list[BasicRelation]:
    """The relations of the families in `kinds`, in the order I, II, III;
    no kind, or one other than I, II or III, is refused with ParseError."""
    if not kinds:
        raise ParseError("no relation kind given")
    for kind in kinds:
        if kind not in ("I", "II", "III"):
            raise ParseError(f"relation kind {kind!r} is not I, II or III")
    return [
        rel for kind in ("I", "II", "III") if kind in kinds
        for rel in _relations(g, n, kind)
    ]


# ---------------------------------------------------------------------------
# the headline verification


@dataclass
class Theorem27Report:
    group: Group
    n: Subgroup
    kinds: tuple[str, ...]
    n_relations: int
    kernel_rank: int
    span_rank: int
    equal: bool
    missing: list[RPlusElement]


def verify_theorem_2_7(
    g: Group, n: Subgroup, kinds=("I", "II", "III")
) -> Theorem27Report:
    """Compare Ker(phi) with the lattice R spanned by the basic relations,
    as subgroups of the free module Z^m on pair classes with H >= N.

    The verdict takes two Smith normal forms: one of phi, whose kernel
    basis gives the kernel's rank, and one of the relation matrix, which
    gives R's rank and elementary divisors.  First phi(r) = 0 is checked
    in integers for every relation r, so R lies in Ker(phi).  Then
    R = Ker(phi) exactly when R has the kernel's rank and every nonzero
    elementary divisor of R is 1: equal ranks make Ker(phi)/R torsion,
    unit divisors make Z^m/R torsion-free, so Ker(phi)/R, a subgroup of
    Z^m/R, is zero.  (Conversely Ker(phi) is saturated, being the kernel
    of an integer map, so equality forces unit divisors.)  Only when the
    lattices differ are the kernel basis vectors outside R solved for,
    with the relation matrix's normal form; they are reported as missing.
    """
    full = full_subgroup(g)
    _, phi = _phi_matrix(full, n)
    kernel = kernel_basis(g, n)
    relations = basic_relations(g, n, kinds)
    span_vecs = [coordinates(r.element, n) for r in relations]
    for rel, vec in zip(relations, span_vecs):
        support = [(j, c) for j, c in enumerate(vec) if c]
        if any(sum(row[j] * c for j, c in support) for row in phi):
            raise CertificateFailed(
                "relation outside the kernel lattice", witness=rel.element
            )
    relation_span = intlin.Lattice(span_vecs)
    equal = relation_span.rank == len(kernel) and relation_span.is_saturated
    missing = [] if equal else [
        x for x in kernel if coordinates(x, n) not in relation_span
    ]
    return Theorem27Report(
        group=g,
        n=n,
        kinds=tuple(kinds),
        n_relations=len(relations),
        kernel_rank=len(kernel),
        span_rank=relation_span.rank,
        equal=equal,
        missing=missing,
    )
