"""Structure certificates for groups with a maximal subgroup of trivial core.

A certificate pins down the configuration H < G with core K, the unique
minimal normal complement C of H/K in G/K, and the prime l with #C a
power of l; the census and cohomology checks make the structural claims
independently testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .cyclotomic import _is_prime, factorize
from .errors import (
    CertificateFailed,
    CNotAbelianNormal,
    DomainMismatch,
    HNormal,
    MonomialError,
    NotMaximal,
    TooLarge,
)
from .groups import (
    Group,
    QuotientMap,
    Subgroup,
    all_subgroups,
    centralizer,
    closure,
    conjugate_subgroup,
    core,
    full_subgroup,
    intersection,
    is_normal,
    maximal_subgroups,
    minimal_normal_subgroups,
    product_set,
    quotient,
    trivial_subgroup,
)


@dataclass(frozen=True)
class TypeIIICertificate:
    g: Group
    h: Subgroup
    k: Subgroup  # core of h in g
    c: Subgroup  # preimage in g of the complement; HC = G, H & C = K
    ell: int
    degenerate: bool
    quotient_map: QuotientMap  # g -> g / k
    qh: Subgroup  # image of h
    qc: Subgroup  # the complement inside g / k


def is_type_III(g: Group, h: Subgroup) -> TypeIIICertificate:
    """Certify the configuration, or raise NotMaximal / HNormal."""
    if h.order == g.order:
        raise NotMaximal("H must be a proper subgroup")
    if h.order > 1 and is_normal(g, h):
        raise HNormal("a nontrivial normal H admits no such configuration")
    if h.order == 1:
        # degenerate case: G itself must be cyclic of prime order
        if not (_is_prime(g.order) and g.is_abelian()):
            raise NotMaximal("trivial H is maximal only in prime order")
        full = full_subgroup(g)
        qm = quotient(g, trivial_subgroup(g))
        return TypeIIICertificate(
            g=g,
            h=h,
            k=h,
            c=full,
            ell=g.order,
            degenerate=True,
            quotient_map=qm,
            qh=trivial_subgroup(qm.quotient),
            qc=full_subgroup(qm.quotient),
        )
    if h not in maximal_subgroups(g):
        raise NotMaximal("H is not maximal")
    k = core(g, h)
    qm = quotient(g, k)
    q = qm.quotient
    qh = qm.project_subgroup(h)
    qc, ell = _check_structure(q, qh)
    c = qm.preimage(qc)
    if product_set(h, c) != full_subgroup(g):
        raise CertificateFailed("HC is not the whole group", witness=(h, c))
    if intersection(h, c) != k:
        raise CertificateFailed("H and C do not meet in K", witness=(h, c))
    if g.order // h.order != qc.order:
        raise CertificateFailed("the index of H is not #C", witness=(h, c))
    return TypeIIICertificate(
        g=g,
        h=h,
        k=k,
        c=c,
        ell=ell,
        degenerate=False,
        quotient_map=qm,
        qh=qh,
        qc=qc,
    )


@dataclass(frozen=True)
class TypeIIIVerdict:
    """One maximal subgroup H of G certified: the refusal or failure
    `is_type_III` raised, or the certificate and, when it is not
    degenerate, its complement census and H^1 check."""

    error: MonomialError | None = None
    cert: TypeIIICertificate | None = None
    census_ok: bool | None = None
    complements: int | None = None
    h1: bool | None = None


@lru_cache(maxsize=None)
def type3_verdict(g: Group, h: Subgroup) -> TypeIIIVerdict:
    """is_type_III, then complements_census and h1_trivial on G/K; a pure
    function of (G, H), so each verdict is computed once."""
    try:
        cert = is_type_III(g, h)
    except (HNormal, NotMaximal, CertificateFailed) as exc:
        return TypeIIIVerdict(error=exc)
    if cert.degenerate:
        return TypeIIIVerdict(cert=cert)
    census = complements_census(cert)
    return TypeIIIVerdict(
        cert=cert,
        census_ok=census["all_C_conjugate"] and census["count_equals_order_C"],
        complements=len(census["complements"]),
        h1=h1_trivial(cert.qh, cert.qc),
    )


def _check_structure(q: Group, qh: Subgroup) -> tuple[Subgroup, int]:
    """The conclusions, each refused with its witness: a unique minimal
    normal subgroup C, elementary abelian of exponent l, self-centralizing,
    a complement of H, acted on faithfully by H.  Returns (C, l)."""
    minimal = minimal_normal_subgroups(q)
    if len(minimal) != 1:
        raise CertificateFailed(
            "minimal normal subgroup is not unique", witness=tuple(minimal)
        )
    qc = minimal[0]
    ell = factorize(qc.order)[0][0]
    cg = qc.as_group
    if not cg.is_abelian() or any(
        cg.element_order(x) not in (1, ell) for x in range(cg.order)
    ):
        raise CertificateFailed("C is not elementary abelian", witness=qc)
    if centralizer(q, qc) != qc:
        raise CertificateFailed(
            "C is not self-centralizing", witness=centralizer(q, qc)
        )
    if product_set(qh, qc) != full_subgroup(q):
        raise CertificateFailed("HC is not the whole group", witness=(qh, qc))
    if intersection(qh, qc).order != 1:
        raise CertificateFailed(
            "H and C meet nontrivially", witness=intersection(qh, qc)
        )
    # faithful action: only the identity of H centralizes C
    fixed = [
        x
        for x in qh.elements
        if all(q.conj(x, y) == y for y in qc.elements)
    ]
    if fixed != [0]:
        raise CertificateFailed(
            "H does not act faithfully on C", witness=tuple(fixed)
        )
    return qc, ell


def complements_census(cert: TypeIIICertificate) -> dict:
    """All complements H' of C in G/K with trivial core; the census
    claim: they are exactly the #C conjugates of H by elements of C."""
    if cert.degenerate:
        raise NotMaximal("census requires a non-degenerate certificate")
    q = cert.quotient_map.quotient
    qc = cert.qc
    full = full_subgroup(q)
    complements = [
        h
        for h in all_subgroups(q)
        if intersection(h, qc).order == 1
        and product_set(h, qc) == full
        and core(q, h).order == 1
    ]
    conjugates = {conjugate_subgroup(cert.qh, c) for c in qc.elements}
    return {
        "complements": complements,
        "all_C_conjugate": set(complements) == conjugates,
        "count_equals_order_C": len(complements) == qc.order,
    }


def _generators(h: Subgroup) -> list[int]:
    """A generating set of H: each element of H, in order, that the ones
    taken before it do not generate."""
    gens, span = [], {0}
    for x in h.elements:
        if x not in span:
            gens.append(x)
            span = closure(h.parent, gens).element_set
    return gens


def h1_trivial(h: Subgroup, c: Subgroup, cap: int = 200_000) -> bool:
    """Whether every conjugation 1-cocycle H -> C is a coboundary; the
    cocycles are counted from their values on generators of H."""
    n_cocycles, n_coboundaries = _cocycle_counts(h, c, cap)
    return n_cocycles == n_coboundaries


def _cocycle_counts(h: Subgroup, c: Subgroup, cap: int) -> tuple[int, int]:
    """The numbers of conjugation 1-cocycles and 1-coboundaries H -> C.

    A cocycle, f(xy) = f(x) . x f(y) x^-1, is fixed by its values on
    generators of H (Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 2005, section 7.6).  So only the generator values in C
    are enumerated; each assignment is extended along a breadth-first tree
    of H by f(xs) = f(x) . x f(s) x^-1 and counted when the cocycle law
    holds on every pair.  Inputs where the |C|^(|H| - 1) functions
    H -> C fixing the identity exceed the cap are refused.
    """
    if h.parent != c.parent:
        raise DomainMismatch("H and C are subgroups of different groups")
    if not c.as_group.is_abelian():
        raise CNotAbelianNormal(f"{c} is not abelian")
    g = h.parent
    t, conj, inv = g.table, g.conj_table, g.inverses
    others = [x for x in h.elements if x != 0]
    if len(c.elements) ** len(others) > cap:
        raise TooLarge("cocycle enumeration exceeds the cap")
    # f lists f(x) for x in h.elements, f(identity) = 0 first.  The tree
    # reaches each other element once, as y = x s from an x reached
    # before it; from the identity it reaches each generator s, with
    # f(s) its assigned value.
    pos = h.position
    gens = _generators(h)
    tree, queue, seen = [], [0], {0}
    for x in queue:
        for j, s in enumerate(gens):
            y = t[x][s]
            if y not in seen:
                seen.add(y)
                queue.append(y)
                tree.append((pos[y], pos[x], conj[x], j))
    # The cocycle law holds whenever x or y is the identity, so only the
    # other pairs are checked.
    pairs = [
        (i, conj[x], j, pos[t[x][y]])
        for i, x in enumerate(h.elements)
        for j, y in enumerate(h.elements)
        if x and y
    ]
    n_cocycles = 0
    f = [0] * h.order
    for values in product(c.elements, repeat=len(gens)):
        for k, i, cx, j in tree:
            f[k] = t[f[i]][cx[values[j]]]
        if all(f[k] == t[f[i]][cx[f[j]]] for i, cx, j, k in pairs):
            n_cocycles += 1
    coboundaries = {
        tuple(t[a][inv[conj[x][a]]] for x in h.elements) for a in c.elements
    }
    if n_cocycles % len(coboundaries):
        raise CertificateFailed(
            "the cocycles do not split into cosets of the coboundaries",
            witness=(h, c, n_cocycles, len(coboundaries)),
        )
    return n_cocycles, len(coboundaries)
