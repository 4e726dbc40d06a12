"""Structure certificates for groups with a maximal subgroup of trivial core.

A certificate pins down the configuration H < G with core K, the unique
minimal normal complement C of H/K in G/K, and the prime l with #C a
power of l; the census and cohomology checks make the structural claims
independently testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .cyclotomic import _is_prime
from .errors import HNormal, NotMaximal, TooLarge
from .groups import (
    Group,
    QuotientMap,
    Subgroup,
    all_subgroups,
    centralizer,
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
    if h not in set(maximal_subgroups(g)):
        raise NotMaximal("H is not maximal")
    k = core(g, h)
    qm = quotient(g, k)
    q = qm.quotient
    qh = qm.project_subgroup(h)
    minimal = minimal_normal_subgroups(q)
    assert len(minimal) == 1, "minimal normal subgroup is not unique"
    qc = minimal[0]
    _check_structure(q, qh, qc)
    ell = _prime_power_base(qc.order)
    c = qm.preimage(qc)
    assert product_set(h, c) == full_subgroup(g)
    assert intersection(h, c) == k
    assert (g.order // h.order) == qc.order
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


def _prime_power_base(n: int) -> int:
    p = next(d for d in range(2, n + 1) if n % d == 0)
    m = n
    while m > 1:
        assert m % p == 0, f"{n} is not a prime power"
        m //= p
    return p


def _check_structure(q: Group, qh: Subgroup, qc: Subgroup) -> None:
    """The conclusions: C elementary abelian, self-centralizing, a
    complement of H, acted on faithfully by H."""
    ell = _prime_power_base(qc.order)
    cg = qc.as_group
    assert cg.is_abelian()
    assert all(cg.element_order(x) in (1, ell) for x in range(cg.order))
    assert centralizer(q, qc) == qc, "C is not self-centralizing"
    assert product_set(qh, qc) == full_subgroup(q)
    assert intersection(qh, qc).order == 1
    # faithful action: only the identity of H centralizes C
    fixed = [
        x
        for x in qh.elements
        if all(q.conj(x, y) == y for y in qc.elements)
    ]
    assert fixed == [0], "H does not act faithfully on C"
    # C is the unique normal ell-subgroup containing no smaller normal one
    for n in minimal_normal_subgroups(q):
        assert n == qc


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


def h1_trivial(h: Subgroup, c: Subgroup, cap: int = 200_000) -> bool:
    """Whether every conjugation 1-cocycle H -> C is a coboundary,
    decided by direct enumeration."""
    assert h.parent is c.parent
    assert c.as_group.is_abelian()
    g = h.parent
    t, conj, inv = g.table, g.conj_table, g.inverses
    others = [x for x in h.elements if x != 0]
    if len(c.elements) ** len(others) > cap:
        raise TooLarge("cocycle enumeration exceeds the cap")
    # f = (0,) + values lists f(x) for x in h.elements, the identity 0
    # first.  The cocycle law f(xy) = f(x) . x f(y) x^-1 holds whenever x
    # or y is the identity, so only the other pairs are checked.
    pos = h.position
    pairs = [
        (i, conj[x], j, pos[t[x][y]])
        for i, x in enumerate(h.elements)
        for j, y in enumerate(h.elements)
        if x and y
    ]
    n_cocycles = 0
    for values in product(c.elements, repeat=len(others)):
        f = (0,) + values
        if all(f[k] == t[f[i]][cx[f[j]]] for i, cx, j, k in pairs):
            n_cocycles += 1
    coboundaries = {
        tuple(t[a][inv[conj[x][a]]] for x in h.elements) for a in c.elements
    }
    assert n_cocycles % len(coboundaries) == 0
    return n_cocycles == len(coboundaries)
