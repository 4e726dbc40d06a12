"""The three families of kernel relations and the kernel-equality check.

Each relation is an explicit element of Ker(phi) built inside a subgroup
B and pushed up by induction.  The headline verifier compares the integer
lattice they span with the full kernel computed by linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import intlin
from .brauer import (
    RPlusElement,
    _ambient_table,
    coordinates,
    generator,
    glued_character,
    induce_rplus,
    kernel_basis,
    pair_class,
    pair_classes,
    phi_coordinates,
    rplus,
)
from .characters import (
    Character,
    characters_of,
    characters_trivial_on,
    conjugate_character,
    extensions_of,
    trivial_character,
)
from .cyclotomic import _is_prime
from .errors import CertificateFailed, NotNormal
from .groups import (
    Group,
    Subgroup,
    all_subgroups,
    commutator_subgroup,
    full_subgroup,
    intersection,
    is_normal,
    product_set,
    subgroup,
    subgroup_class_reps,
)


@dataclass(frozen=True)
class BasicRelation:
    kind: str  # "I" | "II" | "III"
    ambient: Group = field(compare=False)
    b: Subgroup = field(compare=False)
    witness: tuple = field(compare=False)
    element: RPlusElement


def _is_normal_in(b: Subgroup, h: Subgroup) -> bool:
    conj, hset = b.parent.conj_table, h.element_set
    return all(
        hset.issuperset([conj[g][x] for x in h.elements]) for g in b.elements
    )


def _core_in(b: Subgroup, h: Subgroup) -> Subgroup:
    conj = b.parent.conj_table
    elems = set(h.element_set)
    for g in b.elements:
        elems.intersection_update([conj[g][x] for x in h.elements])
    return subgroup(b.parent, elems)


def _subgroups_of(g: Group, b: Subgroup):
    return [h for h in all_subgroups(g) if b.contains_subgroup(h)]


def _check_kernel(elt: RPlusElement) -> None:
    if any(phi_coordinates(elt)):
        raise CertificateFailed("relation not in the kernel", witness=elt)


def _emit(relations, seen, kind, g, b, witness, elt):
    if elt.coefficients in seen:
        return
    seen.add(elt.coefficients)
    _check_kernel(elt)
    relations.append(
        BasicRelation(kind=kind, ambient=g, b=b, witness=witness, element=elt)
    )


def gen_type_I(g: Group, n: Subgroup) -> list[BasicRelation]:
    """[K, chi_K] - sum over (B/K)^* of [B, chi mu], for K normal of prime
    index in B with K >= N, induced up from every B."""
    if not is_normal(g, n):
        raise NotNormal(f"{n} is not normal")
    full = full_subgroup(g)
    out: list[BasicRelation] = []
    seen: set = set()
    for b in subgroup_class_reps(g):
        for k in _subgroups_of(g, b):
            index = b.order // k.order
            if not (
                k.order * index == b.order
                and _is_prime(index)
                and k.contains_subgroup(n)
                and _is_normal_in(b, k)
            ):
                continue
            rel_chars = characters_trivial_on(b, k)
            assert len(rel_chars) == index
            for chi in characters_of(b):
                elt = generator(k, chi.restrict(k), b, n)
                for mu in rel_chars:
                    elt = elt - generator(b, chi.mul(mu), b, n)
                _emit(
                    out,
                    seen,
                    "I",
                    g,
                    b,
                    (k, chi),
                    induce_rplus(elt, full),
                )
    return out


def heisenberg_configurations(g: Group, n: Subgroup):
    """All (B, Z, l, etas, mids): Z normal in B containing N with B/Z
    elementary abelian of order l^2, commutator quotient [B,B]/[Z,B] of
    order l, the eligible characters eta of Z, and the l+1 intermediate
    subgroups."""
    out = []
    for b in subgroup_class_reps(g):
        bb = commutator_subgroup(b, b)
        for z in _subgroups_of(g, b):
            cfg = _heisenberg_config(g, b, bb, z, n)
            if cfg is None:
                continue
            ell, zb = cfg
            mids = [
                h
                for h in _subgroups_of(g, b)
                if h.order == z.order * ell and h.contains_subgroup(z)
            ]
            assert len(mids) == ell + 1
            etas = [
                eta
                for eta in characters_of(z)
                if all(eta.exponent_of(x) == 0 for x in zb.elements)
                and any(eta.exponent_of(x) != 0 for x in bb.elements)
            ]
            if etas:
                out.append((b, z, ell, etas, mids))
    return out


def gen_type_II(g: Group, n: Subgroup) -> list[BasicRelation]:
    """[H1, eta^H1] - [H2, eta^H2] for Heisenberg configurations Z < B with
    B/Z elementary of order l^2 and commutator quotient of order l."""
    if not is_normal(g, n):
        raise NotNormal(f"{n} is not normal")
    full = full_subgroup(g)
    out: list[BasicRelation] = []
    seen: set = set()
    for b, z, ell, etas, mids in heisenberg_configurations(g, n):
        for eta in etas:
            exts = {h: extensions_of(eta, h) for h in mids}
            for h1 in mids:
                for h2 in mids:
                    if h1 == h2:
                        continue
                    for e1 in exts[h1]:
                        _check_heisenberg_irreducible(b, e1)
                        for e2 in exts[h2]:
                            elt = generator(h1, e1, b, n) - generator(
                                h2, e2, b, n
                            )
                            _emit(
                                out,
                                seen,
                                "II",
                                g,
                                b,
                                (z, eta, h1, h2),
                                induce_rplus(elt, full),
                            )
    return out


def _heisenberg_config(g, b, bb, z, n):
    """If B/Z is elementary abelian of order l^2 with commutator quotient
    [B,B]/[Z,B] of order l, return (l, [Z,B]); else None."""
    if not (z.contains_subgroup(n) and _is_normal_in(b, z)):
        return None
    index = b.order // z.order
    root = _prime_square_root(index)
    if root is None:
        return None
    ell = root
    if not z.contains_subgroup(bb):
        return None
    # exponent l: every x^l lies in Z
    zset = z.element_set
    if any(g.power(x, ell) not in zset for x in b.elements):
        return None
    zb = commutator_subgroup(z, b)
    if bb.order != zb.order * ell:
        return None
    return ell, zb


def _prime_square_root(m: int):
    r = round(m**0.5)
    if r * r == m and _is_prime(r):
        return r
    return None


def _check_heisenberg_irreducible(b: Subgroup, ext: Character) -> None:
    """Ind_H^B(ext) is irreducible: its integer coordinates on B's
    character table have sum of squares 1."""
    table, label = _ambient_table(b)
    if sum(c * c for c in table.induced_coordinates(ext, label)) != 1:
        raise CertificateFailed(
            "Heisenberg induction is not irreducible", witness=(b, ext)
        )


def gen_type_III(g: Group, n: Subgroup) -> list[BasicRelation]:
    """[H, chi_H] - sum over H-orbit reps mu of (C/K)^* of
    [H_mu C, chi * mu'], for maximal non-normal H < B with core K >= N and
    the unique normal complement C (HC = B, H & C = K)."""
    if not is_normal(g, n):
        raise NotNormal(f"{n} is not normal")
    full = full_subgroup(g)
    out: list[BasicRelation] = []
    seen: set = set()
    for b in subgroup_class_reps(g):
        for h, k, c in type_iii_configurations(b):
            if not k.contains_subgroup(n):
                continue
            for chi in characters_of(b):
                elt = generator(h, chi.restrict(h), b, n)
                for mu, h_mu in _orbit_reps_mod_h(h, c, k):
                    prod = product_set(h_mu, c)
                    mu_ext = glued_character(
                        h_mu, trivial_character(h_mu), c, mu
                    )
                    term = chi.restrict(prod).mul(mu_ext)
                    elt = elt - generator(prod, term, b, n)
                _emit(
                    out,
                    seen,
                    "III",
                    g,
                    b,
                    (h, k, c, chi),
                    induce_rplus(elt, full),
                )
    return out


def type_iii_configurations(b: Subgroup):
    """(H, K, C) triples in B: H maximal non-normal, K its core in B, C
    the unique normal subgroup with HC = B and H & C = K."""
    g = b.parent
    inner = b.as_group
    from .groups import maximal_subgroups

    out = []
    for hm in maximal_subgroups(inner):
        h = subgroup(g, [b.elements[x] for x in hm.elements])
        if _is_normal_in(b, h):
            continue
        k = _core_in(b, h)
        candidates = [
            c
            for c in _subgroups_of(g, b)
            if _is_normal_in(b, c)
            and product_set(h, c) == b
            and intersection(h, c) == k
        ]
        assert len(candidates) == 1, "complement is not unique"
        out.append((h, k, candidates[0]))
    return out


def _orbit_reps_mod_h(h: Subgroup, c: Subgroup, k: Subgroup):
    """Orbit representatives of (C/K)^* under H-conjugation, with their
    stabilizers in H."""
    chars = characters_trivial_on(c, k)
    char_set = set(chars)
    seen = set()
    reps = []
    for mu in chars:
        if mu in seen:
            continue
        orbit = {conjugate_character(mu, x) for x in h.elements}
        assert orbit <= char_set
        seen.update(orbit)
        stab = subgroup(
            h.parent,
            [x for x in h.elements if conjugate_character(mu, x) == mu],
        )
        reps.append((mu, stab))
    return reps


def basic_relations(
    g: Group, n: Subgroup, kinds=("I", "II", "III")
) -> list[BasicRelation]:
    out = []
    if "I" in kinds:
        out.extend(gen_type_I(g, n))
    if "II" in kinds:
        out.extend(gen_type_II(g, n))
    if "III" in kinds:
        out.extend(gen_type_III(g, n))
    return out


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
    """Compare Ker(phi) with the lattice spanned by the basic relations,
    as subgroups of the free module on pair classes with H >= N."""
    kernel = kernel_basis(g, n)
    relations = basic_relations(g, n, kinds)
    kernel_vecs = [coordinates(x, n) for x in kernel]
    span_vecs = [coordinates(r.element, n) for r in relations]
    kernel_span, relation_span = intlin.Lattice(kernel_vecs), intlin.Lattice(span_vecs)
    # every relation maps to zero and the kernel basis is saturated, so the
    # relations lie in the kernel lattice; checked all the same
    for rel, vec in zip(relations, span_vecs):
        if vec not in kernel_span:
            raise CertificateFailed(
                "relation outside the kernel lattice", witness=rel.element
            )
    missing_vecs = [vec for vec in kernel_vecs if vec not in relation_span]
    full = full_subgroup(g)
    classes = pair_classes(full, n)
    missing = [
        rplus(full, n, list(zip(classes, vec))) for vec in missing_vecs
    ]
    return Theorem27Report(
        group=g,
        n=n,
        kinds=tuple(kinds),
        n_relations=len(relations),
        kernel_rank=len(kernel_vecs),
        span_rank=relation_span.rank,
        equal=not missing,
        missing=missing,
    )
