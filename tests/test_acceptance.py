"""End-to-end acceptance suite: one test per headline guarantee, every
comparison exact."""

import itertools
import random
import zlib

import pytest

from monomial.brauer import (
    brauer_map,
    dim0_presentation,
    pair_classes,
    presentation,
    projector_phi,
    rplus,
    generator,
    multiply,
    inflate,
)
from monomial.catalog import catalog_group, catalog_names
from monomial.characters import (
    characters_of,
    irreducible_characters,
    trivial_character,
)
from monomial.errors import ConditionsViolated, HNormal, NotMaximal
from monomial.extend import (
    FreeAbelianGroup,
    check_conditions,
    extend,
    generic_delta,
    uniqueness_check,
    verify_tower,
)
from monomial.groups import (
    commutator_subgroup,
    direct_product,
    full_subgroup,
    maximal_subgroups,
    normal_subgroups,
    quotient,
    subgroup,
    subgroups,
    trivial_subgroup,
)
from monomial.relations import verify_theorem_2_7
from monomial.tame import (
    check_DH_III_tame,
    conductor_inductivity,
    dh1_sweep,
    galois_delta,
    gauss_functional_check,
    gauss_modulus_check,
)
from monomial.type3 import complements_census, h1_trivial, is_type_III
from oracles import induce, is_one


SMALL = [nm for nm in catalog_names() if catalog_group(nm).order <= 27]


def _abelian_normal_subgroups(g):
    return [
        h
        for cls in subgroups(g)
        for h in cls
        if h.as_group.is_abelian()
        and all(
            g.conj(x, y) in h.element_set
            for x in range(g.order)
            for y in h.elements
        )
    ]


def _random_rplus(g, classes, rng):
    items = [(cls, rng.randrange(-2, 3)) for cls in classes if rng.random() < 0.4]
    return rplus(full_subgroup(g), trivial_subgroup(g), items)


def test_kernel_lattice_identity_all_small_groups():
    # the generated relations span exactly the kernel lattice, for every
    # group of order <= 27 and every normal subgroup
    for nm in SMALL:
        g = catalog_group(nm)
        for n in normal_subgroups(g):
            report = verify_theorem_2_7(g, n)
            assert report.equal, (
                f"lattice mismatch for {nm}, N=({' '.join(map(str, n.elements))}): "
                f"kernel rank {report.kernel_rank}, span rank {report.span_rank}"
            )


def test_kernel_lattice_identity_catalog_groups_above_27():
    # the same identity on the catalog groups SMALL leaves out
    large = [nm for nm in catalog_names() if nm not in SMALL]
    assert large == ["F7_6", "F13_3"]
    for nm in large:
        g = catalog_group(nm)
        for n in normal_subgroups(g):
            report = verify_theorem_2_7(g, n)
            assert report.equal, (
                f"lattice mismatch for {nm}, N=({' '.join(map(str, n.elements))}): "
                f"kernel rank {report.kernel_rank}, span rank {report.span_rank}"
            )
            assert report.kernel_rank == report.span_rank > 0 or n.order == g.order


def test_kernel_lattice_identity_direct_products():
    # the identity on direct products of catalog groups, orders 24 to 108,
    # at N trivial, and on every normal subgroup of the two smallest
    products = [
        ("Q8", "C3"), ("S3", "S3"), ("D4", "C4"), ("D4", "S3"),
        ("C2", "S4"), ("C3", "S4"), ("C2", "Heisenberg27"), ("C2", "F7_6"),
        ("C4", "S4"), ("C4", "Heisenberg27"),
    ]
    for a, b in products:
        g = direct_product(catalog_group(a), catalog_group(b))
        every_n = g.name in ("Q8xC3", "S3xS3")
        normals = normal_subgroups(g) if every_n else [trivial_subgroup(g)]
        for n in normals:
            report = verify_theorem_2_7(g, n)
            assert report.equal, (
                f"lattice mismatch for {g.name}, "
                f"N=({' '.join(map(str, n.elements))}): "
                f"kernel rank {report.kernel_rank}, span rank {report.span_rank}"
            )
            assert report.kernel_rank == report.span_rank


def test_presentation_round_trip_and_dim0_certificates():
    # every irreducible of every quotient by a derived subgroup [N,N]
    # admits an integral monomial presentation that maps back exactly
    for nm in catalog_names():
        g = catalog_group(nm)
        full = full_subgroup(g)
        for n in normal_subgroups(g):
            qm = quotient(g, commutator_subgroup(n, n))
            for rho_q in irreducible_characters(qm.quotient):
                rho = inflate(rho_q, qm)
                x = presentation(rho, n)
                assert brauer_map(x).values == rho.values, (nm, n.elements)
    # the worked dimension-zero certificate: std - 2*1 on S3
    s3 = catalog_group("S3")
    triv3 = trivial_subgroup(s3)
    full3 = full_subgroup(s3)
    irr = irreducible_characters(s3)
    std = next(r for r in irr if r.dimension() == 2)
    rho0 = std - 2 * irr[0]
    total = None
    for h, chi, k in dim0_presentation(rho0, triv3):
        term = k * (induce(chi, full3) - induce(trivial_character(h), full3))
        total = term if total is None else total + term
    assert total.values == rho0.values
    # 20 random dimension-zero virtual representations per group
    for nm in catalog_names():
        g = catalog_group(nm)
        full = full_subgroup(g)
        triv = trivial_subgroup(g)
        irr = irreducible_characters(g)
        rng = random.Random(zlib.crc32(nm.encode()))
        t_idx = next(
            i for i, r in enumerate(irr) if all(is_one(v) for v in r.values)
        )
        for _ in range(20):
            coeffs = [rng.randrange(-3, 4) for _ in irr]
            dim = sum(c * int(r.dimension()) for c, r in zip(coeffs, irr))
            coeffs[t_idx] -= dim  # balance against the trivial character
            rho = None
            for c, r in zip(coeffs, irr):
                if c:
                    rho = c * r if rho is None else rho + c * r
            if rho is None:
                continue
            total = None
            for h, chi, k in dim0_presentation(rho, triv):
                term = k * (induce(chi, full) - induce(trivial_character(h), full))
                total = term if total is None else total + term
            got = total.values if total is not None else rho.values
            assert got == rho.values, (nm, coeffs)


def test_projector_laws_on_random_elements():
    # idempotence, compatibility with the character map, the tower law,
    # and twist equivariance, on 200 random elements per (group, C)
    for nm in catalog_names():
        g = catalog_group(nm)
        full = full_subgroup(g)
        classes = pair_classes(full, trivial_subgroup(g))
        etas = characters_of(full)[:2]
        abelian_normals = _abelian_normal_subgroups(g)
        for c in abelian_normals:
            bigger = [c2 for c2 in abelian_normals if c2.contains_subgroup(c)]
            rng = random.Random(zlib.crc32(f"{nm}:{c.elements}".encode()))
            for i in range(200):
                x = _random_rplus(g, classes, rng)
                px = projector_phi(x, c)
                assert projector_phi(px, c) == px, (nm, c.elements)
                assert brauer_map(px).values == brauer_map(x).values, (
                    nm,
                    c.elements,
                )
                # the heavier laws on a deterministic subsample
                if i % 20 == 0:
                    for c2 in bigger:
                        assert projector_phi(px, c2) == projector_phi(x, c2)
                    for eta in etas:
                        t = generator(full, eta)
                        assert multiply(t, px) == projector_phi(multiply(t, x), c)


def test_extension_engine_on_arithmetic_models():
    # the worked nonabelian model plus the unramified cyclic ones: the
    # compatibility conditions hold, the extension exists and is unique
    # across solver pivotings, and every tower identity checks out
    models = [
        ("s3", dict(p=2, f=1, ell=3)),
        ("unramified", dict(p=2, f=1, degree=2)),
        ("unramified", dict(p=2, f=1, degree=3)),
    ]
    for model, kwargs in models:
        delta = galois_delta(model, **kwargs)
        assert check_conditions(delta) == [], (model, kwargs)
        assert uniqueness_check(extend(delta)), (model, kwargs)
        assert verify_tower(delta) == [], (model, kwargs)
    # a genuinely incompatible function is refused with a cited witness
    c4 = catalog_group("C4")
    with pytest.raises(ConditionsViolated) as err:
        extend(generic_delta(c4, trivial_subgroup(c4)))
    assert err.value.witness is not None


def test_extension_engine_negative_control_c2():
    # This control demands that the generic free-abelian function on C2
    # be refused.  It fails, and should: on a group of order 2 every
    # compatibility identity degenerates to a tautology, so the generic
    # function satisfies all conditions and extends (multiplicativity is
    # exercised positively in test_generic_c2_extends_formally).  The
    # refusal is provably unattainable; the red line is kept on purpose
    # rather than weakening the check.
    c2 = catalog_group("C2")
    triv = trivial_subgroup(c2)
    violations = check_conditions(generic_delta(c2, triv))
    assert violations, (
        "expected a refusal of the generic function on C2, but every "
        "compatibility condition holds vacuously (the smallest group with "
        "a genuine refusal is C4 -- see the positive control above)"
    )


def test_tame_arithmetic_identities():
    # Gauss-sum modulus and the functional equation for every residue
    # field of size at most 64
    prime_powers = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        f, q = 1, p
        while q <= 64:
            prime_powers.append((p, f))
            f, q = f + 1, q * p
    for p, f in prime_powers:
        assert gauss_modulus_check(p, f), f"modulus identity failed at q={p**f}"
        assert gauss_functional_check(p, f), f"functional equation failed at q={p**f}"
    # the degree-ell norm-transport identity, every supported instance
    # with q <= 16 and ell in {2, 3, 5}
    supported = 0
    for p, f in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                 (11, 1), (13, 1), (2, 4)]:
        for ell in (2, 3, 5):
            for ramified in (False, True):
                q = p**f
                if ramified and (q - 1) % ell:
                    continue  # no ramified abelian extension of that degree
                if not ramified and q**ell > 4096:
                    continue  # beyond the exhaustive-sweep cap
                report = dh1_sweep(p, f, ell, ramified)
                assert report["ok"], (q, ell, ramified)
                supported += 1
    assert supported >= 20
    # the non-Galois lifting identity on the in-cap instances
    for p, f, ell in [(2, 1, 3), (3, 1, 5), (2, 1, 7), (5, 1, 3)]:
        report = check_DH_III_tame(p, f, ell)
        assert report["ok"] and report["cases"] > 0, (p, f, ell)
    # conductor-discriminant bookkeeping on the full parameter grid
    for e, f, a_k, dim, lpsi in itertools.product(
        (1, 2, 3), (1, 2, 3), (0, 1, 2), (1, 2), (0, 1)
    ):
        d = e - 1
        report = conductor_inductivity(e, f, d, a_k, dim, lpsi)
        assert report["equal"], (e, f, a_k, dim, lpsi)


def test_maximal_subgroup_classification_census_and_h1():
    # every maximal subgroup of every catalog group is classified; each
    # non-degenerate certificate passes the complement census (exactly
    # #C complements, all C-conjugate) and cocycle triviality
    for nm in catalog_names():
        g = catalog_group(nm)
        for h in maximal_subgroups(g):
            try:
                cert = is_type_III(g, h)
            except (HNormal, NotMaximal):
                continue  # classified: no configuration exists
            if cert.degenerate:
                continue
            census = complements_census(cert)
            assert census["count_equals_order_C"], (nm, h.elements)
            assert census["all_C_conjugate"], (nm, h.elements)
            q = cert.quotient_map.quotient
            assert h1_trivial(
                subgroup(q, cert.qh.elements), subgroup(q, cert.qc.elements)
            ), (nm, h.elements)
