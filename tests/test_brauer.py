import random

import pytest

from monomial.brauer import (
    _ambient_table,
    _phi_column,
    brauer_map,
    coordinates,
    dim0_presentation,
    generator,
    glued_character,
    induce_rplus,
    inflate,
    kernel_basis,
    multiply,
    one_rplus,
    orbit_data,
    pair_class,
    pair_classes,
    presentation,
    projector_phi,
    restrict_rplus,
    rplus,
    zero_rplus,
)
from monomial.catalog import catalog_group, catalog_names
from monomial.characters import (
    characters_of,
    conjugate_character,
    irreducible_characters,
    trivial_character,
)
from monomial.errors import CNotAbelianNormal
from monomial.groups import (
    full_subgroup,
    intersection,
    normal_subgroups,
    quotient,
    subgroup,
    subgroup_class_reps,
    subgroups,
    trivial_subgroup,
)
from oracles import induce


def s3_parts():
    s3 = catalog_group("S3")
    return (
        s3,
        full_subgroup(s3),
        subgroup(s3, [0, 1, 2]),
        subgroup(s3, [0, 3]),
        trivial_subgroup(s3),
    )


def random_element(g, rng, lower=None):
    full = full_subgroup(g)
    if lower is None:
        lower = trivial_subgroup(g)
    classes = pair_classes(full, lower)
    items = [(cls, rng.randrange(-2, 3)) for cls in classes if rng.random() < 0.4]
    return rplus(full, lower, items)


def test_pair_class_merging():
    s3, full, a3, c2, _ = s3_parts()
    omega, omega2 = characters_of(a3)[1], characters_of(a3)[2]
    assert pair_class(a3, omega) == pair_class(a3, omega2)
    # the three transposition subgroups are conjugate
    c2b = subgroup(s3, [0, 4])
    assert pair_class(c2, characters_of(c2)[1]) == pair_class(
        c2b, characters_of(c2b)[1]
    )
    # full-group pairs are singletons and distinct per character
    chars = characters_of(full)
    assert pair_class(full, chars[0]) != pair_class(full, chars[1])


def test_brauer_map_oracles():
    s3, full, a3, c2, triv = s3_parts()
    assert brauer_map(one_rplus(full)).values[0].as_rational() == 1
    omega = characters_of(a3)[1]
    f = brauer_map(generator(a3, omega))
    assert [v.as_rational() for v in f.values] == [2, -1, 0]
    x = (
        generator(c2, trivial_character(c2))
        - one_rplus(full)
        - generator(a3, omega)
    )
    assert brauer_map(x).is_zero()


def test_multiply_identity_and_twist():
    s3, full, a3, c2, _ = s3_parts()
    rng = random.Random(7)
    for _ in range(5):
        x = random_element(s3, rng)
        assert multiply(one_rplus(full), x) == x
    # character twist: sgn restricts trivially to A3
    omega = characters_of(a3)[1]
    sgn = characters_of(full)[1]
    assert not sgn.is_trivial()
    assert multiply(generator(a3, omega), generator(full, sgn)) == generator(
        a3, omega
    )


def test_multiply_double_cosets():
    s3, full, a3, c2, triv = s3_parts()
    x = generator(c2, trivial_character(c2))
    prod = multiply(x, x)
    expected = x + generator(triv, trivial_character(triv))
    assert prod == expected


def test_multiply_is_ring_homomorphism():
    for name in ("S3", "D4", "A4"):
        g = catalog_group(name)
        rng = random.Random(11)
        for _ in range(4):
            x, y = random_element(g, rng), random_element(g, rng)
            lhs = brauer_map(multiply(x, y))
            rhs = brauer_map(x) * brauer_map(y)
            assert lhs.values == rhs.values


def test_orbit_data_examples():
    s3, full, a3, c2, triv = s3_parts()
    # H contains C: S is just the restriction
    data = orbit_data(full, characters_of(full)[0], a3, full)
    assert len(data.s) == 1 and len(data.t) == 1
    # H = {e}: all three characters of A3; the trivial H fixes each one,
    # so every character is its own orbit (the classes [C3,w],[C3,w^2]
    # merge later, at the pair-class level)
    data = orbit_data(triv, trivial_character(triv), a3, full)
    assert len(data.s) == 3
    assert len(data.t) == 3
    assert all(h.order == 1 for h in data.stabilizers)
    # H = C2: S = C^*, stabilizers C2 and {e}
    data = orbit_data(c2, trivial_character(c2), a3, full)
    assert len(data.s) == 3 and len(data.t) == 2
    assert sorted(h.order for h in data.stabilizers) == [1, 2]
    with pytest.raises(CNotAbelianNormal):
        orbit_data(triv, trivial_character(triv), c2, full)


def _orbit_data_by_conjugates(h, chi, c):
    """(s, t, stabilizers) with one conjugate Character per (mu, g): the
    reference `orbit_data` must agree with, order included."""
    meet = intersection(h, c)
    target = chi.restrict(meet)
    s = tuple(mu for mu in characters_of(c) if mu.restrict(meet) == target)
    reps, stabs, seen = [], [], set()
    for mu in s:
        if mu in seen:
            continue
        seen.update(conjugate_character(mu, g) for g in h.elements)
        reps.append(mu)
        stabs.append(
            subgroup(
                h.parent,
                [g for g in h.elements if conjugate_character(mu, g) == mu],
            )
        )
    return s, tuple(reps), tuple(stabs)


def test_orbit_data_matches_conjugate_characters():
    # every catalog group, H class representative, chi in H^* and abelian
    # normal C
    for name in catalog_names():
        g = catalog_group(name)
        full = full_subgroup(g)
        cs = [c for c in normal_subgroups(g) if c.as_group.is_abelian()]
        for h in subgroup_class_reps(g):
            for chi in characters_of(h):
                for c in cs:
                    data = orbit_data(h, chi, c, full)
                    assert (data.s, data.t, data.stabilizers) == (
                        _orbit_data_by_conjugates(h, chi, c)
                    ), (name, h, chi, c)


def test_projector_oracles():
    s3, full, a3, c2, triv = s3_parts()
    omega = characters_of(a3)[1]
    x = generator(triv, trivial_character(triv))
    out = projector_phi(x, a3)
    expected = generator(a3, characters_of(a3)[0]) + 2 * generator(a3, omega)
    assert out == expected
    y = generator(c2, trivial_character(c2))
    out = projector_phi(y, a3)
    expected = one_rplus(full) + generator(a3, omega)
    assert out == expected
    # identity when H contains C
    z = generator(a3, omega)
    assert projector_phi(z, a3) == z


def test_projector_laws_sampled():
    for name in ("S3", "D4", "A4"):
        g = catalog_group(name)
        full = full_subgroup(g)
        rng = random.Random(13)
        abelian_normals = [
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
        for c in abelian_normals:
            for _ in range(3):
                x = random_element(g, rng)
                px = projector_phi(x, c)
                assert projector_phi(px, c) == px
                assert brauer_map(px).values == brauer_map(x).values
            for c2 in abelian_normals:
                if c2.contains_subgroup(c) and c2 != c:
                    x = random_element(g, rng)
                    assert projector_phi(projector_phi(x, c), c2) == projector_phi(
                        x, c2
                    )
        # twist equivariance
        for eta in characters_of(full):
            for c in abelian_normals[:2]:
                x = random_element(g, rng)
                t = generator(full, eta)
                assert multiply(t, projector_phi(x, c)) == projector_phi(
                    multiply(t, x), c
                )


def _d4_in_s4():
    """S4, a D4 in it and a Klein four-group C normal in the D4 but not
    in S4."""
    s4 = catalog_group("S4")
    return (
        s4,
        subgroup(s4, [0, 1, 6, 7, 16, 17, 22, 23]),
        subgroup(s4, [0, 1, 6, 7]),
    )


def test_projector_on_a_subgroup_ambient():
    # Phi_C on R+(D4) needs C normal in D4 only, not in S4; omegas[1]
    # and omegas[2] are conjugate in D4
    s4, d4, c = _d4_in_s4()
    triv = trivial_subgroup(s4)
    x = rplus(d4, triv, [(pair_class(triv, trivial_character(triv), d4), 1)])
    omegas = characters_of(c)
    assert projector_phi(x, c) == rplus(
        d4,
        triv,
        [(pair_class(c, omegas[0], d4), 1), (pair_class(c, omegas[1], d4), 2),
         (pair_class(c, omegas[3], d4), 1)],
    )
    classes = pair_classes(d4, triv)
    assert len(classes) == 20
    rng = random.Random(17)
    for _ in range(40):
        items = [(cls, rng.randrange(-2, 3)) for cls in classes if rng.random() < 0.4]
        y = rplus(d4, triv, items)
        py = projector_phi(y, c)
        assert projector_phi(py, c) == py
        assert brauer_map(py).values == brauer_map(y).values


# Run with and without `python -O`: a C that is not normal in the D4
# ambient is refused, by Phi_C and by orbit_data.
_NOT_NORMAL_IN_AMBIENT = """
import sys
from test_brauer import _d4_in_s4
from monomial.brauer import orbit_data, one_rplus, projector_phi
from monomial.characters import trivial_character
from monomial.errors import CNotAbelianNormal
from monomial.groups import subgroup, trivial_subgroup

s4, d4, _ = _d4_in_s4()
c = subgroup(s4, [0, 16])
triv = trivial_subgroup(s4)
print("optimize", sys.flags.optimize)
for label, call in (
    ("projector", lambda: projector_phi(one_rplus(d4), c)),
    ("orbit data", lambda: orbit_data(triv, trivial_character(triv), c, d4)),
):
    try:
        print(label, "returned", call())
    except CNotAbelianNormal as exc:
        print(label, "CNotAbelianNormal", exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_c_not_normal_in_the_ambient_is_refused(flags, run_python):
    out = run_python(flags, _NOT_NORMAL_IN_AMBIENT)
    refusal = "CNotAbelianNormal Subgroup(0, 16) is not normal in the ambient group"
    assert out[:3] == [
        f"optimize {len(flags)}",
        f"projector {refusal}",
        f"orbit data {refusal}",
    ]


def test_projection_formula_identity():
    s3, full, a3, c2, _ = s3_parts()
    rng = random.Random(5)
    for h, chi in ((a3, characters_of(a3)[1]), (c2, characters_of(c2)[1])):
        x = random_element(s3, rng)
        lhs = multiply(x, generator(h, chi))
        rhs = induce_rplus(
            multiply(restrict_rplus(x, h), generator(h, chi, h)), full
        )
        assert lhs == rhs


def test_functoriality_of_phi():
    s3, full, a3, c2, _ = s3_parts()
    # phi o Ind = Ind o phi on a chain {e} <= C2 <= S3
    chi = characters_of(c2)[1]
    x = generator(c2, chi, c2)
    from oracles import induce_class_function

    lhs = brauer_map(induce_rplus(x, full))
    rhs = induce_class_function(brauer_map(x), full)
    assert lhs.values == rhs.values
    # phi o Res = Res o phi
    from oracles import restrict_class_function

    y = generator(a3, characters_of(a3)[1])
    lhs = brauer_map(restrict_rplus(y, c2))
    rhs = restrict_class_function(brauer_map(y), c2)
    assert lhs.values == rhs.values


def test_presentation_examples():
    s3, full, a3, c2, triv = s3_parts()
    irr = irreducible_characters(s3)
    for rho in irr:
        x = presentation(rho, triv)
        assert brauer_map(x).values == rho.values
    # with N = A3 every support subgroup contains A3
    for rho in irr[:2]:
        x = presentation(rho, a3)
        assert all(cls.subgroup.contains_subgroup(a3) for cls in x.support())
        assert brauer_map(x).values == rho.values


def test_dim0_presentation():
    s3, full, a3, c2, triv = s3_parts()
    irr = irreducible_characters(s3)
    std = irr[2]
    ones = irr[0]
    rho = std - 2 * ones
    cert = dim0_presentation(rho, triv)
    total = None
    for h, chi, n in cert:
        assert h.contains_subgroup(triv)
        term = induce(chi, full) - induce(trivial_character(h), full)
        term = n * term
        total = term if total is None else total + term
    assert total.values == rho.values
    # single-term case: chi - 1 for chi in Omega^*
    sgn = irr[1]
    cert = dim0_presentation(sgn - ones, triv)
    assert len(cert) == 1
    h, chi, n = cert[0]
    assert not chi.is_trivial()
    got = n * (induce(chi, full) - induce(trivial_character(h), full))
    assert got.values == (sgn - ones).values
    assert dim0_presentation(rho - rho, triv) == []


def test_kernel_basis_ranks():
    c2 = catalog_group("C2")
    basis = kernel_basis(c2, trivial_subgroup(c2))
    assert len(basis) == 1
    assert all(brauer_map(x).is_zero() for x in basis)
    s3, full, a3, _, triv = s3_parts()
    basis = kernel_basis(s3, triv)
    assert len(basis) == 4
    assert all(brauer_map(x).is_zero() for x in basis)
    # phi is injective on R+(Omega<=Omega) for abelian Omega
    c6 = catalog_group("C6")
    assert kernel_basis(c6, full_subgroup(c6)) == []


def test_presentation_of_quotient_irreducibles():
    s3, full, a3, c2, triv = s3_parts()
    qm = quotient(s3, a3)  # derived subgroup of S3 is A3, [N,N]={e} for N=A3
    for rho_q in irreducible_characters(qm.quotient):
        rho = inflate(rho_q, qm)
        x = presentation(rho, a3)
        assert brauer_map(x).values == rho.values


def test_serialization_and_coordinates():
    s3, full, a3, c2, triv = s3_parts()
    x = generator(a3, characters_of(a3)[1]) - one_rplus(full)
    text = x.serialize()
    assert "1 * [0 1 2 | 0 1 2]" in text
    assert "-1 * [0 1 2 3 4 5 | 0 0 0 0 0 0]" in text
    vec = coordinates(x, triv)
    assert sum(abs(v) for v in vec) == 2
    assert coordinates(zero_rplus(full), triv) == [0] * len(
        pair_classes(full, triv)
    )


def test_glued_character():
    s3, full, a3, c2, triv = s3_parts()
    omega = characters_of(a3)[1]
    glued = glued_character(triv, trivial_character(triv), a3, omega)
    assert glued.domain == a3
    assert glued == omega


def test_phi_column_is_the_induced_coordinates():
    # the cached phi column of every pair class, over the whole group and
    # over each subgroup class representative as ambient
    for name in catalog_names():
        g = catalog_group(name)
        triv = trivial_subgroup(g)
        for ambient in subgroup_class_reps(g):
            table, label = _ambient_table(ambient)
            for cls in pair_classes(ambient, triv):
                assert _phi_column(ambient, cls.char) == tuple(
                    table.induced_coordinates(cls.char, label)
                ), (name, ambient, cls)


# Run with and without `python -O`: R+ elements of different ambients, a
# pair outside its ambient or below its lower bound, and induction or
# restriction outside the ambient are typed refusals, not asserts.
_DOMAIN_REFUSALS = """
import sys
from monomial.brauer import (
    generator, induce_rplus, multiply, one_rplus, pair_class, restrict_rplus, rplus,
)
from monomial.catalog import catalog_group
from monomial.characters import trivial_character
from monomial.errors import DomainMismatch
from monomial.groups import full_subgroup, subgroup

s3, c3 = catalog_group("S3"), catalog_group("C3")
full, a3, c2 = full_subgroup(s3), subgroup(s3, [0, 1, 2]), subgroup(s3, [0, 3])
x, y = one_rplus(full), one_rplus(full_subgroup(c3))
print("optimize", sys.flags.optimize)
for label, call in (
    ("multiply", lambda: multiply(x, y)),
    ("add", lambda: x + y),
    ("pair class", lambda: pair_class(full, trivial_character(full), a3)),
    ("lower bound", lambda: rplus(full, a3, generator(c2, trivial_character(c2)).coefficients)),
    ("induce", lambda: induce_rplus(one_rplus(a3), c2)),
    ("induce across groups", lambda: induce_rplus(y, full)),
    ("restrict", lambda: restrict_rplus(one_rplus(a3), c2)),
):
    try:
        print(label, "returned", call())
    except DomainMismatch:
        print(label, "DomainMismatch")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_domain_refusals_hold_under_optimisation(flags, run_python):
    out = run_python(flags, _DOMAIN_REFUSALS)
    assert out[:8] == [
        f"optimize {len(flags)}",
        "multiply DomainMismatch",
        "add DomainMismatch",
        "pair class DomainMismatch",
        "lower bound DomainMismatch",
        "induce DomainMismatch",
        "induce across groups DomainMismatch",
        "restrict DomainMismatch",
    ]


# Run with and without `python -O`: an S(chi) of the wrong size, an H-orbit
# that leaves S(chi), a glued character that is ill-defined and a U-orbit
# that leaves (M/(U & M))^* are refused with their witness.
_ORBIT_REFUSALS = """
from monomial import brauer, relations
from monomial.catalog import catalog_group
from monomial.characters import characters_of, trivial_character
from monomial.errors import CertificateFailed
from monomial.groups import full_subgroup, subgroup

s3, c4 = catalog_group("S3"), catalog_group("C4")
a3, c2 = subgroup(s3, [0, 1, 2]), subgroup(s3, [0, 3])
half, whole = subgroup(c4, [0, 2]), full_subgroup(c4)
sign, omega = characters_of(half)[1], characters_of(a3)[1]
chars_of, sources = brauer.characters_of, brauer.conjugation_sources
trivial_on = relations.characters_trivial_on


def attempt(label, call):
    try:
        print(label, "returned", call())
    except CertificateFailed as exc:
        print(f"{label}: {exc}: {exc.witness}")


brauer.characters_of = lambda c: chars_of(c)[:-1]
attempt("count", lambda: brauer.orbit_data(half, sign, whole, whole).s)
brauer.characters_of = chars_of
# every conjugate read at the identity: the trivial character, outside S(sign)
brauer.conjugation_sources = lambda c, elements: {g: [0] * c.order for g in elements}
attempt("orbit", lambda: brauer.orbit_data(half, sign, whole, whole).t)
brauer.conjugation_sources = sources
attempt("glue", lambda: brauer.glued_character(a3, omega, a3, trivial_character(a3)))
relations.characters_trivial_on = lambda b, k: trivial_on(b, k)[:-1]
attempt("glued reps", lambda: relations._glued_reps(c2, a3, "min"))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_orbit_refusals_hold_under_optimisation(flags, run_python):
    out = run_python(flags, _ORBIT_REFUSALS)
    assert out[:4] == [
        "count: S(chi) has 1 characters, not (C : H & C) = 2: "
        "(Char[(0, 1, 2, 3); (0, 1, 2, 3) mod 4],)",
        "orbit: the H-orbit of (0, 1, 2, 3) leaves S(chi): [(0, 0, 0, 0)]",
        "glue: glued character ill-defined at 1: exponents 0 and 1 mod 3: (1, 0, 1)",
        "glued reps: the U-orbit of (0, 1, 2) leaves (M/(U & M))^*: [(0, 2, 1)]",
    ]


# Run with and without `python -O`: an induced character whose class counts
# are not divisible by |H| is refused with the pair class (phi) or the
# character (its irreducible coordinates) as witness.
_INTEGRALITY_REFUSALS = """
import sys
from monomial.brauer import brauer_map, generator, pair_class
from monomial.catalog import catalog_group
from monomial.characters import CharacterTable, character_table, trivial_character
from monomial.errors import CertificateFailed
from monomial.groups import full_subgroup, subgroup

s3 = catalog_group("S3")
full, c2 = full_subgroup(s3), subgroup(s3, [0, 3])
chi = trivial_character(c2)
x = generator(c2, chi)
table = character_table(s3)
brauer_map(x)  # the table is built before its counts are patched
print("optimize", sys.flags.optimize)
# the identity counted once: |H| Ind(chi) is not divisible by |H| = 2
CharacterTable._induced_counts = lambda self, chi, label=None: {0: 1}
for label, call, witness in (
    ("brauer_map", lambda: brauer_map(x), pair_class(c2, chi, full)),
    ("induced_coordinates", lambda: table.induced_coordinates(chi), chi),
):
    try:
        print(label, "returned", call())
    except CertificateFailed as exc:
        print(f"{label}: {exc}: {exc.witness == witness}")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_integrality_refusals_hold_under_optimisation(flags, run_python):
    out = run_python(flags, _INTEGRALITY_REFUSALS)
    assert out[:3] == [
        f"optimize {len(flags)}",
        "brauer_map: induced character is not integral: True",
        "induced_coordinates: induced character has a non-integral "
        "coordinate: True",
    ]
