from fractions import Fraction

import pytest

from monomial.catalog import catalog_group
from monomial.characters import (
    Character,
    abelian_basis,
    characters_of,
    characters_trivial_on,
    conjugate_character,
    decompose,
    extensions_of,
    irreducible_characters,
    subgroup_classes,
    trivial_character,
)
from monomial.cyclotomic import Cyclotomic
from monomial.groups import full_subgroup, subgroup, subgroup_class_reps
from oracles import (
    character_class_function,
    induce,
    induce_class_function,
    inner_product,
    restrict_class_function,
)


def sub(g, elems):
    return subgroup(g, elems)


def test_abelian_basis_structure():
    c12 = catalog_group("C12")
    basis = abelian_basis(c12)
    assert [order for _, order in basis] == [12]
    # C2 x C2 inside D4: elements {e, r^2, s, r^2 s}
    d4 = catalog_group("D4")
    v = sub(d4, [0, 2, 4, 6]).as_group
    assert [order for _, order in abelian_basis(v)] == [2, 2]


def test_character_counts():
    cases = {"C4": 4, "S3": 2, "Q8": 4, "A4": 3, "D4": 4, "Heisenberg27": 9}
    for name, count in cases.items():
        g = catalog_group(name)
        assert len(characters_of(full_subgroup(g))) == count


def test_characters_are_homomorphisms():
    for name in ("C6", "S3", "D4", "Q8", "A4", "F5_4"):
        g = catalog_group(name)
        h = full_subgroup(g)
        for chi in characters_of(h):
            for x in range(g.order):
                for y in range(g.order):
                    lhs = chi.value(g.mul(x, y))
                    assert lhs == chi.value(x) * chi.value(y)


def test_character_group_structure():
    c6 = full_subgroup(catalog_group("C6"))
    chars = characters_of(c6)
    triv = trivial_character(c6)
    assert chars[0] == triv
    # closed under product and inverse; product is the dual group C6
    orders = sorted(chi.order() for chi in chars)
    assert orders == [1, 2, 3, 3, 6, 6]
    for a in chars:
        assert a.mul(a.inverse()) == triv
        for b in chars:
            assert a.mul(b) in chars


def test_restriction():
    s3 = catalog_group("S3")
    a3 = sub(s3, [0, 1, 2])
    chars = characters_of(full_subgroup(s3))
    sgn = next(ch for ch in chars if not ch.is_trivial())
    assert sgn.restrict(a3).is_trivial()
    c6 = catalog_group("C6")
    c3 = sub(c6, [0, 2, 4])
    faithful = next(
        ch for ch in characters_of(full_subgroup(c6)) if ch.order() == 6
    )
    assert faithful.restrict(c3).order() == 3


def test_subgroup_classes_s3():
    s3 = catalog_group("S3")
    assert subgroup_classes(full_subgroup(s3)) == ((0,), (1, 2), (3, 4, 5))
    a3 = sub(s3, [0, 1, 2])
    assert subgroup_classes(a3) == ((0,), (1,), (2,))


def test_induction_oracles_s3():
    s3 = catalog_group("S3")
    a3 = sub(s3, [0, 1, 2])
    full = full_subgroup(s3)
    triv = trivial_character(a3)
    ind = induce(triv, full)
    # permutation character of S3 on two points
    assert [v.as_rational() for v in ind.values] == [2, 2, 0]
    omega = characters_of(a3)[1]
    ind_omega = induce(omega, full)
    assert ind_omega.value_at(0).as_rational() == 2
    assert ind_omega.value_at(1).as_rational() == -1
    assert ind_omega.value_at(3).is_zero()


def test_frobenius_reciprocity():
    s4 = catalog_group("S4")
    full = full_subgroup(s4)
    irr = irreducible_characters(s4)
    for h in subgroup_class_reps(s4):
        if h.order in (1, 24):
            continue
        for chi in characters_of(h):
            f = character_class_function(chi)
            ind = induce(chi, full)
            for theta in irr:
                lhs = inner_product(ind, theta)
                rhs = inner_product(f, restrict_class_function(theta, h))
                assert lhs == rhs


def test_induction_transitivity():
    s4 = catalog_group("S4")
    full = full_subgroup(s4)
    # C2 <= V4 <= S4 with V4 = {e, (12)(34), (13)(24), (14)(23)}
    v4 = next(h for h in subgroup_class_reps(s4) if h.order == 4 and
              all(s4.element_order(x) in (1, 2) for x in h.elements))
    c2 = sub(s4, [0, v4.elements[1]])
    for chi in characters_of(c2):
        direct = induce(chi, full)
        step = induce_class_function(induce(chi, v4), full)
        assert direct.values == step.values


def test_conjugate_character():
    s3 = catalog_group("S3")
    a3 = sub(s3, [0, 1, 2])
    chars = characters_of(a3)
    omega, omega2 = chars[1], chars[2]
    assert conjugate_character(omega, 3) == omega2
    assert conjugate_character(omega, 1) == omega
    # conjugation is an action: (chi^g)^h = chi^(hg)
    g, h = 3, 4
    lhs = conjugate_character(conjugate_character(omega, g), h)
    assert lhs == conjugate_character(omega, s3.mul(h, g))


def test_extensions_and_relative_characters():
    c4 = catalog_group("C4")
    c2 = sub(c4, [0, 2])
    eta = characters_of(c2)[1]
    exts = extensions_of(eta, full_subgroup(c4))
    assert len(exts) == 2
    assert all(ch.restrict(c2) == eta for ch in exts)
    s3 = catalog_group("S3")
    rel = characters_trivial_on(full_subgroup(s3), sub(s3, [0, 1, 2]))
    assert len(rel) == 2


def test_irreducible_counts_and_dims():
    expect = {
        "C5": [1] * 5,
        "S3": [1, 1, 2],
        "D4": [1, 1, 1, 1, 2],
        "Q8": [1, 1, 1, 1, 2],
        "A4": [1, 1, 1, 3],
        "S4": [1, 1, 2, 3, 3],
        "Heisenberg27": [1] * 9 + [3, 3],
        "F5_4": [1, 1, 1, 1, 4],
        "F7_3": [1, 1, 1, 3, 3],
    }
    for name, dims in expect.items():
        g = catalog_group(name)
        irr = irreducible_characters(g)
        assert [f.dimension() for f in irr] == dims
        assert sum(d * d for d in dims) == g.order


def test_orthogonality():
    for name in ("S4", "Q8", "F5_4"):
        g = catalog_group(name)
        irr = irreducible_characters(g)
        for i, a in enumerate(irr):
            for j, b in enumerate(irr):
                ip = inner_product(a, b).as_rational()
                assert ip == (1 if i == j else 0)


def test_decompose():
    s3 = catalog_group("S3")
    a3 = sub(s3, [0, 1, 2])
    ind = induce(trivial_character(a3), full_subgroup(s3))
    # trivial + sign
    assert decompose(ind) == (Fraction(1), Fraction(1), Fraction(0))
    std = induce(characters_of(a3)[1], full_subgroup(s3))
    assert decompose(std) == (Fraction(0), Fraction(0), Fraction(1))


def test_character_serialization():
    s3 = catalog_group("S3")
    a3 = sub(s3, [0, 1, 2])
    omega = characters_of(a3)[1]
    assert omega.serialize() == "(0 1 2) : (0 1 2, 3)"


# Run with and without `python -O`: characters and class functions on
# different domains, including equal element tuples of different groups,
# are typed refusals, not asserts.
_DOMAIN_REFUSALS = """
import sys
from monomial.catalog import catalog_group
from monomial.characters import characters_of
from monomial.errors import DomainMismatch
from monomial.groups import full_subgroup, subgroup
from oracles import character_class_function, inner_product

s3, c3 = catalog_group("S3"), catalog_group("C3")
a3, c2, other = subgroup(s3, [0, 1, 2]), subgroup(s3, [0, 3]), full_subgroup(c3)
chi, psi, rho = characters_of(a3)[1], characters_of(c2)[1], characters_of(other)[1]
f, g = character_class_function(chi), character_class_function(rho)
print("optimize", sys.flags.optimize)
for label, call in (
    ("character product", lambda: chi.mul(psi)),
    ("character product across groups", lambda: chi.mul(rho)),
    ("sum", lambda: f + g),
    ("difference", lambda: f - character_class_function(psi)),
    ("product", lambda: f * g),
    ("inner product", lambda: inner_product(f, g)),
):
    try:
        print(label, "returned", call())
    except DomainMismatch:
        print(label, "DomainMismatch")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_domain_refusals_hold_under_optimisation(flags, run_python):
    out = run_python(flags, _DOMAIN_REFUSALS)
    assert out[:7] == [
        f"optimize {len(flags)}",
        "character product DomainMismatch",
        "character product across groups DomainMismatch",
        "sum DomainMismatch",
        "difference DomainMismatch",
        "product DomainMismatch",
        "inner product DomainMismatch",
    ]
