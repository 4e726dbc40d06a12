"""The integer character table against a Cyclotomic oracle.

The oracle is the direct computation: inductions by the coset formula,
inner products by summing Cyclotomic values over classes.  The table must
give the same irreducibles in the same order, the same decompositions and
the same phi matrix, exactly.  The table sorts its rows only on first
ordered use; the phi matrix must still come out in the sorted order.
"""

from fractions import Fraction

import pytest

from monomial.brauer import _phi_matrix, decompose_on, pair_classes
from monomial.catalog import catalog_group, catalog_names
from monomial.characters import (
    ClassFunction,
    character_table,
    characters_of,
    decompose,
    irreducible_characters,
    subgroup_classes,
)
from monomial.cyclotomic import Cyclotomic
from monomial.groups import (
    full_subgroup,
    normal_subgroups,
    subgroup_class_reps,
    trivial_subgroup,
)
from oracles import induce, inner_product, zero_class_function

ORACLE_GROUPS = ("S3", "D4", "Q8", "A4", "S4", "C12", "Heisenberg27", "F7_6")


def _oracle_irreducibles(g):
    full = full_subgroup(g)
    n_classes = len(subgroup_classes(full))
    irr = []
    for h in sorted(subgroup_class_reps(g), key=lambda h: -h.order):
        for chi in characters_of(h):
            if len(irr) == n_classes:
                break
            f = induce(chi, full)
            for known in irr:
                coeff = inner_product(f, known).as_rational()
                assert coeff.denominator == 1
                if coeff:
                    f = f - int(coeff) * known
            if not f.is_zero():
                assert inner_product(f, f).as_rational() == 1
                irr.append(f)
    assert len(irr) == n_classes
    return tuple(sorted(irr, key=lambda f: (f.dimension(), f.sort_key())))


def _oracle_decompose(f, irr):
    return tuple(inner_product(f, chi).as_rational() for chi in irr)


def _oracle_phi_matrix(ambient, lower):
    g = ambient.parent
    if ambient.order == g.order:
        inner = g
    else:
        inner = ambient.as_group
    irr = _oracle_irreducibles(inner)
    cols = []
    for cls in pair_classes(ambient, lower):
        f = induce(cls.char, ambient)
        coords = _oracle_decompose(ClassFunction(full_subgroup(inner), f.values), irr)
        assert all(c.denominator == 1 for c in coords)
        cols.append([int(c) for c in coords])
    return [[col[i] for col in cols] for i in range(len(irr))]


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_table_matches_cyclotomic_oracle(name):
    g = catalog_group(name)
    full = full_subgroup(g)
    irr = irreducible_characters(g)
    assert irr == _oracle_irreducibles(g)
    assert [f.sort_key() for f in irr] == [
        f.sort_key() for f in _oracle_irreducibles(g)
    ]
    # decompose: the irreducibles, and a virtual character with mixed signs
    for i, chi in enumerate(irr):
        assert decompose(chi) == tuple(Fraction(int(j == i)) for j in range(len(irr)))
    virtual = zero_class_function(full)
    for k, h in enumerate(subgroup_class_reps(g)):
        for chi in characters_of(h)[:2]:
            virtual = virtual + (k % 3 - 1) * induce(chi, full)
    assert decompose(virtual) == _oracle_decompose(virtual, irr)
    assert decompose(virtual * Fraction(1, 3)) == _oracle_decompose(
        virtual * Fraction(1, 3), irr
    )
    for n in normal_subgroups(g):
        assert _phi_matrix(full, n)[1] == _oracle_phi_matrix(full, n)
    for h in subgroup_class_reps(g):
        if 1 < h.order < g.order:
            triv = trivial_subgroup(g)
            assert _phi_matrix(h, triv)[1] == _oracle_phi_matrix(h, triv)
            f = induce(characters_of(h)[-1], h)
            inner_irr = _oracle_irreducibles(h.as_group)
            assert decompose_on(f) == _oracle_decompose(
                ClassFunction(full_subgroup(h.as_group), f.values), inner_irr
            )


def test_decompose_refuses_non_rational_coordinates():
    s3 = catalog_group("S3")
    full = full_subgroup(s3)
    n = len(subgroup_classes(full))
    zeta3 = Cyclotomic.root_of_unity(3)
    with pytest.raises(ValueError):
        decompose(ClassFunction(full, tuple(zeta3 for _ in range(n))))
    # values in the group's own field Q(zeta_3), coordinates not rational
    c3 = catalog_group("C3")
    chi = irreducible_characters(c3)[1]
    with pytest.raises(ValueError):
        decompose(chi * zeta3)
    # a value beyond the exponent's field (zeta_5 on C2)
    c2 = catalog_group("C2")
    with pytest.raises(ValueError):
        decompose(irreducible_characters(c2)[1] * Cyclotomic.root_of_unity(5))


def test_decompose_values_stored_at_other_moduli():
    # the characters of C2 written in Q(zeta_3) and Q(zeta_8)
    c2 = catalog_group("C2")
    full = full_subgroup(c2)
    irr = irreducible_characters(c2)
    one3 = Cyclotomic(3, [1])
    trivial = ClassFunction(full, (one3, one3))
    assert decompose(trivial) == tuple(Fraction(chi == trivial) for chi in irr)
    f = ClassFunction(full, (Cyclotomic.from_rational(2, 8), Cyclotomic.zero(8)))
    assert decompose(f) == (1, 1)


def _eager_phi_matrix(g, lower):
    """The phi matrix of the whole group read off an eagerly sorted table:
    every row a ClassFunction, the rows sorted by (dimension, sort_key)
    before any coordinate is taken."""
    table = character_table(g)
    e, full = table.exponent, full_subgroup(g)
    funcs = [
        ClassFunction(
            full,
            tuple(Cyclotomic(e, vec[c * e : (c + 1) * e]) for c in range(len(table.sizes))),
        )
        for vec in table.vectors
    ]
    order = sorted(range(len(funcs)), key=lambda i: (funcs[i].dimension(), funcs[i].sort_key()))
    assert table.characters == tuple(funcs[i] for i in order)
    duals = [table.duals[i] for i in order]
    cols = []
    for cls in pair_classes(full, lower):
        counts = table._induced_counts(cls.char).items()
        den = cls.subgroup.order * table.scale
        cols.append([sum(dual[i] * n for i, n in counts) // den for dual in duals])
    return [[col[i] for col in cols] for i in range(len(duals))]


@pytest.mark.parametrize("name", catalog_names())
def test_phi_matrix_matches_the_eager_sorted_table(name):
    g = catalog_group(name)
    triv = trivial_subgroup(g)
    assert _phi_matrix(full_subgroup(g), triv)[1] == _eager_phi_matrix(g, triv)


# A campaign's checks read phi only through zero tests and norms, so the
# table of the group is built but never sorted.
_CAMPAIGN_LEAVES_TABLE_UNSORTED = """
from click.testing import CliRunner
from monomial.catalog import catalog_group
from monomial.characters import character_table
from monomial.cli import main

with open("c.camp", "w") as handle:
    handle.write("target S4 N=trivial\\ncheck extend\\ncheck towers\\ncheck type3\\n")
print(CliRunner().invoke(main, ["campaign", "run", "c.camp"]).output.splitlines()[-1])
misses = character_table.cache_info().misses
table = character_table(catalog_group("S4"))
print(character_table.cache_info().misses == misses, sorted(vars(table)))
"""


def test_campaign_leaves_the_table_unsorted(run_python, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = run_python([], _CAMPAIGN_LEAVES_TABLE_UNSORTED)
    assert out[0] == "RESULT pass"
    # the table was built by the campaign, and holds no order
    assert out[1] == (
        "True ['duals', 'exponent', 'group', 'scale', 'sizes', 'trace', 'vectors']"
    )
