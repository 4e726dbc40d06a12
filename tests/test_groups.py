from itertools import permutations

import pytest

from monomial.catalog import catalog_group, catalog_names
from monomial.errors import NotAGroup, NotNormal, NotSolvable, ParseError
from monomial.groups import (
    center,
    commutator_subgroup,
    conjugate_subgroup,
    core,
    derived_subgroup,
    dump_group,
    fitting_subgroup,
    full_subgroup,
    is_nilpotent,
    is_normal,
    load_group,
    make_group,
    maximal_subgroups,
    normal_subgroups,
    quotient,
    subgroup,
    subgroups,
    trivial_subgroup,
)
from oracles import minimal_abelian_normal_subgroups


def test_load_trivial_group():
    g = load_group("1\n0\n")
    assert g.order == 1


def test_load_s3_roundtrip():
    s3 = catalog_group("S3")
    again = load_group(dump_group(s3))
    assert again.table == s3.table
    assert again.name == "S3"


def test_load_rejects_malformed():
    with pytest.raises(ParseError):
        load_group("")
    with pytest.raises(ParseError):
        load_group("2\n0 1\n")
    with pytest.raises(ParseError):
        make_group([])  # the empty table: order 0
    # broken associativity / identity
    with pytest.raises(NotAGroup):
        load_group("2\n0 1\n1 1\n")
    bad = "3\n0 1 2\n1 0 0\n2 0 1\n"
    with pytest.raises(NotAGroup):
        load_group(bad)


# Latin squares with 0 as a two-sided identity that are not associative: in
# the order-6 one, 1 passes the associativity check and 2 fails it.
_NON_ASSOCIATIVE_LOOPS = [
    [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
    [
        [0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3], [2, 5, 1, 4, 3, 0],
        [3, 4, 5, 2, 0, 1], [4, 3, 0, 1, 5, 2], [5, 2, 3, 0, 1, 4],
    ],
]


@pytest.mark.parametrize("table", _NON_ASSOCIATIVE_LOOPS)
def test_rejects_non_associative_loops(table):
    with pytest.raises(NotAGroup, match="associativity"):
        make_group(table)


def _normalized_latin_squares(n):
    """Every Latin square of order n whose first row and column are 0..n-1."""
    def extend(rows):
        if len(rows) == n:
            yield rows
            return
        i = len(rows)
        for rest in permutations([x for x in range(n) if x != i]):
            row = (i, *rest)
            if all(row[j] != r[j] for r in rows for j in range(n)):
                yield from extend(rows + [row])
    yield from extend([tuple(range(n))])


def test_associativity_check_matches_every_triple():
    # all 56 normalized Latin squares of order 5: the 6 labellings of C5 are
    # accepted and every other square is refused
    squares = list(_normalized_latin_squares(5))
    assert len(squares) == 56
    accepted = 0
    for table in squares:
        r = range(5)
        if all(table[table[a][b]][c] == table[a][table[b][c]] for a in r for b in r for c in r):
            make_group(table)
            accepted += 1
        else:
            with pytest.raises(NotAGroup, match="associativity"):
                make_group(table)
    assert accepted == 6


def test_rejects_non_solvable():
    # A5 (order 60) built on the fly from even permutations
    from monomial.catalog import _perm_group_table, _sign

    table = _perm_group_table(
        [p for p in permutations(range(5)) if _sign(p) == 1]
    )
    with pytest.raises(NotSolvable):
        make_group(table, name="A5")


def test_catalog_all_valid():
    for name in catalog_names():
        g = catalog_group(name)
        assert g.table[0] == tuple(range(g.order))
    assert catalog_group("C12").order == 12
    assert catalog_group("F7_6").order == 42
    assert catalog_group("Heisenberg27").order == 27
    with pytest.raises(ParseError):
        catalog_group("M11")


def test_subgroup_census_s3_and_d4():
    s3 = catalog_group("S3")
    classes = subgroups(s3)
    assert sum(len(c) for c in classes) == 6
    assert len(classes) == 4
    d4 = catalog_group("D4")
    classes = subgroups(d4)
    assert sum(len(c) for c in classes) == 10
    assert len(classes) == 8


def test_subgroup_census_more():
    assert sum(len(c) for c in subgroups(catalog_group("Q8"))) == 6
    assert sum(len(c) for c in subgroups(catalog_group("A4"))) == 10
    assert sum(len(c) for c in subgroups(catalog_group("S4"))) == 30
    assert len(subgroups(catalog_group("S4"))) == 11
    # Lagrange
    for name in ("S4", "D6", "Heisenberg27", "F5_4"):
        g = catalog_group(name)
        for cls in subgroups(g):
            for h in cls:
                assert g.order % h.order == 0


def test_commutators():
    s3 = catalog_group("S3")
    assert derived_subgroup(s3).order == 3
    q8 = catalog_group("Q8")
    dq = derived_subgroup(q8)
    assert dq == center(q8)
    assert dq.order == 2
    c6 = catalog_group("C6")
    assert derived_subgroup(c6).order == 1
    s4 = catalog_group("S4")
    assert derived_subgroup(s4).order == 12
    h = subgroup(s3, [0, 1, 2], check=True)
    assert commutator_subgroup(h, h).order == 1


def test_quotients():
    s3 = catalog_group("S3")
    a3 = subgroup(s3, [0, 1, 2])
    qm = quotient(s3, a3)
    assert qm.quotient.order == 2
    assert qm.project(0) == 0
    full_q = quotient(s3, full_subgroup(s3))
    assert full_q.quotient.order == 1
    c2 = next(h for cls in subgroups(s3) for h in cls if h.order == 2)
    with pytest.raises(NotNormal):
        quotient(s3, c2)
    # preimage/projection round trip
    sub = qm.project_subgroup(full_subgroup(s3))
    assert sub.order == 2
    assert qm.preimage(trivial_subgroup(qm.quotient)) == a3


def test_conjugation_core_fitting():
    s3 = catalog_group("S3")
    c2 = next(h for cls in subgroups(s3) for h in cls if h.order == 2)
    assert conjugate_subgroup(c2, 1).order == 2
    assert core(s3, c2).order == 1
    a3 = subgroup(s3, [0, 1, 2])
    assert core(s3, a3) == a3
    assert fitting_subgroup(s3) == a3
    assert is_nilpotent(catalog_group("Q8"))
    assert not is_nilpotent(s3)
    a4 = catalog_group("A4")
    v = fitting_subgroup(a4)
    assert v.order == 4
    assert is_normal(a4, v)


def test_normal_and_minimal_normal():
    s4 = catalog_group("S4")
    orders = sorted(n.order for n in normal_subgroups(s4))
    assert orders == [1, 4, 12, 24]
    mins = minimal_abelian_normal_subgroups(s4)
    assert [n.order for n in mins] == [4]
    maxes = maximal_subgroups(s4)
    assert sorted({h.order for h in maxes}) == [6, 8, 12]


def test_element_orders_and_center():
    q8 = catalog_group("Q8")
    orders = sorted(q8.element_order(x) for x in range(8))
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    heis = catalog_group("Heisenberg27")
    assert center(heis).order == 3
    assert all(heis.element_order(x) in (1, 3) for x in range(27))


def test_frobenius_structure():
    f = catalog_group("F5_4")
    assert derived_subgroup(f).order == 5
    assert center(f).order == 1
    f13 = catalog_group("F13_3")
    assert derived_subgroup(f13).order == 13


# Run with and without `python -O`: projecting a subgroup of another group
# through a quotient map is a typed refusal, not an assert.
_PROJECT_REFUSAL = """
import sys
from monomial.catalog import catalog_group
from monomial.errors import DomainMismatch
from monomial.groups import quotient, subgroup

s3, c6 = catalog_group("S3"), catalog_group("C6")
qm = quotient(s3, subgroup(s3, [0, 1, 2]))
print("optimize", sys.flags.optimize)
try:
    print("project subgroup returned", qm.project_subgroup(subgroup(c6, [0, 3])))
except DomainMismatch:
    print("project subgroup DomainMismatch")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_project_refusal_holds_under_optimisation(flags, run_python):
    out = run_python(flags, _PROJECT_REFUSAL)
    assert out[:2] == [f"optimize {len(flags)}", "project subgroup DomainMismatch"]
