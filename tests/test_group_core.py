"""The table-driven group core.

Hashes computed once with structural equality, the conjugation and power
tables, position-indexed characters, the integer brauer_map against an
induction oracle, the coset-representative subgroup enumeration against
the closure of every known subgroup with every element, direct products,
and the typed refusal of a group that is not an M-group.
"""

import os
import random
from itertools import product

import pytest
from click.testing import CliRunner

from monomial.brauer import brauer_map, pair_classes, rplus
from monomial.catalog import catalog_group, catalog_names
from monomial.characters import (
    canonical_modulus,
    characters_of,
    conjugate_character,
    irreducible_characters,
    subgroup_classes,
)
from monomial.cli import main
from monomial.cyclotomic import Cyclotomic
from monomial.errors import NotMonomial
from monomial.groups import (
    Group,
    Subgroup,
    all_subgroups,
    closure,
    conjugate_subgroup,
    direct_product,
    dump_group,
    full_subgroup,
    make_group,
    normal_subgroups,
    quotient,
    subgroup,
    subgroup_class_reps,
    subgroups,
    trivial_subgroup,
)
from oracles import induce


def _check_conj_table(g):
    for a in range(g.order):
        for x in range(g.order):
            assert g.conj_table[a][x] == g.mul(g.mul(a, x), g.inv(a))
            assert g.conj(a, x) == g.conj_table[a][x]


def test_conj_table_matches_products():
    for name in catalog_names():
        _check_conj_table(catalog_group(name))
    s4 = catalog_group("S4")
    v4 = next(n for n in normal_subgroups(s4) if n.order == 4)
    _check_conj_table(quotient(s4, v4).quotient)


def test_power_matches_repeated_products():
    for name in ("C12", "S4", "Q8", "F7_6"):
        g = catalog_group(name)
        for x in range(g.order):
            y = 0
            for n in range(2 * g.order + 1):
                assert g.power(x, n) == y
                assert g.power(x, -n) == g.inv(y)
                y = g.mul(y, x)


def test_equal_tables_are_equal_groups_and_subgroups():
    s4 = catalog_group("S4")
    copy = make_group(s4.table, name="another name")
    bare = Group(s4.table)
    assert copy is not s4
    assert copy == s4 == bare
    assert hash(copy) == hash(s4) == hash(bare)
    for h in all_subgroups(s4):
        twin = subgroup(copy, h.elements)
        assert twin == h and hash(twin) == hash(h)
    assert catalog_group("C4") != catalog_group("Q8")
    assert subgroup(catalog_group("C6"), [0]) != subgroup(catalog_group("S3"), [0])
    assert len({s4, copy, bare}) == 1


@pytest.mark.parametrize("name", ["S4", "Heisenberg27"])
def test_conjugate_character_is_pointwise_conjugation(name):
    g = catalog_group(name)
    for h in all_subgroups(g):
        for chi in characters_of(h):
            for a in range(g.order):
                moved = conjugate_character(chi, a)
                assert moved.domain == conjugate_subgroup(h, a)
                assert moved.modulus == canonical_modulus(moved.domain)
                ainv = g.inv(a)
                for x in moved.domain.elements:
                    assert moved.exponent_of(x) == chi.exponent_of(
                        g.mul(g.mul(ainv, x), a)
                    )
                assert moved in characters_of(moved.domain)


def _induce_sum(x):
    """phi(x) the direct way: a Cyclotomic sum of induced characters."""
    values = [Cyclotomic.zero()] * len(subgroup_classes(x.ambient))
    for cls, n in x.coefficients:
        induced = induce(cls.char, x.ambient)
        values = [v + n * w for v, w in zip(values, induced.values)]
    return tuple(values)


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4", "C12", "Heisenberg27"])
def test_brauer_map_matches_induction_oracle(name):
    g = catalog_group(name)
    trivial = trivial_subgroup(g)
    # the whole group and its largest proper subgroup class as ambients
    for ambient in (full_subgroup(g), subgroup_class_reps(g)[-2]):
        classes = pair_classes(ambient, trivial)
        rng = random.Random(f"{name}:{ambient.order}")
        for _ in range(6):
            x = rplus(
                ambient,
                trivial,
                [(cls, rng.randrange(-3, 4)) for cls in classes if rng.random() < 0.5],
            )
            image = brauer_map(x)
            assert image.domain == ambient
            assert image.values == _induce_sum(x)


def _sl23():
    """SL(2,3): the 2x2 matrices of determinant 1 over F_3, identity first."""
    mats = [m for m in product(range(3), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % 3 == 1]
    mats.sort(key=lambda m: m != (1, 0, 0, 1))
    index = {m: i for i, m in enumerate(mats)}

    def mul(a, b):
        return (
            (a[0] * b[0] + a[1] * b[2]) % 3,
            (a[0] * b[1] + a[1] * b[3]) % 3,
            (a[2] * b[0] + a[3] * b[2]) % 3,
            (a[2] * b[1] + a[3] * b[3]) % 3,
        )

    return make_group([[index[mul(a, b)] for b in mats] for a in mats], name="SL2_3")


def _subgroups_oracle(g):
    # every known subgroup closed with every element outside it, all of
    # its elements as generators; classes canonical as in subgroups()
    found = {(0,)}
    frontier = [(0,)]
    while frontier:
        h = frontier.pop()
        for x in range(1, g.order):
            if x not in h:
                bigger = closure(g, list(h) + [x]).elements
                if bigger not in found:
                    found.add(bigger)
                    frontier.append(bigger)
    classes, seen = [], set()
    for elems in sorted(found, key=lambda e: (len(e), e)):
        if elems not in seen:
            orbit = {
                conjugate_subgroup(Subgroup(g, elems), x).elements
                for x in range(g.order)
            }
            seen |= orbit
            classes.append(tuple(Subgroup(g, e) for e in sorted(orbit)))
    return tuple(classes)


def _products():
    return [
        direct_product(catalog_group(a), catalog_group(b))
        for a, b in (("D4", "C2"), ("Q8", "C3"), ("S3", "S3"))
    ]


def test_subgroups_match_closure_oracle():
    for g in [catalog_group(nm) for nm in catalog_names()] + _products():
        assert subgroups(g) == _subgroups_oracle(g), g


def test_direct_product_table():
    s3, c2 = catalog_group("S3"), catalog_group("C2")
    g = direct_product(s3, c2)
    assert (g.order, g.name) == (12, "S3xC2")
    for (a, b), (x, y) in product(product(range(6), range(2)), repeat=2):
        assert g.mul(2 * a + b, 2 * x + y) == 2 * s3.mul(a, x) + c2.mul(b, y)
    assert direct_product(s3, Group(c2.table)).name is None
    d6 = catalog_group("D6")  # S3 x C2 is D6
    assert len(normal_subgroups(g)) == len(normal_subgroups(d6))
    assert [len(c) for c in subgroups(g)] == [len(c) for c in subgroups(d6)]
    # the golden group files were written by the same labelling
    golden = os.path.join(os.path.dirname(__file__), "golden")
    for prod in _products()[1:]:
        with open(os.path.join(golden, f"{prod.name}.grp")) as handle:
            assert dump_group(prod) == handle.read()


def test_non_m_group_is_refused(tmp_path):
    g = _sl23()
    assert g.order == 24
    with pytest.raises(NotMonomial):
        irreducible_characters(g)
    path = tmp_path / "sl23.grp"
    path.write_text(dump_group(g))
    result = CliRunner().invoke(main, ["verify", "thm27", str(path)])
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        "Error: NotMonomial: Group(SL2_3): remainder is not a single irreducible"
    ]
