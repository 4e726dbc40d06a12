from itertools import product

import pytest

from monomial.catalog import catalog_group, catalog_names
from monomial.errors import HNormal, NotMaximal, TooLarge
from monomial.groups import (
    full_subgroup,
    maximal_subgroups,
    is_normal,
    normal_subgroups,
    subgroup,
    trivial_subgroup,
)
from monomial.type3 import (
    _cocycle_counts,
    complements_census,
    h1_trivial,
    is_type_III,
    type3_verdict,
)


def test_s3_certificate():
    s3 = catalog_group("S3")
    c2 = subgroup(s3, [0, 3])
    cert = is_type_III(s3, c2)
    assert cert.k.order == 1
    assert cert.c.elements == (0, 1, 2)
    assert cert.ell == 3
    assert not cert.degenerate


def test_refusals():
    s3 = catalog_group("S3")
    with pytest.raises(HNormal):
        is_type_III(s3, subgroup(s3, [0, 1, 2]))
    with pytest.raises(NotMaximal):
        is_type_III(s3, trivial_subgroup(s3))
    with pytest.raises(NotMaximal):
        is_type_III(s3, full_subgroup(s3))
    d4 = catalog_group("D4")
    # all maximal subgroups of a nilpotent group are normal
    for h in maximal_subgroups(d4):
        with pytest.raises(HNormal):
            is_type_III(d4, h)


def test_degenerate_certificate():
    c5 = catalog_group("C5")
    cert = is_type_III(c5, trivial_subgroup(c5))
    assert cert.degenerate
    assert cert.ell == 5
    assert cert.c.order == 5
    c6 = catalog_group("C6")
    with pytest.raises(NotMaximal):
        is_type_III(c6, trivial_subgroup(c6))


def test_nontrivial_core():
    s4 = catalog_group("S4")
    # the order-8 maximal subgroups (Sylow 2) are non-normal with core V
    d4 = next(h for h in maximal_subgroups(s4) if h.order == 8)
    cert = is_type_III(s4, d4)
    assert cert.k.order == 4
    assert cert.quotient_map.quotient.order == 6
    assert cert.ell == 3 and cert.qc.order == 3
    # the order-6 maximal subgroups have trivial core, complement V
    s3 = next(h for h in maximal_subgroups(s4) if h.order == 6)
    cert = is_type_III(s4, s3)
    assert cert.k.order == 1
    assert cert.c.order == 4 and cert.ell == 2


def test_census():
    s3 = catalog_group("S3")
    cert = is_type_III(s3, subgroup(s3, [0, 3]))
    census = complements_census(cert)
    assert len(census["complements"]) == 3
    assert census["all_C_conjugate"]
    assert census["count_equals_order_C"]
    a4 = catalog_group("A4")
    c3 = next(h for h in maximal_subgroups(a4) if h.order == 3)
    cert = is_type_III(a4, c3)
    census = complements_census(cert)
    assert len(census["complements"]) == 4
    assert census["all_C_conjugate"]
    assert census["count_equals_order_C"]
    with pytest.raises(NotMaximal):
        complements_census(is_type_III(catalog_group("C5"),
                                       trivial_subgroup(catalog_group("C5"))))


def test_h1_examples():
    s3 = catalog_group("S3")
    assert h1_trivial(subgroup(s3, [0, 3]), subgroup(s3, [0, 1, 2]))
    a4 = catalog_group("A4")
    c3 = next(h for h in maximal_subgroups(a4) if h.order == 3)
    v = next(n for n in normal_subgroups(a4) if n.order == 4)
    assert h1_trivial(c3, v)
    # trivial action gives H^1 = Hom(C2, C2), nontrivial
    d4 = catalog_group("D4")
    assert not h1_trivial(subgroup(d4, [0, 4]), subgroup(d4, [0, 2]))
    with pytest.raises(TooLarge):
        h1_trivial(subgroup(d4, [0, 2, 4, 6]), subgroup(d4, [0, 2]), cap=1)


def test_trivial_core_characterization():
    # in the semidirect (trivial core) case: certified iff H contains no
    # nontrivial normal subgroup of G
    for name in ("S3", "A4", "S4", "F5_4", "F7_3"):
        g = catalog_group(name)
        normals = [n for n in normal_subgroups(g) if 1 < n.order]
        for h in maximal_subgroups(g):
            if is_normal(g, h):
                continue
            try:
                cert = is_type_III(g, h)
            except (NotMaximal, HNormal):
                continue
            if cert.k.order == 1:
                assert not any(
                    h.contains_subgroup(n) for n in normals
                )


def _full_enumeration_counts(h, c, cap):
    """The cocycle and coboundary counts by enumerating every function
    H -> C that fixes the identity."""
    g = h.parent
    t, conj, inv = g.table, g.conj_table, g.inverses
    others = [x for x in h.elements if x != 0]
    if len(c.elements) ** len(others) > cap:
        raise TooLarge("cocycle enumeration exceeds the cap")
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
    return n_cocycles, len(coboundaries)


def _certified_pairs():
    for name in catalog_names():
        g = catalog_group(name)
        for h in maximal_subgroups(g):
            try:
                cert = is_type_III(g, h)
            except (HNormal, NotMaximal):
                continue
            if not cert.degenerate:
                yield name, cert.qh, cert.qc


def test_cocycle_counts_match_full_enumeration():
    # counting from generator values against every function H -> C, on
    # every certified (H, C) of the catalog and on the D4 case with
    # nontrivial H^1
    cases = list(_certified_pairs())
    d4 = catalog_group("D4")
    cases.append(("D4", subgroup(d4, [0, 4]), subgroup(d4, [0, 2])))
    assert len(cases) > 10
    for name, h, c in cases:
        expected = _full_enumeration_counts(h, c, cap=200_000)
        assert _cocycle_counts(h, c, cap=200_000) == expected, (name, h, c)
    # trivial action: Z^1 = Hom(C2, C2) has two elements, B^1 one
    assert _cocycle_counts(*cases[-1][1:], cap=200_000) == (2, 1)


def test_cocycle_cap_refuses_the_same_inputs():
    d4 = catalog_group("D4")
    h, c = subgroup(d4, [0, 2, 4, 6]), subgroup(d4, [0, 2])
    for cap in (1, 7, 8):
        refused = []
        for count in (_cocycle_counts, _full_enumeration_counts):
            try:
                count(h, c, cap)
                refused.append(False)
            except TooLarge:
                refused.append(True)
        assert refused == [cap < 8] * 2, cap


# Run with and without `python -O`: a bad structure and bad cocycle and a
# bad extension input are typed refusals, not asserts.
_BAD_INPUTS = """
import sys
from monomial import type3
from monomial.catalog import catalog_group
from monomial.characters import irreducible_characters
from monomial.errors import MonomialError
from monomial.extend import FreeAbelianGroup, constant_delta, extend
from monomial.groups import full_subgroup, subgroup, trivial_subgroup

s3, c6, d4 = catalog_group("S3"), catalog_group("C6"), catalog_group("D4")

def attempt(label, call):
    try:
        call()
        print(label, "passed")
    except MonomialError as exc:
        print(label, type(exc).__name__, exc.witness if hasattr(exc, "witness") else "")

print("optimize", sys.flags.optimize)
attempt("two minimal normal", lambda: type3._check_structure(c6, trivial_subgroup(c6)))
attempt("no complement", lambda: type3._check_structure(s3, trivial_subgroup(s3)))
attempt("C not abelian", lambda: type3.h1_trivial(trivial_subgroup(s3), full_subgroup(s3)))
attempt("two parents", lambda: type3.h1_trivial(trivial_subgroup(s3), trivial_subgroup(d4)))
n = trivial_subgroup(s3)
ext = extend(constant_delta(s3, n, FreeAbelianGroup()))
a3 = subgroup(s3, [0, 1, 2])
attempt("rho domain", lambda: ext.evaluate(a3, irreducible_characters(s3)[0]))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_bad_inputs_are_typed_refusals(flags, run_python):
    out = run_python(flags, _BAD_INPUTS)
    assert out[:6] == [
        f"optimize {len(flags)}",
        "two minimal normal CertificateFailed "
        "(Subgroup(0, 3), Subgroup(0, 2, 4))",
        "no complement CertificateFailed "
        "(Subgroup(0,), Subgroup(0, 1, 2))",
        "C not abelian CNotAbelianNormal ",
        "two parents DomainMismatch ",
        "rho domain DomainMismatch ",
    ]


# Run with and without `python -O`: a complement that the structure check
# got wrong fails the certificate's own HC = G and H & C = K checks, with
# (H, C) as the witness.
_WRONG_COMPLEMENT = """
import sys
from monomial import type3
from monomial.catalog import catalog_group
from monomial.errors import CertificateFailed
from monomial.groups import full_subgroup, subgroup, trivial_subgroup

s3 = catalog_group("S3")
print("optimize", sys.flags.optimize)
for wrong in (trivial_subgroup, full_subgroup):
    type3._check_structure = lambda q, qh: (wrong(q), 3)
    try:
        print("returned", type3.is_type_III(s3, subgroup(s3, [0, 3])))
    except CertificateFailed as exc:
        print(exc, exc.witness)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_wrong_complement_fails_the_certificate(flags, run_python):
    out = run_python(flags, _WRONG_COMPLEMENT)
    assert out[:3] == [
        f"optimize {len(flags)}",
        "HC is not the whole group (Subgroup(0, 3), Subgroup(0,))",
        "H and C do not meet in K (Subgroup(0, 3), Subgroup(0, 1, 2, 3, 4, 5))",
    ]


# Run with and without `python -O`: cocycles that do not fall into whole
# cosets of the coboundaries (here, only the first generator assignment is
# enumerated, so one cocycle against three coboundaries) fail the count
# with (H, C, cocycles, coboundaries) as the witness.
_SPLIT_COCYCLES = """
import itertools
import sys
from monomial import type3
from monomial.catalog import catalog_group
from monomial.errors import CertificateFailed
from monomial.groups import subgroup

s3 = catalog_group("S3")
type3.product = lambda *args, **kw: itertools.islice(itertools.product(*args, **kw), 1)
print("optimize", sys.flags.optimize)
try:
    print("returned", type3.h1_trivial(subgroup(s3, [0, 3]), subgroup(s3, [0, 1, 2])))
except CertificateFailed as exc:
    print(exc, exc.witness)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_cocycle_coset_split_is_checked(flags, run_python):
    out = run_python(flags, _SPLIT_COCYCLES)
    assert out[:2] == [
        f"optimize {len(flags)}",
        "the cocycles do not split into cosets of the coboundaries "
        "(Subgroup(0, 3), Subgroup(0, 1, 2), 1, 3)",
    ]


def test_verdict_is_the_certificate_census_and_h1():
    for name in ("S3", "S4", "A4", "C5", "D4", "F7_6"):
        g = catalog_group(name)
        for h in maximal_subgroups(g):
            v = type3_verdict(g, h)
            try:
                cert = is_type_III(g, h)
            except (HNormal, NotMaximal) as exc:
                assert type(v.error) is type(exc) and v.cert is None
                continue
            assert v.error is None and v.cert == cert
            if cert.degenerate:
                assert v.census_ok is v.h1 is v.complements is None
                continue
            census = complements_census(cert)
            assert v.complements == len(census["complements"])
            assert v.census_ok == (
                census["all_C_conjugate"] and census["count_equals_order_C"]
            )
            assert v.h1 == h1_trivial(cert.qh, cert.qc)
