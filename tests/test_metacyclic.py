"""`groups.metacyclic` against the hand-written tables it replaced, and
the catalog's tables pinned by hash."""

import hashlib

import pytest

from monomial.catalog import catalog_group, catalog_names
from monomial.errors import NotAGroup, ParseError
from monomial.groups import dump_group, metacyclic

FROBENIUS = ((3, 2), (5, 4), (7, 3), (7, 6), (13, 3))


# The former builders, kept here as oracles.


def _cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _dihedral_table(k):
    # (r, s) -> r + k*s; (r1, s1)(r2, s2) = (r1 + (-1)^s1 r2, s1 ^ s2)
    def mul(i, j):
        r1, s1 = i % k, i // k
        r2, s2 = j % k, j // k
        return (r1 + (r2 if s1 == 0 else -r2)) % k + k * (s1 ^ s2)

    return [[mul(i, j) for j in range(2 * k)] for i in range(2 * k)]


def _q8_table():
    # i^a j^b -> a + 4b; j i = i^-1 j and j^2 = i^2
    def mul(x, y):
        a, b = x % 4, x // 4
        c, d = y % 4, y // 4
        return (a + (c if b == 0 else -c) + 2 * (b * d)) % 4 + 4 * ((b + d) % 2)

    return [[mul(i, j) for j in range(8)] for i in range(8)]


def _least_of_order(m, l):
    return next(
        x
        for x in range(2, l)
        if pow(x, m, l) == 1
        and all(pow(x, d, l) != 1 for d in range(1, m) if m % d == 0)
    )


def _frobenius_table(l, m):
    r = _least_of_order(m, l)

    def mul(i, j):
        x1, y1 = i % l, i // l
        x2, y2 = j % l, j // l
        return (x1 + pow(r, y1, l) * x2) % l + l * ((y1 + y2) % m)

    return [[mul(i, j) for j in range(l * m)] for i in range(l * m)]


def _bikummer_table(ell):
    # tau^a sigma^b -> a + ell*b in C_ell x C_ell
    return [
        [(x % ell + y % ell) % ell + ell * ((x // ell + y // ell) % ell)
         for y in range(ell * ell)]
        for x in range(ell * ell)
    ]


def _table(rows):
    return tuple(tuple(row) for row in rows)


def test_metacyclic_reproduces_the_hand_written_tables():
    cases = [(metacyclic(n, 1, 1, 0), _cyclic_table(n)) for n in range(1, 17)]
    cases += [(metacyclic(k, 2, k - 1, 0), _dihedral_table(k)) for k in (3, 4, 6)]
    cases += [(metacyclic(4, 2, 3, 2), _q8_table())]
    cases += [
        (metacyclic(l, m, _least_of_order(m, l), 0), _frobenius_table(l, m))
        for l, m in FROBENIUS
    ]
    cases += [(metacyclic(ell, ell, 1, 0), _bikummer_table(ell)) for ell in (2, 3, 5)]
    assert len(cases) == 28
    for g, rows in cases:
        assert g.table == _table(rows)


def test_metacyclic_refuses_parameters_that_present_no_group():
    with pytest.raises(NotAGroup):
        metacyclic(5, 2, 2, 0)  # 2^2 != 1 mod 5
    # orders outside 1..MAX_ORDER are refused before any table is built
    for e, f in ((0, 2), (2, 0), (13, 13), (10**4, 10**4)):
        with pytest.raises(ParseError):
            metacyclic(e, f, 1, 0)


# sha256 of `dump_group` for every catalog group, in catalog order.
CATALOG_SHA256 = {
    "C1": "ff4608d8e4ea40c8f0c418a624c2b753c977311dac198281c581a3bdcfce182f",
    "C2": "01ea2090e1d90db7d4de5d0670f9ab340ff212733d7e5a790bb09950e70ed4b4",
    "C3": "b33ae8730fce0c0f1e90bb96a96af40b866a58d663c15029970765aa31065ce2",
    "C4": "ca55501e7c851b5ae397a824ad19b40972aeb2f185d395be1878e72698c925cf",
    "C5": "53cd2d44945316f5768452f336080fc28581c7c7dda9fe8e6285021788650d3d",
    "C6": "b4906fad53321fb7aaf4307c094832d843ed00719415cfbd0f6e30e986699d3e",
    "C7": "776846d6959b2e50f4c50a163b6915c555a3f8d85f686955fd77dce167bcb9cb",
    "C8": "8f60da3d77d48a3d5ecad8c526f9be2544da02ed24f3e8603f18fb302f11d919",
    "C9": "9d95fdaf43da6d740049ea3e5962e3845e28af8ebc3ec1b85ef7250e84fb08c2",
    "C10": "654f6c527f62b536eaed70be7a9e911f7956058828516cce9653b1eac0fd0c7d",
    "C11": "d6bc2db274069caaf8574d264ed279cd747905ef7873d5944950534409970509",
    "C12": "b51d577b4790439e6557192b89375eb3492a89263d3ef97d2a44fd6aa3938598",
    "C13": "bc218bd4272279cdc50bdafd60e8405dc3556377880e6d87e92dedf01cb83d3d",
    "C14": "30273cdecf08e1e92259dc52fca1055b4ace4d0a34279bbde118bc658941afaa",
    "C15": "ebf8b2e0658256615e14d401c46dd23594a64d5a3293276c2555b7fc2b6ac8dd",
    "C16": "2f03e2afe94a9826bd38892dfd8ad9d15ab5c90e7f2fe68207d64d4a54a45905",
    "S3": "f484c025123971bbb5700d7f648ea1a34c8c584fa4a247886341287eece240d3",
    "D4": "0f2840285b42291af15b0a5bbe6f0a6b61a27dc7a93b404ee6310cfb5fe5e813",
    "D6": "f7bdbcd28635338399ad3a4709d8db1b2e13c9a70c0fdb6d9b3d262ad0d79373",
    "Q8": "59d742ea994d9bc0509982cc195112cc9c6c3524e49f33b14a09524fa381669b",
    "A4": "7da5df9c4b13a59b26e2196c1c05ceeeca6300af97fe756d0a693bfd373d3a58",
    "S4": "3dffb44694d098697c858c472fd2f2d97c51c27f337f58f4dfa7bba55aaaea41",
    "Heisenberg27": "7ff206c6bc58b588944d8cc67c3b1e47f2fcc4c8bb413b5e227ca3d5f2c4f3f2",
    "F3_2": "c7f23b179ac68da57703bb3662925921688a29a22a584d0cbf600323686ee908",
    "F5_4": "3ee51dc7c6f660d551908a5b8b09610c97808ce86ccf5e45ddd2a8d9068991c9",
    "F7_3": "bb7a716870369b416ca3267edcc616abe078e207bdc7c9572a2c5de9be45e965",
    "F7_6": "0c6b641dd6f8de4c8e3302b3c91fb8c8c21235a7a89c229e94ee9870e88bd6cb",
    "F13_3": "f8e62055ef898f588096f0d58802dbe0c7db5e064051bcf59612e8c29ed933ca",
}


def test_catalog_tables_are_pinned():
    assert list(CATALOG_SHA256) == catalog_names()
    for name, digest in CATALOG_SHA256.items():
        text = dump_group(catalog_group(name))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, name
