"""Built-in group catalog.

Most families are one metacyclic presentation G(e, f, k, r) =
<tau, sigma | tau^e = 1, sigma tau sigma^-1 = tau^k, sigma^f = tau^r>
(`groups.metacyclic`, element tau^a sigma^b labelled a + e*b):

- C1..C16: C_n = G(n, 1, 1, 0);
- S3, D4 (order 8), D6 (order 12): D_k = G(k, 2, k - 1, 0);
- Q8 = G(4, 2, 3, 2);
- Frobenius groups F_l_m = C_l x| C_m = G(l, m, r, 0), with r the least
  residue of multiplicative order m mod l, for
  (l, m) in {(3,2), (5,4), (7,3), (7,6), (13,3)}.

The others are A4 and S4 (permutation groups of {0, 1, 2, 3}) and
Heisenberg27 (upper unitriangular 3x3 matrices over F_3).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .cyclotomic import _multiplicative_order
from .errors import CertificateFailed, ParseError
from .groups import Group, make_group, metacyclic


def _perm_group_table(perms):
    perms = sorted(perms)
    if perms[0] != tuple(range(len(perms[0]))):
        raise CertificateFailed(
            "the permutations do not include the identity", witness=perms[0]
        )
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):
        # (p*q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(len(p)))

    return [[index[compose(p, q)] for q in perms] for p in perms]


def _heisenberg27_table():
    # upper unitriangular 3x3 over F_3: (a,b,c) -> a + 3b + 9c
    def mul(x, y):
        a, b, c = x % 3, (x // 3) % 3, x // 9
        d, e, f = y % 3, (y // 3) % 3, y // 9
        return (a + d) % 3 + 3 * ((b + e) % 3) + 9 * ((c + f + a * e) % 3)

    return [[mul(i, j) for j in range(27)] for i in range(27)]


@lru_cache(maxsize=None)
def _build() -> dict[str, Group]:
    groups = {}
    for n in range(1, 17):
        groups[f"C{n}"] = metacyclic(n, 1, 1, 0, name=f"C{n}")
    for name, k in (("S3", 3), ("D4", 4), ("D6", 6)):
        groups[name] = metacyclic(k, 2, k - 1, 0, name=name)
    groups["Q8"] = metacyclic(4, 2, 3, 2, name="Q8")
    s4 = list(permutations(range(4)))
    groups["A4"] = make_group(_perm_group_table([p for p in s4 if _sign(p) == 1]), name="A4")
    groups["S4"] = make_group(_perm_group_table(s4), name="S4")
    groups["Heisenberg27"] = make_group(_heisenberg27_table(), name="Heisenberg27")
    for l, m in ((3, 2), (5, 4), (7, 3), (7, 6), (13, 3)):
        name = f"F{l}_{m}"
        r = next(x for x in range(2, l) if _multiplicative_order(x, l) == m)
        groups[name] = metacyclic(l, m, r, 0, name=name)
    return groups


def _sign(p) -> int:
    s = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                s = -s
    return s


def catalog_names() -> list[str]:
    return list(_build().keys())


def catalog_group(name: str) -> Group:
    try:
        return _build()[name]
    except KeyError:
        raise ParseError(
            f"unknown catalog group {name!r}; available: {', '.join(catalog_names())}"
        ) from None
