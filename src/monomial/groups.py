"""Finite solvable groups as multiplication tables.

Groups, subgroups and quotient maps are immutable values with structural
equality, and every enumeration returns a deterministic canonical order
(sorted element lists, least-coset labeling), so they can serve as dict
keys and as canonical representatives of pair classes downstream.

A Group or Subgroup computes its hash once, at construction, and compares
by identity before comparing structure.  The derived tables (inverses,
conjugation g x g^-1, conjugacy classes, a subgroup's element positions)
are built lazily on first use and kept; hot loops read them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .cyclotomic import factorize
from .errors import (
    DomainMismatch,
    NotAGroup,
    NotASubgroup,
    NotNormal,
    NotSolvable,
    ParseError,
)

MAX_ORDER = 128


@dataclass(frozen=True, eq=False)
class Group:
    """A group as its multiplication table; 0 is the identity.  Equality
    is equality of tables (the name is a label only)."""

    table: tuple[tuple[int, ...], ...]
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.table,)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Group):
            return NotImplemented
        return self._hash == other._hash and self.table == other.table

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        return tuple(row.index(0) for row in self.table)

    def inv(self, a: int) -> int:
        return self.inverses[a]

    @cached_property
    def conj_table(self) -> tuple[tuple[int, ...], ...]:
        """conj_table[g][x] = g x g^{-1}."""
        t = self.table
        return tuple(
            tuple(t[gx][gi] for gx in row)
            for row, gi in zip(t, self.inverses)
        )

    def conj(self, g: int, x: int) -> int:
        """g x g^{-1}."""
        return self.conj_table[g][x]

    def power(self, x: int, n: int) -> int:
        """x^n for any integer n, by repeated squaring."""
        if n < 0:
            x, n = self.inverses[x], -n
        t, out = self.table, 0
        while n:
            if n & 1:
                out = t[out][x]
            x = t[x][x]
            n >>= 1
        return out

    def element_order(self, a: int) -> int:
        n, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            n += 1
        return n

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        seen = [False] * self.order
        classes = []
        for a in range(self.order):
            if seen[a]:
                continue
            orbit = sorted({row[a] for row in self.conj_table})
            for x in orbit:
                seen[x] = True
            classes.append(tuple(orbit))
        return tuple(sorted(classes, key=lambda c: c[0]))

    @cached_property
    def class_of(self) -> tuple[int, ...]:
        idx = [0] * self.order
        for i, cls in enumerate(self.conjugacy_classes):
            for x in cls:
                idx[x] = i
        return tuple(idx)

    def is_abelian(self) -> bool:
        t = self.table
        return all(
            t[a][b] == t[b][a] for a in range(self.order) for b in range(a)
        )

    def __repr__(self):
        label = self.name or f"order-{self.order}"
        return f"Group({label})"


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup of `parent`, by its sorted element tuple."""

    parent: Group
    elements: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.parent, self.elements)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Subgroup):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.elements == other.elements
            and self.parent == other.parent
        )

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self.element_set

    @cached_property
    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    @cached_property
    def position(self) -> dict[int, int]:
        """Index of each element in `elements`."""
        return {x: i for i, x in enumerate(self.elements)}

    def contains_subgroup(self, other: "Subgroup") -> bool:
        return other.element_set <= self.element_set

    @cached_property
    def as_group(self) -> "Group":
        """This subgroup as an abstract Group on its own element labels
        (position in the sorted element tuple)."""
        pos, t = self.position, self.parent.table
        table = tuple(
            tuple(pos[t[a][b]] for b in self.elements) for a in self.elements
        )
        return Group(table, name=None)

    def __repr__(self):
        return f"Subgroup{self.elements}"


@dataclass(frozen=True)
class QuotientMap:
    source: Group
    kernel: Subgroup
    quotient: Group
    projection: tuple[int, ...]

    def project(self, x: int) -> int:
        return self.projection[x]

    def project_subgroup(self, h: Subgroup) -> Subgroup:
        if h.parent is not self.source and h.parent != self.source:
            raise DomainMismatch(f"{h} is not a subgroup of the source {self.source!r}")
        return subgroup(self.quotient, {self.projection[x] for x in h.elements})

    def preimage(self, hbar: Subgroup) -> Subgroup:
        target = hbar.element_set
        return subgroup(
            self.source,
            [x for x in range(self.source.order) if self.projection[x] in target],
        )


# ---------------------------------------------------------------------------
# construction and validation


def _validate_table(table) -> None:
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            raise ParseError(f"row {i} has length {len(row)}, expected {n}")
        for x in row:
            if not (0 <= x < n):
                raise ParseError(f"entry {x} out of range in row {i}")
    for i in range(n):
        if table[0][i] != i or table[i][0] != i:
            raise NotAGroup(f"index 0 is not a two-sided identity at {i}")
    for i in range(n):
        if sorted(table[i]) != list(range(n)) or sorted(
            table[j][i] for j in range(n)
        ) != list(range(n)):
            raise NotAGroup(f"row/column {i} is not a permutation")
    # Light's test: the a with (x*a)*y = x*(a*y) for all x, y are closed
    # under the product, so it is enough to check a set S whose products
    # reach every element.  S is picked greedily: an element joins S only
    # when right multiplication by S has not reached it yet.  The identity
    # passes trivially, so the reached set starts from it.
    reached, seen, gens = [0], {0}, []
    for a in range(n):
        if a in seen:
            continue
        for x in range(n):
            xa = table[x][a]
            for y in range(n):
                if table[xa][y] != table[x][table[a][y]]:
                    raise NotAGroup(f"associativity fails at triple {(x, a, y)}")
        gens.append(a)
        for r in reached:
            for g in gens:
                if table[r][g] not in seen:
                    seen.add(table[r][g])
                    reached.append(table[r][g])
    for a in range(n):
        if all(table[a][b] != 0 for b in range(n)):
            raise NotAGroup(f"element {a} has no inverse")


def direct_product(a: Group, b: Group) -> Group:
    """A x B, the pair (x, y) labelled x * |B| + y; validated like any
    table."""
    n, ta, tb = b.order, a.table, b.table
    table = [
        [ta[i // n][j // n] * n + tb[i % n][j % n] for j in range(a.order * n)]
        for i in range(a.order * n)
    ]
    name = f"{a.name}x{b.name}" if a.name and b.name else None
    return make_group(table, name=name)


def metacyclic(e: int, f: int, k: int, r: int, name: str | None = None) -> Group:
    """G(e, f, k, r) = <tau, sigma | tau^e = 1, sigma tau sigma^-1 = tau^k,
    sigma^f = tau^r>, the shape of every Galois group of a tame extension
    of local fields (Iwasawa, Trans. AMS 80, 1955), on tau^a sigma^b
    labelled a + e*b: (tau^a sigma^b)(tau^c sigma^d) =
    tau^(a + k^b c + r [b + d >= f]) sigma^((b + d) mod f).  Validated like
    any table, so parameters that present no group are refused."""
    if not (e >= 1 and f >= 1 and e * f <= MAX_ORDER):
        raise ParseError(f"G({e}, {f}, {k}, {r}): order e*f is outside 1..{MAX_ORDER}")
    twist = [pow(k, b, e) for b in range(f)]
    table = [
        [
            (a + twist[b] * c + (r if b + d >= f else 0)) % e + e * ((b + d) % f)
            for d in range(f)
            for c in range(e)
        ]
        for b in range(f)
        for a in range(e)
    ]
    return make_group(table, name=name)


def make_group(table, name: str | None = None) -> Group:
    table = tuple(tuple(row) for row in table)
    if not 1 <= len(table) <= MAX_ORDER:
        raise ParseError(f"group order {len(table)} is outside 1..{MAX_ORDER}")
    _validate_table(table)
    g = Group(table, name=name)
    if not is_solvable(g):
        raise NotSolvable(f"group {name or len(table)} is not solvable")
    return g


def parse_int(token: str, where: str) -> int:
    """int(token), refused with a ParseError naming the token."""
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad token {token!r} in {where}") from None


def load_group(text: str) -> Group:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty group file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ParseError(f"bad order line: {lines[0]!r}") from exc
    if n <= 0:
        raise ParseError(f"non-positive order {n}")
    if len(lines) < n + 1:
        raise ParseError(f"expected {n} table rows, found {len(lines) - 1}")
    table = []
    for i in range(1, n + 1):
        where = f"row {i}"
        table.append(tuple(parse_int(tok, where) for tok in lines[i].split()))
    name = None
    if len(lines) > n + 1:
        tail = lines[n + 1]
        if not tail.startswith("name "):
            raise ParseError(f"unexpected trailing line: {tail!r}")
        name = tail[5:].strip()
    return make_group(table, name=name)


def dump_group(g: Group) -> str:
    lines = [str(g.order)]
    lines += [" ".join(str(x) for x in row) for row in g.table]
    if g.name:
        lines.append(f"name {g.name}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subgroup machinery


def subgroup(g: Group, elements, check: bool = False) -> Subgroup:
    elems = tuple(sorted(set(elements)))
    h = Subgroup(g, elems)
    if check:
        if 0 not in h.element_set:
            raise NotASubgroup("missing identity")
        for a in elems:
            if g.inv(a) not in h.element_set:
                raise NotASubgroup(f"not closed under inverse at {a}")
            for b in elems:
                if g.mul(a, b) not in h.element_set:
                    raise NotASubgroup(f"not closed at ({a},{b})")
    return h


def trivial_subgroup(g: Group) -> Subgroup:
    return subgroup(g, [0])


def full_subgroup(g: Group) -> Subgroup:
    return subgroup(g, range(g.order))


def closure(g: Group, gens) -> Subgroup:
    t = g.table
    elems = {0}
    frontier = [0]
    gens = list(gens)
    while frontier:
        x = frontier.pop()
        row = t[x]
        for s in gens:
            for y in (row[s], t[s][x]):
                if y not in elems:
                    elems.add(y)
                    frontier.append(y)
    return Subgroup(g, tuple(sorted(elems)))


@lru_cache(maxsize=None)
def subgroups(g: Group) -> tuple[tuple[Subgroup, ...], ...]:
    """All subgroups, grouped into conjugacy classes.

    Classes are ordered by (order, representative element tuple); members
    within a class are sorted by element tuple.  Every subgroup is reached
    by adjoining one element at a time to a known subgroup H, closing only
    H's generator tuple and the new element.  Since <H, x> = <H, xh> for h
    in H, one x per left coset xH is tried.
    """
    t = g.table
    trivial = trivial_subgroup(g).elements
    found = {trivial}
    frontier = [(trivial, ())]
    while frontier:
        elems, gens = frontier.pop()
        covered = set(elems)
        for x in range(1, g.order):
            if x in covered:
                continue
            row = t[x]
            covered.update([row[h] for h in elems])
            bigger = closure(g, gens + (x,)).elements
            if bigger not in found:
                found.add(bigger)
                frontier.append((bigger, gens + (x,)))
    all_subs = {elems: Subgroup(g, elems) for elems in found}
    classes = []
    seen = set()
    for elems in sorted(found, key=lambda e: (len(e), e)):
        if elems in seen:
            continue
        orbit = {
            conjugate_subgroup(all_subs[elems], x).elements
            for x in range(g.order)
        }
        seen |= orbit
        classes.append(tuple(Subgroup(g, e) for e in sorted(orbit)))
    return tuple(classes)


def all_subgroups(g: Group) -> list[Subgroup]:
    return [h for cls in subgroups(g) for h in cls]


def subgroup_class_reps(g: Group) -> list[Subgroup]:
    return [cls[0] for cls in subgroups(g)]


def conjugate_subgroup(h: Subgroup, g_elt: int) -> Subgroup:
    row = h.parent.conj_table[g_elt]
    return Subgroup(h.parent, tuple(sorted([row[x] for x in h.elements])))


def _stable_under(rows, h: Subgroup) -> bool:
    hset = h.element_set
    return all(hset.issuperset([row[x] for x in h.elements]) for row in rows)


def is_normal(g: Group, h: Subgroup) -> bool:
    return _stable_under(g.conj_table, h)


def is_normal_in(b: Subgroup, h: Subgroup) -> bool:
    """Whether every element of B normalises H."""
    return _stable_under(map(b.parent.conj_table.__getitem__, b.elements), h)


def centralizer(g: Group, h: Subgroup) -> Subgroup:
    return Subgroup(
        g,
        tuple(
            x
            for x, row in enumerate(g.conj_table)
            if all(row[y] == y for y in h.elements)
        ),
    )


def center(g: Group) -> Subgroup:
    return centralizer(g, full_subgroup(g))


def intersection(h: Subgroup, k: Subgroup) -> Subgroup:
    return subgroup(h.parent, h.element_set & k.element_set)


def product_set(h: Subgroup, k: Subgroup) -> Subgroup:
    """The set HK as a Subgroup (caller guarantees it is one, e.g. one
    factor normalizes the other)."""
    t = h.parent.table
    return subgroup(h.parent, {t[a][b] for a in h.elements for b in k.elements})


def _core_under(g: Group, rows, h: Subgroup) -> Subgroup:
    elems = set(h.element_set)
    for row in rows:
        elems.intersection_update([row[x] for x in h.elements])
        if len(elems) == 1:
            break
    return subgroup(g, elems)


def core(g: Group, h: Subgroup) -> Subgroup:
    return _core_under(g, g.conj_table, h)


def core_in(b: Subgroup, h: Subgroup) -> Subgroup:
    """The largest subgroup of H normalised by every element of B."""
    rows = map(b.parent.conj_table.__getitem__, b.elements)
    return _core_under(b.parent, rows, h)


def commutator_subgroup(h: Subgroup, k: Subgroup) -> Subgroup:
    g = h.parent
    t, inv = g.table, g.inverses
    comms = {t[t[a][b]][t[inv[a]][inv[b]]] for a in h.elements for b in k.elements}
    return closure(g, comms)


def derived_subgroup(g: Group) -> Subgroup:
    full = full_subgroup(g)
    return commutator_subgroup(full, full)


def derived_series(g: Group) -> list[Subgroup]:
    series = [full_subgroup(g)]
    while True:
        nxt = commutator_subgroup(series[-1], series[-1])
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def is_solvable(g: Group) -> bool:
    return derived_series(g)[-1].order == 1


@lru_cache(maxsize=None)
def normal_subgroups(g: Group) -> tuple[Subgroup, ...]:
    return tuple(
        cls[0] for cls in subgroups(g) if len(cls) == 1 and is_normal(g, cls[0])
    )


def minimal_normal_subgroups(g: Group) -> list[Subgroup]:
    normals = [n for n in normal_subgroups(g) if n.order > 1]
    return [
        n
        for n in normals
        if not any(
            m.order > 1 and m.order < n.order and n.contains_subgroup(m)
            for m in normals
        )
    ]


@lru_cache(maxsize=None)
def maximal_subgroups(g: Group) -> tuple[Subgroup, ...]:
    proper = [h for h in all_subgroups(g) if h.order < g.order]
    return tuple(
        h
        for h in proper
        if not any(
            k.order > h.order and k.contains_subgroup(h) for k in proper
        )
    )


def fitting_subgroup(g: Group) -> Subgroup:
    """Join of the p-cores O_p(G): the largest nilpotent normal subgroup."""
    result = trivial_subgroup(g)
    for p, _ in factorize(g.order):
        p_core = trivial_subgroup(g)
        for n in normal_subgroups(g):
            if all(r == p for r, _ in factorize(n.order)):
                p_core = product_set(p_core, n)
        result = product_set(result, p_core)
    return result


def is_nilpotent(g: Group) -> bool:
    return fitting_subgroup(g).order == g.order


# ---------------------------------------------------------------------------
# quotients


@lru_cache(maxsize=None)
def quotient(g: Group, n: Subgroup) -> QuotientMap:
    if not is_normal(g, n):
        raise NotNormal(f"{n} is not normal in {g}")
    # cosets labeled by least element, sorted by that least element
    coset_of = [None] * g.order
    cosets = []
    for x in range(g.order):
        if coset_of[x] is None:
            members = sorted(g.mul(x, h) for h in n.elements)
            idx = len(cosets)
            cosets.append(members)
            for y in members:
                coset_of[y] = idx
    order = sorted(range(len(cosets)), key=lambda i: cosets[i][0])
    relabel = {old: new for new, old in enumerate(order)}
    projection = tuple(relabel[coset_of[x]] for x in range(g.order))
    reps = [cosets[old][0] for old in order]
    table = tuple(
        tuple(projection[g.mul(reps[a], reps[b])] for b in range(len(reps)))
        for a in range(len(reps))
    )
    qname = None
    if g.name:
        qname = f"{g.name}/{'.'.join(map(str, n.elements))}"
    q = Group(table, name=qname)
    return QuotientMap(source=g, kernel=n, quotient=q, projection=projection)
