"""One-dimensional characters, class functions and the character table.

Characters are stored as exponent vectors: chi(x) = zeta_m^k with
m = exp(H/[H,H]) fixed per subgroup, which makes equality and canonical
ordering cheap.  Class functions carry exact cyclotomic values per
conjugacy class of their (sub)group.

The irreducible characters live in an integer character table: values in
Z[x]/(x^e - 1) for the group exponent e, with induction, inner products,
the zero test and decompositions done by class counts and the integer
trace form (see CharacterTable).  They are converted to cyclotomic class
functions and sorted once, on first use of that order.  This is the one
way the package induces and decomposes; the coset formula and Cyclotomic
inner products are test oracles (`tests/oracles.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm

from .cyclotomic import Cyclotomic, trace_row
from .errors import CertificateFailed, DomainMismatch, NotASubgroup, NotMonomial
from .groups import (
    Group,
    QuotientMap,
    Subgroup,
    all_subgroups,
    closure,
    derived_subgroup,
    full_subgroup,
    quotient,
    subgroup_class_reps,
)


# ---------------------------------------------------------------------------
# abelian structure


@lru_cache(maxsize=None)
def abelian_basis(a: Group) -> tuple[tuple[int, int], ...]:
    """Independent generators (element, order) with A = prod <g_i> direct.

    The first generator has maximal order (= the exponent of A); each is
    the least element among those of maximal order in the remaining
    complement, so the decomposition is deterministic.
    """
    if a.order == 1:
        return ()
    best = min(
        range(a.order), key=lambda x: (-a.element_order(x), x)
    )
    d = a.element_order(best)
    cyc = closure(a, [best])
    if cyc.order == a.order:
        return ((best, d),)
    complement = None
    for h in all_subgroups(a):
        if h.order * d == a.order and len(h.element_set & cyc.element_set) == 1:
            complement = h
            break
    if complement is None:  # cannot happen: maximal-order cyclic splits off
        raise CertificateFailed(
            "no complement for a maximal cyclic factor", witness=(a, best)
        )
    rest = abelian_basis(complement.as_group)
    return ((best, d),) + tuple(
        (complement.elements[g], o) for g, o in rest
    )


@lru_cache(maxsize=None)
def _abelian_coordinates(a: Group) -> dict[int, tuple[int, ...]]:
    """Coordinates of every element in the abelian_basis decomposition."""
    basis = abelian_basis(a)
    # iterate over the direct product of cyclic factors
    elements = [(0, tuple(0 for _ in basis))]
    for i, (gen, order) in enumerate(basis):
        new_elements = []
        for x, coord in elements:
            cur = x
            for e in range(order):
                c = list(coord)
                c[i] = e
                new_elements.append((cur, tuple(c)))
                cur = a.mul(cur, gen)
        elements = new_elements
    coords = dict(elements)
    if len(elements) != a.order or len(coords) != a.order:
        raise CertificateFailed(
            "the abelian basis does not give every element once",
            witness=(a, basis),
        )
    return coords


# ---------------------------------------------------------------------------
# characters


def _require_same_domain(a: Subgroup, b: Subgroup, what: str) -> None:
    """Refuse, by type, operands on different domains (identity first, so
    the common case costs one comparison)."""
    if a is not b and a != b:
        raise DomainMismatch(f"{what}: {a} and {b} are different domains")


@dataclass(frozen=True)
class Character:
    """A 1-dimensional character of `domain`: chi(x) = zeta_modulus^k with
    k the exponent aligned with x in domain.elements.

    The hash is computed once, at construction, and equals the frozen
    dataclass hash of (domain, modulus, exponents), so set and dict orders
    are those of a plain dataclass; equality is the dataclass equality."""

    domain: Subgroup
    modulus: int
    exponents: tuple[int, ...]  # aligned with domain.elements

    def __post_init__(self):
        object.__setattr__(
            self, "_hash", hash((self.domain, self.modulus, self.exponents))
        )

    def __hash__(self):
        return self._hash

    def value(self, x: int) -> Cyclotomic:
        return Cyclotomic.root_of_unity(self.modulus, self.exponent_of(x))

    def exponent_of(self, x: int) -> int:
        return self.exponents[self.domain.position[x]]

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def order(self) -> int:
        g = self.modulus
        for e in self.exponents:
            g = gcd(g, e)
        return self.modulus // g if self.modulus else 1

    def mul(self, other: "Character") -> "Character":
        _require_same_domain(self.domain, other.domain, "character product")
        m = lcm(self.modulus, other.modulus)
        exps = tuple(
            (a * (m // self.modulus) + b * (m // other.modulus)) % m
            for a, b in zip(self.exponents, other.exponents)
        )
        return character(self.domain, m, exps)

    def inverse(self) -> "Character":
        return character(
            self.domain,
            self.modulus,
            tuple((-e) % self.modulus for e in self.exponents),
        )

    def power(self, n: int) -> "Character":
        return character(
            self.domain,
            self.modulus,
            tuple((e * n) % self.modulus for e in self.exponents),
        )

    def restrict(self, k: Subgroup) -> "Character":
        if not self.domain.contains_subgroup(k):
            raise NotASubgroup(f"{k} not contained in {self.domain}")
        pos = self.domain.position
        exps = tuple(self.exponents[pos[x]] for x in k.elements)
        return character(k, self.modulus, exps)

    def serialize(self) -> str:
        elems = " ".join(str(x) for x in self.domain.elements)
        exps = " ".join(str(e) for e in self.exponents)
        return f"({elems}) : ({exps}, {self.modulus})"

    def sort_key(self):
        return self.exponents

    def __repr__(self):
        return f"Char[{self.domain.elements}; {self.exponents} mod {self.modulus}]"


def canonical_modulus(h: Subgroup) -> int:
    """exp(H/[H,H])."""
    basis = abelian_basis(_abelianization(h).quotient)
    return basis[0][1] if basis else 1


@lru_cache(maxsize=None)
def _abelianization(h: Subgroup) -> QuotientMap:
    habs = h.as_group
    return quotient(habs, derived_subgroup(habs))


def character(h: Subgroup, modulus: int, exponents) -> Character:
    """Build a character with the canonical modulus exp(H/[H,H])."""
    exponents = tuple(exponents)
    m0 = canonical_modulus(h)
    canon = []
    for e in exponents:
        e %= modulus
        num = e * m0
        if num % modulus:
            raise ValueError(
                f"value order does not divide exp(H^ab)={m0} (e={e}, m={modulus})"
            )
        canon.append((num // modulus) % m0)
    return Character(domain=h, modulus=m0, exponents=tuple(canon))


def trivial_character(h: Subgroup) -> Character:
    return Character(h, canonical_modulus(h), tuple(0 for _ in h.elements))


@lru_cache(maxsize=None)
def characters_of(h: Subgroup) -> tuple[Character, ...]:
    """All 1-dimensional characters, sorted by exponent tuple."""
    qm = _abelianization(h)
    a = qm.quotient
    basis = abelian_basis(a)
    coords = _abelian_coordinates(a)
    m = basis[0][1] if basis else 1
    out = []

    def rec(i, chosen):
        if i == len(basis):
            exps = []
            for pos in range(h.order):
                c = coords[qm.project(pos)]
                k = sum(
                    chosen[j] * e * (m // basis[j][1]) for j, e in enumerate(c)
                ) % m
                exps.append(k)
            out.append(Character(h, m, tuple(exps)))
            return
        for c in range(basis[i][1]):
            rec(i + 1, chosen + [c])

    rec(0, [])
    if len(out) != a.order:
        raise CertificateFailed(
            f"{len(out)} characters for an abelianization of order {a.order}",
            witness=(h, basis),
        )
    return tuple(sorted(out, key=lambda ch: ch.sort_key()))


def conjugate_character(chi: Character, g: int) -> Character:
    """Character on gHg^{-1} with value at x equal to chi(g^{-1} x g).

    Conjugation is an isomorphism H -> gHg^{-1}, so chi's canonical
    modulus is also the image's."""
    parent = chi.domain.parent
    row = parent.conj_table[g]
    elements, exponents = zip(
        *sorted(zip([row[x] for x in chi.domain.elements], chi.exponents))
    )
    return Character(Subgroup(parent, elements), chi.modulus, exponents)


def conjugation_sources(c: Subgroup, elements) -> dict[int, list[int]]:
    """For each g of `elements` (each normalising C), the positions in
    C.elements of g^-1 y g for y in C.elements.

    The conjugate of a character mu of C by g has, at each y, mu's value at
    g^-1 y g: its exponent tuple is mu's read at these positions, so orbits
    and stabilisers can be taken on exponent tuples."""
    conj, inv, pos = c.parent.conj_table, c.parent.inverses, c.position
    return {g: [pos[conj[inv[g]][y]] for y in c.elements] for g in elements}


def extensions_of(eta: Character, h: Subgroup) -> list[Character]:
    """All characters of H restricting to eta on eta.domain <= H."""
    return [
        chi for chi in characters_of(h) if chi.restrict(eta.domain) == eta
    ]


def characters_trivial_on(b: Subgroup, k: Subgroup) -> list[Character]:
    """(B/K)^*: the characters of B that kill K."""
    return [
        chi
        for chi in characters_of(b)
        if all(chi.exponent_of(x) == 0 for x in k.elements)
    ]


# ---------------------------------------------------------------------------
# class functions


@lru_cache(maxsize=None)
def subgroup_classes(h: Subgroup) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes of H (as parent element indices)."""
    conj = h.parent.conj_table
    seen = set()
    classes = []
    for x in h.elements:
        if x in seen:
            continue
        orbit = sorted({conj[g][x] for g in h.elements})
        seen.update(orbit)
        classes.append(tuple(orbit))
    return tuple(sorted(classes, key=lambda c: c[0]))


@dataclass(frozen=True)
class ClassFunction:
    domain: Subgroup
    values: tuple[Cyclotomic, ...]  # aligned with subgroup_classes(domain)

    @property
    def group(self) -> Group:
        return self.domain.parent

    def value_at(self, x: int) -> Cyclotomic:
        for cls, v in zip(subgroup_classes(self.domain), self.values):
            if x in cls:
                return v
        raise KeyError(f"element {x} not in domain")

    def dimension(self) -> Fraction:
        return self.values[0].as_rational()

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def __add__(self, other):
        _require_same_domain(self.domain, other.domain, "class function sum")
        return ClassFunction(
            self.domain,
            tuple(a + b for a, b in zip(self.values, other.values)),
        )

    def __sub__(self, other):
        _require_same_domain(self.domain, other.domain, "class function difference")
        return ClassFunction(
            self.domain,
            tuple(a - b for a, b in zip(self.values, other.values)),
        )

    def __neg__(self):
        return ClassFunction(self.domain, tuple(-v for v in self.values))

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            _require_same_domain(self.domain, other.domain, "class function product")
            return ClassFunction(
                self.domain,
                tuple(a * b for a, b in zip(self.values, other.values)),
            )
        return ClassFunction(
            self.domain, tuple(v * other for v in self.values)
        )

    __rmul__ = __mul__

    def sort_key(self):
        return tuple(str((s.m, s.coeffs)) for s in map(Cyclotomic.shrink, self.values))

    def __repr__(self):
        return f"ClassFunction({self.values})"


# ---------------------------------------------------------------------------
# the integer character table
#
# Every character value of a group of exponent e lies in Z[zeta_e], held
# here as an integer vector mod x^e - 1 (not reduced mod Phi_e, so not
# unique).  A class function is flattened to one vector over the pairs
# (class, power of zeta_e).  Inner products go through the trace form:
#     |G| Tr <f, psi> = sum_classes |cl| sum_{a,b} f_a psi_b c_e(a - b),
# with c_e(k) = Tr(zeta_e^k) the Ramanujan sum, so <f, psi> = Tr/phi(e)
# whenever it is rational.  Every conjugate of <h, h> is a sum of squared
# absolute values, so Tr <h, h> is positive unless h = 0: it decides the
# zero test exactly.


def _dot(u, v) -> int:
    return sum(x * y for x, y in zip(u, v) if x)


def _dual_row(vec, sizes, trace) -> list[int]:
    """W_f at each (class, a): |cl| Tr(zeta^a conj f(cl)), so that
    f' . W_f = |G| Tr <f', f>."""
    e = len(trace)
    out = []
    for c, size in enumerate(sizes):
        terms = [(b, x) for b, x in enumerate(vec[c * e : (c + 1) * e]) if x]
        out.extend(
            size * sum(x * trace[(a - b) % e] for b, x in terms)
            for a in range(e)
        )
    return out


class CharacterTable:
    """The irreducible characters of a group as integer vectors.

    `vectors[i]` is an irreducible flattened over (class, power of
    zeta_e) and `duals[i]` its dual row, so that <f, psi_i> =
    f . duals[i] / scale with scale = |G| phi(e).  The rows stay in the
    order `_irreducibles` finds them: a zero test (an induced character's
    coordinates, phi of a relation) reads no order.  The canonical order,
    by (dimension, sort_key), is built on first use: `order[k]` is the row
    of the k-th irreducible in it, and `characters` are the irreducibles
    as ClassFunctions in that order; `coordinates` answers in it.
    """

    def __init__(self, g: Group):
        self.group = g
        self.exponent = lcm(*(g.element_order(cls[0]) for cls in g.conjugacy_classes))
        self.sizes = tuple(len(cls) for cls in g.conjugacy_classes)
        self.trace = trace_row(self.exponent)
        self.scale = g.order * self.trace[0]
        vectors, duals = self._irreducibles()
        self.vectors = tuple(vectors)
        self.duals = tuple(duals)

    @cached_property
    def _functions(self) -> tuple[ClassFunction, ...]:
        """The rows as ClassFunctions on the whole group, in row order."""
        e, full = self.exponent, full_subgroup(self.group)
        return tuple(
            ClassFunction(
                full,
                tuple(
                    Cyclotomic(e, vec[c * e : (c + 1) * e])
                    for c in range(len(self.sizes))
                ),
            )
            for vec in self.vectors
        )

    @cached_property
    def order(self) -> tuple[int, ...]:
        funcs = self._functions
        return tuple(
            sorted(
                range(len(funcs)),
                key=lambda i: (funcs[i].dimension(), funcs[i].sort_key()),
            )
        )

    @cached_property
    def characters(self) -> tuple[ClassFunction, ...]:
        return tuple(self._functions[i] for i in self.order)

    def _induced_counts(self, chi: Character, label=None) -> dict[int, int]:
        """|H| Ind_H^G(chi), sparse over (class, a): each y in H adds
        |C_G(y)| at zeta_e^(k(y) e/m).  `label` maps the elements of H to
        this table's group when H lives in a larger parent."""
        e = self.exponent
        class_of = self.group.class_of
        step = e // chi.modulus
        counts: dict[int, int] = {}
        for y, k in zip(chi.domain.elements, chi.exponents):
            c = class_of[y if label is None else label[y]]
            key = c * e + k * step
            counts[key] = counts.get(key, 0) + self.group.order // self.sizes[c]
        return counts

    def induced_coordinates(self, chi: Character, label=None) -> list[int]:
        """Irreducible coordinates of Ind_H^G(chi), exactly in integers,
        in row order."""
        counts = self._induced_counts(chi, label).items()
        den = chi.domain.order * self.scale
        out = []
        for dual in self.duals:
            q, r = divmod(sum(dual[i] * n for i, n in counts), den)
            if r:
                raise CertificateFailed(
                    "induced character has a non-integral coordinate",
                    witness=chi,
                )
            out.append(q)
        return out

    def coordinates(self, values) -> tuple[Fraction, ...]:
        """Irreducible coordinates of the class function with these values,
        in the canonical order.

        Raises ValueError when a coordinate is not rational: a value lies
        outside Q(zeta_e), or the guard Tr <h, h> = 0 for
        h = f - sum c_i chi_i fails.
        """
        e = self.exponent
        values = [v if e % v.m == 0 else v.shrink() for v in values]
        if any(e % v.m for v in values):
            raise ValueError("class function has values outside Q(zeta_e)")
        den = lcm(*(c.denominator for v in values for c in v.coeffs))
        vec = [0] * (len(values) * e)
        for c, v in enumerate(values):
            step = e // v.m
            for k, x in enumerate(v.coeffs):
                vec[c * e + k * step] += int(x * den)
        nums = [_dot(vec, dual) for dual in self.duals]
        rest = [self.scale * x for x in vec]
        for n, psi in zip(nums, self.vectors):
            if n:
                rest = [x - n * y for x, y in zip(rest, psi)]
        if any(rest) and _dot(rest, _dual_row(rest, self.sizes, self.trace)):
            raise ValueError("class function has non-rational irreducible coordinates")
        return tuple(Fraction(nums[i], den * self.scale) for i in self.order)

    def _irreducibles(self):
        """Decompose inductions of 1-dimensional characters of subgroups,
        largest subgroups first.

        At induction dimension d every unknown constituent has dimension
        exactly d (anything smaller is itself monomial of smaller induction
        dimension, hence already found), so each nonzero remainder is a
        single new irreducible.  This is complete exactly for M-groups (every
        catalog group is one); any other group is refused with NotMonomial.
        """
        vectors: list[list[int]] = []
        duals: list[list[int]] = []
        reps = sorted(subgroup_class_reps(self.group), key=lambda h: -h.order)
        for h in reps:
            for chi in characters_of(h):
                if len(vectors) == len(self.sizes):
                    return vectors, duals
                f = [0] * (len(self.sizes) * self.exponent)
                for i, n in self._induced_counts(chi).items():
                    f[i], r = divmod(n, h.order)
                    if r:
                        raise CertificateFailed(
                            "induced character is not integral", witness=(h, chi)
                        )
                for vec, dual in zip(vectors, duals):
                    coeff, r = divmod(_dot(f, dual), self.scale)
                    if r:
                        raise CertificateFailed(
                            "non-integral multiplicity", witness=(h, chi)
                        )
                    if coeff:
                        f = [x - coeff * y for x, y in zip(f, vec)]
                dual = _dual_row(f, self.sizes, self.trace)
                norm = _dot(f, dual)
                if norm:
                    if norm != self.scale:
                        raise NotMonomial(
                            f"{self.group!r}: remainder is not a single irreducible"
                        )
                    vectors.append(f)
                    duals.append(dual)
        if len(vectors) != len(self.sizes):
            raise NotMonomial(f"{self.group!r}: irreducible search incomplete")
        return vectors, duals


@lru_cache(maxsize=None)
def character_table(g: Group) -> CharacterTable:
    return CharacterTable(g)


def irreducible_characters(g: Group) -> tuple[ClassFunction, ...]:
    """All irreducible characters, sorted by (dimension, sort_key)."""
    return character_table(g).characters


def decompose(f: ClassFunction) -> tuple[Fraction, ...]:
    """Coordinates of f in the irreducible basis of its full group."""
    g = f.group
    if f.domain != full_subgroup(g):
        raise NotASubgroup(f"{f.domain} is not the whole group")
    return character_table(g).coordinates(f.values)
