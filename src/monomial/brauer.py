"""The free ring on monomial pairs and its character-theoretic shadow.

An element of R+(N<=Omega) is an integer combination of conjugacy classes
[H, chi] of pairs (subgroup, 1-dimensional character) with H >= N.  The
map phi sends [H, chi] to the induced character Ind_H^Omega(chi); its
kernel is computed exactly by integer linear algebra.  The matrix of phi
(irreducible coordinates of each induced pair) comes from the integer
character table of `characters`: class counts of H dotted with the dual
rows of the trace form, with no cyclotomic arithmetic.  `brauer_map`
sums the same class counts as integer vectors in powers of zeta_e and
builds one exact cyclotomic value per class of the ambient at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import lcm

from . import intlin
from .characters import (
    Character,
    ClassFunction,
    character,
    character_table,
    characters_of,
    conjugate_character,
    conjugation_sources,
    decompose,
    subgroup_classes,
    trivial_character,
)
from .cyclotomic import Cyclotomic
from .errors import CNotAbelianNormal, CertificateFailed, DomainMismatch, NoSolution
from .groups import (
    Group,
    QuotientMap,
    Subgroup,
    full_subgroup,
    intersection,
    is_normal,
    is_normal_in,
    product_set,
    subgroup,
    subgroup_class_reps,
    trivial_subgroup,
)


# ---------------------------------------------------------------------------
# pair classes


@dataclass(frozen=True)
class PairClass:
    """Conjugacy class of (H, chi) under the ambient subgroup, stored by
    its canonical representative (minimal subgroup elements, then minimal
    character exponents, over all conjugates).

    The hash is computed once, at construction, and equals the frozen
    dataclass hash of (ambient, subgroup, char); equality is the dataclass
    equality."""

    ambient: Subgroup
    subgroup: Subgroup
    char: Character

    def __post_init__(self):
        object.__setattr__(
            self, "_hash", hash((self.ambient, self.subgroup, self.char))
        )

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return (self.subgroup.order, self.subgroup.elements, self.char.exponents)

    def serialize(self) -> str:
        elems = " ".join(str(x) for x in self.subgroup.elements)
        exps = " ".join(str(e) for e in self.char.exponents)
        return f"[{elems} | {exps}]"

    def __repr__(self):
        return self.serialize()


@lru_cache(maxsize=None)
def pair_class(h: Subgroup, chi: Character, ambient: Subgroup | None = None) -> PairClass:
    if ambient is None:
        ambient = full_subgroup(h.parent)
    _require_within(ambient, h, "pair class")
    best = None
    for g in ambient.elements:
        cc = conjugate_character(chi, g)
        key = (cc.domain.elements, cc.exponents)
        if best is None or key < best[0]:
            best = (key, cc)
    return PairClass(ambient=ambient, subgroup=best[1].domain, char=best[1])


def _require_within(outer: Subgroup, inner: Subgroup, what: str) -> None:
    """Refuse, by type, an `inner` that is not a subgroup of `outer`."""
    if inner.parent != outer.parent or not outer.contains_subgroup(inner):
        raise DomainMismatch(f"{what}: {inner} is not a subgroup of {outer}")


# ---------------------------------------------------------------------------
# R+ elements


@dataclass(frozen=True)
class RPlusElement:
    ambient: Subgroup
    # the normal subgroup N every H must contain; bookkeeping only, not
    # part of the mathematical identity of the element
    lower: Subgroup = field(compare=False)
    coefficients: tuple[tuple[PairClass, int], ...]  # sorted, nonzero

    def coefficient(self, cls: PairClass) -> int:
        for c, n in self.coefficients:
            if c == cls:
                return n
        return 0

    def is_zero(self) -> bool:
        return not self.coefficients

    def support(self) -> tuple[PairClass, ...]:
        return tuple(c for c, _ in self.coefficients)

    def __add__(self, other):
        if self.ambient != other.ambient:
            raise DomainMismatch(f"elements over {self.ambient} and {other.ambient}")
        lower = (
            self.lower
            if other.lower.contains_subgroup(self.lower)
            else other.lower
        )
        items = list(self.coefficients) + list(other.coefficients)
        return rplus(self.ambient, lower, items)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __mul__(self, n: int):
        return rplus(
            self.ambient, self.lower, [(c, k * n) for c, k in self.coefficients]
        )

    __rmul__ = __mul__

    def serialize(self) -> str:
        group_name = self.ambient.parent.name or "G"
        lower = " ".join(str(x) for x in self.lower.elements)
        lines = [f"# group {group_name} ambient ({' '.join(str(x) for x in self.ambient.elements)}) N ({lower})"]
        for cls, n in self.coefficients:
            lines.append(f"{n} * {cls.serialize()}")
        return "\n".join(lines)

    def __repr__(self):
        if self.is_zero():
            return "0"
        return " + ".join(f"{n}*{c!r}" for c, n in self.coefficients)


def rplus(ambient: Subgroup, lower: Subgroup, items) -> RPlusElement:
    """Collect (PairClass, int) pairs into a normalized element."""
    return rplus_element(ambient, lower, canonical_coefficients(items))


def canonical_coefficients(items) -> tuple[tuple[PairClass, int], ...]:
    """The (PairClass, int) pairs summed per class, zeros dropped, in the
    canonical order of the classes."""
    acc: dict[PairClass, int] = {}
    for cls, n in items:
        acc[cls] = acc.get(cls, 0) + n
    return tuple(
        sorted(
            ((c, n) for c, n in acc.items() if n),
            key=lambda item: item[0].sort_key(),
        )
    )


def rplus_element(ambient: Subgroup, lower: Subgroup, coeffs) -> RPlusElement:
    """The element with canonical coefficients `coeffs`, refused when a
    pair's subgroup does not contain `lower`."""
    for cls, _ in coeffs:
        if not cls.subgroup.contains_subgroup(lower):
            raise DomainMismatch(f"pair {cls} lies below the lower bound {lower}")
    return RPlusElement(ambient=ambient, lower=lower, coefficients=coeffs)


def generator(
    h: Subgroup,
    chi: Character,
    ambient: Subgroup | None = None,
    lower: Subgroup | None = None,
) -> RPlusElement:
    if ambient is None:
        ambient = full_subgroup(h.parent)
    if lower is None:
        lower = trivial_subgroup(h.parent)
    return rplus(ambient, lower, [(pair_class(h, chi, ambient), 1)])


def zero_rplus(ambient: Subgroup, lower: Subgroup | None = None) -> RPlusElement:
    if lower is None:
        lower = trivial_subgroup(ambient.parent)
    return RPlusElement(ambient=ambient, lower=lower, coefficients=())


@lru_cache(maxsize=None)
def pair_classes(ambient: Subgroup, lower: Subgroup) -> tuple[PairClass, ...]:
    """All pair classes [H, chi] with lower <= H <= ambient, canonical order."""
    seen = {}
    for h in _subgroup_reps_within(ambient):
        if not h.contains_subgroup(lower):
            continue
        for chi in characters_of(h):
            cls = pair_class(h, chi, ambient)
            seen[cls.sort_key()] = cls
    return tuple(seen[k] for k in sorted(seen))


@lru_cache(maxsize=None)
def _subgroup_reps_within(ambient: Subgroup) -> tuple[Subgroup, ...]:
    parent = ambient.parent
    if ambient.order == parent.order:
        return tuple(subgroup_class_reps(parent))
    inner = ambient.as_group
    out = []
    for h in subgroup_class_reps(inner):
        out.append(subgroup(parent, [ambient.elements[x] for x in h.elements]))
    return tuple(out)


# ---------------------------------------------------------------------------
# the map phi


def brauer_map(x: RPlusElement) -> ClassFunction:
    """phi(x) = sum of n * Ind_H^ambient(chi), as a class function on the
    ambient: the sum of n |H|^-1 times the class counts of each pair over
    (class, power of zeta_e), exactly in integers."""
    table, label = _ambient_table(x.ambient)
    e = table.exponent
    total = [0] * (len(table.sizes) * e)
    for cls, n in x.coefficients:
        h = cls.subgroup.order
        for i, count in table._induced_counts(cls.char, label).items():
            q, r = divmod(count, h)
            if r:
                raise CertificateFailed(
                    "induced character is not integral", witness=cls
                )
            total[i] += n * q
    return ClassFunction(
        x.ambient,
        tuple(Cyclotomic(e, total[i : i + e]) for i in range(0, len(total), e)),
    )


def inflate(f: ClassFunction, qm: QuotientMap) -> ClassFunction:
    """Pull a class function on the quotient back to the source group."""
    source = full_subgroup(qm.source)
    values = tuple(
        f.value_at(qm.project(cls[0])) for cls in subgroup_classes(source)
    )
    return ClassFunction(source, values)


# ---------------------------------------------------------------------------
# multiplication (double cosets)


def _double_cosets(ambient: Subgroup, h1: Subgroup, h2: Subgroup):
    t = ambient.parent.table
    seen = set()
    reps = []
    for g in ambient.elements:
        if g in seen:
            continue
        coset = {t[t[a][g]][b] for a in h1.elements for b in h2.elements}
        seen.update(coset)
        reps.append(min(coset))
    return reps


def multiply(x: RPlusElement, y: RPlusElement) -> RPlusElement:
    if x.ambient != y.ambient:
        raise DomainMismatch(f"elements over {x.ambient} and {y.ambient}")
    parent = x.ambient.parent
    lower = intersection(x.lower, y.lower)
    items = []
    for c1, n1 in x.coefficients:
        for c2, n2 in y.coefficients:
            for g in _double_cosets(x.ambient, c1.subgroup, c2.subgroup):
                moved = conjugate_character(c1.char, parent.inv(g))
                meet = intersection(moved.domain, c2.subgroup)
                chi = moved.restrict(meet).mul(c2.char.restrict(meet))
                items.append((pair_class(meet, chi, x.ambient), n1 * n2))
    return rplus(x.ambient, lower, items)


def one_rplus(ambient: Subgroup) -> RPlusElement:
    return generator(ambient, trivial_character(ambient), ambient)


# ---------------------------------------------------------------------------
# induction and restriction of R+ elements


def induce_rplus(x: RPlusElement, target: Subgroup) -> RPlusElement:
    """Ind: R+(<=B) -> R+(<=T): reinterpret each class in the larger ambient."""
    _require_within(target, x.ambient, "induction")
    items = [
        (pair_class(cls.subgroup, cls.char, target), n)
        for cls, n in x.coefficients
    ]
    return rplus(target, x.lower, items)


def restrict_rplus(x: RPlusElement, h: Subgroup) -> RPlusElement:
    """Mackey restriction: Res_H([H1,chi]) over double cosets H\\ambient/H1."""
    _require_within(x.ambient, h, "restriction")
    parent = x.ambient.parent
    items = []
    for cls, n in x.coefficients:
        for g in _double_cosets(x.ambient, h, cls.subgroup):
            moved = conjugate_character(cls.char, g)
            meet = intersection(h, moved.domain)
            items.append((pair_class(meet, moved.restrict(meet), h), n))
    return rplus(h, trivial_subgroup(parent), items)


# ---------------------------------------------------------------------------
# the projector


@dataclass(frozen=True)
class OrbitData:
    base: tuple[Subgroup, Character]
    c: Subgroup
    s: tuple[Character, ...]
    t: tuple[Character, ...]
    stabilizers: tuple[Subgroup, ...]  # aligned with t


def _require_abelian_normal(ambient: Subgroup, c: Subgroup) -> None:
    if not c.as_group.is_abelian():
        raise CNotAbelianNormal(f"{c} is not abelian")
    if not is_normal_in(ambient, c):
        raise CNotAbelianNormal(f"{c} is not normal in the ambient group")


def orbit_data(
    h: Subgroup, chi: Character, c: Subgroup, ambient: Subgroup
) -> OrbitData:
    """S(chi), the characters of C that agree with chi on H & C, split
    into H-conjugation orbits: t holds the least character of each orbit
    (in the sorted order of `characters_of`) and stabilizers its
    stabiliser in H.  C must be abelian and normal in the ambient, which
    contains H.

    Conjugation by each h is read once as a permutation of C's positions
    (`conjugation_sources`); orbits and stabilisers are taken on exponent
    tuples, so Characters and Subgroups are built only for what is returned.
    """
    _require_abelian_normal(ambient, c)
    meet = intersection(h, c)
    target = chi.restrict(meet)
    s = tuple(
        mu for mu in characters_of(c) if mu.restrict(meet) == target
    )
    if len(s) * meet.order != c.order:
        raise CertificateFailed(
            f"S(chi) has {len(s)} characters, not (C : H & C) = "
            f"{c.order // meet.order}",
            witness=s,
        )
    s_exps = {mu.exponents for mu in s}
    source = conjugation_sources(c, h.elements)
    reps, stabs = [], []
    seen = set()
    for mu in s:  # characters_of is sorted, so reps are minimal in orbit
        exps = mu.exponents
        if exps in seen:
            continue
        moved = [(g, tuple([exps[i] for i in src])) for g, src in source.items()]
        orbit = {m for _, m in moved}
        if not orbit <= s_exps:
            raise CertificateFailed(
                f"the H-orbit of {exps} leaves S(chi)",
                witness=sorted(orbit - s_exps),
            )
        seen.update(orbit)
        reps.append(mu)
        stabs.append(subgroup(h.parent, [g for g, m in moved if m == exps]))
    return OrbitData(
        base=(h, chi), c=c, s=s, t=tuple(reps), stabilizers=tuple(stabs)
    )


def glued_character(
    h_part: Subgroup, chi: Character, c: Subgroup, mu: Character
) -> Character:
    """The character chi*mu on H'C with (chi*mu)(hc) = chi(h)mu(c).

    Well-definedness (checked) needs chi and mu to agree on H' and C's
    intersection and mu to be H'-stable.
    """
    parent = h_part.parent
    prod = product_set(h_part, c)
    cset = c.element_set
    values: dict[int, tuple[int, int, int]] = {}
    m1, m2 = chi.modulus, mu.modulus
    m = lcm(m1, m2)
    for a in h_part.elements:
        ka = chi.exponent_of(a) * (m // m1)
        for b in c.elements:
            x = parent.mul(a, b)
            k = (ka + mu.exponent_of(b) * (m // m2)) % m
            if x not in values:
                values[x] = k
            elif values[x] != k:
                raise CertificateFailed(
                    f"glued character ill-defined at {x}: exponents "
                    f"{values[x]} and {k} mod {m}",
                    witness=(x, values[x], k),
                )
    exps = tuple(values[x] for x in prod.elements)
    return character(prod, m, exps)


def projector_phi(x: RPlusElement, c: Subgroup) -> RPlusElement:
    """Phi_C: replace [H,chi] by the sum over T(chi) of [H_mu C, chi mu]."""
    _require_abelian_normal(x.ambient, c)
    items = []
    for cls, n in x.coefficients:
        h, chi = cls.subgroup, cls.char
        if h.contains_subgroup(c):
            items.append((cls, n))
            continue
        data = orbit_data(h, chi, c, x.ambient)
        for mu, h_mu in zip(data.t, data.stabilizers):
            glued = glued_character(h_mu, chi.restrict(h_mu), c, mu)
            items.append((pair_class(glued.domain, glued, x.ambient), n))
    lower = c if all(cls.subgroup.contains_subgroup(c) for cls, _ in items) else x.lower
    return rplus(x.ambient, lower, items)


# ---------------------------------------------------------------------------
# presentations and the kernel


def decompose_on(f: ClassFunction):
    """Irreducible coordinates of f over its own domain group.

    The domain may be a proper subgroup: its abstract copy has conjugacy
    classes in the same canonical order (the relabeling is monotone), so
    the values carry over positionally.
    """
    if f.domain.order == f.domain.parent.order:
        return decompose(f)
    inner = f.domain.as_group
    return decompose(ClassFunction(full_subgroup(inner), f.values))


def _ambient_table(ambient: Subgroup):
    """The ambient's integer character table and the relabelling of its
    elements onto the table's group (None for the whole group)."""
    if ambient.order == ambient.parent.order:
        return character_table(ambient.parent), None
    return character_table(ambient.as_group), ambient.position


@lru_cache(maxsize=None)
def _phi_column(ambient: Subgroup, chi: Character) -> tuple[int, ...]:
    """Irreducible coordinates of Ind_H^ambient(chi), chi a character of
    H: the phi column of the pair class [H, chi], exactly in integers.
    The coordinates follow the table's row order, not the canonical one:
    zero tests and norms read no order, and `_phi_matrix` permutes."""
    table, label = _ambient_table(ambient)
    return tuple(table.induced_coordinates(chi, label))


def phi_is_zero(x: RPlusElement) -> bool:
    """Whether phi(x) = 0: its integer irreducible coordinates over its
    ambient all vanish."""
    table, _ = _ambient_table(x.ambient)
    total = [0] * len(table.vectors)
    for cls, n in x.coefficients:
        for i, c in enumerate(_phi_column(x.ambient, cls.char)):
            total[i] += n * c
    return not any(total)


@lru_cache(maxsize=None)
def _phi_matrix(ambient: Subgroup, lower: Subgroup):
    """Columns: pair classes; rows: irreducible coordinates of phi, in the
    canonical order of the irreducibles.

    Each column is the pair's `_phi_column`: class counts of the pair's
    subgroup through the ambient's integer character table (on its
    abstract copy, relabelled as in decompose_on), with no cyclotomic
    arithmetic.
    """
    classes = pair_classes(ambient, lower)
    cols = [_phi_column(ambient, cls.char) for cls in classes]
    rows = _ambient_table(ambient)[0].order if cols else ()
    matrix = [[col[i] for col in cols] for i in rows]
    return classes, matrix


def presentation(rho: ClassFunction, n: Subgroup, variant: int = 0) -> RPlusElement:
    """Some x in R+(N<=H) with phi(x) = rho, over the ambient H = rho.domain.

    `variant` permutes the solver's column order (variant 1 reverses it),
    producing a possibly different but equally valid certificate.
    """
    g = rho.group
    if rho.domain.order == g.order and not is_normal(g, n):
        from .errors import NotNormal

        raise NotNormal(f"{n} is not normal")
    classes, matrix = _phi_matrix(rho.domain, n)
    order = list(range(len(classes)))
    if variant:
        order.reverse()
    cols = [[row[j] for j in order] for row in matrix]
    target = decompose_on(rho)
    if any(c.denominator != 1 for c in target):
        raise NoSolution("target is not a virtual character")
    sol = intlin.solve(cols, [int(c) for c in target])
    if sol is None:
        raise NoSolution("no integral presentation (precondition violated?)")
    items = [(classes[j], coeff) for j, coeff in zip(order, sol)]
    return rplus(rho.domain, n, items)


def dim0_presentation(rho: ClassFunction, n: Subgroup):
    """rho = sum n_i Ind(chi_i - 1_{H_i}) with all H_i >= N.

    Returns a list of (H_i, chi_i, n_i); variables are the paired columns
    phi([H,chi]) - phi([H,1]) over classes with nontrivial chi.
    """
    if rho.dimension() != 0:
        raise NoSolution("dimension is not zero")
    classes, matrix = _phi_matrix(rho.domain, n)
    nontrivial = [
        (j, cls) for j, cls in enumerate(classes) if not cls.char.is_trivial()
    ]
    index_of = {cls.sort_key(): j for j, cls in enumerate(classes)}
    paired = []
    for j, cls in nontrivial:
        triv = pair_class(cls.subgroup, trivial_character(cls.subgroup), rho.domain)
        paired.append((j, index_of[triv.sort_key()]))
    cols = [
        [matrix[i][j] - matrix[i][jt] for j, jt in paired]
        for i in range(len(matrix))
    ]
    target = decompose_on(rho)
    if any(c.denominator != 1 for c in target):
        raise NoSolution("target is not a virtual character")
    sol = intlin.solve(cols, [int(c) for c in target])
    if sol is None:
        raise NoSolution("no dimension-zero presentation")
    out = []
    for (j, _), coeff in zip(paired, sol):
        if coeff:
            cls = classes[j]
            out.append((cls.subgroup, cls.char, coeff))
    return out


def kernel_basis(g: Group, n: Subgroup) -> list[RPlusElement]:
    """A lattice basis of Ker(phi) inside R+(N<=Omega)."""
    full = full_subgroup(g)
    classes, matrix = _phi_matrix(full, n)
    basis = intlin.kernel_basis(matrix)
    return [rplus(full, n, list(zip(classes, vec))) for vec in basis]


def coordinates(x: RPlusElement, lower: Subgroup) -> list[int]:
    """Coordinates of x in the canonical pair-class basis of R+(N<=ambient)."""
    classes = pair_classes(x.ambient, lower)
    index = {cls.sort_key(): i for i, cls in enumerate(classes)}
    vec = [0] * len(classes)
    for cls, n in x.coefficients:
        vec[index[cls.sort_key()]] += n
    return vec
