"""Extending a pair function to all virtual characters.

A Delta-function assigns a value in an abelian group to every pair class
[H, chi] with H above a fixed normal subgroup N.  Three families of
product identities are exactly the obstruction, and `check_conditions` is
their one check: it reads the records of `relations.configurations`, the
single source that also builds the relations (the glued orbit
representatives of the lambda recursion and the phi columns of the kernel
check are shared with `relations` too).  When the identities hold, the
lambda recursion below produces a well-defined multiplicative extension
to arbitrary virtual characters, certified on the kernel generators.
`Extension.evaluate` is its one evaluation: F(H, rho) = F(x) *
lambda_H^(-dim rho) for a presentation x of rho, with F(x) from
`Extension.evaluate_element`.

Delta and lambda serve the subgroups of one group, the Delta function's,
so their lookups are keyed by element tuples: Delta values by (H, chi's
domain, modulus and exponents), lambda values by (U, N, ambient,
rep_choice).  The layer-independence of lambda is checked once per
top-level value.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

from .brauer import (
    PairClass,
    RPlusElement,
    _ambient_table,
    kernel_basis,
    pair_class,
    pair_classes,
    phi_is_zero,
    presentation,
)
from .characters import (
    Character,
    ClassFunction,
    characters_trivial_on,
    trivial_character,
)
from .errors import (
    CertificateFailed,
    ConditionsViolated,
    DomainMismatch,
    MissingValue,
    NotNormal,
)
from .groups import (
    Group,
    Subgroup,
    all_subgroups,
    commutator_subgroup,
    full_subgroup,
    is_normal,
    is_normal_in,
    subgroup_class_reps,
)
from .relations import (
    _glued_reps,
    _subgroups_of,
    basic_relations,
    configurations,
)


# ---------------------------------------------------------------------------
# value groups


class ValueGroup:
    """Abstract multiplicative abelian group with exact equality."""

    def one(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def eq(self, a, b) -> bool:
        return a == b

    def pow(self, a, n: int):
        """a^n for any integer n, by repeated squaring."""
        if n < 0:
            a, n = self.inv(a), -n
        out = self.one()
        while n:
            if n & 1:
                out = self.mul(out, a)
            n >>= 1
            a = self.mul(a, a) if n else a
        return out

    def describe(self, a) -> str:
        return str(a)


class FreeAbelianGroup(ValueGroup):
    """Formal products of named symbols; elements are sorted tuples of
    (symbol, exponent) with nonzero exponents."""

    def one(self):
        return ()

    def symbol(self, name: str):
        return ((name, 1),)

    def mul(self, a, b):
        if not a or not b:
            return a or b
        acc = dict(a)
        for sym, e in b:
            acc[sym] = acc.get(sym, 0) + e
        return tuple(sorted((s, e) for s, e in acc.items() if e))

    def inv(self, a):
        return tuple((s, -e) for s, e in a)

    def describe(self, a) -> str:
        if not a:
            return "1"
        return " * ".join(f"{s}^{e}" if e != 1 else s for s, e in a)


# ---------------------------------------------------------------------------
# Delta functions


@dataclass(frozen=True)
class DeltaFunction:
    """Delta as a read-only table PairClass -> value.

    `value(h, chi)` on subgroups of the ambient's own group object reads a
    table keyed by element and exponent tuples, filled through `pair_class`
    on first lookup; any other input takes the `pair_class` path each time,
    so refusals and MissingValue are those of `value_of_class`.  A lower
    N from another group is refused with DomainMismatch, and one that is
    not normal with NotNormal."""

    ambient: Subgroup  # the full subgroup of the group
    lower: Subgroup
    group: ValueGroup = field(compare=False)
    values: Mapping = field(compare=False)  # PairClass -> value

    def __post_init__(self):
        g = self.ambient.parent
        if self.lower.parent != g:
            raise DomainMismatch(
                f"N = {self.lower} is not in the group of Delta"
            )
        if not is_normal(g, self.lower):
            raise NotNormal(f"{self.lower} is not normal")
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))
        object.__setattr__(self, "_by_key", {})

    def value_of_class(self, cls: PairClass):
        if cls not in self.values:
            raise MissingValue(f"no value for {cls!r}")
        return self.values[cls]

    def value(self, h: Subgroup, chi: Character):
        parent = self.ambient.parent
        if h.parent is not parent or chi.domain.parent is not parent:
            return self.value_of_class(pair_class(h, chi, self.ambient))
        key = (h.elements, chi.domain.elements, chi.modulus, chi.exponents)
        try:
            return self._by_key[key]
        except KeyError:
            out = self.value_of_class(pair_class(h, chi, self.ambient))
            self._by_key[key] = out
            return out


def delta_function(
    g: Group, n: Subgroup, vgroup: ValueGroup, assignments
) -> DeltaFunction:
    """Build a DeltaFunction from {(H, chi) or PairClass: value}; trivial
    characters are forced to 1 (and checked if supplied)."""
    full = full_subgroup(g)
    values = {}
    for key, val in assignments.items():
        cls = key if isinstance(key, PairClass) else pair_class(*key, full)
        values[cls] = val
    for cls in pair_classes(full, n):
        if cls.char.is_trivial():
            if cls in values and not vgroup.eq(values[cls], vgroup.one()):
                raise ConditionsViolated(
                    "a trivial character must have value 1", witness=cls
                )
            values[cls] = vgroup.one()
    return DeltaFunction(ambient=full, lower=n, group=vgroup, values=values)


def constant_delta(g: Group, n: Subgroup, vgroup: ValueGroup) -> DeltaFunction:
    full = full_subgroup(g)
    return delta_function(
        g, n, vgroup, {cls: vgroup.one() for cls in pair_classes(full, n)}
    )


def generic_delta(g: Group, n: Subgroup) -> DeltaFunction:
    """Distinct free symbols on every nontrivial pair class: the generic
    (usually inextendible) test function."""
    vgroup = FreeAbelianGroup()
    full = full_subgroup(g)
    assignments = {}
    for i, cls in enumerate(pair_classes(full, n)):
        if not cls.char.is_trivial():
            assignments[cls] = vgroup.symbol(f"d{i}")
    return delta_function(g, n, vgroup, assignments)


# ---------------------------------------------------------------------------
# the condition check


def _violations(cfg, delta: DeltaFunction) -> list:
    """The violations of the condition that one configuration imposes.

    Types I and III: Delta(U0, chi|U0) * prod Delta(U_i, nu_i) =
    prod Delta(U_i, chi|U_i nu_i).  Type II: Delta(H, ext) * prod over
    (B/H)^* of Delta(B, mu) is the same for every option (H, ext)."""
    vg = delta.group
    head = {"condition": cfg.kind, "B": cfg.b, **dict(cfg.labels)}
    if cfg.kind != "II":
        lhs, rhs = delta.value(*cfg.head), vg.one()
        for u, nu, twisted in cfg.terms:
            lhs = vg.mul(lhs, delta.value(u, nu))
            rhs = vg.mul(rhs, delta.value(u, twisted))
        if vg.eq(lhs, rhs):
            return []
        return [{**head, "lhs": vg.describe(lhs), "rhs": vg.describe(rhs)}]
    out = []
    first = first_pair = None
    for h, ext in cfg.options:
        val = delta.value(h, ext)
        for mu in characters_trivial_on(cfg.b, h):
            val = vg.mul(val, delta.value(cfg.b, mu))
        if first is None:
            first, first_pair = val, (h, ext)
        elif not vg.eq(val, first):
            out.append(
                {
                    **head,
                    "pair": (h, ext),
                    "other": first_pair,
                    "lhs": vg.describe(val),
                    "rhs": vg.describe(first),
                }
            )
    return out


def check_conditions(delta: DeltaFunction) -> list:
    """The violations of conditions I, II and III, in that order, over the
    configurations of Delta's own group and N."""
    return [
        v
        for kind in ("I", "II", "III")
        for cfg in configurations(delta.ambient.parent, delta.lower, kind)
        for v in _violations(cfg, delta)
    ]


# ---------------------------------------------------------------------------
# the lambda recursion


class LambdaEngine:
    """Computes lambda_U^(ambient) relative to N by structural recursion:
    strip off a minimal (relatively) abelian normal layer above N until
    U contains it, shrinking the quotient at each step.

    One engine serves the subgroups of one group, the Delta function's
    (`delta.ambient.parent`), so its memo is keyed by element tuples:
    (U, N, ambient, rep_choice).  When N has several minimal layers in the
    ambient, each top-level value (`value`, or `_value` with top=True) is
    checked once against every other layer choice, whether or not an
    inner call computed it first."""

    def __init__(self, delta: DeltaFunction, check_independence: bool = True):
        self.delta = delta
        self.parent = delta.ambient.parent
        self.check_independence = check_independence
        self._memo: dict = {}
        self._checked: set = set()

    def value(self, u: Subgroup, n: Subgroup, ambient: Subgroup | None = None):
        if ambient is None:
            ambient = self.delta.ambient
        for s in (u, n, ambient):
            if s.parent != self.parent:
                raise DomainMismatch(f"{s} is not in the group of Delta")
        return self._value(u, n, ambient, "min", top=True)

    def _value(self, u, n, ambient, rep_choice, top=False):
        key = (u.elements, n.elements, ambient.elements, rep_choice)
        if key not in self._memo:
            if not (ambient.contains_subgroup(u) and u.contains_subgroup(n)):
                raise DomainMismatch(f"lambda needs {n} <= {u} <= {ambient}")
            if u.order == ambient.order:
                out = self.delta.group.one()
            else:
                layer = _layers(ambient, n)[0]
                out = self._step(u, n, ambient, rep_choice, layer)
            self._memo[key] = out
        out = self._memo[key]
        if (
            top
            and self.check_independence
            and u.order < ambient.order
            and key not in self._checked
        ):
            for other in _layers(ambient, n)[1:]:
                alt = self._step(u, n, ambient, rep_choice, other)
                if not self.delta.group.eq(alt, out):
                    raise ConditionsViolated(
                        "lambda depends on the abelian layer choice",
                        witness=(u, n, other),
                    )
            self._checked.add(key)
        return out

    def _step(self, u, n, ambient, rep_choice, m):
        vg = self.delta.group
        if u.contains_subgroup(m):
            return self._value(u, m, ambient, rep_choice)
        out = vg.one()
        for prod, mu_ext in _glued_reps(u, m, rep_choice):
            term = self.delta.value(prod, mu_ext)
            term = vg.mul(term, self._value(prod, m, ambient, rep_choice))
            out = vg.mul(out, term)
        return out


def _layers(ambient: Subgroup, n: Subgroup) -> tuple:
    layers = _minimal_abelian_layers(ambient, n)
    if not layers:
        raise NotNormal(
            f"no abelian normal layer above {n} in {ambient}: N is not "
            "normal in it (or the quotient is not solvable)"
        )
    return layers


@lru_cache(maxsize=None)
def _minimal_abelian_layers(ambient: Subgroup, n: Subgroup) -> tuple:
    """Normal subgroups M of the ambient with N < M, M/N abelian, minimal
    with these properties; canonical (order, elements) sorting."""
    candidates = []
    for m in _subgroups_of(ambient.parent, ambient):
        if (
            m.order > n.order
            and m.contains_subgroup(n)
            and is_normal_in(ambient, m)
            and commutator_subgroup(m, m).element_set <= n.element_set
        ):
            candidates.append(m)
    minimal = [
        m
        for m in candidates
        if not any(
            m.contains_subgroup(other) and other != m for other in candidates
        )
    ]
    return tuple(sorted(minimal, key=lambda s: (s.order, s.elements)))


# ---------------------------------------------------------------------------
# tower and lambda-law verification


def verify_tower(delta: DeltaFunction) -> list:
    """The tower identity on all chains N <= U' <= U <= A <= Omega, plus
    representative-choice independence, conjugation invariance, inflation
    consistency, and the abelian product formula, for Delta's own group
    and N.

    Each lambda_{U'}^A is computed once per containing pair, and the
    conjugation law computes one lambda per distinct conjugate of U."""
    full, n = delta.ambient, delta.lower
    g = full.parent
    engine = LambdaEngine(delta)
    vg = delta.group
    violations = []
    subs = [s for s in all_subgroups(g) if s.contains_subgroup(n)]
    below = [
        [j for j, t in enumerate(subs) if s.contains_subgroup(t)]
        for s in subs
    ]
    normal = {i for i, s in enumerate(subs) if is_normal(g, s)}
    lam = {
        (i, j): engine._value(subs[j], n, subs[i], "min")
        for i in range(len(subs))
        for j in below[i]
    }
    for a in range(len(subs)):
        for u in below[a]:
            top = lam[a, u]
            for uprime in below[u]:
                index = subs[u].order // subs[uprime].order
                rhs = vg.mul(lam[u, uprime], vg.pow(top, index))
                if not vg.eq(lam[a, uprime], rhs):
                    chain = (subs[uprime], subs[u], subs[a])
                    violations.append({"law": "tower", "chain": chain})
    derived = commutator_subgroup(full, full).element_set
    for i, u in enumerate(subs):
        # representative-choice independence
        if not vg.eq(
            engine._value(u, n, full, "min"), engine._value(u, n, full, "max")
        ):
            violations.append({"law": "rep-independence", "U": u})
        # conjugation invariance: one lambda per distinct conjugate of U
        base = engine._value(u, n, full, "min", top=True)
        by_conjugate = {}
        for x, row in enumerate(g.conj_table):
            moved = tuple(sorted([row[y] for y in u.elements]))
            if moved not in by_conjugate:
                by_conjugate[moved] = engine._value(
                    Subgroup(g, moved), n, full, "min", top=True
                )
            if not vg.eq(by_conjugate[moved], base):
                violations.append({"law": "conjugation", "U": u, "g": x})
        # inflation: relative to any larger normal N' <= U the value agrees
        for j in below[i]:
            if j in normal and not vg.eq(
                engine._value(u, subs[j], full, "min", top=True), base
            ):
                violations.append(
                    {"law": "inflation", "U": u, "Nprime": subs[j]}
                )
        # abelian product formula
        if i in normal and derived <= u.element_set:
            expected = vg.one()
            for chi in characters_trivial_on(full, u):
                expected = vg.mul(expected, delta.value(full, chi))
            if not vg.eq(base, expected):
                violations.append({"law": "abelian-product", "U": u})
    return violations


# ---------------------------------------------------------------------------
# the extension


@dataclass
class Extension:
    """The extension of Delta, relative to Delta's own N (`delta.lower`)."""

    delta: DeltaFunction
    engine: LambdaEngine

    def evaluate(self, h: Subgroup, rho: ClassFunction, variant: int = 0):
        """F(H, rho) = F(x) * lambda_H^(-dim rho) for the presentation x of
        rho (`variant` picks it, see `brauer.presentation`), with dim rho =
        sum k (H:U) over x's terms k [U, chi]: the lambda_U^H =
        lambda_U * lambda_H^(-(H:U)) of every term, folded into one power."""
        if rho.domain != h:
            raise DomainMismatch(f"rho lives on {rho.domain}, not on {h}")
        vg, n = self.delta.group, self.delta.lower
        x = presentation(rho, n, variant=variant)
        out = self.evaluate_element(x)
        if x.coefficients:
            dim = sum(k * (h.order // c.subgroup.order) for c, k in x.coefficients)
            out = vg.mul(out, vg.pow(self.engine.value(h, n), -dim))
        return out

    def evaluate_element(self, x: RPlusElement):
        """F(x) = the product of (Delta(U,chi) * lambda_U)^k over the terms
        k [U, chi] of an R+ element, lambda_U taken in Delta's ambient."""
        vg = self.delta.group
        out = vg.one()
        for cls, k in x.coefficients:
            term = vg.mul(
                self.delta.value(cls.subgroup, cls.char),
                self.engine.value(cls.subgroup, self.delta.lower),
            )
            out = vg.mul(out, vg.pow(term, k))
        return out


def extend(delta: DeltaFunction, full_kernel: bool = False) -> Extension:
    """Check conditions I-III, then certify well-definedness on the kernel
    generators (or the whole kernel basis with full_kernel) and return
    the extension of Delta relative to its own N."""
    violations = check_conditions(delta)
    if violations:
        raise ConditionsViolated(
            f"{len(violations)} condition violation(s)", witness=violations[0]
        )
    g, n = delta.ambient.parent, delta.lower
    ext = Extension(delta=delta, engine=LambdaEngine(delta))
    vg = delta.group
    if full_kernel:
        witnesses = [(None, x) for x in kernel_basis(g, n)]
    else:
        witnesses = [(r.kind, r.element) for r in basic_relations(g, n)]
    for kind, x in witnesses:
        if not phi_is_zero(x):
            raise CertificateFailed("witness is not in the kernel", witness=x)
        val = ext.evaluate_element(x)
        if not vg.eq(val, vg.one()):
            raise ConditionsViolated(
                "extension ill-defined on a kernel element"
                + (f" (type {kind})" if kind else ""),
                witness=x,
            )
    return ext


def irreducibles_mod_derived(h: Subgroup, n: Subgroup) -> list[ClassFunction]:
    """The irreducible characters of H/[N,N] as class functions on H.

    They are the rows chi of H's own character table (the one
    `presentation` reads) that are trivial on [N,N], which is to say
    <Ind_[N,N]^H 1, chi> = chi(1); in the canonical order."""
    table, label = _ambient_table(h)
    derived = commutator_subgroup(n, n)
    counts = table.induced_coordinates(trivial_character(derived), label)
    kept = {i for i, vec in enumerate(table.vectors) if counts[i] == vec[0]}
    return [
        ClassFunction(h, f.values)
        for i, f in zip(table.order, table.characters)
        if i in kept
    ]


def uniqueness_check(ext: Extension) -> bool:
    """Whether presentations 0 and 1 give the same value on every
    irreducible of H/[N,N] for every H >= N."""
    g, n = ext.delta.ambient.parent, ext.delta.lower
    vg = ext.delta.group
    for h in subgroup_class_reps(g):
        if not h.contains_subgroup(n):
            continue
        for rho in irreducibles_mod_derived(h, n):
            if not vg.eq(ext.evaluate(h, rho, 0), ext.evaluate(h, rho, 1)):
                return False
    return True
