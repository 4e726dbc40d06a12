from collections import Counter
from functools import lru_cache, partial

import pytest

from monomial import extend as extend_module
from monomial import relations
from monomial.brauer import (
    dim0_presentation,
    glued_character,
    pair_class,
    pair_classes,
    presentation,
)
from monomial.catalog import catalog_group, catalog_names
from monomial.characters import (
    characters_of,
    characters_trivial_on,
    conjugate_character,
    irreducible_characters,
    trivial_character,
)
from monomial.errors import ConditionsViolated, MissingValue
from monomial.extend import (
    DeltaFunction,
    Extension,
    FreeAbelianGroup,
    LambdaEngine,
    _minimal_abelian_layers,
    _violations,
    check_conditions,
    constant_delta,
    delta_function,
    extend,
    generic_delta,
    irreducibles_mod_derived,
    uniqueness_check,
    verify_tower,
)
from monomial.groups import (
    all_subgroups,
    center,
    commutator_subgroup,
    conjugate_subgroup,
    derived_subgroup,
    full_subgroup,
    intersection,
    is_normal,
    normal_subgroups,
    product_set,
    subgroup,
    subgroup_class_reps,
    trivial_subgroup,
)
from monomial.relations import configurations
from monomial.tame import galois_delta
from oracles import (
    character_class_function,
    induce,
    irreducibles_mod_derived_by_quotient,
)


def test_free_abelian_group():
    vg = FreeAbelianGroup()
    a, b = vg.symbol("a"), vg.symbol("b")
    assert vg.mul(a, b) == vg.mul(b, a)
    assert vg.mul(a, vg.inv(a)) == vg.one()
    assert vg.pow(a, 3) == (("a", 3),)
    assert vg.pow(a, -2) == (("a", -2),)
    assert vg.describe(vg.one()) == "1"
    assert vg.describe(vg.mul(a, vg.pow(b, 2))) == "a * b^2"


def test_delta_function_basics():
    c4 = catalog_group("C4")
    triv = trivial_subgroup(c4)
    vg = FreeAbelianGroup()
    d = constant_delta(c4, triv, vg)
    full = full_subgroup(c4)
    for chi in characters_of(full):
        assert d.value(full, chi) == vg.one()
    # trivial characters may not get a nontrivial value
    cls = pair_class(full, trivial_character(full), full)
    with pytest.raises(ConditionsViolated):
        delta_function(c4, triv, vg, {cls: vg.symbol("x")})
    # the table is read-only, so the lookups keyed by tuples cannot go stale
    with pytest.raises(TypeError):
        d.values[cls] = vg.symbol("x")
    # missing values are reported, not defaulted
    partial = DeltaFunction(ambient=full, lower=triv, group=vg, values={})
    with pytest.raises(MissingValue):
        partial.value(full, characters_of(full)[1])


def _condition(kind, delta):
    """The violations of condition `kind` alone, read off check_conditions."""
    return [v for v in check_conditions(delta) if v["condition"] == kind]


def test_condition_I_constant_and_generic():
    c4 = catalog_group("C4")
    triv = trivial_subgroup(c4)
    assert _condition("I", constant_delta(c4, triv, FreeAbelianGroup())) == []
    violations = _condition("I", generic_delta(c4, triv))
    assert violations
    # C2 is too small to separate the generic function: the only instance
    # of the identity is trivially true
    c2 = catalog_group("C2")
    assert _condition("I", generic_delta(c2, trivial_subgroup(c2))) == []


def test_condition_II_vacuous_and_d4():
    s3 = catalog_group("S3")
    assert (
        _condition("II", generic_delta(s3, trivial_subgroup(s3))) == []
    )
    d4 = catalog_group("D4")
    triv = trivial_subgroup(d4)
    assert _condition("II", constant_delta(d4, triv, FreeAbelianGroup())) == []
    violations = _condition("II", generic_delta(d4, triv))
    assert violations


def test_condition_III_vacuous_and_s3():
    q8 = catalog_group("Q8")
    assert (
        _condition("III", generic_delta(q8, trivial_subgroup(q8))) == []
    )
    s3 = catalog_group("S3")
    triv = trivial_subgroup(s3)
    assert _condition("III", constant_delta(s3, triv, FreeAbelianGroup())) == []
    violations = _condition("III", generic_delta(s3, triv))
    assert violations


def test_check_conditions_lists_the_families_in_order():
    # one list, family by family in the order I, II, III: the generic
    # function on S4 violates all three
    s4 = catalog_group("S4")
    violations = check_conditions(generic_delta(s4, trivial_subgroup(s4)))
    kinds = [v["condition"] for v in violations]
    assert kinds == sorted(kinds, key=("I", "II", "III").index)
    assert set(kinds) == {"I", "II", "III"}


def test_constant_delta_extends_everywhere():
    for name in ("C6", "S3", "D4", "A4"):
        g = catalog_group(name)
        triv = trivial_subgroup(g)
        vg = FreeAbelianGroup()
        ext = extend(constant_delta(g, triv, vg))
        full = full_subgroup(g)
        for rho in irreducible_characters(g):
            assert ext.evaluate(full, rho) == vg.one()


def test_generic_delta_refused():
    for name in ("C4", "S3", "D4"):
        g = catalog_group(name)
        triv = trivial_subgroup(g)
        with pytest.raises(ConditionsViolated):
            extend(generic_delta(g, triv))


def test_generic_c2_extends_formally():
    # the one catalog case where the generic function satisfies every
    # condition: all identities degenerate to tautologies
    c2 = catalog_group("C2")
    triv = trivial_subgroup(c2)
    d = generic_delta(c2, triv)
    assert check_conditions(d) == []
    ext = extend(d, full_kernel=True)
    vg = d.group
    full = full_subgroup(c2)
    chi = characters_of(full)[1]
    s = d.value(full, chi)
    assert s != vg.one()
    # F on the regular representation = Delta(e,1) * lambda_e^C2 = s
    e = trivial_subgroup(c2)
    reg = induce(trivial_character(e), full)
    assert ext.evaluate(full, reg) == s
    # multiplicativity
    one = character_class_function(trivial_character(full))
    chif = character_class_function(chi)
    assert ext.evaluate(full, one + chif) == s
    assert ext.evaluate(full, chif) == s


def test_lambda_engine_constant():
    s3 = catalog_group("S3")
    triv = trivial_subgroup(s3)
    vg = FreeAbelianGroup()
    engine = LambdaEngine(constant_delta(s3, triv, vg))
    for h in (triv, subgroup(s3, [0, 1, 2]), subgroup(s3, [0, 3])):
        assert engine.value(h, triv) == vg.one()
    assert engine.value(full_subgroup(s3), triv) == vg.one()


def test_verify_tower():
    # D4 chains with the constant function: all identities pass
    d4 = catalog_group("D4")
    triv = trivial_subgroup(d4)
    vg = FreeAbelianGroup()
    assert verify_tower(constant_delta(d4, triv, vg)) == []
    # C2 with the generic function: abelian product formula is exercised
    # with a nontrivial value
    c2 = catalog_group("C2")
    triv2 = trivial_subgroup(c2)
    assert verify_tower(generic_delta(c2, triv2)) == []


def test_dim0_invariant():
    c2 = catalog_group("C2")
    triv = trivial_subgroup(c2)
    d = generic_delta(c2, triv)
    vg = d.group
    ext = extend(d)
    full = full_subgroup(c2)
    chi = characters_of(full)[1]
    rho0 = character_class_function(chi) - character_class_function(
        trivial_character(full)
    )
    # through the paired (chi - 1) certificate the lambda factors cancel
    via_cert = vg.one()
    for h, mu, k in dim0_presentation(rho0, triv):
        via_cert = vg.mul(via_cert, vg.pow(d.value(h, mu), k))
    assert ext.evaluate(full, rho0) == via_cert


def test_uniqueness_and_variants():
    s3 = catalog_group("S3")
    triv = trivial_subgroup(s3)
    vg = FreeAbelianGroup()
    d = constant_delta(s3, triv, vg)
    assert uniqueness_check(extend(d))
    c2 = catalog_group("C2")
    triv2 = trivial_subgroup(c2)
    assert uniqueness_check(extend(generic_delta(c2, triv2)))
    # the two presentations are compared for real: an unchecked "extension"
    # of the generic function on S3 (which `extend` refuses) disagrees
    generic = generic_delta(s3, triv)
    forced = Extension(generic, LambdaEngine(generic, check_independence=False))
    assert not uniqueness_check(forced)


def _per_term_evaluate(ext, h, rho, variant):
    """F(H, rho) term by term: the product over the presentation's terms
    k [U, chi] of (Delta(U, chi) * lambda_U * lambda_H^(-(H:U)))^k."""
    delta, engine = ext.delta, ext.engine
    vg, n = delta.group, delta.lower
    out = vg.one()
    for cls, k in presentation(rho, n, variant=variant).coefficients:
        u = cls.subgroup
        lam_h = vg.pow(vg.inv(engine.value(h, n)), h.order // u.order)
        term = vg.mul(vg.mul(delta.value(u, cls.char), engine.value(u, n)), lam_h)
        out = vg.mul(out, vg.pow(term, k))
    return out


@pytest.mark.parametrize(
    "model, kw",
    [
        ("kummer", dict(p=7, f=1, ell=3)),
        ("bikummer", dict(p=7, f=1, ell=3)),
        ("unramified", dict(p=2, f=1, degree=3)),
        ("s3", dict(p=2, f=1, ell=3)),
        ("generic", None),
    ],
    ids=["kummer", "bikummer", "unramified", "s3", "generic-C2"],
)
def test_folded_evaluation_matches_per_term_formula(model, kw):
    # F(H, rho) = F(x) * lambda_H^(-dim rho) against the per-term formula,
    # for every class representative H >= N, every irreducible of
    # H/[N,N] and both presentations.  Every lambda of the four Galois
    # models is 1, so the generic C2, whose lambda_e is its free symbol,
    # is the case that reads the lambda_H power.
    if kw is None:
        c2 = catalog_group("C2")
        delta = generic_delta(c2, trivial_subgroup(c2))
    else:
        delta = galois_delta(model, **kw)
    ext, vg, n = extend(delta), delta.group, delta.lower
    cases = 0
    for h in subgroup_class_reps(delta.ambient.parent):
        if not h.contains_subgroup(n):
            continue
        for rho in irreducibles_mod_derived(h, n):
            for variant in (0, 1):
                assert vg.eq(
                    ext.evaluate(h, rho, variant),
                    _per_term_evaluate(ext, h, rho, variant),
                ), (h.elements, rho.values, variant)
                cases += 1
    assert cases >= 4


def test_irreducibles_mod_derived():
    s3 = catalog_group("S3")
    a3 = subgroup(s3, [0, 1, 2])
    # S3/[A3,A3] = S3 itself: three irreducibles
    assert len(irreducibles_mod_derived(full_subgroup(s3), a3)) == 3
    # A3/[A3,A3] = A3: three linear characters
    assert len(irreducibles_mod_derived(a3, a3)) == 3


def test_irreducibles_mod_derived_match_the_quotient_table():
    # the rows of H's table trivial on [N,N] against the irreducibles of
    # the quotient H/[N,N], inflated, on every catalog (G, N, H >= N)
    cases = 0
    for name in catalog_names():
        g = catalog_group(name)
        for n in normal_subgroups(g):
            for h in subgroup_class_reps(g):
                if not h.contains_subgroup(n):
                    continue
                got = irreducibles_mod_derived(h, n)
                assert all(f.domain == h for f in got)
                assert Counter(f.sort_key() for f in got) == Counter(
                    f.sort_key() for f in irreducibles_mod_derived_by_quotient(h, n)
                ), (name, n.elements, h.elements)
                cases += 1
    assert cases == 283


def _link_verdicts(g, delta) -> Counter:
    """Per configuration: (kind, its condition holds, the verdicts agree).

    The relations of a configuration are evaluated in its B: the product
    over their terms (U, chi, sign) of (Delta(U, chi) * lambda_U^B)^sign.
    The condition should hold exactly when every one of them is 1."""
    n, vg = delta.lower, delta.group
    engine = LambdaEngine(delta, check_independence=False)
    out = Counter()
    for kind in ("I", "II", "III"):
        for cfg in configurations(g, n, kind):
            holds = not _violations(cfg, delta)
            trivial = []
            for _, terms in cfg.relations():
                val = vg.one()
                for u, chi, sign in terms:
                    lam = engine._value(u, n, cfg.b, "min")
                    term = vg.mul(delta.value(u, chi), lam)
                    val = vg.mul(val, vg.pow(term, sign))
                trivial.append(vg.eq(val, vg.one()))
            out[kind, holds, holds == all(trivial)] += 1
    return out


def test_conditions_match_relations_on_the_catalog():
    # each condition is the Delta-evaluation of its own relations inside
    # B: constant and generic Delta on every catalog group with N trivial,
    # the center and the derived subgroup, and the Galois-model Delta
    verdicts = Counter()
    for name in catalog_names():
        g = catalog_group(name)
        lowers = {f(g) for f in (trivial_subgroup, center, derived_subgroup)}
        for n in lowers:
            constant = constant_delta(g, n, FreeAbelianGroup())
            verdicts += _link_verdicts(g, constant)
            verdicts += _link_verdicts(g, generic_delta(g, n))
    for model, kw in (
        ("s3", dict(p=2, f=1, ell=3)),
        ("unramified", dict(p=2, f=1, degree=4)),
        ("kummer", dict(p=7, f=1, ell=3, lpsi=1)),
        ("bikummer", dict(p=3, f=1, ell=2)),
    ):
        d = galois_delta(model, **kw)
        verdicts += _link_verdicts(d.ambient.parent, d)
    assert not [key for key in verdicts if not key[2]], verdicts
    # both directions are exercised for every family
    for kind in ("I", "II", "III"):
        assert verdicts[kind, True, True] and verdicts[kind, False, True]


def test_layer_independence_is_checked_after_a_memo_hit(monkeypatch):
    # C6 at N trivial has the layers C2 and C3; a _step that disagrees
    # between them must be refused at the first top-level call, even when
    # an inner call has already filled the memo for that key
    c6 = catalog_group("C6")
    triv, full = trivial_subgroup(c6), full_subgroup(c6)
    assert [m.order for m in _minimal_abelian_layers(full, triv)] == [2, 3]
    vg = FreeAbelianGroup()
    monkeypatch.setattr(
        LambdaEngine,
        "_step",
        lambda self, u, n, ambient, rep, m: vg.symbol(f"M{m.order}"),
    )
    engine = LambdaEngine(constant_delta(c6, triv, vg))
    assert engine._value(triv, triv, full, "min") == vg.symbol("M2")
    with pytest.raises(ConditionsViolated):
        engine.value(triv, triv)


# Run with and without `python -O`: lambda outside its ambient, subgroups
# of another group, N without an abelian layer (not normal), and a Delta
# function whose N lies in another group or is not normal are typed
# refusals, not asserts.
_ENGINE_REFUSALS = """
import sys
from monomial.catalog import catalog_group
from monomial.errors import DomainMismatch, NotNormal
from monomial.extend import (
    DeltaFunction, FreeAbelianGroup, LambdaEngine, constant_delta, generic_delta
)
from monomial.groups import full_subgroup, subgroup, trivial_subgroup

s3, c3 = catalog_group("S3"), catalog_group("C3")
full, a3, c2 = full_subgroup(s3), subgroup(s3, [0, 1, 2]), subgroup(s3, [0, 3])
triv, other = trivial_subgroup(s3), trivial_subgroup(c3)
delta = constant_delta(s3, triv, FreeAbelianGroup())
engine = LambdaEngine(delta)
print("optimize", sys.flags.optimize)
for label, call in (
    ("outside ambient", lambda: engine._value(full, triv, a3, "min")),
    ("foreign value", lambda: engine.value(other, other)),
    ("not normal", lambda: engine.value(c2, c2)),
    ("foreign delta", lambda: DeltaFunction(full, other, FreeAbelianGroup(), {})),
    ("non-normal delta", lambda: generic_delta(s3, c2)),
):
    try:
        print(label, "returned", call())
    except (DomainMismatch, NotNormal) as exc:
        print(label, type(exc).__name__)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_engine_refusals_hold_under_optimisation(flags, run_python):
    out = run_python(flags, _ENGINE_REFUSALS)
    assert out[:6] == [
        f"optimize {len(flags)}",
        "outside ambient DomainMismatch",
        "foreign value DomainMismatch",
        "not normal NotNormal",
        "foreign delta DomainMismatch",
        "non-normal delta NotNormal",
    ]


# ---------------------------------------------------------------------------
# oracle: the lambda engine and tower check keyed by Subgroup objects, and
# the glued representatives found on Character orbits


@lru_cache(maxsize=None)
def _oracle_glued_reps(u, m, rep_choice):
    chars = characters_trivial_on(m, intersection(u, m))
    seen, out = set(), []
    for mu in chars:
        if mu in seen:
            continue
        orbit = {conjugate_character(mu, x) for x in u.elements}
        seen.update(orbit)
        pick = (min if rep_choice == "min" else max)(
            orbit, key=lambda c: c.exponents
        )
        stab = subgroup(
            u.parent,
            [x for x in u.elements if conjugate_character(pick, x) == pick],
        )
        glued = glued_character(stab, trivial_character(stab), m, pick)
        out.append((product_set(stab, m), glued))
    return tuple(out)


class _OracleEngine:
    """Memo keyed by (U, N, ambient, rep_choice) Subgroup objects; Delta
    read through `lookup`.  The layer check runs on every top-level
    call."""

    def __init__(self, delta, lookup, check_independence):
        self.delta, self.lookup = delta, lookup
        self.check_independence = check_independence
        self._memo = {}

    def value(self, u, n):
        return self._value(u, n, self.delta.ambient, "min", top=True)

    def _value(self, u, n, ambient, rep_choice, top=False):
        key = (u, n, ambient, rep_choice)
        if key not in self._memo:
            if u.order == ambient.order:
                out = self.delta.group.one()
            else:
                m = _minimal_abelian_layers(ambient, n)[0]
                out = self._step(u, n, ambient, rep_choice, m)
            self._memo[key] = out
        out = self._memo[key]
        if top and self.check_independence and u.order != ambient.order:
            for other in _minimal_abelian_layers(ambient, n)[1:]:
                if self._step(u, n, ambient, rep_choice, other) != out:
                    raise ConditionsViolated(
                        "lambda depends on the abelian layer choice",
                        witness=(u, n, other),
                    )
        return out

    def _step(self, u, n, ambient, rep_choice, m):
        vg = self.delta.group
        if u.contains_subgroup(m):
            return self._value(u, m, ambient, rep_choice)
        out = vg.one()
        for prod, mu_ext in _oracle_glued_reps(u, m, rep_choice):
            term = vg.mul(
                self.lookup(prod, mu_ext),
                self._value(prod, m, ambient, rep_choice),
            )
            out = vg.mul(out, term)
        return out


def _oracle_verify_tower(delta, g, n, lookup, check_independence):
    engine = _OracleEngine(delta, lookup, check_independence)
    vg = delta.group
    violations = []
    full = full_subgroup(g)
    subs = [s for s in all_subgroups(g) if s.contains_subgroup(n)]
    for a in subs:
        for u in subs:
            if not a.contains_subgroup(u):
                continue
            for uprime in subs:
                if not u.contains_subgroup(uprime):
                    continue
                lhs = engine._value(uprime, n, a, "min")
                step = engine._value(uprime, n, u, "min")
                top = engine._value(u, n, a, "min")
                rhs = vg.mul(step, vg.pow(top, u.order // uprime.order))
                if not vg.eq(lhs, rhs):
                    violations.append(
                        {"law": "tower", "chain": (uprime, u, a)}
                    )
    derived = commutator_subgroup(full, full).element_set
    for u in subs:
        if not vg.eq(
            engine._value(u, n, full, "min"), engine._value(u, n, full, "max")
        ):
            violations.append({"law": "rep-independence", "U": u})
        for x in range(g.order):
            moved = conjugate_subgroup(u, x)
            if not vg.eq(engine.value(moved, n), engine.value(u, n)):
                violations.append({"law": "conjugation", "U": u, "g": x})
        for nprime in subs:
            if (
                u.contains_subgroup(nprime)
                and nprime.contains_subgroup(n)
                and is_normal(g, nprime)
            ):
                if not vg.eq(engine.value(u, nprime), engine.value(u, n)):
                    violations.append(
                        {"law": "inflation", "U": u, "Nprime": nprime}
                    )
        if is_normal(g, u) and derived <= u.element_set:
            expected = vg.one()
            for chi in characters_trivial_on(full, u):
                expected = vg.mul(expected, lookup(full, chi))
            if not vg.eq(engine.value(u, n), expected):
                violations.append({"law": "abelian-product", "U": u})
    return violations


class _RawDelta(DeltaFunction):
    """A free symbol per raw pair (H, chi), not per pair class: it breaks
    conjugation and representative-choice independence, so those laws
    report violations too."""

    def value(self, h, chi):
        if chi.is_trivial():
            return self.group.one()
        return self.group.symbol(f"{h.elements}:{chi.exponents}")


def _class_value(delta, h, chi):
    return delta.value_of_class(pair_class(h, chi, delta.ambient))


def _outcome(run):
    try:
        return run()
    except ConditionsViolated as exc:
        return ("refused", exc.witness)


def test_tower_engine_matches_the_object_keyed_oracle(monkeypatch):
    requested = set()

    def recording(u, m, rep_choice):
        requested.add((u, m, rep_choice))
        return relations._glued_reps(u, m, rep_choice)

    monkeypatch.setattr(extend_module, "_glued_reps", recording)
    unchecked = partial(LambdaEngine, check_independence=False)
    laws = Counter()
    for name in catalog_names():
        g = catalog_group(name)
        full = full_subgroup(g)
        lowers = {f(g) for f in (trivial_subgroup, center, derived_subgroup)}
        for n in lowers:
            for delta in (
                constant_delta(g, n, FreeAbelianGroup()),
                generic_delta(g, n),
                _RawDelta(full, n, FreeAbelianGroup(), {}),
            ):
                if isinstance(delta, _RawDelta):
                    lookup = delta.value
                else:
                    lookup = partial(_class_value, delta)
                # the layer check on: the same list or the same refusal
                got = _outcome(lambda: verify_tower(delta))
                want = _outcome(
                    lambda: _oracle_verify_tower(delta, g, n, lookup, True)
                )
                assert got == want, (name, n)
                # the layer check off: every law, violation for violation
                with monkeypatch.context() as patch:
                    patch.setattr(extend_module, "LambdaEngine", unchecked)
                    got = verify_tower(delta)
                want = _oracle_verify_tower(delta, g, n, lookup, False)
                assert got == want, (name, n)
                laws.update(v["law"] for v in got)
    for key in requested:
        assert relations._glued_reps(*key) == _oracle_glued_reps(*key), key
    # the raw Delta makes the conjugation and rep-independence laws fail
    for law in ("tower", "rep-independence", "conjugation", "abelian-product"):
        assert laws[law], laws
    assert {key[2] for key in requested} == {"min", "max"}
