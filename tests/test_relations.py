import pytest

from monomial import relations
from monomial.brauer import (
    brauer_map,
    coordinates,
    generator,
    induce_rplus,
    multiply,
    one_rplus,
    kernel_basis,
)
from monomial.catalog import catalog_group, catalog_names
from monomial.characters import characters_of, trivial_character
from monomial.errors import CertificateFailed, ParseError
from monomial.extend import _minimal_abelian_layers
from monomial.groups import (
    all_subgroups,
    full_subgroup,
    normal_subgroups,
    subgroup,
    trivial_subgroup,
)
from monomial.relations import (
    basic_relations,
    type_iii_configurations,
    verify_theorem_2_7,
)
import oracles
from oracles import (
    in_lattice,
    lattice_equal,
    lattice_rank,
    mu_component,
    xi_decompose,
)


def test_type_I_c2():
    c2 = catalog_group("C2")
    rels = basic_relations(c2, trivial_subgroup(c2), ("I",))
    # both characters of C2 give the same element; dedup leaves one
    assert len(rels) == 1
    x = rels[0].element
    assert brauer_map(x).is_zero()
    assert len(x.coefficients) == 3


def test_type_I_trivial_group():
    c1 = catalog_group("C1")
    assert basic_relations(c1, trivial_subgroup(c1), ("I",)) == []


def test_type_I_s3_with_lower_bound():
    s3 = catalog_group("S3")
    a3 = subgroup(s3, [0, 1, 2])
    rels = basic_relations(s3, a3, ("I",))
    assert len(rels) == 1
    x = rels[0].element
    assert all(cls.subgroup.contains_subgroup(a3) for cls in x.support())
    assert brauer_map(x).is_zero()
    # without the bound there are more (every B with a prime-index normal)
    rels_free = basic_relations(s3, trivial_subgroup(s3), ("I",))
    assert len(rels_free) > 1


def test_type_II_empty_for_abelian_and_s3():
    for name in ("C8", "C12", "S3"):
        g = catalog_group(name)
        assert basic_relations(g, trivial_subgroup(g), ("II",)) == []


def test_type_II_d4_and_q8():
    for name in ("D4", "Q8"):
        g = catalog_group(name)
        rels = basic_relations(g, trivial_subgroup(g), ("II",))
        # three intermediate groups, six ordered pairs, one eta
        assert len(rels) == 6
        for r in rels:
            assert brauer_map(r.element).is_zero()
            assert len(r.element.coefficients) == 2


def test_type_III_empty_for_nilpotent():
    for name in ("C9", "D4", "Q8", "Heisenberg27"):
        g = catalog_group(name)
        assert basic_relations(g, trivial_subgroup(g), ("III",)) == []


def test_type_III_s3():
    s3 = catalog_group("S3")
    full = full_subgroup(s3)
    rels = basic_relations(s3, trivial_subgroup(s3), ("III",))
    assert len(rels) == 2
    c2 = subgroup(s3, [0, 3])
    a3 = subgroup(s3, [0, 1, 2])
    omega = characters_of(a3)[1]
    expected = (
        generator(c2, trivial_character(c2))
        - one_rplus(full)
        - generator(a3, omega)
    )
    assert any(r.element == expected for r in rels)


def test_type_III_configuration_a4():
    a4 = catalog_group("A4")
    configs = type_iii_configurations(full_subgroup(a4))
    # the four conjugate C3's; their relations dedupe to one set
    assert len(configs) == 4
    for h, k, c in configs:
        assert h.order == 3 and k.order == 1 and c.order == 4
    rels = basic_relations(a4, trivial_subgroup(a4), ("III",))
    # three characters of A4, three distinct relations
    assert len(rels) == 3
    for r in rels:
        assert brauer_map(r.element).is_zero()
        # [C3,chi] - [A4,chi] - [V,mu-term]
        assert sorted(cls.subgroup.order for cls in r.element.support()) == [
            3,
            4,
            12,
        ]


# every functools cache of the relations module (configurations per
# (G, N, kind), floors per B, blocks per (B, floor), kernel-checked
# relations per G, glued orbit representatives), found by name so that no
# new cache is left out
_RELATION_CACHES = tuple(
    fn
    for fn in vars(relations).values()
    if hasattr(fn, "cache_clear") and fn.__module__ == relations.__name__
)


def test_second_complement_is_refused(monkeypatch, request):
    # listing every subgroup of B twice gives each H two complements: a
    # typed refusal with the configuration as witness, not an assert
    s3 = catalog_group("S3")
    real = relations._subgroups_of
    monkeypatch.setattr(relations, "_subgroups_of", lambda g, b: real(g, b) * 2)
    # cached configurations, floors or blocks would skip the patched
    # enumeration, and the ones built with it must not outlive the test
    for cached in _RELATION_CACHES:
        cached.cache_clear()
        request.addfinalizer(cached.cache_clear)
    with pytest.raises(CertificateFailed) as exc:
        basic_relations(s3, trivial_subgroup(s3), ("III",))
    b, h, candidates = exc.value.witness
    assert b == full_subgroup(s3) and h.order == 2
    assert candidates == (subgroup(s3, [0, 1, 2]),) * 2


def test_twist_stability():
    s3 = catalog_group("S3")
    triv = trivial_subgroup(s3)
    full = full_subgroup(s3)
    for kind in ("I", "III"):
        rels = basic_relations(s3, triv, (kind,))
        span = [coordinates(r.element, triv) for r in rels]
        for eta in characters_of(full):
            for r in rels:
                twisted = multiply(generator(full, eta), r.element)
                assert in_lattice(span, coordinates(twisted, triv))


def test_induction_stability():
    # the C3-type-I relation of the subgroup A3, induced to S3, is among
    # the S3 type-I relations
    s3 = catalog_group("S3")
    triv = trivial_subgroup(s3)
    a3 = subgroup(s3, [0, 1, 2])
    e = trivial_subgroup(s3)
    inner = generator(e, trivial_character(e), a3)
    for mu in characters_of(a3):
        inner = inner - generator(a3, mu, a3)
    pushed = induce_rplus(inner, full_subgroup(s3))
    rels = basic_relations(s3, triv, ("I",))
    assert any(r.element == pushed for r in rels)


def test_xi_decompose():
    s3 = catalog_group("S3")
    a3 = subgroup(s3, [0, 1, 2])
    full = full_subgroup(s3)
    rels = basic_relations(s3, a3, ("I",))
    x = rels[0].element
    blocks = xi_decompose(x, a3)
    assert len(blocks) == 1
    assert blocks[0].component == x
    assert all(m.is_trivial() for m in blocks[0].orbit)
    assert xi_decompose(x - x, a3) == []
    # a mixed element splits into disjoint blocks that sum back
    omega = characters_of(a3)[1]
    y = x + generator(a3, omega)
    blocks = xi_decompose(y, a3)
    assert len(blocks) == 2
    total = blocks[0].component + blocks[1].component
    assert total == y
    supports = [set(b.component.support()) for b in blocks]
    assert not (supports[0] & supports[1])


def test_mu_component_reconstruction():
    s3 = catalog_group("S3")
    a3 = subgroup(s3, [0, 1, 2])
    full = full_subgroup(s3)
    for x in kernel_basis(s3, a3):
        rebuilt = None
        for block in xi_decompose(x, a3):
            mu = block.orbit[0]
            comp = mu_component(block.component, mu)
            assert brauer_map(comp).is_zero()
            part = induce_rplus(comp, full)
            assert part == block.component
            rebuilt = part if rebuilt is None else rebuilt + part
        if rebuilt is not None:
            assert rebuilt == x


def test_theorem_2_7_small_groups():
    for name in ("C2", "C6", "S3", "A4"):
        g = catalog_group(name)
        report = verify_theorem_2_7(g, trivial_subgroup(g))
        assert report.equal, f"{name}: missing {report.missing}"
        assert report.kernel_rank == report.span_rank


def test_theorem_2_7_d4_needs_type_II():
    d4 = catalog_group("D4")
    full_report = verify_theorem_2_7(d4, trivial_subgroup(d4))
    assert full_report.equal
    partial = verify_theorem_2_7(d4, trivial_subgroup(d4), kinds=("I",))
    # type I alone spans a finite-index sublattice: full rank, but the
    # lattice-level comparison still detects the gap
    assert not partial.equal
    assert partial.span_rank <= partial.kernel_rank
    assert partial.missing


def test_theorem_2_7_nontrivial_n():
    s3 = catalog_group("S3")
    a3 = subgroup(s3, [0, 1, 2])
    report = verify_theorem_2_7(s3, a3)
    assert report.equal
    report = verify_theorem_2_7(s3, full_subgroup(s3))
    assert report.equal
    assert report.kernel_rank == 0


def test_unknown_relation_kind_is_refused():
    # a kind outside I/II/III is a typo, refused by name, not dropped
    s3 = catalog_group("S3")
    n = trivial_subgroup(s3)
    for kinds in (("IV",), ("I", "iii"), ("I", "")):
        with pytest.raises(ParseError, match=repr(kinds[-1])):
            basic_relations(s3, n, kinds)
    # no kind at all is refused too, not read as "no relations"
    with pytest.raises(ParseError, match="no relation kind"):
        basic_relations(s3, n, ())
    with pytest.raises(ParseError, match="'IV'"):
        verify_theorem_2_7(s3, n, ("I", "IV"))
    with pytest.raises(ParseError, match="'IV'"):
        relations.configurations(s3, n, "IV")


# Run under `python -O`: a bogus relation must still be refused, by the
# check inside relation generation, by the verdict's reverse inclusion and
# by the extension engine's kernel check; a reducible induction must be
# refused by the Heisenberg irreducibility check.
_INJECT = """
import sys
from monomial import extend, relations
from monomial.brauer import generator
from monomial.catalog import catalog_group, catalog_names
from monomial.characters import characters_of, trivial_character
from monomial.errors import CertificateFailed
from monomial.groups import full_subgroup, subgroup, trivial_subgroup

g = catalog_group("S3")
n = trivial_subgroup(g)
full = full_subgroup(g)
bogus = generator(full, characters_of(full)[1], full, n)
print("optimize", sys.flags.optimize)
try:
    relations._check_kernel(bogus)
    print("check passed")
except CertificateFailed as exc:
    print("check refused", exc.witness == bogus)

real = relations.basic_relations
relations.basic_relations = lambda g, n, kinds: real(g, n, kinds) + [
    relations.BasicRelation("I", full, (), bogus)
]
try:
    relations.verify_theorem_2_7(g, n)
    print("verdict passed")
except CertificateFailed as exc:
    print("verdict refused", exc.witness == bogus)
relations.basic_relations = real

# Ind from C2 to S3 of the trivial character is 1 + the 2-dimensional one
c2 = subgroup(g, [0, 3])
try:
    relations._check_heisenberg_irreducible(full, trivial_character(c2))
    print("irreducibility passed")
except CertificateFailed as exc:
    print("irreducibility refused", exc.witness[0] == full)

extend.basic_relations = lambda g, n: real(g, n) + [
    relations.BasicRelation("I", full, (), bogus)
]
try:
    extend.extend(extend.constant_delta(g, n, extend.FreeAbelianGroup()))
    print("extension passed")
except CertificateFailed as exc:
    print("extension refused", exc.witness == bogus)
"""


def test_certificate_checks_survive_optimize(run_python):
    out = run_python(["-O"], _INJECT)
    assert out[:5] == [
        "optimize 1",
        "check refused True",
        "verdict refused True",
        "irreducibility refused True",
        "extension refused True",
    ]


@pytest.mark.parametrize(
    "kinds", [("I",), ("I", "II"), ("I", "III"), ("I", "II", "III")], ids="+".join
)
def test_saturation_verdict_matches_mutual_membership(kinds):
    # the one-SNF verdict against the mutual-membership oracle on every
    # catalog (group, N); the partial families give unequal cases too
    unequal = 0
    for name in catalog_names():
        g = catalog_group(name)
        for n in normal_subgroups(g):
            report = verify_theorem_2_7(g, n, kinds)
            kernel_vecs = [coordinates(x, n) for x in kernel_basis(g, n)]
            span_vecs = [
                coordinates(r.element, n) for r in basic_relations(g, n, kinds)
            ]
            equal, missing = lattice_equal(kernel_vecs, span_vecs)
            assert report.equal == equal, (name, n.elements)
            assert report.span_rank == lattice_rank(span_vecs)
            assert [coordinates(x, n) for x in report.missing] == missing
            unequal += not equal
    assert unequal > 0 or kinds == ("I", "II", "III")


# A relation list that rank and elementary divisors alone would accept:
# one relation that carries rank is dropped and a generator outside the
# kernel takes its place.  Only the verdict's own phi(r) = 0 check can
# refuse it, and it must do so under `python -O` as well.
_SWAP = """
import sys
from monomial import intlin, relations
from monomial.brauer import coordinates, generator, kernel_basis
from monomial.catalog import catalog_group
from monomial.characters import characters_of
from monomial.errors import CertificateFailed
from monomial.groups import full_subgroup, subgroup
from oracles import lattice_rank

g = catalog_group("D4")
n = subgroup(g, [0, 1, 2, 3])
full = full_subgroup(g)
real = relations.basic_relations(g, n)
rank = len(kernel_basis(g, n))
vecs = [coordinates(r.element, n) for r in real]
drop = next(
    i for i in range(len(real))
    if lattice_rank(vecs[:i] + vecs[i + 1:]) < rank
)
rest = real[:drop] + real[drop + 1:]
for chi in characters_of(full)[1:]:
    bogus = generator(full, chi, full, n)
    span = intlin.Lattice(
        [coordinates(r.element, n) for r in rest] + [coordinates(bogus, n)]
    )
    if span.rank == rank and span.is_saturated:
        break
print("optimize", sys.flags.optimize)
print("rank and divisors pass", span.rank == rank and span.is_saturated)
swapped = rest + [relations.BasicRelation("I", full, (), bogus)]
relations.basic_relations = lambda g, n, kinds: swapped
try:
    relations.verify_theorem_2_7(g, n)
    print("verdict passed")
except CertificateFailed as exc:
    print("verdict refused", exc.witness == bogus)
"""


@pytest.mark.parametrize("optimize", [0, 1])
def test_verdict_refuses_non_kernel_relation_of_full_rank(optimize, run_python):
    out = run_python(["-O"] if optimize else [], _SWAP)
    assert out[:3] == [
        f"optimize {optimize}",
        "rank and divisors pass True",
        "verdict refused True",
    ]


@pytest.mark.parametrize("name", catalog_names())
def test_blocks_shared_across_n_equal_per_n_enumeration(name):
    # with the blocks first built for the largest N, every (N, kind) of the
    # group reads the configurations, records and order both, and the
    # relations that the per-N oracle builds afresh for that N
    for cached in _RELATION_CACHES:
        cached.cache_clear()
    g = catalog_group(name)
    for n in reversed(normal_subgroups(g)):
        for kind in ("I", "II", "III"):
            assert relations.configurations(g, n, kind) == (
                oracles.configurations(g, n, kind)
            ), (n.elements, kind)
        got = [(r.kind, r.b, r.witness, r.element) for r in basic_relations(g, n)]
        assert got == oracles.basic_relations(g, n), n.elements


def test_cached_records_equal_fresh_enumeration():
    # the configurations and glued orbit representatives read from the
    # caches against the per-N oracle and the uncached bodies, on every
    # catalog (G, N, kind), with every glued key of type III and of the
    # lambda recursion's layers
    glued_keys = 0
    for name in catalog_names():
        g = catalog_group(name)
        full = full_subgroup(g)
        for n in normal_subgroups(g):
            for kind in ("I", "II", "III"):
                cached = relations.configurations(g, n, kind)
                fresh = oracles.configurations(g, n, kind)
                assert cached == fresh, (name, n.elements, kind)
            keys = {
                (cfg.witness[0], cfg.witness[2], "min")
                for cfg in relations.configurations(g, n, "III")
            }
            for m in _minimal_abelian_layers(full, n):
                keys |= {
                    (u, m, rep)
                    for u in all_subgroups(g)
                    if u.contains_subgroup(n) and not u.contains_subgroup(m)
                    for rep in ("min", "max")
                }
            for key in keys:
                assert relations._glued_reps(*key) == (
                    relations._glued_reps.__wrapped__(*key)
                ), (name, key)
            glued_keys += len(keys)
    assert glued_keys > 100


@pytest.mark.parametrize("name", ["D6", "Heisenberg27"])
def test_relation_work_is_done_once_per_group(name, monkeypatch):
    # over every normal N, each configuration canonicalises its terms once
    # and each distinct relation of the group is kernel-checked once: per N
    # only the floor filter and the dedupe run
    for cached in _RELATION_CACHES:
        cached.cache_clear()
    calls = {"pair_class": 0, "check": 0}
    real_pair_class, real_check = relations.pair_class, relations._check_kernel

    def pair_class(*args):
        calls["pair_class"] += 1
        return real_pair_class(*args)

    def check(elt):
        calls["check"] += 1
        real_check(elt)

    monkeypatch.setattr(relations, "pair_class", pair_class)
    monkeypatch.setattr(relations, "_check_kernel", check)
    g = catalog_group(name)
    distinct = set()
    for n in normal_subgroups(g):
        distinct |= {r.element.coefficients for r in basic_relations(g, n)}
    # every configuration's floor contains the trivial N
    terms = sum(
        len(signed)
        for kind in ("I", "II", "III")
        for cfg in relations.configurations(g, trivial_subgroup(g), kind)
        for _, signed in cfg.relations()
    )
    assert len(normal_subgroups(g)) == 7
    assert calls == {"pair_class": terms, "check": len(distinct)}


@pytest.mark.parametrize("name", ["D6", "S4", "Heisenberg27"])
def test_a_block_is_built_only_for_an_n_in_its_floor(name, monkeypatch):
    # a cold call for one N builds the blocks whose floor contains N and
    # no other, so a first N that is not trivial does no work for the rest
    g = catalog_group(name)
    floor_of = {"_type_I_at": 0, "_type_II_at": 0, "_type_III_at": 1}
    built = []
    for fn, slot in floor_of.items():
        real = getattr(relations, fn)

        def block(b, *args, real=real, slot=slot):
            built.append((b, args[slot]))
            return real(b, *args)

        monkeypatch.setattr(relations, fn, block)
    skipped = total = 0
    for n in normal_subgroups(g)[1:]:
        for cached in _RELATION_CACHES:
            cached.cache_clear()
        built.clear()
        basic_relations(g, n)
        assert all(floor.contains_subgroup(n) for _, floor in built)
        floors = [
            floor
            for b in relations.subgroup_class_reps(g)
            for family in ("I", "II", "III")
            for floor, _ in getattr(relations, f"_type_{family}_floors")(b)
        ]
        assert len(built) == sum(f.contains_subgroup(n) for f in floors)
        skipped += len(floors) - len(built)
        total += len(built)
    for cached in _RELATION_CACHES:
        cached.cache_clear()
    assert skipped > 0 and total > 0
