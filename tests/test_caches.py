"""Hashes computed once, and a package that starts with cold caches.

`Character` and `PairClass` hash once, at construction, to the value their
frozen dataclass hash would give, so every set and dict order stays the
same.  Importing the package and listing the catalog fills no lru cache
but the catalog's own, so a timed run starts cold.
"""

import dataclasses

import pytest

from monomial.brauer import PairClass, glued_character, pair_classes
from monomial.catalog import catalog_group
from monomial.characters import (
    Character,
    characters_of,
    characters_trivial_on,
    conjugate_character,
)
from monomial.groups import (
    all_subgroups,
    full_subgroup,
    intersection,
    make_group,
    normal_subgroups,
    subgroup,
    subgroup_class_reps,
)


def _fields(x):
    return tuple(getattr(x, f.name) for f in dataclasses.fields(x))


def _check_contract(x, twin):
    """x hashes to its field tuple; its equal twin, built from distinct
    but equal parts, and dataclasses.replace keep that."""
    assert hash(x) == hash(_fields(x))
    assert twin == x and twin is not x and hash(twin) == hash(x)
    same = dataclasses.replace(x)
    assert same == x and hash(same) == hash(x) == hash(_fields(same))


def _char_twin(chi, twin_group):
    return Character(
        subgroup(twin_group, chi.domain.elements), chi.modulus, chi.exponents
    )


def _characters(g):
    """Characters of g made by characters_of, restrict, mul,
    conjugate_character and glued_character."""
    out = []
    subs = subgroup_class_reps(g)
    for h in subs:
        chars = characters_of(h)
        out.extend(chars)
        out.extend(chars[-1].mul(chi) for chi in chars)
        out.extend(conjugate_character(chars[-1], a) for a in range(g.order))
        out.extend(chars[-1].restrict(k) for k in all_subgroups(g)
                   if h.contains_subgroup(k))
    # glue chi, trivial on H & C, to the trivial character of an abelian
    # normal C: a well-defined character of HC
    for c in normal_subgroups(g):
        if not c.as_group.is_abelian():
            continue
        mu = characters_of(c)[0]
        for h in subs:
            for chi in characters_trivial_on(h, intersection(h, c)):
                out.append(glued_character(h, chi, c, mu))
    return out


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4", "C12"])
def test_hash_is_the_dataclass_hash(name):
    g = catalog_group(name)
    twin_group = make_group(g.table, name="twin")
    chars = _characters(g)
    for chi in chars:
        _check_contract(chi, _char_twin(chi, twin_group))
        other = dataclasses.replace(chi, exponents=tuple(0 for _ in chi.exponents))
        assert hash(other) == hash(_fields(other))
    full, twin_full = full_subgroup(g), full_subgroup(twin_group)
    for n in normal_subgroups(g):
        for cls in pair_classes(full, n):
            twin = PairClass(
                twin_full,
                subgroup(twin_group, cls.subgroup.elements),
                _char_twin(cls.char, twin_group),
            )
            _check_contract(cls, twin)
            moved = dataclasses.replace(cls, char=chars[0], subgroup=chars[0].domain)
            assert hash(moved) == hash(_fields(moved))


# The worker of perfbench/ refuses a run whose set-up leaves any cache warm.
_COLD_START = """
import importlib, pkgutil
import monomial

for info in pkgutil.iter_modules(monomial.__path__):
    importlib.import_module(f"monomial.{info.name}")
importlib.import_module("monomial.catalog").catalog_names()
for info in pkgutil.iter_modules(monomial.__path__):
    mod = importlib.import_module(f"monomial.{info.name}")
    for obj in vars(mod).values():
        members = list(vars(obj).values()) if isinstance(obj, type) else []
        for fn in [obj] + members:
            if hasattr(fn, "cache_info") and fn.__module__ == mod.__name__:
                print(f"{info.name}.{fn.__qualname__}", fn.cache_info().currsize)
"""


def test_set_up_leaves_every_cache_cold(run_python):
    sizes = dict(line.split() for line in run_python([], _COLD_START) if line)
    assert "groups.maximal_subgroups" in sizes
    assert "type3.type3_verdict" in sizes
    assert int(sizes.pop("catalog._build")) > 0
    assert {name: n for name, n in sizes.items() if n != "0"} == {}
