"""Layer probes, applied to the package from outside.

A probe replaces a function or method of `monomial` with a wrapper.  A
function is rebound in every `monomial` module that holds it, because
`from .x import y` copies the binding; a method is replaced on its class.
Nothing here imports `monomial` at module level: the worker imports the
package first, as part of its timed set-up.

Two kinds of probe exist and are never installed in the same pass:

* `Tracer` records one span per call of each function in `SPANNED`: name,
  start, end, parent span and item id.  Spans stay in memory and are written
  once, when the pass ends.
* `Counter` counts calls of each target in `COUNTED`, so that hot-method
  counts can be exact without inflating the self times of the spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

MODULES = (
    "groups", "catalog", "characters", "cyclotomic", "intlin", "brauer",
    "relations", "type3", "extend", "tame", "cli",
)

# Functions timed by a span in the traced pass.
SPANNED = (
    "brauer._phi_matrix", "brauer.brauer_map", "brauer.projector_phi",
    "brauer.multiply", "characters.decompose", "characters.induce",
    "groups.subgroups", "relations.gen_type_I", "relations.gen_type_II",
    "relations.gen_type_III", "intlin.lattice_equal",
    "intlin.smith_normal_form", "intlin.solve", "tame.gauss_sum",
    "tame.check_DH_I", "tame.check_DH_III_tame", "extend.check_conditions",
    "extend.extend", "extend.verify_tower", "type3.is_type_III",
    "type3.complements_census", "type3.h1_trivial",
)

# Exact counters of the counting pass: metric name -> the attributes whose
# calls it counts (a reflected operator counts with its forward form).
COUNTED = {
    "cyclotomic.Cyclotomic.mul.calls": (
        "cyclotomic.Cyclotomic.__mul__", "cyclotomic.Cyclotomic.__rmul__"),
    "cyclotomic.Cyclotomic.add.calls": (
        "cyclotomic.Cyclotomic.__add__", "cyclotomic.Cyclotomic.__radd__"),
    "groups.Group.hash.calls": ("groups.Group.__hash__",),
    "groups.Group.conj.calls": ("groups.Group.conj",),
    "characters.inner_product.calls": ("characters.inner_product",),
    "intlin.smith_normal_form.calls": ("intlin.smith_normal_form",),
    "tame.CycVec.mul.calls": ("tame.CycVec.__mul__",),
    "tame.CycVec.is_zero.calls": ("tame.CycVec.is_zero",),
    "tame.CycVec.is_zero.exact_fallbacks": ("tame.CycVec._exact_is_zero",),
}

# Every functools.lru_cache of the package at the reference commit.  A
# cache that a later change removes reads as size 0; cache_size is the
# largest size a cache reached.
CACHED = (
    "brauer.pair_class", "brauer.pair_classes", "brauer._subgroup_reps_within",
    "brauer._phi_generator", "brauer._phi_matrix", "catalog._build",
    "characters.abelian_basis", "characters._abelian_coordinates",
    "characters._abelianization", "characters.characters_of",
    "characters.subgroup_classes", "characters.induce",
    "characters.irreducible_characters", "cyclotomic._cyclo_coeffs",
    "cyclotomic._divisors", "cyclotomic.sqrt_prime",
    "extend._minimal_abelian_layers", "groups.subgroups",
    "groups.normal_subgroups", "groups.quotient", "tame.finite_field",
    "tame.gauss_sum", "tame._phi_int", "tame._primitive_indices",
    "tame._sqrt_pairs", "tame._gauss_support", "tame._embedding_data",
)

# Caches that the set-up itself fills (the catalog build).
SETUP_CACHES = ("catalog._build",)


def _modules():
    return [importlib.import_module(f"monomial.{m}") for m in MODULES]


def _lookup(path: str):
    """(owner, attribute, value) for 'module.attr' or 'module.Class.attr';
    None when the package no longer has it."""
    mod_name, *rest = path.split(".")
    owner = importlib.import_module(f"monomial.{mod_name}")
    for part in rest[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, rest[-1]):
        return None
    return owner, rest[-1], getattr(owner, rest[-1])


def _replace(path: str, make_wrapper) -> None:
    found = _lookup(path)
    if found is None:
        return
    owner, attr, original = found
    wrapper = make_wrapper(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for mod in _modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)


class Caches:
    """Every lru cache of the package, found before any probe wraps them:
    the ones in CACHED and any a later change adds.

    `warm()` is the cold-start guard.  Each block runs in its own child
    process; `stats(base)` gives the child's hits and misses since `base`
    (the set-up's own `stats()`) and its final sizes, and `add()` sums them
    in the parent for `metrics()`, keeping the largest size seen.
    """

    def __init__(self):
        self.fns = {}
        for mod in _modules():
            for obj in vars(mod).values():
                members = list(vars(obj).values()) if isinstance(obj, type) else []
                for fn in [obj] + members:
                    if (hasattr(fn, "cache_clear") and hasattr(fn, "cache_info")
                            and fn.__module__.startswith("monomial.")):
                        name = f"{fn.__module__[len('monomial.'):]}.{fn.__qualname__}"
                        self.fns[name] = fn
        self.totals = {name: [0, 0, 0] for name in self.fns}  # hits, misses, size

    def warm(self) -> dict:
        return {
            name: fn.cache_info().currsize
            for name, fn in self.fns.items()
            if name not in SETUP_CACHES and fn.cache_info().currsize
        }

    def stats(self, base: dict | None = None) -> dict:
        out = {}
        for name, fn in self.fns.items():
            info = fn.cache_info()
            hits, misses, _ = base[name] if base else (0, 0, 0)
            out[name] = [info.hits - hits, info.misses - misses, info.currsize]
        return out

    def add(self, stats: dict) -> None:
        for name, (hits, misses, size) in stats.items():
            total = self.totals[name]
            total[0] += hits
            total[1] += misses
            total[2] = max(total[2], size)

    def metrics(self) -> dict:
        out = {}
        for path in CACHED:
            hits, misses, size = self.totals.get(path, (0, 0, 0))
            out[f"{path}.cache_size"] = size
            out[f"{path}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out


# ---------------------------------------------------------------------------
# spans


def _snf_sizes(args, result) -> dict:
    a = args[0]
    bits = max(
        (abs(x).bit_length() for m in (result.s, result.u, result.v)
         for row in m for x in row),
        default=0,
    )
    return {
        "max_rows": len(a),
        "max_cols": len(a[0]) if a else 0,
        "max_entry_bits": bits,
    }


def _relation_count(args, result) -> dict:
    return {"relations": len(result)}


# span name -> (function of (args, result) giving the sizes, their keys)
SIZERS = {
    "intlin.smith_normal_form": (
        _snf_sizes, ("max_rows", "max_cols", "max_entry_bits")),
    "relations.gen_type_I": (_relation_count, ("relations",)),
    "relations.gen_type_II": (_relation_count, ("relations",)),
    "relations.gen_type_III": (_relation_count, ("relations",)),
}


class Tracer:
    """In-memory span recorder.

    A span is [name, start, end, covered_end, parent, item, sizes]; start and
    end bound the call, and covered_end also covers the size bookkeeping
    done after it, so that time is not charged to the parent's self time.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.item = None

    def install(self) -> None:
        for path in SPANNED:
            sizer = SIZERS.get(path, (None,))[0]
            _replace(path, functools.partial(self._wrap, path, sizer))

    def _wrap(self, name, sizer, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = span[3] = clock()
                stack.pop()
            if sizer is not None:
                span[6] = sizer(args, result)
                span[3] = clock()
            return result

        return traced

    def extend(self, spans: list) -> None:
        """Append the spans another process recorded, renumbering parents."""
        offset = len(self.spans)
        for span in spans:
            if span[4] >= 0:
                span[4] += offset
            self.spans.append(span)

    def call(self, name: str, fn):
        """Run fn() under a span of its own."""
        return self._wrap(name, None, fn)()

    def metrics(self) -> dict:
        """Per span name: calls, total_s (outermost calls only, so recursion
        is not counted twice), self_s (duration minus the time its child
        spans cover) and the aggregated sizes (max_* by maximum, others
        summed)."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, cov_end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += cov_end - start
        out: dict = {}
        for idx, (name, start, end, _, parent, _, sizes) in enumerate(spans):
            dur = end - start
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur - covered[idx]
            anc = parent
            while anc >= 0 and spans[anc][0] != name:
                anc = spans[anc][4]
            if anc < 0:
                out[f"{name}.total_s"] = out.get(f"{name}.total_s", 0.0) + dur
            for key, value in (sizes or {}).items():
                full = f"{name}.{key}"
                if key.startswith("max_"):
                    out[full] = max(out.get(full, 0), value)
                else:
                    out[full] = out.get(full, 0) + value
        for path in SPANNED:
            keys = ("calls", "self_s", "total_s") + SIZERS.get(path, (None, ()))[1]
            for key in keys:
                out.setdefault(f"{path}.{key}", 0)
        return out

    def top_level_s(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[4] < 0)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# exact counters


class Counter:
    def __init__(self):
        self.counts = {name: 0 for name in COUNTED}

    def install(self) -> None:
        for name, targets in COUNTED.items():
            for path in targets:
                _replace(path, functools.partial(self._wrap, name))

    def _wrap(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted
