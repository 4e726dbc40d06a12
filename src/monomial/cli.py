"""Command-line front door: catalog browsing, relation generation, the
lattice verification, type-III scans, extension runs, tame arithmetic
checks, and batch campaigns with deterministic, atomically written
reports."""

from __future__ import annotations

import os
import tempfile
from functools import lru_cache

import click

from .brauer import pair_classes
from .catalog import catalog_group, catalog_names
from .characters import (
    canonical_modulus,
    character,
    characters_of,
    irreducible_characters,
)
from .cyclotomic import factorize
from .errors import CertificateFailed, MonomialError, ParseError
from .extend import (
    FreeAbelianGroup,
    check_conditions,
    constant_delta,
    delta_function,
    extend,
    uniqueness_check,
    verify_tower,
)
from .groups import (
    center,
    closure,
    derived_subgroup,
    full_subgroup,
    is_nilpotent,
    load_group,
    maximal_subgroups,
    normal_subgroups,
    parse_int,
    subgroup as make_subgroup,
    subgroup_class_reps,
    trivial_subgroup,
)
from .relations import basic_relations, verify_theorem_2_7
from .tame import check_DH_III_tame, dh1_sweep, galois_delta
from .type3 import type3_verdict


# ---------------------------------------------------------------------------
# helpers


def _emit(text: str, out: str | None) -> None:
    """Print, or write atomically (temp file + rename) when --out is set."""
    if out is None:
        click.echo(text, nl=False)
        return
    directory = os.path.dirname(os.path.abspath(out)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _resolve_group(name: str):
    if os.path.exists(name):
        with open(name) as handle:
            return load_group(handle.read())
    return catalog_group(name)


def _parse_n(g, selector: str):
    sel = selector.strip().lower()
    if sel in ("trivial", "e", "{e}", "1"):
        return trivial_subgroup(g)
    if sel == "full":
        return full_subgroup(g)
    if sel == "center":
        return center(g)
    if sel == "derived":
        return derived_subgroup(g)
    try:
        elements = [int(tok) for tok in selector.replace(",", " ").split()]
    except ValueError:
        elements = [-1]  # not an element: refused below
    if not elements or not all(0 <= x < g.order for x in elements):
        raise click.ClickException(
            f"N selector {selector!r} is not trivial, full, center, derived "
            f"or a list of elements 0..{g.order - 1}"
        )
    n = closure(g, elements)
    if sorted(n.elements) != sorted(set(elements) | {0}):
        raise click.ClickException(
            f"N selector {selector!r} is not a subgroup (closure is {list(n.elements)})"
        )
    return n


def _parse_kinds(text: str) -> tuple[str, ...]:
    """The comma-separated relation kinds, each stripped; an empty token is
    kept, so that `basic_relations` refuses it."""
    return tuple(k.strip() for k in text.split(","))


def _parse_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise click.ClickException("q must be a prime power >= 2")
    (p, f), *rest = factorize(q)
    if rest:
        raise click.ClickException("q must be a prime power")
    return p, f


# The keys a target line and each campaign check take.
_CAMPAIGN_KEYS = {
    "target": ("N",), "thm2.7": ("kinds",), "type3": (), "extend": (),
    "towers": (), "dh1": ("q", "ell", "ramified"), "dh3": ("q", "ell"),
}


def _campaign_params(tokens: list[str], raw: str, keys) -> dict[str, str]:
    """The key=value tokens of one line; a key outside `keys`, an empty
    side or a repeated key is refused, naming the token."""
    params: dict[str, str] = {}
    for tok in tokens:
        key, eq, value = tok.partition("=")
        if not (key and eq and value):
            raise click.ClickException(
                f"campaign token {tok!r} is not key=value in {raw!r}"
            )
        if key not in keys:
            raise click.ClickException(
                f"campaign token {tok!r} has an unknown key in {raw!r}"
            )
        if key in params:
            raise click.ClickException(
                f"campaign token {tok!r} repeats the key {key!r} in {raw!r}"
            )
        params[key] = value
    return params


def _int_param(check_name: str, params: dict[str, str], key: str) -> int:
    try:
        return int(params[key])
    except (KeyError, ValueError):
        raise click.ClickException(
            f"check {check_name} needs an integer {key}=..., got {params.get(key)!r}"
        ) from None


def _bool_param(check_name: str, params: dict[str, str], key: str) -> bool:
    """A key=value flag, false when absent: true/1/yes or false/0/no in any
    case; any other value is refused, naming the token."""
    value = params.get(key, "false")
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise click.ClickException(
        f"check {check_name} needs {key}=true/false/1/0/yes/no, "
        f"got {key + '=' + value!r}"
    )


def _group_targets(name: str | None, max_order: int | None):
    if name is not None:
        return [(os.path.basename(name), _resolve_group(name))]
    names = catalog_names()
    out = []
    for nm in names:
        g = catalog_group(nm)
        if max_order is None or g.order <= max_order:
            out.append((nm, g))
    return out


# ---------------------------------------------------------------------------
# command tree


class _RefusalGroup(click.Group):
    """Ends every structured refusal in one `Error:` line, not a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except MonomialError as exc:
            raise click.ClickException(f"{type(exc).__name__}: {exc}") from exc


@click.group(cls=_RefusalGroup)
def main():
    """Exact verification toolkit for induced-pair rings, their basic
    relations, and tame local constants."""


@main.group()
def catalog():
    """The built-in group catalog."""


@catalog.command("list")
@click.option("--out", default=None, help="Write the report to a file.")
def catalog_list(out):
    lines = ["name order abelian nilpotent"]
    for name in catalog_names():
        g = catalog_group(name)
        lines.append(
            f"{name} {g.order} {g.is_abelian()} {is_nilpotent(g)}"
        )
    _emit("\n".join(lines) + "\n", out)


@main.group()
def group():
    """Inspect a single group (catalog name or group file)."""


@group.command("info")
@click.argument("name")
@click.option("--out", default=None)
def group_info(name, out):
    g = _resolve_group(name)
    lines = [
        f"group {g.name or name}",
        f"order {g.order}",
        f"abelian {g.is_abelian()}",
        f"center {center(g).order}",
        f"derived {derived_subgroup(g).order}",
        f"conjugacy-classes {len(g.conjugacy_classes)}",
        f"normal-subgroups {len(normal_subgroups(g))}",
        f"subgroup-classes {len(subgroup_class_reps(g))}",
        f"maximal-subgroup-classes {len(maximal_subgroups(g))}",
    ]
    _emit("\n".join(lines) + "\n", out)


@main.group()
def relations():
    """Basic relation generators."""


@relations.command("gens")
@click.argument("name")
@click.option("--n", "n_sel", default="trivial", help="Normal subgroup selector.")
@click.option("--kinds", default="I,II,III")
@click.option("--out", default=None)
def relations_gens(name, n_sel, kinds, out):
    g = _resolve_group(name)
    n = _parse_n(g, n_sel)
    kind_list = _parse_kinds(kinds)
    rels = basic_relations(g, n, kind_list)
    lines = [f"# {len(rels)} relations, kinds {','.join(kind_list)}"]
    for rel in rels:
        lines.append(f"kind {rel.kind}")
        lines.append(rel.element.serialize())
    _emit("\n".join(lines) + "\n", out)


@main.group()
def verify():
    """Exact verification of the kernel-lattice theorem."""


@verify.command("thm27")
@click.argument("name", required=False)
@click.option("--max-order", type=int, default=None)
@click.option("--kinds", default="I,II,III")
@click.option("--out", default=None)
def verify_thm27(name, max_order, kinds, out):
    kind_list = _parse_kinds(kinds)
    lines = []
    ok = True
    for nm, g in _group_targets(name, max_order):
        for n in normal_subgroups(g):
            report = verify_theorem_2_7(g, n, kind_list)
            lines.append(
                f"{nm} N=({' '.join(str(x) for x in n.elements)}) "
                f"relations={report.n_relations} kernel_rank={report.kernel_rank} "
                f"span_rank={report.span_rank} equal={report.equal}"
            )
            ok = ok and report.equal
    lines.append(f"RESULT {'pass' if ok else 'fail'}")
    _emit("\n".join(lines) + "\n", out)
    if not ok:
        raise SystemExit(1)


@main.group()
def type3():
    """Classification of maximal subgroup configurations."""


@type3.command("scan")
@click.argument("name", required=False)
@click.option("--max-order", type=int, default=None)
@click.option("--out", default=None)
def type3_scan(name, max_order, out):
    lines = []
    ok = True
    for nm, g in _group_targets(name, max_order):
        for h in maximal_subgroups(g):
            head = f"{nm} H=({' '.join(str(x) for x in h.elements)})"
            verdict = type3_verdict(g, h)
            if isinstance(verdict.error, CertificateFailed):
                lines.append(f"{head} failed CertificateFailed: {verdict.error}")
                ok = False
            elif verdict.error is not None:
                lines.append(f"{head} refused {type(verdict.error).__name__}")
            elif verdict.cert.degenerate:
                lines.append(f"{head} degenerate ell={verdict.cert.ell}")
            else:
                lines.append(
                    f"{head} ell={verdict.cert.ell} K={verdict.cert.k.order} "
                    f"C={verdict.cert.c.order} complements={verdict.complements} "
                    f"census_ok={verdict.census_ok} h1_trivial={verdict.h1}"
                )
    _emit("\n".join(lines) + "\n", out)
    if not ok:
        raise SystemExit(1)


def _parse_delta_file(g, n, text: str):
    vgroup = FreeAbelianGroup()
    assignments = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 3:
            raise click.ClickException(
                f"delta line needs 'elements | exponents | value': {raw!r}"
            )
        where = f"delta line {raw!r}"
        elements = [parse_int(t, where) for t in parts[0].split()]
        bad = next((x for x in elements if not 0 <= x < g.order), None)
        if bad is not None:
            raise ParseError(f"element {bad} is outside 0..{g.order - 1} in {where}")
        h = make_subgroup(g, elements, check=True)
        exps = [parse_int(t, where) for t in parts[1].split()]
        chi = character(h, canonical_modulus(h), exps)
        if chi not in characters_of(h):
            raise ParseError(f"exponents {parts[1]!r} are not a character of H in {where}")
        assignments[(h, chi)] = _parse_value(vgroup, parts[2], where)
    return delta_function(g, n, vgroup, assignments), vgroup


def _parse_value(vgroup, token: str, where: str):
    value = vgroup.one()
    if token == "1":
        return value
    for factor in token.split("*"):
        sym, hat, exp = factor.strip().partition("^")
        power = parse_int(exp, where) if hat else 1
        value = vgroup.mul(value, vgroup.pow(vgroup.symbol(sym), power))
    return value


@main.group(name="extend")
def extend_cmd():
    """Run the extension engine on a group + Delta description."""


@extend_cmd.command("run")
@click.argument("group_file")
@click.argument("delta_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--n", "n_sel", default="trivial")
@click.option("--full-kernel", is_flag=True, default=False)
@click.option("--out", default=None)
def extend_run(group_file, delta_file, n_sel, full_kernel, out):
    g = _resolve_group(group_file)
    n = _parse_n(g, n_sel)
    with open(delta_file) as handle:
        delta, vgroup = _parse_delta_file(g, n, handle.read())
    lines = [f"group {g.name or group_file} order {g.order}"]
    violations = check_conditions(delta)
    if violations:
        first = violations[0]
        lines.append(f"conditions fail ({len(violations)} violations)")
        lines.append(f"first condition {first['condition']}: {first}")
        lines.append("RESULT refused")
        _emit("\n".join(lines) + "\n", out)
        raise SystemExit(1)
    lines.append("conditions pass")
    ext = extend(delta, full_kernel=full_kernel)
    lines.append(f"unique {uniqueness_check(ext)}")
    tower = verify_tower(delta)
    lines.append(f"tower-identities {'pass' if not tower else tower}")
    for i, rho in enumerate(irreducible_characters(g)):
        value = ext.evaluate(delta.ambient, rho)
        lines.append(f"F(chi_{i}, dim {rho.dimension()}) = {vgroup.describe(value)}")
    lines.append("RESULT extended")
    _emit("\n".join(lines) + "\n", out)


@main.group()
def tame():
    """Tame local-constant checks."""


@tame.command("dh1")
@click.option("--q", type=int, required=True)
@click.option("--ell", type=int, required=True)
@click.option("--ramified", is_flag=True, default=False)
@click.option("--lpsi", type=int, default=0)
@click.option("--out", default=None)
def tame_dh1(q, ell, ramified, lpsi, out):
    p, f = _parse_prime_power(q)
    report = dh1_sweep(p, f, ell, ramified, lpsi)
    _emit(
        f"dh1 q={q} ell={ell} ramified={ramified} cases={report['cases']} "
        f"verdict={'pass' if report['ok'] else 'fail'}\n",
        out,
    )
    if not report["ok"]:
        raise SystemExit(1)


@tame.command("dh3")
@click.option("--q", type=int, required=True)
@click.option("--ell", type=int, required=True)
@click.option("--lpsi", type=int, default=0)
@click.option("--out", default=None)
def tame_dh3(q, ell, lpsi, out):
    p, f = _parse_prime_power(q)
    report = check_DH_III_tame(p, f, ell, lpsi)
    _emit(
        f"dh3 q={q} ell={ell} m={report['m']} cases={report['cases']} "
        f"verdict={'pass' if report['ok'] else 'fail'}\n",
        out,
    )
    if not report["ok"]:
        raise SystemExit(1)


@tame.command("galois-model")
@click.option("--model", required=True,
              type=click.Choice(["unramified", "kummer", "bikummer", "s3"]))
@click.option("--q", type=int, default=2)
@click.option("--ell", type=int, default=None)
@click.option("--degree", type=int, default=None)
@click.option("--lpsi", type=int, default=0)
@click.option("--out", default=None)
def tame_galois_model(model, q, ell, degree, lpsi, out):
    p, f = _parse_prime_power(q)
    delta = galois_delta(model, p=p, f=f, ell=ell, degree=degree, lpsi=lpsi)
    g = delta.ambient.parent
    lines = [f"model {model} q={q} group {g.name} order {g.order}"]
    for cls in pair_classes(delta.ambient, delta.lower):
        value = delta.values[cls]
        lines.append(f"{cls.serialize()} -> ({value.c!r}, {value.k})")
    violations = check_conditions(delta)
    if violations:
        lines.append(f"conditions fail ({len(violations)})")
        lines.append("RESULT refused")
        _emit("\n".join(lines) + "\n", out)
        raise SystemExit(1)
    lines.append(f"conditions pass; unique {uniqueness_check(extend(delta))}")
    lines.append("RESULT extended")
    _emit("\n".join(lines) + "\n", out)


# ---------------------------------------------------------------------------
# campaigns


@main.group()
def campaign():
    """Batch verification campaigns from a line-oriented file."""


@lru_cache(maxsize=None)
def _extend_refusal(g, n) -> str | None:
    """The name of the refusal `extend` gives the constant Delta on (G, N),
    or None when it extends.  A pure function of (G, N), so targets that
    repeat a (G, N) share one run."""
    delta = constant_delta(g, n, FreeAbelianGroup())
    try:
        extend(delta)
    except MonomialError as exc:
        return type(exc).__name__
    return None


@lru_cache(maxsize=None)
def _tower_issues(g, n) -> int:
    """The number of tower-law violations of the constant Delta on (G, N),
    computed once per (G, N) like `_extend_refusal`."""
    return len(verify_tower(constant_delta(g, n, FreeAbelianGroup())))


def _campaign_check(check_name, params, targets, lines) -> bool:
    ok = True
    if check_name == "thm2.7":
        kinds = _parse_kinds(params.get("kinds", "I,II,III"))
        for nm, g, n in targets:
            report = verify_theorem_2_7(g, n, kinds)
            lines.append(
                f"thm2.7 {nm} N=({' '.join(str(x) for x in n.elements)}) "
                f"equal={report.equal}"
            )
            ok = ok and report.equal
    elif check_name == "type3":
        for nm, g, _ in targets:
            for h in maximal_subgroups(g):
                head = f"type3 {nm} H=({' '.join(str(x) for x in h.elements)})"
                verdict = type3_verdict(g, h)
                if isinstance(verdict.error, CertificateFailed):
                    lines.append(f"{head} failed CertificateFailed: {verdict.error}")
                    ok = False
                elif verdict.error is not None:
                    lines.append(f"{head} refused {type(verdict.error).__name__}")
                elif verdict.cert.degenerate:
                    lines.append(f"{head} degenerate")
                else:
                    good = verdict.census_ok and verdict.h1
                    lines.append(f"{head} ok={good}")
                    ok = ok and good
    elif check_name == "extend":
        for nm, g, n in targets:
            refusal = _extend_refusal(g, n)
            if refusal is None:
                lines.append(f"extend {nm} extended")
            else:
                lines.append(f"extend {nm} refused {refusal}")
                ok = False
    elif check_name == "towers":
        for nm, g, n in targets:
            issues = _tower_issues(g, n)
            lines.append(f"towers {nm} issues={issues}")
            ok = ok and not issues
    elif check_name == "dh1":
        p, f = _parse_prime_power(_int_param(check_name, params, "q"))
        ell = _int_param(check_name, params, "ell")
        ramified = _bool_param(check_name, params, "ramified")
        report = dh1_sweep(p, f, ell, ramified)
        lines.append(
            f"dh1 q={params['q']} ell={params['ell']} ramified={ramified} "
            f"ok={report['ok']}"
        )
        ok = ok and report["ok"]
    elif check_name == "dh3":
        p, f = _parse_prime_power(_int_param(check_name, params, "q"))
        report = check_DH_III_tame(p, f, _int_param(check_name, params, "ell"))
        lines.append(f"dh3 q={params['q']} ell={params['ell']} ok={report['ok']}")
        ok = ok and report["ok"]
    return ok


@campaign.command("run")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", default=None)
def campaign_run(file, out):
    with open(file) as handle:
        text = handle.read()
    targets = []
    checks = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] not in ("target", "check") or len(tokens) < 2:
            raise click.ClickException(f"bad campaign line: {raw!r}")
        kind = "target" if tokens[0] == "target" else tokens[1]
        if kind not in _CAMPAIGN_KEYS:
            raise click.ClickException(f"unknown campaign check {kind!r}")
        params = _campaign_params(tokens[2:], raw, _CAMPAIGN_KEYS[kind])
        if tokens[0] == "target":
            g = _resolve_group(tokens[1])
            targets.append((tokens[1], g, _parse_n(g, params.get("N", "trivial"))))
        else:
            checks.append((tokens[1], params))
    lines = []
    ok = True
    for check_name, params in checks:
        try:
            ok = _campaign_check(check_name, params, targets, lines) and ok
        except MonomialError as exc:
            lines.append(f"{check_name} error {type(exc).__name__}: {exc}")
            ok = False
    lines.append(f"RESULT {'pass' if ok else 'fail'}")
    _emit("\n".join(lines) + "\n", out)
    if not ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
