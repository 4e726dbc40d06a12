import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "monomial"

# Internal invariants that may still be bare asserts.  A verdict must end in
# a typed MonomialError, which `python -O` does not strip, so this count may
# only go down.
MAX_ASSERTS = 0


# The line count of src/monomial/*.py.  Like MAX_ASSERTS it may only go
# down: a change that grows src raises it and says why in CHANGES.md.
MAX_SRC_LINES = 5633


def _trees():
    return {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in sorted(SRC.glob("*.py"))
    }


def test_bare_asserts_do_not_grow():
    found = [
        f"{name}.py:{node.lineno}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert len(found) <= MAX_ASSERTS, found


def test_src_lines_do_not_grow():
    lines = sum(len(p.read_text().splitlines()) for p in SRC.glob("*.py"))
    assert lines <= MAX_SRC_LINES, lines


# Top-level names of the package that nothing in the package calls: the
# library API (README) and what perfbench/ calls.  Everything else is
# reached from inside src or is a command of the CLI; a reference copy that
# only tests call belongs in tests/oracles.py.
PUBLIC = {
    # library API
    "brauer.dim0_presentation", "brauer.induce_rplus", "brauer.inflate",
    "brauer.one_rplus", "brauer.restrict_rplus", "brauer.zero_rplus",
    "extend.generic_delta", "groups.direct_product", "groups.dump_group",
    "tame.conductor_inductivity", "tame.gauss_sum",
    # perfbench entry points
    "brauer.brauer_map", "brauer.multiply", "brauer.projector_phi",
    "tame.functional_equation", "tame.gauss_functional_check",
    "tame.gauss_modulus_check",
}


def _is_command(node) -> bool:
    """Registered with click: @<group>.command(...) or @<...>.group(...)."""
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def test_src_names_have_callers():
    trees = _trees()
    refs: dict[str, list] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(node)
    defined, uncalled = set(), []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = f"{module}.{node.name}"
            defined.add(name)
            own = {id(n) for n in ast.walk(node)}
            called = any(id(r) not in own for r in refs.get(node.name, ()))
            if not (called or _is_command(node) or name in PUBLIC):
                uncalled.append(name)
    assert uncalled == []
    assert PUBLIC <= defined, sorted(PUBLIC - defined)


# The tame identities are decided in integers: a Gauss-sum check and a dh1
# sweep, run in a fresh interpreter, never load numpy's FFT module.
_NO_FFT = """
import sys

from monomial.tame import dh1_sweep, gauss_modulus_check

print(gauss_modulus_check(5, 1), dh1_sweep(7, 1, 3, True)["ok"], "numpy.fft" in sys.modules)
"""


def test_tame_checks_do_not_load_numpy_fft(run_python):
    assert run_python([], _NO_FFT)[0] == "True True False"
