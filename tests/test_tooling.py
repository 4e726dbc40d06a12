import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "monomial"

# Internal invariants that may still be bare asserts.  A verdict must end in
# a typed MonomialError, which `python -O` does not strip, so this count may
# only go down.
MAX_ASSERTS = 9


def test_bare_asserts_do_not_grow():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(found) <= MAX_ASSERTS, found
