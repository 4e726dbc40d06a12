import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "monomial"

# Internal invariants that may still be bare asserts.  A verdict must end in
# a typed MonomialError, which `python -O` does not strip, so this count may
# only go down.
MAX_ASSERTS = 5


def test_bare_asserts_do_not_grow():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(found) <= MAX_ASSERTS, found


# The tame identities are decided in integers: a Gauss-sum check and a dh1
# sweep, run in a fresh interpreter, never load numpy's FFT module.
_NO_FFT = """
import sys

from monomial.tame import dh1_sweep, gauss_modulus_check

print(gauss_modulus_check(5, 1), dh1_sweep(7, 1, 3, True)["ok"], "numpy.fft" in sys.modules)
"""


def test_tame_checks_do_not_load_numpy_fft(run_python):
    assert run_python([], _NO_FFT)[0] == "True True False"
