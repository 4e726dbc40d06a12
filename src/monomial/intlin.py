"""Exact integer linear algebra: Smith normal form, solving, kernels, lattices.

All matrices are lists of lists of Python ints (arbitrary precision).  The
pivoting rule is deterministic -- smallest nonzero absolute value, ties broken
row-major -- so certificates are reproducible across runs.

`Lattice` serves the kernel-lattice verdict: one Smith normal form answers
its rank, its saturation and every membership test.  Lattice equality by
mutual membership, the independent check of the verdict's saturation
argument, is a test oracle (`tests/oracles.py`).
"""

from __future__ import annotations

from dataclasses import dataclass


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a: list[list[int]], v: list[int]) -> list[int]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def transpose(a: list[list[int]]) -> list[list[int]]:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


@dataclass
class SNFResult:
    """U @ A @ V == S with U, V unimodular and S in Smith normal form."""

    s: list[list[int]]
    u: list[list[int]]
    v: list[list[int]]

    @property
    def diagonal(self) -> list[int]:
        n = min(len(self.s), len(self.s[0]) if self.s else 0)
        return [self.s[i][i] for i in range(n)]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _find_pivot(s, t, rows, cols):
    best = None
    for i in range(t, rows):
        row = s[i]
        for j in range(t, cols):
            x = row[j]
            if x:
                key = abs(x)
                if best is None or key < best[0]:
                    best = (key, i, j)
    return best


def smith_normal_form(a: list[list[int]]) -> SNFResult:
    rows = len(a)
    cols = len(a[0]) if rows else 0
    s = [list(row) for row in a]
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def swap_rows(i, j):
        if i != j:
            s[i], s[j] = s[j], s[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in s:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, mult):
        # row[dst] += mult * row[src]
        if mult:
            s[dst][:] = [x + mult * y for x, y in zip(s[dst], s[src])]
            u[dst][:] = [x + mult * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, mult):
        if mult:
            for row in s:
                row[dst] += mult * row[src]
            for row in v:
                row[dst] += mult * row[src]

    t = 0
    while t < min(rows, cols):
        found = _find_pivot(s, t, rows, cols)
        if found is None:
            break
        _, pi, pj = found
        swap_rows(t, pi)
        swap_cols(t, pj)

        # Clear column and row t; restart elimination whenever a remainder
        # forces a smaller pivot into position.
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if s[i][t]:
                    q = s[i][t] // s[t][t]
                    add_row(i, t, -q)
                    if s[i][t]:
                        swap_rows(i, t)
                        dirty = True
            for j in range(t + 1, cols):
                if s[t][j]:
                    q = s[t][j] // s[t][t]
                    add_col(j, t, -q)
                    if s[t][j]:
                        swap_cols(j, t)
                        dirty = True

        # Divisibility condition: pivot must divide the rest of the block.
        piv = s[t][t]
        offender = None
        for i in range(t + 1, rows):
            row = s[i]
            for j in range(t + 1, cols):
                if row[j] % piv:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(t, offender, 1)
            continue  # redo this t with the new row
        if piv < 0:
            s[t][:] = [-x for x in s[t]]
            u[t][:] = [-x for x in u[t]]
        t += 1

    return SNFResult(s=s, u=u, v=v)


def solve(a: list[list[int]], b: list[int]) -> list[int] | None:
    """One integer solution x of A x = b, or None if there is none."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if rows == 0:
        return [0] * cols if all(x == 0 for x in b) else None
    return _solve_snf(smith_normal_form(a), b)


def _solve_snf(snf: SNFResult, b: list[int]) -> list[int] | None:
    """solve() for the matrix whose Smith normal form is `snf`."""
    ub = mat_vec(snf.u, b)
    cols = len(snf.v)
    y = [0] * cols
    diag = snf.diagonal
    for i in range(len(ub)):
        d = diag[i] if i < len(diag) else 0
        if d:
            if ub[i] % d:
                return None
            y[i] = ub[i] // d
        elif ub[i]:
            return None
    return mat_vec(snf.v, y)


def kernel_basis(a: list[list[int]]) -> list[list[int]]:
    """Basis of the integer lattice {x : A x = 0}."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return identity_matrix(cols)
    snf = smith_normal_form(a)
    rank = snf.rank
    vt = transpose(snf.v)  # rows of vt are columns of V
    return [list(vt[j]) for j in range(rank, cols)]


class Lattice:
    """The integer span of the rows of `basis`, with one Smith normal form
    answering every membership test and the rank."""

    def __init__(self, basis: list[list[int]]):
        self.snf = smith_normal_form(transpose(basis)) if basis else None

    def __contains__(self, vector: list[int]) -> bool:
        if self.snf is None:
            return all(x == 0 for x in vector)
        return _solve_snf(self.snf, vector) is not None

    @property
    def rank(self) -> int:
        return self.snf.rank if self.snf is not None else 0

    @property
    def is_saturated(self) -> bool:
        """Z^n / span is torsion-free: every nonzero elementary divisor is 1."""
        return self.snf is None or all(abs(d) <= 1 for d in self.snf.diagonal)
