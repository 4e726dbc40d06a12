import random

from hypothesis import given, settings
from hypothesis import strategies as st

from monomial.intlin import (
    Lattice,
    identity_matrix,
    kernel_basis,
    mat_vec,
    smith_normal_form,
    solve,
    transpose,
)
from oracles import in_lattice, lattice_equal, lattice_rank, mat_mul


def is_unimodular(m):
    snf = smith_normal_form(m)
    return all(d == 1 for d in snf.diagonal) and snf.rank == len(m)


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@settings(max_examples=80, deadline=None)
@given(small_matrices)
def test_snf_decomposition(a):
    snf = smith_normal_form(a)
    assert mat_mul(mat_mul(snf.u, a), snf.v) == snf.s
    assert is_unimodular(snf.u)
    assert is_unimodular(snf.v)
    diag = snf.diagonal
    # off-diagonal zero, nonnegative diagonal with divisibility chain
    for i, row in enumerate(snf.s):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    for i in range(len(diag) - 1):
        assert diag[i] >= 0
        if diag[i + 1]:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0


def test_snf_known_diagonal():
    # [[2,4],[6,8]] has SNF diag (2, 4): det -8, gcd 2.
    snf = smith_normal_form([[2, 4], [6, 8]])
    assert snf.diagonal == [2, 4]


@settings(max_examples=60, deadline=None)
@given(small_matrices, st.randoms(use_true_random=False))
def test_solve_recovers_planted_solution(a, rng):
    x = [rng.randrange(-5, 6) for _ in a[0]]
    b = mat_vec(a, x)
    got = solve(a, b)
    assert got is not None
    assert mat_vec(a, got) == b


def test_solve_reports_unsolvable():
    assert solve([[2, 0], [0, 2]], [1, 0]) is None
    assert solve([[1, 1]], [3]) is not None
    assert solve([[0, 0]], [1]) is None


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_kernel_basis_spans_kernel(a):
    basis = kernel_basis(a)
    for v in basis:
        assert all(x == 0 for x in mat_vec(a, v))
    rows = len(a)
    cols = len(a[0])
    assert len(basis) == cols - smith_normal_form(a).rank
    if basis:
        assert lattice_rank(basis) == len(basis)


def test_kernel_saturated():
    # kernel of [1 1 2] contains (1,-1,0) and (0,2,-1); saturation means
    # (1,1,-1) (= half of (2,2,-2)) must be in the computed lattice too.
    basis = kernel_basis([[1, 1, 2]])
    assert in_lattice(basis, [1, 1, -1])
    assert in_lattice(basis, [2, 0, -1])
    assert not in_lattice(basis, [1, 0, 0])


def test_lattice_equal_and_missing():
    a = [[2, 0], [0, 3]]
    b = [[2, 3], [2, -3]]
    equal, missing = lattice_equal(a, b)
    assert not equal
    # (2,0) = x(2,3)+y(2,-3) forces x=y=1/2; (0,3) forces x=1/2 as well
    assert missing == [[2, 0], [0, 3]]


def test_lattice_equal_basic():
    a = [[1, 0], [0, 1]]
    b = [[1, 1], [0, 1]]
    equal, missing = lattice_equal(a, b)
    assert equal and missing == []
    c = [[2, 0], [0, 1]]
    equal, missing = lattice_equal(a, c)
    assert not equal
    assert [1, 0] in missing

    d = identity_matrix(3)
    assert transpose(d) == d


def test_lattice_membership_matches_solve():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(2, 5)
        basis = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(rows)]
        span = Lattice(basis)
        assert span.rank == smith_normal_form(basis).rank
        for _ in range(6):
            vec = [rng.randrange(-4, 5) for _ in range(cols)]
            assert (vec in span) == (solve(transpose(basis), vec) is not None)
            coeffs = [rng.randrange(-2, 3) for _ in basis]
            combo = [sum(c * r[j] for c, r in zip(coeffs, basis)) for j in range(cols)]
            assert combo in span
    empty = Lattice([])
    assert [0, 0] in empty and [0, 1] not in empty and empty.rank == 0
