"""Exact lattice algebra: HNF canonicality, kernels, saturation, membership."""
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab.intlattice import IntLattice, IntMatrix, kernel_basis
from oracles import hnf, lattice_equal, member, span


def unimodular(n, rng):
    """Random product of elementary row operations."""
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        i, j = rng.sample(range(n), 2)
        op = rng.randrange(3)
        if op == 0:
            c = rng.randint(-3, 3)
            U[i] = [x + c * y for x, y in zip(U[i], U[j])]
        elif op == 1:
            U[i], U[j] = U[j], U[i]
        else:
            U[i] = [-x for x in U[i]]
    return U


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


class TestHnf:
    def test_gcd_row_reduction(self):
        m = IntMatrix.from_rows([[2, 4], [1, 2]], 2)
        assert hnf(m).entries == ((1, 2),)

    def test_identity_fixed(self):
        eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert hnf(IntMatrix.from_rows(eye, 3)).entries == eye

    def test_unimodular_invariance(self):
        rng = random.Random(7)
        for _ in range(20):
            B = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
            U = unimodular(5, rng)
            assert hnf(IntMatrix.from_rows(matmul(U, B), 5)) == hnf(IntMatrix.from_rows(B, 5))

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(20):
            B = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)], 4)
            h = hnf(B)
            assert hnf(h) == h


class TestKernel:
    def test_repeated_row(self):
        k = kernel_basis(IntMatrix.from_rows([[1, 1], [1, 1]], 2))
        assert k.rank == 1
        (v,) = k.basis.entries
        assert sorted(v) == [-1, 1]

    def test_zero_matrix(self):
        k = kernel_basis(IntMatrix.from_rows([[0, 0, 0, 0]] * 3, 4))
        assert lattice_equal(k, span(4, [[int(i == j) for j in range(4)] for i in range(4)]))

    def test_annihilation_and_rank_nullity(self):
        rng = random.Random(5)
        for _ in range(20):
            rows, cols = rng.randint(1, 5), rng.randint(1, 6)
            m = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)], cols)
            k = kernel_basis(m)
            for v in k.basis.entries:
                assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m.entries)
            assert k.rank == cols - hnf(m).rows

    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(
            lambda shape: st.lists(
                st.lists(st.integers(-3, 3), min_size=shape[1], max_size=shape[1]),
                min_size=shape[0], max_size=shape[0],
            )
        )
    )
    def test_kernel_is_saturated(self, rows):
        # every integer solution in a small box is an integer combination of
        # the kernel basis, not only a rational one: checked by brute force,
        # without computing a second kernel
        m = IntMatrix.from_rows(rows, len(rows[0]))
        k = kernel_basis(m)
        for v in itertools.product(range(-3, 4), repeat=m.cols):
            if all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows):
                assert member(v, k) is not None


class TestMember:
    def test_basis_row_unit_coeff(self):
        L = span(3, [[1, 0, 2], [0, 1, 1]])
        rows = L.basis.entries
        for i, row in enumerate(rows):
            c = member(row, L)
            assert c is not None
            assert list(c) == [1 if j == i else 0 for j in range(len(rows))]

    def test_absent(self):
        L = span(2, [[2, 0]])
        assert member([1, 0], L) is None

    def test_coefficients_reproduce(self):
        rng = random.Random(13)
        L = span(4, [[2, 1, 0, 3], [0, 5, 1, 1], [1, 1, 1, 1]])
        B = L.basis.entries
        for _ in range(30):
            cs = [rng.randint(-6, 6) for _ in B]
            v = [sum(c * row[j] for c, row in zip(cs, B)) for j in range(4)]
            got = member(v, L)
            assert got is not None
            assert [sum(c * row[j] for c, row in zip(got, B)) for j in range(4)] == v

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            member([1, 2, 3], span(2, [[1, 0]]))


class TestLatticeEqual:
    def test_unimodular_rebasing(self):
        rng = random.Random(17)
        rows = [[3, 1, 4, 1], [5, 9, 2, 6], [5, 3, 5, 8]]
        U = unimodular(3, rng)
        L1 = span(4, rows)
        L2 = span(4, matmul(U, rows))
        assert lattice_equal(L1, L2)

    def test_scaled_not_equal(self):
        assert not lattice_equal(span(2, [[1, 0]]), span(2, [[2, 0]]))

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension"):
            lattice_equal(span(2, []), span(3, []))


@settings(max_examples=100)
@given(
    st.integers(1, 4).flatmap(
        lambda r: st.lists(
            st.lists(st.integers(-20, 20), min_size=4, max_size=4), min_size=r, max_size=r
        )
    )
)
def test_hnf_preserves_row_lattice(rows):
    m = IntMatrix.from_rows(rows, 4)
    h = hnf(m)
    L = IntLattice(4, h)
    for row in rows:
        assert member(row, L) is not None
    # and conversely every HNF row is an integer combination of the inputs:
    # adding the HNF rows to the inputs leaves the canonical basis as it is,
    # and the lattices L(rows) inside L(h), both of rank r, have index
    # gcd of r x r minors of rows / that of h, which must be 1
    assert hnf(IntMatrix.from_rows([*rows, *h.entries], 4)) == h
    assert minors_gcd(rows, 4, h.rows) == minors_gcd(h.entries, 4, h.rows)


def minors_gcd(rows, cols: int, k: int) -> int:
    """gcd of the k x k minors of rows of width cols (1 for k = 0), by
    Leibniz's formula."""

    def det(a):
        return sum(
            (-1) ** sum(x > y for x, y in itertools.combinations(p, 2)) * math.prod(a[i][p[i]] for i in range(k))
            for p in itertools.permutations(range(k))
        )

    return math.gcd(*(
        det([[rows[i][j] for j in cs] for i in rs])
        for rs in itertools.combinations(range(len(rows)), k)
        for cs in itertools.combinations(range(cols), k)
    ))


# ---------------------------------------------------------------------------
# an independent check of the lattice core against sympy (a test-only extra)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def integer_matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_cols).flatmap(lambda cols: st.lists(
        st.lists(st.integers(-4, 4), min_size=cols, max_size=cols), min_size=1, max_size=max_rows,
    ).map(lambda rows: (rows, cols)))


@settings(max_examples=200, deadline=None)
@given(integer_matrices(max_rows=6, max_cols=7))
def test_kernel_basis_is_canonical_and_annihilated(case):
    # a canonical basis (hnf leaves it as it is) of vectors that m annihilates
    rows, cols = case
    k = kernel_basis(IntMatrix.from_rows(rows, cols))
    assert hnf(k.basis) == k.basis
    for v in k.basis.entries:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)


def sympy_row_lattice(sympy, rows):
    """Columns spanning the row lattice of rows: sympy's column-style HNF of
    the transpose (full column rank; no columns when the rows are zero)."""
    from sympy.matrices.normalforms import hermite_normal_form

    return hermite_normal_form(sympy.Matrix(rows).T)


def in_column_lattice(sympy, H, v) -> bool:
    """Whether v is an integer combination of the independent columns of H,
    by an exact rational solve."""
    if H.cols == 0:
        return not any(v)
    try:
        solution, _ = H.gauss_jordan_solve(sympy.Matrix(v))
    except ValueError:  # inconsistent: v is not even in the rational span
        return False
    return all(x.is_integer for x in solution)


class TestSympyCrossCheck:
    """hnf, kernel_basis and member against sympy, compared as lattices
    (rank plus mutual membership), since the HNF conventions differ."""

    @given(integer_matrices())
    @settings(max_examples=40, deadline=None)
    def test_hnf_spans_the_sympy_hnf_lattice(self, sympy, case):
        rows, cols = case
        ours = IntLattice(cols, hnf(IntMatrix.from_rows(rows, cols)))
        H = sympy_row_lattice(sympy, rows)
        assert ours.rank == H.cols
        for j in range(H.cols):
            assert member([int(x) for x in H.col(j)], ours) is not None
        for row in ours.basis.entries:
            assert in_column_lattice(sympy, H, row)

    @given(integer_matrices())
    @settings(max_examples=40, deadline=None)
    def test_kernel_is_the_saturated_rational_nullspace(self, sympy, case):
        from sympy.matrices.normalforms import smith_normal_form

        rows, cols = case
        K = kernel_basis(IntMatrix.from_rows(rows, cols))
        nullspace = sympy.Matrix(rows).nullspace()
        assert K.rank == len(nullspace)
        for n in nullspace:
            # the primitive integer multiple of a rational kernel vector
            v = [int(x * math.lcm(*(x.q for x in n))) for x in n]
            assert member([x // math.gcd(*v) for x in v], K) is not None
        for row in K.basis.entries:
            assert sympy.Matrix(rows) * sympy.Matrix(row) == sympy.zeros(len(rows), 1)
        if K.rank:
            # saturated: every invariant factor of the basis is a unit
            snf = smith_normal_form(sympy.Matrix(K.basis.entries), domain=sympy.ZZ)
            assert [abs(snf[i, i]) for i in range(K.rank)] == [1] * K.rank

    @given(integer_matrices(max_rows=4), st.data())
    @settings(max_examples=60, deadline=None)
    def test_member_agrees_with_an_exact_rational_solve(self, sympy, case, data):
        rows, cols = case
        if data.draw(st.booleans(), label="combination"):
            coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
            v = [sum(c * row[k] for c, row in zip(coeffs, rows)) for k in range(cols)]
        else:
            v = data.draw(st.lists(st.integers(-6, 6), min_size=cols, max_size=cols), label="v")
        L = span(cols, rows)
        found = member(v, L)
        assert (found is not None) == in_column_lattice(sympy, sympy_row_lattice(sympy, rows), v)
        if found is not None:
            assert [sum(c * row[k] for c, row in zip(found, L.basis.entries)) for k in range(cols)] == v
