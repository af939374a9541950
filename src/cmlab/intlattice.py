"""Exact integer linear algebra: HNF and kernels.

Everything is arbitrary-precision; no floating point enters this module.
The canonical basis of a lattice is a row-style Hermite normal form with
*trailing* pivots: each basis row has a positive pivot in its rightmost
nonzero column, pivot columns strictly increase down the rows, and entries
of other rows in a pivot column are reduced to [0, pivot).  (The
trailing-pivot convention makes kernel bases of the reciprocity pairings
come out in the shape their monomial relations are usually written in;
any fixed convention would do for equality testing.)
"""
from collections.abc import Iterable, Sequence

from .record import Record


class IntMatrix(Record):
    """An integer matrix: a tuple of rows, all of length cols."""

    __slots__ = ("entries", "cols")

    def __post_init__(self) -> None:
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows), cols)

    @property
    def rows(self) -> int:
        return len(self.entries)


def _hnf_right(rows: list[list[int]], ncols: int):
    """Row HNF with trailing pivots.  Returns (hnf_rows, rank); the zero
    rows follow the rank pivot rows."""
    A = [list(r) for r in rows]
    m = len(A)
    r = 0
    for col in range(ncols - 1, -1, -1):
        # gcd-reduce column col among rows r..m-1 down to one nonzero entry
        while True:
            nz = [i for i in range(r, m) if A[i][col]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(A[i][col]))
            a = nz[0]
            for b in nz[1:]:
                q = A[b][col] // A[a][col]
                A[b] = [x - q * y for x, y in zip(A[b], A[a])]
        if not nz:
            continue
        A[r], A[nz[0]] = A[nz[0]], A[r]
        if A[r][col] < 0:
            A[r] = [-x for x in A[r]]
        for i in range(r):
            q = A[i][col] // A[r][col]
            if q:
                A[i] = [x - q * y for x, y in zip(A[i], A[r])]
        r += 1
    # pivot rows were produced right-to-left; present them with increasing
    # trailing-pivot column (so e.g. an identity matrix is already canonical)
    return A[:r][::-1] + A[r:], r


class IntLattice(Record):
    """A sublattice of Z^dim with HNF-canonical basis (unique per lattice)."""

    __slots__ = ("dim", "basis")

    @property
    def rank(self) -> int:
        return self.basis.rows


def kernel_basis(m: IntMatrix) -> IntLattice:
    """The saturated lattice {v in Z^cols : m*v = 0}."""
    # one row [e_c | column c of m] per column c: the trailing pivots clear
    # the m part first, and the rows whose m part is then zero are the
    # kernel, already in canonical form
    n = m.cols
    rows = [[int(i == c) for i in range(n)] + [row[c] for row in m.entries] for c in range(n)]
    A, _ = _hnf_right(rows, n + m.rows)
    return IntLattice(n, IntMatrix.from_rows((row[:n] for row in A if not any(row[n:])), n))
