"""Exact-matrix verification of sl2-triples inside the symplectic Lie algebra.

The model: a symplectic space of dimension 2^g whose ordered basis is the
subsets of {1,...,g} in the canonical rank order (hyperoct.subset_rank), each
index set a mask.  The vector x_I sits at position
rank(I) for index sets with 1 not in I, and its pairing partner y_I sits at
the mirrored position rank(I^c).  Root vectors E_{I,J} for the weights
e_I + e_J are elementary raising matrices normalized so that the double
bracket with the conjugate root vector returns twice the original.  On top
of the root vectors sit the nilpotents v_U (one per index set U inside
{2,...,g}) and their complex conjugates; `sl2_reports` confirms by exact
integer arithmetic that each pair spans an sl2-triple.  The scaled
negative control, which must break the triple identities, lives with the
tests in tests/oracles.py.

The concrete matrices are one valid gauge; any model with the same weights
and normalization passes the same checks.
"""
from .hyperoct import submasks, subset_rank, subset_str
from .record import Record, set_slot

SL2_MAX_G = 8


class SymplecticMatrix(Record):
    """Square matrix with exact entries acting on the 2^g-dimensional
    symplectic space; the package builds integer ones.

    Only the nonzero entries are kept, as a tuple of ((row, col), value)
    sorted by position, so equal matrices have equal entries.  Any mapping
    or iterable of ((row, col), value) pairs is accepted and put in that
    canonical form; zero values are dropped.
    """

    __slots__ = ("g", "entries")

    def __init__(self, g: int, entries) -> None:
        n = 1 << g
        entries = tuple(sorted((ij, a) for ij, a in dict(entries).items() if a))
        for (i, j), _ in entries:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"entry ({i}, {j}) lies outside the {n}x{n} matrix for g={g}")
        set_slot(self, "g", g)
        set_slot(self, "entries", entries)

    @classmethod
    def zero(cls, g: int) -> "SymplecticMatrix":
        return cls(g, ())

    def _combine(self, other: "SymplecticMatrix", sign: int) -> "SymplecticMatrix":
        total = dict(self.entries)
        for ij, b in other.entries:
            total[ij] = total.get(ij, 0) + sign * b
        return SymplecticMatrix(self.g, total)

    def __add__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        return self._combine(other, -1)

    def __matmul__(self, other: "SymplecticMatrix") -> "SymplecticMatrix":
        rows: dict = {}
        for (k, j), b in other.entries:
            rows.setdefault(k, []).append((j, b))
        total: dict = {}
        for (i, k), a in self.entries:
            for j, b in rows.get(k, ()):
                total[i, j] = total.get((i, j), 0) + a * b
        return SymplecticMatrix(self.g, total)

    def scaled(self, c) -> "SymplecticMatrix":
        return SymplecticMatrix(self.g, [(ij, c * a) for ij, a in self.entries])

    def transpose(self) -> "SymplecticMatrix":
        return SymplecticMatrix(self.g, [((j, i), a) for (i, j), a in self.entries])

    def is_zero(self) -> bool:
        return not self.entries

    def is_diagonal(self) -> bool:
        return all(i == j for (i, j), _ in self.entries)


def conj(m: SymplecticMatrix) -> SymplecticMatrix:
    """Complex conjugation on the Lie algebra: M -> -M^T.

    An involution that swaps raising and lowering root spaces; it carries
    E_{I,J} to E_{I^c,J^c}.
    """
    return m.transpose().scaled(-1)


def bracket(a: SymplecticMatrix, b: SymplecticMatrix) -> SymplecticMatrix:
    return a @ b - b @ a


def root_vector(I: int, J: int, g: int) -> SymplecticMatrix:
    """Root vector E_{I,J} for the weight e_I + e_J, of two masks at g.

    Both index sets must avoid 1 (raising) or both contain 1 (lowering);
    the normalization makes [E, [E, conj(E)]] = 2E.
    """
    if (I | J) >> g:
        raise ValueError(f"index sets must live in {{1,...,{g}}}")
    if (I ^ J) & 1:
        raise ValueError(
            f"non-root index pair: {subset_str(I)} and {subset_str(J)} disagree on membership of 1"
        )
    full = (1 << g) - 1
    if I & 1:
        return conj(root_vector(I ^ full, J ^ full, g))
    # the two positions coincide only when I = J, where the entry stays 1
    return SymplecticMatrix(g, {
        (subset_rank(g, I), subset_rank(g, J ^ full)): 1,
        (subset_rank(g, J), subset_rank(g, I ^ full)): 1,
    })


def build_v(U: int, g: int) -> SymplecticMatrix:
    """The nilpotent v_U of the mask U at g: sum of E_{I, {2..g} minus I}
    over index sets I in U.

    When U is all of {2,...,g} the sum meets every root vector twice, as
    E_{I,J} = E_{J,I}, and the paper halves it; here each is added once,
    for the smaller mask of the pair.
    """
    if g < 2:
        raise ValueError("build_v needs g >= 2")
    if U & 1:
        raise ValueError("expected an index set inside {2,...,g}")
    tail = (1 << g) - 2  # {2,...,g}
    total = SymplecticMatrix.zero(g)
    for I in submasks(U):
        if U != tail or I < tail ^ I:
            total = total + root_vector(I, tail ^ I, g)
    return total


def _nilpotents(g: int) -> list[SymplecticMatrix]:
    """v_W for every W inside {2,...,g}, in canonical order: the index of W
    is its mask shifted right by one."""
    if g > SL2_MAX_G:
        raise ValueError(f"sl2-check supports g <= {SL2_MAX_G}, got {g}")
    return [build_v(W, g) for W in range(0, 1 << g, 2)]


def _report(v: SymplecticMatrix, nilpotents) -> dict:
    vbar = conj(v)
    h = bracket(v, vbar)
    return {
        "bracket_vv_zero": all(bracket(v, w).is_zero() for w in nilpotents),
        "bracket_vvbar_diagonal": h.is_diagonal(),
        "triple_identities": (
            bracket(v, h) == v.scaled(2) and bracket(vbar, bracket(vbar, v)) == vbar.scaled(2)
        ),
    }


def sl2_reports(g: int) -> list[tuple[int, dict]]:
    """(U, report) for every mask U inside {2,...,g}: whether (v_U, vbar_U,
    [v_U, vbar_U]) is an sl2-triple, with vbar_U = conj(v_U).

    The report keys name the identity groups: all v's commute pairwise,
    the bracket with the conjugate is diagonal, and the double brackets
    reproduce twice the nilpotents.  Each nilpotent is built once.
    """
    nilpotents = _nilpotents(g)
    return [(U, _report(v, nilpotents)) for U, v in zip(range(0, 1 << g, 2), nilpotents)]
