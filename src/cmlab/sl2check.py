"""Exact-matrix verification of sl2-triples inside the symplectic Lie algebra.

The model: a symplectic space of dimension 2^g whose ordered basis is the
subsets of {1,...,g} in the canonical rank order (hyperoct.subset_rank), each
index set a mask.  The vector x_I sits at position rank(I) < 2^(g-1) for
index sets with 1 not in I, and its pairing partner y_I sits at the mirrored
position rank(I^c).  A matrix is a dict {(row, col): entry} holding only its
nonzero integer entries, so two matrices are equal exactly when their dicts
are.  subset_rank refuses a mask past g, so every entry lies inside the
2^g x 2^g matrix.

The nilpotents v_U, one per index set U inside {2,...,g}, are sums of the
paper's root vectors E_{I,J} for the weights e_I + e_J.  Each of those is two
1s from a y column to an x row, so v_U is a 0/1 matching from the y block to
the x block, and build_v writes its positions; the root vectors are the
tests' reference, in tests/oracles.py.  `sl2_reports` confirms by exact
integer arithmetic that each v_U and its complex conjugate span an
sl2-triple.  The v's commute because each entry of each lies in the block of
x rows and y columns (the abelian nilradical of the Siegel parabolic), where
every product is zero; one pass over the entries checks that, and a stray
entry can only fail it.  The pairwise brackets, the scaled negative control,
which must break the triple identities, and a dense rational recomputation
of every report live with the tests in tests/oracles.py.

The concrete matrices are one valid gauge; any model with the same weights
and normalization passes the same checks.
"""
from .hyperoct import submasks, subset_rank

SL2_MAX_G = 12


def conj(m: dict) -> dict:
    """Complex conjugation on the Lie algebra: M -> -M^T.

    An involution that swaps raising and lowering root spaces; it carries
    E_{I,J} to E_{I^c,J^c}.
    """
    return {(j, i): -x for (i, j), x in m.items()}


def bracket(a: dict, b: dict) -> dict:
    """The commutator ab - ba, summed in one accumulator, zeros dropped."""
    total: dict = {}
    for left, right, sign in ((a, b, 1), (b, a, -1)):
        rows: dict = {}
        for (k, j), y in right.items():
            rows.setdefault(k, []).append((j, sign * y))
        for (i, k), x in left.items():
            if row := rows.get(k):
                for j, y in row:
                    total[i, j] = total.get((i, j), 0) + x * y
    return {ij: x for ij, x in total.items() if x}


def build_v(U: int, g: int) -> dict:
    """The nilpotent v_U of the mask U at g: the sum of the root vectors
    E_{I, {2..g} minus I} over I in U, a 0/1 matching from y to x.

    For masks I and J avoiding 1, E_{I,J} has 1s at (rank I, rank J^c) and
    (rank J, rank I^c).  With J = {2..g} minus I, J^c = I | {1} and
    I^c = J | {1}, so the 1s sit at (rank X, rank(X | {1})), that is
    (rank X, rank X + 2^(g-1)), for X = I and X = J.  For U other than
    {2,...,g}, the I in U and their complements in {2..g} are disjoint, so
    no two root vectors share a position.  At U = {2,...,g} the two sets
    coincide: the sum meets each root vector twice, as E_{I,J} = E_{J,I},
    and the paper's halving keeps each position once.  subset_rank refuses
    a U past g.
    """
    if g < 2:
        raise ValueError("build_v needs g >= 2")
    if U & 1:
        raise ValueError("expected an index set inside {2,...,g}")
    tail = (1 << g) - 2  # {2,...,g}
    return {(subset_rank(g, X), subset_rank(g, X | 1)): 1 for I in submasks(U) for X in (I, tail ^ I)}


def _nilpotents(g: int) -> list[dict]:
    """v_W for every W inside {2,...,g}, in canonical order: the index of W
    is its mask shifted right by one."""
    if g > SL2_MAX_G:
        raise ValueError(f"sl2-check supports g <= {SL2_MAX_G}, got {g}")
    return [build_v(W, g) for W in range(0, 1 << g, 2)]


def _report(v: dict, commute: bool) -> dict:
    vbar = conj(v)
    h = bracket(v, vbar)
    return {
        "bracket_vv_zero": commute,
        "bracket_vvbar_diagonal": all(i == j for i, j in h),
        # [vbar, [vbar, v]] = [vbar, -h] = [h, vbar], bracket being exactly antisymmetric
        "triple_identities": (
            bracket(v, h) == {ij: 2 * x for ij, x in v.items()}
            and bracket(h, vbar) == {ij: 2 * x for ij, x in vbar.items()}
        ),
    }


def sl2_reports(g: int) -> list[tuple[int, dict]]:
    """(U, report) for every mask U inside {2,...,g}: whether (v_U, vbar_U,
    [v_U, vbar_U]) is an sl2-triple, with vbar_U = conj(v_U).

    The report keys name the identity groups: all v's commute pairwise,
    the bracket with the conjugate is diagonal, and the double brackets
    reproduce twice the nilpotents.  The first is one fact for all U.
    """
    nilpotents = _nilpotents(g)
    half = 1 << (g - 1)
    commute = all(i < half <= j for v in nilpotents for i, j in v)
    return [(U, _report(v, commute)) for U, v in zip(range(0, 1 << g, 2), nilpotents)]
