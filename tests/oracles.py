"""Dense reference computations of the anti-Weyl side, for the tests.

The package computes the kernel of rec* in closed form and strips only the
support of a relation; these are the dense versions they must agree with:
rec* as a matrix (its HNF kernel is the oracle for the closed form), the
span of all admissible quadruples, and the strip over all 2^g subsets.
"""
from cmlab.hyperoct import Subset, check_powerset_size, submasks, subset_rank, subset_unrank
from cmlab.intlattice import IntLattice, IntMatrix, hnf
from cmlab.reciprocity import SIMPLE

QUAD_LATTICE_MAX_G = 12


def dense(rel) -> tuple:
    """The exponent vector of a relation, one entry per index."""
    size = rel.g if rel.side == SIMPLE else 1 << rel.g
    vec = [0] * size
    for i, e in rel.terms:
        vec[i] = e
    return tuple(vec)


def rec_star_antiweyl(g: int) -> IntMatrix:
    """The 2g x 2^g matrix of rec* on character lattices.

    Rows are phi_1..phi_g then phibar_1..phibar_g; the column of Theta_I
    (canonical subset order) is the indicator of {phi_j : j not in I} +
    {phibar_j : j in I}.
    """
    if g < 2:
        raise ValueError(f"need g >= 2, got {g}")
    check_powerset_size(g)
    cols = [subset_unrank(g, r).bits for r in range(1 << g)]
    rows = [[0 if bits >> (j - 1) & 1 else 1 for bits in cols] for j in range(1, g + 1)]
    rows += [[1 if bits >> (j - 1) & 1 else 0 for bits in cols] for j in range(1, g + 1)]
    return IntMatrix.from_rows(rows, 1 << g)


def admissible_quadruples(g: int):
    """Yield (I, J, K, L) with I|J = K|L, I&J = K&L, deduplicated so that
    rank(I) <= rank(J), rank(K) <= rank(L) and (I,J) < (K,L)."""
    for s_bits in range(1 << g):
        for t_bits in submasks(s_bits):
            d = s_bits ^ t_bits
            if d.bit_count() < 2:
                continue
            pairs = set()
            for a in submasks(d):
                i_bits, j_bits = t_bits | a, t_bits | (d ^ a)
                ri, rj = subset_rank(Subset(g, i_bits)), subset_rank(Subset(g, j_bits))
                pairs.add((ri, rj, i_bits, j_bits) if ri <= rj else (rj, ri, j_bits, i_bits))
            ordered = sorted(pairs)
            for x in range(len(ordered)):
                for y in range(x + 1, len(ordered)):
                    yield (
                        Subset(g, ordered[x][2]),
                        Subset(g, ordered[x][3]),
                        Subset(g, ordered[y][2]),
                        Subset(g, ordered[y][3]),
                    )


def quadruple_vector(I: Subset, J: Subset, K: Subset, L: Subset) -> list:
    v = [0] * (1 << I.g)
    v[subset_rank(I)] += 1
    v[subset_rank(J)] += 1
    v[subset_rank(K)] -= 1
    v[subset_rank(L)] -= 1
    return v


def quad_lattice(g: int) -> IntLattice:
    """Span of all admissible quadruple vectors (equals ker rec*)."""
    if g > QUAD_LATTICE_MAX_G:
        raise ValueError(f"quad_lattice supports g <= {QUAD_LATTICE_MAX_G}, got {g}")
    n = 1 << g
    basis: list = []
    batch: list = []
    for I, J, K, L in admissible_quadruples(g):
        batch.append(quadruple_vector(I, J, K, L))
        if len(batch) >= 4 * n:
            basis = list(hnf(IntMatrix.from_rows(basis + batch, n)).entries)
            batch = []
    basis = list(hnf(IntMatrix.from_rows(basis + batch, n)).entries) if (batch or basis) else []
    return IntLattice(n, IntMatrix.from_rows(basis, n))


def chain_quadruple(S: Subset) -> tuple:
    """chain(S) as the admissible quadruple (S, empty, S-max, {max})."""
    if len(S) < 2:
        raise ValueError("chains need |S| >= 2")
    m = max(S.members())
    return (S, Subset.empty(S.g), S ^ Subset.of(S.g, [m]), Subset.of(S.g, [m]))


def dense_chain_strip(vec, g: int):
    """The strip over all 2^g subsets: for each size g..2 and each mask of
    that size in ascending order, subtract the dense chain vector.  Returns
    (dense residual, parts)."""
    rem = list(vec)
    parts = []
    for size in range(g, 1, -1):
        for bits in range(1 << g):
            if bits.bit_count() != size:
                continue
            S = Subset(g, bits)
            c = rem[subset_rank(S)]
            if not c:
                continue
            for i, q in enumerate(quadruple_vector(*chain_quadruple(S))):
                rem[i] -= c * q
            parts.append((S, c))
    return rem, parts
