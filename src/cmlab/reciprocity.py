"""Reciprocity pairings, integer relation kernels, and monomial relations.

Two symbol universes occur.  On the simple-CM side a relation is an
integer vector over the holomorphic periods th_1..th_g of one CM pair; the
kernel of the Galois pairing matrix (one row per translate sigma Phi of
the CM type, +1 at j when phi_j lies in it, -1 when phibar_j does)
collects exactly the exponent vectors of monomial period relations.  On
the generalized anti-Weyl side the symbols are Theta_I for all I in
P({1,...,g}) together with tau (standing for 2 pi i); the reciprocity
matrix rec* sends the basis vector of Theta_I to sum_{j not in I} phi_j +
sum_{j in I} phibar_j, and its kernel N' is the relation lattice.

N' is generated by the "admissible quadruple" vectors
eps_I + eps_J - eps_K - eps_L with I cup J = K cup L and I cap J = K cap L
(quad_lattice materializes that span and lattice-equality against
kernel_basis(rec*) makes the generation statement executable).  A
convenient triangular family of admissible quadruples, the *chains*

    chain(S) = eps_S + eps_empty - eps_{S minus max S} - eps_{max S},

one per S with |S| >= 2, spans the same lattice; stripping a vector along
chains of decreasing size (chain_strip) leaves a residual supported on the
empty set and the singletons.  The certificates built on that strip, for
degree <= 2 reduction and for the equivalence of eps_I and eps_J, are
hodge.Certificate values made by hodge.reduce_to_low_degree and
hodge.equiv_class_check.
"""
from __future__ import annotations

from .cmtypes import CMPairSpec, subset_rank, subset_unrank, translate_masks
from .hyperoct import Subset, check_powerset_size, submasks
from .intlattice import IntLattice, IntMatrix, hnf, kernel_basis
from .record import Record, set_slot

SIMPLE = "simple"
ANTIWEYL = "antiweyl"

QUAD_LATTICE_MAX_G = 12


class MonomialRelation(Record):
    """Exponent vector of a monomial relation between period symbols.

    For side == SIMPLE, vec has one entry per embedding phi_1..phi_g and
    tau must be 0.  For side == ANTIWEYL, vec has one entry per subset of
    {1,...,g} in canonical subset order, plus the tau exponent.
    """

    __slots__ = ("side", "g", "vec", "tau")

    def __init__(self, side: str, g: int, vec: tuple[int, ...], tau: int = 0) -> None:
        if side not in (SIMPLE, ANTIWEYL):
            raise ValueError(f"unknown side {side!r}")
        want = g if side == SIMPLE else 1 << g
        if len(vec) != want:
            raise ValueError(f"vector length {len(vec)}, expected {want}")
        if side == SIMPLE and tau:
            raise ValueError("simple-CM relations carry no tau exponent")
        set_slot(self, "side", side)
        set_slot(self, "g", g)
        set_slot(self, "vec", vec)
        set_slot(self, "tau", tau)

    def is_zero(self) -> bool:
        return self.tau == 0 and not any(self.vec)

    def normalized(self) -> "MonomialRelation":
        """Flip signs so the first nonzero exponent is positive."""
        for x in self.vec + (self.tau,):
            if x > 0:
                return self
            if x < 0:
                return MonomialRelation(
                    self.side, self.g, tuple(-y for y in self.vec), -self.tau
                )
        return self


def default_symbols(side: str, g: int) -> list[str]:
    if side == SIMPLE:
        return [f"th{j}" for j in range(1, g + 1)]
    return [f"Th{subset_unrank(g, r)}" for r in range(1 << g)]


def render_relation(rel: MonomialRelation, symbols: list[str]) -> str:
    """ASCII form 'A*B^2 ~ C'; positive exponents left, negatives right."""
    terms = list(zip(symbols, rel.vec))
    if rel.side == ANTIWEYL:
        terms.append(("tau", rel.tau))

    def side_str(sign: int) -> str:
        parts = []
        for name, e in terms:
            if sign * e > 0:
                parts.append(name if abs(e) == 1 else f"{name}^{abs(e)}")
        return "*".join(parts) if parts else "1"

    return f"{side_str(+1)} ~ {side_str(-1)}"


def relation_to_json(rel: MonomialRelation, symbols: list[str]) -> dict:
    terms = list(zip(symbols, rel.vec))
    if rel.side == ANTIWEYL:
        terms.append(("tau", rel.tau))
    lhs = {name: e for name, e in terms if e > 0}
    rhs = {name: -e for name, e in terms if e < 0}
    return {"lhs": lhs, "rhs": rhs}


def pairing_matrix(spec: CMPairSpec) -> IntMatrix:
    """One row per translate sigma Phi (per mask sigma.empty in the orbit of
    the empty set, in mask order): +1 at j if phi_j lies in sigma Phi, -1 if
    phibar_j does.  Repeating a row for every element changes no kernel."""
    g = spec.g
    rows = [[-1 if m >> j & 1 else 1 for j in range(g)] for m in translate_masks(spec.group)]
    return IntMatrix.from_rows(rows, g)


def kernel_N(spec: CMPairSpec) -> IntLattice:
    """Lattice of exponent vectors of holomorphic-period relations."""
    return kernel_basis(pairing_matrix(spec))


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


def quadruple_vector(I: Subset, J: Subset, K: Subset, L: Subset) -> list[int]:
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


def relations_from_kernel(L: IntLattice, side: str) -> list[MonomialRelation]:
    """One sign-normalized relation per canonical basis row."""
    if side == SIMPLE:
        g = L.dim
    elif side == ANTIWEYL:
        g = L.dim.bit_length() - 1
        if 1 << g != L.dim:
            raise ValueError(f"anti-Weyl lattice dimension {L.dim} is not a power of two")
    else:
        raise ValueError(f"unknown side {side!r}")
    return [
        MonomialRelation(side, g, tuple(row)).normalized() for row in L.basis.entries
    ]


# ---------------------------------------------------------------------------
# chains


def chain_quadruple(S: Subset) -> tuple[Subset, Subset, Subset, Subset]:
    """chain(S) as the admissible quadruple (S, empty, S-max, {max})."""
    if len(S) < 2:
        raise ValueError("chains need |S| >= 2")
    m = max(S.members())
    return (S, Subset.empty(S.g), S ^ Subset.of(S.g, [m]), Subset.of(S.g, [m]))


def chain_strip(vec, g: int):
    """Strip an anti-Weyl vector along chain generators.

    Returns (residual, parts): parts is a list of (S, coeff) meaning
    coeff * chain(S) was subtracted; the residual has support inside
    {empty} + singletons.  Since chains have pairwise distinct top sets,
    one pass over subset sizes g..2 is exact back-substitution.
    """
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
            quad = quadruple_vector(*chain_quadruple(S))
            for i, q in enumerate(quad):
                rem[i] -= c * q
            parts.append((S, c))
    return rem, parts
