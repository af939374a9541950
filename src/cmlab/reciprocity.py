"""Reciprocity pairings, integer relation kernels, and monomial relations.

Two symbol universes occur.  On the simple-CM side a relation is an
integer vector over the holomorphic periods th_1..th_g of one CM pair; the
kernel of the Galois pairing matrix (one row per group element sigma, +1
at j when sigma moves phi_j to an unbarred label, -1 when to a barred one)
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
chains of decreasing size leaves a residual supported on the empty set and
the singletons, which yields explicit membership certificates.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cmtypes import CMPairSpec, subset_rank, subset_unrank
from .hyperoct import Subset, check_powerset_size
from .intlattice import IntLattice, IntMatrix, hnf, kernel_basis, member

SIMPLE = "simple"
ANTIWEYL = "antiweyl"

QUAD_LATTICE_MAX_G = 12


@dataclass(frozen=True)
class MonomialRelation:
    """Exponent vector of a monomial relation between period symbols.

    For side == SIMPLE, vec has one entry per embedding phi_1..phi_g and
    tau must be 0.  For side == ANTIWEYL, vec has one entry per subset of
    {1,...,g} in canonical subset order, plus the tau exponent.
    """

    side: str
    g: int
    vec: tuple[int, ...]
    tau: int = 0

    def __post_init__(self) -> None:
        if self.side not in (SIMPLE, ANTIWEYL):
            raise ValueError(f"unknown side {self.side!r}")
        want = self.g if self.side == SIMPLE else 1 << self.g
        if len(self.vec) != want:
            raise ValueError(f"vector length {len(self.vec)}, expected {want}")
        if self.side == SIMPLE and self.tau:
            raise ValueError("simple-CM relations carry no tau exponent")

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

    def is_elementary_quadratic(self) -> bool:
        pos = sorted(x for x in self.vec if x > 0)
        neg = sorted(-x for x in self.vec if x < 0)
        return self.tau == 0 and pos == [1, 1] and neg == [1, 1]


def default_symbols(side: str, g: int) -> list[str]:
    if side == SIMPLE:
        return [f"th{j}" for j in range(1, g + 1)]
    return [f"Th{subset_unrank(g, r)}" for r in range(1 << g)]


def render_relation(rel: MonomialRelation, symbols: list[str] | None = None) -> str:
    """ASCII form 'A*B^2 ~ C'; positive exponents left, negatives right."""
    names = symbols if symbols is not None else default_symbols(rel.side, rel.g)
    terms = list(zip(names, rel.vec))
    if rel.side == ANTIWEYL:
        terms.append(("tau", rel.tau))

    def side_str(sign: int) -> str:
        parts = []
        for name, e in terms:
            if sign * e > 0:
                parts.append(name if abs(e) == 1 else f"{name}^{abs(e)}")
        return "*".join(parts) if parts else "1"

    return f"{side_str(+1)} ~ {side_str(-1)}"


def relation_to_json(rel: MonomialRelation, symbols: list[str] | None = None) -> dict:
    names = symbols if symbols is not None else default_symbols(rel.side, rel.g)
    terms = list(zip(names, rel.vec))
    if rel.side == ANTIWEYL:
        terms.append(("tau", rel.tau))
    lhs = {name: e for name, e in terms if e > 0}
    rhs = {name: -e for name, e in terms if e < 0}
    return {"lhs": lhs, "rhs": rhs}


def pairing_matrix(spec: CMPairSpec) -> IntMatrix:
    """One row per group element sigma: +1 at j if sigma keeps phi_j
    unbarred, -1 if it bars it (the signed Galois pairing <., sigma Phi>)."""
    g = spec.g
    rows = []
    for el in spec.group.elements:
        # sigma Phi_E is the CM type indexed by act_subset(sigma, empty) =
        # sigma.flips, so phi_j stays holomorphic iff j is not flipped
        rows.append([-1 if j in el.flips else 1 for j in range(1, g + 1)])
    return IntMatrix.from_rows(rows, g)


def kernel_N(spec: CMPairSpec) -> IntLattice:
    """Lattice of exponent vectors of holomorphic-period relations."""
    return kernel_basis(pairing_matrix(spec))


def mt_dimension(spec: CMPairSpec) -> int:
    """Dimension of the Mumford-Tate torus: (g+1) - rank of the kernel."""
    return spec.g + 1 - kernel_N(spec).rank


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
        t_bits = s_bits
        while True:  # t_bits runs over submasks of s_bits
            d = s_bits ^ t_bits
            if d.bit_count() >= 2:
                halves = [0]
                for i in range(g):
                    if d >> i & 1:
                        halves += [h | (1 << i) for h in halves]
                pairs = set()
                for a in halves:
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
            if t_bits == 0:
                break
            t_bits = (t_bits - 1) & s_bits


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


def theta_generator_reduction(I: Subset) -> MonomialRelation:
    """The relation Theta_I * Theta_empty^(r-1) ~ product of singleton
    periods, as an anti-Weyl exponent vector (a quad-lattice member)."""
    r = len(I)
    if r < 2:
        raise ValueError(f"need |I| >= 2, got {r}")
    g = I.g
    vec = [0] * (1 << g)
    vec[subset_rank(I)] += 1
    vec[subset_rank(Subset.empty(g))] += r - 1
    for i in I.members():
        vec[subset_rank(Subset.of(g, [i]))] -= 1
    return MonomialRelation(ANTIWEYL, g, tuple(vec))


# ---------------------------------------------------------------------------
# chain certificates


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


@dataclass(frozen=True)
class EquivClassCertificate:
    """Witness that eps_I - eps_J lies in M + quad-span, with M the free
    module on eps_empty and the singleton vectors."""

    I: Subset
    J: Subset
    m_empty: int
    m_singletons: tuple[int, ...]
    chain_parts: tuple[tuple[Subset, int], ...]

    def verify(self) -> bool:
        g = self.I.g
        n = 1 << g
        total = [0] * n
        total[subset_rank(Subset.empty(g))] += self.m_empty
        for i, c in enumerate(self.m_singletons, start=1):
            total[subset_rank(Subset.of(g, [i]))] += c
        for S, c in self.chain_parts:
            quad = quadruple_vector(*chain_quadruple(S))
            for k, q in enumerate(quad):
                total[k] += c * q
        want = [0] * n
        want[subset_rank(self.I)] += 1
        want[subset_rank(self.J)] -= 1
        return total == want


def equiv_class_check(I: Subset, J: Subset) -> EquivClassCertificate:
    """Certificate that eps_I and eps_J agree modulo M + quad-span.

    Requires |I| = |J| (equal-size index sets give equivalent period
    classes); the certificate is found by chain-stripping eps_I - eps_J.
    """
    if I.g != J.g:
        raise ValueError(f"dimension mismatch: g={I.g} vs g={J.g}")
    if len(I) != len(J):
        raise ValueError(f"sizes differ: |I|={len(I)} vs |J|={len(J)}")
    g = I.g
    vec = [0] * (1 << g)
    vec[subset_rank(I)] += 1
    vec[subset_rank(J)] -= 1
    rem, parts = chain_strip(vec, g)
    m_empty = rem[subset_rank(Subset.empty(g))]
    singles = tuple(rem[subset_rank(Subset.of(g, [i]))] for i in range(1, g + 1))
    # everything outside M must have been stripped
    leftovers = list(rem)
    leftovers[subset_rank(Subset.empty(g))] = 0
    for i in range(1, g + 1):
        leftovers[subset_rank(Subset.of(g, [i]))] = 0
    if any(leftovers):
        raise AssertionError("chain stripping left support outside M")
    cert = EquivClassCertificate(I, J, m_empty, singles, tuple(parts))
    if not cert.verify():
        raise AssertionError("equivalence certificate does not re-sum to eps_I - eps_J")
    return cert


def m_complement_basis(g: int) -> IntLattice:
    """The complement M = Z*eps_empty + sum_i Z*eps_{{i}} of N' in Z^(2^g)."""
    n = 1 << g
    rows = []
    for S in [Subset.empty(g)] + [Subset.of(g, [i]) for i in range(1, g + 1)]:
        row = [0] * n
        row[subset_rank(S)] = 1
        rows.append(row)
    return IntLattice.from_rows(n, rows)
