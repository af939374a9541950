"""Monomial period relations: the period kernels of CM pairs, and the
anti-Weyl relations with their degree <= 2 certificates.

A relation is its exponents (MonomialRelation): an integer exponent per
period index, plus the exponent of tau (standing for 2 pi i).  The indices
name the holomorphic periods th_1..th_g of one CM pair when the relation
comes from that pair's period kernel: the kernel of the Galois pairing
matrix (one row per embedding of the reflex type, a translate sigma Phi
containing phi_1: +1 at j when phi_j lies in it, -1 when phibar_j does) is
exactly the exponent vectors of monomial period relations, and a renderer
names them with the pair's symbols.  Otherwise an index is the mask of a
subset I of {1,...,g} and names Theta_I: rec* sends it to sum_{j not in I}
phi_j + sum_{j in I} phibar_j, and its kernel N' is the relation lattice.
The canonical rank of I is read only where an order is (from_vec,
rendering, antiweyl_relations).  lift_relation takes a pair relation to
Theta_I through the orbit table.

N' is generated by the "admissible quadruple" vectors
eps_I + eps_J - eps_K - eps_L with I cup J = K cup L and I cap J = K cap L.
A convenient triangular family of admissible quadruples, the *chains*

    chain(S) = eps_S + eps_empty - eps_{S minus max S} - eps_{max S},

one per S with |S| >= 2, spans the same lattice; stripping a vector along
chains of decreasing size (chain_strip) leaves a residual supported on the
empty set and the singletons.  Stripping eps_S gives the closed-form basis
of N' that antiweyl_relations returns, one row

    eps_S + (|S| - 1) eps_empty - sum_{j in S} eps_{j}

per S with |S| >= 2: each row has a unit pivot on its own S, so the rows
span a saturated lattice, and there are 2^g - g - 1 = 2^g - rank(rec*) of
them.  In rank order of S, they are the canonical HNF basis of N'.

A relation stores only its nonzero exponents, and everything here (the
closed form, the strip, the degree <= 2 certificates of
reduce_to_low_degree, rendering) touches only those.
"""
from operator import itemgetter

from .hyperoct import admissible, check_powerset_size, subset_str, subset_unrank
from .record import Record


class MonomialRelation(Record):
    """A monomial relation between period symbols, by its exponents.

    terms holds the nonzero exponents as (index, exponent) pairs in index
    order, every index in 0..2^g - 1, and tau is the exponent of tau.  The
    constructor takes the pairs in any order, sums the exponents of a
    repeated index and drops zero sums, so a relation is the sum of its
    terms and == and hash compare relations.  Which periods the indices
    name is left to the renderer: the symbols its caller passes, or Theta
    of the subset with that mask when none are passed.
    """

    __slots__ = ("g", "terms", "tau")

    def __init__(self, g: int, terms, tau: int = 0) -> None:
        sums = {}
        for i, e in terms:
            sums[i] = sums.get(i, 0) + e
        terms = tuple(sorted(filter(itemgetter(1), sums.items())))
        if terms and not (0 <= terms[0][0] and terms[-1][0] < 1 << g):
            raise ValueError(f"an index lies outside 0..{(1 << g) - 1}")
        super().__init__(g, terms, tau)

    @classmethod
    def from_vec(cls, g: int, vec, tau: int = 0) -> "MonomialRelation":
        """The relation over the Theta_I at g with exponent vector vec, one
        entry per subset in canonical order."""
        if len(vec) != 1 << g:
            raise ValueError(f"vec has {len(vec)} entries, expected 2^{g} = {1 << g}")
        return cls(g, ((subset_unrank(g, r), e) for r, e in enumerate(vec) if e), tau)

    def normalized(self) -> "MonomialRelation":
        """Flip signs so the first nonzero exponent is positive."""
        lead = self.terms[0][1] if self.terms else self.tau
        if lead >= 0:
            return self
        return MonomialRelation(self.g, ((i, -e) for i, e in self.terms), -self.tau)


def _named_terms(rel: MonomialRelation, symbols) -> list:
    """(symbol, exponent) per nonzero exponent, tau last; the Theta_I in the canonical order of I."""
    if symbols is None:
        # terms are in mask order; rank order is the masks avoiding 1, then the rest, each in mask order
        terms = sorted(rel.terms, key=lambda term: term[0] & 1)
        named = [(f"Th{subset_str(I)}", e) for I, e in terms]
    else:
        named = [(symbols[i], e) for i, e in rel.terms]
    if rel.tau:
        named.append(("tau", rel.tau))
    return named


def render_relation(rel: MonomialRelation, symbols=None) -> str:
    """ASCII form 'A*B^2 ~ C'; positive exponents left, negatives right.

    symbols names the periods by index (a pair's Th[a] or Th[phi j]);
    without them the index is the mask of I, named Th{I} in rank order.
    """
    named = _named_terms(rel, symbols)

    def side_str(sign: int) -> str:
        parts = [name if e == sign else f"{name}^{sign * e}" for name, e in named if sign * e > 0]
        return "*".join(parts) if parts else "1"

    return f"{side_str(+1)} ~ {side_str(-1)}"


def relation_to_json(rel: MonomialRelation, symbols=None) -> dict:
    named = _named_terms(rel, symbols)
    return {"lhs": {name: e for name, e in named if e > 0}, "rhs": {name: -e for name, e in named if e < 0}}


# ---------------------------------------------------------------------------
# period kernels of a CM pair


def pairing_matrix(spec):
    """One row per reflex embedding, a translate sigma Phi containing phi_1
    (a mask sigma.empty avoiding 1, in mask order): +1 at j if phi_j lies in
    sigma Phi, -1 if phibar_j does.  rho is in the group, so the row of each
    other translate is one of these negated, which changes no kernel."""
    from .cmtypes import translate_masks
    from .intlattice import IntMatrix

    rows = [[-1 if m >> j & 1 else 1 for j in range(spec.g)] for m in translate_masks(spec.group) if not m & 1]
    return IntMatrix.from_rows(rows, spec.g)


def kernel_N(spec):
    """Lattice of exponent vectors of holomorphic-period relations."""
    from .intlattice import kernel_basis

    return kernel_basis(pairing_matrix(spec))


def relations_from_kernel(L) -> list[MonomialRelation]:
    """One sign-normalized relation per canonical basis row of a period
    kernel, index j naming the period of phi_{j+1}."""
    return [MonomialRelation(L.dim, enumerate(row)).normalized() for row in L.basis.entries]


def lift_relation(rel: MonomialRelation, masks) -> MonomialRelation:
    """The anti-Weyl relation of a pair relation: the period of index j
    goes to Theta of the subset with mask masks[j]."""
    return MonomialRelation(rel.g, ((masks[j], e) for j, e in rel.terms))


# ---------------------------------------------------------------------------
# the anti-Weyl relations: the closed-form kernel and chains


def antiweyl_relations(g: int) -> list[MonomialRelation]:
    """The canonical basis of ker rec* as relations, one per S with
    |S| >= 2 in rank order: Th_S * Th_{}^(|S|-1) ~ prod_{j in S} Th_{j}."""
    if g < 2:
        raise ValueError(f"need g >= 2, got {g}")
    check_powerset_size(g)
    out = []
    for r in range(1 << g):
        S = subset_unrank(g, r)
        size = S.bit_count()
        if size >= 2:
            terms = [(0, size - 1), (S, 1), *((1 << j, -1) for j in range(g) if S >> j & 1)]
            out.append(MonomialRelation(g, terms))
    return out


def _chain(S: int) -> tuple:
    """The (mask, sign) terms of chain(S) = eps_S + eps_empty - eps_{S - max} - eps_{max}, |S| >= 2."""
    top = 1 << (S.bit_length() - 1)
    return (S, 1), (0, 1), (S ^ top, -1), (top, -1)


def chain_strip(terms, g: int):
    """Strip an anti-Weyl vector, given by (mask, coefficient) pairs whose
    coefficients add on a repeated mask, along chain generators.

    Returns (residual, parts): parts is a list of (S, coeff), S a mask,
    meaning coeff * chain(S) was subtracted, by size descending and then mask
    ascending; the residual, a dict mask -> nonzero coefficient, has
    support inside {empty} + singletons.  Since chains have pairwise
    distinct top sets, one pass over subset sizes g..2 is exact
    back-substitution; it visits only the support.
    """
    rem = {}
    levels = [set() for _ in range(g + 1)]
    for bits, c in terms:
        rem[bits] = rem.get(bits, 0) + c
        levels[bits.bit_count()].add(bits)
    parts = []
    for size in range(g, 1, -1):
        for bits in sorted(levels[size]):
            c = rem[bits]
            if not c:
                continue
            chain = _chain(bits)
            for x, sign in chain:
                rem[x] = rem.get(x, 0) - sign * c
            levels[size - 1].add(chain[2][0])  # S minus max S, its one new term of size >= 2
            parts.append((bits, c))
    return {bits: c for bits, c in rem.items() if c}, parts


# ---------------------------------------------------------------------------
# degree <= 2 generators and reduction certificates


class ReductionError(ValueError):
    """A relation failed to decompose over the degree <= 2 generators.

    A ValueError, so the command line reports it like any other domain
    error (exit 1 with its message).
    """


def degree_one_generator(I: int, g: int) -> MonomialRelation:
    """Theta_I * Theta_{I^c} ~ tau, for the mask I at g."""
    return MonomialRelation(g, ((I, 1), (I ^ ((1 << g) - 1), 1)), tau=-1)


def chain_generator(S: int, g: int) -> MonomialRelation:
    """The degree-two quadruple relation of the chain through the mask S at g."""
    if S.bit_count() < 2:
        raise ValueError("chains need |S| >= 2")
    return MonomialRelation(g, _chain(S))


def _is_degree_one(rel: MonomialRelation) -> bool:
    """Whether rel is the degree-one generator of its first index (shape checked first)."""
    return (rel.tau == -1 and len(rel.terms) == 2
            and rel == degree_one_generator(rel.terms[0][0], rel.g))


def _is_degree_two(rel: MonomialRelation) -> bool:
    if rel.tau != 0:
        return False
    if sum(e for _, e in rel.terms if e > 0) != 2 or sum(e for _, e in rel.terms if e < 0) != -2:
        return False
    pos, neg = [], []
    for I, e in rel.terms:
        (pos if e > 0 else neg).extend([I] * abs(e))
    return admissible(*pos, *neg)


def verify_certificate(target: MonomialRelation, parts) -> bool:
    """Whether the (generator, coefficient) parts re-sum exactly to target,
    every generator of degree one or two at its g."""
    if not all(gen.g == target.g and (_is_degree_one(gen) or _is_degree_two(gen)) for gen, _ in parts):
        return False
    terms = ((r, c * e) for gen, c in parts for r, e in gen.terms)
    return MonomialRelation(target.g, terms, sum(c * gen.tau for gen, c in parts)) == target


def reduce_to_low_degree(r: MonomialRelation) -> tuple:
    """The certificate of r: (generator, coefficient) parts over the
    degree-one generator of the empty set and chain quadruples, found by
    triangular back-substitution.

    The generators are triangular: the degree-one generator is the only one
    carrying tau, and each chain has a unit pivot on its own top subset of
    size >= 2.  Stripping tau and then every chain from large subsets down
    (chain_strip) therefore decides membership exactly, and the generators
    span ker rec*, so a residual is left exactly when rec*(r) is not zero.
    That is refused first, so a residual on a relation is a bug.  The parts
    must pass verify_certificate against r; every gate raises explicitly,
    so that python -O keeps it.
    """
    g = r.g
    # rec*: Theta_I adds to phi_j for j not in I and to phibar_j for j in I, tau to all 2g
    image = [r.tau] * (2 * g)
    for I, e in r.terms:
        for j in range(g):
            image[j + g * (I >> j & 1)] += e
    if any(image):
        raise ReductionError("not a relation: its image under rec* is not zero")
    head = ((degree_one_generator(0, g), -r.tau),) if r.tau else ()
    rem, chains = chain_strip((*r.terms, *((i, -c * e) for gen, c in head for i, e in gen.terms)), g)
    if rem:
        raise ReductionError("relation is not generated in degree <= 2")
    parts = (*head, *((chain_generator(S, g), c) for S, c in chains))
    if not verify_certificate(r, parts):
        raise ReductionError("certificate does not re-sum to the relation")
    return parts
