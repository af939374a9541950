"""Reference computations that the tests compare the package against;
no command runs them.

The package computes the kernel of rec* in closed form and strips only the
support of a relation; the dense versions here are what they must agree
with: rec* as a matrix, the span of all admissible quadruples, and the
strip over all 2^g subsets.  The package keys Theta_I by its mask; the
dense vectors here hold it at its canonical rank, and render_vec renders
such a vector by position.  The anti-Weyl Hodge basis is re-enumerated
by point coverage and, in degree two, by admissible quadruples, the
budget a complete Pohlmann walk spends is counted over every prefix, and
the two-out-of-four balance lemma is checked over every quadruple.  The
paper's cycle route to a quadratic relation: the wedge cycle of a quadruple
and the relation a cycle induces (the package writes Theta_I * Theta_J ~
Theta_K * Theta_L from the four masks).  The rest:
the product, inverse and subset action of signed permutations (the package
only walks orbits under generators), the embedding labels phi_j and
phibar_j with the label form of CM types and the translation law of a
cyclic group on them, the converters between slot numbers and (index set
or label, copy) pairs, the bidegree of a cycle read from those pairs, the
elements of the whole Weyl group, the support of a quadruple as a walked
orbit, the HNF, lattice
span, equality and membership, the symplectic form, the paper's root
vectors, of which the package's sl2 nilpotents are sums, the pairwise
commuting gate of the sl2 nilpotents, the scaled sl2 negative control and
every sl2 report recomputed with dense rational matrices.  And the command
line as an argparse parser, which reads every line as cli.parse_args does,
but for the spellings that parse_args refuses.
Gates raise explicitly: pytest rewrites assert statements only in test
modules, and python -O strips them everywhere else.
"""
import argparse
import functools
import itertools
from fractions import Fraction

from cmlab import POHLMANN_HARD_BUDGET
from cmlab.cli import _COMMANDS, _PAIR_OR_GENUS, _SOURCES, _positive, build_parser
from cmlab.galois import GaloisGroup, orbit
from cmlab.hyperoct import (SignedPerm, _act_bits, admissible, check_powerset_size, mask_of, members, submasks,
                            subset_rank, subset_str, subset_unrank)
from cmlab.intlattice import IntLattice, IntMatrix, _hnf_right
from cmlab.reciprocity import MonomialRelation, kernel_N
from cmlab.record import Record
from cmlab.sl2check import _nilpotents, _report, bracket, conj

BP_MAX_G = 8
BP_MAX_P = 4
BP_MAX_N = 3
DICHOTOMY_MAX_G = 6
QUAD_LATTICE_MAX_G = 12


def dense(rel, size=None) -> tuple:
    """The exponent vector of a relation.  By default it has one entry per
    subset, 2^g, in canonical order: Theta_I sits at subset_rank of its
    mask.  A pair relation passes size g and has one entry per index."""
    vec = [0] * (1 << rel.g if size is None else size)
    for i, e in rel.terms:
        vec[i if size is not None else subset_rank(rel.g, i)] = e
    return tuple(vec)


def render_vec(g: int, vec, tau: int = 0) -> str:
    """The text render_relation gives the relation with exponent vector vec,
    one entry per subset in canonical order, and tau: walking the vector by
    position, each Theta_I goes to the side of its sign."""
    sides = {1: [], -1: []}
    for r, e in [*enumerate(vec), (None, tau)]:
        if e:
            name = "tau" if r is None else "Th" + subset_str(subset_unrank(g, r))
            sides[1 if e > 0 else -1].append(name if abs(e) == 1 else f"{name}^{abs(e)}")
    return " ~ ".join("*".join(sides[sign]) or "1" for sign in (1, -1))


def rec_star_antiweyl(g: int) -> IntMatrix:
    """The 2g x 2^g matrix of rec* on character lattices.

    Rows are phi_1..phi_g then phibar_1..phibar_g; the column of Theta_I
    (canonical subset order) is the indicator of {phi_j : j not in I} +
    {phibar_j : j in I}.
    """
    if g < 2:
        raise ValueError(f"need g >= 2, got {g}")
    check_powerset_size(g)
    cols = [subset_unrank(g, r) for r in range(1 << g)]
    rows = [[0 if bits >> (j - 1) & 1 else 1 for bits in cols] for j in range(1, g + 1)]
    rows += [[1 if bits >> (j - 1) & 1 else 0 for bits in cols] for j in range(1, g + 1)]
    return IntMatrix.from_rows(rows, 1 << g)


def admissible_quadruples(g: int):
    """Yield the masks (I, J, K, L) with I|J = K|L, I&J = K&L, deduplicated
    so that rank(I) <= rank(J), rank(K) <= rank(L) and (I,J) < (K,L)."""
    for s_bits in range(1 << g):
        for t_bits in submasks(s_bits):
            d = s_bits ^ t_bits
            if d.bit_count() < 2:
                continue
            pairs = set()
            for a in submasks(d):
                i_bits, j_bits = t_bits | a, t_bits | (d ^ a)
                ri, rj = subset_rank(g, i_bits), subset_rank(g, j_bits)
                pairs.add((ri, rj, i_bits, j_bits) if ri <= rj else (rj, ri, j_bits, i_bits))
            ordered = sorted(pairs)
            for x in range(len(ordered)):
                for y in range(x + 1, len(ordered)):
                    yield (ordered[x][2], ordered[x][3], ordered[y][2], ordered[y][3])


def quadruple_vector(I: int, J: int, K: int, L: int, g: int) -> list:
    v = [0] * (1 << g)
    v[subset_rank(g, I)] += 1
    v[subset_rank(g, J)] += 1
    v[subset_rank(g, K)] -= 1
    v[subset_rank(g, L)] -= 1
    return v


def quad_lattice(g: int) -> IntLattice:
    """Span of all admissible quadruple vectors (equals ker rec*)."""
    if g > QUAD_LATTICE_MAX_G:
        raise ValueError(f"quad_lattice supports g <= {QUAD_LATTICE_MAX_G}, got {g}")
    n = 1 << g
    basis: list = []
    batch: list = []
    for I, J, K, L in admissible_quadruples(g):
        batch.append(quadruple_vector(I, J, K, L, g))
        if len(batch) >= 4 * n:
            basis = list(hnf(IntMatrix.from_rows(basis + batch, n)).entries)
            batch = []
    basis = list(hnf(IntMatrix.from_rows(basis + batch, n)).entries) if (batch or basis) else []
    return IntLattice(n, IntMatrix.from_rows(basis, n))


def chain_quadruple(S: int) -> tuple:
    """chain(S) as the admissible quadruple of masks (S, empty, S-max, {max})."""
    if S.bit_count() < 2:
        raise ValueError("chains need |S| >= 2")
    top = 1 << (S.bit_length() - 1)
    return (S, 0, S ^ top, top)


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
            c = rem[subset_rank(g, bits)]
            if not c:
                continue
            for i, q in enumerate(quadruple_vector(*chain_quadruple(bits), g)):
                rem[i] -= c * q
            parts.append((bits, c))
    return rem, parts


# ---------------------------------------------------------------------------
# the anti-Weyl Hodge basis re-enumerated, and the balance lemma


def bp_multisets(g: int, p: int, n: int) -> list[tuple]:
    """Ordered 2p-tuples of (subset, copy) slots covering every point of
    {1,...,g} exactly p times; the balanced basis of the generalized
    anti-Weyl variety."""
    if g > BP_MAX_G or p > BP_MAX_P or n > BP_MAX_N:
        raise ValueError(f"bp_multisets is budgeted to g <= {BP_MAX_G}, p <= {BP_MAX_P}, n <= {BP_MAX_N}")
    if p < 0 or n < 1:
        raise ValueError("need p >= 0 and n >= 1")
    # slot k of the n copies is the index set of rank k mod 2^g
    masks = [subset_unrank(g, r) for r in range(1 << g)] * n
    out = []
    nodes = 0
    # depth-first over (next slot, chosen slots, cover count per point),
    # children pushed in reverse so that they pop in slot order
    stack = [(0, (), (0,) * g)]
    while stack:
        i, chosen, cover = stack.pop()
        nodes += 1
        if nodes > POHLMANN_HARD_BUDGET:
            raise ValueError("enumeration budget exceeded")
        left = 2 * p - len(chosen)
        if left == 0:
            if all(c == p for c in cover):
                out.append(chosen)
            continue
        if len(masks) - i < left:
            continue
        for k in reversed(range(i, len(masks))):
            bits = masks[k]
            step = tuple(c + (bits >> j & 1) for j, c in enumerate(cover))
            if all(c <= p for c in step):
                stack.append((k + 1, (*chosen, k), step))
    return out


def b2_quadruples(g: int, n: int) -> list[tuple]:
    """Admissible quadruples of masks (I, J, K, L, copies) over {2,...,g} with the
    canonical slot ordering: rank(I),copy <= rank(J),copy on the left,
    rank(K^c),copy <= rank(L^c),copy on the right, all four wedge slots
    distinct."""
    if g > BP_MAX_G:
        raise ValueError(f"b2_quadruples is budgeted to g <= {BP_MAX_G}")
    if n < 1:
        raise ValueError("need n >= 1")
    by_sig: dict = {}
    full = (1 << g) - 1
    for I, J in itertools.combinations_with_replacement(range(0, 1 << g, 2), 2):
        by_sig.setdefault((I | J, I & J), []).append((I, J))
    out = []
    work = 0
    for pairs in by_sig.values():
        work += len(pairs) * len(pairs) * n**4
        if work > POHLMANN_HARD_BUDGET:
            raise ValueError("enumeration budget exceeded")
        for I, J in pairs:
            ri, rj = subset_rank(g, I), subset_rank(g, J)
            for A, B in pairs:
                K, L = (A, B) if subset_rank(g, A ^ full) <= subset_rank(g, B ^ full) else (B, A)
                rk, rl = subset_rank(g, K ^ full), subset_rank(g, L ^ full)
                for copies in itertools.product(range(1, n + 1), repeat=4):
                    if (ri, copies[0]) >= (rj, copies[1]):
                        continue
                    if (rk, copies[2]) >= (rl, copies[3]):
                        continue
                    out.append((I, J, K, L, copies))
    out.sort(key=lambda q: ((subset_rank(g, q[0]), q[4][0]), (subset_rank(g, q[1]), q[4][1]),
                            (subset_rank(g, q[2] ^ full), q[4][2]), (subset_rank(g, q[3] ^ full), q[4][3])))
    return out


def balance_dichotomy(g: int) -> tuple[int, int]:
    """Exhaustive two-sided balance check over all quadruples in {2,...,g}.

    Admissible quadruples keep exactly two of the four wedge slots
    containing 1 under every group element; every inadmissible quadruple
    admits an element pushing 1 into at least three slots.  Returns the
    (admissible, inadmissible) counts; a counterexample to either
    direction raises AssertionError (explicitly, so python -O keeps it).
    """
    if g > DICHOTOMY_MAX_G:
        raise ValueError(f"balance_dichotomy supports g <= {DICHOTOMY_MAX_G}, got {g}")
    # whether t.I contains 1 depends only on (beta^-1(1), [1 in flips]), so
    # one element per class stands for it: the transposition (1 k), with and
    # without flipping 1.  contains[I] holds one base-16 digit per class, set
    # iff t.I contains 1; a sum of four digits plus one stays <= 5
    reps = []
    for k in range(1, g + 1):
        perm = list(range(1, g + 1))
        perm[0], perm[k - 1] = k, 1
        reps += [SignedPerm.make(g, flips, perm) for flips in ((), (1,))]
    contains = [sum((_act_bits(t, bits) & 1) << (4 * i) for i, t in enumerate(reps)) for bits in range(1 << g)]
    ones = sum(1 << (4 * i) for i in range(len(reps)))
    full, high = (1 << g) - 1, 4 * ones
    n_adm = n_bad = 0
    tail = range(0, 1 << g, 2)  # the masks of the subsets of {2,...,g}
    for i, j, k, l in itertools.product(tail, repeat=4):
        total = contains[i] + contains[j] + contains[k ^ full] + contains[l ^ full]
        if admissible(i, j, k, l):
            n_adm += 1
            broken = total != 2 * ones
        else:
            n_bad += 1
            # a digit reaches 3 or 4 iff adding one more pushes it to >= 4
            broken = not (total + ones) & high
        if broken:
            quad = ", ".join(map(subset_str, (i, j, k, l)))
            raise AssertionError(f"balance lemma fails at quadruple ({quad})")
    return n_adm, n_bad


# ---------------------------------------------------------------------------
# Group arithmetic, the whole Weyl group, CM types as label sets, and the
# action on labels


def compose(a: SignedPerm, b: SignedPerm) -> SignedPerm:
    """Product a*b: apply b first, then a."""
    if a.g != b.g:
        raise ValueError(f"dimension mismatch: g={a.g} vs g={b.g}")
    return SignedPerm(a.g, _act_bits(a, b.flips), tuple(a.perm[bj - 1] for bj in b.perm))


def inverse(a: SignedPerm) -> SignedPerm:
    inv = [0] * a.g
    for j, bj in enumerate(a.perm, start=1):
        inv[bj - 1] = j
    bits = 0
    src = a.flips
    while src:
        low = src & -src
        bits |= 1 << (inv[low.bit_length() - 1] - 1)
        src ^= low
    return SignedPerm(a.g, bits, tuple(inv))


def act_subset(t: SignedPerm, I: int) -> int:
    """Left action on CM-type indices: t.I = flips xor beta(I), the elements
    of the mask I mapped one at a time."""
    if I >> t.g:
        raise ValueError(f"dimension mismatch: index set {subset_str(I)} lies outside 1..{t.g}")
    return t.flips ^ mask_of(t.g, [t.perm[j - 1] for j in members(I)])


@functools.lru_cache(maxsize=None)
def weyl_elements(g: int) -> tuple:
    """Every element of the hyperoctahedral group W_g, permutations in
    lexicographic order and the 2^g flip masks within each: an enumeration
    that shares nothing with the breadth-first closure of the package."""
    return tuple(SignedPerm(g, f, perm) for perm in itertools.permutations(range(1, g + 1)) for f in range(1 << g))


def quadruple_support(q, G: GaloisGroup) -> frozenset:
    """All Galois translates of the wedge-slot pairs of the masks (I, J, K, L): the
    left block {t.I, t.J} and the right block {t.K^c, t.L^c}, as an
    ordered pair of unordered blocks; the orbit of the block pair under the
    generators of G."""
    g, full = G.g, (1 << G.g) - 1
    I, J, K, L = q

    def normal(a, b, c, d):
        return (min(a, b), max(a, b), min(c, d), max(c, d))

    # each generator acts through its table of images of the 2^g masks
    tables = [[_act_bits(t, bits) for bits in range(1 << g)] for t in G.gens]
    seed = normal(I, J, K ^ full, L ^ full)
    blocks = orbit(tables, seed, lambda t, x: normal(t[x[0]], t[x[1]], t[x[2]], t[x[3]]))
    return frozenset((frozenset({a, b}), frozenset({c, d})) for a, b, c, d in blocks)


class EmbeddingLabel(Record):
    """One of the 2g labels phi_j (bar=False) or phibar_j (bar=True)."""

    __slots__ = ("index", "bar")

    def __init__(self, index: int, bar: bool = False) -> None:
        super().__init__(index, bar)


def act_embedding(t, x: EmbeddingLabel) -> EmbeddingLabel:
    """Left action on the 2g embedding labels: t.phi_j = phi_{beta(j)},
    barred iff beta(j) is in flips, conjugate-equivariantly."""
    if not 1 <= x.index <= t.g:
        raise ValueError(f"label index {x.index} outside 1..{t.g}")
    j = t.perm[x.index - 1]
    return EmbeddingLabel(j, x.bar ^ bool(t.flips >> (j - 1) & 1))


def holomorphy_digits(spec) -> tuple[list, int]:
    """([per position of one copy of the base, the packed holomorphy
    profile: one base-16 digit per group element, 1 iff that element moves
    the position to a holomorphic one], the group's order).  It acts
    through act_subset and act_embedding on every element of the group (all
    of W_g for the anti-Weyl variety), not through the package's translate
    classes, and reads holomorphy from the labels and index sets, not from
    the positions."""
    if isinstance(spec, int):
        bases = [subset_unrank(spec, r) for r in range(1 << spec)]
        group, act, hol = weyl_elements(spec), act_subset, lambda I: not I & 1
    else:
        bases = [EmbeddingLabel(j, bar) for bar in (False, True) for j in range(1, spec.g + 1)]
        group, act, hol = spec.group.elements, act_embedding, lambda x: not x.bar
    return [sum(1 << (4 * k) for k, t in enumerate(group) if hol(act(t, x))) for x in bases], len(group)


def walk_nodes(spec, p: int, n: int) -> int:
    """The budget a complete Pohlmann walk spends, by brute force: over every
    increasing prefix of fewer than 2p slots that leaves room for the
    left = 2p - len(prefix) slots still to choose and whose holomorphy
    count has no digit above p, the length of its loop, which runs from
    one past its last slot to the last start that leaves room for left."""
    packed = holomorphy_digits(spec)[0] * n
    total = 0
    for left in range(2 * p, 0, -1):
        for prefix in itertools.combinations(range(len(packed) - left), 2 * p - left):
            start = prefix[-1] + 1 if prefix else 0
            # a prefix has fewer than 16 slots, so no digit carries
            if start + left <= len(packed) and max(f"{sum(packed[i] for i in prefix):x}") <= str(p):
                total += len(packed) - left + 1 - start
    return total


def translates_by(el: SignedPerm, t: int, M: int, phi) -> bool:
    """Whether el moves every embedding of the transversal phi of Z/M to
    the one at its residue plus t: phi_j sits at phi[j-1], phibar_j at
    phi[j-1] + M/2."""
    def residue(x):
        return (phi[x.index - 1] + M // 2 * x.bar) % M

    labels = [EmbeddingLabel(j, bar) for j in range(1, el.g + 1) for bar in (False, True)]
    return all(residue(act_embedding(el, x)) == (residue(x) + t) % M for x in labels)


def decode_cm_type(I: int, spec) -> frozenset:
    """The CM type indexed by the mask I: {phi_j : j not in I} + {phibar_j : j in I}."""
    return frozenset(EmbeddingLabel(j, bar=bool(I >> (j - 1) & 1)) for j in range(1, spec.g + 1))


def encode_cm_type(labels, spec) -> int:
    """Inverse of decode_cm_type; rejects non-transversal label sets."""
    labels = set(labels)
    if len(labels) != spec.g:
        raise ValueError(f"a CM type has {spec.g} labels, got {len(labels)}")
    bits = 0
    for x in labels:
        if not 1 <= x.index <= spec.g:
            raise ValueError(f"label index {x.index} outside 1..{spec.g}")
        if EmbeddingLabel(x.index, not x.bar) in labels:
            raise ValueError(f"labels contain a conjugate pair at index {x.index}")
        if x.bar:
            bits |= 1 << (x.index - 1)
    return bits


# ---------------------------------------------------------------------------
# slot numbers as (index set or label, copy) pairs: slot (copy - 1) * base + k
# is the index set of rank k (base 2^g), or phi_{k+1} for k < g and
# phibar_{k-g+1} otherwise (base 2g)


def subset_cycle(g: int, entries) -> tuple:
    """The sorted slots on the anti-Weyl variety at g of (mask, copy) pairs, in any order."""
    base = 1 << g
    return tuple(sorted((copy - 1) * base + subset_rank(g, I) for I, copy in entries))


def label_cycle(g: int, entries) -> tuple:
    """The sorted slots on a CM pair of genus g of (EmbeddingLabel, copy) pairs, in any order."""
    base = 2 * g
    return tuple(sorted((copy - 1) * base + g * x.bar + x.index - 1 for x, copy in entries))


def slot_entries(c: tuple, g: int, labels: bool = False) -> tuple:
    """The (mask, copy) pairs of the slots of a cycle on the anti-Weyl
    variety at g, or with labels its (EmbeddingLabel, copy) pairs on a CM
    pair of genus g."""
    base = 2 * g if labels else 1 << g
    out = []
    for s in c:
        copy, k = divmod(s, base)
        out.append((EmbeddingLabel(k % g + 1, k >= g) if labels else subset_unrank(g, k), copy + 1))
    return tuple(out)


def bidegree(c: tuple, g: int, labels: bool = False) -> tuple:
    """(holomorphic, antiholomorphic) slot counts of a cycle, as for
    slot_entries: a slot is holomorphic when its index set avoids 1, or
    when its label is unbarred."""
    hol = sum(1 for x, _ in slot_entries(c, g, labels) if not (x.bar if labels else x & 1))
    return hol, len(c) - hol


def translated(c: tuple, t, labels: bool = False) -> tuple:
    """A signed permutation applied to every slot of a cycle on the
    anti-Weyl variety, or with labels on a CM pair; the kind is passed
    because slot numbers alone do not tell them apart."""
    if labels:
        return label_cycle(t.g, [(act_embedding(t, x), copy) for x, copy in slot_entries(c, t.g, True)])
    return subset_cycle(t.g, [(act_subset(t, I), copy) for I, copy in slot_entries(c, t.g)])


# ---------------------------------------------------------------------------
# the paper's cycle route: the wedge cycle of a quadruple, and the relation
# a cycle on the anti-Weyl variety induces


def quadruple_to_cycle(I: int, J: int, K: int, L: int, g: int, copies=(1, 1, 1, 1)) -> tuple:
    """The sorted slots of the wedge eps_I ^ eps_J ^ eps_{K^c} ^ eps_{L^c} of four masks at g."""
    base = 1 << g
    wedge = (I, J, K ^ (base - 1), L ^ (base - 1))
    return tuple(sorted((copy - 1) * base + subset_rank(g, X) for X, copy in zip(wedge, copies)))


def relation_of_cycle(slots: tuple, g: int) -> MonomialRelation:
    """The monomial relation induced by the slots of a cycle on the anti-Weyl
    variety at g, which must be distinct, non-negative, increasing and
    balanced: Theta_I on the left per holomorphic slot I, Theta_{I^c} on
    the right per antiholomorphic slot; copy indices are dropped."""
    base = 1 << g
    if any(a >= b for a, b in zip(slots, slots[1:])):
        raise ValueError("slots must be strictly increasing (distinct slots)")
    if slots and slots[0] < 0:
        raise ValueError(f"copy index {slots[0] // base + 1} out of range")
    hol = sum(1 for s in slots if s % base < base // 2)
    if 2 * hol != len(slots):
        raise ValueError(f"unbalanced cycle: {hol} holomorphic vs {len(slots) - hol} antiholomorphic slots")
    masks = (subset_unrank(g, s % base) for s in slots)
    return MonomialRelation(g, ((I ^ (base - 1), -1) if I & 1 else (I, 1) for I in masks))


# ---------------------------------------------------------------------------
# the HNF, lattice equality and membership, and the HNF witness


def hnf(m: IntMatrix) -> IntMatrix:
    """Canonical trailing-pivot row HNF; zero rows dropped."""
    A, rank = _hnf_right([list(r) for r in m.entries], m.cols)
    return IntMatrix.from_rows(A[:rank], m.cols)


def span(dim: int, rows) -> IntLattice:
    """The sublattice of Z^dim that rows span, in canonical form."""
    return IntLattice(dim, hnf(IntMatrix.from_rows(rows, dim)))


def lattice_equal(L1: IntLattice, L2: IntLattice) -> bool:
    if L1.dim != L2.dim:
        raise ValueError(f"ambient dimension mismatch: {L1.dim} vs {L2.dim}")
    return L1.basis == L2.basis


def member(v, L: IntLattice):
    """Coefficients of v over L's canonical basis, or None if v not in L."""
    if len(v) != L.dim:
        raise ValueError(f"dimension mismatch: vector has {len(v)}, lattice has {L.dim}")
    rem = [int(x) for x in v]
    coeffs = []
    # back-substitute from the row with the rightmost pivot down
    for row in reversed(L.basis.entries):
        p = max(c for c, x in enumerate(row) if x)
        c, res = divmod(rem[p], row[p])
        if res:
            return None
        coeffs.append(c)
        if c:
            rem = [x - c * y for x, y in zip(rem, row)]
    if any(rem):
        return None
    return tuple(reversed(coeffs))


def kernel_to_cycle(spec, alpha, n=None) -> tuple:
    """The canonical cycle of a kernel vector: copy l collects the
    embeddings with exponent >= l unbarred and those with exponent <= -l
    barred."""
    g = spec.g
    alpha = tuple(alpha)
    if len(alpha) != g:
        raise ValueError(f"vector length {len(alpha)}, expected {g}")
    if member(alpha, kernel_N(spec)) is None:
        raise ValueError("vector is not in the relation kernel")
    depth = max((abs(a) for a in alpha), default=0)
    if n is None:
        n = depth
    elif n < depth:
        raise ValueError(f"n too small: the vector needs n >= {depth}")
    entries = []
    for copy in range(1, n + 1):
        entries += [(EmbeddingLabel(j, False), copy) for j, a in enumerate(alpha, start=1) if a >= copy]
        entries += [(EmbeddingLabel(j, True), copy) for j, a in enumerate(alpha, start=1) if a <= -copy]
    return label_cycle(g, entries)


# ---------------------------------------------------------------------------
# the symplectic form, the root vectors and the torus of the sl2 model, the
# negative control and the dense recomputation of the sl2 reports; the
# package's matrices are dicts {(row, col): entry} of their nonzero entries


def omega(g: int) -> dict:
    """The symplectic form: position k pairs with position 2^g-1-k."""
    n = 1 << g
    return {(k, n - 1 - k): 1 if k < n // 2 else -1 for k in range(n)}


def dense_matrix(m: dict, g: int) -> tuple:
    """The 2^g rows of 2^g Fraction entries of a sparse matrix at g."""
    n = 1 << g
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), x in m.items():
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"entry ({i}, {j}) lies outside the {n}x{n} matrix for g={g}")
        rows[i][j] = Fraction(x)
    return tuple(map(tuple, rows))


def dense_transpose(a: tuple) -> tuple:
    return tuple(zip(*a))


def dense_product(a: tuple, b: tuple) -> tuple:
    out = [[Fraction(0)] * len(a) for _ in a]
    for row, out_row in zip(a, out):
        for x, b_row in zip(row, b):
            if x:
                for j, y in enumerate(b_row):
                    out_row[j] += x * y
    return tuple(map(tuple, out))


def dense_bracket(a: tuple, b: tuple) -> tuple:
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(dense_product(a, b), dense_product(b, a)))


def root_vector(I: int, J: int, g: int) -> dict:
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
    return {(subset_rank(g, I), subset_rank(g, J ^ full)): 1, (subset_rank(g, J), subset_rank(g, I ^ full)): 1}


def in_lie_algebra(m: dict, g: int) -> bool:
    """Membership in sp: M^T Omega + Omega M = 0."""
    a, form = dense_matrix(m, g), dense_matrix(omega(g), g)
    lhs, rhs = dense_product(dense_transpose(a), form), dense_product(form, a)
    return all(x == -y for r, s in zip(lhs, rhs) for x, y in zip(r, s))


def torus_element(coeffs, g: int) -> dict:
    """Diagonal torus element with value c_I on x_I and -c_I on y_I.

    `coeffs` maps the masks of index sets inside {2,...,g} to rational
    values; missing sets default to zero.
    """
    diag = {}
    for I, c in coeffs.items():
        if I & 1 or I >> g:
            raise ValueError("torus coefficients are indexed by subsets of {2,...,g}")
        if c:
            x, y = subset_rank(g, I), subset_rank(g, I ^ ((1 << g) - 1))
            diag[x, x] = Fraction(c)
            diag[y, y] = -Fraction(c)
    return diag


def _tail_mask_check(U: int, g: int) -> None:
    if U >> g:
        raise ValueError(f"index set {subset_str(U)} lies outside 1..{g}")
    if U & 1:
        raise ValueError("expected an index set inside {2,...,g}")


def pairwise_commute(nilpotents) -> bool:
    """The commuting gate bracket by bracket: [v, w] = 0 for every ordered
    pair of the nilpotents, the reference for sl2_reports' block test."""
    return all(not bracket(v, w) for v in nilpotents for w in nilpotents)


def pairwise_sl2_reports(g: int, scale=1) -> list:
    """(U, report) for every U inside {2,...,g}, as sl2_reports gives them,
    with every nilpotent scaled by `scale` and the commuting gate decided by
    pairwise_commute."""
    nilpotents = [{ij: scale * x for ij, x in v.items()} for v in _nilpotents(g)]
    commute = pairwise_commute(nilpotents)
    return [(U, _report(v, commute)) for U, v in zip(range(0, 1 << g, 2), nilpotents)]


def check_sl2(U: int, g: int, scale=1) -> dict:
    """The pairwise sl2 report of v_U, U a mask at g, with every nilpotent
    scaled by `scale`, a negative control: values other than +1 or -1 must
    break the triple identities."""
    _tail_mask_check(U, g)
    return dict(pairwise_sl2_reports(g, scale))[U]


def dense_nilpotent(W: int, g: int, scale=1) -> tuple:
    """v_W from the paper's definition, as dense Fraction rows and with none
    of the package's matrix code: the sum of E_{I, {2..g} minus I} over I
    inside W, halved at W = {2..g}, times `scale`.

    x_I sits at position I >> 1 and its partner y_I at 2^g - 1 - (I >> 1);
    E_{I,J} sends y_J to x_I and y_I to x_J.
    """
    _tail_mask_check(W, g)
    n, tail = 1 << g, (1 << g) - 2
    rows = [[Fraction(0)] * n for _ in range(n)]
    for I in range(0, n, 2):
        if I & W == I:
            J = tail ^ I
            for i, j in {(I >> 1, n - 1 - (J >> 1)), (J >> 1, n - 1 - (I >> 1))}:
                rows[i][j] += 1
    c = Fraction(scale, 2) if W == tail else Fraction(scale)
    return tuple(tuple(c * x for x in row) for row in rows)


def dense_sl2_report(U: int, g: int, scale=1) -> dict:
    """The sl2 report of v_U recomputed from dense_nilpotent, every v_W
    scaled by `scale` as in check_sl2; the conjugate of v is -v^T."""
    def twice(a):
        return tuple(tuple(2 * x for x in row) for row in a)

    _tail_mask_check(U, g)
    nilpotents = [dense_nilpotent(W, g, scale) for W in range(0, 1 << g, 2)]
    v = nilpotents[U >> 1]
    vbar = tuple(tuple(-x for x in col) for col in dense_transpose(v))
    h = dense_bracket(v, vbar)
    return {
        "bracket_vv_zero": all(not any(map(any, dense_bracket(v, w))) for w in nilpotents),
        "bracket_vvbar_diagonal": all(not x for i, row in enumerate(h) for j, x in enumerate(row) if i != j),
        "triple_identities": (
            dense_bracket(v, h) == twice(v) and dense_bracket(vbar, dense_bracket(vbar, v)) == twice(vbar)
        ),
    }


def _argparse_positive(text: str) -> int:
    try:
        return _positive(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None


def argparse_parser() -> argparse.ArgumentParser:
    """The command line as an argparse parser, built from _COMMANDS and
    build_parser: one subcommand per row, --input and --weyl-full in a
    mutually exclusive group, and --g refused without --weyl-full.
    Abbreviated flags are unrecognized, as cli.parse_args reads none."""

    class Command(argparse.ArgumentParser):
        def parse_known_args(self, args=None, namespace=None):
            namespace, extras = super().parse_known_args(args, namespace)
            # an unrecognized argument is reported first, by the top-level parser
            if not extras and not getattr(namespace, "weyl_full", True) and namespace.g is not None:
                self.error("--g needs --weyl-full")
            return namespace, extras

    parser = argparse.ArgumentParser(prog="cmlab", allow_abbrev=False,
                                     description="Monomial period relations, Hodge-class bases and sl2 checks.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Command)
    for name, (_, _, description, reads) in _COMMANDS.items():
        sp = sub.add_parser(name, help=description, description=description, allow_abbrev=False)
        sources = sp.add_mutually_exclusive_group() if reads == _PAIR_OR_GENUS else sp
        for flag, keywords in build_parser()[name].items():
            if keywords.get("type") is _positive:
                keywords = {**keywords, "type": _argparse_positive}
            (sources if flag in _SOURCES else sp).add_argument(flag, **keywords)
    return parser
