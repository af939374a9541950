"""Hodge-class bases, the relations their cycles induce, and quadruple
supports.

A (p,p)-Hodge class on the n-th power of a CM abelian variety is the
increasing tuple of its 2p embedding slots.  A slot is one number,
(copy - 1) * base + position, where base, which the caller holds, is the
number of embeddings of the variety and position follows its base order:
the 2^g CM-type index sets by rank on the anti-Weyl variety, phi_1..phi_g
then phibar_1..phibar_g on a CM pair, the first half holomorphic.  The
slots form a class exactly when they meet every Galois translate of the
CM type in p slots (the Pohlmann condition); pohlmann_basis enumerates
these directly.  On the generalized anti-Weyl variety, tests/oracles.py
re-enumerates the same basis independently (by point coverage, and in
degree two by admissible quadruples wedged by quadruple_to_cycle) and
checks the two-out-of-four balance lemma behind the admissibility
condition.

Each balanced cycle induces a monomial relation between the periods
Theta_I (relation_of_cycle); reciprocity.reduce_to_low_degree certifies
that every such relation is generated by degree-one relations
Theta_I * Theta_{I^c} ~ tau and degree-two quadruple relations.

A quadruple's support is the W_g-orbit of its block pair, sized and keyed
by support_class from the pattern counts of its four masks; on admissible
quadruples the key and the invariant (r, s) of canonical_form_weyl
determine each other.
"""
from math import factorial, prod

from . import POHLMANN_HARD_BUDGET
from .hyperoct import admissible, check_powerset_size, subset_rank, subset_unrank


def _holomorphy_profiles(spec) -> tuple[list, int]:
    """([per position in base order: one base-16 digit per distinct
    translate of the CM type, set iff the position is holomorphic there],
    number of translates).  For a pair, sigma moves x to a holomorphic label
    iff x is in sigma^-1 Phi, whose mask m = sigma^-1.empty is in
    translate_masks; phi_j is in it iff j is not in m."""
    if isinstance(spec, int):
        g = spec
        check_powerset_size(g)
        # digit 2k + f: every t with k = beta^-1(1), f = [1 in flips]; t.I avoids 1 iff f = [k in I]
        masks = (subset_unrank(g, r) for r in range(1 << g))
        return [sum(1 << (4 * (2 * k + (bits >> k & 1))) for k in range(g)) for bits in masks], 2 * g
    # only a pair reads its group's orbits, so only a pair loads the group code
    from .cmtypes import translate_masks

    masks = translate_masks(spec.group)
    return [int("".join("1" if (m >> j & 1) == bar else "0" for m in reversed(masks)), 16)
            for bar in (0, 1) for j in range(spec.g)], len(masks)


def pohlmann_basis(spec, p: int, n: int, budget: int = POHLMANN_HARD_BUDGET) -> list[tuple]:
    """All 2p-slot cycles meeting every Galois translate of the CM type in
    exactly p slots, on the n-th power of the variety, as slot tuples.

    spec is a CMPairSpec, or an integer g for the generalized anti-Weyl
    variety (slots are then all subsets of {1,...,g}, acted on by the full
    hyperoctahedral group).  Enumeration is exact: a depth-first walk in
    itertools.combinations order drops a partial choice once some translate
    of the CM type holds more than p of its slots.  A node adds the length
    of its loop to a node count when it is made, the root before the slots
    are laid out; a count past the budget (hard cap 10^7) raises ValueError.
    """
    if p < 0 or n < 1:
        raise ValueError("need p >= 0 and n >= 1")
    if p == 0:
        return [()]
    if p > 7:
        raise ValueError("the packed accumulator supports p <= 7")
    eff = min(budget, POHLMANN_HARD_BUDGET)
    exceeded = f"enumeration budget exceeded: the walk visits more than {eff} nodes"
    profile, digits = _holomorphy_profiles(spec)
    # a node's loop is counted when it is made, the root's before profile * n
    visited = n * len(profile) - 2 * p + 1
    if visited > eff:
        raise ValueError(exceeded)
    # one base-16 digit per translate, slot s at packed[s]; a candidate is
    # Pohlmann-valid iff each digit of its holomorphy count is p, and with
    # 2p <= 14 no digit carries
    packed = profile * n
    ones = int("1" * digits, 16)
    target = p * ones
    # partial sums keep every digit <= p, so acc + packed[i] has digits <= 8:
    # adding 7 - p sets bit 3 of a digit iff it exceeds p, with no carry
    lift, high = (7 - p) * ones, 8 * ones
    picked = []
    # the walk's nodes as (start, acc, chosen), children pushed in reverse so
    # that they pop in itertools.combinations order
    stack = [(0, 0, ())]
    while stack:
        start, acc, chosen = stack.pop()
        left = 2 * p - len(chosen)
        span = range(start, len(packed) - left + 1)
        if left == 1:
            for i in span:
                if acc + packed[i] == target:
                    picked.append((*chosen, i))
        else:
            for i in reversed(span):
                nxt = acc + packed[i]
                if not (nxt + lift) & high:
                    # the child's loop, range(i + 1, span.stop + 1): one slot fewer left
                    visited += span.stop - i
                    if visited > eff:
                        raise ValueError(exceeded)
                    stack.append((i + 1, nxt, (*chosen, i)))
    return picked


def quadruple_to_cycle(I: int, J: int, K: int, L: int, g: int, copies=(1, 1, 1, 1)) -> tuple:
    """The sorted slots of the wedge eps_I ^ eps_J ^ eps_{K^c} ^ eps_{L^c} of four masks at g."""
    base = 1 << g
    wedge = (I, J, K ^ (base - 1), L ^ (base - 1))
    return tuple(sorted((copy - 1) * base + subset_rank(g, X) for X, copy in zip(wedge, copies)))


def relation_of_cycle(slots: tuple, g: int) -> "MonomialRelation":
    """The monomial relation induced by the slots of a cycle on the anti-Weyl
    variety at g, which must be distinct, non-negative, increasing and
    balanced: Theta_I on the left per holomorphic slot I, Theta_{I^c} on
    the right per antiholomorphic slot; copy indices are dropped."""
    from .reciprocity import MonomialRelation

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
# supports and canonical forms


def _class_counts(a: int, b: int, c: int, d: int, g: int) -> tuple:
    """The number of points j in each class {p, p ^ 15}, indexed by min(p, p ^ 15),
    of the pattern p = [j in a] + 2[j in b] + 4[j in c] + 8[j in d]."""
    counts = [0] * 8
    for j in range(g):
        p = (a >> j & 1) | (b >> j & 1) << 1 | (c >> j & 1) << 2 | (d >> j & 1) << 3
        counts[min(p, p ^ 15)] += 1
    return tuple(counts)


def support_class(q, g: int) -> tuple[int, tuple]:
    """(size, key) of the support of the masks (I, J, K, L) at g, the
    W_g-orbit of its block pair ({I, J}, {K^c, L^c}).  W_g permutes points
    and a flip complements a point's pattern, so 4-tuples share an orbit iff
    their class counts n_c agree, and the stabilizer of one has order
    prod n_c!.
    The support has 2^g g! / (prod n_c! h) points, h the distinct orderings
    of the block pair with the tuple's own counts, and two supports agree
    iff their keys (the least counts over the orderings) do."""
    full = (1 << g) - 1
    a, b, c, d = q[0], q[1], q[2] ^ full, q[3] ^ full
    own = _class_counts(a, b, c, d, g)
    counts = [_class_counts(*o, g) for o in {(a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c)}]
    stabilizer = prod(map(factorial, own)) * counts.count(own)
    return (1 << g) * factorial(g) // stabilizer, min(counts)


def canonical_form_weyl(q, g: int) -> tuple[int, int]:
    """The conjugacy invariant (r, s) of an admissible quadruple of masks
    over {2,...,g} under the full hyperoctahedral group.

    r - 1 = |I ^ J| is the block width; s - 1 is the least overlap defect
    between the two blocks, 0 exactly in the degenerate case {I,J} = {K,L}
    (zero relation), since admissibility and I = K force J = L.
    Nondegenerate classes have 2 <= s <= (r+1)/2.
    """
    I, J, K, L = q
    for X in q:
        if X & 1 or X >> g:
            raise ValueError("expected index sets inside {2,...,g}")
    if not admissible(I, J, K, L):
        raise ValueError("quadruple is not admissible: unions or intersections differ")
    r = (I ^ J).bit_count() + 1
    return (r, 1 + min((x ^ y).bit_count() for x in (I, J) for y in (K, L)))
