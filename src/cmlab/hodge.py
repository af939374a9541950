"""Hodge-class bases, quadruple supports, and degree-two reduction
certificates.

A (p,p)-Hodge class on the n-th power of a CM abelian variety is indexed
by a 2p-element set P of embedding slots (an embedding, or a CM-type
index set I, together with a copy index 1..n).  P contributes a class
exactly when it meets every Galois translate of the CM type in p slots
(the Pohlmann condition); pohlmann_basis enumerates these directly.  For
the generalized anti-Weyl variety two independent re-enumerations exist:
bp_multisets (every point of {1,...,g} covered exactly p times) and, in
degree two, b2_quadruples (admissible quadruples I,J,K,L inside {2,...,g}
with I|J = K|L and I&J = K&L, wedged as eps_I ^ eps_J ^ eps_{K^c} ^
eps_{L^c}).  The three must agree element for element.

Each balanced cycle induces a monomial relation between the periods
Theta_I, and every such relation is an integer combination of degree-one
generators Theta_I * Theta_{I^c} ~ tau and degree-two quadruple
generators.  reduce_to_low_degree certifies this by triangular
back-substitution along the chain family of reciprocity, which decides
membership exactly, returning a Certificate whose parts re-sum to the
target.  equiv_class_check strips eps_I - eps_J the same way and returns
the same Certificate type: its chain parts re-sum to eps_I - eps_J minus a
residual on the empty set and the singletons.  Certificate.verify is the
one re-summation checker for both.

Quadruples are classified up to Galois conjugacy by their support (the
set of translated slot pairs) or, equivalently, by the invariant (r, s)
of canonical_form_weyl; balance_dichotomy verifies the exhaustive
two-out-of-four balance lemma behind the admissibility condition.
"""
from __future__ import annotations

import itertools

from . import POHLMANN_HARD_BUDGET
from .cmtypes import CMPairSpec, subset_rank, subset_unrank, tail_subsets, translate_masks
from .galois import GaloisGroup, orbit
from .hyperoct import EmbeddingLabel, Subset, _act_bits, act_embedding, act_subset, check_powerset_size
from .intlattice import member
from .reciprocity import (
    ANTIWEYL,
    MonomialRelation,
    chain_quadruple,
    chain_strip,
    kernel_N,
    quadruple_vector,
)
from .record import Record, set_slot

BP_MAX_G = 8
BP_MAX_P = 4
BP_MAX_N = 3
DICHOTOMY_MAX_G = 5


class ReductionError(ValueError):
    """A relation failed to decompose over the degree <= 2 generators.

    A ValueError, so the command line reports it like any other domain
    error (exit 1 with its message).
    """


def _slot_key(entry):
    """Sort key for (slot, copy) pairs: copies first, then the base order
    (subset rank, or unbarred-before-barred by index for embeddings)."""
    slot, copy = entry
    if isinstance(slot, Subset):
        return (copy, 0, subset_rank(slot))
    return (copy, 1 if slot.bar else 0, slot.index)


def _is_hol(slot) -> bool:
    if isinstance(slot, Subset):
        return 1 not in slot
    return not slot.bar


class CycleIndex(Record):
    """An ordered 2p-tuple of embedding slots indexing a Hodge class.

    entries holds (slot, copy) pairs, strictly increasing: within a copy
    by the base order, across copies by the copy index; holomorphic slots
    precede antiholomorphic ones inside each copy by construction of the
    base order.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple) -> None:
        kinds = {type(slot) for slot, _ in entries}
        if len(kinds) > 1:
            raise ValueError("mixed slot kinds in one cycle")
        for _, copy in entries:
            if copy < 1:
                raise ValueError(f"copy index {copy} out of range")
        keys = [_slot_key(e) for e in entries]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("entries must be strictly increasing (distinct slots)")
        set_slot(self, "entries", entries)

    @property
    def p(self) -> int:
        return len(self.entries) // 2

    @property
    def bidegree(self) -> tuple[int, int]:
        hol = sum(1 for slot, _ in self.entries if _is_hol(slot))
        return (hol, len(self.entries) - hol)

    def translated(self, t) -> "CycleIndex":
        """Apply a signed permutation to every slot and re-sort."""
        moved = []
        for slot, copy in self.entries:
            if isinstance(slot, Subset):
                moved.append((act_subset(t, slot), copy))
            else:
                moved.append((act_embedding(t, slot), copy))
        return CycleIndex(tuple(sorted(moved, key=_slot_key)))


def _holomorphy_profiles(spec) -> tuple[dict, int]:
    """({base slot: one base-16 digit per distinct translate of the CM
    type, set iff the slot is holomorphic there}, number of translates).  For
    a pair, sigma moves x to a holomorphic label iff x is in sigma^-1 Phi, whose
    mask m = sigma^-1.empty is in translate_masks; phi_j is in it iff j is not in m."""
    if isinstance(spec, CMPairSpec):
        masks = translate_masks(spec.group)
        bases = (EmbeddingLabel(j, bar) for bar in (False, True) for j in range(1, spec.g + 1))
        return {x: sum(1 << (4 * i) for i, m in enumerate(masks) if (m >> (x.index - 1) & 1) == x.bar)
                for x in bases}, len(masks)
    g = int(spec)
    check_powerset_size(g)
    # digit 2k + f: every t with k = beta^-1(1), f = [1 in flips]; t.I avoids 1 iff f = [k in I]
    bases = (Subset(g, bits) for bits in range(1 << g))
    return {I: sum(1 << (4 * (2 * k + (I.bits >> k & 1))) for k in range(g)) for I in bases}, 2 * g


def pohlmann_basis(spec, p: int, n: int, budget: int = POHLMANN_HARD_BUDGET) -> list[CycleIndex]:
    """All 2p-slot cycles meeting every Galois translate of the CM type in
    exactly p slots, on the n-th power of the variety.

    spec is a CMPairSpec, or an integer g for the generalized anti-Weyl
    variety (slots are then all subsets of {1,...,g}, acted on by the full
    hyperoctahedral group).  Enumeration is exact: a depth-first walk in
    itertools.combinations order drops a partial choice once some translate
    of the CM type holds more than p of its slots.  Every call of the walk
    adds the length of its loop to a node count; once the count exceeds
    the budget (hard cap 10^7) a ValueError is raised rather than sampling.
    """
    if p < 0 or n < 1:
        raise ValueError("need p >= 0 and n >= 1")
    if p == 0:
        return [CycleIndex(())]
    if p > 7:
        raise ValueError("the packed accumulator supports p <= 7")
    eff = min(budget, POHLMANN_HARD_BUDGET)
    exceeded = ValueError(f"enumeration budget exceeded: the walk visits more than {eff} nodes")
    profile, digits = _holomorphy_profiles(spec)
    if n * len(profile) - 2 * p + 1 > eff:  # the first call's loop, checked before any slot is built
        raise exceeded
    slots = sorted(((base, copy) for copy in range(1, n + 1) for base in profile), key=_slot_key)
    # one base-16 digit per translate; a candidate is Pohlmann-valid iff each
    # digit of its holomorphy count is p, and with 2p <= 14 no digit carries
    packed = [profile[base] for base, _ in slots]
    ones = sum(1 << (4 * i) for i in range(digits))
    target = p * ones
    # partial sums keep every digit <= p, so acc + packed[i] has digits <= 8:
    # adding 7 - p sets bit 3 of a digit iff it exceeds p, with no carry
    lift, high = (7 - p) * ones, 8 * ones
    picked, visited = [], 0

    def walk(start: int, acc: int, chosen: tuple) -> None:
        nonlocal visited
        left = 2 * p - len(chosen)
        span = range(start, len(packed) - left + 1)
        visited += len(span)
        if visited > eff:
            raise exceeded
        for i in span:
            nxt = acc + packed[i]
            if left == 1:
                if nxt == target:
                    picked.append(CycleIndex((*chosen, slots[i])))
            elif not (nxt + lift) & high:
                walk(i + 1, nxt, (*chosen, slots[i]))

    walk(0, 0, ())
    return picked


def bp_multisets(g: int, p: int, n: int) -> list[CycleIndex]:
    """Ordered 2p-tuples of (subset, copy) slots covering every point of
    {1,...,g} exactly p times; the balanced basis of the generalized
    anti-Weyl variety."""
    if g > BP_MAX_G or p > BP_MAX_P or n > BP_MAX_N:
        raise ValueError(
            f"bp_multisets is budgeted to g <= {BP_MAX_G}, p <= {BP_MAX_P}, n <= {BP_MAX_N}"
        )
    if p < 0 or n < 1:
        raise ValueError("need p >= 0 and n >= 1")
    slots = sorted(
        ((subset_unrank(g, r), copy) for copy in range(1, n + 1) for r in range(1 << g)),
        key=_slot_key,
    )
    out: list[CycleIndex] = []
    nodes = 0

    def descend(i: int, chosen: list, cover: list[int], left: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > POHLMANN_HARD_BUDGET:
            raise ValueError("enumeration budget exceeded")
        if left == 0:
            if all(c == p for c in cover):
                out.append(CycleIndex(tuple(chosen)))
            return
        if len(slots) - i < left:
            return
        for k in range(i, len(slots)):
            I = slots[k][0]
            if any(cover[j - 1] + 1 > p for j in I.members()):
                continue
            for j in I.members():
                cover[j - 1] += 1
            chosen.append(slots[k])
            descend(k + 1, chosen, cover, left - 1)
            chosen.pop()
            for j in I.members():
                cover[j - 1] -= 1

    descend(0, [], [0] * g, 2 * p)
    return out


def admissible(I, J, K, L) -> bool:
    """Union/intersection matching: I|J = K|L and I&J = K&L, i.e. every
    point lies in exactly two of the four wedge slots I, J, K^c, L^c.

    Takes four Subsets, or their four masks, where the same test runs on
    plain integers and builds no Subset.
    """
    return I | J == K | L and I & J == K & L


def b2_quadruples(g: int, n: int) -> list[tuple]:
    """Admissible quadruples (I, J, K, L, copies) over {2,...,g} with the
    canonical slot ordering: rank(I),copy <= rank(J),copy on the left,
    rank(K^c),copy <= rank(L^c),copy on the right, all four wedge slots
    distinct."""
    if g > BP_MAX_G:
        raise ValueError(f"b2_quadruples is budgeted to g <= {BP_MAX_G}")
    if n < 1:
        raise ValueError("need n >= 1")
    by_sig: dict = {}
    for I, J in itertools.combinations_with_replacement(tail_subsets(g), 2):
        by_sig.setdefault(((I | J).bits, (I & J).bits), []).append((I, J))
    out = []
    work = 0
    for pairs in by_sig.values():
        work += len(pairs) * len(pairs) * n**4
        if work > POHLMANN_HARD_BUDGET:
            raise ValueError("enumeration budget exceeded")
        for I, J in pairs:
            ri, rj = subset_rank(I), subset_rank(J)
            for A, B in pairs:
                K, L = (
                    (A, B)
                    if subset_rank(A.complement()) <= subset_rank(B.complement())
                    else (B, A)
                )
                rk, rl = subset_rank(K.complement()), subset_rank(L.complement())
                for copies in itertools.product(range(1, n + 1), repeat=4):
                    if (ri, copies[0]) >= (rj, copies[1]):
                        continue
                    if (rk, copies[2]) >= (rl, copies[3]):
                        continue
                    out.append((I, J, K, L, copies))
    out.sort(
        key=lambda q: (
            (subset_rank(q[0]), q[4][0]),
            (subset_rank(q[1]), q[4][1]),
            (subset_rank(q[2].complement()), q[4][2]),
            (subset_rank(q[3].complement()), q[4][3]),
        )
    )
    return out


def quadruple_to_cycle(I: Subset, J: Subset, K: Subset, L: Subset, copies=(1, 1, 1, 1)) -> CycleIndex:
    """The wedge cycle eps_I ^ eps_J ^ eps_{K^c} ^ eps_{L^c}."""
    slots = [
        (I, copies[0]),
        (J, copies[1]),
        (K.complement(), copies[2]),
        (L.complement(), copies[3]),
    ]
    return CycleIndex(tuple(sorted(slots, key=_slot_key)))


def kernel_to_cycle(spec: CMPairSpec, alpha, n: int | None = None) -> CycleIndex:
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
        for j, a in enumerate(alpha, start=1):
            if a >= copy:
                entries.append((EmbeddingLabel(j, False), copy))
        for j, a in enumerate(alpha, start=1):
            if a <= -copy:
                entries.append((EmbeddingLabel(j, True), copy))
    return CycleIndex(tuple(sorted(entries, key=_slot_key)))


def relation_of_cycle(c: CycleIndex) -> MonomialRelation:
    """The monomial relation induced by a balanced subset-slot cycle:
    Theta_I on the left per holomorphic slot, Theta_{I^c} on the right per
    antiholomorphic slot; copy indices are irrelevant and dropped."""
    if not c.entries:
        raise ValueError("cannot infer the ambient dimension of an empty cycle")
    if not isinstance(c.entries[0][0], Subset):
        raise ValueError("subset slots required")
    g = c.entries[0][0].g
    hol, anti = c.bidegree
    if hol != anti:
        raise ValueError(f"unbalanced cycle: {hol} holomorphic vs {anti} antiholomorphic slots")
    vec = [0] * (1 << g)
    for slot, _ in c.entries:
        if 1 not in slot:
            vec[subset_rank(slot)] += 1
        else:
            vec[subset_rank(slot.complement())] -= 1
    return MonomialRelation(ANTIWEYL, g, tuple(vec))


# ---------------------------------------------------------------------------
# degree <= 2 generators and reduction certificates


def degree_one_generator(I: Subset) -> MonomialRelation:
    """Theta_I * Theta_{I^c} ~ tau."""
    vec = [0] * (1 << I.g)
    vec[subset_rank(I)] += 1
    vec[subset_rank(I.complement())] += 1
    return MonomialRelation(ANTIWEYL, I.g, tuple(vec), tau=-1)


def chain_generator(S: Subset) -> MonomialRelation:
    """The degree-two quadruple relation of the chain through S."""
    return MonomialRelation(ANTIWEYL, S.g, tuple(quadruple_vector(*chain_quadruple(S))))


def _is_degree_one(rel: MonomialRelation) -> bool:
    if rel.side != ANTIWEYL or rel.tau != -1:
        return False
    hits = [i for i, x in enumerate(rel.vec) if x]
    if len(hits) != 2 or any(rel.vec[i] != 1 for i in hits):
        return False
    return subset_unrank(rel.g, hits[0]) == subset_unrank(rel.g, hits[1]).complement()


def _is_degree_two(rel: MonomialRelation) -> bool:
    if rel.side != ANTIWEYL or rel.tau != 0:
        return False
    pos, neg = [], []
    for i, x in enumerate(rel.vec):
        if x > 0:
            pos += [subset_unrank(rel.g, i)] * x
        elif x < 0:
            neg += [subset_unrank(rel.g, i)] * -x
    if len(pos) != 2 or len(neg) != 2:
        return False
    return admissible(pos[0], pos[1], neg[0], neg[1])


class Certificate(Record):
    """Integer decomposition of a relation over degree <= 2 generators."""

    __slots__ = ("target", "parts")

    def __init__(self, target: MonomialRelation, parts: tuple) -> None:
        set_slot(self, "target", target)
        set_slot(self, "parts", parts)

    def verify(self) -> bool:
        """Exact re-summation, plus the generator-shape restriction."""
        want = [*self.target.vec, self.target.tau]
        total = [0] * len(want)
        for gen, coeff in self.parts:
            if gen.g != self.target.g:
                return False
            if not (_is_degree_one(gen) or _is_degree_two(gen)):
                return False
            for i, x in enumerate([*gen.vec, gen.tau]):
                total[i] += coeff * x
        return total == want


def reduce_to_low_degree(r: MonomialRelation, g: int) -> Certificate:
    """Certificate expressing r over the degree-one generator of the empty
    set and chain quadruples, found by triangular back-substitution.

    The generators are triangular: the degree-one generator is the only one
    carrying tau, and each chain has a unit pivot on its own top subset of
    size >= 2.  Stripping tau and then every chain from large subsets down
    (chain_strip) therefore decides membership exactly: r is generated in
    degree <= 2 iff the residual vanishes, and otherwise ReductionError is
    raised.
    """
    if r.side != ANTIWEYL:
        raise ValueError("anti-Weyl relation required")
    if r.g != g:
        raise ValueError(f"dimension mismatch: relation has g={r.g}, not {g}")
    head = [(degree_one_generator(Subset.empty(g)), -r.tau)] if r.tau else []
    return _chain_certificate(
        r, head, frozenset(), ReductionError,
        ("relation is not generated in degree <= 2", "certificate does not re-sum to the relation"),
    )


def equiv_class_check(I: Subset, J: Subset) -> Certificate:
    """Certificate that eps_I and eps_J agree modulo M + quad-span, with M
    the free module on eps_empty and the singleton vectors.

    Requires |I| = |J| (equal-size index sets give equivalent period
    classes).  Chain-stripping eps_I - eps_J leaves a residual m in M; the
    certificate's target is eps_I - eps_J - m (tau 0) and its parts are the
    stripped chains.
    """
    if I.g != J.g:
        raise ValueError(f"dimension mismatch: g={I.g} vs g={J.g}")
    if len(I) != len(J):
        raise ValueError(f"sizes differ: |I|={len(I)} vs |J|={len(J)}")
    g = I.g
    vec = [0] * (1 << g)
    vec[subset_rank(I)] += 1
    vec[subset_rank(J)] -= 1
    m_basis = [Subset.empty(g)] + [Subset.of(g, [i]) for i in range(1, g + 1)]
    return _chain_certificate(
        MonomialRelation(ANTIWEYL, g, tuple(vec)), [], frozenset(map(subset_rank, m_basis)),
        AssertionError,
        ("chain stripping left support outside M",
         "equivalence certificate does not re-sum to eps_I - eps_J"),
    )


def _chain_certificate(
    r: MonomialRelation, head: list, kept: frozenset, error: type, messages: tuple[str, str]
) -> Certificate:
    """Strip r minus the head parts along chains and certify the rest.

    The strip residual may be nonzero only at the ranks in kept; the
    certificate's target is r minus that residual, its parts are the head
    and the stripped chains, and it must re-sum exactly.  A residual
    outside kept raises error(messages[0]), a failed re-sum
    error(messages[1]), explicitly so that python -O keeps both gates.
    """
    w = list(r.vec)
    for gen, coeff in head:
        for i, x in enumerate(gen.vec):
            w[i] -= coeff * x
    rem, chains = chain_strip(w, r.g)
    if any(x for i, x in enumerate(rem) if i not in kept):
        raise error(messages[0])
    target = MonomialRelation(ANTIWEYL, r.g, tuple(x - m for x, m in zip(r.vec, rem)), r.tau)
    cert = Certificate(target, (*head, *((chain_generator(S), c) for S, c in chains)))
    if not cert.verify():
        raise error(messages[1])
    return cert


# ---------------------------------------------------------------------------
# supports, canonical forms, and the balance dichotomy


def quadruple_support(q, G: GaloisGroup) -> frozenset:
    """All Galois translates of the wedge-slot pairs of (I, J, K, L): the
    left block {t.I, t.J} and the right block {t.K^c, t.L^c}, as an
    ordered pair of unordered blocks; the orbit of the block pair under the
    generators of G."""
    g = G.g
    if any(X.g != g for X in q):
        raise ValueError(f"dimension mismatch: the group acts at g={g}")
    I, J, K, L = q

    def normal(a, b, c, d):
        return (min(a, b), max(a, b), min(c, d), max(c, d))

    # each generator acts through its table of images of the 2^g masks
    tables = [[_act_bits(t, bits) for bits in range(1 << g)] for t in G.gens]
    seed = normal(I.bits, J.bits, K.complement().bits, L.complement().bits)
    blocks = orbit(tables, seed, lambda t, x: normal(t[x[0]], t[x[1]], t[x[2]], t[x[3]]))
    subsets = [Subset(g, bits) for bits in range(1 << g)]
    return frozenset(
        (frozenset({subsets[a], subsets[b]}), frozenset({subsets[c], subsets[d]}))
        for a, b, c, d in blocks
    )


def canonical_form_weyl(q, g: int) -> tuple[int, int]:
    """The conjugacy invariant (r, s) of an admissible quadruple over
    {2,...,g} under the full hyperoctahedral group.

    r - 1 = |I ^ J| is the block width; s - 1 is the least overlap defect
    between the two blocks, with s = 1 reserved for the degenerate case
    {I,J} = {K,L} (zero relation).  Nondegenerate classes have
    2 <= s <= (r+1)/2.
    """
    I, J, K, L = q
    for X in q:
        if 1 in X or X.g != g:
            raise ValueError("expected index sets inside {2,...,g}")
    if not admissible(I, J, K, L):
        raise ValueError("quadruple is not admissible: unions or intersections differ")
    r = len(I ^ J) + 1
    if {I, J} == {K, L}:
        return (r, 1)
    return (r, 1 + min(len(I ^ K), len(I ^ L), len(J ^ K), len(J ^ L)))


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
    # one base-16 digit per translate counting the slots that contain 1, i.e.
    # whose complement is holomorphic (rho is central); every digit stays <= 5
    hol, digits = _holomorphy_profiles(g)
    ones = sum(1 << (4 * i) for i in range(digits))
    full, high = (1 << g) - 1, 4 * ones
    contains = [hol[Subset(g, bits ^ full)] for bits in range(1 << g)]
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
            quad = ", ".join(str(Subset(g, bits)) for bits in (i, j, k, l))
            raise AssertionError(f"balance lemma fails at quadruple ({quad})")
    return n_adm, n_bad
