"""Hodge-class enumeration, reduction certificates, supports, dichotomy."""
import functools
import itertools
import math
import pathlib
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab.cmtypes import CMPairSpec
from cmlab.cli import main
from cmlab.galois import GaloisGroup, weyl_full
from cmlab.hodge import (
    canonical_form_weyl,
    pohlmann_basis,
    support_class,
)
from cmlab.hyperoct import SignedPerm, admissible, mask_of, members, subset_rank
from cmlab.reciprocity import (
    MonomialRelation,
    ReductionError,
    chain_generator,
    degree_one_generator,
    reduce_to_low_degree,
    render_relation,
    verify_certificate,
)
from oracles import (
    EmbeddingLabel, act_subset, b2_quadruples, balance_dichotomy, bidegree, bp_multisets, compose,
    dense, holomorphy_digits, kernel_to_cycle, member, quad_lattice, quadruple_support, quadruple_to_cycle,
    rec_star_antiweyl, relation_of_cycle, slot_entries, span, subset_cycle, translated, walk_nodes, weyl_elements,
)
from strategies import cyclic_pairs, generator_pairs, signed_perms, subsets

MU19_PHI = [0, 2, 3, 6, 10, 13, 14, 16, 17]
# Galois-orbit index sets I([a]) of the mu19 pair, for the labels used below
MU19_I = {
    0: mask_of(9, []),
    2: mask_of(9, [2, 5, 6, 7, 8, 9]),
    3: mask_of(9, [3, 7, 9]),
    6: mask_of(9, [2, 3, 5, 7, 8, 9]),
    10: mask_of(9, [2, 3, 5, 9]),
    13: mask_of(9, [2, 3, 4, 5, 6, 7, 9]),
    14: mask_of(9, [3, 5]),
    16: mask_of(9, [2, 4, 5, 6, 7, 8]),
    17: mask_of(9, [3, 5, 6, 7, 9]),
}
L56 = mask_of(9, [5, 6])

BP_COUNTS = {
    (2, 1, 1): 2,
    (2, 2, 1): 1,
    (2, 1, 2): 8,
    (2, 2, 2): 18,
    (3, 1, 1): 4,
    (3, 2, 1): 8,
    (3, 1, 2): 16,
    (3, 2, 2): 132,
    (4, 2, 1): 52,
    (4, 3, 1): 152,
}


def mu19_spec():
    return CMPairSpec.from_cyclic(18, MU19_PHI)


def mu19_cubics():
    """The two degree-three relations of the mu19 kernel, as Theta_I
    exponent vectors at g = 9 (slots indexed by the orbit table)."""
    out = []
    for pos, neg in [([0, 6, 17], [2, 3, 14]), ([0, 6, 13], [3, 10, 16])]:
        vec = [0] * (1 << 9)
        for a in pos:
            vec[subset_rank(9, MU19_I[a])] += 1
        for a in neg:
            vec[subset_rank(9, MU19_I[a])] -= 1
        out.append(MonomialRelation.from_vec(9, vec))
    return out


class TestCycleIndex:
    """A cycle index: the increasing tuple of slot numbers of a Hodge class.
    relation_of_cycle, a reference in oracles that no command reaches,
    refuses the tuples that are not one, so that its own callers in the
    tests cannot pass it a malformed cycle."""

    def test_entries_must_be_strictly_sorted(self):
        # slot 2 is {1} and slot 0 the empty set, in copy 1 at g = 2: a
        # balanced pair, refused for its order alone
        for slots in ((2, 0), (0, 0)):
            with pytest.raises(ValueError) as err:
                relation_of_cycle(slots, 2)
            assert str(err.value) == "slots must be strictly increasing (distinct slots)"

    def test_copy_range(self):
        # a negative slot lies in a copy before copy 1
        for slots in ((-1,), (-1, 0)):
            with pytest.raises(ValueError) as err:
                relation_of_cycle(slots, 2)
            assert str(err.value) == "copy index 0 out of range"

    def test_copy_major_ordering(self):
        # a copy-2 slot sorts after every copy-1 slot, whatever the ranks
        c = (3, 4)
        assert slot_entries(c, 2) == ((mask_of(2, [1, 2]), 1), (mask_of(2, []), 2))
        assert subset_cycle(2, ((mask_of(2, []), 2), (mask_of(2, [1, 2]), 1))) == c
        assert bidegree(c, 2) == (1, 1)

    def test_bidegree_and_rho_reversal(self):
        c = bp_multisets(2, 2, 1)[0]
        assert bidegree(c, 2) == (2, 2)
        one_sided = subset_cycle(2, ((mask_of(2, []), 1), (mask_of(2, [2]), 1)))
        assert bidegree(one_sided, 2) == (2, 0)
        assert bidegree(translated(one_sided, SignedPerm.make(2, [1, 2])), 2) == (0, 2)

    @given(signed_perms(3), signed_perms(3))
    @settings(max_examples=40, deadline=None)
    def test_translation_is_an_action(self, a, b):
        for c in bp_multisets(3, 1, 2):
            assert translated(translated(c, a), b) == translated(c, compose(b, a))


class TestBpMultisets:
    def test_frozen_counts(self):
        for (g, p, n), want in BP_COUNTS.items():
            assert len(bp_multisets(g, p, n)) == want, (g, p, n)

    def test_top_class_of_the_surface(self):
        (c,) = bp_multisets(2, 2, 1)
        assert slot_entries(c, 2) == (
            (mask_of(2, []), 1),
            (mask_of(2, [2]), 1),
            (mask_of(2, [1]), 1),
            (mask_of(2, [1, 2]), 1),
        )

    def test_degree_one_pairs_are_complementary(self):
        cycles = bp_multisets(2, 1, 1)
        assert [slot_entries(c, 2) for c in cycles] == [
            ((mask_of(2, []), 1), (mask_of(2, [1, 2]), 1)),
            ((mask_of(2, [2]), 1), (mask_of(2, [1]), 1)),
        ]
        for g in (2, 3):
            for c in bp_multisets(g, 1, 2):
                (I, _), (J, _) = slot_entries(c, g)
                assert J == I ^ ((1 << g) - 1)
            assert len(bp_multisets(g, 1, 2)) == (1 << (g - 1)) * 4

    def test_caps(self):
        with pytest.raises(ValueError, match="budgeted"):
            bp_multisets(9, 1, 1)
        with pytest.raises(ValueError, match="budgeted"):
            bp_multisets(2, 5, 1)
        with pytest.raises(ValueError, match="budgeted"):
            bp_multisets(2, 1, 4)


class TestPohlmann:
    def test_agrees_with_coverage_enumeration(self):
        for g, p, n in itertools.product((2, 3), (1, 2), (1, 2)):
            assert set(pohlmann_basis(g, p, n)) == set(bp_multisets(g, p, n)), (g, p, n)

    def test_p_zero_is_the_empty_cycle(self):
        assert pohlmann_basis(3, 0, 1) == [()]
        assert pohlmann_basis(mu19_spec(), 0, 2) == [()]

    def test_weyl_spec_degree_one(self):
        got = pohlmann_basis(CMPairSpec.weyl(3), 1, 1)
        assert [slot_entries(c, 3, labels=True) for c in got] == [
            ((EmbeddingLabel(j, False), 1), (EmbeddingLabel(j, True), 1))
            for j in range(1, 4)
        ]

    def test_mu19_degree_one_pairs(self):
        got = pohlmann_basis(mu19_spec(), 1, 1)
        assert [slot_entries(c, 9, labels=True) for c in got] == [
            ((EmbeddingLabel(j, False), 1), (EmbeddingLabel(j, True), 1))
            for j in range(1, 10)
        ]

    def test_basis_is_group_stable(self):
        basis = set(pohlmann_basis(3, 2, 1))
        for t in weyl_elements(3):
            assert {translated(c, t) for c in basis} == basis

    def test_budget_error(self):
        with pytest.raises(ValueError, match="budget exceeded"):
            pohlmann_basis(3, 2, 1, budget=5)

    def test_budget_counts_walk_nodes_not_combinations(self):
        # C(32, 4) = 35,960 unpruned candidates; the walk visits 12,487
        # nodes, so a budget between the two now suffices
        assert pohlmann_basis(5, 2, 1, budget=20_000) == bp_multisets(5, 2, 1)
        with pytest.raises(ValueError, match="walk visits more than 10000 nodes"):
            pohlmann_basis(5, 2, 1, budget=10_000)

    def test_triple_oracle_at_g6(self):
        # out of reach while the digits came from all 46,080 group elements
        basis = pohlmann_basis(6, 2, 1)
        assert len(basis) == 1_936
        assert basis == bp_multisets(6, 2, 1)
        assert set(basis) == {quadruple_to_cycle(*q[:4], 6, q[4]) for q in b2_quadruples(6, 1)}

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_pruned_walk_matches_the_flat_scan(self, data):
        spec = data.draw(pohlmann_specs(), label="spec")
        n = data.draw(st.integers(1, 2), label="n")
        p = data.draw(st.integers(1, 3), label="p")
        slots = n * ((1 << spec) if isinstance(spec, int) else 2 * spec.g)
        while math.comb(slots, 2 * p) > 40_000:  # keep the oracle quick
            p -= 1
        assert pohlmann_basis(spec, p, n) == flat_scan(spec, p, n)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_the_budget_is_exactly_the_nodes_of_a_complete_walk(self, data):
        # the --budget contract, independent of the walk's shape: a walk
        # finishes at the brute-force node count and refuses one below it
        spec = data.draw(pohlmann_specs(), label="spec")
        n = data.draw(st.integers(1, 2), label="n")
        p = data.draw(st.integers(1, 3), label="p")
        slots = n * ((1 << spec) if isinstance(spec, int) else 2 * spec.g)
        # keep the oracle quick, and leave room for 2p slots: a walk with
        # none counts a root loop of slots - 2p + 1 < 0 and spends nothing
        while math.comb(slots, 2 * p) > 40_000 or 2 * p > slots:
            p -= 1
        nodes = walk_nodes(spec, p, n)
        assert pohlmann_basis(spec, p, n, budget=nodes) == pohlmann_basis(spec, p, n)
        with pytest.raises(ValueError) as refused:
            pohlmann_basis(spec, p, n, budget=nodes - 1)
        assert str(refused.value) == f"enumeration budget exceeded: the walk visits more than {nodes - 1} nodes"

    def test_walk_nodes_is_the_pinned_count(self):
        assert walk_nodes(5, 2, 1) == 12_487

    def test_a_refusal_stays_within_its_budget(self):
        # 76,800 slots: a walk that left a node's children on the stack
        # unpaid held all 76,799 of the root's before it counted any
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="walk visits more than 1000000 nodes"):
                pohlmann_basis(8, 1, 300, budget=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak

    @given(st.integers(1, 4) | cyclic_pairs(5), st.integers(0, 3), st.integers(1, 2))
    @settings(max_examples=60, deadline=None)
    def test_classes_are_increasing_slot_tuples(self, spec, p, n):
        # the invariant each class keeps without a type to check it: 2p
        # distinct slots, increasing, inside the n copies of the base
        base = (1 << spec) if isinstance(spec, int) else 2 * spec.g
        for c in pohlmann_basis(spec, p, n):
            assert type(c) is tuple and len(c) == 2 * p
            assert all(type(s) is int for s in c)
            assert all(a < b for a, b in zip(c, c[1:]))
            assert not c or 0 <= c[0] and c[-1] < n * base

    def test_g4_p3_n2(self):
        # C(32, 6) = 906,192 candidates for the unpruned scan
        basis = pohlmann_basis(4, 3, 2)
        assert len(basis) == 11_744
        assert set(basis) == set(bp_multisets(4, 3, 2))

    def test_mu19_kernel_cycle_is_a_basis_element(self):
        spec = mu19_spec()
        c = kernel_to_cycle(spec, (1, -1, -1, 1, 0, 0, -1, 0, 1))
        assert c in set(pohlmann_basis(spec, 3, 1))


def flat_scan(spec, p, n):
    """The unpruned whole-group scan pohlmann_basis used to run: every
    2p-combination of the slots in itertools.combinations order, kept iff
    its packed holomorphy profile (holomorphy_digits, one digit per group
    element) has digit p at every group element."""
    digits, order = holomorphy_digits(spec)
    packed = digits * n
    target = p * int("1" * order, 16)
    return [
        combo
        for combo in itertools.combinations(range(len(packed)), 2 * p)
        if sum(packed[i] for i in combo) == target
    ]


@st.composite
def pohlmann_specs(draw):
    """An anti-Weyl genus g = 2..4, or a CM pair: the full Weyl group at
    g = 2..4, a cyclic group of order M <= 14, or the closure of random
    signed permutations with conjugation and a g-cycle added."""
    kind = draw(st.sampled_from(["anti-weyl", "weyl", "cyclic", "generators"]))
    if kind == "anti-weyl":
        return draw(st.integers(2, 4))
    if kind == "weyl":
        return CMPairSpec.weyl(draw(st.integers(2, 4)))
    if kind == "cyclic":
        return draw(cyclic_pairs(7))
    return draw(generator_pairs(4))


class TestB2Quadruples:
    def test_frozen_counts(self):
        for (g, n), want in {(2, 1): 1, (3, 1): 8, (2, 2): 18, (3, 2): 132, (4, 1): 52}.items():
            assert len(b2_quadruples(g, n)) == want, (g, n)

    def test_surface_quadruple(self):
        (q,) = b2_quadruples(2, 1)
        assert q == (mask_of(2, []), mask_of(2, [2]), mask_of(2, [2]), mask_of(2, []), (1, 1, 1, 1))

    def test_reordered_quadruple_is_excluded(self):
        e, s = mask_of(2, []), mask_of(2, [2])
        assert all(q[:4] != (e, s, e, s) for q in b2_quadruples(2, 2))

    def test_matches_coverage_basis_after_reindexing(self):
        for g, n in [(2, 1), (3, 1), (2, 2), (3, 2), (4, 1)]:
            cycles = {quadruple_to_cycle(*q[:4], g, q[4]) for q in b2_quadruples(g, n)}
            assert len(cycles) == len(b2_quadruples(g, n))
            assert cycles == set(bp_multisets(g, 2, n)), (g, n)

    def test_outputs_are_admissible_tail_quadruples(self):
        for I, J, K, L, _ in b2_quadruples(3, 2):
            assert admissible(I, J, K, L)
            assert not (I | J | K | L) & 1

    def test_repeated_wedge_slot_rejected(self):
        # a wedge that repeats a slot is zero: its sorted slots repeat one,
        # and relation_of_cycle refuses them
        e, s = mask_of(2, []), mask_of(2, [2])
        slots = quadruple_to_cycle(e, e, s, s, 2)
        assert slots == (0, 0, 2, 2)
        with pytest.raises(ValueError, match="strictly increasing"):
            relation_of_cycle(slots, 2)


class TestAdmissible:
    def test_mu19_factorization_quadruples(self):
        assert admissible(MU19_I[0], MU19_I[17], MU19_I[3], L56)
        assert admissible(MU19_I[2], MU19_I[14], MU19_I[6], L56)

    def test_counterexample(self):
        assert not admissible(
            mask_of(2, []), mask_of(2, []), mask_of(2, []), mask_of(2, [2])
        )

    def test_mask_form_agrees_with_subsets(self):
        # the mask test against unions and intersections of element sets
        for g in range(1, 5):
            for q in itertools.product(range(1 << g), repeat=4):
                I, J, K, L = (set(members(X)) for X in q)
                assert admissible(*q) == (I | J == K | L and I & J == K & L), q

    def test_stable_under_the_group(self):
        # the image quadruple (t.I, t.J, (t.K^c)^c, (t.L^c)^c) stays admissible
        for g in (3, 4):
            full = (1 << g) - 1
            for I, J, K, L, _ in b2_quadruples(g, 1):
                for t in weyl_elements(g):
                    assert admissible(
                        act_subset(t, I),
                        act_subset(t, J),
                        act_subset(t, K ^ full) ^ full,
                        act_subset(t, L ^ full) ^ full,
                    )


class TestKernelToCycle:
    def test_mu19_generator(self):
        c = kernel_to_cycle(mu19_spec(), (1, -1, -1, 1, 0, 0, -1, 0, 1))
        assert slot_entries(c, 9, labels=True) == (
            (EmbeddingLabel(1, False), 1),
            (EmbeddingLabel(4, False), 1),
            (EmbeddingLabel(9, False), 1),
            (EmbeddingLabel(2, True), 1),
            (EmbeddingLabel(3, True), 1),
            (EmbeddingLabel(7, True), 1),
        )
        assert bidegree(c, 9, labels=True) == (3, 3)

    def test_satisfies_the_counting_condition(self):
        spec = mu19_spec()
        c = kernel_to_cycle(spec, (1, -1, -1, 1, 0, 0, -1, 0, 1))
        for s in spec.group.elements:
            assert bidegree(translated(c, s, labels=True), 9, labels=True) == (3, 3)

    def test_zero_vector(self):
        assert kernel_to_cycle(mu19_spec(), (0,) * 9) == ()

    def test_doubled_vector_fills_both_copies(self):
        spec = mu19_spec()
        single = kernel_to_cycle(spec, (1, -1, -1, 1, 0, 0, -1, 0, 1))
        double = kernel_to_cycle(spec, (2, -2, -2, 2, 0, 0, -2, 0, 2))
        # copy 2 repeats copy 1, one base of 18 slots further on
        assert double == single + tuple(s + 18 for s in single)

    def test_depth_validation(self):
        spec = mu19_spec()
        a = (2, -2, -2, 2, 0, 0, -2, 0, 2)
        with pytest.raises(ValueError, match="n too small"):
            kernel_to_cycle(spec, a, n=1)
        assert kernel_to_cycle(spec, a, n=3) == kernel_to_cycle(spec, a, n=2)

    def test_rejects_non_kernel_vectors(self):
        with pytest.raises(ValueError, match="not in the relation kernel"):
            kernel_to_cycle(mu19_spec(), (1, 0, 0, 0, 0, 0, 0, 0, -1))
        with pytest.raises(ValueError, match="length"):
            kernel_to_cycle(mu19_spec(), (0,) * 4)


class TestRelationOfCycle:
    def test_degree_one_cancels_to_the_trivial_relation(self):
        for g in (2, 3):
            for c in bp_multisets(g, 1, 1):
                assert relation_of_cycle(c, g) == MonomialRelation(g, ())

    def test_degenerate_quadruple_is_trivial(self):
        e, s = mask_of(2, []), mask_of(2, [2])
        assert relation_of_cycle(quadruple_to_cycle(e, s, s, e, 2), 2) == MonomialRelation(2, ())

    def test_mu19_mediated_quadratic(self):
        c = quadruple_to_cycle(MU19_I[0], MU19_I[17], MU19_I[3], L56, 9)
        rel = relation_of_cycle(c, 9)
        want = [0] * (1 << 9)
        want[subset_rank(9, MU19_I[0])] += 1
        want[subset_rank(9, MU19_I[17])] += 1
        want[subset_rank(9, MU19_I[3])] -= 1
        want[subset_rank(9, L56)] -= 1
        assert dense(rel) == tuple(want) and rel.tau == 0

    def test_cubic_is_the_difference_of_the_two_quadratics(self):
        qa = relation_of_cycle(quadruple_to_cycle(MU19_I[0], MU19_I[17], MU19_I[3], L56, 9), 9)
        qb = relation_of_cycle(quadruple_to_cycle(MU19_I[2], MU19_I[14], MU19_I[6], L56, 9), 9)
        cubic = mu19_cubics()[0]
        assert tuple(a - b for a, b in zip(dense(qa), dense(qb))) == dense(cubic)

    def test_unbalanced_cycle_rejected(self):
        c = subset_cycle(2, ((mask_of(2, []), 1), (mask_of(2, [2]), 1)))
        with pytest.raises(ValueError, match="unbalanced"):
            relation_of_cycle(c, 2)

    def test_empty_cycle_is_trivial(self):
        assert relation_of_cycle((), 3) == MonomialRelation(3, ())


class TestCertificates:
    def test_degree_one_generator_renders_with_tau(self):
        rel = degree_one_generator(mask_of(2, []), 2)
        assert render_relation(rel) == "Th{}*Th{1,2} ~ tau"

    def test_single_part_certificates(self):
        for gen in (degree_one_generator(mask_of(3, [2]), 3), chain_generator(mask_of(3, [1, 3]), 3)):
            assert verify_certificate(gen, ((gen, 1),))

    def test_tampered_certificates_fail(self):
        gen = chain_generator(mask_of(3, [1, 3]), 3)
        assert not verify_certificate(gen, ((gen, 2),))
        bad_vec = [0] * 8
        bad_vec[subset_rank(3, mask_of(3, []))] = 1
        bad = MonomialRelation.from_vec(3, bad_vec)
        assert not verify_certificate(bad, ((bad, 1),))
        # a part of another dimension is refused, not summed or raised on
        assert not verify_certificate(gen, ((chain_generator(mask_of(4, [1, 3]), 4), 1),))

    def test_trivial_relation_reduces_to_the_empty_certificate(self):
        rel = MonomialRelation(3, ())
        parts = reduce_to_low_degree(rel)
        assert parts == () and verify_certificate(rel, parts)

    def test_degree_one_relation_reduces(self):
        rel = degree_one_generator(mask_of(3, [2]), 3)
        parts = reduce_to_low_degree(rel)
        assert verify_certificate(rel, parts) and parts

    def test_mu19_cubics_reduce(self):
        for cubic, want_parts in zip(mu19_cubics(), (15, 17)):
            parts = reduce_to_low_degree(cubic)
            assert verify_certificate(cubic, parts)
            assert len(parts) == want_parts
            assert all(abs(c) == 1 for _, c in parts)

    def test_every_small_balanced_relation_reduces(self):
        lattice = quad_lattice(3)
        for c in bp_multisets(3, 2, 1):
            rel = relation_of_cycle(c, 3)
            assert verify_certificate(rel, reduce_to_low_degree(rel))
            # tau-free targets independently lie in the quadruple span
            assert member(dense(rel), lattice) is not None

    def test_unreachable_relation_raises(self):
        vec = [0] * 8
        vec[subset_rank(3, mask_of(3, []))] = 1
        with pytest.raises(ReductionError, match="not a relation"):
            reduce_to_low_degree(MonomialRelation.from_vec(3, vec))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_reduction_agrees_with_the_hnf_membership_oracle(self, data):
        g, w = drawn_vector(data)
        rel = MonomialRelation.from_vec(g, w[:-1], w[-1])
        is_member = member(tuple(w), generator_lattice(g)) is not None
        try:
            parts = reduce_to_low_degree(rel)
        except ReductionError:
            assert not is_member
        else:
            assert is_member
            assert verify_certificate(rel, parts)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_non_relation_is_refused_by_its_rec_star_image(self, data):
        # the refusal names a non-relation exactly when rec* of the vector,
        # tau adding 1 to every coordinate, is not zero; a relation reduces
        g, w = drawn_vector(data)
        rel = MonomialRelation.from_vec(g, w[:-1], w[-1])
        image = [sum(x * y for x, y in zip(row, w)) + w[-1] for row in rec_star_antiweyl(g).entries]
        if any(image):
            with pytest.raises(ReductionError, match="^not a relation: its image under rec\\* is not zero$"):
                reduce_to_low_degree(rel)
        else:
            assert verify_certificate(rel, reduce_to_low_degree(rel))

    @pytest.mark.parametrize("g", [2, 5])
    def test_a_non_relation_seen_only_on_the_conjugate_half_is_refused(self, g):
        # Th{1..g} alone adds 0 to every phi_j and 1 to every phibar_j
        rel = MonomialRelation(g, [((1 << g) - 1, 1)])
        with pytest.raises(ReductionError, match="^not a relation: its image under rec\\* is not zero$"):
            reduce_to_low_degree(rel)

    def test_seeded_g12_combination_reduces(self):
        g = 12
        rng = random.Random(12)
        w = [0] * ((1 << g) + 1)
        tops = [bits for bits in range(1 << g) if bits.bit_count() >= 2]
        gens = [chain_generator(bits, g) for bits in rng.sample(tops, 40)]
        gens += [degree_one_generator(rng.randrange(1 << g), g) for _ in range(5)]
        for gen in gens:
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            for i, x in enumerate([*dense(gen), gen.tau]):
                w[i] += c * x
        rel = MonomialRelation.from_vec(g, w[:-1], w[-1])
        assert verify_certificate(rel, reduce_to_low_degree(rel))

    def test_verify_gates_survive_optimized_mode(self):
        # a strip that drops a chain part, or leaves a stray residual on the
        # full set, must be rejected by the re-sum and the residual check of
        # the certificate even when python -O removes assert statements
        script = """
import cmlab.reciprocity as reciprocity
strip = reciprocity.chain_strip
def lossy(terms, g):
    rem, parts = strip(terms, g)
    return rem, parts[1:]
def leaky(terms, g):
    rem, parts = strip(terms, g)
    rem[7] = rem.get(7, 0) + 1  # the full set {1,2,3}
    return rem, parts
rel = reciprocity.chain_generator(0b111, 3)  # the full set {1,2,3}
for fake in (lossy, leaky):
    reciprocity.chain_strip = fake
    try:
        reciprocity.reduce_to_low_degree(rel)
    except reciprocity.ReductionError as exc:
        print(type(exc).__name__, exc)
    else:
        print("accepted")
"""
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "ReductionError certificate does not re-sum to the relation",
            "ReductionError relation is not generated in degree <= 2",
        ]


def drawn_vector(data):
    """g in 2..6 and [*vec, tau]: a combination of the generators, or random entries."""
    g = data.draw(st.integers(2, 6), label="g")
    rows = generator_rows(g)
    if data.draw(st.booleans(), label="combination"):
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        return g, [sum(c * row[i] for c, row in zip(coeffs, rows)) for i in range((1 << g) + 1)]
    return g, data.draw(st.lists(st.integers(-2, 2), min_size=(1 << g) + 1, max_size=(1 << g) + 1))


@functools.lru_cache(maxsize=None)
def generator_rows(g):
    """[*vec, tau] of the degree-one generator of the empty set and of every chain."""
    gens = [degree_one_generator(0, g)]
    gens += [chain_generator(bits, g) for bits in range(1 << g) if bits.bit_count() >= 2]
    return tuple(tuple([*dense(x), x.tau]) for x in gens)


@functools.lru_cache(maxsize=None)
def generator_lattice(g):
    """HNF of the degree <= 2 generators: an oracle for membership that is
    independent of back-substitution."""
    return span((1 << g) + 1, [list(row) for row in generator_rows(g)])


def admissible_over_tail(g):
    """Every admissible quadruple over {2..g}, each block an unordered pair
    taken once: the pairs (I, J) grouped by (I | J, I & J)."""
    by_sig = {}
    for I, J in itertools.combinations_with_replacement(range(0, 1 << g, 2), 2):
        by_sig.setdefault((I | J, I & J), []).append((I, J))
    return [(I, J, K, L) for pairs in by_sig.values() for I, J in pairs for K, L in pairs]


def census(g):
    """Admissible quadruples over {2..g} grouped by their walked support."""
    G = weyl_full(g)
    by_support = {}
    for q in admissible_over_tail(g):
        by_support.setdefault(quadruple_support(q, G), []).append(q)
    return by_support


def support_reference(q, g, elements):
    """quadruple_support as it was computed with act_subset, one translate
    of each wedge slot per group element."""
    I, J, K, L = q
    full = (1 << g) - 1
    return frozenset(
        (
            frozenset({act_subset(t, I), act_subset(t, J)}),
            frozenset({act_subset(t, K ^ full), act_subset(t, L ^ full)}),
        )
        for t in elements
    )


@st.composite
def admissible_quadruples_over_tail(draw, g):
    """(g, (I, J, K, L)) with (I, J, K, L) = (C|A, C|(D-A), C|B, C|(D-B)),
    C, D disjoint subsets of {2..g} and A, B inside D: every admissible
    quadruple."""
    tail = draw(st.lists(st.integers(0, 2), min_size=g - 1, max_size=g - 1))
    c = sum(1 << j for j, x in enumerate(tail, start=1) if x == 1)
    d = sum(1 << j for j, x in enumerate(tail, start=1) if x == 2)
    a = draw(st.integers(0, d)) & d
    b = draw(st.integers(0, d)) & d
    return g, (c | a, c | (d ^ a), c | b, c | (d ^ b))


@st.composite
def quadruples(draw, g):
    """Any four subsets of {1..g}, often with a degenerate block: I = J,
    K = L or {I, J} = {K, L}."""
    I, J, K, L = (draw(subsets(g)) for _ in range(4))
    shape = draw(st.sampled_from(["any", "I=J", "K=L", "same blocks", "swapped blocks"]))
    if shape == "I=J":
        J = I
    elif shape == "K=L":
        L = K
    elif shape != "any":
        K, L = (I, J) if shape == "same blocks" else (J, I)
    return (I, J, K, L)


@st.composite
def translated_quadruple(draw, q, g):
    """t.q for a random t in W_g, its blocks' members possibly swapped: a
    quadruple with the support of q."""
    full = (1 << g) - 1
    t = draw(signed_perms(g))
    I, J, K, L = (act_subset(t, X) for X in (q[0], q[1], q[2] ^ full, q[3] ^ full))
    if draw(st.booleans()):
        I, J = J, I
    if draw(st.booleans()):
        K, L = L, K
    return (I, J, K ^ full, L ^ full)


@st.composite
def quadruple_pairs(draw):
    """(g, two quadruples at g) for a g <= 5, the second a translate of the
    first half of the time."""
    g = draw(st.integers(1, 5))
    q = draw(quadruples(g))
    other = translated_quadruple(q, g) if draw(st.booleans()) else quadruples(g)
    return g, (q, draw(other))


def assert_matches_the_walk(quads, g):
    """support_class agrees with the walked orbit at g: sizes are equal, and
    keys are equal exactly when supports are."""
    G = weyl_full(g)
    walked = [quadruple_support(q, G) for q in quads]
    classes = [support_class(q, g) for q in quads]
    assert [size for size, _ in classes] == [len(s) for s in walked]
    key_of = {}
    for s, (_, key) in zip(walked, classes):
        assert key_of.setdefault(s, key) == key
    assert len(set(key_of.values())) == len(key_of)


class TestSupport:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([4, 5]).flatmap(admissible_quadruples_over_tail))
    def test_matches_the_subset_reference(self, gq):
        g, q = gq
        assert admissible(*q)
        support = quadruple_support(q, weyl_full(g))
        assert support == support_reference(q, g, weyl_elements(g))
        assert support_class(q, g)[0] == len(support)

    @settings(max_examples=6, deadline=None)  # the reference takes ~0.5 s at g = 6
    @given(st.sampled_from([3, 6]).flatmap(admissible_quadruples_over_tail))
    def test_matches_the_subset_reference_at_g3_and_g6(self, gq):
        g, q = gq
        assert admissible(*q)
        support = quadruple_support(q, weyl_full(g))
        assert support == support_reference(q, g, weyl_elements(g))
        assert support_class(q, g)[0] == len(support)

    @settings(max_examples=200, deadline=None)
    @given(quadruple_pairs())
    def test_any_pair_matches_the_walk(self, pair):
        g, quads = pair
        assert_matches_the_walk(quads, g)

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_every_quadruple_matches_the_walk(self, g):
        assert_matches_the_walk(list(itertools.product(range(1 << g), repeat=4)), g)

    def test_size_at_g8_matches_the_walk(self):
        # every ordering of the blocks has the tuple's counts: h = 4
        q = tuple(mask_of(8, s) for s in ([2, 3, 6], [4, 5, 6], [2, 4, 6], [3, 5, 6]))
        assert support_class(q, 8)[0] == len(quadruple_support(q, weyl_full(8))) == 26880

    def test_self_and_translate_equivalence(self):
        q = (mask_of(3, []), mask_of(3, [2, 3]), mask_of(3, [2]), mask_of(3, [3]))
        key = support_class(q, 3)[1]
        for t in weyl_elements(3):  # the identity included: q is equivalent to itself
            moved = (
                act_subset(t, q[0]),
                act_subset(t, q[1]),
                act_subset(t, q[2] ^ 0b111) ^ 0b111,
                act_subset(t, q[3] ^ 0b111) ^ 0b111,
            )
            assert support_class(moved, 3)[1] == key

    def test_swapped_right_pair_is_equivalent(self):
        q1 = (mask_of(3, []), mask_of(3, [2, 3]), mask_of(3, [2]), mask_of(3, [3]))
        q2 = (mask_of(3, []), mask_of(3, [2, 3]), mask_of(3, [3]), mask_of(3, [2]))
        assert support_class(q1, 3) == support_class(q2, 3)
        assert support_class(q1, 3)[0] == 12

    def test_degenerate_surface_support(self):
        q = (mask_of(2, []), mask_of(2, [2]), mask_of(2, [2]), mask_of(2, []))
        assert support_class(q, 2)[0] == 4

    @pytest.mark.parametrize("g", [3, 4, 5, 6])
    def test_key_and_canonical_form_determine_each_other(self, g):
        form_of = {}
        for q in admissible_over_tail(g):
            assert form_of.setdefault(support_class(q, g)[1], canonical_form_weyl(q, g)) == canonical_form_weyl(q, g)
        assert len(set(form_of.values())) == len(form_of)

    def test_census_matches_canonical_form(self):
        sizes = {
            3: {(1, 1): 4, (2, 1): 4, (3, 1): 2, (3, 2): 2},
            4: {(1, 1): 8, (2, 1): 12, (3, 1): 12, (3, 2): 12, (4, 1): 4, (4, 2): 12},
        }
        for g, want in sizes.items():
            classes = census(g)
            got = {}
            for members in classes.values():
                forms = {canonical_form_weyl(q, g) for q in members}
                assert len(forms) == 1  # support determines (r, s)
                got[forms.pop()] = len(members)
            # and (r, s) determines the support: one class per value
            assert len(classes) == len(got)
            assert got == want


class TestCanonicalForm:
    def test_examples(self):
        q = (mask_of(3, []), mask_of(3, [2, 3]), mask_of(3, [2]), mask_of(3, [3]))
        assert canonical_form_weyl(q, 3) == (3, 2)
        d = (mask_of(2, []), mask_of(2, [2]), mask_of(2, [2]), mask_of(2, []))
        assert canonical_form_weyl(d, 2) == (2, 1)

    def test_ranges(self):
        for g in (3, 4):
            for members in census(g).values():
                for q in members:
                    r, s = canonical_form_weyl(q, g)
                    assert 2 <= r <= g or (r, s) == (1, 1)
                    if s > 1:
                        assert 2 <= s <= (r + 1) // 2

    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
    def test_s_is_1_exactly_when_the_blocks_agree(self, g):
        # s = 1 iff some x in {I, J} equals some y in {K, L}, and then
        # admissibility forces the other two equal: I = K gives J = L
        for I, J, K, L in admissible_over_tail(g):
            for q in ((I, J, K, L), (I, J, L, K)):
                assert (canonical_form_weyl(q, g)[1] == 1) == ({I, J} == {K, L}), q

    def test_validation(self):
        with pytest.raises(ValueError, match="not admissible"):
            canonical_form_weyl(
                (mask_of(3, []), mask_of(3, []), mask_of(3, []), mask_of(3, [2])), 3
            )
        with pytest.raises(ValueError, match="inside"):
            canonical_form_weyl(
                (mask_of(3, [1]), mask_of(3, [1]), mask_of(3, [1]), mask_of(3, [1])), 3
            )


class TestDichotomy:
    def test_exhaustive_counts(self):
        assert balance_dichotomy(3) == (36, 220)
        assert balance_dichotomy(4) == (216, 3880)

    def test_g6_counts(self):
        assert balance_dichotomy(6) == (7776, 1040800)

    def test_cap(self):
        with pytest.raises(ValueError, match="g <= 6"):
            balance_dichotomy(7)

    def test_builds_no_group(self, monkeypatch, capsys):
        # the anti-Weyl Pohlmann digits and the dichotomy digits come from
        # the 2g classes of translates, not from the 3,840 elements at g = 5
        built = []
        original = GaloisGroup.__init__

        def record(self, *args):
            original(self, *args)
            built.append(len(self.elements))

        monkeypatch.setattr(GaloisGroup, "__init__", record)
        assert main(["hodge-basis", "--weyl-full", "--g", "5", "--p", "2", "--n", "1"]) == 0
        assert capsys.readouterr().out.startswith("basis size: 320\n")
        assert balance_dichotomy(5) == (1296, 64240)
        assert built == []

    def test_digits_do_not_read_the_pohlmann_profiles(self, monkeypatch):
        # the oracle computes its own translate digits, so that it stays
        # independent of the code it checks
        def refuse(spec):
            raise RuntimeError("the dichotomy read hodge._holomorphy_profiles")

        monkeypatch.setattr("cmlab.hodge._holomorphy_profiles", refuse)
        assert [balance_dichotomy(g) for g in (3, 4, 5)] == [(36, 220), (216, 3880), (1296, 64240)]

    def test_lemma_gates_survive_optimized_mode(self):
        # a wrong admissibility test must break the lemma in each direction,
        # and be reported, even when python -O removes assert statements
        script = f"""
import sys
sys.path.insert(0, {str(pathlib.Path(__file__).parent)!r})
import oracles
for fake in (lambda *q: True, lambda *q: False):
    oracles.admissible = fake
    try:
        oracles.balance_dichotomy(3)
    except AssertionError as exc:
        print(exc)
    else:
        print("accepted")
"""
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == [
            "balance lemma fails at quadruple ({}, {}, {}, {2})",
            "balance lemma fails at quadruple ({}, {}, {}, {})",
        ]
