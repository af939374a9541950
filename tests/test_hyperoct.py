"""Group arithmetic and actions of signed permutations."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab.hyperoct import SignedPerm, _act_bits, mask_of, members, submasks, subset_rank, subset_str
from cmlab.reciprocity import chain_generator, degree_one_generator
from oracles import EmbeddingLabel, act_embedding, act_subset, compose, inverse, quadruple_to_cycle, weyl_elements
from strategies import dims, signed_perms, subsets


def full_group(g):
    for perm in itertools.permutations(range(1, g + 1)):
        for bits in range(1 << g):
            yield SignedPerm(g, bits, perm)


class TestCompose:
    def test_identity_neutral(self):
        x = SignedPerm.make(3, [1, 3], [2, 1, 3])
        e = SignedPerm.make(3)
        assert compose(e, x) == x
        assert compose(x, e) == x

    def test_semidirect_rule(self):
        a = SignedPerm.make(2, [1])
        b = SignedPerm.make(2, [], [2, 1])
        assert compose(a, b) == SignedPerm.make(2, [1], [2, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            compose(SignedPerm.make(2), SignedPerm.make(3))

    def test_associative_exhaustive_g2(self):
        G = list(full_group(2))
        for a, b, c in itertools.product(G, repeat=3):
            assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @settings(max_examples=200)
    @given(dims().flatmap(lambda g: st.tuples(signed_perms(g), signed_perms(g), signed_perms(g))))
    def test_associative_random(self, abc):
        a, b, c = abc
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


class TestInverse:
    def test_identity(self):
        assert inverse(SignedPerm.make(4)) == SignedPerm.make(4)

    def test_flip_swap(self):
        x = SignedPerm.make(2, [2], [2, 1])
        assert inverse(x) == SignedPerm.make(2, [1], [2, 1])

    def test_exhaustive_small(self):
        for g in (1, 2, 3):
            e = SignedPerm.make(g)
            for x in full_group(g):
                assert compose(x, inverse(x)) == e
                assert compose(inverse(x), x) == e

    @settings(max_examples=200)
    @given(dims().flatmap(lambda g: signed_perms(g)))
    def test_random(self, x):
        assert compose(x, inverse(x)) == SignedPerm.make(x.g)


class TestActSubset:
    def test_identity(self):
        I = mask_of(5, [2, 4])
        assert act_subset(SignedPerm.make(5), I) == I

    def test_rho_complements(self):
        I = mask_of(9, [2, 5])
        assert act_subset(SignedPerm.make(9, range(1, 10)), I) == mask_of(9, [1, 3, 4, 6, 7, 8, 9])

    @settings(max_examples=200)
    @given(dims().flatmap(lambda g: st.tuples(signed_perms(g), signed_perms(g), subsets(g))))
    def test_left_action(self, abI):
        a, b, I = abI
        assert act_subset(compose(a, b), I) == act_subset(a, act_subset(b, I))

    @settings(max_examples=100)
    @given(dims().flatmap(lambda g: st.tuples(signed_perms(g), subsets(g))))
    def test_rho_central_complement(self, tI):
        t, I = tI
        rho = SignedPerm.make(t.g, range(1, t.g + 1))
        assert compose(rho, t) == compose(t, rho)
        assert act_subset(rho, I) == I ^ ((1 << t.g) - 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            act_subset(SignedPerm.make(2), mask_of(3, [3]))


class TestIntegerAction:
    def test_matches_act_subset_on_the_full_group(self):
        # the reference maps each member j to beta(j) and flips through set
        # operations, independently of both
        for g in (1, 2, 3, 4):
            for t in weyl_elements(g):
                for bits in range(1 << g):
                    image = {t.perm[j - 1] for j in range(1, g + 1) if bits >> (j - 1) & 1}
                    flips = {j for j in range(1, g + 1) if t.flips >> (j - 1) & 1}
                    want = sum(1 << (j - 1) for j in image ^ flips)
                    assert act_subset(t, bits) == want
                    assert _act_bits(t, bits) == want


class TestActEmbedding:
    def test_flip_bars_own_index(self):
        e1 = SignedPerm.make(3, [1])
        assert act_embedding(e1, EmbeddingLabel(1)) == EmbeddingLabel(1, bar=True)

    def test_flip_fixes_other_index(self):
        e2 = SignedPerm.make(3, [2])
        assert act_embedding(e2, EmbeddingLabel(1)) == EmbeddingLabel(1)

    def test_swap_moves_barred_label(self):
        sw = SignedPerm.make(2, [], [2, 1])
        assert act_embedding(sw, EmbeddingLabel(1, bar=True)) == EmbeddingLabel(2, bar=True)

    @settings(max_examples=200)
    @given(
        dims().flatmap(
            lambda g: st.tuples(
                signed_perms(g), signed_perms(g), st.integers(1, g), st.booleans()
            )
        )
    )
    def test_left_action_and_conjugation_equivariance(self, data):
        a, b, j, bar = data
        x = EmbeddingLabel(j, bar)
        assert act_embedding(compose(a, b), x) == act_embedding(a, act_embedding(b, x))
        y = act_embedding(a, x)
        assert act_embedding(a, EmbeddingLabel(j, not bar)) == EmbeddingLabel(y.index, not y.bar)


class TestSubset:
    def test_out_of_range(self):
        with pytest.raises(ValueError, match="^element 4 outside 1..3$"):
            mask_of(3, [4])
        with pytest.raises(ValueError, match="^element 0 outside 1..3$"):
            mask_of(3, [0])

    def test_repeated_element(self):
        with pytest.raises(ValueError, match="^element 2 repeats$"):
            mask_of(3, [2, 3, 2])
        with pytest.raises(ValueError, match="^element 1 repeats$"):
            SignedPerm.make(3, [1, 1])

    def test_members_round_trip(self):
        for bits in range(1 << 6):
            assert mask_of(6, members(bits)) == bits
            assert list(members(bits)) == sorted(members(bits))
        assert members(mask_of(5, [4, 1])) == (1, 4)

    def test_no_bound_on_g(self):
        # only the command line bounds the g of its input
        assert members(mask_of(25, range(1, 26))) == tuple(range(1, 26))
        I = mask_of(30, [1, 30])
        t = SignedPerm.make(30, [2, 30], [*range(2, 31), 1])
        assert act_subset(t, I) == mask_of(30, [2, 30]) ^ mask_of(30, [1, 2])
        assert compose(t, inverse(t)) == SignedPerm.make(30)

    def test_str(self):
        assert subset_str(mask_of(4, [3, 1])) == "{1,3}"
        assert subset_str(0) == "{}"

    def test_a_mask_past_g_has_no_rank(self):
        # the rank would fall inside 0..2^g-1 and name another index set;
        # a cycle, built from ranks, refuses the mask instead, and a
        # relation, keyed by masks, refuses it in its constructor
        with pytest.raises(ValueError, match="^mask 0x8 has indices outside 1..3$"):
            subset_rank(3, 0b1000)
        with pytest.raises(ValueError, match="^mask -0x1 has indices outside 1..3$"):
            subset_rank(3, -1)
        with pytest.raises(ValueError, match="^an index lies outside 0..7$"):
            chain_generator(0b1100, 3)
        with pytest.raises(ValueError, match="^an index lies outside 0..7$"):
            degree_one_generator(0b1000, 3)
        with pytest.raises(ValueError, match="^mask 0x8 has indices outside 1..3$"):
            quadruple_to_cycle(0b1000, 0, 0, 0, 3)
        assert subset_rank(3, 0b111) == 7
        assert subset_rank(0, 0) == 0


class TestSubmasks:
    def test_every_submask_once_in_decreasing_order(self):
        for bits in range(64):
            want = [s for s in range(bits, -1, -1) if s & bits == s]
            assert list(submasks(bits)) == want
