"""CM pairs (the cyclic constructor and the Weyl pair's cap), subset order,
orbits, reflex recovery and compagnons (cyclotomic regression).

Compagnon k is orbit k of orbit_decomposition: its degree is the orbit size
and its CM type the members avoiding 1; the reflex is the orbit of the
empty set, translate_masks."""
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab.cmtypes import (
    CMPairSpec,
    labeled_translates,
    labels_of,
    orbit_decomposition,
    translate_masks,
)
from cmlab.galois import from_generators, weyl_full
from cmlab.hyperoct import SignedPerm, mask_of, members, subset_rank, subset_unrank
from oracles import (EmbeddingLabel, act_embedding, act_subset, compose, decode_cm_type, encode_cm_type, translates_by,
                     whole_group_orbits)
from strategies import cm_pair_specs, cyclic_pairs, induced_cyclic_pairs, signed_perms, subsets

# Orbit table of the mu19 regression datum: translation label a -> I([a]).
MU19_ORBIT_TABLE = {
    0: set(),
    1: {1, 4, 6, 7, 8},
    2: {2, 5, 6, 7, 8, 9},
    3: {3, 7, 9},
    4: {1, 8},
    5: {1, 2, 4, 6, 7, 8, 9},
    6: {2, 3, 5, 7, 8, 9},
    7: {1, 3, 9},
    8: {1, 2, 4, 8},
    9: {1, 2, 3, 4, 5, 6, 7, 8, 9},
    10: {2, 3, 5, 9},
    11: {1, 3, 4},
    12: {1, 2, 4, 5, 6, 8},
    13: {2, 3, 4, 5, 6, 7, 9},
    14: {3, 5},
    15: {1, 4, 6},
    16: {2, 4, 5, 6, 7, 8},
    17: {3, 5, 6, 7, 9},
}

MU19_PHI = [0, 2, 3, 6, 10, 13, 14, 16, 17]
MU19_PHI_STAR = [0, 1, 2, 4, 5, 8, 12, 15, 16]


@pytest.fixture(scope="module")
def mu19():
    return CMPairSpec.from_cyclic(18, MU19_PHI_STAR)


class TestSubsetOrder:
    def test_g2_order(self):
        ranked = [members(subset_unrank(2, r)) for r in range(4)]
        assert ranked == [(), (2,), (1,), (1, 2)]

    def test_rank_unrank_bijection(self):
        for g in range(1, 9):
            assert sorted(subset_unrank(g, r) for r in range(1 << g)) == list(range(1 << g))
            for r in range(1 << g):
                assert subset_rank(g, subset_unrank(g, r)) == r

    def test_ordering_constraints_exhaustive(self):
        for g in range(1, 9):
            for I in range(1 << g):
                # complement-reversal: rank(I) + rank(I^c) = 2^g - 1
                assert subset_rank(g, I) + subset_rank(g, I ^ ((1 << g) - 1)) == (1 << g) - 1
                if not I & 1:
                    assert subset_rank(g, I) < (1 << (g - 1))
                else:
                    assert subset_rank(g, I) >= (1 << (g - 1))

    def test_tail_subsets_are_the_first_half_of_the_order(self):
        # the subsets of {2,...,g} are the even masks, ranked by mask
        for g in range(1, 9):
            assert list(range(0, 1 << g, 2)) == [subset_unrank(g, r) for r in range(1 << (g - 1))]


class TestOrbitDecomposition:
    def test_mu19_first_orbit_is_table(self, mu19):
        orbits = orbit_decomposition(mu19.group)
        first = {members(I) for I in orbits[0]}
        assert first == {tuple(sorted(v)) for v in MU19_ORBIT_TABLE.values()}
        # and the table itself: [a], the a-th element of the closure, acts
        # on the empty set to give I([a]), as the walk of [1] does
        for a, expect in MU19_ORBIT_TABLE.items():
            assert set(members(act_subset(mu19.group.elements[a], 0))) == expect
        assert {a: set(members(I)) for a, I in enumerate(labeled_translates(mu19, 0))} == MU19_ORBIT_TABLE

    def test_mu19_orbit_census(self, mu19):
        orbits = orbit_decomposition(mu19.group)
        assert len(orbits) == 30
        sizes = sorted(len(o) for o in orbits)
        assert sizes.count(2) == 1 and sizes.count(6) == 1 and sizes.count(18) == 28
        assert sum(sizes) == 512

    def test_partition_property(self, mu19):
        orbits = orbit_decomposition(mu19.group)
        seen = [I for o in orbits for I in o]
        assert sorted(seen) == list(range(512))

    def test_orbits_sorted_and_keyed(self, mu19):
        orbits = orbit_decomposition(mu19.group)
        for o in orbits:
            ranks = [subset_rank(9, I) for I in o]
            assert ranks == sorted(ranks)
        keys = [subset_rank(9, o[0]) for o in orbits[1:]]
        assert keys == sorted(keys)

    @given(cm_pair_specs())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_whole_group_orbits(self, spec):
        orbits = orbit_decomposition(spec.group)
        assert orbits == whole_group_orbits(spec.group)
        # the reflex walk gives the first orbit, the orbit of the empty set,
        # and its masks avoiding 1 are already in rank order
        masks = translate_masks(spec.group)
        assert masks == sorted(orbits[0])
        assert [m for m in masks if not m & 1] == [I for I in orbits[0] if not I & 1]

    @given(cm_pair_specs())
    @settings(max_examples=40, deadline=None)
    def test_each_orbit_is_a_compagnon(self, spec):
        # conjugation lies in the group: every orbit is closed under
        # complement, so exactly half of it avoids 1 (its CM type), and the
        # degrees sum to 2^g
        orbits = orbit_decomposition(spec.group)
        full = (1 << spec.g) - 1
        for o in orbits:
            assert {I ^ full for I in o} == set(o)
            assert 2 * sum(not I & 1 for I in o) == len(o)
        assert sum(map(len, orbits)) == 1 << spec.g

    @given(cm_pair_specs(5) | induced_cyclic_pairs(5))
    @settings(max_examples=40, deadline=None)
    def test_every_orbit_is_found_from_an_even_mask(self, spec):
        # rho lies in the group and complements, so every orbit's minimal
        # member avoids 1, and seeding the even masks finds what seeding
        # every rank finds
        orbits = orbit_decomposition(spec.group)
        assert orbits == whole_group_orbits(spec.group)
        full = (1 << spec.g) - 1
        for o in orbits:
            assert {I ^ full for I in o} == set(o) and not o[0] & 1

    def test_weyl_g3_single_orbit(self):
        spec = CMPairSpec.weyl(3)
        orbits = orbit_decomposition(spec.group)
        assert len(orbits) == 1 and len(orbits[0]) == 8

    def test_L_not_in_first_orbit(self, mu19):
        orbits = orbit_decomposition(mu19.group)
        L = mask_of(9, [5, 6])
        assert L not in orbits[0]
        (orbL,) = [o for o in orbits if L in o]
        assert len(orbL) == 18


class TestReflexAndCompagnons:
    def test_reflex_recovery(self, mu19):
        # the reflex labels are the labels of the conjugate type, the full mask
        assert labels_of(mu19, (1 << 9) - 1) == [0, 2, 3, 6, 10, 13, 14, 16, 17]

    def test_reflex_cm_type_half_orbit(self, mu19):
        masks = translate_masks(mu19.group)
        cm_type = [m for m in masks if not m & 1]
        assert len(masks) == 18 and len(cm_type) == 9
        ranks = [subset_rank(9, I) for I in cm_type]
        assert ranks == sorted(ranks)
        assert masks[0] == 0

    def test_compagnon_L(self, mu19):
        L = mask_of(9, [5, 6])
        assert labels_of(mu19, L) == [5, 7, 8, 9, 10, 11, 12, 13, 15]

    def test_compagnon_Lprime(self, mu19):
        Lp = mask_of(9, [4, 6, 7])
        assert labels_of(mu19, Lp) == [4, 6, 7, 8, 9, 10, 11, 12, 14]

    @settings(max_examples=80, deadline=None)
    @given(cyclic_pairs(24) | induced_cyclic_pairs(24))
    def test_the_reflex_is_labeled_by_its_conjugate_type(self, spec):
        # the oracle applies each element [a] of the closure to the empty
        # set, without the walk under [1]; the induced pairs have fewer than
        # M translates of the empty set
        G, M = spec.group, 2 * spec.g
        reflex = [a for a in range(M) if not act_subset(G.elements[a], 0) & 1]
        assert labels_of(spec, (1 << spec.g) - 1) == reflex
        assert labels_of(spec, 0) == sorted(set(range(M)) - set(reflex))

    def test_unlabeled_group_messages(self):
        spec = CMPairSpec.weyl(2)
        # the reflex labels (the full mask) and a compagnon's labels
        for base in (3, 0):
            with pytest.raises(ValueError) as err:
                labels_of(spec, base)
            assert str(err.value) == "labels need a labeled (cyclic) group"

    def test_census(self, mu19):
        orbits = orbit_decomposition(mu19.group)
        cm_types = [[I for I in o if not I & 1] for o in orbits]
        assert sum(map(len, orbits)) == 512
        assert sum(map(len, cm_types)) == 256
        for o, cm_type in zip(orbits, cm_types):
            assert len(cm_type) * 2 == len(o)
            assert {I ^ 511 for I in o} == set(o)

    def test_weyl_reflex_all_subsets_without_1(self):
        masks = translate_masks(CMPairSpec.weyl(3).group)
        assert len(masks) == 8
        assert {members(m) for m in masks if not m & 1} == {(), (2,), (3,), (2, 3)}

    def test_g1_reflex(self):
        G = from_generators(1, [SignedPerm.make(1, [1])])
        assert translate_masks(G) == [0, 1]

    def test_cyclic_reflex_past_g_24(self):
        # only the command line bounds the g of its input: Z/60 acting on a
        # random transversal builds, and the walked orbit of the empty set is
        # its image under every element of the closure
        rng = random.Random(60)
        G = CMPairSpec.from_cyclic(60, [a + 30 * rng.randrange(2) for a in range(30)]).group
        assert G.g == 30 and len(G.elements) == 60
        images = {act_subset(t, 0) for t in G.elements}
        assert translate_masks(G) == sorted(images)


class TestCyclicTranslation:
    # the closure of the one generator [1] lists its powers in order, so
    # elements[t] is [t]: each check below reads the closure

    def test_mu19_group(self):
        G = CMPairSpec.from_cyclic(18, MU19_PHI).group
        assert len(set(G.elements)) == 18
        assert all(translates_by(G.elements[t], t, 18, MU19_PHI) for t in range(18))
        assert G.elements[9] == SignedPerm.make(9, range(1, 10))

    def test_homomorphism_exhaustive(self):
        E = CMPairSpec.from_cyclic(18, MU19_PHI).group.elements
        for s in range(18):
            for t in range(18):
                assert compose(E[s], E[t]) == E[(s + t) % 18]

    def test_mu5_shape(self):
        G = CMPairSpec.from_cyclic(4, [0, 1]).group
        E = G.elements
        assert len(E) == 4
        assert E[2] == SignedPerm.make(2, [1, 2])
        assert compose(E[1], E[1]) == E[2]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 24).flatmap(lambda g: st.tuples(
        st.just(g), st.permutations(range(g)), st.lists(st.booleans(), min_size=g, max_size=g))))
    def test_rho_and_the_residue_law_hold_by_construction(self, drawn):
        # no runtime check looks for rho in a cyclic group: [M/2] is rho,
        # and [t] translates every residue by t, for every transversal
        g, residues, conj = drawn
        M = 2 * g
        phi = [a + g * c for a, c in zip(residues, conj)]
        G = CMPairSpec.from_cyclic(M, phi).group
        E = G.elements
        assert len(E) == M
        assert E[M // 2] == SignedPerm.make(g, range(1, g + 1))
        assert all(translates_by(E[t], t, M, phi) for t in range(M))

    def test_wrong_transversal_size(self):
        with pytest.raises(ValueError, match="wrong transversal size"):
            CMPairSpec.from_cyclic(18, [0, 2])

    def test_repeated_residue_is_named(self):
        # the count is right, so the message names the repeat, not the size
        with pytest.raises(ValueError, match="^residue 0 repeats mod 4: not a transversal$"):
            CMPairSpec.from_cyclic(4, [0, 4])
        with pytest.raises(ValueError, match="wrong transversal size: need 3 distinct residues, got 2"):
            CMPairSpec.from_cyclic(6, [1, 1])

    def test_conjugate_pair_rejected(self):
        with pytest.raises(ValueError, match="not a transversal"):
            CMPairSpec.from_cyclic(4, [0, 2])

    def test_odd_modulus(self):
        with pytest.raises(ValueError, match="even"):
            CMPairSpec.from_cyclic(9, [0, 1, 2, 3])

    @pytest.mark.parametrize("M, phi", [(0, [1]), (0, []), (-2, [0])])
    def test_a_modulus_below_two_is_named(self, M, phi):
        # refused before a residue is reduced mod M, which would divide by
        # zero at M = 0
        with pytest.raises(ValueError) as err:
            CMPairSpec.from_cyclic(M, phi)
        assert str(err.value) == f"M={M} must be at least 2"

    def test_labels_map(self):
        # residue t names the t-th power of the generator, the t-th element
        # of the closure
        G = CMPairSpec.from_cyclic(4, [0, 1]).group
        power = SignedPerm.make(2)
        for t in range(4):
            assert G.elements[t] == power
            power = compose(G.gens[0], power)


class TestWeylPair:
    def test_the_pair_caps_g_and_the_group_does_not(self):
        # every pair command walks all 2^g masks, so the cap sits on the
        # pair; the group alone is three generators at any g
        assert weyl_full(17).g == 17
        with pytest.raises(ValueError, match=r"^operation enumerates all 2\^g subsets; g=17 exceeds the cap 16$"):
            CMPairSpec.weyl(17)


class TestLabeledTranslates:
    """The orbit table of a cyclic pair is one walk of the generator [1]."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 15).flatmap(lambda g: st.tuples(
        st.permutations(range(g)), st.lists(st.booleans(), min_size=g, max_size=g), subsets(g))))
    def test_walk_matches_the_closure(self, drawn):
        # step a of the walk is [a].base, [a] being the a-th element of the
        # closure of [1]
        residues, conj, base = drawn
        g = len(residues)
        spec = CMPairSpec.from_cyclic(2 * g, [a + g * c for a, c in zip(residues, conj)])
        G = spec.group
        assert labeled_translates(spec, base) == [act_subset(G.elements[a], base) for a in range(2 * g)]

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(cyclic_pairs(15), induced_cyclic_pairs(15)), st.data())
    def test_the_orbit_repeated_is_the_step_loop(self, spec, data):
        # an induced type has translates that repeat before step 2g, so its
        # cycle is shorter than the table and is repeated to fill it
        base = data.draw(subsets(spec.g), label="base")
        step, rows, x = spec.group.gens[0], [], base
        for _ in range(2 * spec.g):
            rows.append(x)
            x = act_subset(step, x)
        assert labeled_translates(spec, base) == rows

    @pytest.mark.parametrize("M", [18, 60])
    def test_one_signed_permutation_per_cyclic_pair(self, M, monkeypatch):
        made = []
        check = SignedPerm.__post_init__
        monkeypatch.setattr(SignedPerm, "__post_init__", lambda self: made.append(self) or check(self))
        spec = CMPairSpec.from_cyclic(M, [a + M // 2 * (a % 2) for a in range(M // 2)])
        assert made == list(spec.group.gens) and len(made) == 1


class TestLabelNames:
    """label_name renders the 2g embedding names from the pair's residues."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 15).flatmap(lambda g: st.tuples(
        st.permutations(range(g)), st.lists(st.booleans(), min_size=g, max_size=g),
        st.lists(st.integers(-2, 2), min_size=g, max_size=g))))
    def test_cyclic_names_are_distinct_residues(self, drawn):
        # a random transversal of Z/M, M <= 30, each residue shifted by a
        # multiple of M: phi_j is named a_j mod M, phibar_j (a_j + M/2) mod M,
        # and no two of the 2g names agree
        residues, conj, shift = drawn
        g = len(residues)
        M = 2 * g
        phi = [a + g * c + M * k for a, c, k in zip(residues, conj, shift)]
        spec = CMPairSpec.from_cyclic(M, phi)
        assert spec.residues == tuple(a % M for a in phi)
        names = [spec.label_name(j, bar) for bar in (False, True) for j in range(1, g + 1)]
        assert names == [str(a % M) for a in phi] + [str((a + M // 2) % M) for a in phi]
        assert len(set(names)) == M

    def test_a_pair_without_residues_names_by_position(self):
        spec = CMPairSpec.weyl(2)
        assert spec.residues is None
        names = [spec.label_name(j, bar) for bar in (False, True) for j in (1, 2)]
        assert names == ["phi1", "phi2", "phibar1", "phibar2"]


class TestDecodeEncode:
    def test_empty_is_base_type(self, mu19):
        labels = decode_cm_type(0, mu19)
        assert labels == frozenset(EmbeddingLabel(j) for j in range(1, 10))

    def test_full_is_conjugate_type(self, mu19):
        labels = decode_cm_type((1 << 9) - 1, mu19)
        assert labels == frozenset(EmbeddingLabel(j, bar=True) for j in range(1, 10))

    def test_mu19_translate_display(self, mu19):
        I2 = mask_of(9, MU19_ORBIT_TABLE[2])
        residues = {int(mu19.label_name(x.index, x.bar)) for x in decode_cm_type(I2, mu19)}
        assert residues == {2, 3, 4, 6, 7, 10, 14, 17, 0}

    def test_encode_rejects_conjugate_pair(self, mu19):
        bad = {EmbeddingLabel(1), EmbeddingLabel(1, bar=True)} | {
            EmbeddingLabel(j) for j in range(3, 10)
        }
        with pytest.raises(ValueError, match="conjugate pair"):
            encode_cm_type(bad, mu19)

    def test_encode_rejects_wrong_count(self, mu19):
        with pytest.raises(ValueError, match="labels"):
            encode_cm_type({EmbeddingLabel(1)}, mu19)

    @settings(max_examples=100)
    @given(st.integers(0, 511))
    def test_round_trip(self, bits):
        spec = CMPairSpec.from_cyclic(18, MU19_PHI_STAR)
        assert encode_cm_type(decode_cm_type(bits, spec), spec) == bits


def test_action_compatible_with_decoding():
    """Acting on labels then encoding equals acting on the subset directly."""
    for g in (2, 3):
        spec = CMPairSpec.weyl(g)
        for t in spec.group.elements:
            for I in range(1 << g):
                moved = {act_embedding(t, x) for x in decode_cm_type(I, spec)}
                assert encode_cm_type(moved, spec) == act_subset(t, I)
