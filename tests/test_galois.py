"""Group construction: generators, their capped closure, cyclic translation
embedding, Weyl test."""
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab import galois
from cmlab.cli import spec_from_json
from cmlab.cmtypes import orbit_decomposition
from cmlab.galois import (
    GaloisGroup,
    from_cyclic_translation,
    from_generators,
    orbit,
    weyl_full,
)
from cmlab.hyperoct import SignedPerm
from oracles import EmbeddingLabel, act_embedding, compose, inverse, weyl_elements

MU19_PHI = [0, 2, 3, 6, 10, 13, 14, 16, 17]


def translates_by(el: SignedPerm, t: int, M: int, phi) -> bool:
    """Whether el moves every embedding of the transversal phi of Z/M to
    the one at its residue plus t: phi_j sits at phi[j-1], phibar_j at
    phi[j-1] + M/2."""
    def residue(x):
        return (phi[x.index - 1] + M // 2 * x.bar) % M

    labels = [EmbeddingLabel(j, bar) for j in range(1, el.g + 1) for bar in (False, True)]
    return all(residue(act_embedding(el, x)) == (residue(x) + t) % M for x in labels)


class TestFromGenerators:
    def test_flip_and_three_cycle_closure(self):
        # the image of a 3-cycle in S_3 is A_3, so these close to order 2^3 * 3
        gens = [
            SignedPerm.make(3, [1], [2, 3, 1]),
            SignedPerm.make(3, [2]),
        ]
        G = from_generators(3, gens)
        assert len(G.elements) == 24

    def test_full_hyperoctahedral_g3(self):
        gens = [
            SignedPerm.make(3, [1], [2, 3, 1]),
            SignedPerm.make(3, [2]),
            SignedPerm.make(3, [], [2, 1, 3]),
        ]
        G = from_generators(3, gens)
        assert len(G.elements) == 48
        assert set(G.elements) == set(weyl_full(3).elements)

    def test_empty_generators_lack_conjugation(self):
        with pytest.raises(ValueError, match="conjugation not in group"):
            from_generators(2, [])

    def test_rho_alone_not_transitive(self):
        with pytest.raises(ValueError, match="not transitive"):
            from_generators(2, [SignedPerm.make(2, [1, 2])])

    def test_deterministic_order(self):
        gens = [SignedPerm.make(3, [1], [2, 3, 1]), SignedPerm.make(3, [2])]
        assert from_generators(3, gens).elements == from_generators(3, list(reversed(gens))).elements

    def test_closure_cap(self, monkeypatch):
        # the cap is the only bound on what a generators input can cost
        gens = list(weyl_full(4).gens)  # they close to all 384 elements of W_4
        monkeypatch.setattr(galois, "CLOSURE_CAP", 100)
        with pytest.raises(ValueError) as err:
            from_generators(4, gens)
        assert str(err.value) == "orbit exceeds cap of 100 points"

    def test_every_orbit_walk_is_capped(self, monkeypatch):
        # the same cap budgets walks that are not the group: the CM types,
        # all 16 of which form one W_4 orbit
        G = weyl_full(4)
        assert [len(o) for o in orbit_decomposition(G)] == [16]
        monkeypatch.setattr(galois, "CLOSURE_CAP", 15)
        with pytest.raises(ValueError, match=r"^orbit exceeds cap of 15 points$"):
            orbit_decomposition(G)


class TestCyclicTranslation:
    # the closure of the one generator [1] lists its powers in order, so
    # elements[t] is [t]: each check below reads the closure

    def test_mu19_group(self):
        G = from_cyclic_translation(18, MU19_PHI)
        assert len(set(G.elements)) == 18
        assert all(translates_by(G.elements[t], t, 18, MU19_PHI) for t in range(18))
        assert G.elements[9] == SignedPerm.make(9, range(1, 10))

    def test_homomorphism_exhaustive(self):
        E = from_cyclic_translation(18, MU19_PHI).elements
        for s in range(18):
            for t in range(18):
                assert compose(E[s], E[t]) == E[(s + t) % 18]

    def test_mu5_shape(self):
        G = from_cyclic_translation(4, [0, 1])
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
        G = from_cyclic_translation(M, phi)
        E = G.elements
        assert len(E) == M
        assert E[M // 2] == SignedPerm.make(g, range(1, g + 1))
        assert all(translates_by(E[t], t, M, phi) for t in range(M))

    def test_wrong_transversal_size(self):
        with pytest.raises(ValueError, match="wrong transversal size"):
            from_cyclic_translation(18, [0, 2])

    def test_repeated_residue_is_named(self):
        # the count is right, so the message names the repeat, not the size
        with pytest.raises(ValueError, match="^residue 0 repeats mod 4: not a transversal$"):
            from_cyclic_translation(4, [0, 4])
        with pytest.raises(ValueError, match="wrong transversal size: need 3 distinct residues, got 2"):
            from_cyclic_translation(6, [1, 1])

    def test_conjugate_pair_rejected(self):
        with pytest.raises(ValueError, match="not a transversal"):
            from_cyclic_translation(4, [0, 2])

    def test_odd_modulus(self):
        with pytest.raises(ValueError, match="even"):
            from_cyclic_translation(9, [0, 1, 2, 3])

    def test_labels_map(self):
        # residue t names the t-th power of the generator, the t-th element
        # of the closure
        G = from_cyclic_translation(4, [0, 1])
        power = SignedPerm.make(2)
        for t in range(4):
            assert G.elements[t] == power
            power = compose(G.gens[0], power)


class TestWeylFull:
    def test_elements_are_the_whole_group_in_a_deterministic_order(self):
        # the closure of the three generators is every signed permutation
        # (against an enumeration of permutations x flip masks), closed
        # under inverses; the order is fixed but not promised
        for g in range(1, 6):
            elements = weyl_full(g).elements
            assert len(elements) == len(set(elements)) == (1 << g) * factorial(g)
            assert set(elements) == set(weyl_elements(g))
            assert {inverse(x) for x in elements} == set(elements)
            assert weyl_full(g).elements == elements
            assert SignedPerm.make(g, range(1, g + 1)) in elements


class TestIsWeyl:
    """A group is the full Weyl group of genus g iff it has 2^g g! elements."""

    def test_full_g3(self):
        assert len(weyl_full(3).elements) == (1 << 3) * factorial(3)

    def test_mu19_not_weyl(self):
        G = from_cyclic_translation(18, MU19_PHI)
        assert len(G.elements) < (1 << 9) * factorial(9)

    def test_g1(self):
        G = from_generators(1, [SignedPerm.make(1, [1])])
        assert len(G.elements) == 2 == (1 << 1) * factorial(1)


class TestGenerators:
    """Each constructor records generators of the group it builds."""

    def test_orbit_is_closed_and_reached(self):
        # translation by 3 on Z/12 reaches the residues of 1 mod 3
        assert set(orbit([3], 1, lambda t, x: (x + t) % 12)) == {1, 4, 7, 10}
        assert orbit([], 5, lambda t, x: x) == [5]

    def test_weyl_generators_generate_the_group(self):
        for g in range(1, 5):
            G = weyl_full(g)
            assert len(G.gens) == 3
            assert set(from_generators(g, list(G.gens)).elements) == set(G.elements)

    def test_cyclic_generator_is_translation_by_one(self):
        G = from_cyclic_translation(18, MU19_PHI)
        assert G.gens == (G.elements[1],) and translates_by(G.gens[0], 1, 18, MU19_PHI)

    def test_closure_keeps_its_generators(self):
        gens = [SignedPerm.make(3, [1], [2, 3, 1]), SignedPerm.make(3, [2])]
        assert set(from_generators(3, gens).gens) == set(gens)

    def test_transitivity_is_checked_on_the_generators(self):
        # rho alone fixes 2; the check walks the orbit of 1 under the
        # generators, with no element list
        with pytest.raises(ValueError, match=r"not transitive \(reaches only \[1\]\)"):
            GaloisGroup(2, (SignedPerm.make(2, [1, 2]),))


class TestJson:
    def test_cyclic_spec(self):
        G = spec_from_json({"cyclic": {"M": 18, "phi": MU19_PHI}}).group
        assert len(G.elements) == 18

    def test_generator_spec(self):
        data = {
            "g": 3,
            "generators": [
                {"flips": [1], "perm": [2, 3, 1]},
                {"flips": [2], "perm": [1, 2, 3]},
                {"flips": [], "perm": [2, 1, 3]},
            ],
        }
        assert len(spec_from_json(data).group.elements) == 48

    def test_bad_spec(self):
        with pytest.raises(ValueError, match="generators.*cyclic|cyclic.*generators"):
            spec_from_json({})
