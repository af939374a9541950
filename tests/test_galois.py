"""Group construction: generators, their capped closure, the full group,
Weyl test."""
from math import factorial

import pytest

from cmlab import galois
from cmlab.cli import spec_from_json
from cmlab.cmtypes import CMPairSpec, orbit_decomposition
from cmlab.galois import GaloisGroup, from_generators, orbit, weyl_full
from cmlab.hyperoct import SignedPerm
from oracles import inverse, translates_by, weyl_elements

MU19_PHI = [0, 2, 3, 6, 10, 13, 14, 16, 17]


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

    @pytest.mark.parametrize("g, build", [
        (0, lambda: from_generators(0, [SignedPerm(0, 0, ())])),
        (0, lambda: GaloisGroup(0, ())),
        (-1, lambda: GaloisGroup(-1, ())),
    ])
    def test_an_empty_ground_set_is_named(self, g, build):
        # refused before the transitivity walk reads the image of 1
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == f"g={g} must be at least 1"

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
        G = CMPairSpec.from_cyclic(18, MU19_PHI).group
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
        G = CMPairSpec.from_cyclic(18, MU19_PHI).group
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
