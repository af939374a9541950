"""Shared hypothesis strategies."""
from hypothesis import strategies as st

from cmlab.cmtypes import CMPairSpec
from cmlab.galois import from_generators
from cmlab.hyperoct import SignedPerm


def subsets(g: int):
    """The masks of the subsets of {1,...,g}."""
    return st.integers(0, (1 << g) - 1)


def signed_perms(g: int):
    return st.tuples(
        st.integers(0, (1 << g) - 1),
        st.permutations(list(range(1, g + 1))),
    ).map(lambda t: SignedPerm(g, t[0], tuple(t[1])))


def dims(lo: int = 2, hi: int = 12):
    return st.integers(lo, hi)


def generator_spec(g, gens):
    """The CM pair of the closure of gens, its embeddings named phi{j}."""
    return CMPairSpec(from_generators(g, gens), None)


@st.composite
def cyclic_pairs(draw, max_g, min_g=1):
    """A CM pair of a cyclic group of order M = 2g, min_g <= g <= max_g,
    on a random transversal in a random embedding order."""
    g = draw(st.integers(min_g, max_g))
    residues = draw(st.permutations(range(g)))
    return CMPairSpec.from_cyclic(2 * g, [a + g * draw(st.booleans()) for a in residues])


@st.composite
def induced_cyclic_pairs(draw, max_g):
    """A cyclic pair of order M = 2hk <= 2 max_g, k >= 3 odd, whose CM type
    is induced from one of Z/2h: it has at most 2h translates, so its
    period kernel has rank at least g - 2h > 0."""
    h = draw(st.integers(1, max_g // 3))
    k = draw(st.sampled_from(range(3, max_g // h + 1, 2)))
    base = {a + h * draw(st.booleans()) for a in range(h)}
    M = 2 * h * k
    return CMPairSpec.from_cyclic(M, draw(st.permutations([b for b in range(M) if b % (2 * h) in base])))


@st.composite
def generator_pairs(draw, max_g):
    """The pair of the closure of up to two random signed permutations with
    conjugation and a g-cycle added, at g = 2..max_g."""
    g = draw(st.integers(2, max_g))
    gens = draw(st.lists(signed_perms(g), max_size=2))
    return generator_spec(g, gens + [SignedPerm.make(g, range(1, g + 1)), SignedPerm(g, 0, (*range(2, g + 1), 1))])


def cm_pair_specs(max_g=4):
    """A cyclic pair of order 2g, the full Weyl group, or a generator pair,
    at g = 2..max_g."""
    return cyclic_pairs(max_g, 2) | dims(2, max_g).map(CMPairSpec.weyl) | generator_pairs(max_g)
