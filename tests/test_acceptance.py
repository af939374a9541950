"""End-to-end acceptance checks: one test, and one pass/fail line, per criterion.

Run `pytest tests/test_acceptance.py -v` for the per-criterion report.
"""
import itertools

from cmlab.cmtypes import CMPairSpec, labels_of
from cmlab.galois import weyl_full
from cmlab.hodge import pohlmann_basis
from cmlab.hyperoct import admissible, mask_of, members, subset_rank
from cmlab.intlattice import IntMatrix, kernel_basis
from cmlab.reciprocity import (
    MonomialRelation,
    kernel_N,
    reduce_to_low_degree,
    relations_from_kernel,
    render_relation,
    verify_certificate,
)
from oracles import (
    act_subset, b2_quadruples, balance_dichotomy, bidegree, bp_multisets, check_sl2, compose, hnf, inverse,
    lattice_equal, quad_lattice, quadruple_to_cycle, rec_star_antiweyl, relation_of_cycle, span, subset_cycle,
)

MU19_PHI = [0, 2, 3, 6, 10, 13, 14, 16, 17]
MU19_PHI_STAR = [0, 1, 2, 4, 5, 8, 12, 15, 16]
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


def mu19_kernel_spec():
    return CMPairSpec.from_cyclic(18, MU19_PHI)


def mu19_orbit_spec():
    return CMPairSpec.from_cyclic(18, MU19_PHI_STAR)


def orbit_subset(a):
    return mask_of(9, sorted(MU19_ORBIT_TABLE[a]))


def mu19_cubics():
    out = []
    for pos, neg in [([0, 6, 17], [2, 3, 14]), ([0, 6, 13], [3, 10, 16])]:
        vec = [0] * (1 << 9)
        for a in pos:
            vec[subset_rank(9, orbit_subset(a))] += 1
        for a in neg:
            vec[subset_rank(9, orbit_subset(a))] -= 1
        out.append(MonomialRelation.from_vec(9, vec))
    return out


def test_criterion_01_mu19_kernel_and_relations():
    spec = mu19_kernel_spec()
    lattice = kernel_N(spec)
    g1 = (1, -1, -1, 1, 0, 0, -1, 0, 1)
    g2 = (1, 0, -1, 1, -1, 1, 0, -1, 0)
    assert lattice_equal(lattice, span(9, [g1, g2]))
    symbols = [f"Th[{a}]" for a in MU19_PHI]
    rendered = {
        render_relation(r, symbols)
        for r in relations_from_kernel(lattice)
    }
    assert rendered == {
        "Th[0]*Th[6]*Th[17] ~ Th[2]*Th[3]*Th[14]",
        "Th[0]*Th[6]*Th[13] ~ Th[3]*Th[10]*Th[16]",
    }


def test_criterion_02_mu19_orbit_table():
    spec = mu19_orbit_spec()
    for a, expect in MU19_ORBIT_TABLE.items():
        got = act_subset(spec.group.elements[a], 0)  # the empty set
        assert set(members(got)) == expect, a


def test_criterion_03_mu19_compagnons_and_reflex_recovery():
    spec = mu19_orbit_spec()
    assert labels_of(spec, mask_of(9, [5, 6])) == [
        5, 7, 8, 9, 10, 11, 12, 13, 15,
    ]
    assert labels_of(spec, mask_of(9, [4, 6, 7])) == [
        4, 6, 7, 8, 9, 10, 11, 12, 14,
    ]
    # the reflex labels are the labels of the conjugate type, the full mask
    recovered = labels_of(spec, (1 << 9) - 1)
    assert recovered == MU19_PHI
    assert recovered == sorted(a for a, I in MU19_ORBIT_TABLE.items() if 1 not in I)


def test_criterion_04_mu19_factorization():
    for cubic in mu19_cubics():
        parts = reduce_to_low_degree(cubic)
        assert verify_certificate(cubic, parts)
        assert parts
    L = mask_of(9, [5, 6])
    for a, b, mediator in [(0, 17, 3), (2, 14, 6)]:
        I, J, K = orbit_subset(a), orbit_subset(b), orbit_subset(mediator)
        assert (I | J) == (K | L)
        assert (I & J) == (K & L)
        assert admissible(I, J, K, L)


def test_criterion_05_quadruples_span_the_reciprocity_kernel():
    for g, rank in [(3, 4), (4, 11)]:
        quads = quad_lattice(g)
        kernel = kernel_basis(rec_star_antiweyl(g))
        assert lattice_equal(quads, kernel)
        assert quads.rank == rank == (1 << g) - (g + 1)


def test_criterion_06_triple_oracle_agreement():
    for g, p, n in itertools.product((2, 3), (1, 2), (1, 2)):
        basis = set(pohlmann_basis(g, p, n))
        assert basis == set(bp_multisets(g, p, n)), (g, p, n)
        if p == 2:
            reindexed = {quadruple_to_cycle(*q[:4], g, q[4]) for q in b2_quadruples(g, n)}
            assert basis == reindexed, (g, n)
        else:
            direct = set()
            for I in range(1 << g):
                J = I ^ ((1 << g) - 1)
                for l1 in range(1, n + 1):
                    for l2 in range(l1, n + 1):
                        if l1 == l2 and subset_rank(g, J) < subset_rank(g, I):
                            continue
                        direct.add(subset_cycle(g, ((I, l1), (J, l2))))
            assert basis == direct, (g, n)


def test_criterion_07_every_g4_cubic_class_reduces():
    basis = pohlmann_basis(4, 3, 1)
    assert len(basis) == 152
    failures = []
    for cycle in basis:
        assert bidegree(cycle, 4) == (3, 3)
        rel = relation_of_cycle(cycle, 4)
        if not verify_certificate(rel, reduce_to_low_degree(rel)):
            failures.append(cycle)
    assert failures == []


def test_criterion_08_balance_dichotomy():
    assert balance_dichotomy(3) == (36, 220)
    assert balance_dichotomy(4) == (216, 3880)


def test_criterion_09_sl2_triples():
    for g in (3, 4):
        for bits in range(1 << g):
            if bits & 1:
                continue
            report = check_sl2(bits, g)
            assert all(report.values()), (g, bits)
    control = check_sl2(mask_of(3, [2]), 3, scale=2)
    assert not control["triple_identities"]


def test_criterion_10_property_suites():
    # group axioms, exhaustively at g=2
    group = weyl_full(2).elements
    members = set(group)
    identity = next(t for t in group if compose(t, t) == t)
    for a in group:
        assert compose(a, identity) == a == compose(identity, a)
        assert compose(a, inverse(a)) == identity
        for b in group:
            assert compose(a, b) in members
            for c in group:
                assert compose(compose(a, b), c) == compose(a, compose(b, c))
    # action axioms and complementation
    subsets = range(4)
    rho = next(t for t in group if all(act_subset(t, I) == I ^ 0b11 for I in subsets))
    for a in group:
        for b in group:
            for I in subsets:
                assert act_subset(compose(a, b), I) == act_subset(a, act_subset(b, I))
        assert compose(a, rho) == compose(rho, a)
    # normal-form idempotence and unimodular invariance
    rows = [(2, 4, 4), (-6, 6, 12), (10, -4, -16)]
    m = IntMatrix.from_rows(rows, 3)
    assert hnf(hnf(m)) == hnf(m)
    u = [(1, 1, 0), (0, 1, 1), (0, 0, 1)]
    mixed = [
        tuple(sum(u[i][k] * rows[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    ]
    assert hnf(IntMatrix.from_rows(mixed, 3)) == hnf(m)
    # certificate re-verification
    cubic = mu19_cubics()[0]
    parts = reduce_to_low_degree(cubic)
    assert verify_certificate(cubic, parts) and verify_certificate(cubic, parts)
