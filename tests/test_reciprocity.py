"""Pairing kernels, rec*, the closed-form kernel, quadratic generation,
chain certificates."""
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab.cli import main
from cmlab.cmtypes import CMPairSpec, labeled_translates, labels_of, orbit_decomposition, translate_masks
from cmlab.galois import from_generators
from cmlab.hyperoct import SignedPerm, mask_of, subset_rank, subset_unrank
from cmlab.intlattice import IntMatrix, kernel_basis
from cmlab.reciprocity import (
    MonomialRelation,
    _is_degree_one,
    _is_degree_two,
    antiweyl_relations,
    chain_generator,
    chain_strip,
    degree_one_generator,
    kernel_N,
    lift_relation,
    pairing_matrix,
    reduce_to_low_degree,
    relation_to_json,
    relations_from_kernel,
    render_relation,
    verify_certificate,
)
from oracles import (
    admissible_quadruples, b2_quadruples, dense, dense_chain_strip, hnf, lattice_equal, member, quad_lattice,
    quadruple_to_cycle, quadruple_vector, rec_star_antiweyl, relation_of_cycle, render_vec, span,
)
from strategies import cm_pair_specs, cyclic_pairs, generator_pairs, generator_spec, induced_cyclic_pairs

MU19_PHI = [0, 2, 3, 6, 10, 13, 14, 16, 17]
G1 = (1, -1, -1, 1, 0, 0, -1, 0, 1)  # [0]-[2]-[3]+[6]-[14]+[17]
G2 = (1, 0, -1, 1, -1, 1, 0, -1, 0)  # [0]-[3]+[6]-[10]+[13]-[16]


@pytest.fixture(scope="module")
def mu19():
    return CMPairSpec.from_cyclic(18, MU19_PHI)


def flip_sets(spec):
    """The masks sigma.empty = sigma.flips over every group element."""
    return {el.flips for el in spec.group.elements}


def row_mask(row) -> int:
    """The mask sigma.empty of the translate whose pairing row is row."""
    return sum(1 << j for j, x in enumerate(row) if x < 0)


class TestPairingMatrix:
    """One row per reflex embedding, the translates sigma Phi containing
    phi_1, not per group element; the conjugate translates' rows are these
    negated, so they are left out."""

    def test_identity_row_all_ones(self, mu19):
        m = pairing_matrix(mu19)
        assert (1,) * 9 in m.entries

    def test_conjugation_negates_rows(self, mu19):
        rows = set(pairing_matrix(mu19).entries)
        negated = {tuple(-x for x in row) for row in rows}
        assert not rows & negated
        assert rows | negated == set(pairing_matrix_reference(mu19).entries)

    def test_conjugation_negates_rows_weyl(self):
        rows = set(pairing_matrix(CMPairSpec.weyl(3)).entries)
        negated = {tuple(-x for x in row) for row in rows}
        assert len(rows) == 4 and not rows & negated
        assert rows | negated == set(itertools.product((1, -1), repeat=3))

    @pytest.mark.parametrize("make", [
        lambda: CMPairSpec.from_cyclic(18, MU19_PHI),
        lambda: CMPairSpec.weyl(4),
        lambda: generator_spec(3, [SignedPerm.make(3, [1], [2, 3, 1]), SignedPerm.make(3, [2])]),
    ])
    def test_one_row_per_mask_in_the_orbit_of_the_empty_set(self, make):
        # up to sign: each row and its negation are the two translates of
        # a conjugate pair
        spec = make()
        rows = pairing_matrix(spec).entries
        masks = [row_mask(row) for row in rows] + [row_mask([-x for x in row]) for row in rows]
        assert sorted(masks) == sorted(flip_sets(spec))

    @given(cm_pair_specs(5) | induced_cyclic_pairs(5))
    @settings(max_examples=40, deadline=None)
    def test_the_rows_are_the_translates_avoiding_1_in_mask_order(self, spec):
        rows = pairing_matrix(spec).entries
        assert [row_mask(row) for row in rows] == sorted(m for m in flip_sets(spec) if not m & 1)


def pairing_matrix_reference(spec):
    """The pairing matrix as it was built: one row per group element."""
    return IntMatrix.from_rows(
        [[-1 if el.flips >> (j - 1) & 1 else 1 for j in range(1, spec.g + 1)] for el in spec.group.elements],
        spec.g,
    )


class TestKernelN:
    def test_mu19_matches_published_generators(self, mu19):
        K = kernel_N(mu19)
        assert K.rank == 2
        assert lattice_equal(K, span(9, [G1, G2]))
        assert member(G1, K) is not None
        assert member(G2, K) is not None

    def test_kernel_vectors_sum_zero(self, mu19):
        K = kernel_N(mu19)
        for row in K.basis.entries:
            assert sum(row) == 0

    @given(cm_pair_specs())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_kernel_of_the_whole_group_matrix(self, spec):
        assert kernel_N(spec) == kernel_basis(pairing_matrix_reference(spec))

    def test_weyl_kernel_trivial(self):
        assert kernel_N(CMPairSpec.weyl(3)).rank == 0

    def test_g1_kernel_trivial(self):
        G = from_generators(1, [SignedPerm.make(1, [1])])
        spec = CMPairSpec(G, None)
        assert kernel_N(spec).rank == 0


def reported_mt_dimension(pair, tmp_path, capsys):
    """mt_dimension as `cmlab kernel --format json` reports it for a pair."""
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    assert main(["kernel", "--input", str(path), "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["mt_dimension"]


class TestMtDimension:
    def test_weyl_is_g_plus_1(self, tmp_path, capsys):
        for g in (2, 3):
            assert reported_mt_dimension({"weyl": g}, tmp_path, capsys) == g + 1

    def test_mu19(self, tmp_path, capsys):
        pair = {"cyclic": {"M": 18, "phi": MU19_PHI}}
        assert reported_mt_dimension(pair, tmp_path, capsys) == 8

    def test_lower_bound(self, tmp_path, capsys):
        pair = {"cyclic": {"M": 18, "phi": MU19_PHI}}
        assert reported_mt_dimension(pair, tmp_path, capsys) >= 2


class TestRecStar:
    def test_empty_column_is_holomorphic_block(self):
        m = rec_star_antiweyl(3)
        col = [m.entries[r][0] for r in range(6)]
        assert col == [1, 1, 1, 0, 0, 0]

    def test_full_column_is_antiholomorphic_block(self):
        m = rec_star_antiweyl(3)
        col = [m.entries[r][7] for r in range(6)]
        assert col == [0, 0, 0, 1, 1, 1]

    def test_rank_g_plus_1(self):
        for g in range(2, 9):
            assert hnf(rec_star_antiweyl(g)).rows == g + 1

    def test_small_g_rejected(self):
        with pytest.raises(ValueError):
            rec_star_antiweyl(1)


class TestQuadLattice:
    def test_enumeration_counts(self):
        assert sum(1 for _ in admissible_quadruples(2)) == 1
        assert sum(1 for _ in admissible_quadruples(3)) == 12
        assert sum(1 for _ in admissible_quadruples(4)) == 100

    def test_g2_single_generator(self):
        L = quad_lattice(2)
        assert L.rank == 1
        assert L.basis.entries == ((1, -1, -1, 1),)

    def test_equals_rec_star_kernel(self):
        for g in (2, 3, 4):
            K = kernel_basis(rec_star_antiweyl(g))
            assert K.rank == (1 << g) - (g + 1)
            assert lattice_equal(quad_lattice(g), K)

    def test_direct_sum_with_m(self):
        for g in (3, 4):
            # M is free on eps_empty and the singleton vectors
            m_rows = []
            for S in [0] + [mask_of(g, [i]) for i in range(1, g + 1)]:
                row = [0] * (1 << g)
                row[subset_rank(g, S)] = 1
                m_rows.append(row)
            N = quad_lattice(g)
            stacked = hnf(IntMatrix.from_rows(m_rows + list(N.basis.entries), 1 << g))
            assert len(m_rows) + N.rank == 1 << g
            assert stacked.rows == 1 << g  # zero intersection

    def test_cap(self):
        with pytest.raises(ValueError, match="quad_lattice supports"):
            quad_lattice(13)


class TestRelations:
    @given(cyclic_pairs(15) | induced_cyclic_pairs(15) | generator_pairs(4))
    @settings(max_examples=80, deadline=None)
    def test_pair_relations_are_the_signed_kernel_rows(self, spec):
        # nothing in a relation says that its indices name a pair's periods
        # (index j is phi_{j+1}); relations_from_kernel alone keeps them < g
        lattice = kernel_N(spec)
        rels = relations_from_kernel(lattice)
        assert len(rels) == lattice.rank
        for rel, row in zip(rels, lattice.basis.entries):
            assert rel.g == spec.g and rel.tau == 0
            assert all(0 <= i < spec.g for i, _ in rel.terms)
            assert rel.terms[0][1] > 0
            assert dense(rel, spec.g) in (row, tuple(-x for x in row))

    def test_mu19_cubics(self, mu19):
        K = kernel_N(mu19)
        rels = relations_from_kernel(K)
        symbols = [f"Th[{a}]" for a in MU19_PHI]
        rendered = [render_relation(r, symbols) for r in rels]
        assert set(rendered) == {
            "Th[0]*Th[6]*Th[17] ~ Th[2]*Th[3]*Th[14]",
            "Th[0]*Th[6]*Th[13] ~ Th[3]*Th[10]*Th[16]",
        }

    def test_zero_lattice_empty(self):
        assert relations_from_kernel(span(5, [])) == []

    def test_antiweyl_g2(self):
        rels = antiweyl_relations(2)
        assert [render_relation(r) for r in rels] == ["Th{}*Th{1,2} ~ Th{2}*Th{1}"]
        assert [dense(r) for r in rels] == [tuple(row) for row in quad_lattice(2).basis.entries]
        assert sorted(dense(rels[0])) == [-1, -1, 1, 1] and rels[0].tau == 0

    def test_json_shape(self):
        rel = MonomialRelation(3, enumerate((2, -1, -1)))
        assert relation_to_json(rel, ["a", "b", "c"]) == {
            "lhs": {"a": 2},
            "rhs": {"b": 1, "c": 1},
        }

    def test_normalization(self):
        rel = MonomialRelation(2, enumerate((-1, 1))).normalized()
        assert rel.terms == ((0, 1), (1, -1))

    def test_a_relation_without_terms_normalizes_its_tau(self):
        # 1 ~ tau becomes tau ~ 1: tau's exponent leads when no other exponent does
        rel = MonomialRelation(2, [], -1).normalized()
        assert (rel.terms, rel.tau) == ((), 1)

    def test_tau_renders(self):
        rel = MonomialRelation(2, [(3, 1), (0, 1)], tau=-1)
        assert render_relation(rel) == "Th{}*Th{1,2} ~ tau"
        assert relation_to_json(rel) == {"lhs": {"Th{}": 1, "Th{1,2}": 1}, "rhs": {"tau": 1}}

    def test_sparse_form_is_canonical(self):
        a = MonomialRelation(3, [(5, 2), (0, 0), (1, -1)])
        b = MonomialRelation.from_vec(3, (0, 0, 0, 0, -1, 0, 2, 0))  # Th{1} at rank 4, Th{1,3} at rank 6
        assert a == b and hash(a) == hash(b) and a.terms == ((1, -1), (5, 2))
        with pytest.raises(ValueError, match="outside 0..7"):
            MonomialRelation(3, [(8, 1)])
        # a repeated index sums its exponents, and a zero sum vanishes
        c = MonomialRelation(3, [(1, -1), (5, 3), (2, 1), (5, -1), (2, -1)])
        assert c == a and c.terms == ((1, -1), (5, 2))
        assert MonomialRelation(3, [(2, 1), (2, -1)]).terms == ()


class TestThetaGeneratorReduction:
    """Theta_I * Theta_empty^(|I|-1) ~ the product of the Theta_{i}, i in I."""

    def test_pair(self):
        # for I = {2,3}: Theta_I * Theta_empty ~ Theta_{2} * Theta_{3} is chain(I)
        vec = [0] * 8
        vec[subset_rank(3, mask_of(3, [2, 3]))] = 1
        vec[0] = 1
        vec[subset_rank(3, mask_of(3, [2]))] = -1
        vec[subset_rank(3, mask_of(3, [3]))] = -1
        assert chain_generator(mask_of(3, [2, 3]), 3) == MonomialRelation.from_vec(3, vec)

    def test_triple_in_quad_lattice(self):
        # Theta_{1,2,3} * Theta_empty^2 ~ Theta_{1} * Theta_{2} * Theta_{3}
        vec = [0] * 8
        vec[subset_rank(3, mask_of(3, [1, 2, 3]))] = 1
        vec[subset_rank(3, 0)] = 2
        for i in (1, 2, 3):
            vec[subset_rank(3, mask_of(3, [i]))] = -1
        assert member(vec, quad_lattice(3)) is not None

    def test_singleton_rejected(self):
        with pytest.raises(ValueError, match="chains need"):
            chain_generator(mask_of(3, [2]), 3)


class TestChainCertificates:
    def test_chain_strip_annihilates_quadruples(self):
        g = 3
        for I, J, K, L in admissible_quadruples(g):
            rem, _ = chain_strip(MonomialRelation.from_vec(g, quadruple_vector(I, J, K, L, g)).terms, g)
            # residual must live in M (empty + singletons)
            assert all(S.bit_count() < 2 for S in rem)

    @pytest.mark.parametrize("g", range(2, 6))
    def test_a_chain_strips_to_itself(self, g):
        for S in range(1 << g):
            if S.bit_count() >= 2:
                assert chain_strip(chain_generator(S, g).terms, g) == ({}, [(S, 1)])


class TestIsDegreeOne:
    @pytest.mark.parametrize("g", range(1, 5))
    def test_every_degree_one_generator(self, g):
        assert all(_is_degree_one(degree_one_generator(I, g)) for I in range(1 << g))

    @pytest.mark.parametrize("terms, tau", [
        ([(0, 1), (7, 1)], 0),  # Th{} * Th{1,2,3}, without tau
        ([(0, 1), (7, 1)], -2),
        ([(0, 2), (7, 1)], -1),  # an exponent 2
        ([(0, 1), (6, 1)], -1),  # Th{} and Th{2,3}: not complements
        ([(1, 1), (7, 1)], -1),  # Th{1} and Th{1,2,3}
        ([(0, 1)], -1),  # a single term
        ([(0, 1), (7, -1)], -1),
        ([], -1),  # the empty relation 1 ~ tau
    ])
    def test_refuses_other_shapes(self, terms, tau):
        assert not _is_degree_one(MonomialRelation(3, terms, tau))

    def test_refuses_a_chain(self):
        assert not _is_degree_one(chain_generator(mask_of(3, [1, 2]), 3))


class TestIsDegreeTwo:
    @pytest.mark.parametrize("g", range(3, 7))
    def test_the_four_masks_are_the_cycle_route(self, g):
        # the relation of a quadruple's wedge cycle is Th_I*Th_J ~ Th_K*Th_L,
        # as example-mu19 writes it; a degenerate quadruple cancels to nothing
        for q in b2_quadruples(g, 1):
            rel = relation_of_cycle(quadruple_to_cycle(*q[:4], g), g)
            assert rel == MonomialRelation(g, zip(q[:4], (1, 1, -1, -1)))
            assert _is_degree_two(rel) == bool(rel.terms)

    def test_accepts_exactly_the_relations_among_the_quadratics(self):
        # every Th_I*Th_J ~ Th_K*Th_L at g = 3 with no term cancelling: a
        # relation, rec* of it zero, exactly when it is a degree-two generator
        g = 3
        rec_star = rec_star_antiweyl(g).entries
        pairs = list(itertools.combinations_with_replacement(range(1 << g), 2))
        for (I, J), (K, L) in itertools.product(pairs, repeat=2):
            if {I, J} & {K, L}:
                continue
            rel = MonomialRelation(g, zip((I, J, K, L), (1, 1, -1, -1)))
            is_relation = not any(sum(x * y for x, y in zip(row, dense(rel))) for row in rec_star)
            assert _is_degree_two(rel) == is_relation, (I, J, K, L)
            assert not _is_degree_two(MonomialRelation(g, rel.terms, 1))

    @pytest.mark.parametrize("terms", [
        [(2, 1), (4, 1), (6, -1)],  # Th{2}*Th{3} ~ Th{2,3}: degree 2 on the left, 1 on the right
        [(6, 1), (2, -1), (4, -1)],  # Th{2,3} ~ Th{2}*Th{3}
    ])
    def test_refuses_unequal_degrees(self, terms):
        # refused before the masks reach admissible, which takes four; so a
        # certificate with such a part is refused, not a crash
        rel = MonomialRelation(3, terms)
        assert not _is_degree_two(rel)
        assert not verify_certificate(rel, [(rel, 1)])


class TestClosedFormKernel:
    """antiweyl_relations against the HNF kernel of the dense rec*."""

    @pytest.mark.parametrize("g", range(2, 11))
    def test_equals_the_hnf_kernel_row_for_row(self, g):
        rows = [dense(r) for r in antiweyl_relations(g)]
        assert rows == list(kernel_basis(rec_star_antiweyl(g)).basis.entries)

    def test_each_row_is_the_strip_of_its_top_set(self):
        g = 6
        for rel in antiweyl_relations(g):
            top = max(S for S, _ in rel.terms if S.bit_count() >= 2)
            residual, parts = chain_strip([(top, 1)], g)
            assert {S: -c for S, c in residual.items()} == {S: c for S, c in rel.terms if S != top}
            assert parts[0] == (top, 1)

    def test_size_limits(self):
        with pytest.raises(ValueError, match="need g >= 2"):
            antiweyl_relations(1)
        with pytest.raises(ValueError, match="exceeds the cap 16"):
            antiweyl_relations(17)


@st.composite
def sparse_vectors(draw):
    """(g, {rank: coefficient}) with a few nonzero coefficients at g <= 10."""
    g = draw(st.integers(2, 10), label="g")
    ranks = st.integers(0, (1 << g) - 1)
    return g, draw(st.dictionaries(ranks, st.integers(-3, 3), max_size=12), label="vec")


class TestSparseStrip:
    @given(sparse_vectors())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_dense_strip(self, case):
        g, vec = case
        residual, parts = chain_strip(((subset_unrank(g, r), c) for r, c in vec.items()), g)
        dense_vec = [vec.get(r, 0) for r in range(1 << g)]
        want_residual, want_parts = dense_chain_strip(dense_vec, g)
        assert parts == want_parts
        assert residual == {subset_unrank(g, r): c for r, c in enumerate(want_residual) if c}

    def test_large_g_touches_only_the_support(self):
        # 2^24 subsets, of which the strip visits a handful
        g = 24
        S = mask_of(g, [3, 9, 24])
        rel = chain_generator(S, g)
        residual, parts = chain_strip(rel.terms, g)
        assert residual == {} and parts == [(S, 1)]


class TestRankOrder:
    """A relation keys Theta_I by its mask; the canonical order comes back
    where a dense vector is read and where the terms are rendered."""

    @given(sparse_vectors(), st.integers(-2, 2))
    @settings(max_examples=100, deadline=None)
    def test_a_vector_reads_back_and_renders_by_position(self, case, tau):
        g, entries = case
        vec = tuple(entries.get(r, 0) for r in range(1 << g))
        rel = MonomialRelation.from_vec(g, vec, tau)
        assert dense(rel) == vec and rel.tau == tau
        assert render_relation(rel) == render_vec(g, vec, tau)


def test_reduce_verifies_a_seeded_combination_at_g16(tmp_path, capsys):
    g = 16
    rng = random.Random(16)
    vec, tau = [0] * (1 << g), 0
    tops = rng.sample([bits for bits in range(1 << g) if bits.bit_count() >= 2], 40)
    gens = [chain_generator(bits, g) for bits in tops]
    gens += [degree_one_generator(rng.randrange(1 << g), g) for _ in range(5)]
    for gen in gens:
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        for I, e in gen.terms:
            vec[subset_rank(g, I)] += c * e
        tau += c * gen.tau
    path = tmp_path / "rel.json"
    path.write_text(json.dumps({"g": g, "vec": vec, "tau": tau}))
    assert main(["reduce", "--input", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "verified: yes"
    assert main(["reduce", "--input", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True


def transversals(M: int, masks):
    """The transversals of Z/M containing 0: mask bit a-1 picks a + M/2
    over a, for a = 1..M/2 - 1."""
    half = M // 2
    return [[0, *(a + half * (mask >> (a - 1) & 1) for a in range(1, half))] for mask in masks]


def rec_star_of(rel) -> list:
    """rec* of an anti-Weyl relation without tau, over its support only:
    Theta_I goes to phi_j for j not in I and to phibar_j for j in I."""
    g = rel.g
    out = [0] * (2 * g)
    for I, e in rel.terms:
        for j in range(g):
            out[j + g * (I >> j & 1)] += e
    return out


class TestTheoremBeyondMu19:
    """Every period relation of the reflex of a cyclic pair lifts, through
    the pair's orbit table, to a relation in ker rec* that is generated in
    degree <= 2, as for mu19."""

    @staticmethod
    def certify(M: int, bases) -> tuple:
        """(reflex kernels with a relation, relations lifted, certificates
        with parts) over the base pairs.  rec* and the reduction would not
        change under a relabeling of points, such as mask to rank; the
        support of a lift must also lie on the translates of the base type."""
        kernels = lifted = with_parts = 0
        for base in bases:
            spec = CMPairSpec.from_cyclic(M, base)
            index_of = labeled_translates(spec, 0)
            translates = set(translate_masks(spec.group))
            phi = labels_of(spec, (1 << spec.g) - 1)
            masks = [index_of[a] for a in phi]
            rels = relations_from_kernel(kernel_N(CMPairSpec.from_cyclic(M, phi)))
            kernels += bool(rels)
            for rel in rels:
                lift = lift_relation(rel, masks)
                assert lift.tau == 0 and not any(rec_star_of(lift)), (base, rel)
                assert {I for I, _ in lift.terms} <= translates, (base, rel)
                parts = reduce_to_low_degree(lift)
                assert verify_certificate(lift, parts), (base, rel)
                lifted += 1
                with_parts += bool(parts)
        return kernels, lifted, with_parts

    def test_every_transversal_at_m18(self):
        assert self.certify(18, transversals(18, range(1 << 8))) == (31, 80, 54)

    def test_seeded_transversals_at_m30(self):
        # only 16 of the 300 seeded types have a relation in their reflex
        # kernel; each of their 34 lifts needs a chain part
        assert self.certify(30, transversals(30, random.Random(30).sample(range(1 << 14), 300))) == (16, 34, 34)


class TestTheoremOnATimesB:
    """The theorem checked on A x B directly, with no certificate: for a
    union S of Galois orbits of masks, K is ker rec* on the periods Theta_m
    (m in S) and tau, and Q is spanned by the relations of degree <= 2
    inside S.  Q lies in K, and every period relation of A x B is generated
    in degree <= 2 iff Q = K."""

    @staticmethod
    def kernel_and_quadratic(g: int, S) -> tuple:
        """(K, Q) on the coordinates Theta_m, m in sorted S, then tau."""
        S = sorted(S)
        col = {m: i for i, m in enumerate(S)}
        n, full = len(S) + 1, (1 << g) - 1
        # the column of Theta_m holds [j not in m] in row j and [j in m] in
        # row g + j; the column of tau is all ones
        rec_star = [[int(not m >> j & 1) for m in S] + [1] for j in range(g)]
        rec_star += [[m >> j & 1 for m in S] + [1] for j in range(g)]

        def relation(plus, minus):
            v = [0] * n
            for i in plus:
                v[i] += 1
            for i in minus:
                v[i] -= 1
            return v

        # Theta_a Theta_b has the rec* of its meet and join, so the pairs
        # with one (a & b, a | b) are equal in degree two
        by_meet_join = {}
        for i, a in enumerate(S):
            for b in S[i:]:
                by_meet_join.setdefault((a & b, a | b), []).append((col[a], col[b]))
        rows = [relation((col[m], col[m ^ full]), (n - 1,)) for m in S]
        rows += [relation(pair, first) for first, *rest in by_meet_join.values() for pair in rest]
        return kernel_basis(IntMatrix.from_rows(rec_star, n)), span(n, rows)

    @staticmethod
    def primitive_types_at_m18() -> list:
        """(phi, spec, A) for the transversals containing 0 whose type is
        primitive (the orbit of the empty set, A's periods, has 18 masks)
        and whose period kernel is nonzero."""
        specs = ((phi, CMPairSpec.from_cyclic(18, phi)) for phi in transversals(18, range(1 << 8)))
        return [(phi, spec, A) for phi, spec in specs
                if len(A := translate_masks(spec.group)) == 18 and kernel_N(spec).rank]

    def test_a_alone_fails_and_a_cm_elliptic_curve_suffices_at_m18(self):
        # B is the one orbit of size 2
        cases = self.primitive_types_at_m18()
        for phi, spec, A in cases:
            K, Q = self.kernel_and_quadratic(9, A)
            assert (K.rank, Q.rank) == (11, 9), phi
            assert all(member(row, K) is not None for row in Q.basis.entries), phi
            [B] = [o for o in orbit_decomposition(spec.group) if len(o) == 2]
            assert lattice_equal(*self.kernel_and_quadratic(9, A + B)), phi
        assert len(cases) == 27

    def test_the_certificates_b_at_m18(self):
        # B is the orbits besides A's that the chain parts touch when each
        # reflex relation is lifted and reduced, as in
        # TestTheoremBeyondMu19.certify; Q = K is checked only where B is
        # smallest, as each check takes about a second
        sizes, smallest = {}, []
        for phi, spec, A in self.primitive_types_at_m18():
            index_of, reflex = labeled_translates(spec, 0), labels_of(spec, (1 << spec.g) - 1)
            masks = [index_of[a] for a in reflex]
            touched = {I for rel in relations_from_kernel(kernel_N(CMPairSpec.from_cyclic(18, reflex)))
                       for gen, _ in reduce_to_low_degree(lift_relation(rel, masks)) for I, _ in gen.terms}
            B = [o for o in orbit_decomposition(spec.group)[1:] if touched & set(o)]
            sizes[len(B)] = sizes.get(len(B), 0) + 1
            if len(B) == 7:
                smallest.append(A + [m for o in B for m in o])
        assert sizes == {7: 3, 8: 5, 9: 3, 10: 2, 11: 2, 12: 5, 13: 4, 16: 3}
        assert sorted(map(len, smallest)) == [128, 128, 144]
        assert all(lattice_equal(*self.kernel_and_quadratic(9, S)) for S in smallest)
