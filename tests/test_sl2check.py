"""Symplectic model, root vectors, nilpotents and the sl2-triple checks.

A matrix is a dict {(row, col): entry} of its nonzero entries."""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab import sl2check
from cmlab.hyperoct import mask_of
from cmlab.sl2check import bracket, build_v, conj, sl2_reports
from oracles import (check_sl2, dense_bracket, dense_matrix, dense_nilpotent, dense_product, dense_sl2_report,
                     dense_transpose, in_lie_algebra, omega, pairwise_commute, pairwise_sl2_reports, root_vector,
                     torus_element)


def tails(g):
    """The masks of the subsets of {2,...,g}, in canonical order."""
    return range(0, 1 << g, 2)


def scaled(m, c):
    return {ij: c * x for ij, x in m.items() if c * x}


def plus(*ms):
    total = {}
    for m in ms:
        for ij, x in m.items():
            total[ij] = total.get(ij, 0) + x
    return {ij: x for ij, x in total.items() if x}


def lowering_sum(U, g):
    """The conjugate nilpotent built directly from lowering root vectors:
    the sum of E_{I^c, {1} | I} over I inside U, halved at U = {2,...,g}."""
    full, tail = (1 << g) - 1, mask_of(g, range(2, g + 1))
    total = plus(*(root_vector(I ^ full, 1 | I, g) for I in tails(g) if I & U == I))
    return scaled(total, Fraction(1, 2) if U == tail else 1)


VALUES = [Fraction(v) for v in (-2, -1, Fraction(-1, 2), Fraction(1, 2), 1, 2)]


@st.composite
def sparse_pairs(draw):
    """g <= 3 and two random matrices at g with entries in VALUES."""
    g = draw(st.integers(1, 3))
    n = 1 << g
    cells = st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), st.sampled_from(VALUES),
        max_size=2 * n,
    )
    return g, draw(cells), draw(cells)


def hol_root_vectors(g):
    return [
        (I, J, root_vector(I, J, g))
        for I, J in itertools.combinations_with_replacement(tails(g), 2)
    ]


class TestSymplecticMatrix:
    """The matrices of the symplectic model: dicts of their nonzero entries."""

    def test_shape_validation(self):
        # every position comes from subset_rank, so every entry of a root
        # vector, a nilpotent or its conjugate lies inside the 2^g x 2^g matrix
        for g in (2, 3, 4):
            n = 1 << g
            ms = [e for _, _, e in hol_root_vectors(g)] + [build_v(U, g) for U in tails(g)]
            for m in ms + [conj(m) for m in ms]:
                assert all(0 <= i < n and 0 <= j < n for i, j in m)
        with pytest.raises(ValueError, match="4x4"):
            dense_matrix({(0, 4): 1}, 2)

    def test_canonical_entries(self):
        # only nonzero entries are kept, so equal matrices are equal dicts
        a, b = {(0, 1): 1, (1, 0): 1}, {(1, 0): Fraction(1)}
        assert bracket(a, a) == {}
        assert bracket(a, b) == {(0, 0): 1, (1, 1): -1}
        assert conj({}) == {}

    @settings(max_examples=150, deadline=None)
    @given(sparse_pairs())
    def test_agrees_with_the_dense_algebra(self, drawn):
        g, a, b = drawn
        ab = bracket(a, b)
        assert 0 not in ab.values()
        assert dense_matrix(ab, g) == dense_bracket(dense_matrix(a, g), dense_matrix(b, g))
        assert dense_matrix(conj(a), g) == tuple(
            tuple(-x for x in row) for row in dense_transpose(dense_matrix(a, g))
        )

    @settings(max_examples=150, deadline=None)
    @given(sparse_pairs())
    def test_is_exactly_antisymmetric(self, drawn):
        # the sl2 reports check [vbar, [vbar, v]] as [h, vbar], which is the
        # same matrix only because bracket(b, a) is exactly -bracket(a, b)
        _, a, b = drawn
        assert bracket(b, a) == {ij: -x for ij, x in bracket(a, b).items()}

    def test_omega_squares_to_minus_identity(self):
        for g in (2, 3):
            form = dense_matrix(omega(g), g)
            assert dense_product(form, form) == dense_matrix({(k, k): -1 for k in range(1 << g)}, g)

    def test_conj_is_an_involution(self):
        m = build_v(mask_of(3, [2]), 3)
        assert conj(conj(m)) == m


class TestRootVectors:
    def test_rank_one_raising_matrix(self):
        e = root_vector(mask_of(2, []), mask_of(2, []), 2)
        assert e == {(0, 3): 1}

    def test_normalization(self):
        for I, J, e in hol_root_vectors(3):
            assert bracket(e, bracket(e, conj(e))) == scaled(e, 2)

    def test_conjugation_swaps_complements(self):
        for I, J, e in hol_root_vectors(3):
            assert conj(e) == root_vector(I ^ 0b111, J ^ 0b111, 3)

    def test_lie_algebra_membership(self):
        for I, J, e in hol_root_vectors(3):
            assert in_lie_algebra(e, 3)
            assert in_lie_algebra(conj(e), 3)

    def test_raising_part_is_abelian(self):
        for g in (2, 3, 4):
            vectors = [e for _, _, e in hol_root_vectors(g)]
            for a, b in itertools.combinations_with_replacement(vectors, 2):
                assert not bracket(a, b)

    def test_double_bracket_dichotomy(self):
        # [E_{I,J_I}, [E_{I,J_I}, conj(E_{K,J_K})]] is 2E_{I,J_I} exactly
        # when K is I or its tail complement, and zero otherwise
        g, tail = 3, mask_of(3, [2, 3])
        for I in tails(g):
            e = root_vector(I, tail ^ I, g)
            for K in tails(g):
                f = conj(root_vector(K, tail ^ K, g))
                got = bracket(e, bracket(e, f))
                if K in (I, tail ^ I):
                    assert got == scaled(e, 2)
                else:
                    assert not got

    def test_torus_weights(self):
        g = 3
        coeffs = {
            mask_of(3, []): 1,
            mask_of(3, [2]): 3,
            mask_of(3, [3]): 5,
            mask_of(3, [2, 3]): 7,
        }
        t = torus_element(coeffs, g)
        assert in_lie_algebra(t, g)

        def value(A):
            return coeffs[A] if not A & 1 else -coeffs[A ^ 0b111]

        for I, J, e in hol_root_vectors(g):
            assert bracket(t, e) == scaled(e, value(I) + value(J))
            eb = conj(e)
            assert bracket(t, eb) == scaled(eb, value(I ^ 0b111) + value(J ^ 0b111))

    def test_mixed_pair_rejected(self):
        with pytest.raises(ValueError, match="non-root index pair"):
            root_vector(mask_of(2, []), mask_of(2, [1]), 2)

    def test_mask_past_g_rejected(self):
        # with subset_rank's refusal, this keeps every entry inside the
        # 2^g x 2^g matrix
        for I, J in ((0b1000, 0), (0, 0b1000), (0b1001, 0b1001), (-2, 0)):
            with pytest.raises(ValueError, match=r"index sets must live in \{1,...,3\}"):
                root_vector(I, J, 3)

    def test_torus_key_validation(self):
        with pytest.raises(ValueError, match="subsets of"):
            torus_element({mask_of(3, [1]): 1}, 3)


class TestNilpotents:
    def test_g3_expansion(self):
        tail = mask_of(3, [2, 3])
        expect = plus(root_vector(mask_of(3, []), tail, 3), root_vector(mask_of(3, [2]), mask_of(3, [3]), 3))
        assert build_v(mask_of(3, [2]), 3) == expect

    def test_half_weight_collapse(self):
        # at U = {2,...,g} every root vector appears twice, so the halved
        # sum equals the sum over one representative per complementary pair
        tail = mask_of(3, [2, 3])
        expect = plus(root_vector(mask_of(3, []), tail, 3), root_vector(mask_of(3, [2]), mask_of(3, [3]), 3))
        assert build_v(tail, 3) == expect

    def test_closed_form_is_the_root_vector_sum(self):
        # each root vector once: at U = {2,...,g}, I and {2..g} minus I give the same one
        for g in range(2, 11):
            tail = (1 << g) - 2
            for U in tails(g):
                pairs = {(min(I, tail ^ I), max(I, tail ^ I)) for I in tails(g) if I & U == I}
                assert build_v(U, g) == plus(*(root_vector(I, J, g) for I, J in pairs))

    def test_closed_form_is_the_dense_nilpotent(self):
        for g in range(2, 7):
            for U in tails(g):
                assert dense_matrix(build_v(U, g), g) == dense_nilpotent(U, g)

    def test_conjugate_pairing(self):
        for g in (3, 4):
            for U in tails(g):
                assert conj(build_v(U, g)) == lowering_sum(U, g)

    def test_lie_algebra_membership(self):
        for U in tails(3):
            assert in_lie_algebra(build_v(U, 3), 3)
            assert in_lie_algebra(conj(build_v(U, 3)), 3)

    def test_validation(self):
        with pytest.raises(ValueError, match="inside"):
            build_v(mask_of(3, [1, 2]), 3)
        with pytest.raises(ValueError, match="inside"):
            build_v(mask_of(3, [1]), 3)
        for U in (mask_of(4, [4]), mask_of(4, [2, 4]), -2):
            with pytest.raises(ValueError, match="outside 1..3"):
                build_v(U, 3)


class TestCheckSl2:
    def test_surface_coweight(self):
        for U in (mask_of(2, []), mask_of(2, [2])):
            h = bracket(build_v(U, 2), conj(build_v(U, 2)))
            assert h == {(0, 0): -1, (1, 1): -1, (2, 2): 1, (3, 3): 1}

    def test_all_reports_pass(self):
        for U in tails(3):
            report = check_sl2(U, 3)
            assert report == {
                "bracket_vv_zero": True,
                "bracket_vvbar_diagonal": True,
                "triple_identities": True,
            }

    @pytest.mark.parametrize("g", range(2, 9))
    def test_all_reports_pass_at_large_g(self, g):
        # the block test decides the commuting gate as the pairwise brackets do
        reports = sl2_reports(g)
        assert reports == pairwise_sl2_reports(g)
        assert all(all(report.values()) for _, report in reports)

    def test_stray_entry_fails_the_commuting_gate(self, monkeypatch):
        # one nilpotent also holds the transpose of one of its entries
        def stray(g):
            nilpotents = built(g)
            (i, j), x = next(iter(nilpotents[1].items()))
            nilpotents[1][j, i] = x
            return nilpotents

        built = sl2check._nilpotents
        monkeypatch.setattr(sl2check, "_nilpotents", stray)
        assert not any(report["bracket_vv_zero"] for _, report in sl2_reports(4))
        assert not pairwise_commute(stray(4))

    def test_an_entry_in_the_x_block_fails_the_commuting_gate(self, monkeypatch):
        # (0, 1) has an x row, which the gate allows, and an x column, which it does not
        def with_x_entry(U, g):
            return {**built(U, g), (0, 1): 1}

        built = sl2check.build_v
        monkeypatch.setattr(sl2check, "build_v", with_x_entry)
        assert not any(report["bracket_vv_zero"] for _, report in sl2_reports(3))
        assert not pairwise_commute(sl2check._nilpotents(3))

    def test_three_brackets_per_report(self, monkeypatch):
        calls = []

        def counted(a, b):
            calls.append(1)
            return bracket(a, b)

        monkeypatch.setattr(sl2check, "bracket", counted)
        # v with vbar, then the two triple identities, for each of the 16 U
        sl2_reports(5)
        assert len(calls) == 3 * 16

    def test_scale_negative_control(self):
        report = check_sl2(mask_of(3, [2]), 3, scale=2)
        assert report["bracket_vv_zero"]
        assert report["bracket_vvbar_diagonal"]
        assert not report["triple_identities"]

    def test_scale_negative_control_g5(self):
        report = check_sl2(mask_of(5, [2, 4]), 5, scale=2)
        assert report["bracket_vv_zero"]
        assert report["bracket_vvbar_diagonal"]
        assert not report["triple_identities"]

    def test_minus_one_gauge_also_passes(self):
        assert all(check_sl2(mask_of(3, [3]), 3, scale=-1).values())

    def test_cap(self):
        with pytest.raises(ValueError, match="g <= 12"):
            check_sl2(mask_of(13, [2]), 13)
        with pytest.raises(ValueError, match="g <= 12"):
            sl2_reports(13)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_dense_recomputation_agrees(self, g):
        reports = sl2_reports(g)
        assert [U for U, _ in reports] == list(tails(g))
        for U, report in reports:
            assert dense_matrix(build_v(U, g), g) == dense_nilpotent(U, g)
            assert report == dense_sl2_report(U, g)

    def test_dense_negative_control_agrees(self):
        for g in (2, 3, 4):
            for U in tails(g):
                report = dense_sl2_report(U, g, scale=2)
                assert report == check_sl2(U, g, scale=2)
                assert report["bracket_vv_zero"] and report["bracket_vvbar_diagonal"]
                assert not report["triple_identities"]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="outside 1..3"):
            check_sl2(mask_of(4, [4]), 3)
        with pytest.raises(ValueError, match="inside"):
            check_sl2(mask_of(3, [1, 2]), 3)
