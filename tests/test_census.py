"""A census of the small cyclic CM pairs, pinned by one digest and checked
by closed forms.

The census is every transversal containing 0 at M = 4, 6, ..., 22, the
residue of each conjugate pair {a, a + g} listed for a = 0..g-1: 2^(g-1)
pairs at each M, 2,046 in all.  One sha256 over a canonical JSON of the
census pins, per pair, M and the transversal, the rows of kernel_N, the
reflex degree and, up to ORBIT_MAX_M, the orbit sizes of
orbit_decomposition.  Three closed forms check every pair without an HNF
or an orbit walk:

- the rank of the pairing matrix, g - rank(kernel_N), is the number of odd
  characters chi of Z/M with sum_{a in Phi} chi(a) != 0 (Kubota; Ribet).
  chi is odd iff its order d has v_2(d) = v_2(M), and the sum vanishes
  for all phi(d) characters of order d together, iff the cyclotomic
  polynomial Phi_d divides sum_{a in Phi} x^(a mod d);
- the number of orbits of Z/M on the 2^g CM types is Burnside's count.
  [1]^a, with d = gcd(a, M), fixes a mask iff no cycle of conjugate pairs
  comes back flipped, that is iff v_2(d) = v_2(M), and it then fixes
  2^(d/2) masks, so the count is
  (1/M) sum_{d | M, v_2(d) = v_2(M)} phi(M/d) 2^(d/2);
- the number N(k) of orbits of size k, by Moebius inversion.  For k | M
  the F(k) masks fixed by [1]^k are those whose orbit size divides k, so
  F(k) = sum_{j | k} j N(j), and k N(k) = sum_{j | k} mu(k/j) F(j).

The closed-form rank is checked past the census too: on random pairs up to
M = 48, the command line's bound, and in the library on two seeded pairs at
M = 50 and 64, whose full ranks 25 and 32 need more than 24 pairing rows.

Relabeling checks pairs past the census: for a unit u mod M and a shift t
the pair u Phi + t, its transversal in the same order, has the same
pairing rows (its translate by u a is the image of the translate of Phi by
a), so the same kernel, reflex degree and Hodge classes; and conjugating
the generators of a group by a permutation permutes the columns of its
kernel.

After an intended change of the census rewrite the digest with
PYTHONPATH=src python tests/test_census.py --write-digest
"""
import functools
import hashlib
import json
import pathlib
import random
import sys
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmlab.cmtypes import CMPairSpec, orbit_decomposition, translate_masks
from cmlab.hodge import pohlmann_basis
from cmlab.hyperoct import SignedPerm
from cmlab.reciprocity import kernel_N
from oracles import compose, inverse, lattice_equal, span
from strategies import cyclic_pairs, generator_pairs, generator_spec, induced_cyclic_pairs

DIGEST = pathlib.Path(__file__).parent / "data" / "census_sha256.txt"
CENSUS_M = range(4, 24, 2)
# orbit_decomposition walks all 2^g masks of every pair: about 0.7 s over the
# 512 pairs at M = 20, and about 3.7 s over the 1,024 at M = 22 (2 vCPUs)
ORBIT_MAX_M = 20


def transversals(M: int):
    """Every transversal of Z/M containing 0: residue a or a + g of the
    pair {a, a + g}, for a = 0..g-1 in order."""
    g = M // 2
    for flips in range(1 << (g - 1)):
        yield [0, *(a + g * (flips >> (a - 1) & 1) for a in range(1, g))]


def census() -> list[dict]:
    entries = []
    for M in CENSUS_M:
        for phi in transversals(M):
            spec = CMPairSpec.from_cyclic(M, phi)
            entry = {"M": M, "phi": phi, "kernel": [list(row) for row in kernel_N(spec).basis.entries],
                     "reflex_degree": len(translate_masks(spec.group))}
            if M <= ORBIT_MAX_M:
                entry["orbit_sizes"] = [len(o) for o in orbit_decomposition(spec.group)]
            entries.append(entry)
    return entries


def digest(entries) -> str:
    text = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def odd_orders(M: int) -> list[int]:
    """The orders d of the odd characters of Z/M: v_2(d) = v_2(M)."""
    return [d for d in divisors(M) if (M // d) % 2]


def poly_mod(p: list[int], q: list[int]) -> list[int]:
    """The remainder of p by the monic q, coefficients from degree 0 up."""
    p = list(p)
    for top in range(len(p) - 1, len(q) - 2, -1):
        c = p[top]
        if c:
            for k, x in enumerate(q):
                p[top - len(q) + 1 + k] -= c * x
    return p[:len(q) - 1]


@functools.lru_cache(maxsize=None)
def cyclotomic(d: int) -> tuple:
    """Phi_d, coefficients from degree 0 up: x^d - 1 divided by Phi_e for
    every proper divisor e of d."""
    p = [-1, *([0] * (d - 1)), 1]
    for e in divisors(d)[:-1]:
        q = cyclotomic(e)
        quotient = [0] * (len(p) - len(q) + 1)
        for top in range(len(quotient) - 1, -1, -1):
            c = quotient[top] = p[top + len(q) - 1]
            for k, x in enumerate(q):
                p[top + k] -= c * x
        p = quotient
    return tuple(p)


def closed_form_rank(M: int, phi) -> int:
    """sum phi(d) over the odd orders d with Phi_d not dividing
    sum_{a in phi} x^(a mod d)."""
    rank = 0
    for d in odd_orders(M):
        power_sum = [0] * d
        for a in phi:
            power_sum[a % d] += 1
        if any(poly_mod(power_sum, cyclotomic(d))):
            rank += euler_phi(d)
    return rank


def mobius(n: int) -> int:
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


def orbit_size_counts(M: int) -> dict[int, int]:
    """{k: N(k)} over the orbit sizes k with N(k) > 0, by Moebius inversion
    of F(j) = 2^(j/2) if v_2(j) = v_2(M), else 0."""
    fixed = {j: 1 << j // 2 if (M // j) % 2 else 0 for j in divisors(M)}
    counts = {}
    for k in divisors(M):
        total = sum(mobius(k // j) * fixed[j] for j in divisors(k))
        if total % k:
            raise ValueError(f"the Moebius sum {total} for size {k} is not a multiple of {k}")
        if total:
            counts[k] = total // k
    return counts


def burnside_orbits(M: int) -> int:
    total = sum(euler_phi(M // d) << (d // 2) for d in odd_orders(M))
    if total % M:
        raise ValueError(f"Burnside's sum {total} is not a multiple of M = {M}")
    return total // M


@pytest.fixture(scope="module")
def pairs():
    return census()


def test_census_covers_every_transversal_containing_0(pairs):
    assert len(pairs) == 2046
    assert len({(e["M"], tuple(sorted(e["phi"]))) for e in pairs}) == 2046


def test_census_digest_is_pinned(pairs):
    assert digest(pairs) == DIGEST.read_text(encoding="ascii").strip()


def test_rank_is_the_count_of_odd_characters_with_nonzero_sum(pairs):
    wrong = [(e["M"], e["phi"]) for e in pairs
             if e["M"] // 2 - len(e["kernel"]) != closed_form_rank(e["M"], e["phi"])]
    assert not wrong


def test_orbit_sizes_are_the_moebius_counts(pairs):
    wrong = [(e["M"], e["phi"]) for e in pairs if "orbit_sizes" in e
             and {k: e["orbit_sizes"].count(k) for k in e["orbit_sizes"]} != orbit_size_counts(e["M"])]
    assert not wrong


def test_orbit_count_is_burnsides(pairs):
    wrong = [(e["M"], e["phi"]) for e in pairs
             if "orbit_sizes" in e and len(e["orbit_sizes"]) != burnside_orbits(e["M"])]
    assert not wrong
    assert all(sum(e["orbit_sizes"]) == 1 << e["M"] // 2 for e in pairs if "orbit_sizes" in e)


@pytest.mark.parametrize("d, coefficients", [
    (1, (-1, 1)), (2, (1, 1)), (4, (1, 0, 1)), (6, (1, -1, 1)), (12, (1, 0, -1, 0, 1)),
])
def test_cyclotomic_polynomials(d, coefficients):
    assert cyclotomic(d) == coefficients


def test_closed_forms_on_small_cases():
    # M = 4: the odd orders are 4 (phi = 2); Phi_4 = x^2 + 1 divides
    # neither 1 + x nor 1 + x^3, so both pairs have rank 2 and no kernel
    assert [closed_form_rank(4, phi) for phi in transversals(4)] == [2, 2]
    # Burnside: at M = 4 the 4 CM types are the 4 translates of {0, 1};
    # at M = 6 the 8 are the six translates of {0, 1, 2} and the two of
    # {0, 2, 4}
    assert (burnside_orbits(4), burnside_orbits(6)) == (1, 2)
    assert (orbit_size_counts(4), orbit_size_counts(6)) == ({4: 1}, {2: 1, 6: 1})
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


@settings(max_examples=60, deadline=None)
@given(cyclic_pairs(24) | induced_cyclic_pairs(24))
def test_closed_form_rank_past_the_census(spec):
    assert spec.g - kernel_N(spec).rank == closed_form_rank(2 * spec.g, spec.residues)


@pytest.mark.parametrize("M", [50, 64])
def test_closed_form_rank_past_the_command_line_bound(M):
    # the seeded transversal has no period relation: its pairing matrix has
    # full rank g = M/2 > 24, so more than 24 of its M rows count
    rng = random.Random(M)
    phi = [a + M // 2 * rng.randrange(2) for a in range(M // 2)]
    spec = CMPairSpec.from_cyclic(M, phi)
    assert spec.g - kernel_N(spec).rank == closed_form_rank(M, phi) == M // 2


@st.composite
def relabelings(draw):
    """A cyclic pair with M <= 48 and its relabeling u Phi + t."""
    spec = draw(cyclic_pairs(24) | induced_cyclic_pairs(24))
    M = 2 * spec.g
    u = draw(st.sampled_from([u for u in range(1, M) if gcd(u, M) == 1]))
    t = draw(st.integers(0, M - 1))
    return spec, CMPairSpec.from_cyclic(M, [u * a + t for a in spec.residues])


@settings(max_examples=80, deadline=None)
@given(relabelings())
def test_relabeling_keeps_the_kernel_reflex_degree_and_hodge_classes(case):
    spec, image = case
    assert kernel_N(image) == kernel_N(spec)
    assert len(translate_masks(image.group)) == len(translate_masks(spec.group))
    if spec.g <= 10:
        assert pohlmann_basis(image, 2, 1) == pohlmann_basis(spec, 2, 1)


@settings(max_examples=40, deadline=None)
@given(generator_pairs(5) | induced_cyclic_pairs(12), st.data())
def test_conjugating_the_generators_permutes_the_kernel_columns(spec, data):
    # pi fixes the empty set, so the translates of the conjugated group are
    # the pi-images of the translates, and column pi(j) of its pairing
    # matrix is column j of the pair's
    g = spec.g
    pi = SignedPerm(g, 0, tuple(data.draw(st.permutations(range(1, g + 1)))))
    image = generator_spec(g, [compose(compose(pi, t), inverse(pi)) for t in spec.group.gens])
    moved = []
    for row in kernel_N(spec).basis.entries:
        new = [0] * g
        for j, x in enumerate(row):
            new[pi.perm[j] - 1] = x
        moved.append(new)
    assert lattice_equal(kernel_N(image), span(g, moved))


if __name__ == "__main__" and sys.argv[1:] == ["--write-digest"]:
    DIGEST.write_text(digest(census()) + "\n", encoding="ascii")
