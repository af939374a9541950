"""Galois groups as subgroups of the hyperoctahedral group, held by generators.

A group is its generators: signed permutations whose closure contains the
central all-flips element rho (complex conjugation) and has a transitive
image in S_g.  orbit() walks any orbit from the generators breadth first
(Holt, Eick and O'Brien, Handbook of Computational Group Theory, 4.1) and
refuses more than CLOSURE_CAP points, so no solver lists the elements.  The
group itself is one such orbit: closure() is the orbit of the identity under
left multiplication, over (flips, perm) keys that are SignedPerm's own
fields, for from_generators to check that outside generators reach rho and
for the read-only GaloisGroup.elements.
Constructors: explicit generators, the full group, and Z/M acting by
translation on a transversal of the conjugate pairs of residues (cyclic CM
fields: Hom(E, C) = Z/M, conjugation is translation by M/2), held as its one
generator [1]: residue a names [1]^a, so the group keeps no labels, and the
residues of the transversal live in the CM pair (cmtypes.CMPairSpec).
"""
from .hyperoct import SignedPerm, _act_bits, check_powerset_size
from .record import Record

CLOSURE_CAP = 10**6


class GaloisGroup(Record):
    """A finite group of signed permutations, given by its generators `gens`.
    The constructors put rho in the group."""

    __slots__ = ("g", "gens")

    def __post_init__(self) -> None:
        """Validate the group, once per construction; benchmarks/tracer.py wraps this to count them."""
        # transitivity of the image in S_g: the orbit of 1 is everything
        seen = orbit(self.gens, 1, lambda t, j: t.perm[j - 1])
        if len(seen) != self.g:
            raise ValueError(f"image in S_{self.g} is not transitive (reaches only {sorted(seen)})")

    # every element, validated, in the discovery order of closure(); read by
    # the tests and the benchmark tracer, never by a command
    elements = property(lambda self: tuple(SignedPerm(self.g, *key) for key in closure(self.g, self.gens)))


def orbit(gens, seed, act) -> list:
    """The orbit of seed under the group generated by gens, act(t, x) being
    the action of a generator t on a point x, in breadth-first discovery
    order (in a finite group the inverses are powers of the generators);
    more than CLOSURE_CAP points is an error."""
    seen, queue = {seed}, [seed]
    for x in queue:
        for t in gens:
            y = act(t, x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
                if len(queue) > CLOSURE_CAP:
                    raise ValueError(f"orbit exceeds cap of {CLOSURE_CAP} points")
    return queue


def closure(g: int, gens) -> list:
    """The group generated by gens as (flips, perm) keys, the fields of a
    SignedPerm: the orbit of the identity, a generator t acting by left
    multiplication t*x."""
    return orbit(gens, (0, tuple(range(1, g + 1))),
                 lambda t, x: (_act_bits(t, x[0]), tuple([t.perm[j - 1] for j in x[1]])))


def from_generators(g: int, gens: list[SignedPerm]) -> GaloisGroup:
    """The group generated by outside generators, checked to contain rho."""
    for x in gens:
        if x.g != g:
            raise ValueError(f"generator has g={x.g}, expected {g}")
    gens = tuple(sorted(set(gens), key=lambda x: (x.flips, x.perm)))
    if ((1 << g) - 1, tuple(range(1, g + 1))) not in closure(g, gens):
        raise ValueError("conjugation not in group")
    return GaloisGroup(g, gens)


def from_cyclic_translation(M: int, phi) -> GaloisGroup:
    """Group of Z/M acting on itself by translation, via a CM transversal.

    `phi` lists M/2 residues, exactly one from each conjugate pair
    {a, a + M/2}; its j-th entry (in input order) is the embedding phi_j.
    Returns the group generated by [1]; rho is [M/2].
    """
    if M % 2:
        raise ValueError(f"M={M} must be even")
    g = M // 2
    phi = [a % M for a in phi]
    if len(phi) != g:
        raise ValueError(f"wrong transversal size: need {g} distinct residues, got {len(phi)}")
    index_of = {}
    for j, a in enumerate(phi, start=1):
        if index_of.setdefault(a, j) != j:
            raise ValueError(f"residue {a} repeats mod {M}: not a transversal")
    for a in phi:
        if (a + g) % M in index_of:
            raise ValueError(f"residues {a} and {(a + g) % M} are conjugate: not a transversal")
    # [1] sends phi_j to the residue a_j + 1: phi_k, or phibar_k (flip k)
    perm, flips = [], 0
    for a in phi:
        k = index_of.get((a + 1) % M)
        if k is None:
            k = index_of[(a + 1 + g) % M]
            flips |= 1 << (k - 1)
        perm.append(k)
    return GaloisGroup(g, (SignedPerm(g, flips, tuple(perm)),))


def weyl_full(g: int) -> GaloisGroup:
    """The full hyperoctahedral group, generated by the transposition (1 2),
    the g-cycle and the flip of 1 (whose conjugates by the cycle give rho)."""
    check_powerset_size(g)  # every CM type is in one orbit: a pair command walks all 2^g masks
    ident = tuple(range(1, g + 1))
    swap, cycle = ident[1::-1] + ident[2:], ident[1:] + ident[:1]
    return GaloisGroup(g, (SignedPerm(g, 0, swap), SignedPerm(g, 0, cycle), SignedPerm(g, 1, ident)))
