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
Constructors: explicit generators and the full group; cmtypes builds pairs.
"""
from .hyperoct import SignedPerm, _act_bits
from .record import Record

CLOSURE_CAP = 10**6


class GaloisGroup(Record):
    """A finite group of signed permutations, given by its generators `gens`.
    The constructors put rho in the group, and cmtypes.orbit_decomposition
    and reciprocity.pairing_matrix rely on it."""

    __slots__ = ("g", "gens")

    def __post_init__(self) -> None:
        """Validate the group, once per construction; benchmarks/tracer.py wraps this to count them."""
        if self.g < 1:
            raise ValueError(f"g={self.g} must be at least 1")
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


def weyl_full(g: int) -> GaloisGroup:
    """The full hyperoctahedral group, generated by the transposition (1 2),
    the g-cycle and the flip of 1 (whose conjugates by the cycle give rho)."""
    ident = tuple(range(1, g + 1))
    swap, cycle = ident[1::-1] + ident[2:], ident[1:] + ident[:1]
    return GaloisGroup(g, (SignedPerm(g, 0, swap), SignedPerm(g, 0, cycle), SignedPerm(g, 1, ident)))
