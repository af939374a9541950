"""Galois groups as subgroups of the hyperoctahedral group, held by generators.

A group is its generators: signed permutations whose closure contains the
central all-flips element rho (complex conjugation) and has a transitive
image in S_g.  orbit() finds any orbit from the generators (Holt, Eick and
O'Brien, Handbook of Computational Group Theory, 4.1), so no solver lists
the elements.  closure() walks them under CLOSURE_CAP, for from_generators
to check that outside generators reach rho and for the read-only
GaloisGroup.elements.
Constructors: explicit generators, the full group, and Z/M acting by
translation on a transversal of the conjugate pairs of residues (cyclic CM
fields: Hom(E, C) = Z/M, conjugation is translation by M/2).
"""
from __future__ import annotations

from math import factorial

from .hyperoct import SignedPerm, Subset, check_group_size, compose
from .record import Record, set_slot

CLOSURE_CAP = 10**6


class GaloisGroup(Record):
    """A finite group of signed permutations, given by its generators `gens`,
    with an optional map `labels` from an external label (e.g. a residue
    mod M) to its element.  The constructors put rho in the group."""

    __slots__ = ("g", "gens", "labels")

    def __init__(self, g: int, gens: tuple, labels: dict | None = None) -> None:
        set_slot(self, "g", g)
        set_slot(self, "gens", gens)
        set_slot(self, "labels", labels)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the group."""
        check_group_size(self.g)
        # transitivity of the image in S_g: the orbit of 1 is everything
        seen = orbit(self.gens, 1, lambda t, j: t.perm[j - 1])
        if len(seen) != self.g:
            raise ValueError(f"image in S_{self.g} is not transitive (reaches only {sorted(seen)})")

    # every element, in the deterministic order of closure(); read by the
    # tests and the benchmark tracer, never by a command
    elements = property(lambda self: closure(self.g, self.gens))

    def element_for_label(self, label) -> SignedPerm:
        if self.labels is None:
            raise ValueError("group has no label map")
        return self.labels[label]


def orbit(gens, seed, act) -> set:
    """The orbit of seed under the group generated by gens, act(t, x) being
    the action of a generator t on a point x, by breadth-first search (in a
    finite group the inverses are powers of the generators)."""
    seen, queue = {seed}, [seed]
    for x in queue:
        for t in gens:
            y = act(t, x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def closure(g: int, gens) -> tuple:
    """The group generated by gens, breadth first from the identity; more
    than CLOSURE_CAP elements is an error."""
    ident = SignedPerm.identity(g)
    seen = {ident}
    order = [ident]
    # the list grows while it is read: a queue, so this is discovery order
    for cur in order:
        for gen in gens:
            prod = compose(cur, gen)
            if prod not in seen:
                seen.add(prod)
                order.append(prod)
                if len(order) > CLOSURE_CAP:
                    raise ValueError(f"closure exceeds cap of {CLOSURE_CAP} elements")
    return tuple(order)


def from_generators(g: int, gens: list[SignedPerm]) -> GaloisGroup:
    """The group generated by outside generators, checked to contain rho."""
    check_group_size(g)
    for x in gens:
        if x.g != g:
            raise ValueError(f"generator has g={x.g}, expected {g}")
    gens = tuple(sorted(set(gens), key=lambda x: (x.flips.bits, x.perm)))
    if SignedPerm.rho(g) not in closure(g, gens):
        raise ValueError("conjugation not in group")
    return GaloisGroup(g, gens)


def from_cyclic_translation(M: int, phi) -> GaloisGroup:
    """Group of Z/M acting on itself by translation, via a CM transversal.

    `phi` lists M/2 residues, exactly one from each conjugate pair
    {a, a + M/2}; its j-th entry (in input order) is the embedding phi_j.
    Returns the group generated by [1], labeled by residue; rho is [M/2].
    """
    if M % 2:
        raise ValueError(f"M={M} must be even")
    g = M // 2
    check_group_size(g)
    phi = [a % M for a in phi]
    if len(phi) != g or len(set(phi)) != g:
        raise ValueError(f"wrong transversal size: need {g} distinct residues, got {len(phi)}")
    index_of = {a: j for j, a in enumerate(phi, start=1)}
    for a in phi:
        if (a + g) % M in index_of:
            raise ValueError(f"residues {a} and {(a + g) % M} are conjugate: not a transversal")
    labels = {}
    for t in range(M):
        perm = [0] * g
        flips = 0
        for j, a in enumerate(phi, start=1):
            r = (a + t) % M
            k = index_of.get(r)
            if k is None:
                k = index_of[(r + g) % M]
                flips |= 1 << (k - 1)
            perm[j - 1] = k
        labels[t] = SignedPerm(g, Subset(g, flips), tuple(perm))
    return GaloisGroup(g, (labels[1],), labels)


def weyl_full(g: int) -> GaloisGroup:
    """The full hyperoctahedral group, generated by the transposition (1 2),
    the g-cycle and the flip of 1 (whose conjugates by the cycle give rho)."""
    check_group_size(g)
    if (1 << g) * factorial(g) > CLOSURE_CAP:
        raise ValueError(f"full hyperoctahedral group for g={g} exceeds cap of {CLOSURE_CAP}")
    ident = tuple(range(1, g + 1))
    swap, cycle = ident[1::-1] + ident[2:], ident[1:] + ident[:1]
    none = Subset(g, 0)
    return GaloisGroup(g, (SignedPerm(g, none, swap), SignedPerm(g, none, cycle), SignedPerm(g, Subset(g, 1), ident)))
