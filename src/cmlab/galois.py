"""Galois groups as explicit subgroups of the hyperoctahedral group.

A group is a list of signed permutations, closed under composition, with
the identity, the central all-flips element rho (complex conjugation) and a
transitive image in S_g, plus generators from which orbit() finds any orbit
(Holt, Eick and O'Brien, Handbook of Computational Group Theory, 4.1).
Constructors: closure of explicit generators, the full group, and Z/M acting
by translation on a transversal of the conjugate pairs of residues (cyclic
CM fields: Hom(E, C) = Z/M, conjugation is translation by M/2).
"""
from __future__ import annotations

from math import factorial

from .hyperoct import SignedPerm, Subset, check_group_size, compose
from .record import Record, set_slot

CLOSURE_CAP = 10**6


class GaloisGroup(Record):
    """Explicit finite group of signed permutations with optional labels.

    `elements` order is the construction order (BFS discovery or residue
    order) and must stay deterministic.  `labels` maps an external label
    (e.g. a residue mod M) to an element index.  `gens` generate the group
    (default: the elements) for orbit().
    """

    __slots__ = ("g", "elements", "labels", "gens")

    def __init__(self, g: int, elements: tuple, labels: dict | None = None, gens: tuple | None = None) -> None:
        set_slot(self, "g", g)
        set_slot(self, "elements", elements)
        set_slot(self, "labels", labels)
        set_slot(self, "gens", elements if gens is None else gens)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the group."""
        check_group_size(self.g)
        if SignedPerm.identity(self.g) not in self.elements:
            raise ValueError("identity not in group")
        if SignedPerm.rho(self.g) not in self.elements:
            raise ValueError("conjugation not in group")
        # transitivity of the image in S_g: the orbit of 1 is everything
        seen = orbit(self.gens, 1, lambda t, j: t.perm[j - 1])
        if len(seen) != self.g:
            raise ValueError(f"image in S_{self.g} is not transitive (reaches only {sorted(seen)})")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def element_for_label(self, label) -> SignedPerm:
        if self.labels is None:
            raise ValueError("group has no label map")
        return self.elements[self.labels[label]]


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


def from_generators(g: int, gens: list[SignedPerm]) -> GaloisGroup:
    """Close the generators under composition (deterministic BFS order)."""
    check_group_size(g)
    for x in gens:
        if x.g != g:
            raise ValueError(f"generator has g={x.g}, expected {g}")
    gens = sorted(set(gens), key=lambda x: (x.flips.bits, x.perm))
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
    return GaloisGroup(g, tuple(order), gens=tuple(gens))


def from_cyclic_translation(M: int, phi) -> GaloisGroup:
    """Group of Z/M acting on itself by translation, via a CM transversal.

    `phi` lists M/2 residues, exactly one from each conjugate pair
    {a, a + M/2}; its j-th entry (in input order) is the embedding phi_j.
    Returns the group, its elements in residue order [0], [1], ..., [M-1],
    generated by [1] and labeled by residue.
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
    elements = []
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
        elements.append(SignedPerm(g, Subset(g, flips), tuple(perm)))
    return GaloisGroup(g, tuple(elements), labels={t: t for t in range(M)}, gens=(elements[1],))


def weyl_full(g: int) -> GaloisGroup:
    """The full hyperoctahedral group, in (perm, flips) lexicographic order,
    generated by the transposition (1 2), the g-cycle and the flip of 1."""
    from itertools import permutations

    check_group_size(g)
    if (1 << g) * factorial(g) > CLOSURE_CAP:
        raise ValueError(f"full hyperoctahedral group for g={g} exceeds cap of {CLOSURE_CAP}")
    # validate each perm once; its 2^g elements share one inverse, and all
    # elements share one Subset per flips mask
    flips = [Subset(g, bits) for bits in range(1 << g)]
    elements = []
    for perm in permutations(range(1, g + 1)):
        inv = SignedPerm(g, flips[0], perm)._inv_perm
        elements += (SignedPerm._trusted(g, f, perm, inv) for f in flips)
    ident = tuple(range(1, g + 1))
    swap, cycle = ident[1::-1] + ident[2:], ident[1:] + ident[:1]
    gens = (SignedPerm(g, flips[0], swap), SignedPerm(g, flips[0], cycle), SignedPerm(g, flips[1], ident))
    return GaloisGroup(g, tuple(elements), gens=gens)
