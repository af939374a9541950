"""Galois groups as explicit subgroups of the hyperoctahedral group.

A group is materialized as a list of signed permutations, closed under
composition, containing the identity and the central all-flips element rho
(complex conjugation), and whose image in S_g is transitive.  Two
constructors are provided: breadth-first closure of explicit generators,
and the translation action of Z/M on a transversal of the conjugate pairs
of residues (covering cyclic CM fields such as cyclotomic ones, where
Hom(E, C) = Z/M and conjugation is translation by M/2).
"""
from __future__ import annotations

from math import factorial

from .hyperoct import SignedPerm, Subset, check_group_size, compose
from .record import Record, set_slot

CLOSURE_CAP = 10**6


class GaloisGroup(Record):
    """Explicit finite group of signed permutations with optional labels.

    `elements` order is the construction order (BFS discovery or residue
    order) and is the row order of every matrix built from the group, so
    it must stay deterministic.  `labels` maps an external label (e.g. a
    residue mod M) to an element index.  `rho_index` is the index of
    rho, found by the constructor.
    """

    __slots__ = ("g", "elements", "labels", "rho_index")

    def __init__(self, g: int, elements: tuple[SignedPerm, ...], labels: dict | None = None) -> None:
        set_slot(self, "g", g)
        set_slot(self, "elements", elements)
        set_slot(self, "labels", labels)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the group and fill rho_index."""
        check_group_size(self.g)
        rho = SignedPerm.rho(self.g)
        ident = SignedPerm.identity(self.g)
        if ident not in self.elements:
            raise ValueError("identity not in group")
        try:
            set_slot(self, "rho_index", self.elements.index(rho))
        except ValueError:
            raise ValueError("conjugation not in group") from None
        # transitivity of the image in S_g
        seen = {1}
        frontier = [1]
        while frontier and len(seen) < self.g:
            j = frontier.pop()
            for el in self.elements:
                k = el.perm[j - 1]
                if k not in seen:
                    seen.add(k)
                    frontier.append(k)
        if len(seen) != self.g:
            raise ValueError(
                f"image in S_{self.g} is not transitive (reaches only {sorted(seen)})"
            )

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def rho(self) -> SignedPerm:
        return self.elements[self.rho_index]

    def element_for_label(self, label) -> SignedPerm:
        if self.labels is None:
            raise ValueError("group has no label map")
        return self.elements[self.labels[label]]


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
    frontier = [ident]
    while frontier:
        nxt = []
        for cur in frontier:
            for gen in gens:
                prod = compose(cur, gen)
                if prod not in seen:
                    seen.add(prod)
                    order.append(prod)
                    nxt.append(prod)
                    if len(order) > CLOSURE_CAP:
                        raise ValueError(f"closure exceeds cap of {CLOSURE_CAP} elements")
        frontier = nxt
    return GaloisGroup(g, tuple(order))


def from_cyclic_translation(M: int, phi) -> tuple[GaloisGroup, dict]:
    """Group of Z/M acting on itself by translation, via a CM transversal.

    `phi` lists M/2 residues, exactly one from each conjugate pair
    {a, a + M/2}; its j-th entry (in input order) is the embedding phi_j.
    Returns the group (elements in residue order [0], [1], ..., [M-1])
    and the label map {t: embedded translation-by-t}.
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
    group = GaloisGroup(g, tuple(elements), labels={t: t for t in range(M)})
    return group, {t: elements[t] for t in range(M)}


def weyl_full(g: int) -> GaloisGroup:
    """The full hyperoctahedral group, in (perm, flips) lexicographic order."""
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
    return GaloisGroup(g, tuple(elements))
