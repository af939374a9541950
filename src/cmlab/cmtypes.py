"""CM types as subsets, their Galois orbits, and the labeled orbit table.

A CM type on E is encoded by the subset I of {1,...,g} of conjugated
positions: it stands for {phi_j : j not in I} + {phibar_j : j in I}, so the
empty set is the base type Phi_E = {phi_1,...,phi_g}; only the subsets are
ever built.  The Galois group permutes the 2^g CM types through the subset
action.  Orbit k of orbit_decomposition is compagnon k, one simple isogeny
factor of the generalized anti-Weyl variety: its degree is the orbit size,
its key the first member, and its CM type the members not containing the
distinguished position 1 (half the orbit, since conjugation lies in the
group).  The orbit of the empty set, translate_masks, is the reflex.
Labeled (cyclic) pairs also have an orbit table, the translates [a].I of an
index set by each residue a, walked as [1]^a.I under the generator [1].
"""
from __future__ import annotations

from .galois import GaloisGroup, from_cyclic_translation, orbit, weyl_full
from .hyperoct import (
    EmbeddingLabel,
    Subset,
    _act_bits,
    _unrank_bits,
    check_powerset_size,
    subset_rank,
)
from .record import Record, set_slot


class CMPairSpec(Record):
    """A CM pair: the Galois group plus display names for phi_1..phi_g.

    `phi_names[j-1]` names the embedding phi_j; `phibar_names[j-1]` its
    conjugate.  For cyclic (translation) data the names are residues mod M
    and conjugation adds M/2.
    """

    __slots__ = ("group", "phi_names", "phibar_names")

    def __init__(self, group: GaloisGroup, phi_names: tuple[str, ...], phibar_names: tuple[str, ...]) -> None:
        if len(phi_names) != group.g or len(phibar_names) != group.g:
            raise ValueError("need one name per embedding")
        if set(phi_names) & set(phibar_names):
            raise ValueError("embedding names collide with conjugate names")
        set_slot(self, "group", group)
        set_slot(self, "phi_names", phi_names)
        set_slot(self, "phibar_names", phibar_names)

    @classmethod
    def from_cyclic(cls, M: int, phi) -> "CMPairSpec":
        group = from_cyclic_translation(M, phi)
        phi = [a % M for a in phi]
        return cls(
            group,
            tuple(str(a) for a in phi),
            tuple(str((a + M // 2) % M) for a in phi),
        )

    @classmethod
    def of_group(cls, group: GaloisGroup) -> "CMPairSpec":
        """The pair of group with its embeddings named phi1.. and phibar1.."""
        return cls(
            group,
            tuple(f"phi{j}" for j in range(1, group.g + 1)),
            tuple(f"phibar{j}" for j in range(1, group.g + 1)),
        )

    @classmethod
    def weyl(cls, g: int) -> "CMPairSpec":
        return cls.of_group(weyl_full(g))

    @property
    def g(self) -> int:
        return self.group.g

    def label_name(self, x: EmbeddingLabel) -> str:
        return self.phibar_names[x.index - 1] if x.bar else self.phi_names[x.index - 1]


def translate_masks(G: GaloisGroup) -> list[int]:
    """The sorted masks sigma.empty of the translates sigma Phi: the orbit of
    the empty set, walked alone, so it needs no powerset cap.  Among masks
    without bit 1 the numeric order is the canonical subset order."""
    return sorted(orbit(G.gens, 0, _act_bits))


def orbit_decomposition(G: GaloisGroup) -> list[list[Subset]]:
    """Partition P({1,...,g}) into G-orbits.

    The orbit of the empty set comes first; the rest follow by their
    minimal member; each orbit is sorted in the canonical subset order.
    """
    g = G.g
    check_powerset_size(g)
    seen = set()
    orbits = []
    # seeds in canonical order, so each orbit is found from its minimal
    # member and the empty set (rank 0) comes first
    for r in range(1 << g):
        seed = _unrank_bits(g, r)
        if seed in seen:
            continue
        members = orbit(G.gens, seed, _act_bits)
        seen.update(members)
        orbits.append(sorted((Subset(g, b) for b in members), key=subset_rank))
    return orbits


def labeled_translates(spec: CMPairSpec, base: Subset) -> list[tuple]:
    """Pairs (a, [a].base) for every label a, in label order: label a is step
    a of the walk of base under [1]; base = empty gives a -> I([a])."""
    G, rows, bits = spec.group, [], base.bits
    for a in G.labels:
        rows.append((a, Subset(G.g, bits)))
        bits = _act_bits(G.gens[0], bits)
    return rows


def reflex_labels(spec: CMPairSpec) -> list:
    """Labels a with 1 not in a.empty -- the CM type recovered by the reflex.

    For cyclic data built from the reflex of a type Phi this returns Phi:
    the orbit-table entry of a avoids position 1 exactly when the
    translated base type is holomorphic at the distinguished embedding.
    """
    if spec.group.labels is None:
        raise ValueError("reflex labels need a labeled (cyclic) group")
    return [a for a, I in labeled_translates(spec, Subset.empty(spec.g)) if 1 not in I]


def compagnon_labels(spec: CMPairSpec, base: Subset) -> list:
    """Labels a with 1 in a.base -- the CM type of the compagnon of base.

    This is the labeling convention for orbits other than the orbit of the
    empty set: the compagnon attached to the orbit of `base` carries the
    CM type {a : the translate a.base conjugates the distinguished
    embedding}.  Note the asymmetry with reflex_labels, which keeps the
    labels *avoiding* 1; both conventions are fixed by the cyclotomic
    regression data.
    """
    if spec.group.labels is None:
        raise ValueError("compagnon labels need a labeled (cyclic) group")
    return [a for a, I in labeled_translates(spec, base) if 1 in I]
