"""CM types as subsets, orbit decomposition, reflex types and compagnons.

A CM type on E is encoded by the subset I of {1,...,g} of conjugated
positions: it stands for {phi_j : j not in I} + {phibar_j : j in I}, so the
empty set is the base type Phi_E = {phi_1,...,phi_g}; only the subsets are
ever built.  The Galois group permutes the 2^g CM types through the subset
action; each orbit O_r yields one simple isogeny factor ("compagnon") of
the generalized anti-Weyl variety, whose CM type is indexed by the orbit
members not containing the distinguished position 1.  Labeled (cyclic)
pairs also have an orbit table, the translates a.I of an index set by
each label a.
"""
from __future__ import annotations

from .galois import GaloisGroup, from_cyclic_translation, orbit, weyl_full
from .hyperoct import (
    EmbeddingLabel,
    Subset,
    _act_bits,
    act_subset,
    check_powerset_size,
    subset_rank,
    subset_unrank,
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


class Compagnon(Record):
    """One simple isogeny factor: a Galois orbit of CM types.

    `orbit` is sorted by subset_rank; `cm_type` keeps the members not
    containing 1 (half of the orbit, since conjugation lies in the group);
    `degree` is the orbit size.  The first orbit member is the stable key.
    """

    __slots__ = ("orbit", "cm_type", "degree")

    def __init__(self, orbit: tuple[Subset, ...], cm_type: tuple[Subset, ...], degree: int) -> None:
        set_slot(self, "orbit", orbit)
        set_slot(self, "cm_type", cm_type)
        set_slot(self, "degree", degree)

    @property
    def key(self) -> Subset:
        return self.orbit[0]


def translate_masks(G: GaloisGroup) -> list[int]:
    """The sorted masks sigma.empty of the translates sigma Phi: the orbit of the empty set."""
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
        seed = subset_unrank(g, r).bits
        if seed in seen:
            continue
        members = orbit(G.gens, seed, _act_bits)
        seen.update(members)
        orbits.append(sorted((Subset(g, b) for b in members), key=subset_rank))
    return orbits


def _compagnon_of(orbit: list[Subset]) -> Compagnon:
    return Compagnon(
        orbit=tuple(orbit),
        cm_type=tuple(I for I in orbit if 1 not in I),
        degree=len(orbit),
    )


def compagnons(spec: CMPairSpec) -> list[Compagnon]:
    """One compagnon per orbit; degrees sum to 2^g, CM types to 2^(g-1)."""
    return [_compagnon_of(o) for o in orbit_decomposition(spec.group)]


def reflex_type(spec: CMPairSpec) -> Compagnon:
    """The compagnon of the orbit of the empty set: the reflex CM pair."""
    return _compagnon_of(sorted((Subset(spec.g, b) for b in translate_masks(spec.group)), key=subset_rank))


def labeled_translates(spec: CMPairSpec, base: Subset) -> list[tuple]:
    """Pairs (a, a.base) for every label a of a labeled group, in label
    order; base = empty gives the orbit table a -> I([a])."""
    G = spec.group
    return [(a, act_subset(G.element_for_label(a), base)) for a in sorted(G.labels)]


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
