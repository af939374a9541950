"""CM pairs, CM types as subsets, their Galois orbits, and the orbit table.

A CM type on E is encoded by the subset I of {1,...,g} of conjugated
positions: it stands for {phi_j : j not in I} + {phibar_j : j in I}, so the
empty set is the base type Phi_E = {phi_1,...,phi_g}; only the masks of
the subsets are ever built.  The Galois group permutes the 2^g CM types through the subset
action.  Orbit k of orbit_decomposition is compagnon k, one simple isogeny
factor of the generalized anti-Weyl variety: its degree is the orbit size,
its key the first member, and its CM type the members not containing the
distinguished position 1 (half the orbit, since conjugation lies in the
group).  The orbit of the empty set, translate_masks, is the reflex.
Cyclic pairs also have an orbit table, the list of translates [a].I of an
index set indexed by the residue a mod 2g, walked as [1]^a.I under the
generator [1]; labels_of reads from it the CM type of the compagnon of I,
the residues a with 1 in [a].I, and for the full mask the reflex labels.
"""
from .galois import GaloisGroup, from_cyclic_translation, orbit, weyl_full
from .hyperoct import _act_bits, check_powerset_size, subset_rank, subset_unrank
from .record import Record


class CMPairSpec(Record):
    """A CM pair: the Galois group and, for cyclic (translation) data, the
    residues a_1..a_g mod M = 2g of the transversal phi_1..phi_g.

    `residues` is None for a pair given by its group alone.  label_name
    names the embeddings from it.
    """

    __slots__ = ("group", "residues")

    @classmethod
    def from_cyclic(cls, M: int, phi) -> "CMPairSpec":
        return cls(from_cyclic_translation(M, phi), tuple(a % M for a in phi))

    @classmethod
    def weyl(cls, g: int) -> "CMPairSpec":
        return cls(weyl_full(g), None)

    @property
    def g(self) -> int:
        return self.group.g

    def label_name(self, j: int, bar: bool = False) -> str:
        """The name of phi_j, or of phibar_j if bar: for a cyclic pair its
        residue, a_j or (a_j + g) mod 2g; else phi{j} or phibar{j}."""
        if self.residues is None:
            return f"phibar{j}" if bar else f"phi{j}"
        return str((self.residues[j - 1] + self.g * bar) % (2 * self.g))


def translate_masks(G: GaloisGroup) -> list[int]:
    """The sorted masks sigma.empty of the translates sigma Phi: the orbit of
    the empty set, walked alone, so it needs no powerset cap.  Among masks
    without bit 1 the numeric order is the canonical subset order."""
    return sorted(orbit(G.gens, 0, _act_bits))


def orbit_decomposition(G: GaloisGroup) -> list[list[int]]:
    """Partition P({1,...,g}) into G-orbits of masks.

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
        seed = subset_unrank(g, r)
        if seed in seen:
            continue
        members = orbit(G.gens, seed, _act_bits)
        seen.update(members)
        orbits.append(sorted(members, key=lambda b: subset_rank(g, b)))
    return orbits


def labeled_translates(spec: CMPairSpec, base: int) -> list[int]:
    """The masks of the translates [a].base, indexed by the residue a mod 2g:
    entry a is step a of the walk of base under [1]; base = 0, the empty
    set, gives I([a])."""
    if spec.residues is None:
        raise ValueError("labels need a labeled (cyclic) group")
    step, rows = spec.group.gens[0], []
    for _ in range(2 * spec.g):
        rows.append(base)
        base = _act_bits(step, base)
    return rows


def labels_of(spec: CMPairSpec, base: int) -> list[int]:
    """The residues a with 1 in [a].base: the CM type of the compagnon of base.

    The full mask is the conjugate type rho.empty, and rho is central and
    complements, so [a].full is the complement of I([a]): the full mask
    gives the reflex labels, the a with 1 not in I([a]), which for cyclic
    data built from the reflex of Phi are Phi.
    """
    return [a for a, I in enumerate(labeled_translates(spec, base)) if I & 1]
