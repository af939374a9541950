"""Arithmetic of the hyperoctahedral group (Z/2Z)^g semidirect S_g.

Elements are signed permutations theta = (flips, perm): perm is a bijection
beta of {1,...,g} in one-line notation and flips is the g-bit mask (bit j-1
<-> index j) of the *target* indices that pick up a conjugation.
Multiplication follows the semidirect rule

    (F1, b1) * (F2, b2) = (F1 xor b1(F2), b1 b2),

i.e. the right factor acts first.  The group acts on the 2g embedding
labels {phi_1..phi_g, phibar_1..phibar_g}:

    theta . phi_j = phi_{beta(j)}, barred iff beta(j) in flips,

extended conjugate-equivariantly to barred labels.  CM types are indexed
by subsets of {1,...,g} via I <-> {phi_j : j not in I} + {phibar_j : j in I};
transporting the label action through that bijection gives the left action
on subset masks implemented here (_act_bits):

    theta . I = flips xor beta(I).

The element rho = (full mask, identity) is central and acts on subsets as
complementation; it plays the role of complex conjugation throughout.
"""
from collections.abc import Iterable, Iterator

from .record import Record, set_slot

MAX_G_POWERSET = 16


def check_powerset_size(g: int) -> None:
    if g > MAX_G_POWERSET:
        raise ValueError(
            f"operation enumerates all 2^g subsets; g={g} exceeds the cap {MAX_G_POWERSET}"
        )


class Subset(Record):
    """A subset of {1,...,g}, stored as a g-bit mask (bit j-1 <-> element j)."""

    __slots__ = ("g", "bits")

    def __init__(self, g: int, bits: int) -> None:
        if not 0 <= bits < (1 << g):
            raise ValueError(f"subset mask {bits:#x} has elements outside 1..{g}")
        set_slot(self, "g", g)
        set_slot(self, "bits", bits)

    @classmethod
    def of(cls, g: int, members: Iterable[int] = ()) -> "Subset":
        bits = 0
        for j in members:
            if not 1 <= j <= g:
                raise ValueError(f"element {j} outside 1..{g}")
            bits |= 1 << (j - 1)
        return cls(g, bits)

    @classmethod
    def empty(cls, g: int) -> "Subset":
        return cls(g, 0)

    def members(self) -> tuple[int, ...]:
        out, bits = [], self.bits
        while bits:
            low = bits & -bits
            out.append(low.bit_length())
            bits ^= low
        return tuple(out)

    def __contains__(self, j: int) -> bool:
        return 1 <= j <= self.g and bool(self.bits >> (j - 1) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def complement(self) -> "Subset":
        return Subset(self.g, self.bits ^ ((1 << self.g) - 1))

    def _binop(self, other: "Subset", bits: int) -> "Subset":
        if self.g != other.g:
            raise ValueError(f"dimension mismatch: g={self.g} vs g={other.g}")
        return Subset(self.g, bits)

    def __or__(self, other: "Subset") -> "Subset":
        return self._binop(other, self.bits | other.bits)

    def __and__(self, other: "Subset") -> "Subset":
        return self._binop(other, self.bits & other.bits)

    def __xor__(self, other: "Subset") -> "Subset":
        return self._binop(other, self.bits ^ other.bits)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.members())) + "}"


def admissible(I, J, K, L) -> bool:
    """Union/intersection matching: I|J = K|L and I&J = K&L, i.e. every
    point lies in exactly two of the four wedge slots I, J, K^c, L^c.

    Takes four Subsets, or their four masks, where the same test runs on
    plain integers and builds no Subset.
    """
    return I | J == K | L and I & J == K & L


# Subsets are ordered by a total order compatible with complementation:
# subsets without 1 come first, ranked by the binary value of their indicator
# over positions 2..g; subsets containing 1 are ranked so that
# rank(I) = 2^g - 1 - rank(I^c).  All tables, matrices and wedge signs
# downstream use this order.


def _rank_bits(g: int, bits: int) -> int:
    """subset_rank of a plain g-bit mask, with no Subset built."""
    if bits & 1 == 0:
        return bits >> 1
    full = (1 << g) - 1
    return full - ((bits ^ full) >> 1)


def _unrank_bits(g: int, r: int) -> int:
    """The mask of subset_unrank(g, r), for r in 0 .. 2^g - 1."""
    if r < 1 << (g - 1):
        return r << 1
    full = (1 << g) - 1
    return full ^ ((full - r) << 1)


def subset_rank(I: Subset) -> int:
    """Position of I in the canonical total order on P({1,...,g})."""
    return _rank_bits(I.g, I.bits)


def subset_unrank(g: int, r: int) -> Subset:
    if not 0 <= r < (1 << g):
        raise ValueError(f"rank {r} outside 0..{(1 << g) - 1}")
    return Subset(g, _unrank_bits(g, r))


def submasks(bits: int) -> Iterator[int]:
    """Every submask of bits, from bits itself down to 0."""
    sub = bits
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & bits


def tail_subsets(g: int) -> list[Subset]:
    """The subsets of {2,...,g} in canonical order (ranks 0 .. 2^(g-1) - 1,
    where the rank of a subset without 1 is its mask shifted right by one)."""
    return [Subset(g, bits) for bits in range(0, 1 << g, 2)]


class SignedPerm(Record):
    """Group element theta = (flips, perm): flips is the g-bit mask of the
    conjugated target indices, and perm[j-1] is the image beta(j)."""

    __slots__ = ("g", "flips", "perm")

    def __init__(self, g: int, flips: int, perm: tuple[int, ...]) -> None:
        set_slot(self, "g", g)
        set_slot(self, "flips", flips)
        set_slot(self, "perm", perm)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the parts; benchmarks/tracer.py wraps this to count constructions."""
        if not 0 <= self.flips < (1 << self.g):
            raise ValueError(f"flips mask {self.flips:#x} has indices outside 1..{self.g}")
        if len(self.perm) != self.g or sorted(self.perm) != list(range(1, self.g + 1)):
            raise ValueError(f"perm {self.perm} is not a bijection of 1..{self.g}")

    @classmethod
    def make(cls, g: int, flips: Iterable[int] = (), perm: Iterable[int] | None = None) -> "SignedPerm":
        p = tuple(perm) if perm is not None else tuple(range(1, g + 1))
        return cls(g, Subset.of(g, flips).bits, p)


def _act_bits(t: SignedPerm, bits: int) -> int:
    """t.I on a g-bit mask: flips xor beta(bits), the left action on CM-type
    indices, for orbit walks and hot loops."""
    out = t.flips
    perm = t.perm
    while bits:
        low = bits & -bits
        out ^= 1 << (perm[low.bit_length() - 1] - 1)
        bits ^= low
    return out
