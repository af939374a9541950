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

An index set is its g-bit mask throughout the package, bit j-1 <-> element
j: the complement of I is I ^ ((1 << g) - 1).  The helpers here read a mask
from its elements (mask_of), list and render its elements (members,
subset_str) and rank it in the canonical order (subset_rank,
subset_unrank).

The element rho = (full mask, identity) is central and acts on subsets as
complementation; it plays the role of complex conjugation throughout.
"""
from collections.abc import Iterable, Iterator

from .record import Record

MAX_G_POWERSET = 16


def check_powerset_size(g: int) -> None:
    if g > MAX_G_POWERSET:
        raise ValueError(
            f"operation enumerates all 2^g subsets; g={g} exceeds the cap {MAX_G_POWERSET}"
        )


def mask_of(g: int, elements: Iterable[int] = ()) -> int:
    """The mask of a set of elements of {1,...,g}, each given once."""
    bits = 0
    for j in elements:
        if not 1 <= j <= g:
            raise ValueError(f"element {j} outside 1..{g}")
        if bits >> (j - 1) & 1:
            raise ValueError(f"element {j} repeats")
        bits |= 1 << (j - 1)
    return bits


def members(bits: int) -> tuple[int, ...]:
    """The elements of a mask, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length())
        bits ^= low
    return tuple(out)


def subset_str(bits: int) -> str:
    """A mask as its elements in braces, such as {1,3}."""
    return "{" + ",".join(map(str, members(bits))) + "}"


def admissible(I: int, J: int, K: int, L: int) -> bool:
    """Union/intersection matching of four masks: I|J = K|L and I&J = K&L,
    i.e. every point lies in exactly two of the four wedge slots I, J, K^c,
    L^c."""
    return I | J == K | L and I & J == K & L


# The canonical rank of an index set relabels element 1 as g and each j >= 2
# as j - 1, i.e. rotates the mask right by one bit.  So the masks avoiding 1
# come first, in mask order, and rank(I^c) = 2^g - 1 - rank(I), as relabeling
# commutes with complementation.  Tables, matrices and wedge signs use it.


def subset_rank(g: int, bits: int) -> int:
    """Position of the mask bits in the canonical total order on P({1,...,g})."""
    if bits >> g:  # a bit past g, or a negative mask
        raise ValueError(f"mask {bits:#x} has indices outside 1..{g}")
    return (bits | (bits & 1) << g) >> 1


def subset_unrank(g: int, r: int) -> int:
    """The mask of rank r, for r in 0 .. 2^g - 1: r rotated left by one bit."""
    doubled = r << 1
    return (doubled | doubled >> g) & ((1 << g) - 1)


def submasks(bits: int) -> Iterator[int]:
    """Every submask of bits, from bits itself down to 0."""
    sub = bits
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & bits


class SignedPerm(Record):
    """Group element theta = (flips, perm): flips is the g-bit mask of the
    conjugated target indices, and perm[j-1] is the image beta(j)."""

    __slots__ = ("g", "flips", "perm")

    def __post_init__(self) -> None:
        """Validate the parts, once per construction; benchmarks/tracer.py wraps this to count them."""
        g, perm = self.g, self.perm
        if not 0 <= self.flips < (1 << g):
            raise ValueError(f"flips mask {self.flips:#x} has indices outside 1..{g}")
        if len(perm) != g or sorted(perm) != list(range(1, g + 1)):
            raise ValueError(f"perm {perm} is not a bijection of 1..{g}")

    @classmethod
    def make(cls, g: int, flips: Iterable[int] = (), perm: Iterable[int] | None = None) -> "SignedPerm":
        p = tuple(perm) if perm is not None else tuple(range(1, g + 1))
        return cls(g, mask_of(g, flips), p)


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
