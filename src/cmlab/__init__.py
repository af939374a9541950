"""cmlab: CM-period combinatorics toolkit.

Builds Galois groups inside the hyperoctahedral group, decomposes CM types
into orbits, computes reflex types and compagnons, reciprocity-map kernels,
Pohlmann bases of Hodge rings, and emits machine-checkable certificates
that monomial period relations follow from degree-1 and degree-2 relations.
"""

__version__ = "0.1.0"

# the hard cap on Pohlmann walk nodes; here rather than in cmlab.hodge so
# that the command-line parser can show it as the --budget default without
# importing any solver
POHLMANN_HARD_BUDGET = 10**7
