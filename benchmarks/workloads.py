"""Seeded job lists for the three benchmark workloads.

A job is one `cmlab` invocation: its argv (without the program name), an
optional JSON input written to a file, and what the output check needs to
know about it.  Each workload is a fixed template of commands and sizes; the
seed fills in the inputs (transversals, generator conjugates, relation
coefficients, quadruples).  Sizes are fixed per template position so that
the cost of a job list does not depend on the seed, only its inputs do.

Output formats alternate table/json along every list, so a rendering change
cannot speed one format and slow the other unseen.

Nothing here imports cmlab: inputs are built from the definitions in the
README (canonical subset order, signed permutations, chain and degree-one
generators), so the program only ever sees the JSON files and argv.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

FORMATS = ("table", "json")

# Nominal wall time of one pass over each job list on a shared 2-vCPU x86 VM.
# A run makes max(1, seconds // nominal) passes, so the amount of work a run
# measures is fixed by --seconds and does not change when the program gets
# faster or slower.
NOMINAL_PASS_S = {
    "antiweyl-relations": 19.0,
    "weyl-enumeration": 19.0,
    "cm-pairs": 10.5,
}

WORKLOADS = tuple(NOMINAL_PASS_S)


@dataclass
class Job:
    id: int
    argv: list
    check: str
    meta: dict = field(default_factory=dict)
    input: dict | None = None

    def input_bytes(self) -> bytes | None:
        if self.input is None:
            return None
        return (json.dumps(self.input, sort_keys=True, separators=(",", ":")) + "\n").encode()


# ---------------------------------------------------------------------------
# subsets of {1..g} as bitmasks, in the canonical order of the README


def subset_rank(g: int, bits: int) -> int:
    if bits & 1 == 0:
        return bits >> 1
    return (1 << g) - 1 - ((bits ^ ((1 << g) - 1)) >> 1)


def subset_unrank(g: int, r: int) -> int:
    if r < 1 << (g - 1):
        return r << 1
    return ((1 << g) - 1) ^ (((1 << g) - 1 - r) << 1)


def members(bits: int) -> list:
    return [j + 1 for j in range(bits.bit_length()) if bits >> j & 1]


def subset_str(bits: int) -> str:
    return "{" + ",".join(str(j) for j in members(bits)) + "}"


# ---------------------------------------------------------------------------
# signed permutations: (flips bitmask, perm tuple with perm[j-1] = image of j)


def sp_apply_perm(perm, bits: int) -> int:
    out = 0
    for j in members(bits):
        out |= 1 << (perm[j - 1] - 1)
    return out


def sp_act(t, bits: int) -> int:
    """t.I = flips xor perm(I)."""
    flips, perm = t
    return flips ^ sp_apply_perm(perm, bits)


def sp_compose(a, b):
    """a*b: apply b first, then a."""
    flips = a[0] ^ sp_apply_perm(a[1], b[0])
    return flips, tuple(a[1][bj - 1] for bj in b[1])


def sp_inverse(a):
    flips, perm = a
    inv = [0] * len(perm)
    for j, bj in enumerate(perm, start=1):
        inv[bj - 1] = j
    inv = tuple(inv)
    return sp_apply_perm(inv, flips), inv


def sp_random(rng: random.Random, g: int):
    perm = list(range(1, g + 1))
    rng.shuffle(perm)
    return rng.getrandbits(g), tuple(perm)


def sp_json(t) -> dict:
    return {"flips": members(t[0]), "perm": list(t[1])}


# ---------------------------------------------------------------------------
# inputs


def random_transversal(rng: random.Random, M: int) -> list:
    """One residue from each conjugate pair {a, a + M/2}, in random order."""
    g = M // 2
    phi = [a + g * rng.randrange(2) for a in range(g)]
    rng.shuffle(phi)
    return phi


def periodic_transversal(rng: random.Random, M: int, h: int) -> list:
    """A transversal invariant under translation by h (M/h odd), lifted from
    a random transversal mod h: a CM type induced from a subfield, so the
    period-relation kernel is nonzero (rank >= M/2 - h)."""
    chosen = {b + (h // 2) * rng.randrange(2) for b in range(h // 2)}
    phi = [a for a in range(M) if a % h in chosen]
    rng.shuffle(phi)
    return phi


# generator templates per g, conjugated by a seeded signed permutation so
# the group changes with the seed but its order (and so the cost) does not
def _cycle(g):
    return 0, tuple(range(2, g + 1)) + (1,)


def _generator_template(g: int) -> list:
    rho = ((1 << g) - 1, tuple(range(1, g + 1)))
    if g == 5:
        extra = (0, tuple(range(g, 0, -1)))  # reversal: dihedral, order 20
    else:
        extra = (3, tuple(range(1, g + 1)))  # flip {1,2}: even flips x| C_g
    return [rho, _cycle(g), extra]


def random_generators(rng: random.Random, g: int) -> list:
    s = sp_random(rng, g)
    s_inv = sp_inverse(s)
    gens = [sp_compose(sp_compose(s, x), s_inv) for x in _generator_template(g)]
    rng.shuffle(gens)
    return [sp_json(x) for x in gens]


def degree_one_vector(g: int, bits: int) -> list:
    """Theta_I * Theta_{I^c} ~ tau, as [*vec, tau]."""
    v = [0] * ((1 << g) + 1)
    v[subset_rank(g, bits)] += 1
    v[subset_rank(g, bits ^ ((1 << g) - 1))] += 1
    v[-1] = -1
    return v


def chain_vector(g: int, bits: int) -> list:
    """chain(S) = (S, {}, S - max, {max}), as [*vec, tau]."""
    top = 1 << (bits.bit_length() - 1)
    v = [0] * ((1 << g) + 1)
    v[subset_rank(g, bits)] += 1
    v[subset_rank(g, 0)] += 1
    v[subset_rank(g, bits ^ top)] -= 1
    v[subset_rank(g, top)] -= 1
    return v


def random_relation(rng: random.Random, g: int) -> dict:
    """A seeded integer combination of g chain and 3 degree-one generators."""
    total = [0] * ((1 << g) + 1)
    tops = [b for b in range(1 << g) if b.bit_count() >= 2]
    gens = [chain_vector(g, b) for b in rng.sample(tops, g)]
    gens += [degree_one_vector(g, rng.getrandbits(g)) for _ in range(3)]
    for gen in gens:
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        total = [x + c * y for x, y in zip(total, gen)]
    return {"g": g, "vec": total[:-1], "tau": total[-1]}


# admissible quadruple shapes over {2..g}, as (C, D, A, B) with
# I = C|A, J = C|(D-A), K = C|B, L = C|(D-B); the seed relabels {2..g},
# which keeps the support size (and the cost) of the quadruple
_QUADRUPLE_SHAPES = {
    4: ((), (2, 3, 4), (2,), (2, 3)),
    5: ((2,), (3, 4, 5), (3,), (3, 4)),
    6: ((2,), (3, 4, 5, 6), (3, 4), (3, 5)),
}


def random_quadruple(rng: random.Random, g: int) -> list:
    """An admissible (I, J, K, L) over {2..g}: I|J = K|L and I&J = K&L."""
    tail = list(range(2, g + 1))
    image = dict(zip(tail, rng.sample(tail, len(tail))))

    def bits(xs):
        return sum(1 << (image[x] - 1) for x in xs)

    c, d, a, b = (bits(xs) for xs in _QUADRUPLE_SHAPES[g])
    return [c | a, c | (d ^ a), c | b, c | (d ^ b)]


def support_input(rng: random.Random, g: int) -> dict:
    """A seeded quadruple and a seeded Weyl translate of it, which must be
    reported equivalent with the same support size."""
    q = random_quadruple(rng, g)
    t = sp_random(rng, g)
    second = [sp_act(t, x) for x in q]
    return {"g": g, "first": [members(x) for x in q], "second": [members(x) for x in second]}


# ---------------------------------------------------------------------------
# job lists


def _twice(pairs) -> list:
    """Every pair of small jobs twice, four places apart, so that each small
    job repeats within a pass with the same format."""
    out = []
    for i in range(0, len(pairs), 2):
        chunk = [job for pair in pairs[i:i + 2] for job in pair]
        out += chunk + chunk
    return out


def _interleave(big, small) -> list:
    """Two small jobs after each big job while they last, so that formats
    alternate along the big jobs and along the small ones."""
    out = []
    for i, job in enumerate(big):
        out.append(job)
        out += small[2 * i:2 * i + 2]
    return out


def _antiweyl(rng):
    def rel(g):
        return ["reduce"], "reduce", {"g": g}, random_relation(rng, g)

    def weyl(g):
        return ["relations", "--weyl-full", "--g", str(g)], "weyl_relations", {"g": g}, None

    mu19 = (["example-mu19"], "mu19", {}, None)
    big = [mu19, weyl(8), rel(9), rel(10), weyl(9), rel(9), rel(11), mu19, rel(9),
           weyl(7), weyl(7), weyl(7), weyl(7)]
    # the same path at small sizes, where start-up dominates: the median
    # job falls among these, the tail among the big ones
    small = _twice([(weyl(3), rel(4)), (weyl(4), rel(5)), (weyl(5), rel(4)),
                    (weyl(3), rel(5)), (rel(4), weyl(4))])
    return _interleave(big, small)


def _weyl_enumeration(rng):
    def hodge(g, p, n):
        return (["hodge-basis", "--weyl-full", "--g", str(g), "--p", str(p), "--n", str(n)],
                "hodge", {"g": g, "p": p, "n": n}, None)

    def cyclic_hodge(M, p):
        return (["hodge-basis", "--p", str(p), "--n", "1"], "hodge", {"g": M // 2, "p": p, "n": 1},
                {"cyclic": {"M": M, "phi": random_transversal(rng, M)}})

    def support(g):
        return ["support"], "support", {"g": g}, support_input(rng, g)

    def sl2(g):
        return ["sl2-check", "--g", str(g)], "sl2", {"g": g}, None

    support5 = support(5)
    big = [hodge(4, 2, 1), hodge(4, 3, 1), hodge(4, 2, 2), hodge(5, 2, 1), cyclic_hodge(12, 2),
           support(5), support(6), sl2(4), sl2(5), sl2(3), support5, sl2(3), support5]
    small = _twice([(hodge(3, 1, 1), sl2(2)), (hodge(3, 2, 1), support(4)),
                    (hodge(3, 1, 2), cyclic_hodge(8, 1)), (hodge(4, 1, 1), cyclic_hodge(10, 2)),
                    (hodge(3, 2, 2), support(4))])
    return _interleave(big, small)


PAIR_COMMANDS = ("orbits", "compagnons", "kernel", "relations")


def _cm_pairs(rng):
    jobs = []

    def pair_jobs(pair, meta, commands):
        for cmd in commands:
            jobs.append(([cmd], cmd, dict(meta), pair))

    # M = 26 is the largest cyclic size kept (M = 28 costs 9 s per orbit scan)
    # M = 10 and 18 are induced from period 2 and 6 (nonzero kernels); 14
    # and 22 are random, hence almost always primitive (zero kernels)
    for M, h in ((10, 2), (14, None), (18, 6), (22, None)):
        phi = random_transversal(rng, M) if h is None else periodic_transversal(rng, M, h)
        pair_jobs({"cyclic": {"M": M, "phi": phi}}, {"g": M // 2, "M": M, "phi": phi},
                  PAIR_COMMANDS + ("reflex",))
    phi = random_transversal(rng, 26)
    pair_jobs({"cyclic": {"M": 26, "phi": phi}}, {"g": 13, "M": 26, "phi": phi}, ("orbits",))
    for g in (4, 5, 6):
        pair_jobs({"g": g, "generators": random_generators(rng, g)}, {"g": g}, PAIR_COMMANDS)
    pair_jobs({"weyl": 4}, {"g": 4}, PAIR_COMMANDS)
    # the tall 46080 x 6 pairing matrix of the full group at g = 6
    pair_jobs({"weyl": 6}, {"g": 6}, ("relations",))
    return jobs


_TEMPLATES = {
    "antiweyl-relations": _antiweyl,
    "weyl-enumeration": _weyl_enumeration,
    "cm-pairs": _cm_pairs,
}


def build_jobs(workload: str, seed: int) -> list:
    """The job list of a workload for a seed; same seed, same list."""
    if workload not in _TEMPLATES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    jobs = []
    for i, (argv, check, meta, data) in enumerate(_TEMPLATES[workload](rng)):
        argv = [*argv, "--format", FORMATS[i % 2]]
        jobs.append(Job(i, argv, check, {**meta, "format": FORMATS[i % 2]}, data))
    return jobs


def job_list_json(workload: str, seed: int, jobs: list) -> str:
    """Canonical record of a job list: argv, check and input of every job."""
    record = {
        "workload": workload,
        "seed": seed,
        "jobs": [
            {"id": j.id, "argv": j.argv, "check": j.check, "meta": j.meta, "input": j.input}
            for j in jobs
        ],
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
