"""Per-job output checks, computed without cmlab.

Each check parses one job's stdout (table or JSON) and recomputes what it
can from the job's own input: orbit decompositions by breadth-first search
over the group generators, kernel ranks by elimination over Q, Pohlmann
counts by brute force, supports by enumerating the Weyl group, and
reduction certificates by re-summing their parts.  `check_job` returns a
list of problems; an empty list means the output is correct.
"""
from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction

from workloads import (
    members,
    sp_act,
    sp_compose,
    subset_rank,
    subset_str,
    subset_unrank,
)


class CheckError(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# groups from job inputs, as lists of signed permutations (flips, perm)


def cyclic_elements(M: int, phi) -> list:
    """Translation by t on the transversal phi, t = 0..M-1 (label t)."""
    g = M // 2
    index_of = {a % M: j for j, a in enumerate(phi, start=1)}
    out = []
    for t in range(M):
        perm, flips = [], 0
        for a in phi:
            r = (a + t) % M
            if r in index_of:
                perm.append(index_of[r])
            else:
                k = index_of[(r + g) % M]
                perm.append(k)
                flips |= 1 << (k - 1)
        out.append((flips, tuple(perm)))
    return out


def group_generators(data: dict) -> tuple:
    """(g, generators) of the group a CM-pair input describes."""
    if "cyclic" in data:
        c = data["cyclic"]
        g = c["M"] // 2
        return g, [cyclic_elements(c["M"], c["phi"])[1]]
    if "weyl" in data:
        g = data["weyl"]
        ident = tuple(range(1, g + 1))
        swap = (2, 1) + ident[2:]
        cycle = ident[1:] + (1,)
        return g, [(1, ident), (0, swap), (0, cycle)]
    g = data["g"]
    gens = []
    for x in data["generators"]:
        flips = 0
        for j in x["flips"]:
            flips |= 1 << (j - 1)
        gens.append((flips, tuple(x["perm"])))
    return g, gens


def group_flip_sets(data: dict, cap: int = 100_000) -> set:
    """The flip sets of all group elements (one pairing-matrix row each)."""
    g, gens = group_generators(data)
    if "weyl" in data:
        return set(range(1 << g))
    ident = (0, tuple(range(1, g + 1)))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = sp_compose(x, s)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
        expect(len(seen) <= cap, f"group closure exceeds {cap} elements")
    return {x[0] for x in seen}


def orbit_decomposition(g: int, gens) -> list:
    """Orbits on subsets of {1..g}: the orbit of {} first, then by least
    member in the canonical order; each orbit sorted in that order."""
    unseen = set(range(1 << g))
    orbits = []
    while unseen:
        seed = 0 if not orbits else min(unseen, key=lambda b: subset_rank(g, b))
        orbit = {seed}
        frontier = [seed]
        while frontier:
            nxt = []
            for b in frontier:
                for s in gens:
                    c = sp_act(s, b)
                    if c not in orbit:
                        orbit.add(c)
                        nxt.append(c)
            frontier = nxt
        unseen -= orbit
        orbits.append(sorted(orbit, key=lambda b: subset_rank(g, b)))
    return orbits


def rational_rank(rows) -> int:
    basis = []  # (pivot column, row) in echelon form
    for row in rows:
        v = [Fraction(x) for x in row]
        for p, b in basis:
            if v[p]:
                f = v[p] / b[p]
                v = [x - f * y for x, y in zip(v, b)]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is not None:
            basis.append((pivot, v))
            if len(basis) == len(v):
                break
    return len(basis)


def pairing_rows(data: dict) -> list:
    g = group_generators(data)[0]
    return [[-1 if f >> (j - 1) & 1 else 1 for j in range(1, g + 1)]
            for f in sorted(group_flip_sets(data))]


# ---------------------------------------------------------------------------
# parsing rendered relations


_TERM = re.compile(r"^(.+?)(?:\^(\d+))?$")


def parse_side(text: str) -> dict:
    if text == "1":
        return {}
    out = {}
    for term in text.split("*"):
        name, exp = _TERM.match(term).groups()
        expect(name not in out, f"symbol {name} repeated")
        out[name] = int(exp or 1)
    return out


def parse_relation(text: str) -> tuple:
    lhs, sep, rhs = text.partition(" ~ ")
    expect(sep == " ~ ", f"not a relation: {text[:60]!r}")
    return parse_side(lhs), parse_side(rhs)


def antiweyl_index(g: int) -> dict:
    """Symbol name -> position in [*vec, tau] for the default symbols."""
    index = {f"Th{subset_str(subset_unrank(g, r))}": r for r in range(1 << g)}
    index["tau"] = 1 << g
    return index


def relation_vector(lhs: dict, rhs: dict, index: dict) -> list:
    v = [0] * len(set(index.values()))
    for sign, side in ((1, lhs), (-1, rhs)):
        for name, e in side.items():
            expect(name in index, f"unknown symbol {name}")
            expect(isinstance(e, int) and e > 0, f"bad exponent {e!r} on {name}")
            v[index[name]] += sign * e
    return v


def in_antiweyl_kernel(g: int, v: list) -> bool:
    """rec* v = 0: for every j, the exponents of subsets avoiding j and
    of subsets containing j both sum to zero (tau must be 0)."""
    if v[-1]:
        return False
    sums = [[0, 0] for _ in range(g)]
    for r, x in enumerate(v[:-1]):
        if x:
            bits = subset_unrank(g, r)
            for j in range(g):
                sums[j][bits >> j & 1] += x
    return not any(a or b for a, b in sums)


def check_certificate(target, parts, want=None) -> None:
    """parts = [(coeff, gen vector)]; they must re-sum to target."""
    if want is not None:
        expect(target == want, "certificate target differs from the input relation")
    total = [0] * len(target)
    for coeff, gen in parts:
        expect(isinstance(coeff, int) and coeff != 0, f"bad coefficient {coeff!r}")
        total = [x + coeff * y for x, y in zip(total, gen)]
    expect(total == target, "certificate parts do not re-sum to the target")


# ---------------------------------------------------------------------------
# checks by job kind; each gets (job, text, obj) with obj the parsed JSON
# (or None for table output)


def _lines(text: str) -> list:
    return text.rstrip("\n").split("\n") if text.strip() else []


def _field(line: str, prefix: str) -> str:
    expect(line.startswith(prefix), f"expected {prefix!r}, got {line[:60]!r}")
    return line[len(prefix):]


def _json_certificate(cert: dict, index: dict) -> tuple:
    """(target, [(coeff, generator)]) of a JSON certificate marked verified."""
    expect(cert["verified"] is True, "certificate not verified")
    target = relation_vector(cert["target"]["lhs"], cert["target"]["rhs"], index)
    parts = [(p["coeff"], relation_vector(p["gen"]["lhs"], p["gen"]["rhs"], index))
             for p in cert["parts"]]
    return target, parts


def check_reduce(job, text, obj) -> None:
    g = job.meta["g"]
    index = antiweyl_index(g)
    want = [*job.input["vec"], job.input["tau"]]
    if obj is not None:
        target, parts = _json_certificate(obj, index)
    else:
        lines = _lines(text)
        target = relation_vector(*parse_relation(_field(lines[0], "target: ")), index)
        count = int(_field(lines[1], "parts: "))
        expect(len(lines) == count + 3, "part count differs from the part lines")
        expect(lines[-1] == "verified: yes", "certificate not verified")
        parts = []
        for line in lines[2:-1]:
            coeff, sep, rel = line.partition(" * ")
            expect(sep == " * ", f"bad part line {line[:60]!r}")
            parts.append((int(coeff), relation_vector(*parse_relation(rel), index)))
    check_certificate(target, parts, want)


def check_weyl_relations(job, text, obj) -> None:
    g = job.meta["g"]
    index = antiweyl_index(g)
    if obj is not None:
        expect(obj["side"] == "antiweyl", "wrong side")
        rels = [(r["lhs"], r["rhs"]) for r in obj["relations"]]
    else:
        lines = _lines(text)
        count = int(_field(lines[0], "relations: "))
        rels = [parse_relation(_field(line, "relation: ")) for line in lines[1:]]
        expect(count == len(rels), "relation count differs from the relation lines")
    expect(len(rels) == (1 << g) - g - 1, f"expected 2^g - g - 1 = {(1 << g) - g - 1} relations, got {len(rels)}")
    vecs = [relation_vector(lhs, rhs, index) for lhs, rhs in rels]
    expect(len({tuple(v) for v in vecs}) == len(vecs), "repeated relation")
    for v in vecs:
        expect(any(v) and in_antiweyl_kernel(g, v), "relation outside ker rec*")


def check_mu19(job, text, obj, golden: bytes) -> None:
    if obj is None:
        expect(text.encode() == golden, "example-mu19 differs from tests/data/example_mu19.txt")
        return
    M, phi_star = 18, obj["phi_star"]
    g = M // 2
    table = {a: members(e[0]) for a, e in enumerate(cyclic_elements(M, phi_star))}
    expect({int(a): m for a, m in obj["orbit_table"].items()} == table, "orbit table differs")
    expect(obj["reflex_labels"] == obj["phi"], "reflex recovery does not return phi")
    k = obj["kernel"]
    expect(k["rank"] + k["mt_dimension"] == g + 1, "rank + mt_dimension != g + 1")
    index = antiweyl_index(g)
    for cert in obj["certificates"]:
        check_certificate(*_json_certificate(cert, index))


def _orbits_for(job) -> tuple:
    g, gens = group_generators(job.input)
    return g, orbit_decomposition(g, gens)


def _parse_set(text: str) -> int:
    expect(text.startswith("{") and text.endswith("}"), f"not a set: {text!r}")
    bits = 0
    for x in filter(None, text[1:-1].split(",")):
        bits |= 1 << (int(x) - 1)
    return bits


def _bits(xs) -> int:
    bits = 0
    for x in xs:
        bits |= 1 << (x - 1)
    return bits


def _label_table(job) -> dict | None:
    if "cyclic" not in job.input:
        return None
    c = job.input["cyclic"]
    return {t: e[0] for t, e in enumerate(cyclic_elements(c["M"], c["phi"]))}


def check_orbits(job, text, obj) -> None:
    g, orbits = _orbits_for(job)
    labels = _label_table(job)
    want = [(len(o), o[0]) for o in orbits]
    if obj is not None:
        got = [(o["degree"], _bits(o["key"])) for o in obj["orbits"]]
        seen = [_bits(m) for o in obj["orbits"] for m in o["members"]]
        expect(sorted(seen) == list(range(1 << g)), "orbits do not partition P({1..g})")
        for o in obj["orbits"]:
            ms = {_bits(m) for m in o["members"]}
            expect(len(ms) == o["degree"], "degree differs from the member count")
            expect({((1 << g) - 1) ^ m for m in ms} == ms, "orbit not closed under complement")
        expect([sorted(_bits(m) for m in o["members"]) for o in obj["orbits"]]
               == [sorted(o) for o in orbits], "orbit members differ")
        table = None if obj["table"] is None else {int(a): _bits(m) for a, m in obj["table"].items()}
    else:
        lines = _lines(text)
        table = None
        if lines[0] == "orbit table:":
            n = len(labels or ())
            table = {}
            for line in lines[1:1 + n]:
                m = re.fullmatch(r"I\(\[(\d+)\]\) = (\{[\d,]*\})", line)
                expect(m is not None, f"bad orbit table line {line[:60]!r}")
                table[int(m.group(1))] = _parse_set(m.group(2))
            lines = lines[1 + n:]
        count = int(_field(lines[0], "orbits: "))
        got = []
        for k, line in enumerate(lines[1:]):
            m = re.fullmatch(rf"orbit {k}: degree (\d+), key (\{{[\d,]*\}})", line)
            expect(m is not None, f"bad orbit line {line[:60]!r}")
            got.append((int(m.group(1)), _parse_set(m.group(2))))
        expect(count == len(got), "orbit count differs from the orbit lines")
    expect(sum(d for d, _ in got) == 1 << g, "orbit degrees do not sum to 2^g")
    expect(got == want, "orbit degrees or keys differ from the group's orbits")
    expect(table == labels, "orbit table differs")


def _cyclic_labels(job, base: int, contains: bool) -> list:
    table = cyclic_elements(job.input["cyclic"]["M"], job.input["cyclic"]["phi"])
    return sorted(t for t, e in enumerate(table) if bool(sp_act(e, base) & 1) == contains)


def check_compagnons(job, text, obj) -> None:
    g, orbits = _orbits_for(job)
    labeled = "cyclic" in job.input
    want = []
    for k, o in enumerate(orbits):
        labels = None
        if labeled:
            labels = _cyclic_labels(job, 0, False) if k == 0 else _cyclic_labels(job, o[0], True)
        want.append((len(o), o[0], labels))
    if obj is not None:
        got = [(c["degree"], _bits(c["key"]), c["labels"]) for c in obj["compagnons"]]
    else:
        lines = _lines(text)
        count = int(_field(lines[0], "compagnons: "))
        got = []
        for k, line in enumerate(lines[1:]):
            m = re.fullmatch(rf"compagnon {k}: degree (\d+), key (\{{[\d,]*\}})(?:, labels (.*))?", line)
            expect(m is not None, f"bad compagnon line {line[:60]!r}")
            labels = None if m.group(3) is None else [int(x) for x in re.findall(r"\[(\d+)\]", m.group(3))]
            got.append((int(m.group(1)), _parse_set(m.group(2)), labels))
        expect(count == len(got), "compagnon count differs from the compagnon lines")
    expect(sum(d for d, _, _ in got) == 1 << g, "compagnon degrees do not sum to 2^g")
    expect(got == want, "compagnon degrees, keys or labels differ")


def check_reflex(job, text, obj) -> None:
    g, orbits = _orbits_for(job)
    types = [b for b in orbits[0] if not b & 1]
    labels = _cyclic_labels(job, 0, False)
    if obj is not None:
        got = (obj["degree"], obj["labels"], [_bits(x) for x in obj["cm_type"]])
    else:
        lines = _lines(text)
        degree = int(_field(lines[0], "reflex degree: "))
        got_labels = [int(x) for x in re.findall(r"\[(\d+)\]", _field(lines[1], "reflex labels: "))]
        got = (degree, got_labels, [_parse_set(_field(x, "type ")) for x in lines[2:]])
    expect(got == (len(orbits[0]), labels, types), "reflex degree, labels or type differ")
    expect(len(labels) == g, "reflex needs g labels")


_GEN_TERM = re.compile(r"([+-]?) ?(?:(\d+)\*)?\[([^\]]+)\]")


def _simple_kernel(job) -> tuple:
    """(g, names, kernel rank, pairing rows) from the input alone."""
    g = group_generators(job.input)[0]
    if "cyclic" in job.input:
        names = [str(a % job.input["cyclic"]["M"]) for a in job.input["cyclic"]["phi"]]
    else:
        names = [f"phi{j}" for j in range(1, g + 1)]
    rows = pairing_rows(job.input)
    return g, names, g - rational_rank(rows), rows


def _in_kernel(rows, v) -> bool:
    return all(sum(a * b for a, b in zip(r, v)) == 0 for r in rows)


def check_kernel(job, text, obj) -> None:
    g, names, rank, rows = _simple_kernel(job)
    index = {f"Th[{n}]": j for j, n in enumerate(names)}
    if obj is not None:
        got_rank, mt, basis = obj["rank"], obj["mt_dimension"], obj["basis"]
        rels = [(r["lhs"], r["rhs"]) for r in obj["relations"]]
    else:
        lines = _lines(text)
        got_rank = int(_field(lines[0], "kernel rank: "))
        mt = int(_field(lines[1], "mt dimension: "))
        basis, rels = [], []
        pos = {n: j for j, n in enumerate(names)}
        for line in lines[2:]:
            if line.startswith("generator: "):
                v = [0] * g
                for sign, c, name in _GEN_TERM.findall(_field(line, "generator: ")):
                    v[pos[name]] += (-1 if sign == "-" else 1) * int(c or 1)
                basis.append(v)
            else:
                rels.append(parse_relation(_field(line, "relation: ")))
    expect(got_rank + mt == g + 1, "rank + mt_dimension != g + 1")
    expect(got_rank == rank, f"kernel rank {got_rank}, expected {rank}")
    expect(len(basis) == rank and len(rels) == rank, "basis or relation count differs from the rank")
    expect(rational_rank(basis) == rank, "kernel basis is not independent")
    for v in basis + [relation_vector(lhs, rhs, index) for lhs, rhs in rels]:
        expect(len(v) == g and _in_kernel(rows, v), "vector outside the kernel")


def check_relations(job, text, obj) -> None:
    g, names, rank, rows = _simple_kernel(job)
    index = {f"Th[{n}]": j for j, n in enumerate(names)}
    if obj is not None:
        expect(obj["side"] == "simple", "wrong side")
        rels = [(r["lhs"], r["rhs"]) for r in obj["relations"]]
    else:
        lines = _lines(text)
        count = int(_field(lines[0], "relations: "))
        rels = [parse_relation(_field(line, "relation: ")) for line in lines[1:]]
        expect(count == len(rels), "relation count differs from the relation lines")
    vecs = [relation_vector(lhs, rhs, index) for lhs, rhs in rels]
    expect(len(vecs) == rank and rational_rank(vecs) == rank, f"expected {rank} independent relations")
    expect(all(_in_kernel(rows, v) for v in vecs), "relation outside the kernel")


def _hodge_universe(job) -> tuple:
    """(slots, holomorphy test per group condition) for a Pohlmann count.

    Weyl slots are (subset, copy); subset I is holomorphic under t exactly
    when 1 is not in t.I, which depends only on whether t flips 1 and on
    m = t^-1(1): the condition is "exactly p slots contain m", for each m.
    Cyclic slots are (residue, copy); residue r is holomorphic under
    translation by t exactly when r + t is in phi.
    """
    g, p, n = job.meta["g"], job.meta["p"], job.meta["n"]
    if job.input is None:
        bases = list(range(1 << g))
        tests = [lambda b, m=m: bool(b >> m & 1) for m in range(g)]
    else:
        M, phi = job.input["cyclic"]["M"], job.input["cyclic"]["phi"]
        phiset = {a % M for a in phi}
        bases = sorted(phiset) + sorted((a + M // 2) % M for a in phiset)
        tests = [lambda r, t=t: (r + t) % M in phiset for t in range(M)]
    slots = [(b, c) for c in range(1, n + 1) for b in bases]
    return slots, tests, p


def _pohlmann_ok(cycle, tests, p) -> bool:
    return all(sum(test(b) for b, _ in cycle) == p for test in tests)


def check_hodge(job, text, obj) -> None:
    slots, tests, p = _hodge_universe(job)
    want = sum(_pohlmann_ok(c, tests, p) for c in itertools.combinations(slots, 2 * p))
    cyclic = job.input is not None
    if cyclic:
        M, phi = job.input["cyclic"]["M"], job.input["cyclic"]["phi"]
    if obj is not None:
        expect(obj["size"] == len(obj["basis"]), "size differs from the basis length")
        cycles = []
        for c in obj["basis"]:
            if cyclic:
                cycles.append(tuple(((phi[s["phi"] - 1] + (M // 2 if s["bar"] else 0)) % M, s["copy"]) for s in c))
            else:
                cycles.append(tuple((_bits(s["set"]), s["copy"]) for s in c))
    else:
        lines = _lines(text)
        size = int(_field(lines[0], "basis size: "))
        cycles = []
        for k, line in enumerate(lines[1:]):
            slots_text = _field(line, f"{k}: ").split(" ")
            cycle = []
            for s in slots_text:
                base, _, copy = s.rpartition("@")
                cycle.append((int(base[1:-1]) if cyclic else _parse_set(base), int(copy)))
            cycles.append(tuple(cycle))
        expect(size == len(cycles), "basis size differs from the cycle lines")
    expect(len(cycles) == want, f"basis size {len(cycles)}, expected {want} Pohlmann cycles")
    expect(len({frozenset(c) for c in cycles}) == len(cycles), "repeated cycle")
    for c in cycles:
        expect(len(set(c)) == 2 * p and _pohlmann_ok(c, tests, p), "cycle fails the Pohlmann condition")


def _weyl_support(g: int, q) -> int:
    I, J, K, L = q
    full = (1 << g) - 1
    out = set()
    for perm in itertools.permutations(range(1, g + 1)):
        moved = [sp_act((0, perm), x) for x in (I, J, K ^ full, L ^ full)]
        for f in range(1 << g):
            a, b, c, d = (x ^ f for x in moved)
            out.add((frozenset((a, b)), frozenset((c, d))))
    return len(out)


def _canonical_form(q) -> tuple:
    I, J, K, L = q
    r = (I ^ J).bit_count() + 1
    if {I, J} == {K, L}:
        return r, 1
    return r, 1 + min((I ^ K).bit_count(), (I ^ L).bit_count(), (J ^ K).bit_count(), (J ^ L).bit_count())


def check_support(job, text, obj) -> None:
    g = job.meta["g"]
    q1 = [_bits(x) for x in job.input["first"]]
    size = _weyl_support(g, q1)
    want = {"support_size": size, "canonical_form": list(_canonical_form(q1)),
            "second_support_size": size, "equivalent": True}
    if obj is None:
        lines = _lines(text)
        expect(len(lines) == 4, "expected four support lines")
        r, s = re.fullmatch(r"canonical form: r=(\d+) s=(\d+)", lines[1]).groups()
        obj = {"support_size": int(_field(lines[0], "support size: ")),
               "canonical_form": [int(r), int(s)],
               "second_support_size": int(_field(lines[2], "second support size: ")),
               "equivalent": {"yes": True, "no": False}[_field(lines[3], "equivalent: ")]}
    expect(obj == want, f"support report {obj} differs from {want}")


def check_sl2(job, text, obj) -> None:
    g = job.meta["g"]
    tails = sorted((b for b in range(1 << g) if not b & 1), key=lambda b: subset_rank(g, b))
    if obj is not None:
        expect(obj["g"] == g, "wrong g")
        expect([_bits(r["U"]) for r in obj["reports"]] == tails, "index sets differ")
        keys = ("bracket_vv_zero", "bracket_vvbar_diagonal", "triple_identities")
        expect(all(r[k] is True for r in obj["reports"] for k in keys), "an sl2 check failed")
    else:
        want = [f"U={subset_str(b)}: pass" for b in tails] + ["all checks passed"]
        expect(_lines(text) == want, "sl2 report differs from all-pass")


_CHECKS = {
    "reduce": check_reduce,
    "weyl_relations": check_weyl_relations,
    "orbits": check_orbits,
    "compagnons": check_compagnons,
    "reflex": check_reflex,
    "kernel": check_kernel,
    "relations": check_relations,
    "hodge": check_hodge,
    "support": check_support,
    "sl2": check_sl2,
}


def check_job(job, stdout: bytes, golden: bytes) -> list:
    """Problems with one job's stdout; [] when it is correct."""
    try:
        text = stdout.decode()
        obj = json.loads(text) if job.meta["format"] == "json" else None
        if job.check == "mu19":
            check_mu19(job, text, obj, golden)
        else:
            _CHECKS[job.check](job, text, obj)
    except CheckError as exc:
        return [str(exc)]
    except (UnicodeDecodeError, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return [f"unparseable output: {type(exc).__name__}: {exc}"]
    return []
