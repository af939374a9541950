"""Command handler of example-mu19, the worked cyclotomic regression report."""
from .cli_pairs import labels_str
from .cli_relations import certificate_json, kernel_report, period_symbols
from .cmtypes import CMPairSpec, labeled_translates, labels_of, orbit_decomposition
from .hyperoct import admissible, mask_of, members, subset_str
from .reciprocity import MonomialRelation, lift_relation, reduce_to_low_degree, render_relation

# the base pair, its reflex, the two factorizations through the compagnon
# index set L = {5, 6}, and the second compagnon index set L' = {4, 6, 7}
_MU19_M = 18
_MU19_PHI = (0, 2, 3, 6, 10, 13, 14, 16, 17)
_MU19_PHI_STAR = (0, 1, 2, 4, 5, 8, 12, 15, 16)
_MU19_L = (5, 6)
_MU19_L_PRIME = (4, 6, 7)
_MU19_MEDIATED = (((0, 17), 3), ((2, 14), 6))


def _factorization(rel, cubic, parts, table, L, symbols) -> list[str]:
    """The table lines of one lifted relation: its cubic, the two mediated
    quadruples of the relation that involves [17], and its certificate."""
    lines = [f"cubic: {render_relation(rel, symbols)}"]
    if dict(rel.terms).get(_MU19_PHI.index(17)):
        quads = [(table[a], table[b], table[mediator], L) for (a, b), mediator in _MU19_MEDIATED]
        lines += (f"  quadruple ({', '.join(map(subset_str, quad))}): "
                  + ("admissible" if admissible(*quad) else "NOT admissible") for quad in quads)
        # Th_I*Th_J ~ Th_K*Th_L of each quadruple, the second negated; the masks avoid 1, so none is complemented
        diff = MonomialRelation(cubic.g, ((X, s * e) for quad, s in zip(quads, (1, -1))
                                          for X, e in zip(quad, (1, 1, -1, -1))))
        match = cubic.normalized() == diff.normalized()
        lines.append("  quadratic difference reproduces the cubic: " + ("yes" if match else "no"))
    signs = "{" + ",".join(f"{c:+d}" for c in sorted({c for _, c in parts})) + "}"
    return [*lines, f"  reduction certificate: {len(parts)} parts, coefficients in {signs}, verified"]


def cmd_example_mu19(read, args, as_json):
    spec_star = CMPairSpec.from_cyclic(_MU19_M, list(_MU19_PHI_STAR))
    spec_phi = CMPairSpec.from_cyclic(_MU19_M, list(_MU19_PHI))
    g = spec_star.g
    table = labeled_translates(spec_star, 0)
    orbits = orbit_decomposition(spec_star.group)
    sizes = [len(o) for o in orbits]
    degree_census = {d: sizes.count(d) for d in sorted(set(sizes))}
    recovered = labels_of(spec_star, (1 << g) - 1)
    L, Lp = mask_of(g, _MU19_L), mask_of(g, _MU19_L_PRIME)
    labels_L, labels_Lp = labels_of(spec_star, L), labels_of(spec_star, Lp)
    kernel, rels = kernel_report(spec_phi, as_json)
    # lift each label relation to a Theta_I relation through the orbit table;
    # reduce_to_low_degree raises unless the certificate verifies
    masks = [table[a] for a in _MU19_PHI]
    cubics = [lift_relation(rel, masks) for rel in rels]
    lifted = [(rel, cubic, reduce_to_low_degree(cubic)) for rel, cubic in zip(rels, cubics)]

    if as_json:
        return {
            "phi": list(_MU19_PHI),
            "phi_star": list(_MU19_PHI_STAR),
            "orbit_table": {str(a): list(members(I)) for a, I in enumerate(table)},
            "orbit_degrees": {str(d): c for d, c in degree_census.items()},
            "reflex_labels": recovered,
            "compagnon_L": labels_L,
            "compagnon_Lprime": labels_Lp,
            "kernel": kernel,
            "certificates": [certificate_json(cubic, parts) for _, cubic, parts in lifted],
        }
    symbols = period_symbols(spec_phi)
    sections = {
        "orbit table": [f"I([{a}]) = {subset_str(I)}" for a, I in enumerate(table)],
        "orbit census": [f"orbits: {len(orbits)}",
                         "degrees: " + ", ".join(f"{d} x {c}" for d, c in degree_census.items())],
        "reflex recovery": [f"labels with 1 not in I([a]): {labels_str(recovered)}",
                            f"matches phi: {'yes' if tuple(recovered) == _MU19_PHI else 'no'}"],
        "compagnons": [f"L = {subset_str(L)}: {labels_str(labels_L)}",
                       f"L' = {subset_str(Lp)}: {labels_str(labels_Lp)}"],
        "period kernel (reflex pair)": kernel,
        "factorization": [line for lift in lifted for line in _factorization(*lift, table, L, symbols)],
    }
    lines = ["mu19 regression report", "======================", "",
             f"base cyclic pair: M={_MU19_M}, phi* = {labels_str(_MU19_PHI_STAR)}",
             f"reflex cyclic pair: M={_MU19_M}, phi = {labels_str(_MU19_PHI)}"]
    for title, body in sections.items():
        lines += ["", title, "-" * len(title), *body]
    return lines
