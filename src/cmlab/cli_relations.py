"""Command handlers on monomial relations: kernel, relations and reduce.

relations --weyl-full and reduce run only reciprocity (with hyperoct and
record); the period kernel of a pair loads the lattice code when it runs.
"""
from .reciprocity import (
    MonomialRelation,
    antiweyl_relations,
    kernel_N,
    reduce_to_low_degree,
    relation_to_json,
    relations_from_kernel,
    render_relation,
)


def _signed_sum(row, spec) -> str:
    parts = []
    for j, c in enumerate(row, start=1):
        if c == 0:
            continue
        term = ("" if abs(c) == 1 else f"{abs(c)}*") + f"[{spec.label_name(j)}]"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"


def period_symbols(spec) -> list[str]:
    """The period symbols Th[name] of a pair's embeddings phi_1..phi_g."""
    return [f"Th[{spec.label_name(j)}]" for j in range(1, spec.g + 1)]


def kernel_report(spec, as_json):
    """(the kernel command's report on a pair, its relations)."""
    lattice = kernel_N(spec)
    mt = spec.g + 1 - lattice.rank
    symbols = period_symbols(spec)
    rels = relations_from_kernel(lattice)
    if as_json:
        return {
            "rank": lattice.rank,
            "mt_dimension": mt,
            "basis": [list(row) for row in lattice.basis.entries],
            "relations": [relation_to_json(r, symbols) for r in rels],
        }, rels
    return [
        f"kernel rank: {lattice.rank}",
        f"mt dimension: {mt}",
        *(f"generator: {_signed_sum(row, spec)}" for row in lattice.basis.entries),
        *(f"relation: {render_relation(r, symbols)}" for r in rels),
    ], rels


def cmd_kernel(spec, args, as_json):
    return kernel_report(spec, as_json)[0]


def cmd_relations(source, args, as_json):
    if isinstance(source, int):
        kind, rels, symbols = "antiweyl", antiweyl_relations(source), None
    else:
        kind, rels, symbols = "simple", relations_from_kernel(kernel_N(source)), period_symbols(source)
    if as_json:
        return {"side": kind, "relations": [relation_to_json(r, symbols) for r in rels]}
    return [f"relations: {len(rels)}", *(f"relation: {render_relation(r, symbols)}" for r in rels)]


def certificate_json(target, parts) -> dict:
    """The parts of target from reduce_to_low_degree, which verified them."""
    return {
        "target": relation_to_json(target),
        "parts": [{"gen": relation_to_json(gen), "coeff": coeff} for gen, coeff in parts],
        "verified": True,
    }


def cmd_reduce(data, args, as_json):
    rel = MonomialRelation.from_vec(data["g"], data["vec"], data.get("tau", 0))
    # reduce_to_low_degree raises unless the certificate verifies
    parts = reduce_to_low_degree(rel)
    if as_json:
        return certificate_json(rel, parts)
    return [
        f"target: {render_relation(rel)}",
        f"parts: {len(parts)}",
        *(f"{coeff:+d} * {render_relation(gen)}" for gen, coeff in parts),
        "verified: yes",
    ]
