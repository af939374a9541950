"""Command-line surface: deterministic reports over the package's solvers.

Every command reads JSON input (where it takes input at all), renders either
a plain-text table or JSON, and exits 0 on success, 1 on a domain error with
a message naming the violated precondition, 2 on a usage error.  Output is
byte-for-byte deterministic for fixed inputs; no network access and no
environment-variable configuration.

Each command handler imports the solvers it uses when it runs, so a
command loads only its own part of the package (sl2-check never loads the
lattice code, orbits never loads fractions) and building the parser loads
none of it.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import POHLMANN_HARD_BUDGET

# the worked cyclotomic regression: base pair, its reflex, and the two
# factorizations through the compagnon index set L = {5, 6}
_MU19_M = 18
_MU19_PHI = (0, 2, 3, 6, 10, 13, 14, 16, 17)
_MU19_PHI_STAR = (0, 1, 2, 4, 5, 8, 12, 15, 16)
_MU19_L = (5, 6)
_MU19_MEDIATED = (((0, 17), 3), ((2, 14), 6))


def _set_str(I) -> str:
    return "{" + ",".join(str(m) for m in I.members()) + "}"


def _labels_str(labels) -> str:
    return " ".join(f"[{a}]" for a in labels)


def _slot_str(slot, copy, spec) -> str:
    """A subset slot of the anti-Weyl variety (spec None), or a label slot
    named by spec."""
    if spec is None:
        return f"{_set_str(slot)}@{copy}"
    return f"[{spec.label_name(slot)}]@{copy}"


def _cycle_str(c, spec) -> str:
    if not c.entries:
        return "(empty)"
    return " ".join(_slot_str(s, l, spec) for s, l in c.entries)


def _cycle_json(c, spec) -> list:
    if spec is None:
        return [{"set": list(slot.members()), "copy": copy} for slot, copy in c.entries]
    return [{"phi": slot.index, "bar": slot.bar, "copy": copy} for slot, copy in c.entries]


def _signed_sum(row, names) -> str:
    parts = []
    for name, c in zip(names, row):
        if c == 0:
            continue
        term = ("" if abs(c) == 1 else f"{abs(c)}*") + f"[{name}]"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) if parts else "0"


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _check(value, shape, name: str = ""):
    """value, if it has the JSON shape: int, [shape] for a list of that
    shape, or {key: shape} for an object with (at least) those keys;
    otherwise a ValueError naming the offending field."""
    if shape is int:
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer")
    elif isinstance(shape, list):
        if not isinstance(value, list):
            raise ValueError(f"{name} must be a list")
        for k, item in enumerate(value):
            _check(item, shape[0], f"{name}[{k}]")
    else:
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be an object")
        for key, sub in shape.items():
            if key not in value:
                raise ValueError(f'{name or "input"} needs "{key}"')
            _check(value[key], sub, f"{name}.{key}" if name else key)
    return value


def spec_from_json(data: dict):
    """The CMPairSpec of {"cyclic": {"M": int, "phi": [int]}}, {"weyl": g}
    or {"g": g, "generators": [{"flips": [int], "perm": [int]}]}."""
    from .cmtypes import CMPairSpec
    from .galois import from_generators
    from .hyperoct import SignedPerm

    if "cyclic" in data:
        c = _check(data["cyclic"], {"M": int, "phi": [int]}, "cyclic")
        return CMPairSpec.from_cyclic(c["M"], c["phi"])
    if "weyl" in data:
        return CMPairSpec.weyl(_check(data["weyl"], int, "weyl"))
    if "generators" in data:
        _check(data, {"g": int, "generators": [{"flips": [int], "perm": [int]}]})
        g = data["g"]
        gens = [SignedPerm.make(g, x["flips"], x["perm"]) for x in data["generators"]]
        group = from_generators(g, gens)
        return CMPairSpec(
            group,
            tuple(f"phi{j}" for j in range(1, group.g + 1)),
            tuple(f"phibar{j}" for j in range(1, group.g + 1)),
        )
    raise ValueError('input needs "cyclic", "weyl" or "generators"')


def _load_spec(path: str):
    return spec_from_json(_read_json(path))


def _label_table(spec):
    """Pairs (label, orbit index set I([label])) in label order."""
    from .hyperoct import Subset, act_subset

    empty = Subset.empty(spec.g)
    return [
        (a, act_subset(spec.group.element_for_label(a), empty))
        for a in sorted(spec.group.labels)
    ]


def _cmd_orbits(args):
    from .cmtypes import orbit_decomposition

    spec = _load_spec(args.input)
    orbits = orbit_decomposition(spec.group)
    lines = []
    table = None
    if spec.group.labels is not None:
        rows = _label_table(spec)
        table = {str(a): list(I.members()) for a, I in rows}
        lines.append("orbit table:")
        lines.extend(f"I([{a}]) = {_set_str(I)}" for a, I in rows)
    lines.append(f"orbits: {len(orbits)}")
    lines.extend(
        f"orbit {k}: degree {len(o)}, key {_set_str(o[0])}"
        for k, o in enumerate(orbits)
    )
    obj = {
        "table": table,
        "orbits": [
            {"degree": len(o), "key": list(o[0].members()),
             "members": [list(I.members()) for I in o]}
            for o in orbits
        ],
    }
    return obj, lines


def _cmd_reflex(args):
    from .cmtypes import reflex_labels, reflex_type

    spec = _load_spec(args.input)
    ref = reflex_type(spec)
    labels = reflex_labels(spec)
    lines = [
        f"reflex degree: {ref.degree}",
        f"reflex labels: {_labels_str(labels)}",
    ]
    lines.extend(f"type {_set_str(I)}" for I in ref.cm_type)
    obj = {
        "degree": ref.degree,
        "labels": list(labels),
        "cm_type": [list(I.members()) for I in ref.cm_type],
    }
    return obj, lines


def _cmd_compagnons(args):
    from .cmtypes import compagnon_labels, orbit_decomposition, reflex_labels

    spec = _load_spec(args.input)
    orbits = orbit_decomposition(spec.group)
    labeled = spec.group.labels is not None
    lines = [f"compagnons: {len(orbits)}"]
    items = []
    for k, orbit in enumerate(orbits):
        key = orbit[0]
        labels = None
        if labeled:
            labels = reflex_labels(spec) if k == 0 else compagnon_labels(spec, key)
        line = f"compagnon {k}: degree {len(orbit)}, key {_set_str(key)}"
        if labels is not None:
            line += f", labels {_labels_str(labels)}"
        lines.append(line)
        items.append(
            {"degree": len(orbit), "key": list(key.members()),
             "labels": None if labels is None else list(labels)}
        )
    return {"compagnons": items}, lines


def _kernel_report(spec):
    from .reciprocity import SIMPLE, kernel_N, relation_to_json, relations_from_kernel, render_relation

    lattice = kernel_N(spec)
    mt = spec.g + 1 - lattice.rank
    symbols = [f"Th[{name}]" for name in spec.phi_names]
    rels = relations_from_kernel(lattice, SIMPLE)
    lines = [
        f"kernel rank: {lattice.rank}",
        f"mt dimension: {mt}",
    ]
    lines.extend(
        f"generator: {_signed_sum(row, spec.phi_names)}"
        for row in lattice.basis.entries
    )
    lines.extend(f"relation: {render_relation(r, symbols)}" for r in rels)
    obj = {
        "rank": lattice.rank,
        "mt_dimension": mt,
        "basis": [list(row) for row in lattice.basis.entries],
        "relations": [relation_to_json(r, symbols) for r in rels],
    }
    return obj, lines, rels


def _cmd_kernel(args):
    obj, lines, _ = _kernel_report(_load_spec(args.input))
    return obj, lines


def _cmd_relations(args):
    from .intlattice import kernel_basis
    from .reciprocity import (
        ANTIWEYL,
        SIMPLE,
        default_symbols,
        kernel_N,
        rec_star_antiweyl,
        relation_to_json,
        relations_from_kernel,
        render_relation,
    )

    if args.weyl_full:
        if args.g is None:
            raise ValueError("--weyl-full needs --g")
        lattice = kernel_basis(rec_star_antiweyl(args.g))
        rels = relations_from_kernel(lattice, ANTIWEYL)
        symbols = default_symbols(ANTIWEYL, args.g)
        side = ANTIWEYL
    else:
        if args.input is None:
            raise ValueError("needs --input FILE or --weyl-full with --g")
        spec = _load_spec(args.input)
        rels = relations_from_kernel(kernel_N(spec), SIMPLE)
        symbols = [f"Th[{name}]" for name in spec.phi_names]
        side = SIMPLE
    lines = [f"relations: {len(rels)}"]
    lines.extend(f"relation: {render_relation(r, symbols)}" for r in rels)
    obj = {"side": side, "relations": [relation_to_json(r, symbols) for r in rels]}
    return obj, lines


def _cmd_hodge_basis(args):
    from .hodge import pohlmann_basis

    if args.weyl_full:
        if args.g is None:
            raise ValueError("--weyl-full needs --g")
        target, spec = args.g, None
    else:
        if args.input is None:
            raise ValueError("needs --input FILE or --weyl-full with --g")
        target = spec = _load_spec(args.input)
    basis = pohlmann_basis(target, args.p, args.n, args.budget)
    lines = [f"basis size: {len(basis)}"]
    lines.extend(f"{k}: {_cycle_str(c, spec)}" for k, c in enumerate(basis))
    obj = {
        "p": args.p,
        "n": args.n,
        "size": len(basis),
        "basis": [_cycle_json(c, spec) for c in basis],
    }
    return obj, lines


def _certificate_json(cert, symbols, verified: bool) -> dict:
    from .reciprocity import relation_to_json

    return {
        "target": relation_to_json(cert.target, symbols),
        "parts": [
            {"gen": relation_to_json(gen, symbols), "coeff": coeff}
            for gen, coeff in cert.parts
        ],
        "verified": verified,
    }


def _cmd_reduce(args):
    from .hodge import reduce_to_low_degree
    from .hyperoct import check_group_size
    from .reciprocity import ANTIWEYL, MonomialRelation, default_symbols, render_relation

    data = _check(_read_json(args.input), {"g": int, "vec": [int]})
    g = data["g"]
    check_group_size(g)
    rel = MonomialRelation(ANTIWEYL, g, tuple(data["vec"]), _check(data.get("tau", 0), int, "tau"))
    cert = reduce_to_low_degree(rel, g)
    symbols = default_symbols(ANTIWEYL, g)
    verified = cert.verify()
    lines = [
        f"target: {render_relation(rel, symbols)}",
        f"parts: {len(cert.parts)}",
    ]
    lines.extend(
        f"{coeff:+d} * {render_relation(gen, symbols)}" for gen, coeff in cert.parts
    )
    lines.append("verified: yes" if verified else "verified: no")
    return _certificate_json(cert, symbols, verified), lines


def _cmd_support(args):
    from .galois import weyl_full
    from .hodge import canonical_form_weyl, quadruple_support
    from .hyperoct import Subset

    data = _check(_read_json(args.input), {"g": int, "first": [[int]]})
    g = data["g"]
    group = weyl_full(g)

    def quad(entry):
        if len(entry) != 4:
            raise ValueError("a quadruple has four index sets")
        return tuple(Subset.of(g, part) for part in entry)

    q1 = quad(data["first"])
    s1 = quadruple_support(q1, group)
    lines = [f"support size: {len(s1)}"]
    obj = {"support_size": len(s1)}
    try:
        r, s = canonical_form_weyl(q1, g)
    except ValueError:
        obj["canonical_form"] = None
    else:
        lines.append(f"canonical form: r={r} s={s}")
        obj["canonical_form"] = [r, s]
    if "second" in data:
        q2 = quad(_check(data["second"], [[int]], "second"))
        s2 = quadruple_support(q2, group)
        equal = s1 == s2
        lines.append(f"second support size: {len(s2)}")
        lines.append(f"equivalent: {'yes' if equal else 'no'}")
        obj["second_support_size"] = len(s2)
        obj["equivalent"] = equal
    return obj, lines


def _cmd_sl2_check(args):
    from .cmtypes import tail_subsets
    from .sl2check import check_sl2

    g = args.g
    if g < 2:
        raise ValueError("sl2-check needs --g >= 2")
    reports = []
    lines = []
    for U in tail_subsets(g):
        report = check_sl2(U, g)
        failed = [k for k, ok in report.items() if not ok]
        status = "pass" if not failed else "FAIL (" + ", ".join(failed) + ")"
        lines.append(f"U={_set_str(U)}: {status}")
        reports.append({"U": list(U.members()), **report})
    ok = all(all(r[k] for k in ("bracket_vv_zero", "bracket_vvbar_diagonal", "triple_identities")) for r in reports)
    lines.append("all checks passed" if ok else "some checks FAILED")
    return {"g": g, "reports": reports}, lines


def _cmd_example_mu19(args):
    from .cmtypes import CMPairSpec, compagnon_labels, orbit_decomposition, reflex_labels, subset_rank
    from .hodge import admissible, quadruple_to_cycle, reduce_to_low_degree, relation_of_cycle
    from .hyperoct import Subset
    from .reciprocity import ANTIWEYL, MonomialRelation, default_symbols, render_relation

    spec_star = CMPairSpec.from_cyclic(_MU19_M, list(_MU19_PHI_STAR))
    spec_phi = CMPairSpec.from_cyclic(_MU19_M, list(_MU19_PHI))
    g = spec_star.g
    lines = [
        "mu19 regression report",
        "======================",
        "",
        f"base cyclic pair: M={_MU19_M}, phi* = {_labels_str(_MU19_PHI_STAR)}",
        f"reflex cyclic pair: M={_MU19_M}, phi = {_labels_str(_MU19_PHI)}",
        "",
        "orbit table",
        "-----------",
    ]
    table = _label_table(spec_star)
    lines.extend(f"I([{a}]) = {_set_str(I)}" for a, I in table)

    orbits = orbit_decomposition(spec_star.group)
    degree_census = {}
    for o in orbits:
        degree_census[len(o)] = degree_census.get(len(o), 0) + 1
    lines += [
        "",
        "orbit census",
        "------------",
        f"orbits: {len(orbits)}",
        "degrees: " + ", ".join(
            f"{d} x {degree_census[d]}" for d in sorted(degree_census)
        ),
    ]

    recovered = reflex_labels(spec_star)
    lines += [
        "",
        "reflex recovery",
        "---------------",
        f"labels with 1 not in I([a]): {_labels_str(recovered)}",
        f"matches phi: {'yes' if tuple(recovered) == _MU19_PHI else 'no'}",
    ]

    L = Subset.of(g, _MU19_L)
    Lp = Subset.of(g, (4, 6, 7))
    labels_L = compagnon_labels(spec_star, L)
    labels_Lp = compagnon_labels(spec_star, Lp)
    lines += [
        "",
        "compagnons",
        "----------",
        f"L = {_set_str(L)}: {_labels_str(labels_L)}",
        f"L' = {_set_str(Lp)}: {_labels_str(labels_Lp)}",
    ]

    kernel_obj, kernel_lines, rels = _kernel_report(spec_phi)
    lines += ["", "period kernel (reflex pair)", "---------------------------"]
    lines += kernel_lines

    # lift each label relation to the anti-Weyl side via the orbit table
    index_of = dict(table)
    phi_list = list(_MU19_PHI)

    def lift(rel):
        vec = [0] * (1 << g)
        for j, c in enumerate(rel.vec):
            vec[subset_rank(index_of[phi_list[j]])] += c
        return MonomialRelation(ANTIWEYL, g, tuple(vec))

    symbols = [f"Th[{name}]" for name in spec_phi.phi_names]
    antiweyl_symbols = default_symbols(ANTIWEYL, g)
    certificates = []
    lines += ["", "factorization", "-------------"]
    for rel in rels:
        cubic = lift(rel)
        lines.append(f"cubic: {render_relation(rel, symbols)}")
        if rel.vec[phi_list.index(17)] != 0:
            for (a, b), mediator in _MU19_MEDIATED:
                quad = (index_of[a], index_of[b], index_of[mediator], L)
                ok = admissible(*quad)
                quad_str = ", ".join(_set_str(X) for X in quad)
                lines.append(
                    f"  quadruple ({quad_str}): "
                    + ("admissible" if ok else "NOT admissible")
                )
            qa = relation_of_cycle(
                quadruple_to_cycle(index_of[0], index_of[17], index_of[3], L)
            )
            qb = relation_of_cycle(
                quadruple_to_cycle(index_of[2], index_of[14], index_of[6], L)
            )
            diff = tuple(x - y for x, y in zip(qa.vec, qb.vec))
            match = diff == cubic.vec or tuple(-d for d in diff) == cubic.vec
            lines.append(
                "  quadratic difference reproduces the cubic: "
                + ("yes" if match else "no")
            )
        cert = reduce_to_low_degree(cubic, g)
        verified = cert.verify()
        signs = sorted({c for _, c in cert.parts})
        sign_str = "{" + ",".join(f"{c:+d}" for c in signs) + "}"
        lines.append(
            f"  reduction certificate: {len(cert.parts)} parts, "
            f"coefficients in {sign_str}, "
            + ("verified" if verified else "NOT verified")
        )
        certificates.append(_certificate_json(cert, antiweyl_symbols, verified))

    obj = {
        "phi": list(_MU19_PHI),
        "phi_star": list(_MU19_PHI_STAR),
        "orbit_table": {str(a): list(I.members()) for a, I in table},
        "orbit_degrees": {str(d): c for d, c in sorted(degree_census.items())},
        "reflex_labels": list(recovered),
        "compagnon_L": list(labels_L),
        "compagnon_Lprime": list(labels_Lp),
        "kernel": kernel_obj,
        "certificates": certificates,
    }
    return obj, lines


_COMMANDS = {
    "orbits": _cmd_orbits,
    "reflex": _cmd_reflex,
    "compagnons": _cmd_compagnons,
    "kernel": _cmd_kernel,
    "relations": _cmd_relations,
    "hodge-basis": _cmd_hodge_basis,
    "reduce": _cmd_reduce,
    "support": _cmd_support,
    "sl2-check": _cmd_sl2_check,
    "example-mu19": _cmd_example_mu19,
}


def _positive(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmlab",
        description="Monomial period relations, Hodge-class bases and sl2 checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, description, **flags):
        sp = sub.add_parser(name, help=description, description=description)
        sp.add_argument("--format", choices=("table", "json"), default="table")
        if flags.get("input"):
            sp.add_argument("--input", required=flags["input"] == "required",
                            metavar="FILE", help="JSON input file")
        if flags.get("weyl"):
            sp.add_argument("--weyl-full", action="store_true",
                            help="use the full hyperoctahedral group at --g")
            sp.add_argument("--g", type=_positive)
        if flags.get("pn"):
            sp.add_argument("--p", type=int, required=True)
            sp.add_argument("--n", type=int, required=True)
            sp.add_argument("--budget", type=_positive, default=POHLMANN_HARD_BUDGET, metavar="N",
                            help="fail once the Pohlmann walk has visited more than N nodes (hard cap 10^7)")
        return sp

    add("orbits", "orbit decomposition of the group on index sets", input="required")
    add("reflex", "reflex CM type of a labeled pair", input="required")
    add("compagnons", "all simple factors with degrees and labels", input="required")
    add("kernel", "period-relation kernel, rank and monomial relations", input="required")
    add("relations", "sign-normalized monomial relations", input="optional", weyl=True)
    add("hodge-basis", "Hodge-class basis in degree p at power n",
        input="optional", weyl=True, pn=True)
    add("reduce", "degree <= 2 reduction certificate for a relation", input="required")
    add("support", "support size, canonical form and equivalence of quadruples",
        input="required")
    sp = sub.add_parser("sl2-check", help="sl2-triple verification over all index sets",
                        description="sl2-triple verification over all index sets")
    sp.add_argument("--format", choices=("table", "json"), default="table")
    sp.add_argument("--g", type=_positive, required=True)
    sp = sub.add_parser("example-mu19", help="worked cyclotomic regression report",
                        description="worked cyclotomic regression report")
    sp.add_argument("--format", choices=("table", "json"), default="table")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        obj, lines = handler(args)
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    try:
        if args.format == "json":
            print(json.dumps(obj, indent=2, sort_keys=True))
        else:
            print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early: send what is still buffered to
        # devnull so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
