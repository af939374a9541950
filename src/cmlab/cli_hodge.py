"""Command handlers on Hodge classes: hodge-basis and support."""
from __future__ import annotations

from .cli import _check, _load_source, _read_json
from .galois import weyl_full
from .hodge import canonical_form_weyl, pohlmann_basis, quadruple_support
from .hyperoct import Subset


def _slot_str(slot, copy, spec) -> str:
    """A subset slot of the anti-Weyl variety (spec None), or a label slot
    named by spec."""
    if spec is None:
        return f"{slot}@{copy}"
    return f"[{spec.label_name(slot)}]@{copy}"


def _slot_json(slot, copy, spec) -> dict:
    if spec is None:
        return {"set": list(slot.members()), "copy": copy}
    return {"phi": slot.index, "bar": slot.bar, "copy": copy}


def cmd_hodge_basis(args, as_json):
    target = _load_source(args)
    spec = None if isinstance(target, int) else target
    basis = pohlmann_basis(target, args.p, args.n, args.budget)
    render = _slot_json if as_json else _slot_str
    rendered = {}  # (slot, copy) -> its rendering, made once per command

    def slots(c) -> list:
        for entry in c.entries:
            if entry not in rendered:
                rendered[entry] = render(*entry, spec)
        return [rendered[entry] for entry in c.entries]

    if as_json:
        return {"p": args.p, "n": args.n, "size": len(basis), "basis": [slots(c) for c in basis]}
    lines = (f"{k}: {' '.join(slots(c)) or '(empty)'}" for k, c in enumerate(basis))
    return [f"basis size: {len(basis)}", *lines]


def cmd_support(args, as_json):
    data = _check(_read_json(args.input), {"g": int, "first": [[int]]})
    g = data["g"]
    group = weyl_full(g)

    def quad(name, entry):
        if len(entry) != 4:
            raise ValueError(f"{name} has {len(entry)} index sets, expected 4")
        parts = []
        for k, members in enumerate(entry):
            try:
                parts.append(Subset.of(g, members))
            except ValueError as exc:
                raise ValueError(f"{name}[{k}]: {exc}") from None
        return tuple(parts)

    q1 = quad("first", data["first"])
    s1 = quadruple_support(q1, group)
    try:
        form = canonical_form_weyl(q1, g)
    except ValueError:
        form = None
    s2 = None
    if "second" in data:
        s2 = quadruple_support(quad("second", _check(data["second"], [[int]], "second")), group)
    if as_json:
        obj = {"support_size": len(s1), "canonical_form": None if form is None else list(form)}
        if s2 is not None:
            obj["second_support_size"] = len(s2)
            obj["equivalent"] = s1 == s2
        return obj
    lines = [f"support size: {len(s1)}"]
    if form is not None:
        lines.append(f"canonical form: r={form[0]} s={form[1]}")
    if s2 is not None:
        lines.append(f"second support size: {len(s2)}")
        lines.append(f"equivalent: {'yes' if s1 == s2 else 'no'}")
    return lines
