"""Command handlers on Hodge classes: hodge-basis and support."""
from .hodge import canonical_form_weyl, pohlmann_basis, support_class
from .hyperoct import mask_of, members, subset_str, subset_unrank


def _slot_str(g, k, copy, spec) -> str:
    """Position k of a copy: an index set of the anti-Weyl variety at g
    (spec None), or phi_{k+1} (k < g) or phibar_{k-g+1}, named by spec."""
    if spec is None:
        return f"{subset_str(subset_unrank(g, k))}@{copy}"
    return f"[{spec.label_name(k % g + 1, k >= g)}]@{copy}"


def _slot_json(g, k, copy, spec) -> dict:
    if spec is None:
        return {"set": list(members(subset_unrank(g, k))), "copy": copy}
    return {"phi": k % g + 1, "bar": k >= g, "copy": copy}


def cmd_hodge_basis(target, args, as_json):
    spec = None if isinstance(target, int) else target
    g, base = (target, 1 << target) if spec is None else (spec.g, 2 * spec.g)
    basis = pohlmann_basis(target, args.p, args.n, args.budget)
    render = _slot_json if as_json else _slot_str
    rendered = {}  # slot -> its rendering, made once per command

    def slots(c) -> list:
        for s in c:
            if s not in rendered:
                copy, k = divmod(s, base)
                rendered[s] = render(g, k, copy + 1, spec)
        return [rendered[s] for s in c]

    if as_json:
        return {"p": args.p, "n": args.n, "size": len(basis), "basis": [slots(c) for c in basis]}
    lines = (f"{k}: {' '.join(slots(c)) or '(empty)'}" for k, c in enumerate(basis))
    return [f"basis size: {len(basis)}", *lines]


def cmd_support(data, args, as_json):
    g = data["g"]

    def quad(name, entry):
        if len(entry) != 4:
            raise ValueError(f"{name} has {len(entry)} index sets, expected 4")
        parts = []
        for k, elements in enumerate(entry):
            try:
                parts.append(mask_of(g, elements))
            except ValueError as exc:
                raise ValueError(f"{name}[{k}]: {exc}") from None
        return tuple(parts)

    q1 = quad("first", data["first"])
    size, key = support_class(q1, g)
    try:
        form = canonical_form_weyl(q1, g)
    except ValueError:
        form = None
    obj = {"support_size": size, "canonical_form": None if form is None else list(form)}
    if "second" in data:
        size2, key2 = support_class(quad("second", data["second"]), g)
        obj.update(second_support_size=size2, equivalent=key == key2)
    if as_json:
        return obj
    lines = [f"support size: {size}"]
    if form is not None:
        lines.append(f"canonical form: r={form[0]} s={form[1]}")
    if "equivalent" in obj:
        lines.append(f"second support size: {obj['second_support_size']}")
        lines.append(f"equivalent: {'yes' if obj['equivalent'] else 'no'}")
    return lines
