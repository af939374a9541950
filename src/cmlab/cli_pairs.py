"""Command handlers on one CM pair: orbits, reflex and compagnons."""
from .cmtypes import labeled_translates, labels_of, orbit_decomposition, translate_masks
from .hyperoct import members, subset_str


def labels_str(labels) -> str:
    return " ".join(f"[{a}]" for a in labels)


def cmd_orbits(spec, args, as_json):
    orbits = orbit_decomposition(spec.group)
    rows = labeled_translates(spec, 0) if spec.residues is not None else None
    if as_json:
        return {
            "table": None if rows is None else {str(a): list(members(I)) for a, I in enumerate(rows)},
            "orbits": [
                {"degree": len(o), "key": list(members(o[0])),
                 "members": [list(members(I)) for I in o]}
                for o in orbits
            ],
        }
    lines = []
    if rows is not None:
        lines.append("orbit table:")
        lines.extend(f"I([{a}]) = {subset_str(I)}" for a, I in enumerate(rows))
    lines.append(f"orbits: {len(orbits)}")
    lines.extend(f"orbit {k}: degree {len(o)}, key {subset_str(o[0])}" for k, o in enumerate(orbits))
    return lines


def cmd_reflex(spec, args, as_json):
    # labels_of refuses an unlabeled pair before the orbit is walked
    labels = labels_of(spec, (1 << spec.g) - 1)
    masks = translate_masks(spec.group)
    # the members avoiding 1, already in rank order
    cm_type = [m for m in masks if not m & 1]
    if as_json:
        return {
            "degree": len(masks),
            "labels": labels,
            "cm_type": [list(members(I)) for I in cm_type],
        }
    return [
        f"reflex degree: {len(masks)}",
        f"reflex labels: {labels_str(labels)}",
        *(f"type {subset_str(I)}" for I in cm_type),
    ]


def cmd_compagnons(spec, args, as_json):
    full = (1 << spec.g) - 1
    # orbit 0, the reflex, keeps the a with 1 not in I([a]): the labels of its conjugate, the full mask
    found = [(len(o), o[0], None if spec.residues is None else labels_of(spec, full if k == 0 else o[0]))
             for k, o in enumerate(orbit_decomposition(spec.group))]
    if as_json:
        return {"compagnons": [
            {"degree": degree, "key": list(members(key)), "labels": labels}
            for degree, key, labels in found
        ]}
    lines = [f"compagnons: {len(found)}"]
    for k, (degree, key, labels) in enumerate(found):
        line = f"compagnon {k}: degree {degree}, key {subset_str(key)}"
        if labels is not None:
            line += f", labels {labels_str(labels)}"
        lines.append(line)
    return lines
