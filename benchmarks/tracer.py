"""Run one cmlab command with a timing span around every public function.

Usage: python3 tracer.py SPANS_OUT JOB_ID -- CMLAB_ARGS...

Every public function of every cmlab module is wrapped in its defining
module and in every cmlab module that imported it by name: `from .x import
y` copies the binding, so patching only the defining module would miss the
calls made from `cli` and `hodge`.  A span is (name, start, end, parent),
with parent the index of the enclosing span (-1 for the root, `cli.main`).
Spans and work counters stay in memory and are written to SPANS_OUT as one
JSON object when the command ends.

The hyperoct operations and the subset-order helpers of cmtypes are called
millions of times from inner loops, so they are counted, not timed: their
time lands in the self time of the calling span.

stdout is the command's own output, byte for byte; the benchmark compares it
with an untraced run of the same job.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from importlib import import_module
from math import comb

LAYERS = ("hyperoct", "intlattice", "galois", "cmtypes", "reciprocity", "hodge", "sl2check", "cli")

# public functions that are counted instead of timed
COUNTED = {
    "hyperoct": None,  # every public function of the module
    "cmtypes": {"subset_rank", "subset_unrank"},
}


class Recorder:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self.stack = []
        self.open = defaultdict(int)
        self.counters = defaultdict(int)


def _max_bits(rows) -> int:
    return max((max(map(abs, row), default=0) for row in rows), default=0).bit_length()


def _hnf_cells(rec, matrix, result_rows):
    rec.counters["intlattice.hnf_cells"] += matrix.rows * matrix.cols
    bits = max(_max_bits(matrix.entries), _max_bits(result_rows))
    rec.counters["intlattice.max_entry_bits"] = max(rec.counters["intlattice.max_entry_bits"], bits)


def _pohlmann(rec, args, kwargs, result):
    spec, p, n = args[:3]
    g = spec if isinstance(spec, int) else None
    slots = n * ((1 << g) if g is not None else 2 * spec.g)
    rec.counters["hodge.candidates"] += comb(slots, 2 * p)
    rec.counters["hodge.basis_size"] += len(result)


# work counters taken from the arguments and result of a timed call
HOOKS = {
    "reciprocity.default_symbols": lambda rec, a, k, r: _bump(rec, "reciprocity.symbols_built", len(r)),
    "reciprocity.render_relation": lambda rec, a, k, r: _bump(rec, "reciprocity.renders"),
    "reciprocity.relation_to_json": lambda rec, a, k, r: _bump(rec, "reciprocity.renders"),
    "reciprocity.relations_from_kernel": lambda rec, a, k, r: _bump(rec, "reciprocity.relations", len(r)),
    "intlattice.hnf": lambda rec, a, k, r: _hnf_cells(rec, a[0], r.entries),
    "intlattice.kernel_basis": lambda rec, a, k, r: _hnf_cells(rec, a[0], r.basis.entries),
    "hodge.pohlmann_basis": _pohlmann,
    "hodge.quadruple_support": lambda rec, a, k, r: _bump(rec, "hodge.translates", len(a[1].elements)),
    "hodge.reduce_to_low_degree": lambda rec, a, k, r: _bump(rec, "hodge.cert_parts", len(r.parts)),
    "cmtypes.orbit_decomposition": lambda rec, a, k, r: _bump(rec, "cmtypes.decompositions"),
    "sl2check.bracket": lambda rec, a, k, r: _bump(rec, "sl2check.brackets"),
    "sl2check.build_v": lambda rec, a, k, r: _bump(rec, "sl2check.nilpotents_built"),
    "sl2check.build_vbar": lambda rec, a, k, r: _bump(rec, "sl2check.nilpotents_built"),
}


def _bump(rec, key, n=1):
    rec.counters[key] += n


def timed(rec, name, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        spans = rec.spans
        index = len(spans)
        spans.append(None)
        parent = rec.stack[-1] if rec.stack else -1
        rec.stack.append(index)
        rec.open[name] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            rec.open[name] -= 1
            rec.stack.pop()
            spans[index] = (name, start - rec.origin, end - rec.origin, parent)
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    return wrapper


def counted(rec, name, fn):
    layer = name.split(".")[0]
    key = f"{name}.calls"
    scan = name == "cmtypes.subset_rank"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counters = rec.counters
        counters[key] += 1
        counters[f"{layer}.counted_calls"] += 1
        if scan and rec.open["cmtypes.orbit_decomposition"]:
            counters["cmtypes.subsets_scanned"] += 1
        return fn(*args, **kwargs)

    return wrapper


def _count_constructions(rec, cls, key, size=None):
    original = cls.__post_init__

    def post_init(self):
        rec.counters[key] += 1 if size is None else size(self)
        original(self)

    cls.__post_init__ = post_init


def install(rec) -> None:
    """Wrap the public functions of every cmlab module, everywhere bound."""
    modules = {layer: import_module(f"cmlab.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        counted_names = COUNTED.get(layer, set())
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if layer in COUNTED and (counted_names is None or attr in counted_names):
                wrappers[obj] = counted(rec, name, obj)
            else:
                wrappers[obj] = timed(rec, name, obj)
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
    _count_constructions(rec, modules["hyperoct"].SignedPerm, "hyperoct.signedperm.made")
    _count_constructions(rec, modules["galois"].GaloisGroup, "galois.elements", lambda G: len(G.elements))


def main(argv) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_OUT JOB_ID -- CMLAB_ARGS...", file=sys.stderr)
        return 2
    out_path, job_id, cli_args = argv[0], int(argv[1]), argv[3:]
    rec = Recorder()
    install(rec)
    cli = import_module("cmlab.cli")
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"job": job_id, "spans": rec.spans, "counters": rec.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
