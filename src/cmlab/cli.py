"""Command-line surface: deterministic reports over the package's solvers.

Every command reads JSON input (where it takes input at all), renders either
a plain-text table or JSON, and exits 0 on success, 1 on a domain error with
a message naming the violated precondition, 2 on a usage error.  Output is
byte-for-byte deterministic for fixed inputs; no network access and no
environment-variable configuration.

This module holds the parser, the JSON input readers and main.  The
handlers live in one small module per family of commands (cli_pairs,
cli_relations, cli_hodge, cli_sl2, cli_mu19); main imports only the module
of the command it runs, and a handler imports the solvers it uses and
renders only the chosen --format.  So a command compiles and loads only its
own part of the package, and building the parser loads none of it: reduce
and relations --weyl-full load reciprocity, hyperoct and record;
hodge-basis --weyl-full and support load hodge, hyperoct and record, never
the group, lattice or relation code; sl2-check loads sl2check, hyperoct and
record.  A CM pair, read from --input or built by example-mu19, adds
cmtypes and galois.

main() without argv runs the process's own command line (the `cmlab`
console script and `python -m cmlab.cli`) and freezes the heap before it
returns, so the collection at interpreter exit skips every object and the
OS reclaims the memory; main(argv) leaves the collector as it is.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from importlib import import_module

from . import POHLMANN_HARD_BUDGET


def _read_json(path: str) -> dict:
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    except (OSError, ValueError, RecursionError) as exc:
        # besides I/O errors: bytes that are not UTF-8, an integer past the
        # digit limit, or nesting past the recursion limit
        raise ValueError(f"cannot read {path}: {exc}") from None
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


# the ground-set sizes an input may name; the library itself has no bound
MAX_G_GROUP = 24


def _check_group_size(g: int) -> int:
    """g, if it is a ground-set size the command line accepts."""
    if not 1 <= g <= MAX_G_GROUP:
        raise ValueError(f"ground-set size g={g} outside supported range 1..{MAX_G_GROUP}")
    return g


def spec_from_json(data: dict):
    """The CMPairSpec of {"cyclic": {"M": int, "phi": [int]}}, {"weyl": g}
    or {"g": g, "generators": [{"flips": [int], "perm": [int]}]}; an input
    with more than one of these keys is refused."""
    from .cmtypes import CMPairSpec
    from .galois import from_generators
    from .hyperoct import SignedPerm

    shapes = [f'"{key}"' for key in ("cyclic", "weyl", "generators") if key in data]
    if len(shapes) > 1:
        raise ValueError(f"input gives more than one pair: {' and '.join(shapes)}")
    if "cyclic" in data:
        c = _check(data["cyclic"], {"M": int, "phi": [int]}, "cyclic")
        if c["M"] % 2 == 0:  # an odd M fails the parity check in from_cyclic
            _check_group_size(c["M"] // 2)
        return CMPairSpec.from_cyclic(c["M"], c["phi"])
    if "weyl" in data:
        return CMPairSpec.weyl(_check_group_size(_check(data["weyl"], int, "weyl")))
    if "generators" in data:
        _check(data, {"g": int, "generators": [{"flips": [int], "perm": [int]}]})
        g = _check_group_size(data["g"])
        gens = []
        for k, x in enumerate(data["generators"]):
            try:
                gens.append(SignedPerm.make(g, x["flips"], x["perm"]))
            except ValueError as exc:
                raise ValueError(f"generators[{k}]: {exc}") from None
        return CMPairSpec.of_group(from_generators(g, gens))
    raise ValueError('input needs "cyclic", "weyl" or "generators"')


def _load_spec(path: str):
    return spec_from_json(_read_json(path))


def _load_source(args):
    """The genus g of --weyl-full --g, or the pair read from --input."""
    if args.weyl_full:
        if args.g is None:
            raise ValueError("--weyl-full needs --g")
        return args.g
    if args.input is None:
        raise ValueError("needs --input FILE or --weyl-full with --g")
    return _load_spec(args.input)


# command -> (handler module, handler); each handler takes the parsed
# arguments and whether to render JSON, and returns the JSON object or the
# table lines
_COMMANDS = {
    "orbits": ("cli_pairs", "cmd_orbits"),
    "reflex": ("cli_pairs", "cmd_reflex"),
    "compagnons": ("cli_pairs", "cmd_compagnons"),
    "kernel": ("cli_relations", "cmd_kernel"),
    "relations": ("cli_relations", "cmd_relations"),
    "reduce": ("cli_relations", "cmd_reduce"),
    "hodge-basis": ("cli_hodge", "cmd_hodge_basis"),
    "support": ("cli_hodge", "cmd_support"),
    "sl2-check": ("cli_sl2", "cmd_sl2_check"),
    "example-mu19": ("cli_mu19", "cmd_example_mu19"),
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

    def add(name, description, weyl=False, pn=False, has_input=True):
        sp = sub.add_parser(name, help=description, description=description)
        sp.add_argument("--format", choices=("table", "json"), default="table")
        if has_input:
            # --weyl-full stands in for the input file, so the two exclude each other
            source = sp.add_mutually_exclusive_group() if weyl else sp
            source.add_argument("--input", required=not weyl, metavar="FILE", help="JSON input file")
        if weyl:
            source.add_argument("--weyl-full", action="store_true",
                                help="use the full hyperoctahedral group at --g")
            sp.add_argument("--g", type=_positive)
        if pn:
            sp.add_argument("--p", type=int, required=True)
            sp.add_argument("--n", type=int, required=True)
            sp.add_argument("--budget", type=_positive, default=POHLMANN_HARD_BUDGET, metavar="N",
                            help="fail once the Pohlmann walk has visited more than N nodes (hard cap 10^7)")
        return sp

    add("orbits", "orbit decomposition of the group on index sets")
    add("reflex", "reflex CM type of a labeled pair")
    add("compagnons", "all simple factors with degrees and labels")
    add("kernel", "period-relation kernel, rank and monomial relations")
    add("relations", "sign-normalized monomial relations", weyl=True)
    add("hodge-basis", "Hodge-class basis in degree p at power n", weyl=True, pn=True)
    add("reduce", "degree <= 2 reduction certificate for a relation")
    add("support", "support size, canonical form and equivalence of quadruples")
    sl2 = add("sl2-check", "sl2-triple verification over all index sets", has_input=False)
    sl2.add_argument("--g", type=_positive, required=True)
    add("example-mu19", "worked cyclotomic regression report", has_input=False)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code (argparse raises SystemExit(2)
    on a usage error).  Without argv, run sys.argv[1:] as the process's own
    command line and freeze the heap before returning, whatever the exit."""
    try:
        return _run(argv)
    finally:
        if argv is None:
            # the process ends next: the collection at exit skips frozen
            # objects, and cmlab leaves no cyclic garbage for it to free
            gc.freeze()


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if vars(args).get("weyl_full") is False and args.g is not None:
        parser.error(f"{args.command}: --g needs --weyl-full")
    module, name = _COMMANDS[args.command]
    handler = getattr(import_module(f"{__package__}.{module}"), name)
    as_json = args.format == "json"
    try:
        result = handler(args, as_json)
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    try:
        if as_json:
            import json

            print(json.dumps(result, indent=2, sort_keys=True))
        else:
            print("\n".join(result))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early: send what is still buffered to
        # devnull so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
