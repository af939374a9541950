"""Command-line surface: deterministic reports over the package's solvers.

Every command reads JSON input (where it takes input at all), renders either
a plain-text table or JSON, and exits 0 on success, 1 on a domain error with
a message naming the violated precondition, 2 on a usage error.  Output is
byte-for-byte deterministic for fixed inputs; no network access and no
environment-variable configuration.

This module holds the command table, the option table and parser built
from it, the JSON input readers and main.  A row of _COMMANDS gives a
command's handler, its description and what it reads; _options gives the
options of a row, and build_parser makes one subcommand per row with those
options.  A plain command line (a command, then each of its options once
as `--flag value`, every value valid) is read from the same tables by
_plain_args, without argparse; argparse is imported and the parser built
only for any other line: help, usage errors and the spellings that a plain
line does not use, such as `--flag=value` or an abbreviated flag.  A job
is mostly start-up: the interpreter and `site` take about 60 ms, and
compiling cmlab's source about 17 ms when no bytecode is cached (2-vCPU
VM).  main reads and checks a command's input once, in _read, and hands it
to the handler with the parsed arguments.  The handlers live in one small
module per family of commands (cli_pairs, cli_relations, cli_hodge, cli_sl2,
cli_mu19); main imports only the module of the command it runs, and a
handler imports the solvers it uses and renders only the chosen --format.
So a command compiles and loads only its own part of the package, and
building the parser loads none of it: reduce
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
import gc
import os
import sys
from importlib import import_module
from types import SimpleNamespace

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
        return CMPairSpec(from_generators(g, gens))
    raise ValueError('input needs "cyclic", "weyl" or "generators"')


# what a command reads: a CM pair from --input; a pair, or the genus --g of
# --weyl-full; --g alone
_PAIR, _PAIR_OR_GENUS, _GENUS = "pair", "pair or genus", "genus"

# command -> (handler module, handler, description, reads), in the order of
# the help listing.  reads is one of the tags above, the JSON shape (for
# _check) of the object that --input holds, whose "g" is a ground-set size,
# or None for a command that reads nothing.  Each handler takes what its
# command read, the parsed arguments and whether to render JSON, and returns
# the JSON object or the table lines.
_COMMANDS = {
    "orbits": ("cli_pairs", "cmd_orbits", "orbit decomposition of the group on index sets", _PAIR),
    "reflex": ("cli_pairs", "cmd_reflex", "reflex CM type of a labeled pair", _PAIR),
    "compagnons": ("cli_pairs", "cmd_compagnons", "all simple factors with degrees and labels", _PAIR),
    "kernel": ("cli_relations", "cmd_kernel", "period-relation kernel, rank and monomial relations", _PAIR),
    "relations": ("cli_relations", "cmd_relations", "sign-normalized monomial relations", _PAIR_OR_GENUS),
    "hodge-basis": ("cli_hodge", "cmd_hodge_basis", "Hodge-class basis in degree p at power n", _PAIR_OR_GENUS),
    "reduce": ("cli_relations", "cmd_reduce", "degree <= 2 reduction certificate for a relation",
               {"g": int, "vec": [int]}),
    "support": ("cli_hodge", "cmd_support", "support size, canonical form and equivalence of quadruples",
                {"g": int, "first": [[int]]}),
    "sl2-check": ("cli_sl2", "cmd_sl2_check", "sl2-triple verification over all index sets", _GENUS),
    "example-mu19": ("cli_mu19", "cmd_example_mu19", "worked cyclotomic regression report", None),
}


def _read(reads, args):
    """The input of a command that reads `reads`, checked: the CMPairSpec,
    the genus --g, the JSON object of that shape, or None."""
    if reads is None:
        return None
    if reads == _GENUS:
        return args.g
    if reads == _PAIR_OR_GENUS:
        if args.weyl_full:
            if args.g is None:
                raise ValueError("--weyl-full needs --g")
            return args.g
        if args.input is None:
            raise ValueError("needs --input FILE or --weyl-full with --g")
    data = _read_json(args.input)
    if isinstance(reads, dict):
        _check_group_size(_check(data, reads)["g"])
        return data
    return spec_from_json(data)


def _positive(text: str) -> int:
    try:
        value = int(text) if text.isdecimal() else 0
    except ValueError:  # past int's digit limit
        value = 0
    if value < 1:
        import argparse

        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


# the sources of a command that reads a pair or genus, which exclude each other
_SOURCES = ("--input", "--weyl-full")
_INPUT = {"metavar": "FILE", "help": "JSON input file"}


def _options(name: str, reads) -> list:
    """The options of command `name`, which reads `reads`, in the order of
    its usage line: (flag, add_argument keywords), which give the converter
    (type) or choices, the default and whether the option is required.  A
    command that reads a pair or genus has both _SOURCES, which exclude each
    other, and --g, which needs --weyl-full."""
    options = [("--format", {"choices": ("table", "json"), "default": "table"})]
    if reads == _GENUS:
        options.append(("--g", {"type": _positive, "required": True}))
    elif reads == _PAIR_OR_GENUS:
        options += [("--input", _INPUT),
                    ("--weyl-full", {"action": "store_true", "default": False,
                                     "help": "use the full hyperoctahedral group at --g"}),
                    ("--g", {"type": _positive})]
    elif reads is not None:
        options.append(("--input", {"required": True, **_INPUT}))
    if name == "hodge-basis":
        options += [("--p", {"type": int, "required": True}),
                    ("--n", {"type": int, "required": True}),
                    ("--budget", {"type": _positive, "default": POHLMANN_HARD_BUDGET, "metavar": "N",
                                  "help": "fail once the Pohlmann walk has visited more than N nodes (hard cap 10^7)"})]
    return options


def _plain_args(argv):
    """The namespace that build_parser().parse_args(argv) returns, read
    without argparse, for a plain command line: a command, then each of its
    options at most once as `--flag value` (a bare --weyl-full), every
    value valid and none starting with "-", every required option given,
    and the sources and --g used as _options allows.  None for any other
    line, which argparse reads instead."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = dict(_options(argv[0], _COMMANDS[argv[0]][3]))
    given = {}
    rest = iter(argv[1:])
    for flag in rest:
        keywords = options.get(flag)
        if keywords is None or flag in given:
            return None
        if "action" in keywords:  # store_true: the bare --weyl-full
            given[flag] = True
            continue
        text = next(rest, "-")  # a missing value reads as a flag
        if text.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(text)
        except Exception:  # int's ValueError, or _positive's ArgumentTypeError, a class of argparse
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[flag] = value
    if any(keywords.get("required") and flag not in given for flag, keywords in options.items()):
        return None
    # --weyl-full excludes --input, and --g needs --weyl-full
    if "--weyl-full" in options and ("--input" if "--weyl-full" in given else "--g") in given:
        return None
    return SimpleNamespace(command=argv[0], **{
        flag[2:].replace("-", "_"): given.get(flag, keywords.get("default")) for flag, keywords in options.items()})


def build_parser() -> "argparse.ArgumentParser":
    """The argparse parser of the command line: one subcommand per row of
    _COMMANDS, with the options of _options."""
    import argparse

    class Command(argparse.ArgumentParser):
        """A subcommand's parser, which also refuses --g without --weyl-full."""

        def parse_known_args(self, args=None, namespace=None):
            namespace, extras = super().parse_known_args(args, namespace)
            # an unrecognized argument is reported first, by the top-level parser
            if not extras and not getattr(namespace, "weyl_full", True) and namespace.g is not None:
                self.error("--g needs --weyl-full")
            return namespace, extras

    parser = argparse.ArgumentParser(
        prog="cmlab",
        description="Monomial period relations, Hodge-class bases and sl2 checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Command)
    for name, (_, _, description, reads) in _COMMANDS.items():
        sp = sub.add_parser(name, help=description, description=description)
        sources = sp.add_mutually_exclusive_group() if reads == _PAIR_OR_GENUS else sp
        for flag, keywords in _options(name, reads):
            (sources if flag in _SOURCES else sp).add_argument(flag, **keywords)
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
    # argparse reads the lines _plain_args leaves: help, usage errors and
    # the spellings a plain line does not use
    args = _plain_args(sys.argv[1:] if argv is None else argv) or build_parser().parse_args(argv)
    module, name, _, reads = _COMMANDS[args.command]
    handler = getattr(import_module(f"{__package__}.{module}"), name)
    as_json = args.format == "json"
    try:
        result = handler(_read(reads, args), args, as_json)
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
