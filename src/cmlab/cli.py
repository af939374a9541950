"""Command-line surface: deterministic reports over the package's solvers.

Every command reads JSON input (where it takes input at all), renders either
a plain-text table or JSON, and exits 0 on success, 1 on a domain error with
a message naming the violated precondition, 2 on a usage error.  Output is
byte-for-byte deterministic for fixed inputs; no network access and no
environment-variable configuration.

This module holds the command table, the option table, the one reader of
the command line, the JSON input readers and main.  A row of _COMMANDS
gives a command's handler, its description and what it reads; build_parser
gives the options of each row.  parse_args reads each line from those
tables, and prints its help and usage errors from them too, laid out at a
fixed 80 columns: the bytes are the same at any terminal width and on any
Python version, and no line imports argparse (with gettext and locale) or
textwrap.  A job is mostly start-up: the interpreter with `site`, and
compiling cmlab's source when no bytecode is cached.  main reads and checks
a command's input once, in _read, and hands it to the handler with the
parsed arguments.  The handlers live in one small module per family of
commands (cli_pairs, cli_relations, cli_hodge, cli_sl2, cli_mu19); main
imports only the module of the command it runs, and a handler imports the
solvers it uses and renders only the chosen --format.  So a command compiles
and loads only its own part of the package, and reading the line loads none
of it: reduce and relations --weyl-full load reciprocity, hyperoct and
record; hodge-basis --weyl-full and support load hodge, hyperoct and record,
never the group, lattice or relation code; sl2-check loads sl2check,
hyperoct and record.  A CM pair, read from --input or built by example-mu19,
adds cmtypes and galois.

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


def _unique_keys(pairs) -> dict:
    """The JSON object of its key-value pairs, if no key repeats."""
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f'repeated key "{next(key for key in keys if keys.count(key) > 1)}"')
    return dict(pairs)


def _read_json(path: str) -> dict:
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    except (OSError, ValueError, RecursionError) as exc:
        # besides I/O errors: bytes that are not UTF-8, an integer past the
        # digit limit, nesting past the recursion limit, or a repeated key
        raise ValueError(f"cannot read {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return data


def _check(value, shape, name: str = ""):
    """value, if it has the JSON shape: int, [shape] for a list of that
    shape, or {key: shape} for an object with just those keys, "key?" being
    optional; otherwise a ValueError naming the offending field."""
    if shape is int:
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer")
    elif isinstance(shape, list):
        if not isinstance(value, list):
            raise ValueError(f"{name} must be a list")
        for k, item in enumerate(value):
            if type(item) is not int or shape[0] is not int:
                _check(item, shape[0], f"{name}[{k}]")
    else:
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be an object")
        fields = {key.rstrip("?"): sub for key, sub in shape.items()}
        if (extra := next((key for key in value if key not in fields), None)) is not None:
            raise ValueError(f'{name or "input"}: unknown key "{extra}"')
        for field, sub in fields.items():
            if field in value:
                _check(value[field], sub, f"{name}.{field}" if name else field)
            elif field in shape:  # not optional
                raise ValueError(f'{name or "input"} needs "{field}"')
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
        c = _check(data, {"cyclic": {"M": int, "phi": [int]}})["cyclic"]
        if c["M"] % 2 == 0:  # an odd M fails the parity check in from_cyclic
            _check_group_size(c["M"] // 2)
        return CMPairSpec.from_cyclic(c["M"], c["phi"])
    if "weyl" in data:
        return CMPairSpec.weyl(_check_group_size(_check(data, {"weyl": int})["weyl"]))
    if "generators" in data:
        g = _check_group_size(_check(data, {"g": int, "generators": [{"flips": [int], "perm": [int]}]})["g"])
        gens = []
        for k, x in enumerate(data["generators"]):
            try:
                gens.append(SignedPerm.make(g, x["flips"], x["perm"]))
            except ValueError as exc:
                raise ValueError(f"generators[{k}]: {exc}") from None
        return CMPairSpec(from_generators(g, gens), None)
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
               {"g": int, "vec": [int], "tau?": int}),
    "support": ("cli_hodge", "cmd_support", "support size, canonical form and equivalence of quadruples",
                {"g": int, "first": [[int]], "second?": [[int]]}),
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
        raise ValueError(f"expected a positive integer, got {text!r}")
    return value


# the sources of a command that reads a pair or genus, which exclude each other
_SOURCES = ("--input", "--weyl-full")
_INPUT = {"metavar": "FILE", "help": "JSON input file"}


def build_parser() -> dict:
    """The options of each command, which parse_args reads: command ->
    {flag: keywords} in usage order, the keywords giving the converter
    (type) or choices, the default, whether it is required, its metavar and
    help; "action" marks the bare --weyl-full.  A pair or genus is read from
    one of _SOURCES, and --g needs --weyl-full."""
    tables = {}
    for name, (_, _, _, reads) in _COMMANDS.items():
        options = tables[name] = {"--format": {"choices": ("table", "json"), "default": "table"}}
        if reads == _GENUS:
            options["--g"] = {"type": _positive, "required": True}
        elif reads == _PAIR_OR_GENUS:
            options.update({"--input": _INPUT,
                            "--weyl-full": {"action": "store_true", "default": False,
                                            "help": "use the full hyperoctahedral group at --g"},
                            "--g": {"type": _positive}})
        elif reads is not None:
            options["--input"] = {"required": True, **_INPUT}
        if name == "hodge-basis":
            options.update({"--p": {"type": int, "required": True}, "--n": {"type": int, "required": True},
                            "--budget": {"type": _positive, "default": POHLMANN_HARD_BUDGET, "metavar": "N",
                                         "help": "fail once the Pohlmann walk has visited more than N nodes "
                                                 "(hard cap 10^7)"}})
    return tables


def _is_value(token: str) -> bool:
    """Whether token, read after a flag, is that flag's value: it does not
    start with "-", or it is "-" alone or a number such as -2 or -.5."""
    whole, dot, frac = token[1:].partition(".")
    return token[:1] != "-" or token == "-" or (whole + frac).isdecimal() and (frac.isdecimal() or not dot)


def parse_args(argv) -> SimpleNamespace:
    """The arguments of a command line, read from build_parser's tables: a
    command, then its options as `--flag value`, `--flag=value` or a bare
    --weyl-full, the last of a repeated option winning.  -h or --help,
    first or once read after the command, prints help and exits 0.  A
    usage error prints the usage and a message to stderr and exits 2, in
    argparse's order, but an option before the command, `--` and an
    abbreviated flag are refused before any option is read."""
    tables = build_parser()
    if argv and argv[0] in ("-h", "--help"):
        sys.stdout.write(_help(None))
        raise SystemExit(0)
    if not argv or argv[0] not in tables:
        raise _usage_error(None, f"argument command: invalid choice: {argv[0]!r} (choose from "
                                 f"{', '.join(map(repr, tables))})" if argv else
                                 "the following arguments are required: command")
    name, options, given, extras, rest = argv[0], tables[argv[0]], {}, [], iter(argv[1:])
    flags = (*options, "--help")
    for token in argv[1:]:  # `--`, or a flag cut short, such as --in or --form=json
        begun = token.partition("=")[0]
        if begun[:2] == "--" and begun not in flags and any(flag.startswith(begun) for flag in flags):
            raise _usage_error(name, f"unrecognized arguments: {token}")
    for token in rest:
        if token in ("-h", "--help"):
            sys.stdout.write(_help(name))
            raise SystemExit(0)
        flag, eq, text = token.partition("=")
        keywords = options.get(flag)
        if keywords is None:
            extras.append(token)
            continue
        if "action" in keywords:  # store_true: the bare --weyl-full
            if eq:
                raise _usage_error(name, f"argument {flag}: ignored explicit argument {text!r}")
            value = True
        else:
            text = text if eq else next(rest, None)
            if text is None or not (eq or _is_value(text)):
                raise _usage_error(name, f"argument {flag}: expected one argument")
            convert = keywords.get("type", str)
            try:
                value = convert(text)
            except ValueError as exc:  # int's message is argparse's, _positive's its own
                fault = exc.args[0] if convert is _positive else f"invalid int value: {text!r}"
                raise _usage_error(name, f"argument {flag}: {fault}") from None
            if value not in keywords.get("choices", (value,)):
                raise _usage_error(name, f"argument {flag}: invalid choice: {value!r} "
                                         f"(choose from {', '.join(map(repr, keywords['choices']))})")
        if flag in _SOURCES and (other := _SOURCES[flag == _SOURCES[0]]) in given:  # they exclude each other
            raise _usage_error(name, f"argument {flag}: not allowed with argument {other}")
        given[flag] = value
    missing = [flag for flag, keywords in options.items() if keywords.get("required") and flag not in given]
    if missing:
        raise _usage_error(name, f"the following arguments are required: {', '.join(missing)}")
    if not extras and "--g" in given and "--weyl-full" in options and "--weyl-full" not in given:
        raise _usage_error(name, "--g needs --weyl-full")
    if extras:
        raise _usage_error(None, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=name, **{
        flag[2:].replace("-", "_"): given.get(flag, keywords.get("default")) for flag, keywords in options.items()})


def _usage_error(name, message: str) -> SystemExit:
    """Print the usage of command `name` and message; the SystemExit to raise."""
    sys.stderr.write(f"{_usage(name)}\ncmlab{f' {name}' if name else ''}: error: {message}\n")
    return SystemExit(2)


def _fill(words, width: int, indent: str) -> list:
    """The words on lines of at most width columns, each line after the
    first starting with indent; a word that fits on no line stands alone."""
    lines = [words[0]]
    for word in words[1:]:
        if len(lines[-1]) + 1 + len(word) > width:
            lines.append(indent + word)
        else:
            lines[-1] += " " + word
    return lines


def _invocation(flag: str, keywords: dict) -> str:
    """A flag as usage and help show it: with its metavar, its choices in
    braces or its name in capitals, but the bare --weyl-full alone."""
    choices = keywords.get("choices")
    metavar = keywords.get("metavar") or ("{" + ",".join(choices) + "}" if choices else flag[2:].upper())
    return flag if "action" in keywords else f"{flag} {metavar}"


def _usage(name) -> str:
    """The usage of command `name`, or of cmlab for None, filled to 78
    columns with a hanging indent; a bracket is never broken."""
    prog = f"cmlab {name}" if name else "cmlab"
    parts = ["[-h]"] if name else ["[-h]", "{" + ",".join(_COMMANDS) + "}", "..."]
    for flag, keywords in build_parser().get(name, {}).items():
        text = _invocation(flag, keywords)
        if flag == _SOURCES[1]:  # in the bracket of _SOURCES[0], which it excludes
            parts[-1] = f"{parts[-1][:-1]} | {text}]"
        else:
            parts.append(text if keywords.get("required") else f"[{text}]")
    return "\n".join(_fill([f"usage: {prog}", *parts], 78, " " * (len(prog) + 8)))


def _help(name) -> str:
    """The help of command `name`, or of cmlab for None: usage, description,
    then each command or option with its help from column 24 to 78."""
    rows = [("", ""), ("options:", ""), ("  -h, --help", "show this help message and exit")]
    if name:
        description = _COMMANDS[name][2]
        rows += [(f"  {_invocation(flag, keywords)}", keywords.get("help", ""))
                 for flag, keywords in build_parser()[name].items()]
    else:
        description = "Monomial period relations, Hodge-class bases and sl2 checks."
        rows[:0] = [("", ""), ("positional arguments:", ""), ("  {" + ",".join(_COMMANDS) + "}", ""),
                    *((f"    {command}", row[2]) for command, row in _COMMANDS.items())]
    lines = [_usage(name), "", *_fill(description.split(), 78, "")]
    for head, text in rows:
        lines += _fill([f"{head:<23}", *text.split()], 78, " " * 24) if text else [head]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    """Run one command and return its exit code (parse_args raises
    SystemExit(2) on a usage error, and SystemExit(0) after help).  Without
    argv, run sys.argv[1:] as the process's own command line and freeze the
    heap before returning, whatever the exit."""
    try:
        return _run(argv)
    finally:
        if argv is None:
            # the process ends next: the collection at exit skips frozen
            # objects, and cmlab leaves no cyclic garbage for it to free
            gc.freeze()


def _run(argv) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    module, name, _, reads = _COMMANDS[args.command]
    handler = getattr(import_module(f"{__package__}.{module}"), name)
    as_json = args.format == "json"
    try:
        result = handler(_read(reads, args), args, as_json)
    except ValueError as exc:
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
