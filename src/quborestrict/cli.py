"""Command-line front end.

Subcommands: ``encode`` a restriction to a portable QUBO penalty file,
``verify`` such a file against its restriction by exhaustive enumeration,
``sweep`` a fractional target across a range with the Boltzmann sampler, and
``table`` the dummy-variable counts of the chain and binary-weighted
encodings side by side.  The restriction of ``encode`` and ``verify`` comes
from ``--n`` and ``--allowed`` only; the multipliers ``--lambda`` and
``--lambda2`` of ``encode`` default to 1.

Exit codes: 0 success/verified, 1 verification refuted, 2 a usage error,
a ``QuboRestrictError`` (such as a parse error, an inapplicable encoding or
work beyond the physical memory) or an ``OSError``, with one line on stderr.
A sweep prints each warning as one ``warning:`` line and keeps its exit
code.  Each command imports only the modules it uses.

The commands and their flags are one table, ``COMMANDS``, which
:func:`parse_args` reads in one pass: after the command each flag is its
full name, as ``--flag value`` or ``--flag=value``.  ``python -m
quborestrict.cli`` and the ``quborestrict`` script run the process through
:func:`run`.
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace

from .core import (
    ParameterError,
    QuboRestrictError,
    RestrictionSpec,
    as_fraction,
    as_printable,
    check_count,
    check_memory,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Callable, NoReturn, Optional

    from . import oracle

# --method name -> the encoders function it runs
_METHODS = {
    "auto": "select_optimal",
    "single": "encode_single_value",
    "onehot": "encode_one_hot_general",
    "linear": "encode_equispaced_linear",
    "log": "encode_equispaced_log",
    "half2": "encode_half_integer_m2",
    "halfchain": "encode_half_integer_chain",
    "reduced": "encode_reduced_general",
}


def _allowed_flag(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(token) for token in text.split(","))
    except ValueError:
        raise ParameterError(f"not a comma-separated integer list: {text!r}") from None


def _choice(*names: str) -> Callable[[str], str]:
    """A converter that takes one of ``names``."""
    def choose(text: str) -> str:
        if text not in names:
            raise ParameterError(
                f"invalid choice: {text!r} (choose from {', '.join(map(repr, names))})")
        return text
    return choose


def cmd_encode(args: SimpleNamespace) -> int:
    from . import encoders, qubofile

    spec = RestrictionSpec(args.n, args.allowed)
    encoded = getattr(encoders, _METHODS[args.method])(spec, args.lambda1, args.lambda2)
    if args.out is not None:
        qubofile.save(encoded, args.out, args.format)
        summary_stream = sys.stdout
    else:
        sys.stdout.write(
            qubofile.dumps(encoded) if args.format == "text" else qubofile.dumps_json(encoded))
        summary_stream = sys.stderr
    print(f"kind: {encoded.kind.value}", file=summary_stream)
    print(f"n_dummies: {encoded.n_dummies}", file=summary_stream)
    print(f"residual_energy: {encoded.residual_energy}", file=summary_stream)
    if args.out is not None:
        print(f"wrote {as_printable(args.out)}", file=summary_stream)
    return 0


def _render_report(report: oracle.SpectrumReport) -> str:
    lines = ["s  min_energy  degeneracy"]
    for s, (energy, count) in sorted(report.by_sum.items()):
        lines.append(f"{s}  {energy}  {count}")
    lines.append(f"ground_energy: {report.ground_energy}")
    lines.append(f"ground_sums: {','.join(str(s) for s in sorted(report.ground_sums))}")
    lines.append(f"ground_degeneracy: {report.ground_degeneracy}")
    if report.second_energy is not None:
        lines.append(f"second_energy: {report.second_energy}")
    return "\n".join(lines)


def cmd_verify(args: SimpleNamespace) -> int:
    from . import oracle, qubofile

    spec = RestrictionSpec(args.n, args.allowed)  # refused before the file is opened
    result = oracle.verify(qubofile.load(args.qubo), spec)
    print(_render_report(result.report))
    print(f"verdict: {'PASS' if result.passed else 'FAIL'}")
    print(result.diagnosis)
    return 0 if result.passed else 1


def cmd_sweep(args: SimpleNamespace) -> int:
    import warnings

    from . import sampler

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        curve = sampler.sweep_fractional_r(args.n, args.r_from, args.r_to, args.steps,
                                           args.lambda1, args.temperature, args.reads, args.seed)
    for warning in caught:  # one line each, like the errors
        print(f"warning: {warning.message}", file=sys.stderr)
    text = sampler.curve_csv(curve)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="\n") as out:
            out.write(text)
        print(f"step_distance={curve.step_distance:.6g}")
    else:
        sys.stdout.write(text)
    return 0


def dummy_table_bytes(columns: int) -> int:
    """Estimated peak bytes of a dummy table of ``columns`` columns.

    Each column holds three list slots and ints, three 5-character cells and
    their share of the joined text: about 170 bytes, rounded up to 256.
    """
    return 4096 + 256 * columns


def render_dummy_table(max_m: int) -> str:
    """Dummy-count comparison of the chain and binary-weighted encodings."""
    from . import encoders

    check_count("--max-m", max_m, 2)
    check_memory(f"a table of {max_m - 1} columns", dummy_table_bytes(max_m - 1))
    ms = list(range(2, max_m + 1))
    rows = [
        ("M", ms),
        ("half-integer chain", [encoders.chain_dummy_count(m) for m in ms]),
        ("equispaced log", [encoders.log_dummy_count(m) for m in ms]),
    ]
    label_width = max(len(label) for label, _ in rows)
    lines = [
        label.ljust(label_width) + "".join(f"{value:>5}" for value in values)
        for label, values in rows
    ]
    return "\n".join(lines) + "\n"


def cmd_table(args: SimpleNamespace) -> int:
    sys.stdout.write(render_dummy_table(args.max_m))
    return 0


REQUIRED = object()  # the default of a flag that must be given

_SPEC_FLAGS = (
    ("--n", int, REQUIRED, "number of problem variables"),
    ("--allowed", _allowed_flag, REQUIRED, "comma-separated allowed sums, e.g. 1,2,4"),
)

# command -> (name of the function that runs it, help, flags).  A flag is
# (option, converter, default or REQUIRED, help), and its value is stored
# under the option's name (see _dest).  main looks the function up by name
# when it runs, so a wrapper set on the module attribute is the one called.
COMMANDS = {
    "encode": ("cmd_encode", "encode a restriction as a QUBO penalty file", (
        *_SPEC_FLAGS,
        ("--lambda", as_fraction, 1, "first Lagrange multiplier, an exact rational"),
        ("--lambda2", as_fraction, 1, "second multiplier for the two-term encodings"),
        ("--method", _choice(*_METHODS), "auto", "construction: " + ", ".join(_METHODS)),
        ("--out", str, None, "output path (default: stdout)"),
        ("--format", _choice("text", "json"), "text", "penalty file format: text or json"),
    )),
    "verify": ("cmd_verify", "check a penalty file against its restriction", (
        ("--qubo", str, REQUIRED, "penalty file to check"),
        *_SPEC_FLAGS,
    )),
    "sweep": ("cmd_sweep", "sweep a fractional target and sample each point", (
        ("--n", int, REQUIRED, "number of problem variables"),
        ("--r-from", as_fraction, REQUIRED, "first target R, an exact rational"),
        ("--r-to", as_fraction, REQUIRED,
         "last target R; the range lies between two consecutive integers"),
        ("--steps", int, 11, "grid points from --r-from to --r-to"),
        ("--temperature", as_fraction, 0.05,
         "Boltzmann temperature in the model's energy units, an exact rational"),
        ("--reads", int, 10_000, "samples drawn at each grid point"),
        ("--seed", int, 0, "seed of the random draws, non-negative"),
        ("--lambda", as_fraction, 1, "Lagrange multiplier of the restriction"),
        ("--out", str, None, "CSV path (default: stdout)"),
    )),
    "table": ("cmd_table", "compare dummy counts of chain and log encodings", (
        ("--max-m", int, 7, "largest number of allowed values M in the table"),
    )),
}

_DESCRIPTION = """\
Encode cardinality restrictions on binary variables as QUBO penalty models,
verify them by exhaustive enumeration, and benchmark a Boltzmann annealer
stand-in."""
_HELP = ("-h", "--help")


def _dest(option: str) -> str:
    """The attribute of a flag: ``--r-from`` is ``r_from``; ``--lambda`` is ``lambda1``."""
    return "lambda1" if option == "--lambda" else option[2:].replace("-", "_")


def _usage_error(message: str) -> NoReturn:
    sys.stderr.write(f"error: {message}\n")
    raise SystemExit(2)


def _help(command: Optional[str]) -> NoReturn:
    """Print the help of the program or of one command and exit 0."""
    if command is None:
        lines = ["usage: quborestrict [-h] command [flags]", "", _DESCRIPTION, "", "commands:"]
        lines += [f"  {name:<8}{entry[1]}" for name, entry in COMMANDS.items()]
        lines += ["", "'quborestrict <command> -h' lists the flags of a command."]
    else:
        _, text, flags = COMMANDS[command]
        lines = [f"usage: quborestrict {command} [flags]", "", text, "", "flags:",
                 f"  {'-h, --help':<15}show this help and exit"]
        for flag, _, default, flag_help in flags:
            note = ("" if default is None
                    else " (required)" if default is REQUIRED else f" (default: {default})")
            lines.append(f"  {flag:<15}{flag_help}{note}")
    sys.stdout.write("\n".join(lines) + "\n")
    raise SystemExit(0)


def _convert(name: str, convert: Callable[[str], object], text: str) -> object:
    try:
        return convert(text)
    except QuboRestrictError as exc:  # the package's converters say what is wrong
        message = str(exc)
    except ValueError:
        message = f"invalid {convert.__name__} value: {text!r}"
    _usage_error(f"argument {name}: {message}")


def parse_args(argv: list[str]) -> tuple[str, SimpleNamespace]:
    """The name of the function that runs the command of ``argv``, and its flags.

    The first word is ``-h``/``--help`` or the command.  After it a flag is
    its full name, as ``--flag value`` or ``--flag=value``; it takes the next
    word as its value whatever that word starts with (``--seed -1``), and a
    repeated flag keeps its last value.  ``-h`` or ``--help`` where a flag
    can stand prints the command's help.  A usage error exits 2 with one
    line, in this order: a bad or missing value as the flags are read, then
    missing required flags, then unrecognized arguments.
    """
    if not argv:
        _usage_error("the following arguments are required: command")
    if argv[0] in _HELP:
        _help(None)
    command = _convert("command", _choice(*COMMANDS), argv[0])
    function, _, flags = COMMANDS[command]
    options = {option: convert for option, convert, _, _ in flags}
    args = SimpleNamespace(**{_dest(option): None if default is REQUIRED else default
                              for option, _, default, _ in flags})
    given, unrecognized = set(), []
    words = iter(argv[1:])
    for word in words:
        option, equals, value = word.partition("=")
        if word in _HELP:
            _help(command)
        elif option not in options:
            unrecognized.append(word)
        else:
            if not equals:
                value = next(words, None)
                if value is None:
                    _usage_error(f"argument {option}: expected one argument")
            setattr(args, _dest(option), _convert(option, options[option], value))
            given.add(option)
    missing = [option for option, _, default, _ in flags
               if default is REQUIRED and option not in given]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    if unrecognized:  # a word with a line break is quoted, to keep the error one line
        _usage_error("unrecognized arguments: " + " ".join(map(as_printable, unrecognized)))
    return function, args


def main(argv: Optional[list[str]] = None) -> int:
    function, args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return globals()[function](args)
    except (QuboRestrictError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Run :func:`main` as the whole process and exit with its status.

    Before exiting it freezes the garbage collector: every live object moves
    to the permanent generation, which the collections at interpreter
    shutdown skip, so the exit no longer walks every object the process
    loaded.  Nothing else changes: the std streams are still flushed,
    ``atexit`` handlers and ``weakref.finalize`` callbacks still run, every
    file the package writes is closed by a ``with`` block before this point,
    and Python never promised ``__del__`` for objects alive at exit.
    """
    try:
        status = main()
    finally:
        gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
