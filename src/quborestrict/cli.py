"""Command-line front end.

Subcommands: ``encode`` a restriction to a portable QUBO penalty file,
``verify`` such a file against its restriction by exhaustive enumeration,
``sweep`` a fractional target across a range with the Boltzmann sampler, and
``table`` the dummy-variable counts of the chain and binary-weighted
encodings side by side.

Exit codes: 0 success/verified, 1 verification refuted, 2 usage or parse
errors (including inapplicable encodings and work beyond the physical
memory), with one line on stderr.  A sweep prints each warning as one
``warning:`` line and keeps its exit code.  Each command imports only the
modules it uses.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .core import (
    ConstructionError,
    DataQualityError,
    DimensionError,
    EncodingNotApplicableError,
    ParameterError,
    QuboFileError,
    RestrictionSpec,
    SizeLimitError,
    as_fraction,
    check_memory,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Optional

    from . import oracle, sampler

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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        """A usage error is one line, like every other error of the command line."""
        self.exit(2, f"error: {message}\n")


def _fraction_flag(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except ParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _allowed_flag(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(token) for token in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _path(text: str) -> str:
    """A path flag spelt as ``pathlib`` spells it: no empty or ``.`` parts, ``.`` if none."""
    root = "//" if text[:2] == "//" and text[2:3] != "/" else "/" * text.startswith("/")
    return root + "/".join(part for part in text.split("/") if part not in ("", ".")) or "."


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, help="number of problem variables")
    parser.add_argument(
        "--allowed", type=_allowed_flag, help="comma-separated allowed sums, e.g. 1,2,4")
    parser.add_argument(
        "--spec-json", type=_path,
        help="JSON file {n_vars, allowed[]} instead of --n/--allowed")


def _spec(args: argparse.Namespace) -> tuple[RestrictionSpec, dict]:
    """The restriction from the flags or the spec JSON, and the spec JSON object ({} if unset)."""
    payload: dict = {}
    if args.spec_json is not None:
        if args.n is not None or args.allowed is not None:
            raise ParameterError("give either --spec-json or --n/--allowed, not both")
        import json

        try:
            with open(args.spec_json) as spec_file:
                payload = json.load(spec_file)
            n_vars = payload["n_vars"]
            allowed = payload["allowed"]
            if not isinstance(allowed, list):
                raise TypeError(f"n_vars must be an integer and allowed a list of integers, "
                                f"got {n_vars!r} and {allowed!r}")
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            # ValueError covers malformed JSON
            raise ParameterError(f"bad spec JSON {args.spec_json}: {exc}") from exc
    else:
        if args.n is None or args.allowed is None:
            raise ParameterError("a restriction needs --n and --allowed (or --spec-json)")
        n_vars, allowed = args.n, args.allowed
    return RestrictionSpec(n_vars, tuple(allowed)), payload


def cmd_encode(args: argparse.Namespace) -> int:
    from . import encoders, qubofile

    spec, payload = _spec(args)
    try:  # a flag overrides the spec JSON
        lambda1 = as_fraction(payload.get("lambda1", 1)) if args.lambda1 is None else args.lambda1
        lambda2 = as_fraction(payload.get("lambda2", 1)) if args.lambda2 is None else args.lambda2
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"bad spec JSON {args.spec_json}: {exc}") from exc
    params = encoders.EncoderParams(lambda1, lambda2)
    encoded = getattr(encoders, _METHODS[args.method])(spec, params)
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
        print(f"wrote {args.out}", file=summary_stream)
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


def cmd_verify(args: argparse.Namespace) -> int:
    from . import oracle, qubofile

    encoded = qubofile.load(args.qubo)
    spec, _ = _spec(args)
    result = oracle.verify(encoded, spec)
    print(_render_report(result.report))
    print(f"verdict: {'PASS' if result.passed else 'FAIL'}")
    print(result.diagnosis)
    return 0 if result.passed else 1


def _render_csv(curve: sampler.TransferCurve) -> str:
    lower = math.floor(curve.r_grid[0])
    upper = math.ceil(curve.r_grid[-1])
    header = "R," + ",".join(f"P{s}" for s in range(curve.n_vars + 1)) + ",p_norm"
    lines = [header]
    for r, dist in zip(curve.r_grid, curve.distributions):
        transfer = dist[upper] / (dist[lower] + dist[upper])
        cells = [f"{float(r):.6g}"]
        cells.extend(f"{p:.6g}" for p in dist)
        cells.append(f"{transfer:.6g}")
        lines.append(",".join(cells))
    lines.append(f"step_distance={curve.step_distance:.6g}")
    return "\n".join(lines) + "\n"


def cmd_sweep(args: argparse.Namespace) -> int:
    import warnings

    from . import sampler

    config = sampler.SamplerConfig(
        temperature=args.temperature, n_reads=args.reads, seed=args.seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        curve = sampler.sweep_fractional_r(
            args.n, args.r_from, args.r_to, args.steps, args.lambda1, config)
    for warning in caught:  # one line each, like the errors
        print(f"warning: {warning.message}", file=sys.stderr)
    text = _render_csv(curve)
    if args.out is not None:
        with open(args.out, "w") as out:
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

    if max_m < 2:
        raise ParameterError(f"--max-m must be at least 2, got {max_m}")
    check_memory(f"a table of {max_m - 1} columns", 0, dummy_table_bytes, max_m - 1)
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


def cmd_table(args: argparse.Namespace) -> int:
    sys.stdout.write(render_dummy_table(args.max_m))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="quborestrict",
        description=(
            "Encode cardinality restrictions on binary variables as QUBO penalty "
            "models, verify them by exhaustive enumeration, and benchmark a "
            "Boltzmann annealer stand-in."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    enc = sub.add_parser("encode", help="encode a restriction as a QUBO penalty file")
    _add_spec_flags(enc)
    enc.add_argument(
        "--lambda", dest="lambda1", type=_fraction_flag, default=None,
        help="first Lagrange multiplier (exact rational; default: the spec JSON's lambda1, or 1)")
    enc.add_argument(
        "--lambda2", type=_fraction_flag, default=None,
        help="second multiplier for the two-term encodings (default: as for --lambda)")
    enc.add_argument("--method", choices=list(_METHODS), default="auto")
    enc.add_argument("--out", type=_path, help="output path (default: stdout)")
    enc.add_argument("--format", choices=("text", "json"), default="text")
    enc.set_defaults(func=cmd_encode)

    ver = sub.add_parser("verify", help="check a penalty file against its restriction")
    ver.add_argument("--qubo", type=_path, required=True, help="penalty file to check")
    _add_spec_flags(ver)
    ver.set_defaults(func=cmd_verify)

    sw = sub.add_parser("sweep", help="sweep a fractional target and sample each point")
    sw.add_argument("--n", type=int, required=True)
    sw.add_argument("--r-from", type=_fraction_flag, required=True)
    sw.add_argument("--r-to", type=_fraction_flag, required=True)
    sw.add_argument("--steps", type=int, default=11)
    sw.add_argument("--temperature", type=float, default=0.05)
    sw.add_argument("--reads", type=int, default=10_000)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument(
        "--lambda", dest="lambda1", type=_fraction_flag, default=Fraction(1))
    sw.add_argument("--out", type=_path, help="CSV path (default: stdout)")
    sw.set_defaults(func=cmd_sweep)

    tab = sub.add_parser("table", help="compare dummy counts of chain and log encodings")
    tab.add_argument("--max-m", type=int, default=7)
    tab.set_defaults(func=cmd_table)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        QuboFileError,
        ConstructionError,
        ParameterError,
        EncodingNotApplicableError,
        DimensionError,
        SizeLimitError,
        DataQualityError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
