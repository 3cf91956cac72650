"""Command line surface and JSON report emission.

The CLI is a thin shell over the library: ``eval`` normalizes an
expression, ``mul`` multiplies, ``apply`` evaluates an embedding,
``member`` decides invariant-subgroup membership and ``check`` runs a
verification suite.  Exit code 0 means success or a passing suite, 1 a
failing suite, 2 a usage or parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import sys
from typing import Optional, Sequence

from . import nearring_maps as nr
from . import verify_suites as vs
from .grammar import parse_element, render
from .word_core import EngineError, Variant
from .verify_suites import Report, SampleConfig

__all__ = ["GC_THRESHOLD", "add_sample_options", "build_parser", "int_at_least", "main",
           "run_cli", "write_report"]

#: the cyclic collector's thresholds in the applications (``main`` and
#: ``scripts/run_suites.py``): the interning and memo tables keep tens of
#: thousands of objects alive for a suite, and what they let go at a suite
#: start is freed by reference counting, not by the collector, so the
#: default first-generation threshold of 700 makes the collector traverse
#: live tables again and again; the library itself leaves the
#: process-global setting alone
GC_THRESHOLD = (50000, 50, 50)


def write_report(report: Report) -> bytes:
    """Stable JSON encoding of a suite report; identical reports give
    byte-identical output."""
    # imported here, not at the top: only a command that writes a report
    # pays for loading json
    import json

    payload = {
        "suite": report.suite_name,
        "variant": report.variant.value,
        "seed": report.config.seed,
        "count": report.config.count,
        "max_level": report.config.max_level,
        "cases_run": report.cases_run,
        "passed": report.passed,
        "failures": report.failures,
        "witnesses": report.witnesses,
    }
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


def int_at_least(low: int, below: Optional[int] = None):
    """argparse type: an integer no smaller than ``low`` and, when
    ``below`` is given, smaller than ``below``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(f"must be below {below}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def add_sample_options(parser: argparse.ArgumentParser) -> None:
    """Declare ``--seed``, ``--count`` and ``--depth``, the ``SampleConfig``
    of ``check`` and of ``scripts/run_suites.py``, with its defaults."""
    default = SampleConfig._field_defaults
    parser.add_argument("--seed", type=int_at_least(0, vs.SEED_LIMIT), default=default["seed"])
    parser.add_argument("--count", type=int_at_least(1), default=default["count"])
    parser.add_argument("--depth", type=int_at_least(0), default=default["max_level"],
                        help="maximum sampled level")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hnn-nearring",
        description="Exact arithmetic and nearring products on towers of HNN extensions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_variant(p):
        p.add_argument("--variant", required=True, choices=["A", "B", "C"],
                       help="which tower: A integer base, B free base, C integer base "
                            "with central generators")

    p = sub.add_parser("eval", help="normalize an expression")
    add_variant(p)
    p.add_argument("expr")

    p = sub.add_parser("mul", help="nearring product of two expressions")
    add_variant(p)
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("apply", help="apply the embedding attached to --zeta")
    add_variant(p)
    p.add_argument("--zeta", required=True)
    p.add_argument("expr")

    p = sub.add_parser("member", help="invariant subgroup membership")
    add_variant(p)
    p.add_argument("--subgroup", required=True, choices=["W", "H"])
    p.add_argument("--zeta", help="index of the image subgroup (H only, an error "
                                  "with W; defaults to om(0) under variant C)")
    p.add_argument("expr")

    p = sub.add_parser("check", help="run a verification suite")
    add_variant(p)
    p.add_argument("--suite", required=True, choices=tuple(vs.SUITES))
    add_sample_options(p)
    p.add_argument("--json", dest="json_path", help="write the JSON report here")
    return parser


def _options(parser: argparse.ArgumentParser) -> dict:
    """option -> whether it takes a value, over the subcommands of
    ``parser``."""
    commands, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {opt: action.nargs != 0 for command in commands.choices.values()
            for action in command._actions for opt in action.option_strings}


def _normalize_argv(parser: argparse.ArgumentParser, argv: Sequence[str]) -> list:
    """Let expression positionals and option values start with '-' by
    regrouping the options of ``parser`` first, joining each that takes a
    value to it as ``--opt=value``, and fencing the positionals behind
    '--'."""
    argv = list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        return argv
    options = _options(parser)
    head, opts, positional = [argv[0]], [], []
    expect_value = False
    for tok in argv[1:]:
        if expect_value:
            opts[-1] += "=" + tok
            expect_value = False
        elif tok == "--":
            continue
        elif (takes_value := options.get(tok.split("=", 1)[0])) is not None:
            opts.append(tok)
            expect_value = takes_value and "=" not in tok
        else:
            positional.append(tok)
    return head + opts + (["--"] + positional if positional else [])


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_normalize_argv(parser, argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    variant = Variant(args.variant)
    try:
        if args.command == "eval":
            print(render(parse_element(args.expr, variant)))
            return 0
        if args.command == "mul":
            a = parse_element(args.left, variant)
            b = parse_element(args.right, variant)
            print(render(nr.mul(a, b)))
            return 0
        if args.command == "apply":
            zeta = parse_element(args.zeta, variant)
            x = parse_element(args.expr, variant)
            print(render(nr.f_eval(zeta, x)))
            return 0
        if args.command == "member":
            if args.subgroup == "W" and args.zeta is not None:
                raise EngineError("member --subgroup W takes no --zeta")
            x = parse_element(args.expr, variant)
            if args.subgroup == "W":
                print("true" if nr.in_w(x) else "false")
                return 0
            if args.zeta is not None:
                zeta = parse_element(args.zeta, variant)
            elif variant is Variant.C_INT_OMEGA_BASE:
                zeta = parse_element("om(0)", variant)
            else:
                raise EngineError("member --subgroup H needs --zeta under this variant")
            print("true" if nr.in_h(zeta, x) else "false")
            return 0
        # "check", the one command left
        tags, runner = vs.SUITES[args.suite]
        if variant.value not in tags:
            raise EngineError(f"suite {args.suite} runs under variant "
                              f"{' or '.join(tags)} only, not {variant.value}")
        config = SampleConfig(seed=args.seed, count=args.count, max_level=args.depth)
        out = contextlib.nullcontext()
        # opened first, so a bad path costs no suite run; an empty path
        # is a path, and fails like any other unwritable one
        if args.json_path is not None:
            try:
                out = open(args.json_path, "wb")
            except OSError as exc:
                raise _cannot_write(args.json_path, exc) from exc
        with out:
            report = runner(variant, config)
            if args.json_path is not None:
                try:
                    out.write(write_report(report))
                    out.flush()
                except OSError as exc:
                    raise _cannot_write(args.json_path, exc) from exc
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} suite={report.suite_name} variant={variant.value} "
              f"seed={config.seed} cases_run={report.cases_run} "
              f"failures={len(report.failures)}")
        for w in report.witnesses:
            print(f"  witness: {w}")
        for f in report.failures[:5]:
            print(f"  failure: inputs={f['inputs']} expected={f['expected']} "
                  f"got={f['got']}")
        return 0 if report.passed else 1
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the engine's add and coset walk still recurse per letter level
        print("error: expression nested too deeply", file=sys.stderr)
        return 2


def _cannot_write(path: str, exc: OSError) -> EngineError:
    return EngineError(f"cannot write report {path}: {exc.strerror}")


def main() -> None:
    gc.set_threshold(*GC_THRESHOLD)
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
