"""Command line front end.

Subcommands: validate, check, invariant, markov, selftest.  Algebra
arguments are JSON files; a bare name (sl2, so3, heisenberg3, nambu4,
abelian1, abelian2), with or without .json, that names no file falls back
to the bundled documents, and a path with a directory part never does.
`selftest` is `check --property all` on each bundled document, plus a
Markov trial of the sl2 trefoil.  Exit codes: 0 success / all checks pass, 1 check
failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path

from .algebra import (
    AlgebraError,
    AlgebraSpec,
    ValidationReport,
    bundled_document,
    load_algebra,
    load_algebra_file,
    validate_algebra,
)
from .braiding import BraidingKit, check_braiding, make_braiding_kit
from .braids import BraidSyntaxError, FramedBraidWord, parse_braid_word
from .fields import FieldError
from .invariant import (
    DimensionCapError,
    check_framed_braid_relations,
    markov_report,
    trace_invariant,
)
from .tsd import check_tsd_properties, make_tsd_pair

# the one check family a narrower property runs, and the TSD checks it names
# or the braiding lines it keeps (None: the whole family)
_NARROW = {
    "jacobi": ("validate", None),
    "filippov": ("validate", None),
    "tsd": ("tsd properties", ("tsd", "tsd-tilde")),
    "coalgebra": ("tsd properties", ("coalgebra-morphism",)),
    "reversibility": ("tsd properties", ("reversibility",)),
    "mixed": ("tsd properties", ("mixed",)),
    "ybe": ("braiding", ("ybe", "braiding-invertible", "twist-invertible", "filtration", "far-commutation")),
    "slide": ("braiding", ("slide-under", "slide-over")),
    "fb-relations": ("framed braid relations", None),
}
CHECK_PROPERTIES = (*_NARROW, "all")

# the bundled documents, in the order selftest reports them (by dimension)
SELFTEST_ALGEBRAS = ("abelian1", "abelian2", "heisenberg3", "so3", "sl2", "nambu4")


class CliError(Exception):
    """A usage or input error, reported as one line with exit code 2."""


def _resolve_algebra(path_text: str) -> AlgebraSpec:
    """An existing file; else a bare name, with or without .json, may name a bundled document, and a path never does."""
    path = Path(path_text)
    if path_text and path.exists():  # Path("") is the current directory
        return load_algebra_file(path)
    document = bundled_document(path.name if path.suffix else f"{path.name}.json") if path_text == path.name else None
    if document is not None:
        return load_algebra(document)
    raise CliError(f"cannot read algebra {path_text!r}: no such file or bundled algebra")


def _framing(entry: str, framings: str) -> int:
    try:
        return int(entry)
    except ValueError:
        if re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", entry):  # more digits than sys.get_int_max_str_digits()
            raise CliError(f"number too long in --framings entry {entry!r}") from None
        raise CliError(f"bad --framings {framings!r}: need comma-separated integers") from None


def _parse_word(args) -> FramedBraidWord:
    word = parse_braid_word(args.word, args.strands)
    if args.framings:
        override = tuple(_framing(f, args.framings) for f in args.framings.split(","))
        if len(override) != args.strands:
            raise CliError(f"--framings needs {args.strands} entries, got {len(override)}")
        word = FramedBraidWord(word.strands, override, word.letters)
    return word


def _capped_kit(spec: AlgebraSpec, cap: int) -> BraidingKit:
    """The braiding kit, refused before it is built when R on X^4 has more than cap columns."""
    dim = spec.dim + 1
    if dim**4 > cap:
        raise DimensionCapError(
            f"kit build needs the braiding on {dim}^4 columns, which exceeds cap {cap}; "
            "use a smaller algebra or a larger --cap"
        )
    return make_braiding_kit(spec)


def _failure_payload(report: ValidationReport) -> list[dict]:
    return [
        {"check": r.name, "witness": repr(r.witness), "residual": repr(r.residual)}
        for r in report.failures
    ]


def _emit(args, command, passed, lines, failures, value, started, out) -> int:
    timing_ms = int((time.monotonic() - started) * 1000)
    if args.format == "json":
        payload = {"command": command, "passed": passed, "failures": failures, "timing_ms": timing_ms}
        if value is not None:
            payload["value"] = value
        print(json.dumps(payload), file=out)
    else:
        for line in lines:
            print(line, file=out)
        if value is not None:
            print(f"value: {value}", file=out)
    return 0 if passed else 1


def _cmd_validate(args, out) -> int:
    started = time.monotonic()
    spec = _resolve_algebra(args.algebra)
    report = validate_algebra(spec)
    return _emit(args, "validate", report.passed, report.lines(), _failure_payload(report), None, started, out)


def _sweep(spec: AlgebraSpec, prop: str) -> tuple[list[tuple[str, ValidationReport]], BraidingKit | None]:
    """(family, report) for each check family that prop selects, in report order; and the kit, if built."""
    family, names = _NARROW.get(prop, ("all", None))
    reports = [("validate", validate_algebra(spec))] if family in ("validate", "all") else []
    if family == "validate":
        return reports, None
    pair = make_tsd_pair(spec)  # the TSD checks and the kit build share its T and T~ rows
    if family in ("tsd properties", "all"):
        reports.append(("tsd properties", check_tsd_properties(pair, names)))
    if family == "tsd properties":
        return reports, None
    kit = make_braiding_kit(pair)
    if family in ("braiding", "all"):
        report = ValidationReport([r for r in check_braiding(kit).results if not names or r.name in names])
        reports.append(("braiding", report))
    if family in ("framed braid relations", "all"):
        reports.append(("framed braid relations", check_framed_braid_relations(kit)))
    return reports, kit


def _cmd_check(args, out) -> int:
    started = time.monotonic()
    spec = _resolve_algebra(args.algebra)
    if args.property == "jacobi" and spec.arity != 2:
        raise CliError("jacobi applies to arity-2 algebras")
    if args.property == "filippov" and spec.arity != 3:
        raise CliError("filippov applies to arity-3 algebras")
    reports, _ = _sweep(spec, args.property)
    report = ValidationReport([r for _, part in reports for r in part.results])
    return _emit(args, "check", report.passed, report.lines(), _failure_payload(report), None, started, out)


def _cmd_invariant(args, out) -> int:
    started = time.monotonic()
    spec = _resolve_algebra(args.algebra)
    word = _parse_word(args)
    kit = _capped_kit(spec, args.cap)
    result = trace_invariant(kit, word)
    lines = [
        f"algebra: {result.algebra}",
        f"word: {result.word.word_text() or '(empty)'}",
        f"framings: {','.join(map(str, result.word.framings))}",
        f"operator dimension: {result.operator_dim}",
    ]
    return _emit(args, "invariant", True, lines, [], result.value_text, started, out)


def _cmd_markov(args, out) -> int:
    started = time.monotonic()
    if args.trials < 1:
        raise CliError(f"--trials must be >= 1, got {args.trials}")
    if args.moves < 0:
        raise CliError(f"--moves must be >= 0, got {args.moves}")
    spec = _resolve_algebra(args.algebra)
    word = _parse_word(args)
    kit = _capped_kit(spec, args.cap)
    report = markov_report(
        kit,
        word,
        trials=args.trials,
        seed=args.seed,
        moves=args.moves,
        stabilize=args.stabilize,
    )
    failures = _failure_payload(report.relations)
    if report.stabilize == "off" and not report.all_equal:
        failures.extend(
            {"check": "markov-trial", "witness": f"seed {t.seed}", "residual": t.value_text}
            for t in report.trials
            if not t.equal
        )
    return _emit(args, "markov", report.passed, report.lines(), failures, report.base.value_text, started, out)


def _cmd_selftest(args, out) -> int:
    started = time.monotonic()
    rows = []  # ((phase, n), label, report): every validation, every TSD sweep, then the kit families per algebra
    # Largest algebra first: nambu4's TSD sweep, the peak of selftest, then runs before the smaller
    # kits add their shapes to the per-shape key codecs (tensor._codec).  No kit outlives its sweep.
    for n, name in reversed(list(enumerate(SELFTEST_ALGEBRAS))):
        reports, kit = _sweep(_resolve_algebra(name), "all")
        rows += [((min(i, 2), n), f"{family} {name}", report) for i, (family, report) in enumerate(reports)]
        if name == "sl2":
            trefoil = markov_report(kit, parse_braid_word("s1 s1 s1", 2), trials=5, seed=7, moves=4)
        del kit
    lines: list[str] = []
    failures: list[dict] = []
    for _, label, report in sorted(rows, key=lambda row: row[0]):
        lines += [f"{label}: {'PASS' if report.passed else 'FAIL'}", *(f"  {r}" for r in report.failures)]
        failures += _failure_payload(report)
    lines.append(f"markov sl2 trefoil: {trefoil.verdict()}")
    if not trefoil.all_equal:
        failures.append({"check": "markov", "witness": "sl2 trefoil", "residual": "trace drift"})
    return _emit(args, "selftest", not failures, lines, failures, None, started, out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsdlink",
        description="Exact self-distributive braiding operators and framed link invariants from Lie and 3-Lie algebras.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the defining identity of an algebra file")
    p.add_argument("algebra")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("check", help="verify operator identities for an algebra")
    p.add_argument("algebra")
    p.add_argument("--property", choices=CHECK_PROPERTIES, default="all")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("invariant", help="trace invariant of a framed braid word")
    p.add_argument("algebra")
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--framings", default="")
    p.add_argument("--cap", type=int, default=10**6, help="refuse kits with more than CAP braiding columns, (d+1)^4")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("markov", help="seeded rewriting trials with trace comparison")
    p.add_argument("algebra")
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--framings", default="")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--moves", type=int, default=6)
    p.add_argument("--stabilize", choices=("off", "plain", "compensated"), default="off")
    p.add_argument("--cap", type=int, default=10**6, help="refuse kits with more than CAP braiding columns, (d+1)^4")
    p.set_defaults(func=_cmd_markov)

    p = sub.add_parser("selftest", help="run the bundled-algebra verification sweep")
    p.set_defaults(func=_cmd_selftest)

    return parser


def run_cli(argv: list[str], out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args, out)
    except (CliError, AlgebraError, BraidSyntaxError, FieldError, DimensionCapError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
