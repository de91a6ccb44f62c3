"""Command-line front end.

Subcommands: schmidt (amplitude file to spectrum), rates (entropy-rate proxy
grids), convert (one-shot spectrum conversion), concentrate / dilute
(fixed-rate experiments along an n grid), verify (randomized suites).

Exit codes: 0 success, 1 suite violation, 2 usage or parse error, 3 budget
exceeded.  Identical arguments produce byte-identical output.

Only `schmidt` and `verify` use the dense layer, and they load it when they
run: `schmidt` imports NumPy, `verify` NumPy and `hermitian`.  Importing
this module, building its parser and running `rates`, `convert`,
`concentrate` or `dilute` import neither.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from .convert import CONVERSION_KEYS, direct_convert, fixed_rate_experiment
from .infospec import _check_epsilon, entropy_proxies
from .spectra import (
    DEFAULT_MAX_TYPE_CLASSES,
    IID,
    AmplitudeMatrix,
    BudgetExceededError,
    MaxEnt,
    Mixture,
    SequenceModel,
    Spectrum,
    _real,
    entropy,
    generate,
    load_model,
    schmidt_from_amplitudes,
)

_LN2 = math.log(2.0)

# the fields of one printed `rates` row: its CSV columns and its JSON keys
RATES_KEYS = ("n", "epsilon", "underline_H", "overline_H")

# hermitian.SUITES' names in `verify all` order, and hermitian.MAX_VERIFY_DIM,
# held here so that building the parser does not load the dense layer
SUITE_NAMES = ("np", "bdm", "bd", "continuity", "product", "monotonicity", "kh", "transfer", "greedy-vs-brute")
MAX_VERIFY_DIM = 64


def run_suite(name: str, **options):
    """hermitian.run_suite, imported on first use."""
    from . import hermitian

    return hermitian.run_suite(name, **options)


def parse_model(text: str) -> SequenceModel:
    """Parse the inline model grammar.

    Forms: `iid:0.9,0.1` | `maxent:R=0.2` | `mix:W*SPEC+W*SPEC` | `file:path`.
    Mixture components cannot themselves be inline mixtures; use a model file
    for nesting.  Numbers must be plain decimals (no sign characters that
    would collide with the `+` separator).
    """
    if text.startswith("file:"):
        return load_model(text[len("file:"):])
    if text.startswith("iid:"):
        body = text[len("iid:"):]
        probs = [float(t) for t in body.split(",") if t.strip()]
        if not probs:
            raise ValueError(f"iid spec needs probabilities, got {text!r}")
        return IID(Spectrum.from_probs(probs))
    if text.startswith("maxent:"):
        body = text[len("maxent:"):]
        if not body.startswith("R="):
            raise ValueError(f"maxent spec must look like maxent:R=0.3, got {text!r}")
        return MaxEnt(float(body[len("R="):]))
    if text.startswith("mix:"):
        comps = []
        for part in text[len("mix:"):].split("+"):
            if "*" not in part:
                raise ValueError(f"mixture component {part!r} must look like WEIGHT*SPEC")
            w, sub = part.split("*", 1)
            if sub.startswith("mix:"):
                raise ValueError("nested inline mixtures are not supported; use file:")
            comps.append((float(w), parse_model(sub)))
        return Mixture(tuple(comps))
    raise ValueError(f"cannot parse model spec {text!r}")


def _parse_int_grid(text: str) -> list[int]:
    try:
        vals = [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f"expected a comma-separated list of integers, got {text!r}")
    if not vals:
        raise ValueError("empty grid")
    if any(v < 1 for v in vals):
        raise ValueError(f"grid entries must be positive, got {text!r}")
    return sorted(set(vals))


def _parse_eps_grid(text: str) -> list[float]:
    try:
        # + 0.0 reads -0 as 0.0, so it neither prints as -0.0 nor shadows 0.0 in the set
        vals = [float(t) + 0.0 for t in text.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f"expected a comma-separated list of reals, got {text!r}")
    if not vals:
        raise ValueError("empty grid")
    return sorted(set(map(_check_epsilon, vals)))


def _fmt(x) -> str:
    """One printed value: a bool as true/false, an int in digits, a real by repr."""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x) if isinstance(x, int) else repr(float(x))


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(keys: tuple[str, ...], records: list[dict]) -> str:
    lines = [",".join(keys)] + [",".join(_fmt(r[k]) for k in keys) for r in records]
    return "\n".join(lines) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_records(args, keys: tuple[str, ...], records: list[dict], json_of) -> None:
    """Per --format, the records as CSV with columns `keys`, or json_of() as JSON."""
    _emit(_csv_text(keys, records) if args.format == "csv" else _json_text(json_of()), args.out)


def _until_budget(n_grid, results_at) -> tuple[list, int]:
    """results_at(n) for each n in turn, concatenated, and the exit code: 3 if
    a budget ran out, keeping the results of every n finished before it."""
    results = []
    try:
        for n in n_grid:
            results += results_at(n)
    except BudgetExceededError as exc:
        print(f"budget exceeded, output truncated: {exc}", file=sys.stderr)
        return results, 3
    return results, 0


def _rate_scale(units: str) -> float:
    return _LN2 if units == "bits" else 1.0


def _cmd_schmidt(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read amplitude file: {exc}", file=sys.stderr)
        return 2
    rows = obj.get("amplitudes") if isinstance(obj, dict) else obj
    if not isinstance(rows, list):
        print("amplitude file must hold a matrix or {\"amplitudes\": matrix}", file=sys.stderr)
        return 2

    def cell(c):
        re, im = c if isinstance(c, list) and len(c) == 2 else (c, 0.0)
        return complex(_real(re, "amplitude real part"), _real(im, "amplitude imaginary part"))

    spec = schmidt_from_amplitudes(AmplitudeMatrix([[cell(c) for c in row] for row in rows]))
    ent = entropy(spec) / _rate_scale(args.units)
    _emit(_json_text(spec.to_json_dict()), args.out)
    # the entropy line goes to standard output unless the spectrum took it
    print(f"entropy {_fmt(ent)}", file=sys.stdout if args.out else sys.stderr)
    return 0


def _cmd_rates(args) -> int:
    model = parse_model(args.model)
    n_grid = _parse_int_grid(args.n)
    eps_grid = _parse_eps_grid(args.eps)
    scale = _rate_scale(args.units)

    def rows_at(n):
        s = generate(model, n, max_type_classes=args.budget_max_type_classes)
        return [
            dict(zip(RATES_KEYS, (n, eps, lo / scale, hi / scale)))
            for eps, (lo, hi) in zip(eps_grid, entropy_proxies(s, n, eps_grid))
        ]

    rows, code = _until_budget(n_grid, rows_at)
    _emit_records(args, RATES_KEYS, rows, lambda: {"units": args.units, "rows": rows})
    return code


def _cmd_convert(args) -> int:
    source = parse_model(args.source)
    target = parse_model(args.target)
    budget = args.budget_max_type_classes

    def report_at(n):
        p = generate(source, n, max_type_classes=budget)
        q = generate(target, n, max_type_classes=budget)
        return [direct_convert(p, q, n, max_fibers=budget)]

    reports, code = _until_budget(_parse_int_grid(args.n), report_at)
    rows = [r.row() for r in reports]
    _emit_records(args, CONVERSION_KEYS, rows, lambda: {"reports": [r.to_json_dict() for r in reports]})
    return code


def _cmd_experiment(args, task: str) -> int:
    """concentrate / dilute: a budget that runs out is fatal (exit 3, nothing printed)."""
    model = parse_model(args.model)
    n_grid = _parse_int_grid(args.n)
    verdict = fixed_rate_experiment(task, model, args.rate, n_grid, max_type_classes=args.budget_max_type_classes)
    _emit_records(args, CONVERSION_KEYS, [r.row() for r in verdict.reports], verdict.to_json_dict)
    return 0


def _cmd_verify(args) -> int:
    names = list(args.suites)
    if "all" in names:
        names = list(SUITE_NAMES)
    unknown = [x for x in names if x not in SUITE_NAMES]
    if unknown:
        print(f"unknown suite(s): {', '.join(unknown)}; known: all, {', '.join(SUITE_NAMES)}", file=sys.stderr)
        return 2
    reports = [run_suite(name, seed=args.seed, trials=args.trials, dim=args.dim) for name in names]
    text = _json_text({"seed": args.seed, "suites": [r.to_json_dict() for r in reports]})
    _emit(text, args.out)
    return 0 if all(r.ok for r in reports) else 1


def _positive_int(text: str) -> int:
    """argparse type of a budget: a positive integer, else a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_output_flags(sp, *, formats: bool = True) -> None:
    """--out; the commands with --format print rows of generated spectra and
    also take the type-class budget."""
    sp.add_argument("--out", default=None, help="output file (default: standard output)")
    if formats:
        sp.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
        sp.add_argument(
            "--budget-max-type-classes",
            type=_positive_int,
            default=DEFAULT_MAX_TYPE_CLASSES,
            help="largest number of type classes a modeled spectrum may hold",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entspec",
        description="Finite-blocklength spectrum conversion toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("schmidt", help="Schmidt spectrum of an amplitude-matrix JSON file")
    sp.add_argument("input", help="JSON file: nested matrix of reals or [re, im] pairs")
    sp.add_argument("--units", choices=("nats", "bits"), default="nats")
    _add_output_flags(sp, formats=False)
    sp.set_defaults(func=_cmd_schmidt)

    sp = sub.add_parser("rates", help="entropy-rate proxies over an (n, epsilon) grid")
    sp.add_argument("model", help="model spec, e.g. iid:0.9,0.1 or mix:0.5*iid:0.9,0.1+0.5*maxent:R=0.3")
    sp.add_argument("--n", required=True, help="comma-separated block lengths")
    sp.add_argument("--eps", required=True, help="comma-separated error tolerances in [0, 1]")
    sp.add_argument("--units", choices=("nats", "bits"), default="nats")
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_rates)

    sp = sub.add_parser("convert", help="convert source spectra onto target spectra at given n")
    sp.add_argument("source", help="model spec for the source")
    sp.add_argument("target", help="model spec for the target")
    sp.add_argument("--n", required=True, help="comma-separated block lengths")
    _add_output_flags(sp)
    sp.set_defaults(func=_cmd_convert)

    # (command, help, role of the modeled sequence, role of the flat one, task)
    for name, help_text, modeled, flat, task in (
        ("concentrate", "fixed-rate concentration onto flat spectra", "source", "target", "concentration"),
        ("dilute", "fixed-rate dilution from flat spectra", "target", "source", "dilution"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("model", help=f"model spec for the {modeled} sequence")
        sp.add_argument("--rate", type=float, required=True, help=f"{flat} rate in nats per copy")
        sp.add_argument("--n", required=True, help="comma-separated block lengths")
        _add_output_flags(sp)
        sp.set_defaults(func=lambda a, task=task: _cmd_experiment(a, task))

    sp = sub.add_parser("verify", help="run randomized verification suites")
    sp.add_argument("suites", nargs="+", help=f"suite names or 'all'; known: {', '.join(SUITE_NAMES)}")
    sp.add_argument("--seed", type=int, default=7, help="master seed for instance generation")
    sp.add_argument("--trials", type=int, default=None, help="override per-suite trial counts")
    sp.add_argument("--dim", type=int, default=8, help=f"largest operator dimension sampled, 2 to {MAX_VERIFY_DIM}")
    _add_output_flags(sp, formats=False)
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
