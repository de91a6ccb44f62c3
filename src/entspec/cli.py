"""Command-line front end.

Subcommands: schmidt (amplitude file to spectrum), rates (entropy-rate proxy
grids), convert (one-shot spectrum conversion), concentrate / dilute
(fixed-rate experiments along an n grid), verify (randomized suites).

Exit codes: 0 success, 1 suite violation, 2 usage or parse error, 3 budget
exceeded.  Identical arguments produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from .convert import concentration_experiment, dilution_experiment, direct_convert
from .hermitian import SUITE_IDS, run_suite
from .infospec import entropy_proxies
from .spectra import (
    DEFAULT_MAX_EXPANDED_DIM,
    DEFAULT_MAX_TYPE_CLASSES,
    IID,
    AmplitudeMatrix,
    BudgetExceededError,
    MaxEnt,
    Mixture,
    SequenceModel,
    Spectrum,
    entropy,
    generate,
    load_model,
    schmidt_from_amplitudes,
)

_LN2 = math.log(2.0)


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


def _parse_float_grid(text: str) -> list[float]:
    try:
        vals = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f"expected a comma-separated list of reals, got {text!r}")
    if not vals:
        raise ValueError("empty grid")
    return sorted(set(vals))


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(header: str, rows: list[list[str]]) -> str:
    return "\n".join([header] + [",".join(r) for r in rows]) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
        if isinstance(c, (int, float)):
            return complex(c, 0.0)
        if isinstance(c, list) and len(c) == 2:
            return complex(float(c[0]), float(c[1]))
        raise ValueError(f"amplitude entries must be reals or [re, im] pairs, got {c!r}")

    spec = schmidt_from_amplitudes(AmplitudeMatrix([[cell(c) for c in row] for row in rows]))
    ent = entropy(spec) / _rate_scale(args.units)
    text = _json_text(spec.to_json_dict())
    if args.out:
        _emit(text, args.out)
        print(f"entropy {_fmt(ent)}")
    else:
        sys.stdout.write(text)
        print(f"entropy {_fmt(ent)}", file=sys.stderr)
    return 0


def _cmd_rates(args) -> int:
    model = parse_model(args.model)
    n_grid = _parse_int_grid(args.n)
    eps_grid = _parse_float_grid(args.eps)
    scale = _rate_scale(args.units)
    rows = []
    code = 0
    try:
        for n in n_grid:
            s = generate(model, n, max_type_classes=args.budget_max_type_classes)
            for eps in eps_grid:
                lo, hi = entropy_proxies(s, n, eps)
                rows.append((n, eps, lo / scale, hi / scale))
    except BudgetExceededError as exc:
        print(f"budget exceeded, output truncated: {exc}", file=sys.stderr)
        code = 3
    if args.format == "csv":
        text = _csv_text(
            "n,epsilon,underline_H,overline_H",
            [[str(n), _fmt(e), _fmt(lo), _fmt(hi)] for n, e, lo, hi in rows],
        )
    else:
        text = _json_text(
            {
                "units": args.units,
                "rows": [
                    {"n": n, "epsilon": e, "underline_H": lo, "overline_H": hi}
                    for n, e, lo, hi in rows
                ],
            }
        )
    _emit(text, args.out)
    return code


def _experiment_rows(verdict) -> list[list[str]]:
    return [
        [str(n), _fmt(err), _fmt(rep.fidelity), _fmt_bool(rep.nielsen_ok)]
        for (n, err), rep in zip(verdict.epsilon_error_series, verdict.reports)
    ]


def _cmd_convert(args) -> int:
    source = parse_model(args.source)
    target = parse_model(args.target)
    n_grid = _parse_int_grid(args.n)
    reports = []
    code = 0
    try:
        for n in n_grid:
            p = generate(source, n, max_type_classes=args.budget_max_type_classes)
            q = generate(target, n, max_type_classes=args.budget_max_type_classes)
            reports.append(
                direct_convert(
                    p,
                    q,
                    n,
                    max_expanded_dim=args.budget_max_expanded_dim,
                    max_fibers=args.budget_max_type_classes,
                )
            )
    except BudgetExceededError as exc:
        print(f"budget exceeded, output truncated: {exc}", file=sys.stderr)
        code = 3
    if args.format == "csv":
        text = _csv_text(
            "n,error,fidelity,nielsen_ok",
            [
                [str(r.n), _fmt(r.trace_distance_upper), _fmt(r.fidelity), _fmt_bool(r.nielsen_ok)]
                for r in reports
            ],
        )
    else:
        text = _json_text({"reports": [r.to_json_dict() for r in reports]})
    _emit(text, args.out)
    return code


def _cmd_experiment(args, task: str) -> int:
    model = parse_model(args.model)
    n_grid = _parse_int_grid(args.n)
    run = concentration_experiment if task == "concentration" else dilution_experiment
    try:
        verdict = run(
            model,
            args.rate,
            n_grid,
            max_type_classes=args.budget_max_type_classes,
            max_expanded_dim=args.budget_max_expanded_dim,
        )
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    if args.format == "csv":
        text = _csv_text("n,error,fidelity,nielsen_ok", _experiment_rows(verdict))
    else:
        text = _json_text(verdict.to_json_dict())
    _emit(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    names = list(args.suites)
    if "all" in names:
        names = list(SUITE_IDS)
    unknown = [x for x in names if x not in SUITE_IDS]
    if unknown:
        print(f"unknown suite(s): {', '.join(unknown)}; known: all, {', '.join(SUITE_IDS)}", file=sys.stderr)
        return 2
    reports = [run_suite(name, seed=args.seed, trials=args.trials, dim=args.dim) for name in names]
    text = _json_text({"seed": args.seed, "suites": [r.to_json_dict() for r in reports]})
    _emit(text, args.out)
    return 0 if all(r.ok for r in reports) else 1


def _add_output_flags(sp, *, formats: bool = True) -> None:
    sp.add_argument("--out", default=None, help="output file (default: standard output)")
    if formats:
        sp.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")


def _add_budget_flags(sp) -> None:
    sp.add_argument(
        "--budget-max-type-classes",
        type=int,
        default=DEFAULT_MAX_TYPE_CLASSES,
        help="largest number of type classes a modeled spectrum may hold",
    )
    sp.add_argument(
        "--budget-max-expanded-dim",
        type=int,
        default=DEFAULT_MAX_EXPANDED_DIM,
        help="largest expanded dimension for explicit maps and certificates",
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
    _add_budget_flags(sp)
    sp.set_defaults(func=_cmd_rates)

    sp = sub.add_parser("convert", help="convert source spectra onto target spectra at given n")
    sp.add_argument("source", help="model spec for the source")
    sp.add_argument("target", help="model spec for the target")
    sp.add_argument("--n", required=True, help="comma-separated block lengths")
    _add_output_flags(sp)
    _add_budget_flags(sp)
    sp.set_defaults(func=_cmd_convert)

    sp = sub.add_parser("concentrate", help="fixed-rate concentration onto flat spectra")
    sp.add_argument("model", help="model spec for the source sequence")
    sp.add_argument("--rate", type=float, required=True, help="target rate in nats per copy")
    sp.add_argument("--n", required=True, help="comma-separated block lengths")
    _add_output_flags(sp)
    _add_budget_flags(sp)
    sp.set_defaults(func=lambda a: _cmd_experiment(a, "concentration"))

    sp = sub.add_parser("dilute", help="fixed-rate dilution from flat spectra")
    sp.add_argument("model", help="model spec for the target sequence")
    sp.add_argument("--rate", type=float, required=True, help="source rate in nats per copy")
    sp.add_argument("--n", required=True, help="comma-separated block lengths")
    _add_output_flags(sp)
    _add_budget_flags(sp)
    sp.set_defaults(func=lambda a: _cmd_experiment(a, "dilution"))

    sp = sub.add_parser("verify", help="run randomized verification suites")
    sp.add_argument("suites", nargs="+", help=f"suite names or 'all'; known: {', '.join(SUITE_IDS)}")
    sp.add_argument("--seed", type=int, default=7, help="master seed for instance generation")
    sp.add_argument("--trials", type=int, default=None, help="override per-suite trial counts")
    sp.add_argument("--dim", type=int, default=8, help="largest operator dimension sampled")
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
