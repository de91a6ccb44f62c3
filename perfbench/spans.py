"""Layer spans recorded from outside the program.

`traced(tracer)` rebinds, for the duration of a `with` block, the functions
each `entspec` module imports from the layer below (plus the convert layer's
own entry point) to wrappers that record one span per call: name, start,
end, parent span, op, and the call's exact counters.  It puts every
attribute back as it found it on the way out, also when the block raises.
Spans stay in memory; `write_jsonl` stores them once the run is over.

Costs grow with the atom count k and the fiber count F, never with the
expanded dimension, so the counters report atoms and fibers.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from importlib import import_module


def _atoms_out(args, result):
    return {"atoms_out": len(result.atoms)}


def _atoms_in(args, result):
    return {"atoms_in": len(args["s"].atoms)}


def _pair_atoms_in(args, result):
    return {"atoms_in": len(args["p"].atoms) + len(args["q"].atoms)}


def _synthesis(args, result):
    return {
        **_pair_atoms_in(args, result),
        "fibers_out": len(result.assignments),
        "maps_materialized": int(result.map is not None),
    }


def _checks(args, result):
    return {"checks": result.checks}


def _suite_name(args):
    return "hermitian.suite." + args["name"]


# (importing module, attribute, span name or a function of the bound
# arguments that gives it, counters taken from the bound arguments and result)
BOUNDARIES = (
    ("cli", "generate", "spectra.generate", _atoms_out),
    ("cli", "entropy_proxies", "infospec.entropy_proxies", _atoms_in),
    ("cli", "direct_convert", "convert.direct_convert", None),
    ("cli", "run_suite", _suite_name, _checks),
    ("convert", "generate", "spectra.generate", _atoms_out),
    ("convert", "direct_convert", "convert.direct_convert", None),
    ("convert", "synthesize_map", "randgen.synthesize_map", _synthesis),
    ("convert", "majorizes", "majorize.majorizes", _pair_atoms_in),
    ("infospec", "generate", "spectra.generate", _atoms_out),
    ("randgen", "generate", "spectra.generate", _atoms_out),
    ("hermitian", "synthesize_map", "randgen.synthesize_map", _synthesis),
    ("hermitian", "brute_force_optimal", "randgen.brute_force_optimal", None),
    ("hermitian", "pushforward", "majorize.certificates", None),
    ("hermitian", "prefix_gap_min", "majorize.certificates", None),
    ("hermitian", "kh_certificate", "majorize.certificates", None),
    ("hermitian", "kh_residual", "majorize.certificates", None),
    ("hermitian", "transfer_matrix", "majorize.certificates", None),
    ("hermitian", "cdf_selfinfo", "infospec.tails", None),
    ("hermitian", "tail_C", "infospec.tails", None),
    ("hermitian", "tail_D", "infospec.tails", None),
)


class Tracer:
    """In-memory span recorder; `op` tags the spans of the current op."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": time.perf_counter(),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name, counters):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments if callable(name) or counters else None
            with self.span(name(bound) if callable(name) else name) as record:
                result = fn(*args, **kwargs)
                if counters:
                    record.update(counters(bound, result))
            return result

        return wrapper


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Route every call across BOUNDARIES through `tracer` inside the block."""
    saved = []
    try:
        for module_name, attr, name, counters in BOUNDARIES:
            module = import_module("entspec." + module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, counters))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def write_jsonl(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in spans:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


# per-layer metrics of a traced pass, beyond `.s` and `.calls`: every name
# is reported on every workload, zero where the workload does not reach it
LAYERS = (
    ("spectra.generate", ("atoms_out",)),
    ("infospec.entropy_proxies", ("atoms_in",)),
    ("randgen.synthesize_map", ("atoms_in", "fibers_out", "maps_materialized")),
    ("majorize.majorizes", ("atoms_in",)),
    ("convert.direct_convert", ("self_s",)),
    ("randgen.brute_force_optimal", ()),
    ("majorize.certificates", ()),
    ("infospec.tails", ()),
)
UNITS = {
    "s": "s",
    "self_s": "s",
    "calls": "calls",
    "atoms_in": "atoms",
    "atoms_out": "atoms",
    "fibers_out": "fibers",
    "maps_materialized": "maps",
    "checks": "checks",
}


def layer_metrics(spans, suites) -> dict[str, tuple[float, str]]:
    """Busy time, calls, counters and self time per layer, from one pass.

    A span's self time is its duration minus that of its direct child spans.
    `cli` spans are the op roots, so `cli.self_s` is parse, format and emit;
    `hermitian.self_s` is the suites' own work outside the layers they call.
    """
    duration = {r["id"]: r["end"] - r["start"] for r in spans}
    own = dict(duration)
    for r in spans:
        if r["parent"] is not None:
            own[r["parent"]] -= duration[r["id"]]
    by_name: dict[str, Counter] = defaultdict(Counter)
    for r in spans:
        totals = by_name[r["name"]]
        totals.update({key: r[key] for key in UNITS if key in r})
        totals.update(s=duration[r["id"]], self_s=own[r["id"]], calls=1)

    out = {}
    for name, keys in LAYERS:
        for key in ("s", "calls", *keys):
            out[f"{name}.{key}"] = (by_name[name][key], UNITS[key])
    for suite in suites:
        for key in ("s", "checks"):
            out[f"hermitian.suite.{suite}.{key}"] = (by_name["hermitian.suite." + suite][key], UNITS[key])
    out["hermitian.self_s"] = (sum(by_name["hermitian.suite." + s]["self_s"] for s in suites), "s")
    out["cli.self_s"] = (by_name["cli"]["self_s"], "s")
    return out
