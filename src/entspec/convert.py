"""Conversion pipeline: map synthesis, majorization certificate, error bounds.

A source spectrum is pushed onto the target's labels by greedy synthesis.
The pushforward always majorizes the source, which certifies that the
corresponding bipartite pure state reaches the intermediate state
deterministically; what remains is the distance between intermediate and
target, reported as fidelity and the induced trace-distance interval
[1 - F, sqrt(1 - F^2)].  For pure states the upper end is the exact trace
distance, so experiments use it as the error figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .majorize import majorizes
from .randgen import MapSynthesisReport, synthesize_map
from .spectra import (
    DEFAULT_MAX_TYPE_CLASSES,
    SequenceModel,
    Spectrum,
    generate,
    maxent_rank,
    maxent_spectrum,
)


def _sqrt_term(count: int, mu: float, qv: float) -> float:
    """count * sqrt(mu * qv), through logs where the product would underflow;
    count is at most the multiplicity of qv, a target atom (normal), < 2**1023."""
    if mu <= 0.0:
        return 0.0
    prod = mu * qv
    if prod > 1e-300:
        return count * math.sqrt(prod)
    return math.exp(math.log(count) + 0.5 * (math.log(mu) + math.log(qv)))


# the fields of one printed conversion row: its CSV columns and its JSON keys
CONVERSION_KEYS = ("n", "error", "fidelity", "nielsen_ok")


@dataclass(frozen=True)
class ConversionReport:
    """One conversion instance: its synthesis, certificate and fidelity.

    The intermediate spectrum is `synthesis.pushforward`; the trace-distance
    interval [1 - F, sqrt(1 - F^2)] follows from the fidelity F.
    """

    n: int
    source_spectrum: Spectrum
    synthesis: MapSynthesisReport
    nielsen_ok: bool
    fidelity: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not 0.0 <= self.fidelity <= 1.0:
            raise ValueError(f"fidelity {self.fidelity!r} outside [0, 1]")
        if self.nielsen_ok != majorizes(self.source_spectrum, self.synthesis.pushforward):
            raise ValueError("nielsen_ok inconsistent with the majorization predicate")

    @property
    def trace_distance_lower(self) -> float:
        return 1.0 - self.fidelity

    @property
    def trace_distance_upper(self) -> float:
        return math.sqrt(max(0.0, 1.0 - self.fidelity * self.fidelity))

    def row(self) -> dict:
        """The printed row, keyed by CONVERSION_KEYS; the error is the trace-distance upper bound."""
        return dict(zip(CONVERSION_KEYS, (self.n, self.trace_distance_upper, self.fidelity, self.nielsen_ok)))

    def to_json_dict(self) -> dict:
        syn = self.synthesis
        return {
            "n": self.n,
            "source": self.source_spectrum.to_json_dict(),
            "target": syn.target.to_json_dict(),
            "intermediate": syn.pushforward.to_json_dict(),
            "nielsen_ok": self.nielsen_ok,
            "fidelity": self.fidelity,
            "trace_distance_lower": self.trace_distance_lower,
            "trace_distance_upper": self.trace_distance_upper,
            "variational_distance": syn.achieved_distance,
            "assignments": list(syn.assignments),
        }


def direct_convert(
    p: Spectrum,
    q: Spectrum,
    n: int,
    *,
    max_fibers: int = DEFAULT_MAX_TYPE_CLASSES,
) -> ConversionReport:
    """Synthesize p -> q, certify majorization, report fidelity and bounds."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    report = synthesize_map(p, q, max_fibers=max_fibers)
    # sum over fibers of count * sqrt(assigned mass * target mass)
    f = math.fsum(map(_sqrt_term, report.counts, report.assigned_masses, report.target_probs))
    return ConversionReport(
        n=n,
        source_spectrum=p,
        synthesis=report,
        nielsen_ok=majorizes(p, report.pushforward),
        fidelity=min(max(f, 0.0), 1.0),
    )


# the fixed-rate tasks; the modeled sequence is a concentration's source, a dilution's target
TASKS = ("concentration", "dilution")


@dataclass(frozen=True)
class RateVerdict:
    """Error series of a fixed-rate experiment, whose task is one of TASKS."""

    task: str
    rate: float
    reports: tuple[ConversionReport, ...]

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")

    def to_json_dict(self) -> dict:
        return {
            "task": self.task,
            "rate": self.rate,
            "series": [r.row() for r in self.reports],
        }


def fixed_rate_experiment(
    task: str,
    model: SequenceModel,
    rate: float,
    n_grid,
    *,
    max_type_classes: int = DEFAULT_MAX_TYPE_CLASSES,
) -> RateVerdict:
    """Convert between model's spectra and flat ones of rank ceil(e^{nR}) at
    each n of n_grid; a task not in TASKS fails before any is generated."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    reports = []
    for n in n_grid:
        modeled = generate(model, n, max_type_classes=max_type_classes)
        flat = maxent_spectrum(maxent_rank(rate, n))
        src, dst = (modeled, flat) if task == "concentration" else (flat, modeled)
        reports.append(direct_convert(src, dst, n, max_fibers=max_type_classes))
    return RateVerdict(task=task, rate=rate, reports=tuple(reports))
