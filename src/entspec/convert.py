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
from .randgen import FiberAssignment, MapSynthesisReport, synthesize_map
from .spectra import (
    DEFAULT_MAX_TYPE_CLASSES,
    SequenceModel,
    Spectrum,
    generate,
    maxent_rank,
    maxent_spectrum,
)


def _sqrt_term(count: int, mu: float, qv: float) -> float:
    """count * sqrt(mu * qv) robust to huge counts and underflowing products."""
    if mu <= 0.0 or qv <= 0.0:
        return 0.0
    prod = mu * qv
    if prod > 1e-300:
        try:
            return count * math.sqrt(prod)
        except OverflowError:
            pass
    return math.exp(math.log(count) + 0.5 * (math.log(mu) + math.log(qv)))


def fidelity_from_assignments(assignments) -> float:
    """Sum over codomain labels of sqrt(assigned mass * target mass)."""
    f = math.fsum(_sqrt_term(a.count, a.assigned_mass, a.target_prob) for a in assignments)
    return min(max(f, 0.0), 1.0)


@dataclass(frozen=True)
class ConversionReport:
    """One conversion instance with its certificate and error bounds."""

    n: int
    source_spectrum: Spectrum
    target_spectrum: Spectrum
    intermediate_spectrum: Spectrum
    nielsen_ok: bool
    fidelity: float
    trace_distance_lower: float
    trace_distance_upper: float
    variational_distance: float
    assignments: tuple[FiberAssignment, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not 0.0 <= self.fidelity <= 1.0:
            raise ValueError(f"fidelity {self.fidelity!r} outside [0, 1]")
        recomputed = fidelity_from_assignments(self.assignments)
        if abs(recomputed - self.fidelity) > 1e-10:
            raise ValueError(f"fidelity {self.fidelity!r} does not match assignments ({recomputed!r})")
        if abs(self.trace_distance_lower - (1.0 - self.fidelity)) > 1e-12:
            raise ValueError("trace_distance_lower must equal 1 - fidelity")
        expected_upper = math.sqrt(max(0.0, 1.0 - self.fidelity * self.fidelity))
        if abs(self.trace_distance_upper - expected_upper) > 1e-12:
            raise ValueError("trace_distance_upper must equal sqrt(1 - fidelity^2)")
        if self.trace_distance_lower > self.trace_distance_upper + 1e-12:
            raise ValueError("distance bounds out of order")
        if self.nielsen_ok != majorizes(self.source_spectrum, self.intermediate_spectrum):
            raise ValueError("nielsen_ok inconsistent with the majorization predicate")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "source": self.source_spectrum.to_json_dict(),
            "target": self.target_spectrum.to_json_dict(),
            "intermediate": self.intermediate_spectrum.to_json_dict(),
            "nielsen_ok": self.nielsen_ok,
            "fidelity": self.fidelity,
            "trace_distance_lower": self.trace_distance_lower,
            "trace_distance_upper": self.trace_distance_upper,
            "variational_distance": self.variational_distance,
            "assignments": [a.to_json_row() for a in self.assignments],
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
    report: MapSynthesisReport = synthesize_map(p, q, max_fibers=max_fibers)
    intermediate = report.pushforward
    ok = majorizes(p, intermediate)
    f = fidelity_from_assignments(report.assignments)
    lower = 1.0 - f
    upper = math.sqrt(max(0.0, 1.0 - f * f))
    return ConversionReport(
        n=n,
        source_spectrum=p,
        target_spectrum=q,
        intermediate_spectrum=intermediate,
        nielsen_ok=ok,
        fidelity=f,
        trace_distance_lower=lower,
        trace_distance_upper=upper,
        variational_distance=report.achieved_distance,
        assignments=report.assignments,
    )


@dataclass(frozen=True)
class RateVerdict:
    """Error series for a fixed-rate conversion experiment."""

    task: str
    rate: float
    epsilon_error_series: tuple[tuple[int, float], ...]
    reports: tuple[ConversionReport, ...]

    def __post_init__(self):
        if self.task not in ("concentration", "dilution"):
            raise ValueError(f"unknown task {self.task!r}")
        if len(self.epsilon_error_series) != len(self.reports):
            raise ValueError("series and reports disagree in length")
        for (n, err), rep in zip(self.epsilon_error_series, self.reports):
            if n != rep.n:
                raise ValueError("series and reports disagree on n")
            if not 0.0 <= err <= 2.0:
                raise ValueError(f"error {err!r} outside [0, 2]")

    def to_json_dict(self) -> dict:
        return {
            "task": self.task,
            "rate": self.rate,
            "series": [
                {
                    "n": n,
                    "error": err,
                    "fidelity": rep.fidelity,
                    "nielsen_ok": rep.nielsen_ok,
                }
                for (n, err), rep in zip(self.epsilon_error_series, self.reports)
            ],
        }


def _experiment(task, model, rate, n_grid, max_type_classes) -> RateVerdict:
    reports = []
    for n in n_grid:
        modeled = generate(model, n, max_type_classes=max_type_classes)
        flat = maxent_spectrum(maxent_rank(rate, n))
        src, dst = (modeled, flat) if task == "concentration" else (flat, modeled)
        reports.append(direct_convert(src, dst, n, max_fibers=max_type_classes))
    series = tuple((rep.n, rep.trace_distance_upper) for rep in reports)
    return RateVerdict(task=task, rate=rate, epsilon_error_series=series, reports=tuple(reports))


def concentration_experiment(
    source: SequenceModel,
    rate: float,
    n_grid,
    *,
    max_type_classes: int = DEFAULT_MAX_TYPE_CLASSES,
) -> RateVerdict:
    """Convert generated source spectra onto flat spectra of rank ceil(e^{nR})."""
    return _experiment("concentration", source, rate, n_grid, max_type_classes)


def dilution_experiment(
    target: SequenceModel,
    rate: float,
    n_grid,
    *,
    max_type_classes: int = DEFAULT_MAX_TYPE_CLASSES,
) -> RateVerdict:
    """Convert flat spectra of rank ceil(e^{nR}) onto generated target spectra."""
    return _experiment("dilution", target, rate, n_grid, max_type_classes)
