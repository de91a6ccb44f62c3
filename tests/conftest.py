"""Report oracles.

Every `MapSynthesisReport` and `ConversionReport` that a test builds, directly
or through `synthesize_map`, `brute_force_optimal`, `direct_convert`, the
experiments, the suites or the CLI, is re-derived from its assignments after
the report's own shape checks: the variational distance, the pushforward
spectrum and the fidelity.  The program computes each of them once.  The
distance and the fidelity are recomputed by a different route here: float
sums instead of exact scaled ints, logs instead of `_sqrt_term`.
"""

import math

import pytest

from entspec.convert import ConversionReport
from entspec.randgen import MapSynthesisReport
from entspec.spectra import Spectrum


def check_synthesis_report(r: MapSynthesisReport) -> None:
    distance = math.fsum(abs(qv - mu) * c for qv, mu, c in r.assignments)
    assert abs(distance - r.achieved_distance) <= 1e-12, (r.achieved_distance, distance)
    rebuilt = Spectrum.from_atoms([(mu, c) for _, mu, c in r.assignments if mu > 0.0], mass_tol=1e-11)
    assert rebuilt.atoms == r.pushforward.atoms


def check_conversion_report(r: ConversionReport) -> None:
    f = math.fsum(
        math.exp(math.log(c) + 0.5 * (math.log(mu) + math.log(qv)))
        for qv, mu, c in r.synthesis.assignments
        if mu > 0.0
    )
    assert abs(min(f, 1.0) - r.fidelity) <= 1e-10, (r.fidelity, f)


def _then(post_init, oracle):
    def checked(self):
        post_init(self)
        oracle(self)

    return checked


@pytest.fixture(autouse=True)
def report_oracles(monkeypatch):
    oracles = ((MapSynthesisReport, check_synthesis_report), (ConversionReport, check_conversion_report))
    for cls, oracle in oracles:
        monkeypatch.setattr(cls, "__post_init__", _then(cls.__post_init__, oracle))
