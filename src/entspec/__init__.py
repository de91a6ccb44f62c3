"""Finite-blocklength analysis of Schmidt-spectrum conversion.

Compressed spectra and sequence models, self-information tail functionals
and entropy-rate proxies, greedy conversion maps with majorization
certificates and fidelity bounds, and randomized verification suites for the
operator inequalities behind the asymptotic theory.  The operator calculus
works on NumPy arrays, one matrix or a stack of them; its verifiers take
(N, d, d) stacks and give one result per matrix.

Importing the package does not load NumPy.  The names of `hermitian` (the
dense tails, maps, verifiers and suites) resolve on first access, and that
access imports `hermitian` and NumPy.
"""

from .convert import (
    ConversionReport,
    RateVerdict,
    concentration_experiment,
    dilution_experiment,
    direct_convert,
)
from .infospec import cdf_selfinfo, entropy_proxies
from .majorize import (
    BistochasticMatrix,
    DeterministicMap,
    kh_certificate,
    kh_residual,
    majorizes,
    prefix_gap_min,
    pushforward,
    transfer_matrix,
)
from .randgen import (
    MapSynthesisReport,
    brute_force_optimal,
    synthesize_map,
)
from .spectra import (
    IID,
    AmplitudeMatrix,
    BudgetExceededError,
    Explicit,
    MaxEnt,
    MaxEntExplicit,
    Mixture,
    SequenceModel,
    Spectrum,
    entropy,
    expand,
    generate,
    iid_spectrum,
    load_model,
    maxent_rank,
    maxent_spectrum,
    model_from_json_dict,
    schmidt_from_amplitudes,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeMatrix",
    "BistochasticMatrix",
    "BudgetExceededError",
    "CPTPMap",
    "ConversionReport",
    "DeterministicMap",
    "Explicit",
    "IID",
    "MapSynthesisReport",
    "MaxEnt",
    "MaxEntExplicit",
    "Mixture",
    "RateVerdict",
    "SequenceModel",
    "Spectrum",
    "StochasticMap",
    "SuiteReport",
    "TransposeMix",
    "VerifyResult",
    "brute_force_optimal",
    "cdf_selfinfo",
    "concentration_experiment",
    "dilution_experiment",
    "direct_convert",
    "entropy",
    "entropy_proxies",
    "expand",
    "generate",
    "iid_spectrum",
    "kh_certificate",
    "kh_residual",
    "load_model",
    "majorizes",
    "maxent_rank",
    "maxent_spectrum",
    "model_from_json_dict",
    "prefix_gap_min",
    "pushforward",
    "run_suite",
    "schmidt_from_amplitudes",
    "synthesize_map",
    "tail_C",
    "tail_D",
    "transfer_matrix",
    "verify_bd_sandwich",
    "verify_continuity",
    "verify_lemma_bdm",
    "verify_lemma_np",
    "verify_product_tails",
    "verify_tail_monotonicity",
]


def __getattr__(name: str):
    if name in _HERMITIAN:
        from . import hermitian

        return getattr(hermitian, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | _HERMITIAN)


# hermitian's public names, resolved on first access (PEP 562): what __all__
# names but this module neither imports nor defines
_HERMITIAN = frozenset(__all__).difference(globals())
