"""Positive-part operator calculus, dense operator tails and randomized verification suites.

The calculus: the tails of a state rho against a reference sigma
(`tail_D`, the mass of rho on the positive part of rho - e^(n a) sigma, and
`tail_C`, the trace of that part: the Nagaoka-Hayashi / Bowen-Datta
information-spectrum quantities), the private positive-part helpers the
verifiers share, and three families of trace-preserving maps (Kraus,
column-stochastic on diagonal arguments, transpose mixing; only the first is
completely positive).  One cutoff decides every sign: an
eigenvalue within 1e-10 of zero relative to its matrix's spectral norm
counts as non-positive.  Every function of the calculus, and every
validation (shape, finiteness, Hermitian deviation, contraction, density,
Kraus completeness, column sums), takes one matrix or a (..., d, d) stack
and gives arrays; an operator stack is validated where it enters, and a
map whose arrays are stacks is a stack of maps applied matrix by matrix.
`verify_bd_sandwich`, `verify_continuity` and `verify_tail_monotonicity`
validate theirs twice, as the public `tail_C`/`tail_D` they call check
shapes and finiteness again; they keep calling those two because
perfbench/spans.py counts the calls by wrapping them.  Each verifier takes
(N, d, d) stacks, with its scalar parameters broadcast against them, and
gives a list of one result per matrix.

The suites: seeded randomized checks of every operator inequality the
conversion analysis rests on, plus structural suites for the majorization
certificates and the greedy-versus-exhaustive map synthesis.  Each instance
draws from its own generator seeded by (master seed, suite id, instance
index), so results are independent of execution order and reruns are
byte-identical.  A suite takes its instances a chunk at a time.  A dense
suite's chunk is _CHUNK * 64 // d^2 instances at --dim d: 1024 at the
default 8, so a dense suite with default trials is one chunk, and 16 at the
cap 64.  A spectrum suite draws no d x d stack, so its chunk is _CHUNK at
every --dim.  A chunk's
generators come from one vectorized SeedSequence pass over its instance
indices, then one cheap generator per instance from the precomputed words:
the same PCG64 streams as np.random.default_rng([seed, suite id, k]).  The
dense suites first draw every instance's random numbers, then evaluate one
shape group at a time (dimension, map family, and, wherever a positive
projector is formed, the count of positive eigenvalues), so a chunk costs
one NumPy call per step per shape group instead of one per instance.
Stacked LAPACK, BLAS and reductions run the per-matrix routine on
per-matrix memory layouts, so every margin is bit for bit the per-instance
one.  The product, kh and greedy-vs-brute suites' draw is the whole
instance: it draws and evaluates in one call, so each generator is freed
with its instance.  transfer draws a chunk's target spectra and mixing
weights first, then evaluates them one expanded size m at a time: it builds
the group's sources with stacked matmuls, one `transfer_matrix` call steps
all its pairs in lockstep, and their matrices are freed once the group's
checks are done.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .infospec import cdf_selfinfo
from .majorize import (
    DeterministicMap,
    kh_certificate,
    kh_residual,
    prefix_gap_min,
    pushforward,
    transfer_matrix,
)
from .randgen import brute_force_optimal, synthesize_map
from .spectra import _EXP_LIMIT, DEFAULT_MAX_EXPANDED_DIM, BudgetExceededError, Spectrum, expand

_EIG_CUT_REL = 1e-10


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _symmetrized(m: np.ndarray) -> np.ndarray:
    return (m + _dagger(m)) / 2.0


def _trace(m: np.ndarray) -> np.ndarray:
    return np.trace(m, axis1=-2, axis2=-1)


def _count_groups(w: np.ndarray) -> list:
    """(c, selector) for each distinct count c of positive eigenvalues among the rows of w.

    The rows are ascending, so a row's positive eigenvalues are its suffix
    above the cutoff.  Stacked work is done per group, never with padding or
    masking: a zero-padded sum or product rounds differently from the
    per-matrix one.
    """
    cut = _EIG_CUT_REL * np.abs(w).max(axis=-1, keepdims=True, initial=0.0)
    counts = np.count_nonzero(w > cut, axis=-1)
    return [(c, counts == c) for c in set(counts.ravel().tolist())]


def _columns(v: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Eigenvector columns lo..hi of each matrix, column-major as v[:, mask] lays them out.

    BLAS and einsum round by memory layout, so the layout matches the per-matrix one.
    """
    return np.ascontiguousarray(v[..., lo:hi].swapaxes(-1, -2)).swapaxes(-1, -2)


def _positive_sum(w: np.ndarray) -> np.ndarray:
    """Sum of the positive eigenvalues of each row of ascending eigenvalues."""
    out = np.zeros(w.shape[:-1])
    d = w.shape[-1]
    for c, sel in _count_groups(w):
        out[sel] = w[sel][..., d - c:].sum(axis=-1)
    return out


def _positive_trace(m: np.ndarray) -> np.ndarray:
    """Trace of the positive part of each matrix of a (..., d, d) Hermitian stack."""
    return _positive_sum(np.linalg.eigvalsh(m))


def _first(bad: np.ndarray) -> Optional[int]:
    """Flat index of the first flagged matrix of a stack, or None."""
    return int(np.argmax(bad)) if bad.any() else None


def _square_stacks(*xs) -> list:
    """Each x as a complex nonempty square matrix or (..., d, d) stack, all of one shape."""
    ms = [np.asarray(x, dtype=complex) for x in xs]
    for m in ms:
        if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
            raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
    if any(m.shape != ms[0].shape for m in ms):
        raise ValueError(f"expected operators of one shape, got {[m.shape for m in ms]}")
    return ms


def _finite_scale(m: np.ndarray) -> np.ndarray:
    """The largest entry magnitude of each matrix; a non-finite entry is rejected."""
    scale = np.abs(m).max(axis=(-2, -1))
    # written so that NaN fails
    i = _first(~(scale < math.inf))
    if i is not None:
        raise ValueError(f"matrix has a non-finite entry (largest magnitude {float(scale.flat[i])!r})")
    return scale


def _check_hermitian(m: np.ndarray) -> np.ndarray:
    """The symmetrized stack; a non-finite entry, or a deviation above 1e-10 of a matrix's largest entry, is rejected."""
    scale = _finite_scale(m)
    dev = np.abs(m - _dagger(m)).max(axis=(-2, -1))
    i = _first(dev > 1e-10 * scale)
    if i is not None:
        raise ValueError(f"matrix deviates from Hermitian by {float(dev.flat[i])!r} (scale {float(scale.flat[i])!r})")
    return _symmetrized(m)


def _check_unit_interval(m: np.ndarray) -> None:
    w = np.linalg.eigvalsh(m)
    lo, hi = w.min(axis=-1), w.max(axis=-1)
    # written so that NaN fails
    i = _first(~((lo >= -1e-10) & (hi <= 1.0 + 1e-10)))
    if i is not None:
        raise ValueError(f"eigenvalues [{lo.flat[i]!r}, {hi.flat[i]!r}] leave the interval [0, 1]")


@dataclass(frozen=True, eq=False)
class CPTPMap:
    """Kraus map A -> sum_i K_i A K_i^dagger with sum_i K_i^dagger K_i = I.

    Kraus operators that are (..., d, d) stacks make a stack of maps.
    """

    kraus: tuple

    def __post_init__(self):
        if not self.kraus:
            raise ValueError("need at least one Kraus operator")
        shape = self.kraus[0].shape
        acc = np.zeros(shape, dtype=complex)
        for k in self.kraus:
            if k.shape != shape or len(shape) < 2 or shape[-1] != shape[-2]:
                raise ValueError("Kraus operators must be square and equally sized")
            acc += _dagger(k) @ k
        dev = np.abs(acc - np.eye(shape[-1])).max(axis=(-2, -1))
        # written so that NaN fails
        i = _first(~(dev <= 1e-10))
        if i is not None:
            raise ValueError(f"Kraus completeness fails by {float(dev.flat[i])!r}")

    @property
    def dimension(self) -> int:
        return self.kraus[0].shape[-1]


@dataclass(frozen=True, eq=False)
class StochasticMap:
    """Column-stochastic action on the diagonal of a diagonal argument (trace preserving, not CP).

    Its argument must be diagonal: to act on the eigenvalues of a Hermitian A,
    pass diag(eigvalsh(A)).  A (..., d, d) matrix stack makes a stack of maps.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        # both checks written so that NaN fails
        low = m.min(axis=(-2, -1))
        i = _first(~(low >= -1e-12))
        if i is not None:
            raise ValueError(f"negative entry {low.flat[i]!r}")
        dev = np.abs(m.sum(axis=-2) - 1.0).max(axis=-1)
        i = _first(~(dev <= 1e-10))
        if i is not None:
            raise ValueError(f"column sums deviate from 1 by {float(dev.flat[i])!r}")

    @property
    def dimension(self) -> int:
        return self.matrix.shape[-1]


@dataclass(frozen=True)
class TransposeMix:
    """A -> (1 - t) A + t A^T; trace preserving, not completely positive.

    An array of weights makes a stack of maps.
    """

    t: float

    def __post_init__(self):
        t = np.asarray(self.t)
        i = _first(~((t >= 0.0) & (t <= 1.0)))
        if i is not None:
            raise ValueError(f"mixing weight must lie in [0, 1], got {self.t if t.ndim == 0 else float(t.flat[i])!r}")


TPMap = Union[CPTPMap, StochasticMap, TransposeMix]


def _projector(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Projector onto each matrix's positive eigenvectors, from its eigh, not yet symmetrized."""
    d = w.shape[-1]
    proj = np.zeros_like(v)
    for c, sel in _count_groups(w):
        vp = _columns(v[sel], d - c, d)
        proj[sel] = vp @ _dagger(vp)
    return proj


def _trace_norm(m: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.eigvalsh(m)).sum(axis=-1)


def _diag_embed(x: np.ndarray) -> np.ndarray:
    """np.diag over a stack of diagonals."""
    d = x.shape[-1]
    out = np.zeros(x.shape + (d,), dtype=x.dtype)
    out[..., np.arange(d), np.arange(d)] = x
    return out


def _apply_tp(f: TPMap, m: np.ndarray) -> np.ndarray:
    if isinstance(f, TransposeMix):
        t = np.asarray(f.t)[..., None, None]
        return _symmetrized((1.0 - t) * m + t * m.swapaxes(-1, -2))
    if not isinstance(f, (CPTPMap, StochasticMap)):
        raise TypeError(f"not a TP map: {f!r}")
    if f.dimension != m.shape[-1]:
        raise ValueError(f"dimension mismatch: map {f.dimension}, operator {m.shape[-1]}")
    if isinstance(f, CPTPMap):
        out = np.zeros(np.broadcast_shapes(f.kraus[0].shape, m.shape), dtype=complex)
        for k in f.kraus:
            out += k @ m @ _dagger(k)
        return _symmetrized(out)
    # one classical map on the diagonals, so commuting arguments see the same map
    x = np.diagonal(m, axis1=-2, axis2=-1)
    off = np.abs(m - _diag_embed(x)).max(axis=(-2, -1))
    if not (off <= 1e-12 * np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)).all():
        raise ValueError("stochastic maps require diagonal arguments")
    return _symmetrized(_diag_embed((f.matrix @ x.real[..., None])[..., 0].astype(complex)))


def _threshold_factor(n: int, a: float) -> float:
    # both checks written so that NaN fails
    if not n >= 1:
        raise ValueError("n must be a positive integer")
    if not n * a <= _EXP_LIMIT:
        raise ValueError(f"exp({n * a}) is not a finite double")
    return math.exp(n * a)


def _tail_difference(rho: np.ndarray, sigma: np.ndarray, n, a) -> np.ndarray:
    """The Hermitian part of rho - e^(n a) sigma for two complex stacks of one shape.

    n and a are numbers or sequences broadcast against the stack.
    """
    ns, xs = np.broadcast_arrays(n, a)
    factors = [_threshold_factor(k, x) for k, x in zip(ns.ravel().tolist(), xs.ravel().tolist())]
    return _symmetrized(rho - np.reshape(factors, ns.shape + (1, 1)) * sigma)


def _projected_mass(r: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Mass of each r on the strictly positive part of the matching diff."""
    w, v = np.linalg.eigh(diff)
    out = np.zeros(w.shape[:-1])
    d = w.shape[-1]
    for c, sel in _count_groups(w):
        if c:
            # one contraction per matrix: a stacked einsum rounds differently
            out[sel] = [np.einsum("ij,ik,kj->", x.conj(), y, x).real for x, y in zip(_columns(v[sel], d - c, d), r[sel])]
    return out


def _tail_operators(rho, sigma) -> list:
    """rho and sigma as complex square stacks of one shape with finite entries."""
    ms = _square_stacks(rho, sigma)
    for m in ms:
        _finite_scale(m)
    return ms


def tail_D(rho, sigma, n, a):
    """Mass of rho on the strictly positive part of rho - e^(n a) sigma.

    Computed from the eigendecomposition of the difference.  Takes a matrix
    pair or a (..., d, d) stack pair with n and a broadcast against it, and
    gives an array of one tail per matrix (0-d for a matrix pair); a NaN or
    infinite entry raises a ValueError.
    """
    r, s = _tail_operators(rho, sigma)
    return _projected_mass(r, _tail_difference(r, s, n, a))


def tail_C(rho, sigma, n, a):
    """Trace of the positive part of rho - e^(n a) sigma; stacks as in tail_D."""
    return _positive_trace(_tail_difference(*_tail_operators(rho, sigma), n, a))


def _require_psd(name: str, m: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvalsh(m)
    low = w.min(axis=-1)
    i = _first(low < -1e-8)
    if i is not None:
        raise ValueError(f"{name} has negative eigenvalue {float(low.flat[i])!r}")
    return w


def _require_density(name: str, m: np.ndarray):
    tr = _require_psd(name, m).sum(axis=-1)
    i = _first(np.abs(tr - 1.0) > 1e-8)
    if i is not None:
        raise ValueError(f"{name} has trace {float(tr.flat[i])!r}, expected 1")


# ---------------------------------------------------------------------------
# verifiers: each takes (N, d, d) stacks, validates them once, and gives one
# list of (name, signed margin, tolerance) checks per matrix

@dataclass(frozen=True)
class VerifyResult:
    """Outcome of one verification call: signed margins, violations in full."""

    worst_slack: float
    checks: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def _finish(checks: list, payload: Callable[[], dict]) -> VerifyResult:
    worst = min(margin for _, margin, _ in checks)
    bad = [(name, margin, tol) for name, margin, tol in checks if margin < -tol]
    violations = tuple(
        {"check": name, "margin": margin, "tolerance": tol, "instance": payload()}
        for name, margin, tol in bad
    )
    return VerifyResult(worst_slack=worst, checks=len(checks), violations=violations)


def _mat_json(m: np.ndarray) -> list:
    c = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in c]


def _json_value(v, i: Optional[int] = None):
    """JSON form of v, or of instance i of a stacked input: a matrix, a map, or an entry of a sequence.

    A map whose arrays are single matrices applies to every instance.
    """
    if isinstance(v, CPTPMap):
        kraus = v.kraus if v.kraus[0].ndim == 2 else [k[i] for k in v.kraus]
        return {"kind": "cptp", "kraus": [_mat_json(k) for k in kraus]}
    if isinstance(v, StochasticMap):
        m = v.matrix if v.matrix.ndim == 2 else v.matrix[i]
        return {"kind": "stochastic", "matrix": [[float(x) for x in row] for row in m]}
    if isinstance(v, TransposeMix):
        return {"kind": "transpose_mix", "t": v.t if np.ndim(v.t) == 0 else float(v.t[i])}
    if i is not None:
        v = v[i]
    if isinstance(v, np.ndarray):
        return _mat_json(v)
    if isinstance(v, Spectrum):
        return v.to_json_dict()
    if isinstance(v, DeterministicMap):
        return v.to_json_dict()
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _payload(i: Optional[int] = None, /, **values) -> Callable[[], dict]:
    """A builder of the JSON form of the values, or of instance i of each."""
    return lambda: {k: _json_value(v, i) for k, v in values.items()}


def _results(checks: list, **stacks) -> list:
    """One VerifyResult per instance; a violation's payload holds instance i of each stack."""
    return [_finish(c, _payload(i, **stacks)) for i, c in enumerate(checks)]


def _operators(*xs) -> list:
    """Validated (N, d, d) stacks of one shape."""
    for x in xs:
        if np.ndim(x) != 3:
            raise ValueError(f"expected an (N, d, d) stack of operators, got shape {np.shape(x)}")
    return [_check_hermitian(m) for m in _square_stacks(*xs)]


def _per_instance(x, count: int) -> list:
    """A number or a sequence broadcast to one Python number per instance."""
    return np.broadcast_to(x, (count,)).tolist()


def verify_lemma_np(a, t):
    """Tr A T <= Tr A_plus for a contraction T, with attainment at A > 0.

    t holds one contraction per operator, a stack of a's shape; each must
    lie in 0 <= T <= I.
    """
    a, t = _operators(a, t)
    _check_unit_interval(t)
    tp = _positive_trace(a).tolist()
    vals = _trace(a @ t).real.tolist()
    attained = _trace(a @ _symmetrized(_projector(*np.linalg.eigh(a)))).real.tolist()
    checks = [
        [("upper-bound", x - v, 1e-9), ("attained-at-positive-projector", 1e-10 - abs(y - x), 0.0)]
        for x, v, y in zip(tp, vals, attained)
    ]
    return _results(checks, operator=a, tightest_contraction=t)


def verify_lemma_bdm(f: TPMap, a):
    """Tr F(A)_plus <= Tr A_plus for a trace-preserving map F (or a stack of maps).

    A stochastic map takes diagonal A only.
    """
    (a,) = _operators(a)
    before = _positive_trace(a).tolist()
    after = _positive_trace(_apply_tp(f, a)).tolist()
    checks = [[("positive-part-monotone", x - y, 1e-9)] for x, y in zip(before, after, strict=True)]
    return _results(checks, map=f, operator=a)


def verify_bd_sandwich(rho, sigma, n, a, gamma):
    """Positive-part tail below projector tail, and the shifted-cut lower bound."""
    rho, sigma = _operators(rho, sigma)
    n, a, gamma = (_per_instance(x, len(rho)) for x in (n, a, gamma))
    # written so that NaN fails
    if not all(g > 0.0 for g in gamma):
        raise ValueError("gamma must be positive")
    _require_density("rho", rho)
    _require_psd("sigma", sigma)
    # tail_C and tail_D at the same cut share one difference operator
    diff = _tail_difference(rho, sigma, n, a)
    c_a = _positive_trace(diff).tolist()
    d_a = _projected_mass(rho, diff).tolist()
    d_b = tail_D(rho, sigma, n, [x + g for x, g in zip(a, gamma)]).tolist()
    checks = [
        [
            ("positive-part-below-projection", y - x, 1e-9),
            ("shifted-cut-lower-bound", x - (z - math.exp(-k * g)), 1e-9),
        ]
        for x, y, z, k, g in zip(c_a, d_a, d_b, n, gamma)
    ]
    return _results(checks, rho=rho, sigma=sigma, n=n, a=a, gamma=gamma)


def verify_continuity(rho, rho_prime, sigma, n, a):
    """Positive-part tails move by at most half the trace distance of the state."""
    rho, rho_prime, sigma = _operators(rho, rho_prime, sigma)
    n, a = (_per_instance(x, len(rho)) for x in (n, a))
    _require_density("rho", rho)
    _require_density("rho_prime", rho_prime)
    half_l1 = (0.5 * _trace_norm(_symmetrized(rho - rho_prime))).tolist()
    c = tail_C(rho, sigma, n, a).tolist()
    c_prime = tail_C(rho_prime, sigma, n, a).tolist()
    checks = [
        [("perturbation-bound", y + h - x, 1e-9), ("perturbation-bound-swapped", x + h - y, 1e-9)]
        for x, y, h in zip(c, c_prime, half_l1)
    ]
    return _results(checks, rho=rho, rho_prime=rho_prime, sigma=sigma, n=n, a=a)


def verify_product_tails(p_a: Spectrum, s_b: Spectrum, n: int, a: float) -> VerifyResult:
    """Joint low-rate mass of a product spectrum is at most the first factor's.

    Compressed evaluation; cross-checked against full pair enumeration when
    the expanded product dimension is small enough.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    # each atom's self-information rate, computed once per call
    rates_a = [-math.log(p) / n + 0.0 for p, _ in p_a.atoms]
    lhs = math.fsum(p * m * cdf_selfinfo(s_b, n, a - r) for (p, m), r in zip(p_a.atoms, rates_a))
    rhs = cdf_selfinfo(p_a, n, a)
    checks = [("pair-tail-below-marginal", rhs - lhs, 1e-9)]
    if p_a.total_dim * s_b.total_dim <= DEFAULT_MAX_EXPANDED_DIM:
        rates_b = [-math.log(y) / n + 0.0 for y, _ in s_b.atoms]
        # every expanded pair of an atom pair gives the same term; fsum rounds once, in any order
        expanded = math.fsum(
            x * y
            for (x, mx), rx in zip(p_a.atoms, rates_a)
            for (y, my), ry in zip(s_b.atoms, rates_b)
            if ry <= a - rx
            for _ in range(mx * my)
        )
        checks.append(("compressed-matches-expanded", 1e-9 - abs(lhs - expanded), 0.0))
    return _finish(checks, _payload(first=p_a, second=s_b, n=n, a=a))


def verify_tail_monotonicity(rho, sigma, f: TPMap, n, a):
    """tail_C never grows under a single trace-preserving map on both arguments.

    Stochastic maps are only a single linear map on commuting (diagonal)
    arguments, so they take diagonal rho and sigma only.
    """
    rho, sigma = _operators(rho, sigma)
    n, a = (_per_instance(x, len(rho)) for x in (n, a))
    # the maps first: a rejected argument fails before any tail is computed
    f_rho, f_sigma = _apply_tp(f, rho), _apply_tp(f, sigma)
    before = tail_C(rho, sigma, n, a).tolist()
    after = tail_C(f_rho, f_sigma, n, a).tolist()
    checks = [[("tail-monotone", x - y, 1e-9)] for x, y in zip(before, after, strict=True)]
    return _results(checks, rho=rho, sigma=sigma, map=f, n=n, a=a)


def _projector_split_checks(a: np.ndarray, b: np.ndarray) -> list:
    """On P = {A - B > 0}: Tr A P >= Tr B P, and Tr(A-B)_plus = Tr A P - Tr B P."""
    diff = _symmetrized(a - b)
    proj = _symmetrized(_projector(*np.linalg.eigh(diff)))
    t_a = _trace(a @ proj).real.tolist()
    t_b = _trace(b @ proj).real.tolist()
    t_plus = _positive_trace(diff).tolist()
    return [
        [("projection-dominance", x - y, 1e-9), ("difference-split-identity", 1e-9 - abs(p - (x - y)), 0.0)]
        for x, y, p in zip(t_a, t_b, t_plus)
    ]


def _traceless_abs_checks(a: np.ndarray) -> tuple:
    """For traceless A the trace norm is twice the positive part's trace.

    Both come from one eigendecomposition; gives the checks and the traceless parts.
    """
    d = a.shape[-1]
    a0 = _symmetrized(a - (_trace(a).real / d)[..., None, None] * np.eye(d))
    w = np.linalg.eigvalsh(a0)
    norms = np.abs(w).sum(axis=-1).tolist()
    plus = _positive_sum(w).tolist()
    return [[("traceless-abs-identity", 1e-9 - abs(x - 2.0 * y), 0.0)] for x, y in zip(norms, plus)], a0


# ---------------------------------------------------------------------------
# samplers: each draws from the generator first, then builds on a
# (..., d, d) stack; no draw depends on a built value.  The verifiers validate
# what they are given, so a builder validates only what no verifier sees.

def _draw_gaussian(rng, dim: int) -> np.ndarray:
    """Real and imaginary parts, (2, dim, dim): the same draws as two (dim, dim) calls."""
    return rng.standard_normal((2, dim, dim))


def _gaussian(g: np.ndarray) -> np.ndarray:
    return g[..., 0, :, :] + 1j * g[..., 1, :, :]


def _hermitians(g: np.ndarray) -> np.ndarray:
    return _symmetrized(_gaussian(g))


def _unitaries(g: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(_gaussian(g) / math.sqrt(2.0))
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph /= np.abs(ph)
    return q * ph[..., None, :]


def _densities(g: np.ndarray) -> np.ndarray:
    g = _gaussian(g)
    m = g @ _dagger(g)
    return m / _trace(m).real[..., None, None]


def _diagonal_densities(v: np.ndarray) -> np.ndarray:
    return _diag_embed(v.astype(complex))


def _contractions(g: np.ndarray, vals: np.ndarray) -> np.ndarray:
    u = _unitaries(g)
    return (u * vals[..., None, :]) @ _dagger(u)


def _draw_cptp(rng, dim: int) -> np.ndarray:
    """(3, 2, dim, dim): the same draws as three _draw_gaussian calls."""
    return rng.standard_normal((3, 2, dim, dim))


def _cptps(g: np.ndarray) -> CPTPMap:
    """Maps from (..., n_kraus, 2, d, d) Gaussian draws."""
    ks = [_gaussian(g[..., j, :, :, :]) / math.sqrt(2.0) for j in range(g.shape[-4])]
    # two normalization passes pin the completeness defect near machine epsilon
    for _ in range(2):
        m = np.zeros(ks[0].shape, dtype=complex)
        for k in ks:
            m += _dagger(k) @ k
        w, v = np.linalg.eigh(m)
        inv_half = (v / np.sqrt(w)[..., None, :]) @ _dagger(v)
        ks = [k @ inv_half for k in ks]
    return CPTPMap(tuple(ks))


def _draw_tp(rng, kind: int, dim: int):
    """The raw numbers of a family-kind map: 0 Kraus, 1 column-stochastic, 2 transpose mix."""
    if kind == 0:
        return _draw_cptp(rng, dim)
    if kind == 1:
        return rng.uniform(size=(dim, dim))
    return float(rng.uniform())


def _tp_maps(kind: int, f) -> TPMap:
    """The stacked maps of a shape group's family-kind draws."""
    f = np.array(f)
    if kind == 0:
        return _cptps(f)
    if kind == 1:
        m = -np.log(f)
        return StochasticMap(m / m.sum(axis=-2, keepdims=True))
    return TransposeMix(f)


def _draw_doubly_stochastic(rng, dim: int) -> tuple:
    """Weights and (dim + 2, dim) permutations: the same draws as dim + 2 rng.permutation(dim) calls."""
    w = rng.uniform(size=dim + 2)
    return w, rng.permuted(np.tile(np.arange(dim), (dim + 2, 1)), axis=1)


def _doubly_stochastics(u: np.ndarray, perms: np.ndarray) -> StochasticMap:
    """Mixtures of permutations from (..., terms) uniform draws and (..., terms, d) permutations."""
    w = -np.log(u)
    w /= w.sum(axis=-1, keepdims=True)
    d = perms.shape[-1]
    m = np.zeros(perms.shape[:-2] + (d, d))
    lead = np.indices(perms.shape[:-2], sparse=True)
    # add.at adds the terms to each entry in term order, as one += per term does
    np.add.at(m, (*(i[..., None, None] for i in lead), np.arange(d), perms), w[..., None])
    return StochasticMap(m)


def rand_spectrum(rng, max_dim: int) -> Spectrum:
    """Random spectrum; half the draws use rational masses to exercise ties."""
    k = int(rng.integers(1, max_dim + 1))
    if rng.random() < 0.5:
        vals = rng.dirichlet(np.ones(k))
        return Spectrum.from_probs(vals.tolist())
    total = int(rng.integers(k, 4 * k + 1))
    counts = rng.multinomial(total, np.ones(k) / k)
    return Spectrum.from_probs([c / total for c in counts.tolist()])


# ---------------------------------------------------------------------------
# suites: each draws one instance from its generator, (rng, instance index,
# dim) -> draws, and evaluates a list of draws, giving one (results, note)
# per instance for the suite's summary.  The dense suites and transfer
# evaluate one group of draws at a time (_grouped): a shape group, or the
# transfer pairs of one expanded size.  The product, kh and greedy-vs-brute
# draw is the whole instance, giving its (results, note), and their
# evaluate passes them on.
# bdm and monotonicity share the map families: instance k draws its map from
# family k % 3 with _draw_tp, and _tp_maps builds a shape group's maps

# dense eigen calls cost d^3 per instance, so --dim is capped: `verify all`
# with default trials took 9.8-10.4 s at the cap (peak RSS 42 MB; 8.1-8.9 s
# and 57 MB with 128-instance chunks) and 1.4-1.5 s at the default dim 8
# (42 MB), in fresh processes (2-core x86_64 VM, NumPy 2.4)
MAX_VERIFY_DIM = 64

# instances drawn and evaluated together at --dim 8, and by a spectrum suite
# at every --dim; a dense chunk holds at most _CHUNK * 8**2 matrix entries
# per stack (1 MiB of complex128), so --dim 64 takes 16 instances at a time
# and the memory of the stacks grows with neither --trials nor --dim.  A
# smaller budget splits a default dense suite into chunks of a few instances
# per shape group, where per-call overhead, not eigen work, sets the time
# (BENCH_21.json: 512 and 128 are slower); transfer's m x m steps, m <= 32,
# hold at most _CHUNK * 32**2 entries per stack of one expanded size
_CHUNK = 1024


def _grouped(check: Callable) -> Callable:
    """Evaluate dense draws one shape group at a time.

    A draw is (group key, field, ...); check(key, *fields) gets each field as
    a tuple over the group and gives one sequence of results per instance.
    """

    def evaluate(drawn: list) -> list:
        groups: dict = {}
        for i, (key, *_) in enumerate(drawn):
            groups.setdefault(key, []).append(i)
        out: list = [None] * len(drawn)
        for key, members in groups.items():
            fields = zip(*(drawn[i][1:] for i in members))
            for i, results in zip(members, check(key, *fields)):
                out[i] = (list(results), None)
        return out

    return evaluate


def _np_draw(rng, k: int, dim: int):
    d = int(rng.integers(2, dim + 1))
    a = _draw_gaussian(rng, d)
    g = _draw_gaussian(rng, d)
    vals = rng.uniform(0.0, 1.0, d)
    return d, a, g, vals, _draw_gaussian(rng, d)


def _np_check(d, a, g, vals, b):
    # a is validated by verify_lemma_np; b is seen by no verifier
    a = _hermitians(np.array(a))
    b = _check_hermitian(_hermitians(np.array(b)))
    lemma = verify_lemma_np(a, _contractions(np.array(g), np.array(vals)))
    traceless, a0 = _traceless_abs_checks(a)
    return zip(
        lemma,
        _results(_projector_split_checks(a, b), first=a, second=b),
        _results(traceless, operator=a0),
    )


def _bdm_draw(rng, k: int, dim: int):
    d = int(rng.integers(2, dim + 1))
    a = _draw_gaussian(rng, d)
    return (d, k % 3), a, _draw_tp(rng, k % 3, d)


def _bdm_check(key, a, f):
    a = _hermitians(np.array(a))
    if key[1] == 1:
        # a stochastic map sees the diagonal of eigenvalues, not a itself
        a = _diag_embed(np.linalg.eigvalsh(_check_hermitian(a)).astype(complex))
    return zip(verify_lemma_bdm(_tp_maps(key[1], f), a))


def _bd_draw(rng, k: int, dim: int):
    d = int(rng.integers(2, dim + 1))
    rho = _draw_gaussian(rng, d)
    sigma = _draw_gaussian(rng, d)
    n = int(rng.integers(1, 6))
    a = float(rng.uniform(-2.0, 2.0))
    return d, rho, sigma, n, a, 0.1 if k % 2 == 0 else 0.5


def _bd_check(d, rho, sigma, n, a, gamma):
    return zip(verify_bd_sandwich(_densities(np.array(rho)), _densities(np.array(sigma)), n, a, gamma))


def _continuity_draw(rng, k: int, dim: int):
    d = int(rng.integers(2, dim + 1))
    rho = _draw_gaussian(rng, d)
    rho_prime = _draw_gaussian(rng, d)
    sigma = _draw_gaussian(rng, d)
    n = int(rng.integers(1, 6))
    a = float(rng.uniform(-2.0, 2.0))
    return d, rho, rho_prime, sigma, n, a


def _continuity_check(d, rho, rho_prime, sigma, n, a):
    return zip(verify_continuity(*(_densities(np.array(x)) for x in (rho, rho_prime, sigma)), n, a))


def _product_instance(rng, k: int, dim: int):
    p_a = rand_spectrum(rng, 12)
    s_b = rand_spectrum(rng, 12)
    n = int(rng.integers(1, 4))
    a = float(rng.uniform(-0.5, 3.0))
    return [verify_product_tails(p_a, s_b, n, a)], None


def _monotonicity_draw(rng, k: int, dim: int):
    d = int(rng.integers(2, dim + 1))
    n = int(rng.integers(1, 6))
    a = float(rng.uniform(-2.0, 2.0))
    kind = k % 3
    if kind == 1 and (k // 3) % 2:
        # unital sub-family: a doubly stochastic map fixes the identity sigma
        return (d, "unital"), rng.dirichlet(np.ones(d)), None, n, a, _draw_doubly_stochastic(rng, d)
    if kind == 1:
        rho, sigma = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))
    else:
        rho, sigma = _draw_gaussian(rng, d), _draw_gaussian(rng, d)
    return (d, kind), rho, sigma, n, a, _draw_tp(rng, kind, d)


def _monotonicity_check(key, rho, sigma, n, a, f):
    d, kind = key
    if kind == "unital":
        rho = _diagonal_densities(np.array(rho))
        sigma = np.broadcast_to(np.eye(d, dtype=complex), rho.shape)
        f = _doubly_stochastics(*(np.array(x) for x in zip(*f)))
    else:
        states = _diagonal_densities if kind == 1 else _densities
        rho, sigma = states(np.array(rho)), states(np.array(sigma))
        f = _tp_maps(kind, f)
    return zip(verify_tail_monotonicity(rho, sigma, f, n, a))


def _kh_instance(rng, k: int, dim: int):
    p = rand_spectrum(rng, 64)
    ny = int(rng.integers(1, p.total_dim + 1))
    targets = tuple(rng.integers(0, ny, size=p.total_dim).tolist())
    phi = DeterministicMap(p.total_dim, targets, ny)
    push = pushforward(p, phi)
    gap, _ = prefix_gap_min(p, push)
    cert = kh_certificate(p, phi)
    residual = kh_residual(p, phi, cert)
    checks = [
        ("pushforward-majorizes-source", gap, 1e-10),
        ("certificate-bistochastic", 1e-10 - cert.defect, 0.0),
        ("certificate-reproduces-source", 1e-10 - residual, 0.0),
    ]
    return [_finish(checks, _payload(source=p, map=phi))], None


def _transfer_draw(rng, k: int, dim: int):
    q = rand_spectrum(rng, 32)
    return q.total_dim, q, *_draw_doubly_stochastic(rng, q.total_dim)


def _transfer_check(m, qs, u, perms):
    # the source p = M q of each random mix M of permutations has q's m
    # entries, so m is the pair's expanded size; one transfer_matrix call
    # steps the group's pairs in lockstep
    qv = np.array([expand(q) for q in qs])[..., None]
    mixed = _doubly_stochastics(np.array(u), np.array(perms)).matrix @ qv
    ps = [Spectrum.from_probs(x) for x in mixed[..., 0].tolist()]
    pv = np.zeros((len(ps), m, 1))
    for row, p in enumerate(ps):
        pv[row, : p.total_dim, 0] = expand(p)
    certs = transfer_matrix(ps, qs)
    devs = np.abs(np.stack([c.entries for c in certs]) @ qv - pv).max(axis=(1, 2)).tolist()
    for p, q, cert, dev in zip(ps, qs, certs, devs):
        checks = [
            ("transfer-bistochastic", 1e-10 - cert.defect, 0.0),
            ("transfer-carries-target", 1e-8 - dev, 0.0),
        ]
        yield [_finish(checks, _payload(source=p, target=q))]


def _greedy_vs_brute_instance(rng, k: int, dim: int):
    p = rand_spectrum(rng, 6)
    q = rand_spectrum(rng, 3)
    greedy = synthesize_map(p, q, with_map=True)
    brute = brute_force_optimal(p, q)
    gap = greedy.achieved_distance - brute.achieved_distance
    consistent = pushforward(p, greedy.map).atoms == greedy.pushforward.atoms
    checks = [
        ("greedy-not-below-optimum", gap, 1e-12),
        ("materialized-map-consistent", 0.0 if consistent else -1.0, 0.0),
    ]
    return [_finish(checks, _payload(source=p, target=q, map=greedy.map))], gap


_GAP_BUCKETS = ((0.0, "0"), (0.01, "(0,0.01]"), (0.05, "(0.01,0.05]"), (0.1, "(0.05,0.1]"), (0.5, "(0.1,0.5]"), (2.0, "(0.5,2]"))


def _gap_summary(gaps: list) -> dict:
    """Histogram, max and mean of the greedy's distance above the optimum."""
    hist = {label: 0 for _, label in _GAP_BUCKETS}
    for g in gaps:
        for edge, label in _GAP_BUCKETS:
            if g <= edge:
                hist[label] += 1
                break
    return {"gap_histogram": hist, "gap_max": max(gaps), "gap_mean": math.fsum(gaps) / len(gaps)}


class Suite(NamedTuple):
    id: int  # mixed into every instance seed; never reuse or renumber
    trials: int  # default instance count
    draw: Callable  # (rng, instance index, dim) -> the instance's draws, or its whole instance
    evaluate: Callable  # list of draws -> one (results, note) per instance; iter for whole instances
    summary: Optional[Callable[[list], dict]] = None  # notes -> the report's extras
    dense: bool = True  # draws (d, d) stacks, so its chunk shrinks with --dim


# in `verify all` order
SUITES = {
    "np": Suite(1, 1000, _np_draw, _grouped(_np_check)),
    "bdm": Suite(2, 1000, _bdm_draw, _grouped(_bdm_check)),
    "bd": Suite(3, 1000, _bd_draw, _grouped(_bd_check)),
    "continuity": Suite(4, 1000, _continuity_draw, _grouped(_continuity_check)),
    "product": Suite(5, 1000, _product_instance, iter, dense=False),
    "monotonicity": Suite(6, 1000, _monotonicity_draw, _grouped(_monotonicity_check)),
    "kh": Suite(7, 500, _kh_instance, iter, dense=False),
    "transfer": Suite(8, 500, _transfer_draw, _grouped(_transfer_check), dense=False),
    "greedy-vs-brute": Suite(9, 500, _greedy_vs_brute_instance, iter, _gap_summary, dense=False),
}


@dataclass(frozen=True)
class SuiteReport:
    """Aggregated outcome of one randomized suite."""

    suite: str
    seed: int
    trials: int
    checks: int
    worst_slack: float
    violations: tuple
    extras: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "checks": self.checks,
            "worst_slack": self.worst_slack,
            "ok": self.ok,
            "violations": list(self.violations),
        }
        if self.extras:
            out["extras"] = self.extras
        return out


# NumPy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, hashed in with one running multiplier and read out with
# another, every product taken mod 2**32
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF

# the instance index is one uint32 entropy word
_MAX_TRIALS = 1 << 32


def _hashmix(v: np.ndarray, h: list, mult: int) -> np.ndarray:
    """SeedSequence's hashmix of a uint32 column; h[0] is the running hash constant."""
    v = v ^ np.uint32(h[0])
    h[0] = h[0] * mult & _M32
    v = v * np.uint32(h[0])
    return v ^ (v >> np.uint32(16))


def _pcg64_words(seed: int, suite_id: int, ks: range) -> np.ndarray:
    """SeedSequence([seed, suite_id, k]).generate_state(4, np.uint64) for each k of ks, as (len(ks), 4) rows.

    Takes 0 <= seed < 2**63, 0 <= suite_id, k < 2**32: the entropy is at most
    four words (one or two of the seed, one of the id, one of k), so it fits
    the pool and the loop that mixes in words beyond the pool never runs.
    """
    fixed = [seed & _M32, *([seed >> 32] if seed >> 32 else []), suite_id]
    entropy = np.zeros((len(ks), _POOL), dtype=np.uint32)
    entropy[:, : len(fixed)] = fixed
    entropy[:, len(fixed)] = np.arange(ks.start, ks.stop).astype(np.uint32)
    h = [_INIT_A]
    pool = [_hashmix(col, h, _MULT_A) for col in entropy.T]
    # every pool word into every other, so late words affect early ones
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                x = np.uint32(_MIX_L) * pool[dst] - np.uint32(_MIX_R) * _hashmix(pool[src], h, _MULT_A)
                pool[dst] = x ^ (x >> np.uint32(16))
    # generate_state: eight uint32 words cycling over the pool, read as four
    # little-endian uint64 pairs whatever the host's byte order
    h = [_INIT_B]
    state = np.stack([_hashmix(pool[i % _POOL], h, _MULT_B) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _StateWords(ISeedSequence):
    """A seed sequence holding one row of _pcg64_words, the four uint64 words PCG64 asks it for."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _generators(seed: int, suite_id: int, ks: range):
    """np.random.default_rng([seed, suite_id, k]) for each k of ks, from one SeedSequence pass over ks.

    Built as they are asked for, so a generator that its draw does not keep is freed after it.
    """
    return (Generator(PCG64(_StateWords(w))) for w in _pcg64_words(seed, suite_id, ks))


def _instance_results(suite: Suite, seed: int, trials: int, dim: int):
    """(k, results, note) for instances 0..trials-1, drawn and evaluated one chunk at a time."""
    chunk = max(1, _CHUNK * 8**2 // dim**2) if suite.dense else _CHUNK
    for start in range(0, trials, chunk):
        ks = range(start, min(start + chunk, trials))
        drawn = [suite.draw(rng, k, dim) for rng, k in zip(_generators(seed % (1 << 63), suite.id, ks), ks)]
        for k, (results, note) in zip(ks, suite.evaluate(drawn)):
            yield k, results, note


def run_suite(name: str, *, seed: int, trials: Optional[int] = None, dim: int = 8) -> SuiteReport:
    """Run one named suite; instance k draws from the generator seeded by (seed, suite id, k)."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    suite = SUITES[name]
    if trials is None:
        trials = suite.trials
    if trials < 1:
        raise ValueError("trials must be positive")
    if trials > _MAX_TRIALS:
        raise ValueError(f"trials must be at most {_MAX_TRIALS}")
    if dim < 2:
        raise ValueError(f"--dim must be at least 2, got {dim}")
    if dim > MAX_VERIFY_DIM:
        raise BudgetExceededError("max_verify_dim", dim, MAX_VERIFY_DIM)
    worst = math.inf
    checks = 0
    violations = []
    notes = []
    for k, results, note in _instance_results(suite, seed, trials, dim):
        notes.append(note)
        for res in results:
            worst = min(worst, res.worst_slack)
            checks += res.checks
            violations.extend({"instance_index": k, **v} for v in res.violations)
    extras = suite.summary(notes) if suite.summary else {}
    return SuiteReport(name, seed, trials, checks, worst, tuple(violations), extras)
