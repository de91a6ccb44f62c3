"""Positive-part operator calculus and randomized verification suites.

The calculus: Jordan decomposition of a Hermitian operator with the
convention that zero eigenvalues belong to the non-positive part, the trace
of the positive part, and three families of trace-preserving maps (Kraus,
column-stochastic on eigenvalues, transpose mixing; only the first is
completely positive).  Every function of the calculus, and every validation
(Hermitian deviation, contraction, density, Kraus completeness, column
sums), takes one matrix or a (..., d, d) stack and gives arrays; a map
whose arrays are stacks is a stack of maps applied matrix by matrix.  Each
verifier takes one matrix or an (N, d, d) stack, with its scalar parameters
broadcast against it, and gives one result or one result per matrix.

The suites: seeded randomized checks of every operator inequality the
conversion analysis rests on, plus structural suites for the majorization
certificates and the greedy-versus-exhaustive map synthesis.  Each instance
draws from its own generator seeded by (master seed, suite id, instance
index), so results are independent of execution order and reruns are
byte-identical.  A suite takes up to _CHUNK instances at a time.  The dense
suites first draw every instance's random numbers, then evaluate one shape
group at a time (dimension, map family, and, wherever a positive projector
is formed, the count of positive eigenvalues), so a chunk costs one NumPy
call per step per shape group instead of one per instance, plus one
generator per instance.  Stacked LAPACK, BLAS and reductions run the
per-matrix routine on per-matrix memory layouts, so every margin is bit for
bit the per-instance one.  The spectrum suites draw as they evaluate, one
instance at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .infospec import (
    _columns,
    _count_groups,
    _per_matrix,
    _positive_sum,
    _positive_trace,
    _projected_mass,
    _tail_difference,
    cdf_selfinfo,
    tail_C,
    tail_D,
)
from .majorize import (
    DeterministicMap,
    kh_certificate,
    kh_residual,
    prefix_gap_min,
    pushforward,
    transfer_matrix,
)
from .randgen import brute_force_optimal, synthesize_map
from .spectra import BudgetExceededError, Spectrum, _mass_term, expand


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _symmetrized(m: np.ndarray) -> np.ndarray:
    return (m + _dagger(m)) / 2.0


def _trace(m: np.ndarray) -> np.ndarray:
    return np.trace(m, axis1=-2, axis2=-1)


def _first(bad: np.ndarray) -> Optional[int]:
    """Flat index of the first flagged matrix of a stack, or None."""
    return int(np.argmax(bad)) if bad.any() else None


def _check_hermitian(m: np.ndarray) -> np.ndarray:
    """The symmetrized stack; a non-finite entry, or a deviation above 1e-10 of a matrix's largest entry, is rejected."""
    scale = np.abs(m).max(axis=(-2, -1))
    # written so that NaN fails
    i = _first(~(scale < math.inf))
    if i is not None:
        raise ValueError(f"matrix has a non-finite entry (largest magnitude {float(scale.flat[i])!r})")
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
    def kind(self) -> str:
        return "cptp"

    @property
    def dimension(self) -> int:
        return self.kraus[0].shape[-1]


@dataclass(frozen=True, eq=False)
class StochasticMap:
    """Column-stochastic action on eigenvalues (trace preserving, not CP).

    A (..., d, d) matrix stack makes a stack of maps.
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
    def kind(self) -> str:
        return "stochastic"

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

    @property
    def kind(self) -> str:
        return "transpose_mix"


TPMap = Union[CPTPMap, StochasticMap, TransposeMix]


def _as_entries(x) -> np.ndarray:
    """A validated, symmetrized Hermitian matrix or (..., d, d) stack."""
    m = np.asarray(x, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
    return _check_hermitian(m)


def _jordan(m: np.ndarray) -> tuple:
    w, v = np.linalg.eigh(m)
    d = m.shape[-1]
    a_plus, a_minus, proj_pos = (np.zeros_like(m) for _ in range(3))
    for c, sel in _count_groups(w):
        ws, vs = w[sel], v[sel]
        vp, vn = _columns(vs, d - c, d), _columns(vs, 0, d - c)
        a_plus[sel] = (vp * ws[..., None, d - c:]) @ _dagger(vp)
        a_minus[sel] = -((vn * ws[..., None, : d - c]) @ _dagger(vn))
        proj_pos[sel] = vp @ _dagger(vp)
    return tuple(_symmetrized(x) for x in (a_plus, a_minus, proj_pos, np.eye(d) - proj_pos))


def jordan(a) -> tuple:
    """(positive part, negative part, positive projector, non-positive projector).

    A = A_plus - A_minus and |A| = A_plus + A_minus.  Eigenvalues within
    1e-10 of zero relative to the spectral norm count as non-positive, so the
    zero operator has a full non-positive projector.  Takes a matrix or a
    (..., d, d) stack and gives arrays of its shape.
    """
    return _jordan(_as_entries(a))


def trace_plus(a):
    """Trace of the positive part: the sum of the positive eigenvalues (an array for a stack)."""
    return _per_matrix(_positive_trace(_as_entries(a)))


def _trace_norm(m: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.eigvalsh(m)).sum(axis=-1)


def trace_norm(a):
    """Sum of the absolute eigenvalues (an array for a stack)."""
    return _per_matrix(_trace_norm(_as_entries(a)))


def _diag_embed(x: np.ndarray) -> np.ndarray:
    """np.diag over a stack of diagonals."""
    d = x.shape[-1]
    out = np.zeros(x.shape + (d,), dtype=x.dtype)
    out[..., np.arange(d), np.arange(d)] = x
    return out


def _is_diagonal(m: np.ndarray) -> np.ndarray:
    off = m - _diag_embed(np.diagonal(m, axis1=-2, axis2=-1))
    scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
    return np.abs(off).max(axis=(-2, -1)) <= 1e-12 * scale


def _matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    return (m @ x[..., None])[..., 0]


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
    shape = np.broadcast_shapes(f.matrix.shape, m.shape)
    mats, m = np.broadcast_to(f.matrix, shape), np.broadcast_to(m, shape)
    out = np.empty(shape, dtype=complex)
    diagonal = _is_diagonal(m)
    if diagonal.any():
        out[diagonal] = _diag_embed(_matvec(mats[diagonal], np.diagonal(m[diagonal], axis1=-2, axis2=-1).real))
    rest = ~diagonal
    if rest.any():
        w, v = np.linalg.eigh(m[rest])
        out[rest] = (v * _matvec(mats[rest], w)[..., None, :]) @ _dagger(v)
    return _symmetrized(out)


def apply_tp(f: TPMap, a):
    """Apply a trace-preserving map to a matrix or a (..., d, d) stack.

    The stochastic kind acts on the eigenvalues of its argument: directly on
    the diagonal when the argument is diagonal (so commuting families see one
    and the same classical map), otherwise in the argument's eigenbasis.
    """
    return _apply_tp(f, _as_entries(a))


def _require_psd(name: str, m: np.ndarray, *, tol: float = 1e-8) -> np.ndarray:
    w = np.linalg.eigvalsh(m)
    low = w.min(axis=-1)
    i = _first(low < -tol)
    if i is not None:
        raise ValueError(f"{name} has negative eigenvalue {float(low.flat[i])!r}")
    return w


def _require_density(name: str, m: np.ndarray, *, tol: float = 1e-8):
    tr = _require_psd(name, m, tol=tol).sum(axis=-1)
    i = _first(np.abs(tr - 1.0) > tol)
    if i is not None:
        raise ValueError(f"{name} has trace {float(tr.flat[i])!r}, expected 1")


# ---------------------------------------------------------------------------
# verifiers: each takes one matrix or an (N, d, d) stack, validates it once,
# and gives one list of (name, signed margin, tolerance) checks per matrix

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


def _json_value(v):
    if isinstance(v, np.ndarray):
        return _mat_json(v) if np.iscomplexobj(v) else [[float(x) for x in row] for row in v]
    if isinstance(v, Spectrum):
        return v.to_json_dict()
    if isinstance(v, DeterministicMap):
        return v.to_json_dict()
    if isinstance(v, CPTPMap):
        return {"kind": v.kind, "kraus": [_mat_json(k) for k in v.kraus]}
    if isinstance(v, StochasticMap):
        return {"kind": v.kind, "matrix": [[float(x) for x in row] for row in v.matrix]}
    if isinstance(v, TransposeMix):
        return {"kind": v.kind, "t": v.t}
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    raise TypeError(f"cannot serialize {type(v).__name__}")


def _payload(**kw) -> Callable[[], dict]:
    def build():
        return {k: _json_value(v) for k, v in kw.items()}

    return build


def _pick(v, i: int):
    """Instance i of a stacked input: a matrix, a map, or an entry of a sequence.

    A map whose arrays are single matrices applies to every instance.
    """
    if isinstance(v, CPTPMap):
        return v if v.kraus[0].ndim == 2 else CPTPMap(tuple(k[i] for k in v.kraus))
    if isinstance(v, StochasticMap):
        return v if v.matrix.ndim == 2 else StochasticMap(v.matrix[i])
    if isinstance(v, TransposeMix):
        return v if np.ndim(v.t) == 0 else TransposeMix(float(v.t[i]))
    return v[i]


def _stack_payload(stacks: dict, i: int) -> Callable[[], dict]:
    return lambda: {k: _json_value(_pick(v, i)) for k, v in stacks.items()}


def _results(checks: list, *, single: bool = False, **stacks):
    """One VerifyResult per instance, or the result alone for a single matrix.

    A violation's payload holds instance i of each stack.
    """
    out = [_finish(c, _stack_payload(stacks, i)) for i, c in enumerate(checks)]
    return out[0] if single else out


def _operators(*xs) -> tuple:
    """Validated (N, d, d) stacks of one shape, and whether the inputs were single matrices."""
    ms = [_as_entries(x) for x in xs]
    shape = ms[0].shape
    if len(shape) > 3 or any(m.shape != shape for m in ms):
        raise ValueError(f"expected matrices or (N, d, d) stacks of one shape, got {[m.shape for m in ms]}")
    single = len(shape) == 2
    return [m[None] for m in ms] if single else ms, single


def _per_instance(x, count: int) -> list:
    """A number or a sequence broadcast to one Python number per instance."""
    return np.broadcast_to(x, (count,)).tolist()


def verify_lemma_np(a, t):
    """Tr A T <= Tr A_plus for the given contractions T, with attainment at A > 0.

    t holds one or more contractions per operator: a (trials, d, d) stack for
    a matrix A, an (N, trials, d, d) stack for an (N, d, d) stack of them.
    Each must lie in 0 <= T <= I.
    """
    (a,), single = _operators(a)
    t = _as_entries(t)
    if single:
        t = t[None]
    if t.ndim != 4 or t.shape[0] != a.shape[0] or t.shape[2:] != a.shape[1:] or t.shape[1] < 1:
        raise ValueError(f"need a nonempty (trials, {a.shape[-1]}, {a.shape[-1]}) stack of contractions per operator")
    _check_unit_interval(t)
    tp = _positive_trace(a).tolist()
    vals = _trace(a[:, None] @ t).real.tolist()
    attained = _trace(a @ _jordan(a)[2]).real.tolist()
    checks, tightest = [], []
    for i, (tp_i, vals_i, attained_i) in enumerate(zip(tp, vals, attained)):
        checks.append([("upper-bound", tp_i - val, 1e-9) for val in vals_i])
        checks[-1].append(("attained-at-positive-projector", 1e-10 - abs(attained_i - tp_i), 0.0))
        j, worst_val = None, -math.inf
        for jj, val in enumerate(vals_i):
            if val > worst_val:
                j, worst_val = jj, val
        tightest.append(None if j is None else t[i, j])
    return _results(checks, single=single, operator=a, tightest_contraction=tightest)


def verify_lemma_bdm(f: TPMap, a):
    """Tr F(A)_plus <= Tr A_plus for a trace-preserving map F (or a stack of maps)."""
    (a,), single = _operators(a)
    before = _positive_trace(a).tolist()
    after = _positive_trace(_apply_tp(f, a)).tolist()
    checks = [[("positive-part-monotone", x - y, 1e-9)] for x, y in zip(before, after, strict=True)]
    return _results(checks, single=single, map=f, operator=a)


def verify_bd_sandwich(rho, sigma, n, a, gamma):
    """Positive-part tail below projector tail, and the shifted-cut lower bound."""
    (rho, sigma), single = _operators(rho, sigma)
    n, a, gamma = (_per_instance(x, len(rho)) for x in (n, a, gamma))
    # written so that NaN fails
    if not all(g > 0.0 for g in gamma):
        raise ValueError("gamma must be positive")
    _require_density("rho", rho)
    _require_psd("sigma", sigma)
    # tail_C and tail_D at the same cut share one difference operator
    r, diff = _tail_difference(rho, sigma, n, a)
    c_a = _positive_trace(diff).tolist()
    d_a = _projected_mass(r, diff).tolist()
    d_b = tail_D(rho, sigma, n, [x + g for x, g in zip(a, gamma)]).tolist()
    checks = [
        [
            ("positive-part-below-projection", y - x, 1e-9),
            ("shifted-cut-lower-bound", x - (z - math.exp(-k * g)), 1e-9),
        ]
        for x, y, z, k, g in zip(c_a, d_a, d_b, n, gamma)
    ]
    return _results(checks, single=single, rho=rho, sigma=sigma, n=n, a=a, gamma=gamma)


def verify_continuity(rho, rho_prime, sigma, n, a):
    """Positive-part tails move by at most half the trace distance of the state."""
    (rho, rho_prime, sigma), single = _operators(rho, rho_prime, sigma)
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
    return _results(checks, single=single, rho=rho, rho_prime=rho_prime, sigma=sigma, n=n, a=a)


def verify_product_tails(p_a: Spectrum, s_b: Spectrum, n: int, a: float) -> VerifyResult:
    """Joint low-rate mass of a product spectrum is at most the first factor's.

    Compressed evaluation; cross-checked against full pair enumeration when
    the expanded product dimension is small enough.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    terms = []
    for p, m in p_a.atoms:
        x = -math.log(p) / n + 0.0
        f_b = cdf_selfinfo(s_b, n, a - x)
        if f_b:
            terms.append(_mass_term(p, m) * f_b)
    lhs = math.fsum(terms)
    rhs = cdf_selfinfo(p_a, n, a)
    checks = [("pair-tail-below-marginal", rhs - lhs, 1e-9)]
    if p_a.total_dim * s_b.total_dim <= (1 << 14):
        xs = expand(p_a, 1 << 14)
        ys = expand(s_b, 1 << 14)
        acc = []
        for xp in xs:
            xp = float(xp)
            bound = a - (-math.log(xp) / n + 0.0)
            for yp in ys:
                yp = float(yp)
                if -math.log(yp) / n + 0.0 <= bound:
                    acc.append(xp * yp)
        expanded = math.fsum(acc)
        checks.append(("compressed-matches-expanded", 1e-9 - abs(lhs - expanded), 0.0))
    return _finish(checks, _payload(first=p_a, second=s_b, n=n, a=a))


def verify_tail_monotonicity(rho, sigma, f: TPMap, n, a):
    """tail_C never grows under a single trace-preserving map on both arguments.

    Stochastic maps are only a single linear map on commuting (diagonal)
    arguments, so they are rejected for non-diagonal inputs.
    """
    (rho, sigma), single = _operators(rho, sigma)
    n, a = (_per_instance(x, len(rho)) for x in (n, a))
    if isinstance(f, StochasticMap) and not (_is_diagonal(rho) & _is_diagonal(sigma)).all():
        raise ValueError("stochastic maps require diagonal arguments for two-sided application")
    before = tail_C(rho, sigma, n, a).tolist()
    after = tail_C(_apply_tp(f, rho), _apply_tp(f, sigma), n, a).tolist()
    checks = [[("tail-monotone", x - y, 1e-9)] for x, y in zip(before, after, strict=True)]
    return _results(checks, single=single, rho=rho, sigma=sigma, map=f, n=n, a=a)


def _projector_split_checks(a: np.ndarray, b: np.ndarray) -> list:
    """On P = {A - B > 0}: Tr A P >= Tr B P, and Tr(A-B)_plus = Tr A P - Tr B P."""
    diff = _symmetrized(a - b)
    proj = _jordan(diff)[2]
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


def _draw_cptp(rng, dim: int, n_kraus: int = 3) -> np.ndarray:
    return np.array([_draw_gaussian(rng, dim) for _ in range(n_kraus)])


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


def _stochastics(u: np.ndarray) -> StochasticMap:
    m = -np.log(u)
    return StochasticMap(m / m.sum(axis=-2, keepdims=True))


def _draw_doubly_stochastic(rng, dim: int) -> tuple:
    w = rng.uniform(size=dim + 2)
    return w, np.array([rng.permutation(dim) for _ in range(dim + 2)])


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
        return Spectrum.from_probs([float(v) for v in vals if v > 0.0])
    total = int(rng.integers(k, 4 * k + 1))
    counts = rng.multinomial(total, np.ones(k) / k)
    return Spectrum.from_probs([c / total for c in counts if c > 0])


# ---------------------------------------------------------------------------
# suites: each draws one instance from its generator, (rng, instance index,
# dim) -> draws, and evaluates a list of draws, giving one (results, note)
# per instance for the suite's summary

# dense eigen calls cost d^3 per instance, so --dim is capped: `verify all`
# with default trials took 16 s at the cap (peak RSS 57 MB) and 2.7 s at the
# default dim 8 (40 MB), against 15 s and 4.2 s evaluating one instance at a
# time (2-core x86_64 VM, NumPy 2.4, same host state)
MAX_VERIFY_DIM = 64

# instances drawn and evaluated together: a code constant, so the memory of
# the stacks does not grow with --trials
_CHUNK = 128


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


def _defer(rng, k: int, dim: int):
    """The spectrum suites draw as they evaluate, one instance at a time."""
    return rng, k, dim


def _each(instance: Callable) -> Callable:
    return lambda drawn: [instance(*x) for x in drawn]


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
    lemma = verify_lemma_np(a, _contractions(np.array(g), np.array(vals))[:, None])
    traceless, a0 = _traceless_abs_checks(a)
    return zip(
        lemma,
        _results(_projector_split_checks(a, b), first=a, second=b),
        _results(traceless, operator=a0),
    )


def _bdm_draw(rng, k: int, dim: int):
    d = int(rng.integers(2, dim + 1))
    a = _draw_gaussian(rng, d)
    kind = k % 3
    if kind == 0:
        f = _draw_cptp(rng, d)
    elif kind == 1:
        f = rng.uniform(size=(d, d))
    else:
        f = float(rng.uniform())
    return (d, kind), a, f


def _bdm_check(key, a, f):
    kind = key[1]
    a = _hermitians(np.array(a))
    if kind == 0:
        f = _cptps(np.array(f))
    elif kind == 1:
        f = _stochastics(np.array(f))
        # the verifier sees the diagonal of eigenvalues, not a itself
        a = _diag_embed(np.linalg.eigvalsh(_check_hermitian(a)).astype(complex))
    else:
        f = TransposeMix(np.array(f))
    return zip(verify_lemma_bdm(f, a))


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
    if kind == 0:
        family = "cptp"
        rho, sigma = _draw_gaussian(rng, d), _draw_gaussian(rng, d)
        f = _draw_cptp(rng, d)
    elif kind == 1:
        rho = rng.dirichlet(np.ones(d))
        if (k // 3) % 2 == 0:
            family = "stochastic"
            sigma = rng.dirichlet(np.ones(d))
            f = rng.uniform(size=(d, d))
        else:
            # unital sub-family: doubly stochastic map fixes the identity
            family = "unital"
            sigma = None
            f = _draw_doubly_stochastic(rng, d)
    else:
        family = "transpose"
        rho, sigma = _draw_gaussian(rng, d), _draw_gaussian(rng, d)
        f = float(rng.uniform())
    return (d, family), rho, sigma, n, a, f


def _monotonicity_check(key, rho, sigma, n, a, f):
    d, family = key
    if family in ("cptp", "transpose"):
        rho, sigma = _densities(np.array(rho)), _densities(np.array(sigma))
        f = _cptps(np.array(f)) if family == "cptp" else TransposeMix(np.array(f))
    elif family == "stochastic":
        rho, sigma = _diagonal_densities(np.array(rho)), _diagonal_densities(np.array(sigma))
        f = _stochastics(np.array(f))
    else:
        rho = _diagonal_densities(np.array(rho))
        sigma = np.broadcast_to(np.eye(d, dtype=complex), rho.shape)
        f = _doubly_stochastics(*(np.array(x) for x in zip(*f)))
    return zip(verify_tail_monotonicity(rho, sigma, f, n, a))


def _bistochastic_defect(m: np.ndarray) -> float:
    """Largest deviation of a row or column sum from 1."""
    rows = float(np.abs(m.sum(axis=1) - 1.0).max())
    cols = float(np.abs(m.sum(axis=0) - 1.0).max())
    return max(rows, cols)


def _kh_instance(rng, k: int, dim: int):
    p = rand_spectrum(rng, 64)
    ny = int(rng.integers(1, p.total_dim + 1))
    targets = tuple(int(t) for t in rng.integers(0, ny, size=p.total_dim))
    phi = DeterministicMap(p.total_dim, targets, ny)
    push = pushforward(p, phi)
    gap, _ = prefix_gap_min(p, push)
    cert = kh_certificate(p, phi)
    defect = _bistochastic_defect(cert.entries)
    residual = kh_residual(p, phi, cert)
    checks = [
        ("pushforward-majorizes-source", gap, 1e-10),
        ("certificate-bistochastic", 1e-10 - defect, 0.0),
        ("certificate-reproduces-source", 1e-10 - residual, 0.0),
    ]
    return [_finish(checks, _payload(source=p, map=phi))], None


def _transfer_instance(rng, k: int, dim: int):
    q = rand_spectrum(rng, 32)
    mix = _doubly_stochastics(*_draw_doubly_stochastic(rng, q.total_dim))
    qv = expand(q, 1 << 14)
    p = Spectrum.from_probs([float(x) for x in mix.matrix @ qv])
    cert = transfer_matrix(p, q)
    m = cert.dim
    pv = np.zeros(m)
    pv[: p.total_dim] = expand(p, 1 << 14)
    qv2 = np.zeros(m)
    qv2[: q.total_dim] = qv
    dev = float(np.abs(cert.entries @ qv2 - pv).max())
    checks = [
        ("transfer-bistochastic", 1e-10 - _bistochastic_defect(cert.entries), 0.0),
        ("transfer-carries-target", 1e-8 - dev, 0.0),
    ]
    return [_finish(checks, _payload(source=p, target=q))], None


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
    draw: Callable  # (rng, instance index, dim) -> the instance's draws
    evaluate: Callable  # list of draws -> one (results, note) per instance
    summary: Optional[Callable[[list], dict]] = None  # notes -> the report's extras


# in `verify all` order
SUITES = {
    "np": Suite(1, 1000, _np_draw, _grouped(_np_check)),
    "bdm": Suite(2, 1000, _bdm_draw, _grouped(_bdm_check)),
    "bd": Suite(3, 1000, _bd_draw, _grouped(_bd_check)),
    "continuity": Suite(4, 1000, _continuity_draw, _grouped(_continuity_check)),
    "product": Suite(5, 1000, _defer, _each(_product_instance)),
    "monotonicity": Suite(6, 1000, _monotonicity_draw, _grouped(_monotonicity_check)),
    "kh": Suite(7, 500, _defer, _each(_kh_instance)),
    "transfer": Suite(8, 500, _defer, _each(_transfer_instance)),
    "greedy-vs-brute": Suite(9, 500, _defer, _each(_greedy_vs_brute_instance), _gap_summary),
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


def _instance_results(suite: Suite, seed: int, trials: int, dim: int):
    """(k, results, note) for instances 0..trials-1, drawn and evaluated _CHUNK at a time."""
    for start in range(0, trials, _CHUNK):
        ks = range(start, min(start + _CHUNK, trials))
        drawn = [suite.draw(np.random.default_rng([seed % (1 << 63), suite.id, k]), k, dim) for k in ks]
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
