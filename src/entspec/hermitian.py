"""Positive-part operator calculus and randomized verification suites.

The calculus: Jordan decomposition of a Hermitian operator with the
convention that zero eigenvalues belong to the non-positive part, the trace
of the positive part, and three families of trace-preserving maps (Kraus,
column-stochastic on eigenvalues, transpose mixing; only the first is
completely positive).

The suites: seeded randomized checks of every operator inequality the
conversion analysis rests on, plus structural suites for the majorization
certificates and the greedy-versus-exhaustive map synthesis.  Each instance
draws its generator from (master seed, suite id, instance index), so results
are independent of execution order and reruns are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .infospec import _positive_eigs, cdf_selfinfo, tail_C, tail_D
from .majorize import (
    BistochasticMatrix,
    DeterministicMap,
    kh_certificate,
    kh_residual,
    prefix_gap_min,
    pushforward,
    transfer_matrix,
)
from .randgen import brute_force_optimal, synthesize_map
from .spectra import BudgetExceededError, Spectrum, _mass_term, expand


class HermitianOperator:
    """Square complex matrix equal to its conjugate transpose.

    Deviations up to 1e-10 relative to the largest entry are symmetrized
    away at construction; anything larger is rejected.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        m = np.array(entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
        scale = float(np.abs(m).max())
        dev = float(np.abs(m - m.conj().T).max())
        if dev > 1e-10 * scale:
            raise ValueError(f"matrix deviates from Hermitian by {dev!r} (scale {scale!r})")
        self.entries = (m + m.conj().T) / 2.0

    @classmethod
    def _wrap(cls, m) -> "HermitianOperator":
        # trusted internal algebra: rounding dust can dominate a near-zero
        # result (e.g. I minus a full projector), so symmetrize without the
        # relative deviation gate
        obj = object.__new__(HermitianOperator)
        mm = np.asarray(m, dtype=complex)
        obj.entries = (mm + mm.conj().T) / 2.0
        return obj

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        a = self.entries
        if dtype is not None:
            a = a.astype(dtype, copy=False)
        if copy:
            a = a.copy()
        return a

    def to_json(self) -> list:
        return _mat_json(self.entries)


class Contraction(HermitianOperator):
    """Hermitian operator in the interval 0 <= T <= I."""

    __slots__ = ()

    def __init__(self, entries):
        super().__init__(entries)
        w = np.linalg.eigvalsh(self.entries)
        if w.min() < -1e-10 or w.max() > 1.0 + 1e-10:
            raise ValueError(f"eigenvalues [{w.min()!r}, {w.max()!r}] leave the interval [0, 1]")


@dataclass(frozen=True, eq=False)
class CPTPMap:
    """Kraus map A -> sum_i K_i A K_i^dagger with sum_i K_i^dagger K_i = I."""

    kraus: tuple

    def __post_init__(self):
        if not self.kraus:
            raise ValueError("need at least one Kraus operator")
        d = self.kraus[0].shape[0]
        acc = np.zeros((d, d), dtype=complex)
        for k in self.kraus:
            if k.shape != (d, d):
                raise ValueError("Kraus operators must be square and equally sized")
            acc += k.conj().T @ k
        dev = float(np.abs(acc - np.eye(d)).max())
        if dev > 1e-10:
            raise ValueError(f"Kraus completeness fails by {dev!r}")

    @property
    def kind(self) -> str:
        return "cptp"

    @property
    def dimension(self) -> int:
        return self.kraus[0].shape[0]


@dataclass(frozen=True, eq=False)
class StochasticMap:
    """Column-stochastic action on eigenvalues (trace preserving, not CP)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if m.min() < -1e-12:
            raise ValueError(f"negative entry {m.min()!r}")
        dev = float(np.abs(m.sum(axis=0) - 1.0).max())
        if dev > 1e-10:
            raise ValueError(f"column sums deviate from 1 by {dev!r}")

    @property
    def kind(self) -> str:
        return "stochastic"

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class TransposeMix:
    """A -> (1 - t) A + t A^T; trace preserving, not completely positive."""

    t: float

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"mixing weight must lie in [0, 1], got {self.t!r}")

    @property
    def kind(self) -> str:
        return "transpose_mix"


TPMap = Union[CPTPMap, StochasticMap, TransposeMix]


def _as_hermitian(x) -> HermitianOperator:
    return x if isinstance(x, HermitianOperator) else HermitianOperator(x)


def jordan(a) -> tuple[HermitianOperator, HermitianOperator, HermitianOperator, HermitianOperator]:
    """(positive part, negative part, positive projector, non-positive projector).

    A = A_plus - A_minus and |A| = A_plus + A_minus.  Eigenvalues within
    1e-10 of zero relative to the spectral norm count as non-positive, so the
    zero operator has a full non-positive projector.
    """
    a = _as_hermitian(a)
    w, v = np.linalg.eigh(a.entries)
    pos = _positive_eigs(w)
    vp = v[:, pos]
    vn = v[:, ~pos]
    a_plus = (vp * w[pos]) @ vp.conj().T
    a_minus = -((vn * w[~pos]) @ vn.conj().T)
    proj_pos = vp @ vp.conj().T
    proj_nonpos = np.eye(a.dimension) - proj_pos
    return (
        HermitianOperator._wrap(a_plus),
        HermitianOperator._wrap(a_minus),
        HermitianOperator._wrap(proj_pos),
        HermitianOperator._wrap(proj_nonpos),
    )


def trace_plus(a) -> float:
    """Trace of the positive part: the sum of the positive eigenvalues."""
    a = _as_hermitian(a)
    w = np.linalg.eigvalsh(a.entries)
    return float(w[_positive_eigs(w)].sum())


def trace_norm(a) -> float:
    a = _as_hermitian(a)
    w = np.linalg.eigvalsh(a.entries)
    return float(np.abs(w).sum())


def _is_diagonal(m: np.ndarray) -> bool:
    off = m - np.diag(np.diagonal(m))
    scale = max(float(np.abs(m).max()), 1.0)
    return float(np.abs(off).max()) <= 1e-12 * scale


def apply_tp(f: TPMap, a) -> HermitianOperator:
    """Apply a trace-preserving map.

    The stochastic kind acts on the eigenvalues of its argument: directly on
    the diagonal when the argument is diagonal (so commuting families see one
    and the same classical map), otherwise in the argument's eigenbasis.
    """
    a = _as_hermitian(a)
    m = a.entries
    if isinstance(f, CPTPMap):
        if f.dimension != a.dimension:
            raise ValueError(f"dimension mismatch: map {f.dimension}, operator {a.dimension}")
        out = np.zeros_like(m)
        for k in f.kraus:
            out += k @ m @ k.conj().T
        return HermitianOperator._wrap(out)
    if isinstance(f, StochasticMap):
        if f.dimension != a.dimension:
            raise ValueError(f"dimension mismatch: map {f.dimension}, operator {a.dimension}")
        if _is_diagonal(m):
            return HermitianOperator._wrap(np.diag(f.matrix @ np.real(np.diagonal(m))))
        w, v = np.linalg.eigh(m)
        return HermitianOperator._wrap((v * (f.matrix @ w)) @ v.conj().T)
    if isinstance(f, TransposeMix):
        return HermitianOperator._wrap((1.0 - f.t) * m + f.t * m.T)
    raise TypeError(f"not a TP map: {f!r}")


def _require_density(name: str, a: HermitianOperator, *, tol: float = 1e-8):
    w = np.linalg.eigvalsh(a.entries)
    if float(w.min()) < -tol:
        raise ValueError(f"{name} has negative eigenvalue {float(w.min())!r}")
    if abs(float(w.sum()) - 1.0) > tol:
        raise ValueError(f"{name} has trace {float(w.sum())!r}, expected 1")


def _require_psd(name: str, a: HermitianOperator, *, tol: float = 1e-8):
    w = np.linalg.eigvalsh(a.entries)
    if float(w.min()) < -tol:
        raise ValueError(f"{name} has negative eigenvalue {float(w.min())!r}")


# ---------------------------------------------------------------------------
# per-instance verifiers

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
    if isinstance(v, HermitianOperator):
        return _mat_json(v.entries)
    if isinstance(v, BistochasticMatrix):
        return [[float(x) for x in row] for row in v.entries]
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


def verify_lemma_np(a, trials: int, *, rng=None) -> VerifyResult:
    """Tr A T <= Tr A_plus over sampled contractions T, with attainment at A > 0."""
    a = _as_hermitian(a)
    if trials < 1:
        raise ValueError("trials must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    tp = trace_plus(a)
    checks = []
    worst_t = None
    worst_val = -math.inf
    for _ in range(trials):
        t = rand_contraction(rng, a.dimension)
        val = float(np.trace(a.entries @ t.entries).real)
        checks.append(("upper-bound", tp - val, 1e-9))
        if val > worst_val:
            worst_val, worst_t = val, t
    _, _, proj_pos, _ = jordan(a)
    attained = float(np.trace(a.entries @ proj_pos.entries).real)
    checks.append(("attained-at-positive-projector", 1e-10 - abs(attained - tp), 0.0))
    return _finish(checks, _payload(operator=a, tightest_contraction=worst_t))


def verify_lemma_bdm(f: TPMap, a) -> VerifyResult:
    """Tr F(A)_plus <= Tr A_plus for a trace-preserving map F."""
    a = _as_hermitian(a)
    before = trace_plus(a)
    after = trace_plus(apply_tp(f, a))
    checks = [("positive-part-monotone", before - after, 1e-9)]
    return _finish(checks, _payload(map=f, operator=a))


def verify_bd_sandwich(rho, sigma, n: int, a: float, gamma: float) -> VerifyResult:
    """Positive-part tail below projector tail, and the shifted-cut lower bound."""
    rho = _as_hermitian(rho)
    sigma = _as_hermitian(sigma)
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    _require_density("rho", rho)
    _require_psd("sigma", sigma)
    c_a = tail_C(rho, sigma, n, a)
    d_a = tail_D(rho, sigma, n, a)
    d_b = tail_D(rho, sigma, n, a + gamma)
    checks = [
        ("positive-part-below-projection", d_a - c_a, 1e-9),
        ("shifted-cut-lower-bound", c_a - (d_b - math.exp(-n * gamma)), 1e-9),
    ]
    return _finish(checks, _payload(rho=rho, sigma=sigma, n=n, a=a, gamma=gamma))


def verify_continuity(rho, rho_prime, sigma, n: int, a: float) -> VerifyResult:
    """Positive-part tails move by at most half the trace distance of the state."""
    rho = _as_hermitian(rho)
    rho_prime = _as_hermitian(rho_prime)
    sigma = _as_hermitian(sigma)
    _require_density("rho", rho)
    _require_density("rho_prime", rho_prime)
    half_l1 = 0.5 * trace_norm(HermitianOperator._wrap(rho.entries - rho_prime.entries))
    c = tail_C(rho, sigma, n, a)
    c_prime = tail_C(rho_prime, sigma, n, a)
    checks = [
        ("perturbation-bound", c_prime + half_l1 - c, 1e-9),
        ("perturbation-bound-swapped", c + half_l1 - c_prime, 1e-9),
    ]
    return _finish(checks, _payload(rho=rho, rho_prime=rho_prime, sigma=sigma, n=n, a=a))


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


def verify_tail_monotonicity(rho, sigma, f: TPMap, n: int, a: float) -> VerifyResult:
    """tail_C never grows under a single trace-preserving map on both arguments.

    Stochastic maps are only a single linear map on commuting (diagonal)
    arguments, so they are rejected for non-diagonal inputs.
    """
    rho = _as_hermitian(rho)
    sigma = _as_hermitian(sigma)
    if isinstance(f, StochasticMap) and not (_is_diagonal(rho.entries) and _is_diagonal(sigma.entries)):
        raise ValueError("stochastic maps require diagonal arguments for two-sided application")
    fr = apply_tp(f, rho)
    fs = apply_tp(f, sigma)
    before = tail_C(rho, sigma, n, a)
    after = tail_C(fr, fs, n, a)
    checks = [("tail-monotone", before - after, 1e-9)]
    return _finish(checks, _payload(rho=rho, sigma=sigma, map=f, n=n, a=a))


def _verify_projector_split(a, b) -> VerifyResult:
    """On P = {A - B > 0}: Tr A P >= Tr B P, and Tr(A-B)_plus = Tr A P - Tr B P."""
    a = _as_hermitian(a)
    b = _as_hermitian(b)
    diff = HermitianOperator._wrap(a.entries - b.entries)
    _, _, proj, _ = jordan(diff)
    t_a = float(np.trace(a.entries @ proj.entries).real)
    t_b = float(np.trace(b.entries @ proj.entries).real)
    t_plus = trace_plus(diff)
    checks = [
        ("projection-dominance", t_a - t_b, 1e-9),
        ("difference-split-identity", 1e-9 - abs(t_plus - (t_a - t_b)), 0.0),
    ]
    return _finish(checks, _payload(first=a, second=b))


def _verify_traceless_abs(a) -> VerifyResult:
    """For traceless A the trace norm is twice the positive part's trace."""
    a = _as_hermitian(a)
    d = a.dimension
    a0 = HermitianOperator._wrap(a.entries - (np.trace(a.entries).real / d) * np.eye(d))
    checks = [("traceless-abs-identity", 1e-9 - abs(trace_norm(a0) - 2.0 * trace_plus(a0)), 0.0)]
    return _finish(checks, _payload(operator=a0))


# ---------------------------------------------------------------------------
# samplers

def rand_unitary(rng, dim: int) -> np.ndarray:
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph


def rand_hermitian(rng, dim: int) -> HermitianOperator:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((g + g.conj().T) / 2.0)


def rand_density(rng, dim: int) -> HermitianOperator:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return HermitianOperator(m / np.trace(m).real)


def rand_diagonal_density(rng, dim: int) -> HermitianOperator:
    v = rng.dirichlet(np.ones(dim))
    return HermitianOperator(np.diag(v.astype(complex)))


def rand_contraction(rng, dim: int) -> Contraction:
    u = rand_unitary(rng, dim)
    vals = rng.uniform(0.0, 1.0, dim)
    return Contraction((u * vals) @ u.conj().T)


def rand_cptp(rng, dim: int, n_kraus: int = 3) -> CPTPMap:
    ks = [
        (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
        for _ in range(n_kraus)
    ]
    # two normalization passes pin the completeness defect near machine epsilon
    for _ in range(2):
        m = np.zeros((dim, dim), dtype=complex)
        for k in ks:
            m += k.conj().T @ k
        w, v = np.linalg.eigh(m)
        inv_half = (v / np.sqrt(w)) @ v.conj().T
        ks = [k @ inv_half for k in ks]
    return CPTPMap(tuple(ks))


def rand_stochastic(rng, dim: int) -> StochasticMap:
    m = -np.log(rng.uniform(size=(dim, dim)))
    return StochasticMap(m / m.sum(axis=0, keepdims=True))


def rand_doubly_stochastic(rng, dim: int) -> StochasticMap:
    terms = dim + 2
    w = -np.log(rng.uniform(size=terms))
    w /= w.sum()
    m = np.zeros((dim, dim))
    for i in range(terms):
        m[np.arange(dim), rng.permutation(dim)] += w[i]
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
# suites: one instance function per suite, taking (rng, instance index, dim)
# and returning the instance's results plus a note for the suite's summary

# dense eigen calls cost d^3 per instance, so --dim is capped: `verify all`
# with default trials took 12 s at the cap, 3 s at the default dim 8 and
# about a minute at dim 128 (2-core x86_64 VM, NumPy 2.4)
MAX_VERIFY_DIM = 64


def _np_instance(rng, k: int, dim: int):
    d = int(rng.integers(2, dim + 1))
    a = rand_hermitian(rng, d)
    return [
        verify_lemma_np(a, 1, rng=rng),
        _verify_projector_split(a, rand_hermitian(rng, d)),
        _verify_traceless_abs(a),
    ], None


def _bdm_instance(rng, k: int, dim: int):
    d = int(rng.integers(2, dim + 1))
    a = rand_hermitian(rng, d)
    kind = k % 3
    if kind == 0:
        f: TPMap = rand_cptp(rng, d)
    elif kind == 1:
        f = rand_stochastic(rng, d)
        w = np.linalg.eigvalsh(a.entries)
        a = HermitianOperator(np.diag(w.astype(complex)))
    else:
        f = TransposeMix(float(rng.uniform()))
    return [verify_lemma_bdm(f, a)], None


def _bd_instance(rng, k: int, dim: int):
    d = int(rng.integers(2, dim + 1))
    rho = rand_density(rng, d)
    sigma = rand_density(rng, d)
    n = int(rng.integers(1, 6))
    a = float(rng.uniform(-2.0, 2.0))
    gamma = 0.1 if k % 2 == 0 else 0.5
    return [verify_bd_sandwich(rho, sigma, n, a, gamma)], None


def _continuity_instance(rng, k: int, dim: int):
    d = int(rng.integers(2, dim + 1))
    rho = rand_density(rng, d)
    rho_prime = rand_density(rng, d)
    sigma = rand_density(rng, d)
    n = int(rng.integers(1, 6))
    a = float(rng.uniform(-2.0, 2.0))
    return [verify_continuity(rho, rho_prime, sigma, n, a)], None


def _product_instance(rng, k: int, dim: int):
    p_a = rand_spectrum(rng, 12)
    s_b = rand_spectrum(rng, 12)
    n = int(rng.integers(1, 4))
    a = float(rng.uniform(-0.5, 3.0))
    return [verify_product_tails(p_a, s_b, n, a)], None


def _monotonicity_instance(rng, k: int, dim: int):
    d = int(rng.integers(2, dim + 1))
    n = int(rng.integers(1, 6))
    a = float(rng.uniform(-2.0, 2.0))
    kind = k % 3
    if kind == 0:
        rho = rand_density(rng, d)
        sigma = rand_density(rng, d)
        f: TPMap = rand_cptp(rng, d)
    elif kind == 1:
        rho = rand_diagonal_density(rng, d)
        if (k // 3) % 2 == 0:
            sigma = rand_diagonal_density(rng, d)
            f = rand_stochastic(rng, d)
        else:
            # unital sub-family: doubly stochastic map fixes the identity
            sigma = HermitianOperator(np.eye(d, dtype=complex))
            f = rand_doubly_stochastic(rng, d)
    else:
        rho = rand_density(rng, d)
        sigma = rand_density(rng, d)
        f = TransposeMix(float(rng.uniform()))
    return [verify_tail_monotonicity(rho, sigma, f, n, a)], None


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
    mix = rand_doubly_stochastic(rng, q.total_dim)
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
    instance: Callable  # (rng, instance index, dim) -> (results, note)
    summary: Optional[Callable[[list], dict]] = None  # notes -> the report's extras


# in `verify all` order
SUITES = {
    "np": Suite(1, 1000, _np_instance),
    "bdm": Suite(2, 1000, _bdm_instance),
    "bd": Suite(3, 1000, _bd_instance),
    "continuity": Suite(4, 1000, _continuity_instance),
    "product": Suite(5, 1000, _product_instance),
    "monotonicity": Suite(6, 1000, _monotonicity_instance),
    "kh": Suite(7, 500, _kh_instance),
    "transfer": Suite(8, 500, _transfer_instance),
    "greedy-vs-brute": Suite(9, 500, _greedy_vs_brute_instance, _gap_summary),
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
    for k in range(trials):
        results, note = suite.instance(np.random.default_rng([seed % (1 << 63), suite.id, k]), k, dim)
        notes.append(note)
        for res in results:
            worst = min(worst, res.worst_slack)
            checks += res.checks
            violations.extend({"instance_index": k, **v} for v in res.violations)
    extras = suite.summary(notes) if suite.summary else {}
    return SuiteReport(name, seed, trials, checks, worst, tuple(violations), extras)
