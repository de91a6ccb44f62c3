"""Per-instance reference for the five dense verify suites.

The dense suites draw every instance, then evaluate stacks of them.  This
module is the per-instance evaluation they replaced: one matrix at a time,
one NumPy call per matrix, in the same draw order from the same generators.
`instance_results(name, rng, k, dim)` gives, for each result of instance k,
(worst_slack, checks, violations) with the violation payloads in JSON form.
"""

import math

import numpy as np

_EIG_CUT_REL = 1e-10


def _herm(m):
    m = np.array(m, dtype=complex)
    return (m + m.conj().T) / 2.0


def _positive_eigs(w):
    cut = _EIG_CUT_REL * float(np.abs(w).max()) if w.size else 0.0
    return w > cut


def jordan(a):
    w, v = np.linalg.eigh(a)
    pos = _positive_eigs(w)
    vp = v[:, pos]
    vn = v[:, ~pos]
    a_plus = (vp * w[pos]) @ vp.conj().T
    a_minus = -((vn * w[~pos]) @ vn.conj().T)
    proj_pos = vp @ vp.conj().T
    proj_nonpos = np.eye(a.shape[0]) - proj_pos
    return _herm(a_plus), _herm(a_minus), _herm(proj_pos), _herm(proj_nonpos)


def trace_plus(a):
    w = np.linalg.eigvalsh(a)
    return float(w[_positive_eigs(w)].sum())


def trace_norm(a):
    return float(np.abs(np.linalg.eigvalsh(a)).sum())


def _is_diagonal(m):
    off = m - np.diag(np.diagonal(m))
    scale = max(float(np.abs(m).max()), 1.0)
    return float(np.abs(off).max()) <= 1e-12 * scale


def apply_tp(f, m):
    kind, x = f
    if kind == "cptp":
        out = np.zeros_like(m)
        for k in x:
            out += k @ m @ k.conj().T
        return _herm(out)
    if kind == "stochastic":
        if _is_diagonal(m):
            return _herm(np.diag(x @ np.real(np.diagonal(m))))
        w, v = np.linalg.eigh(m)
        return _herm((v * (x @ w)) @ v.conj().T)
    return _herm((1.0 - x) * m + x * m.T)


def _tail_difference(r, s, n, a):
    diff = r - math.exp(n * a) * s
    return (diff + diff.conj().T) / 2.0


def tail_D(r, s, n, a):
    w, v = np.linalg.eigh(_tail_difference(r, s, n, a))
    keep = _positive_eigs(w)
    if not keep.any():
        return 0.0
    vk = v[:, keep]
    return float(np.real(np.einsum("ij,ik,kj->", vk.conj(), r, vk)))


def tail_C(r, s, n, a):
    w = np.linalg.eigvalsh(_tail_difference(r, s, n, a))
    return float(np.sum(w[_positive_eigs(w)]))


# samplers, in the library's draw order


def rand_unitary(rng, dim):
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph


def rand_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return _herm((g + g.conj().T) / 2.0)


def rand_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return _herm(m / np.trace(m).real)


def rand_diagonal_density(rng, dim):
    return _herm(np.diag(rng.dirichlet(np.ones(dim)).astype(complex)))


def rand_contraction(rng, dim):
    u = rand_unitary(rng, dim)
    vals = rng.uniform(0.0, 1.0, dim)
    return _herm((u * vals) @ u.conj().T)


def rand_cptp(rng, dim, n_kraus=3):
    ks = [
        (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
        for _ in range(n_kraus)
    ]
    for _ in range(2):
        m = np.zeros((dim, dim), dtype=complex)
        for k in ks:
            m += k.conj().T @ k
        w, v = np.linalg.eigh(m)
        inv_half = (v / np.sqrt(w)) @ v.conj().T
        ks = [k @ inv_half for k in ks]
    return "cptp", tuple(ks)


def rand_stochastic(rng, dim):
    m = -np.log(rng.uniform(size=(dim, dim)))
    return "stochastic", m / m.sum(axis=0, keepdims=True)


def rand_doubly_stochastic(rng, dim):
    terms = dim + 2
    w = -np.log(rng.uniform(size=terms))
    w /= w.sum()
    m = np.zeros((dim, dim))
    for i in range(terms):
        m[np.arange(dim), rng.permutation(dim)] += w[i]
    return "stochastic", m


# results


def _json(v):
    if isinstance(v, np.ndarray):
        if np.iscomplexobj(v):
            return [[[float(z.real), float(z.imag)] for z in row] for row in v]
        return [[float(x) for x in row] for row in v]
    if isinstance(v, tuple):
        kind, x = v
        if kind == "cptp":
            return {"kind": kind, "kraus": [_json(k) for k in x]}
        if kind == "stochastic":
            return {"kind": kind, "matrix": _json(x)}
        return {"kind": "transpose_mix", "t": x}
    return v


def _finish(checks, **payload):
    worst = min(margin for _, margin, _ in checks)
    violations = tuple(
        {"check": name, "margin": margin, "tolerance": tol, "instance": {k: _json(v) for k, v in payload.items()}}
        for name, margin, tol in checks
        if margin < -tol
    )
    return worst, len(checks), violations


def verify_lemma_np(a, rng):
    tp = trace_plus(a)
    t = rand_contraction(rng, a.shape[0])
    val = float(np.trace(a @ t).real)
    checks = [("upper-bound", tp - val, 1e-9)]
    attained = float(np.trace(a @ jordan(a)[2]).real)
    checks.append(("attained-at-positive-projector", 1e-10 - abs(attained - tp), 0.0))
    return _finish(checks, operator=a, tightest_contraction=t if val > -math.inf else None)


def verify_projector_split(a, b):
    diff = _herm(a - b)
    proj = jordan(diff)[2]
    t_a = float(np.trace(a @ proj).real)
    t_b = float(np.trace(b @ proj).real)
    t_plus = trace_plus(diff)
    checks = [
        ("projection-dominance", t_a - t_b, 1e-9),
        ("difference-split-identity", 1e-9 - abs(t_plus - (t_a - t_b)), 0.0),
    ]
    return _finish(checks, first=a, second=b)


def verify_traceless_abs(a):
    d = a.shape[0]
    a0 = _herm(a - (np.trace(a).real / d) * np.eye(d))
    checks = [("traceless-abs-identity", 1e-9 - abs(trace_norm(a0) - 2.0 * trace_plus(a0)), 0.0)]
    return _finish(checks, operator=a0)


def verify_bd_sandwich(rho, sigma, n, a, gamma):
    c_a = tail_C(rho, sigma, n, a)
    d_a = tail_D(rho, sigma, n, a)
    d_b = tail_D(rho, sigma, n, a + gamma)
    checks = [
        ("positive-part-below-projection", d_a - c_a, 1e-9),
        ("shifted-cut-lower-bound", c_a - (d_b - math.exp(-n * gamma)), 1e-9),
    ]
    return _finish(checks, rho=rho, sigma=sigma, n=n, a=a, gamma=gamma)


def verify_continuity(rho, rho_prime, sigma, n, a):
    half_l1 = 0.5 * trace_norm(_herm(rho - rho_prime))
    c = tail_C(rho, sigma, n, a)
    c_prime = tail_C(rho_prime, sigma, n, a)
    checks = [
        ("perturbation-bound", c_prime + half_l1 - c, 1e-9),
        ("perturbation-bound-swapped", c + half_l1 - c_prime, 1e-9),
    ]
    return _finish(checks, rho=rho, rho_prime=rho_prime, sigma=sigma, n=n, a=a)


def verify_tail_monotonicity(rho, sigma, f, n, a):
    before = tail_C(rho, sigma, n, a)
    after = tail_C(apply_tp(f, rho), apply_tp(f, sigma), n, a)
    return _finish([("tail-monotone", before - after, 1e-9)], rho=rho, sigma=sigma, map=f, n=n, a=a)


# instances


def _np(rng, k, dim):
    d = int(rng.integers(2, dim + 1))
    a = rand_hermitian(rng, d)
    lemma = verify_lemma_np(a, rng)
    return [lemma, verify_projector_split(a, rand_hermitian(rng, d)), verify_traceless_abs(a)]


def _bdm(rng, k, dim):
    d = int(rng.integers(2, dim + 1))
    a = rand_hermitian(rng, d)
    kind = k % 3
    if kind == 0:
        f = rand_cptp(rng, d)
    elif kind == 1:
        f = rand_stochastic(rng, d)
        a = _herm(np.diag(np.linalg.eigvalsh(a).astype(complex)))
    else:
        f = ("transpose_mix", float(rng.uniform()))
    return [_finish([("positive-part-monotone", trace_plus(a) - trace_plus(apply_tp(f, a)), 1e-9)], map=f, operator=a)]


def _bd(rng, k, dim):
    d = int(rng.integers(2, dim + 1))
    rho = rand_density(rng, d)
    sigma = rand_density(rng, d)
    n = int(rng.integers(1, 6))
    a = float(rng.uniform(-2.0, 2.0))
    return [verify_bd_sandwich(rho, sigma, n, a, 0.1 if k % 2 == 0 else 0.5)]


def _continuity(rng, k, dim):
    d = int(rng.integers(2, dim + 1))
    rho = rand_density(rng, d)
    rho_prime = rand_density(rng, d)
    sigma = rand_density(rng, d)
    n = int(rng.integers(1, 6))
    a = float(rng.uniform(-2.0, 2.0))
    return [verify_continuity(rho, rho_prime, sigma, n, a)]


def _monotonicity(rng, k, dim):
    d = int(rng.integers(2, dim + 1))
    n = int(rng.integers(1, 6))
    a = float(rng.uniform(-2.0, 2.0))
    kind = k % 3
    if kind == 0:
        rho = rand_density(rng, d)
        sigma = rand_density(rng, d)
        f = rand_cptp(rng, d)
    elif kind == 1:
        rho = rand_diagonal_density(rng, d)
        if (k // 3) % 2 == 0:
            sigma = rand_diagonal_density(rng, d)
            f = rand_stochastic(rng, d)
        else:
            sigma = _herm(np.eye(d, dtype=complex))
            f = rand_doubly_stochastic(rng, d)
    else:
        rho = rand_density(rng, d)
        sigma = rand_density(rng, d)
        f = ("transpose_mix", float(rng.uniform()))
    return [verify_tail_monotonicity(rho, sigma, f, n, a)]


INSTANCES = {"np": _np, "bdm": _bdm, "bd": _bd, "continuity": _continuity, "monotonicity": _monotonicity}


def instance_results(name, rng, k, dim):
    return INSTANCES[name](rng, k, dim)
