import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entspec import infospec
from entspec.cli import main
from entspec.hermitian import rand_spectrum, tail_C, tail_D
from entspec.infospec import cdf_selfinfo, entropy_proxies
from entspec.spectra import (
    IID,
    MaxEnt,
    Mixture,
    Spectrum,
    cumulative_mass,
    entropy,
    expand,
    generate,
    iid_spectrum,
)


def test_cdf_point_mass():
    s = Spectrum.from_probs([1.0])
    assert cdf_selfinfo(s, 1, 0.0) == 1.0
    assert cdf_selfinfo(s, 1, -0.1) == 0.0


def test_cdf_rejects_nan_threshold():
    # a NaN threshold used to give a CDF of 0.0
    s = Spectrum.from_probs([0.9, 0.1])
    with pytest.raises(ValueError, match="nan"):
        cdf_selfinfo(s, 1, math.nan)
    assert cdf_selfinfo(s, 1, math.inf) == 1.0
    assert cdf_selfinfo(s, 1, -math.inf) == 0.0


def test_cdf_two_atom():
    s = Spectrum.from_probs([0.9, 0.1])
    assert cdf_selfinfo(s, 1, 0.5) == 0.9
    assert cdf_selfinfo(s, 1, 3.0) == 1.0
    assert cdf_selfinfo(s, 1, 0.05) == 0.0


def test_cdf_boundary_strictness():
    s = Spectrum.from_probs([0.9, 0.1])
    a = -math.log(0.9) / 1 + 0.0
    assert cdf_selfinfo(s, 1, a) == 0.9


def test_cdf_concentrates_at_entropy_rate():
    base = Spectrum.from_probs([0.9, 0.1])
    s = iid_spectrum(base, 200)
    h = entropy(base)
    mid = cdf_selfinfo(s, 200, h)
    assert 0.4 < mid < 0.6
    assert cdf_selfinfo(s, 200, h - 0.1) < 0.05
    assert cdf_selfinfo(s, 200, h + 0.1) > 0.95


def test_cdf_monotone_in_threshold():
    s = iid_spectrum(Spectrum.from_probs([0.6, 0.3, 0.1]), 7)
    values = [cdf_selfinfo(s, 7, a) for a in np.linspace(0.0, 2.5, 41)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == math.fsum(p * m for p, m in s.atoms)  # grid end exceeds the largest atom rate


def test_cdf_on_threshold_grid():
    s = Spectrum.from_probs([0.9, 0.1])
    assert [cdf_selfinfo(s, 1, a) for a in (0.05, 0.5, 3.0)] == [0.0, 0.9, 1.0]


def test_proxies_degenerate_spectrum():
    s = Spectrum.from_atoms([(0.125, 8)])
    r = -math.log(0.125) / 3
    assert entropy_proxies(s, 3, [0.1])[0] == (r, r)


def test_proxies_point_mass_eps_zero():
    s = Spectrum.from_probs([1.0])
    assert entropy_proxies(s, 1, [0.0])[0] == (0.0, 0.0)


def test_proxies_eps_one_clamps_to_extremes():
    s = Spectrum.from_probs([0.9, 0.1])
    lo, hi = entropy_proxies(s, 1, [1.0])[0]
    rates = [-math.log(p) / 1 + 0.0 for p, _ in s.atoms]
    assert lo == rates[-1]
    assert hi == rates[0]


def test_proxies_ordered_and_monotone_in_eps():
    rng = np.random.default_rng(5)
    for _ in range(100):
        s = rand_spectrum(rng, 12)
        n = int(rng.integers(1, 4))
        prev = None
        for eps in (0.0, 0.1, 0.3, 0.45):
            lo, hi = entropy_proxies(s, n, [eps])[0]
            assert lo <= hi + 1e-12
            if prev is not None:
                assert lo >= prev[0] - 1e-12
                assert hi <= prev[1] + 1e-12
            prev = (lo, hi)


def test_proxies_flat_spectrum_rate():
    s = Spectrum.from_atoms([(1.0 / 32.0, 32)])
    for eps in (0.0, 0.2, 0.9):
        lo, hi = entropy_proxies(s, 5, [eps])[0]
        assert lo == hi == math.log(32.0) / 5


def test_proxies_validation():
    s = Spectrum.from_probs([1.0])
    with pytest.raises(ValueError):
        entropy_proxies(s, 0, [0.1])
    with pytest.raises(ValueError):
        entropy_proxies(s, 1, [1.5])


def _proxies_oracle(s, n, epsilon):
    """The per-epsilon walk `entropy_proxies` replaced, kept as its oracle.

    One ledger walk and one log per atom passed, for a single epsilon; it stops
    at the later proxy and clamps epsilon = 1 to the last atom's rate.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon!r}")
    lo_threshold = epsilon + 1e-12 if epsilon > 0.0 else 0.0
    hi_threshold = (1.0 - epsilon) - 1e-12
    lower = None
    upper = None
    last_rate = 0.0
    for (p, _), cum in zip(s.atoms, cumulative_mass(s.atoms)):
        rate = -math.log(p) / n + 0.0
        last_rate = rate
        if upper is None and cum >= hi_threshold:
            upper = rate
        if lower is None and cum > lo_threshold:
            lower = rate
        if lower is not None and upper is not None:
            break
    if lower is None:
        lower = last_rate
    if upper is None:
        upper = last_rate
    return lower, upper


@st.composite
def _proxy_cases(draw):
    """(spectrum, n, epsilons): exact ties, a leading atom lighter than the
    1e-12 tolerance, random spectra and an IID power, with grids that repeat,
    come unsorted and put a threshold on the spectrum's own prefix masses."""
    kind = draw(st.sampled_from(("tied", "tiny-lead", "rand", "iid")))
    n = draw(st.integers(1, 40))
    if kind == "tied":
        s = Spectrum.from_atoms([(0.125, 8)])
    elif kind == "tiny-lead":
        s = Spectrum.from_atoms([(2e-13, 1), (1e-13, 10**13 - 2)])
    elif kind == "rand":
        s = rand_spectrum(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), 12)
    else:
        s = iid_spectrum(Spectrum.from_probs([0.6, 0.3, 0.1]), n)
    masses = list(cumulative_mass(s.atoms))
    # eps = m - 1e-12 puts the lower threshold on a prefix mass m, and
    # eps = 1 - (m + 1e-12) the upper one (up to rounding)
    eps = st.one_of(
        st.sampled_from((0.0, -0.0, 1.0, 0.5)),
        st.floats(0.0, 1.0),
        st.sampled_from(masses).map(lambda m: min(max(m - 1e-12, 0.0), 1.0)),
        st.sampled_from(masses).map(lambda m: min(max(1.0 - (m + 1e-12), 0.0), 1.0)),
    )
    return s, n, draw(st.lists(eps, max_size=8))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_proxy_cases())
def test_grid_proxies_match_the_per_epsilon_oracle(case):
    s, n, epsilons = case
    assert repr(entropy_proxies(s, n, epsilons)) == repr([_proxies_oracle(s, n, e) for e in epsilons])


@pytest.mark.parametrize(
    "s, n",
    [
        (Spectrum.from_atoms([(0.125, 8)]), 3),
        (Spectrum.from_probs([0.9, 0.1]), 1),
        (iid_spectrum(Spectrum.from_probs([0.6, 0.3, 0.1]), 30), 30),
    ],
)
def test_grid_proxies_keep_order_repeats_and_extremes(s, n):
    grid = [1.0, 0.25, -0.0, 0.1, 0.25, 0.0, 1.0]
    got = entropy_proxies(s, n, grid)
    assert repr(got) == repr([_proxies_oracle(s, n, e) for e in grid])
    assert got[0] == got[-1] and got[1] == got[4] and got[2] == got[5]
    assert entropy_proxies(s, n, []) == []


def test_grid_proxies_validate_the_whole_grid_before_walking(monkeypatch):
    def no_walk(atoms):
        raise AssertionError("walked the ledger before validating")

    monkeypatch.setattr(infospec, "cumulative_mass", no_walk)
    s = Spectrum.from_probs([0.9, 0.1])
    with pytest.raises(ValueError, match="n must be a positive integer"):
        entropy_proxies(s, 0, [2.0])
    for bad in (math.nan, math.inf, -math.inf, -0.5, 1.5):
        with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\], got "):
            entropy_proxies(s, 1, [0.1, bad])


def test_rates_walks_the_ledger_once_per_block_length(monkeypatch, capsys):
    walks = []

    def counted(atoms):
        walks.append(len(atoms))
        return cumulative_mass(atoms)

    monkeypatch.setattr(infospec, "cumulative_mass", counted)
    code = main(["rates", "iid:0.6,0.3,0.1", "--n", "20,30", "--eps", "0.01,0.1,0.25"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and len(lines) == 1 + 2 * 3
    assert walks == [len(generate(IID(Spectrum.from_probs([0.6, 0.3, 0.1])), n).atoms) for n in (20, 30)]


def test_tail_equal_states_vanish():
    rho = np.diag([0.5, 0.5])
    assert tail_D(rho, rho, 1, 0.0) == 0.0
    assert tail_C(rho, rho, 1, 0.0) == 0.0


def test_tail_hand_example():
    rho = np.diag([0.7, 0.3])
    sigma = np.eye(2)
    assert abs(tail_D(rho, sigma, 1, -0.5) - 0.7) < 1e-12
    assert abs(tail_C(rho, sigma, 1, -0.5) - (0.7 - math.exp(-0.5))) < 1e-12


def test_tail_orthogonal_states():
    rho = np.diag([1.0, 0.0])
    sigma = np.diag([0.5, 0.5])
    assert abs(tail_D(rho, sigma, 1, 0.0) - 1.0) < 1e-12
    assert abs(tail_C(rho, sigma, 1, 0.0) - 0.5) < 1e-12


def test_tail_tiny_threshold_keeps_all_mass():
    rho = np.diag([0.25, 0.25, 0.25, 0.25])
    sigma = np.diag([1.0, 0.0, 0.0, 0.0])
    assert abs(tail_D(rho, sigma, 1, -50.0) - 1.0) < 1e-12


def _atom_tails(s, n, a):
    """(tail_D, tail_C) of diag(expand(s)) against the identity, summed over atoms."""
    t = math.exp(n * a)
    return (
        math.fsum(p * m for p, m in s.atoms if p > t),
        math.fsum((p - t) * m for p, m in s.atoms if p > t),
    )


def test_tail_spectrum_matches_dense():
    rng = np.random.default_rng(17)
    for _ in range(50):
        s = rand_spectrum(rng, 10)
        n = int(rng.integers(1, 4))
        a = float(rng.uniform(-3.0, 0.5))
        diag = np.diag(expand(s))
        eye = np.eye(diag.shape[0])
        want_d, want_c = _atom_tails(s, n, a)
        assert abs(tail_D(diag, eye, n, a) - want_d) < 1e-10
        assert abs(tail_C(diag, eye, n, a) - want_c) < 1e-10


def test_tail_C_nonincreasing_in_a():
    rng = np.random.default_rng(3)
    s = rand_spectrum(rng, 8)
    diag = np.diag(expand(s))
    grid = [float(a) for a in np.linspace(-2.0, 1.0, 25)]
    vals = [tail_C(diag, np.eye(s.total_dim), 2, a) for a in grid]
    assert all(abs(v - _atom_tails(s, 2, a)[1]) < 1e-10 for v, a in zip(vals, grid))
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_tail_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        tail_D(np.eye(2), np.eye(3), 1, 0.0)
    with pytest.raises(ValueError):
        tail_C(np.eye(2) / 2, np.eye(2), 1, 800.0)  # exp overflow


def test_tail_rejects_nan_cuts():
    # a NaN cut or block length used to give a tail of 0.0
    for tail in (tail_C, tail_D):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite double"):
                tail(np.eye(2) / 2, np.eye(2) / 2, 1, bad)
        with pytest.raises(ValueError, match="positive integer"):
            tail(np.eye(2) / 2, np.eye(2) / 2, math.nan, 0.1)
        with pytest.raises(ValueError, match="finite double"):
            tail(np.eye(2) / 2, np.eye(2) / 2, [1, 2], [0.1, math.nan])


def test_tail_C_rejects_non_finite_entries():
    # a NaN or infinite entry used to give a tail of 0.0
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            tail_C(np.diag([bad, 0.5]), np.eye(2) / 2, 1, 0.1)
        with pytest.raises(ValueError, match="non-finite"):
            tail_C(np.eye(2) / 2, np.diag([0.5, bad]), 1, 0.1)
        with pytest.raises(ValueError, match="non-finite"):
            tail_C(np.array([np.eye(2) / 2, np.diag([bad, 0.5])]), np.array([np.eye(2) / 2] * 2), 1, 0.1)


def test_tail_D_rejects_non_finite_entries():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            tail_D(np.diag([bad, 0.5]), np.eye(2) / 2, 1, 0.1)
        with pytest.raises(ValueError, match="non-finite"):
            tail_D(np.eye(2) / 2, np.diag([0.5, bad]), 1, 0.1)
        with pytest.raises(ValueError, match="non-finite"):
            tail_D(np.eye(2) / 2, [[0.5, complex(0.0, bad)], [0.0, 0.5]], 1, 0.1)


def test_rate_curve_iid():
    model = IID(Spectrum.from_probs([0.9, 0.1]))
    lo, hi = entropy_proxies(generate(model, 400), 400, [0.1])[0]
    assert abs(lo - 0.2811384818447238) < 1e-12
    assert abs(hi - 0.3690274649381726) < 1e-12
    h = entropy(Spectrum.from_probs([0.9, 0.1]))
    assert lo <= h <= hi


def test_rate_curve_mixture():
    model = Mixture(
        (
            (0.5, IID(Spectrum.from_probs([0.9, 0.1]))),
            (0.5, MaxEnt(math.log(2.0))),
        )
    )
    lo, hi = entropy_proxies(generate(model, 400), 400, [0.25])[0]
    # closed forms: lower is the median type-class rate of the weighted
    # binomial half, upper the flat rate of the weighted maximally mixed half
    want_lo = (40.0 * math.log(10.0) + 360.0 * math.log(10.0 / 9.0) + math.log(2.0)) / 400.0
    want_hi = math.log(2.0) * 401.0 / 400.0
    assert abs(lo - want_lo) < 1e-12
    assert abs(hi - want_hi) < 1e-12
