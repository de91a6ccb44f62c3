import math

import numpy as np
import pytest

from entspec.hermitian import rand_spectrum
from entspec.infospec import (
    cdf_selfinfo,
    entropy_proxies,
    tail_C,
    tail_C_spectrum,
    tail_D,
    tail_D_spectrum,
)
from entspec.spectra import IID, MaxEnt, Mixture, Spectrum, entropy, expand, generate, iid_spectrum


def test_cdf_point_mass():
    s = Spectrum.from_probs([1.0])
    assert cdf_selfinfo(s, 1, 0.0) == 1.0
    assert cdf_selfinfo(s, 1, -0.1) == 0.0
    assert cdf_selfinfo(s, 1, 0.0, boundary="strict") == 0.0


def test_cdf_two_atom():
    s = Spectrum.from_probs([0.9, 0.1])
    assert cdf_selfinfo(s, 1, 0.5) == 0.9
    assert cdf_selfinfo(s, 1, 3.0) == 1.0
    assert cdf_selfinfo(s, 1, 0.05) == 0.0


def test_cdf_boundary_strictness():
    s = Spectrum.from_probs([0.9, 0.1])
    a = -math.log(0.9) / 1 + 0.0
    assert cdf_selfinfo(s, 1, a) == 0.9
    assert cdf_selfinfo(s, 1, a, boundary="strict") == 0.0
    with pytest.raises(ValueError):
        cdf_selfinfo(s, 1, a, boundary="open")


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
    assert values[-1] == s.mass()  # grid end exceeds the largest atom rate


def test_cdf_on_threshold_grid():
    s = Spectrum.from_probs([0.9, 0.1])
    assert [cdf_selfinfo(s, 1, a) for a in (0.05, 0.5, 3.0)] == [0.0, 0.9, 1.0]


def test_proxies_degenerate_spectrum():
    s = Spectrum.from_atoms([(0.125, 8)])
    r = -math.log(0.125) / 3
    assert entropy_proxies(s, 3, 0.1) == (r, r)


def test_proxies_point_mass_eps_zero():
    s = Spectrum.from_probs([1.0])
    assert entropy_proxies(s, 1, 0.0) == (0.0, 0.0)


def test_proxies_eps_one_clamps_to_extremes():
    s = Spectrum.from_probs([0.9, 0.1])
    lo, hi = entropy_proxies(s, 1, 1.0)
    rates = s.rates(1)
    assert lo == rates[-1]
    assert hi == rates[0]


def test_proxies_ordered_and_monotone_in_eps():
    rng = np.random.default_rng(5)
    for _ in range(100):
        s = rand_spectrum(rng, 12)
        n = int(rng.integers(1, 4))
        prev = None
        for eps in (0.0, 0.1, 0.3, 0.45):
            lo, hi = entropy_proxies(s, n, eps)
            assert lo <= hi + 1e-12
            if prev is not None:
                assert lo >= prev[0] - 1e-12
                assert hi <= prev[1] + 1e-12
            prev = (lo, hi)


def test_proxies_flat_spectrum_rate():
    s = Spectrum.from_atoms([(1.0 / 32.0, 32)])
    for eps in (0.0, 0.2, 0.9):
        lo, hi = entropy_proxies(s, 5, eps)
        assert lo == hi == math.log(32.0) / 5


def test_proxies_validation():
    s = Spectrum.from_probs([1.0])
    with pytest.raises(ValueError):
        entropy_proxies(s, 0, 0.1)
    with pytest.raises(ValueError):
        entropy_proxies(s, 1, 1.5)


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


def test_tail_spectrum_matches_dense():
    rng = np.random.default_rng(17)
    for _ in range(50):
        s = rand_spectrum(rng, 10)
        n = int(rng.integers(1, 4))
        a = float(rng.uniform(-3.0, 0.5))
        diag = np.diag(expand(s))
        eye = np.eye(diag.shape[0])
        assert abs(tail_D(diag, eye, n, a) - tail_D_spectrum(s, n, a)) < 1e-10
        assert abs(tail_C(diag, eye, n, a) - tail_C_spectrum(s, n, a)) < 1e-10


def test_tail_C_nonincreasing_in_a():
    rng = np.random.default_rng(3)
    s = rand_spectrum(rng, 8)
    vals = [tail_C_spectrum(s, 2, float(a)) for a in np.linspace(-2.0, 1.0, 25)]
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


def test_rate_curve_iid():
    model = IID(Spectrum.from_probs([0.9, 0.1]))
    lo, hi = entropy_proxies(generate(model, 400), 400, 0.1)
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
    lo, hi = entropy_proxies(generate(model, 400), 400, 0.25)
    # closed forms: lower is the median type-class rate of the weighted
    # binomial half, upper the flat rate of the weighted maximally mixed half
    want_lo = (40.0 * math.log(10.0) + 360.0 * math.log(10.0 / 9.0) + math.log(2.0)) / 400.0
    want_hi = math.log(2.0) * 401.0 / 400.0
    assert abs(lo - want_lo) < 1e-12
    assert abs(hi - want_hi) < 1e-12
