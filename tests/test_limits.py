import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from pdem import canonical, limits, model, specfun
from pdem.errors import DomainError, LevelOutOfRange, NonConvergence
from pdem.model import ModelParams


# ---------------------------------------------------------------- scaled bessel

def test_scaled_bessel_degree_zero():
    for nu in (10.0, 1e4, 1e8):
        assert limits.scaled_bessel(0, 0.37, nu) == 1.0


def test_scaled_bessel_degree_one_expansion():
    # closed form of the scaled y_1: 2x - 2 sqrt(2/nu) - 4x/nu
    for nu in (1e4, 1e6):
        for x in (-1.0, 0.2, 1.0):
            expected = 2.0 * x - 2.0 * math.sqrt(2.0 / nu) - 4.0 * x / nu
            assert limits.scaled_bessel(1, x, nu) == pytest.approx(expected, rel=1e-10)
    assert limits.scaled_bessel(1, 1.0, 1e6) == pytest.approx(1.99716, abs=1e-5)


def test_scaled_bessel_matches_direct_product():
    # same quantity through the unscaled polynomial path
    for n, x, nu in [(2, 0.5, 1e4), (3, -1.0, 2e4), (5, 1.5, 1e5)]:
        exponent, y, _, _ = specfun.bessel_poly_rows(
            (n,), -nu, 2.0 / nu + (2.0 / nu) * math.sqrt(2.0 / nu) * x
        )
        direct = (-1.0) ** n * (2.0 * nu) ** (n / 2.0) * float(np.ldexp(y[0], exponent[0]))
        assert limits.scaled_bessel(n, x, nu) == pytest.approx(direct, rel=1e-9)


@pytest.mark.parametrize("nu", [1e154, 1.3e154, 1e200])
def test_scaled_bessel_refuses_coefficients_past_the_float_range(nu):
    # the step denominator 2(k+alpha+1)(2k+alpha) overflows from |alpha| of
    # about 9.5e153, which made the row 0, and from 1.34e154 NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            limits.scaled_bessel(2, 0.0, nu)
        with pytest.raises(DomainError, match="float range"):
            specfun.bessel_poly_rows((2,), -nu, 2.0 / nu)


@pytest.mark.parametrize("nu", [1.0000000000000002e14, 1e16, 1e40])
def test_scaled_bessel_refuses_nu_past_its_precision(nu):
    # past 1e14 the recurrence's rounding, about eps sqrt(2 nu), outgrows the
    # limit's distance to H_n, sqrt(2/nu): n = 6, x = -1.1, nu = 1e40 gave
    # 1.7e17 for H_6(-1.1) = 161.8
    with pytest.raises(DomainError, match="1e14"):
        limits.scaled_bessel(6, -1.1, nu)
    assert abs(limits.scaled_bessel(6, -1.1, 1e14) - specfun.hermite(6, -1.1)) <= 1e-3


def test_scaled_bessel_domain():
    with pytest.raises(DomainError):
        limits.scaled_bessel(3, 0.0, 7.0)  # needs nu > 2n+1
    with pytest.raises(DomainError):
        limits.scaled_bessel(2, 0.0, math.inf)
    with pytest.raises(DomainError):
        limits.scaled_bessel(-1, 0.0, 100.0)
    with pytest.raises(DomainError, match="cap"):
        limits.scaled_bessel(model.LEVEL_CAP + 1, 0.0, 1e13)


def test_scaled_bessel_array_matches_points():
    xs = np.linspace(-2.0, 2.0, 17)
    for n, nu in [(0, 1e4), (1, 1e4), (4, 4e4), (6, 2e8), (40, 1e6)]:
        values = limits.scaled_bessel(n, xs, nu)
        assert isinstance(values, np.ndarray) and values.shape == xs.shape
        points = [limits.scaled_bessel(n, float(x), nu) for x in xs]
        assert all(type(v) is float for v in points)
        assert values.tolist() == points


def test_degree_two_approaches_hermite_at_origin():
    # H_2(0) = -2.  At the symmetry point the O(nu^-1/2) parity-breaking term
    # vanishes for even degrees, so the error there falls like 1/nu: the
    # ratio per quadrupling of nu is 1/4, not the generic 1/2 (which the
    # grid-supremum rate tests below do measure).
    errs = [abs(limits.scaled_bessel(2, 0.0, nu) - (-2.0)) for nu in (1e4, 4e4, 1.6e5)]
    assert errs[0] > errs[1] > errs[2]
    for e1, e2 in zip(errs, errs[1:]):
        assert 0.2 <= e2 / e1 <= 0.3


@pytest.mark.parametrize("n", range(1, 7))
def test_convergence_rate_window(n):
    grid = np.linspace(-2.0, 2.0, 17)

    def err(nu):
        return max(
            abs(limits.scaled_bessel(n, float(x), nu) - specfun.hermite(n, float(x)))
            for x in grid
        )

    for nu in (1e4, 4e4, 1.6e5):
        e1, e4 = err(nu), err(4.0 * nu)
        if e1 > 1e-8:
            assert 0.35 <= e4 / e1 <= 0.65


def test_limit_reached_at_large_nu():
    # sup_(n<=6, x in [-2,2]) of the floored relative error is within 0.05
    # once nu reaches 2e8 (at nu = 1e6 it is still 0.62, dominated by the
    # parity-breaking shift at the zeros of the odd polynomials)
    grid = np.linspace(-2.0, 2.0, 17)
    sup = max(
        abs(limits.scaled_bessel(n, float(x), 2e8) - specfun.hermite(n, float(x)))
        / max(1.0, abs(specfun.hermite(n, float(x))))
        for n in range(7)
        for x in grid
    )
    assert sup <= 0.05


def test_induction_step_identity():
    # combining H_n and H_{n-1} with the limiting recurrence coefficients
    # 2x and -2n reproduces H_{n+1} exactly
    for n in range(2, 7):
        for x in np.linspace(-2.0, 2.0, 17):
            x = float(x)
            combined = 2.0 * x * specfun.hermite(n, x) - 2.0 * n * specfun.hermite(n - 1, x)
            assert combined == pytest.approx(specfun.hermite(n + 1, x), rel=1e-13, abs=1e-9)


def test_recurrence_coefficients_tend_to_hermite_pair():
    # -sqrt(2 nu) A_n -> 2x and 2 nu B_n -> -2n; the finite-nu correction is
    # O(n sqrt(2/nu)), about 2.5e-4 at n = 4, nu = 1e10
    nu = 1e10
    for n in (1, 2, 4):
        for x in (-1.0, 0.3, 2.0):
            alpha = -nu
            z = 2.0 / nu + (2.0 / nu) * math.sqrt(2.0 / nu) * x
            denom = 2.0 * (n + alpha + 1.0) * (2.0 * n + alpha)
            a_n = (2.0 * n + alpha + 1.0) * (
                2.0 * alpha + (2.0 * n + alpha) * (2.0 * n + alpha + 2.0) * z
            ) / denom
            b_n = 2.0 * n * (2.0 * n + alpha + 2.0) / denom
            assert -math.sqrt(2.0 * nu) * a_n == pytest.approx(2.0 * x, abs=1e-3)
            assert 2.0 * nu * b_n == pytest.approx(-2.0 * n, abs=2e-5)


# ---------------------------------------------------------------- energy gap

def test_energy_gap_examples():
    assert limits.energy_gap(ModelParams(a=3.0), 0) == 0.0
    assert limits.energy_gap(ModelParams(a=2.0), 3) == 1.5
    assert limits.energy_gap(ModelParams(a=10.0), 1) == 0.01


def test_energy_gap_is_exact_identity():
    eps = np.finfo(float).eps
    for a in (2.0, 3.0, 7.5):
        p = ModelParams(a=a)
        for n in range(model.max_level(p) + 1):
            canonical = p.hbar * p.omega * (n + 0.5)
            diff = canonical - model.energy(p, n).energy
            gap = limits.energy_gap(p, n)
            assert abs(diff - gap) <= 4.0 * eps * max(abs(diff), abs(gap), 1.0)


def test_energy_gap_range_check():
    with pytest.raises(LevelOutOfRange):
        limits.energy_gap(ModelParams(a=2.0), 4)


# ---------------------------------------------------------------- wavefunction limit

def test_wavefunction_distance_decreases():
    for n in (0, 1, 2):
        ds = [limits.wavefunction_distance(ModelParams(a=a), n) for a in (3.0, 5.0, 10.0, 20.0)]
        assert all(d2 < d1 for d1, d2 in zip(ds, ds[1:]))
        assert ds[-1] <= ds[0] / 5.0


@pytest.mark.parametrize("n", [0, 1, 2])
def test_wavefunction_distance_against_quadpack(n):
    # one quadrature over both signs against scipy's QUADPACK, one integral
    # per sign: measured at most 5.9e-15 apart
    for a in (3.0, 5.0, 10.0, 20.0):
        p = ModelParams(a=a)
        ref = canonical.CanonicalParams(m0=p.m0, omega=p.omega, hbar=p.hbar)
        lo, hi = -a + 1e-3 * a, a + 12.0 / p.lambda0
        squares = [
            scipy.integrate.quad(
                lambda x: (model.wavefunction(p, n, x)
                           - sign * canonical.canonical_wavefunction(ref, n, x)) ** 2,
                lo, hi, epsabs=1e-13, epsrel=0.0, limit=200,
            )[0]
            for sign in (1.0, -1.0)
        ]
        assert abs(limits.wavefunction_distance(p, n) - math.sqrt(min(squares))) <= 1e-14


def test_wavefunction_distance_range_check():
    with pytest.raises(LevelOutOfRange):
        limits.wavefunction_distance(ModelParams(a=1.0), 1)


# ---------------------------------------------------------------- continuum sweep

def test_continuum_magnitude_refuses_unordered_a():
    for a_values in ((4.0, 2.0), (2.0, 2.0)):
        with pytest.raises(ValueError):
            limits.continuum_magnitude([ModelParams(a=a) for a in a_values], 2.0, 1.0)


def test_continuum_magnitude_decreases():
    v2, v4 = limits.continuum_magnitude(
        [ModelParams(a=2.0), ModelParams(a=4.0)], 2.0, 1.0
    )
    # frozen against a 60-digit evaluation of the same closed form
    assert v2 == pytest.approx(0.4114357152, abs=1e-7)
    assert v4 == pytest.approx(0.2254856023, abs=1e-6)
    assert v4 < v2


def test_continuum_magnitude_large_a_exceeds_double_precision():
    # at a = 8 the Kummer sum cancels through ~15 decades; the evaluator
    # refuses rather than return noise (a 60-digit evaluation gives 0.1182)
    with pytest.raises(NonConvergence):
        limits.continuum_magnitude([ModelParams(a=8.0)], 2.0, 1.0)


def test_continuum_magnitude_keeps_q_bit_for_bit(monkeypatch):
    # at a = 1000 the energy of q = 2 gives back q = 1.9998779 through
    # continuum_state; the sweep evaluates the state of q itself, at that
    # energy, and at a = 1e5 it is not refused as below the well depth
    states = []

    def spy(state, params, x):
        states.append(state)
        return 0.0

    monkeypatch.setattr(model, "continuum_wavefunction", spy)
    family = [ModelParams(a=1000.0), ModelParams(a=1e5)]
    limits.continuum_magnitude(family, 2.0, 1.0)
    assert model.continuum_state(family[0], states[0].energy).q != 2.0
    for p, state in zip(family, states):
        assert (state.q, state.mu, state.gamma.imag) == (2.0, 1 + 2j, 1.0)
        assert state == model.wavenumber_state(p, 2.0)
