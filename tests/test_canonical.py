import math

import mpmath
import numpy as np
import pytest

from pdem import canonical, oracle
from pdem.canonical import CanonicalParams

UNIT = CanonicalParams()


def test_energies():
    assert canonical.canonical_energy(UNIT, 0) == 0.5
    assert canonical.canonical_energy(UNIT, 3) == 3.5
    assert canonical.canonical_energy(CanonicalParams(omega=3.0, hbar=2.0), 1) == 9.0


@pytest.mark.parametrize("name", ["m0", "omega", "hbar"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_params_reject_non_finite(name, value):
    with pytest.raises(ValueError):
        CanonicalParams(**{name: value})


def test_wavefunction_values_at_origin():
    assert canonical.canonical_wavefunction(UNIT, 0, 0.0) == pytest.approx(
        math.pi ** -0.25, rel=1e-14
    )
    assert canonical.canonical_wavefunction(UNIT, 1, 0.0) == 0.0
    assert canonical.canonical_wavefunction(UNIT, 2, 0.0) == pytest.approx(
        -2.0 / math.sqrt(8.0) * math.pi ** -0.25, rel=1e-13
    )


def test_high_level_against_mpmath():
    # H_400(1) leaves the float range; the rescaled recurrence keeps its exponent apart
    n, x = 400, 1.0
    with mpmath.workdps(50):
        ref = float(
            mpmath.hermite(n, x) * mpmath.exp(-x * x / 2)
            / mpmath.sqrt(2**n * mpmath.factorial(n)) / mpmath.pi ** mpmath.mpf(0.25)
        )
    val = canonical.canonical_wavefunction(UNIT, n, x)
    assert math.isfinite(val)
    assert abs(val - ref) <= 1e-10 * abs(ref)


def test_normalization_by_quadrature():
    L = 10.0 / UNIT.lambda0
    for n in range(4):
        norm = oracle.integrate(
            lambda x: canonical.canonical_wavefunction(UNIT, n, x) ** 2, -L, L, 1e-12
        )
        assert abs(norm - 1.0) <= 1e-10


def test_orthonormality_by_quadrature():
    L = 10.0 / UNIT.lambda0
    for m in range(9):
        for n in range(m, 9):
            val = oracle.integrate(
                lambda x: canonical.canonical_wavefunction(UNIT, m, x)
                * canonical.canonical_wavefunction(UNIT, n, x),
                -L,
                L,
                1e-12,
            )
            assert abs(val - (1.0 if m == n else 0.0)) <= 1e-10


def test_lower_annihilates_ground_state():
    xs = np.linspace(-3.0, 3.0, 13)
    psi = canonical.canonical_wavefunction(UNIT, 0, xs)
    dpsi = canonical.canonical_wavefunction_derivative(UNIT, 0, xs)
    out = canonical.apply_lowering(UNIT, xs, psi, dpsi)
    assert np.all(np.abs(out) <= 1e-12 * np.abs(psi))


def test_raise_maps_ground_to_first():
    xs = np.linspace(-3.0, 3.0, 25)
    psi = canonical.canonical_wavefunction(UNIT, 0, xs)
    dpsi = canonical.canonical_wavefunction_derivative(UNIT, 0, xs)
    raised = canonical.apply_raising(UNIT, xs, psi, dpsi)
    assert raised == pytest.approx(
        canonical.canonical_wavefunction(UNIT, 1, xs), rel=1e-8, abs=1e-10
    )


def test_lower_on_constant():
    out = canonical.apply_lowering(UNIT, 1.0, 1.0, 0.0)
    assert type(out) is float
    assert out == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)


def _gaussian_triple(coeffs, x):
    p = np.polynomial.Polynomial(coeffs)
    dp = p.deriv()
    d2p = dp.deriv()
    gauss = np.exp(-0.5 * x * x)
    g = p(x) * gauss
    dg = (dp(x) - x * p(x)) * gauss
    d2g = (d2p(x) - 2.0 * x * dp(x) + (x * x - 1.0) * p(x)) * gauss
    return g, dg, d2g


@pytest.mark.parametrize(
    "coeffs",
    [[1.0], [0.0, 1.0], [-1.0, 0.0, 1.0], [0.0, -0.5, 0.0, 1.0], [0.3, 0.0, -3.0, 0.0, 1.0]],
)
def test_commutator_is_identity(coeffs):
    lam0 = UNIT.lambda0
    rt = math.sqrt(2.0) * lam0
    xs = np.linspace(-3.0, 3.0, 25)
    g, dg, d2g = _gaussian_triple(coeffs, xs)
    raised = canonical.apply_raising(UNIT, xs, g, dg)
    d_raised = (lam0**2 * g + lam0**2 * xs * dg - d2g) / rt
    lowered = canonical.apply_lowering(UNIT, xs, g, dg)
    d_lowered = (lam0**2 * g + lam0**2 * xs * dg + d2g) / rt
    comm = canonical.apply_lowering(UNIT, xs, raised, d_raised) - canonical.apply_raising(
        UNIT, xs, lowered, d_lowered
    )
    assert np.all(np.abs(comm - g) <= 1e-8 * np.maximum(1.0, np.abs(g)))


@pytest.mark.parametrize("n", range(6))
def test_hamiltonian_factorization(n):
    # hbar w (raise lower + 1/2) psi_n = E_n psi_n, second derivative from the ODE
    lam0 = UNIT.lambda0
    rt = math.sqrt(2.0) * lam0
    e_n = canonical.canonical_energy(UNIT, n)

    xs = np.linspace(-3.0, 3.0, 25)
    psi = canonical.canonical_wavefunction(UNIT, n, xs)
    dpsi = canonical.canonical_wavefunction_derivative(UNIT, n, xs)
    d2psi = (lam0**4 * xs * xs - lam0**2 * (2.0 * n + 1.0)) * psi

    lowered = canonical.apply_lowering(UNIT, xs, psi, dpsi)
    d_lowered = (lam0**2 * psi + lam0**2 * xs * dpsi + d2psi) / rt
    h_psi = canonical.apply_raising(UNIT, xs, lowered, d_lowered) + 0.5 * psi
    assert np.all(np.abs(h_psi - e_n * psi) <= 1e-8 * np.maximum(np.abs(e_n * psi), 1e-12))
