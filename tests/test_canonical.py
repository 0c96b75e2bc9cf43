import math

import mpmath
import numpy as np
import pytest

from pdem import canonical, oracle
from pdem.canonical import CanonicalParams, LadderDirection
from pdem.types import FunctionPair

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
    pair = canonical.canonical_state_pair(UNIT, 0)
    for x in np.linspace(-3.0, 3.0, 13):
        x = float(x)
        out = canonical.apply_ladder(UNIT, LadderDirection.LOWER, pair, x)
        assert abs(out) <= 1e-12 * abs(canonical.canonical_wavefunction(UNIT, 0, x))


def test_raise_maps_ground_to_first():
    pair = canonical.canonical_state_pair(UNIT, 0)
    for x in np.linspace(-3.0, 3.0, 25):
        x = float(x)
        raised = canonical.apply_ladder(UNIT, LadderDirection.RAISE, pair, x)
        assert raised == pytest.approx(
            canonical.canonical_wavefunction(UNIT, 1, x), rel=1e-8, abs=1e-10
        )


def test_lower_on_constant():
    pair = FunctionPair(value=lambda x: 1.0, derivative=lambda x: 0.0)
    out = canonical.apply_ladder(UNIT, LadderDirection.LOWER, pair, 1.0)
    assert out == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)


def _gaussian_triple(coeffs):
    p = np.polynomial.Polynomial(coeffs)
    dp = p.deriv()
    d2p = dp.deriv()
    g = lambda x: float(p(x)) * math.exp(-0.5 * x * x)
    dg = lambda x: (float(dp(x)) - x * float(p(x))) * math.exp(-0.5 * x * x)
    d2g = lambda x: (
        float(d2p(x)) - 2.0 * x * float(dp(x)) + (x * x - 1.0) * float(p(x))
    ) * math.exp(-0.5 * x * x)
    return g, dg, d2g


@pytest.mark.parametrize(
    "coeffs",
    [[1.0], [0.0, 1.0], [-1.0, 0.0, 1.0], [0.0, -0.5, 0.0, 1.0], [0.3, 0.0, -3.0, 0.0, 1.0]],
)
def test_commutator_is_identity(coeffs):
    lam0 = UNIT.lambda0
    rt = math.sqrt(2.0) * lam0
    g, dg, d2g = _gaussian_triple(coeffs)
    raised = FunctionPair(
        value=lambda x: canonical.apply_ladder(UNIT, LadderDirection.RAISE, FunctionPair(g, dg), x),
        derivative=lambda x: (lam0**2 * g(x) + lam0**2 * x * dg(x) - d2g(x)) / rt,
    )
    lowered = FunctionPair(
        value=lambda x: canonical.apply_ladder(UNIT, LadderDirection.LOWER, FunctionPair(g, dg), x),
        derivative=lambda x: (lam0**2 * g(x) + lam0**2 * x * dg(x) + d2g(x)) / rt,
    )
    for x in np.linspace(-3.0, 3.0, 25):
        x = float(x)
        comm = canonical.apply_ladder(
            UNIT, LadderDirection.LOWER, raised, x
        ) - canonical.apply_ladder(UNIT, LadderDirection.RAISE, lowered, x)
        assert abs(comm - g(x)) <= 1e-8 * max(1.0, abs(g(x)))


@pytest.mark.parametrize("n", range(6))
def test_hamiltonian_factorization(n):
    # hbar w (raise lower + 1/2) psi_n = E_n psi_n, second derivative from the ODE
    lam0 = UNIT.lambda0
    rt = math.sqrt(2.0) * lam0
    e_n = canonical.canonical_energy(UNIT, n)

    psi = lambda x: canonical.canonical_wavefunction(UNIT, n, x)
    dpsi = lambda x: canonical.canonical_wavefunction_derivative(UNIT, n, x)
    d2psi = lambda x: (lam0**4 * x * x - lam0**2 * (2.0 * n + 1.0)) * psi(x)

    lowered = FunctionPair(
        value=lambda x: canonical.apply_ladder(UNIT, LadderDirection.LOWER, FunctionPair(psi, dpsi), x),
        derivative=lambda x: (lam0**2 * psi(x) + lam0**2 * x * dpsi(x) + d2psi(x)) / rt,
    )
    for x in np.linspace(-3.0, 3.0, 25):
        x = float(x)
        h_psi = canonical.apply_ladder(UNIT, LadderDirection.RAISE, lowered, x) + 0.5 * psi(x)
        assert abs(h_psi - e_n * psi(x)) <= 1e-8 * max(abs(e_n * psi(x)), 1e-12)
