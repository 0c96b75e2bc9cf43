import cmath
import math
import re

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from pdem import specfun
from pdem.errors import DomainError, NonConvergence, PolePivot


# ---------------------------------------------------------------- hermite

def test_hermite_low_orders():
    assert specfun.hermite(0, 7.3) == 1.0
    assert specfun.hermite(1, 1.5) == 3.0
    assert specfun.hermite(2, 1.0) == 2.0  # 4x^2 - 2


@pytest.mark.parametrize("n", range(1, 13))
def test_hermite_recurrence_consistency(n):
    for x in np.linspace(-3.0, 3.0, 13):
        x = float(x)
        lhs = specfun.hermite(n + 1, x)
        rhs = 2.0 * x * specfun.hermite(n, x) - 2.0 * n * specfun.hermite(n - 1, x)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 14])
def test_hermite_against_scipy(n):
    for x in np.linspace(-3.0, 3.0, 25):
        ref = float(sps.eval_hermite(n, x))
        val = specfun.hermite(n, float(x))
        assert abs(val - ref) <= 1e-11 * max(1.0, abs(ref))


def test_hermite_negative_degree():
    with pytest.raises(DomainError):
        specfun.hermite(-1, 0.0)


# ---------------------------------------------------------------- laguerre

def test_laguerre_low_orders():
    assert specfun.laguerre(0, -3.7, 2.0) == 1.0
    assert specfun.laguerre(1, 2.0, 1.0) == 2.0  # alpha + 1 - x
    assert specfun.laguerre(2, 0.0, 0.0) == 1.0  # (alpha+1)_n / n!


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 2.5, 6.0])
def test_laguerre_against_scipy(alpha):
    for n in range(9):
        for x in np.linspace(0.0, 10.0, 11):
            ref = float(sps.eval_genlaguerre(n, alpha, x))
            val = specfun.laguerre(n, alpha, float(x))
            assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref))


@pytest.mark.parametrize("alpha", [-3.7, -7.5])
def test_laguerre_negative_alpha_against_mpmath(alpha):
    # scipy's evaluator gives nan below alpha = -1; mpmath covers the
    # recurrence's total domain away from the negative-integer poles
    mpmath.mp.dps = 30
    for n in range(9):
        for x in np.linspace(0.0, 10.0, 11):
            ref = float(mpmath.laguerre(n, alpha, x))
            val = specfun.laguerre(n, alpha, float(x))
            assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref))


def test_laguerre_alpha_minus_one_identity():
    # L_n^(-1)(x) = -x/n L_{n-1}^(1)(x); neither scipy nor the mpmath
    # hypergeometric form covers alpha = -1 directly
    for n in range(1, 9):
        for x in np.linspace(0.0, 10.0, 11):
            x = float(x)
            ref = -x / n * float(sps.eval_genlaguerre(n - 1, 1.0, x))
            val = specfun.laguerre(n, -1.0, x)
            assert abs(val - ref) <= 1e-10 * max(1.0, abs(ref))


@pytest.mark.parametrize("alpha", [1.5, 6.0, 13.0])
def test_laguerre_kummer_bridge(alpha):
    # L_n^a(x) = (a+1)_n / n! * 1F1(-n; a+1; x)
    for n in range(9):
        pref = math.prod(alpha + 1.0 + i for i in range(n)) / math.factorial(n)
        for x in np.linspace(0.0, 10.0, 21):
            lhs = specfun.laguerre(n, alpha, float(x))
            rhs = pref * specfun.kummer_1f1(-n, alpha + 1.0, float(x)).real
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


# ---------------------------------------------------------------- bessel polynomials

def test_bessel_poly_low_orders():
    assert specfun.bessel_poly(0, -8.0, 0.4) == 1.0
    assert specfun.bessel_poly(1, -6.0, 2.0) == -3.0  # 1 + (2+a)x/2
    assert specfun.bessel_poly(2, 0.0, 1.0) == 7.0


def _bessel_series(n, alpha, x):
    # the terminating 2F0 form: y_n(x; a) = sum_k c_k x^k with
    # c_k = (-n)_k (n+a+1)_k / k! (-1/2)^k
    total, c = 0.0, 1.0
    for k in range(n + 1):
        total += c * x**k
        c *= (-n + k) * (n + alpha + 1.0 + k) / (k + 1.0) * (-0.5)
    return total


@pytest.mark.parametrize("alpha", [-20.3, -17.0, -9.5])
def test_bessel_dual_route_agreement(alpha):
    for n in range(9):
        for x in np.linspace(0.1, 2.0, 20):
            x = float(x)
            rec = specfun.bessel_poly(n, alpha, x)
            ser = _bessel_series(n, alpha, x)
            assert abs(rec - ser) <= 1e-10 * max(abs(rec), abs(ser), 1e-300)


@pytest.mark.parametrize("alpha", [-20.3, -17.0, -9.5])
def test_bessel_kummer_bridge(alpha):
    # y_n(x; a) = (n+a+1)_n (x/2)^n 1F1(-n; -2n-a; 2/x), off the pole set
    for n in range(9):
        pref = math.prod(n + alpha + 1.0 + i for i in range(n))
        for x in np.linspace(0.25, 2.0, 8):
            x = float(x)
            lhs = specfun.bessel_poly(n, alpha, x)
            rhs = pref * (x / 2.0) ** n * specfun.kummer_1f1(-n, -2.0 * n - alpha, 2.0 / x).real
            assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)


def test_bessel_pole_fallback_matches_series():
    # alpha = -4 makes the k=2 recurrence denominator vanish, which degrees
    # n >= 3 pass: the recurrence refuses them, at alpha and within the
    # pole margin of it
    for alpha in (-4.0, -4.0 + 1e-6, -4.0 - 0.9 * specfun._BESSEL_POLE_MARGIN):
        for n in (3, 4, 9):
            with pytest.raises(PolePivot):
                specfun.bessel_poly(n, alpha, np.array([0.3, 1.0, 1.7]))
    # the degrees the recurrence serves before the pole agree with the series
    for n in range(3):
        for x in (0.3, 1.0, 1.7):
            val = specfun.bessel_poly(n, -4.0, x)
            assert val == pytest.approx(_bessel_series(n, -4.0, x), rel=1e-12)
    # just outside the margin the recurrence runs through and still agrees
    alpha = -4.0 + 2.0 * specfun._BESSEL_POLE_MARGIN
    for x in (0.3, 1.0, 1.7):
        val = specfun.bessel_poly(4, alpha, x)
        assert val == pytest.approx(_bessel_series(4, alpha, x), rel=1e-9)


def test_bessel_derivatives_match_finite_differences():
    h = 1e-6
    for n, alpha, x in [(3, -8.0, 0.7), (5, -14.5, 1.3), (2, 1.0, 0.4)]:
        exponent, *rows = specfun.bessel_poly_rows((n,), alpha, x, derivatives=True)
        y, dy, d2y = (float(np.ldexp(v[0], exponent[0])) for v in rows)
        assert y == pytest.approx(specfun.bessel_poly(n, alpha, x), rel=1e-14)
        fd1 = (specfun.bessel_poly(n, alpha, x + h) - specfun.bessel_poly(n, alpha, x - h)) / (2 * h)
        fd2 = (
            specfun.bessel_poly(n, alpha, x + h)
            - 2.0 * y
            + specfun.bessel_poly(n, alpha, x - h)
        ) / h**2
        assert dy == pytest.approx(fd1, rel=1e-7, abs=1e-7)
        assert d2y == pytest.approx(fd2, rel=1e-4, abs=1e-3)


# ---------------------------------------------------------------- kummer 1F1

def test_kummer_trivial_and_terminating():
    assert specfun.kummer_1f1(0.37, 5.5, 0.0) == 1.0
    assert specfun.kummer_1f1(-1, 2.0, 3.0) == pytest.approx(-0.5, abs=1e-15)
    assert specfun.kummer_1f1(1.0, 1.0, 1.0).real == pytest.approx(math.e, rel=1e-15)


def test_kummer_pole_pivot():
    with pytest.raises(PolePivot):
        specfun.kummer_1f1(0.5, 0.0, 1.0)
    with pytest.raises(PolePivot):
        specfun.kummer_1f1(0.5, -3.0, 1.0)
    with pytest.raises(PolePivot):
        specfun.kummer_1f1(0.5, -3.0 + 1e-14, 1.0)


@pytest.mark.parametrize("z", [0.5, 3.0, 12.0, 40.0])
def test_kummer_complex_against_mpmath(z):
    mpmath.mp.dps = 30
    cases = [
        (complex(-3.5, 1.0), complex(1.0, 2.0)),
        (complex(-7.5, 0.5), complex(1.0, 1.0)),
        (complex(0.25, 0.0), complex(1.75, 0.0)),
    ]
    for a, b in cases:
        ref = complex(mpmath.hyp1f1(mpmath.mpc(a), mpmath.mpc(b), z))
        val = specfun.kummer_1f1(a, b, z)
        assert abs(val - ref) <= 1e-11 * max(1.0, abs(ref))


def test_kummer_real_against_scipy():
    for a, b, z in [(0.3, 1.7, 2.0), (2.5, 0.5, 7.0), (-4, 2.25, 3.0)]:
        ref = float(sps.hyp1f1(a, b, z))
        assert specfun.kummer_1f1(a, b, z).real == pytest.approx(ref, rel=1e-12)


def test_kummer_cancellation_guard():
    # huge negative real part with moderate argument: the double-precision sum
    # cancels to noise and must refuse instead of returning it
    with pytest.raises(NonConvergence):
        specfun.kummer_1f1(complex(-63.5, 1.0), complex(1.0, 2.0), 113.77777777777777)


def test_kummer_overflow_raises():
    with pytest.raises(NonConvergence):
        specfun.kummer_1f1(complex(-3.5, 1.0), complex(1.0, 2.0), 80000.0)


def test_kummer_modulus_overflow_raises():
    # the continuum state of a = 3 at E = 1.1 V_inf, 0.066 from the wall: the
    # partial sum keeps finite parts while its modulus leaves the float range
    with pytest.raises(NonConvergence):
        specfun.kummer_1f1(
            complex(-8.5, 2.8017851452243816), complex(1.0, 5.603570290448763), 815.2173913043468
        )


def _kummer_scalar_loop(a_param, b_param, z):
    """1F1 summed term by term in a Python loop under the same rules, the
    reference for kummer_1f1: (sum, largest |partial sum|, terms summed)."""
    a = complex(a_param)
    b = complex(b_param)
    z = float(z)
    terminal = specfun._near_nonpositive_integer(a)
    if terminal is not None:
        total = complex(1.0)
        term = complex(1.0)
        peak = 1.0
        for k in range(-terminal):
            term *= (a + k) / (b + k) * z / (k + 1.0)
            total += term
            peak = max(peak, abs(total))
        return total, peak, -terminal
    total = complex(1.0)
    term = complex(1.0)
    peak = 1.0
    small_count = 0
    for k in range(100_000):
        term *= (a + k) / (b + k) * z / (k + 1.0)
        total += term
        try:
            size = abs(total)
            small = abs(term) < 1e-16 * size
        except OverflowError:
            size = math.inf
        if not math.isfinite(size):
            raise NonConvergence(f"overflow after {k + 1} terms")
        peak = max(peak, size)
        if small:
            small_count += 1
            if small_count >= 8:
                if size < 1e-13 * peak:
                    raise NonConvergence("cancellation")
                return total, peak, k + 1
        else:
            small_count = 0
    raise NonConvergence("term cap")


def _kummer_sweep():
    """Seeded (a, b, z): complex parameters with z log-uniform on
    [1e-3, 8e4], continuum-like parameters, cancelling sums, terminating a,
    and z = inf."""
    rng = np.random.default_rng(20261018)
    cases = []
    for _ in range(160):
        a = complex(rng.uniform(-40.0, 12.0), rng.uniform(-12.0, 12.0))
        b = complex(rng.uniform(0.2, 6.0), rng.uniform(-25.0, 25.0))
        cases.append((a, b, float(10.0 ** rng.uniform(-3.0, math.log10(8e4)))))
    for _ in range(60):  # gamma = (1 - 2 b^2)/2 + i q/2, mu = 1 + i q, as in the continuum
        b2, q = rng.uniform(1.0, 64.0), rng.uniform(0.5, 12.0)
        cases.append((complex(0.5 - b2, 0.5 * q), complex(1.0, q), float(rng.uniform(0.5, 900.0))))
    for _ in range(30):  # large negative a: sums that cancel through many decades
        a = complex(rng.uniform(-70.0, -25.0), rng.uniform(0.0, 3.0))
        cases.append((a, complex(1.0, rng.uniform(0.5, 6.0)), float(rng.uniform(40.0, 130.0))))
    for n in (0, 1, 3, 7, 12, 30):
        cases.append((-n, complex(rng.uniform(0.5, 4.0), rng.uniform(-3.0, 3.0)), 2.5 + n))
    for n in (2, 4, 9):  # within 1e-12 of an integer, a + 1 and a + 2 too
        cases.append((-n + 1e-13, 1.5, -1.0 - n))
    cases += [(complex(-3.5, 1.0), complex(1.0, 2.0), math.inf), (0.5, 1.5, math.inf)]
    return cases


def _kummer_rows_reference(a, b, z, rows):
    """(value, peak, terms) of each row from the scalar loop, with
    d/dz 1F1(a; b; z) = (a/b) 1F1(a+1; b+1; z) for the derivative rows."""
    a, b = complex(a), complex(b)
    results = []
    factor = complex(1.0)
    for j in range(rows):
        value, peak, terms = _kummer_scalar_loop(a + j, b + j, z)
        results.append((factor * value, abs(factor) * peak, terms))
        factor *= (a + j) / (b + j)
    return results


def _refused(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), False
    except NonConvergence:
        return None, True


@pytest.mark.parametrize("chunk_cap", [None, 5])
@pytest.mark.parametrize("derivatives", [False, True])
def test_kummer_matches_the_scalar_loop(derivatives, chunk_cap, monkeypatch):
    # Same refusals, and values within the rounding of the two routes: a
    # random walk of last-bit differences over n + 1 terms, at the scale of the
    # largest partial sum.  Chunks of 5 terms put every run of 8 small terms
    # across a chunk boundary.
    if chunk_cap is not None:
        monkeypatch.setattr(specfun, "_KUMMER_CHUNK_CAP", chunk_cap)
    eps = np.finfo(float).eps
    refusals = 0
    for a, b, z in _kummer_sweep():
        expected, old_refused = _refused(_kummer_rows_reference, a, b, z, 3 if derivatives else 1)
        got, new_refused = _refused(specfun.kummer_1f1, a, b, z, derivatives=derivatives)
        assert new_refused == old_refused, (a, b, z)
        refusals += new_refused
        if new_refused:
            continue
        for value, (ref, peak, terms) in zip(got if derivatives else (got,), expected):
            assert abs(value - ref) <= 16.0 * eps * math.sqrt(terms + 1) * peak, (a, b, z)
    assert 0 < refusals < len(_kummer_sweep())


def _overflow_count(fn, *args):
    """The term count of fn's overflow refusal, or None for any other outcome."""
    try:
        fn(*args)
    except NonConvergence as exc:
        found = re.search(r"overflow(?:ed)? after (\d+) terms", str(exc))
        return int(found.group(1)) if found else None
    return None


@pytest.mark.parametrize("chunk_cap", [None, 5])
def test_kummer_overflow_names_the_term_of_the_scalar_loop(chunk_cap, monkeypatch):
    # a chunk ends at its first overflowing term, and the refusal still
    # counts the terms the loop summed up to and including it
    if chunk_cap is not None:
        monkeypatch.setattr(specfun, "_KUMMER_CHUNK_CAP", chunk_cap)
    overflows = 0
    for a, b, z in _kummer_sweep():
        count = _overflow_count(_kummer_scalar_loop, a, b, z)
        assert _overflow_count(specfun.kummer_1f1, a, b, z) == count, (a, b, z)
        overflows += count is not None
    assert overflows >= 10


def test_kummer_overflow_stops_its_chunk(monkeypatch):
    # the first chunk would be 2048 terms; the sum overflows at term 286
    widths = []
    chunks = specfun._kummer_chunks

    def spy(*args):
        for term_size, sums in chunks(*args):
            widths.append(sums.shape[1])
            yield term_size, sums

    monkeypatch.setattr(specfun, "_kummer_chunks", spy)
    with pytest.raises(NonConvergence, match="overflowed after 286 terms"):
        specfun.kummer_1f1(complex(-15.5, 1.5), complex(1.0, 3.0), 1600.0, derivatives=True)
    assert widths and max(widths) <= 286


def test_kummer_at_the_float_ceiling():
    # the largest part's exponent reaches 1024 here, where 2**1024 alone
    # overflows, so the exponent goes on part by part
    assert specfun.kummer_1f1_scaled(1.0, 1.0, 709.5)[0] == 1024
    assert specfun.kummer_1f1(1.0, 1.0, 709.5) == 1.3549863193146159e+308
    assert specfun.kummer_1f1(1.0, 1.0, 709.0) == 8.218407461554892e+307


@pytest.mark.parametrize("derivatives", [False, True])
def test_kummer_scaled_mantissas(derivatives):
    # the largest part lands in [0.5, 1), and the mantissas and the values
    # scale into each other exactly, in both directions
    for a, b, z in _kummer_sweep():
        scaled, refused = _refused(specfun.kummer_1f1_scaled, a, b, z, derivatives=derivatives)
        got, _ = _refused(specfun.kummer_1f1, a, b, z, derivatives=derivatives)
        assert refused == (got is None), (a, b, z)
        if refused:
            continue
        exponent, mantissas = scaled
        pairs = list(zip(mantissas, got) if derivatives else [(mantissas, got)])
        assert 0.5 <= max(max(abs(m.real), abs(m.imag)) for m, _ in pairs) < 1.0, (a, b, z)
        for m, value in pairs:
            for m_part, part in ((m.real, value.real), (m.imag, value.imag)):
                assert math.ldexp(m_part, exponent) == part, (a, b, z)
                assert math.ldexp(part, -exponent) == m_part, (a, b, z)


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
def test_kummer_non_finite_argument_raises(z):
    with pytest.raises(NonConvergence):
        specfun.kummer_1f1(complex(-3.5, 1.0), complex(1.0, 2.0), z)
    with pytest.raises(NonConvergence):
        specfun.kummer_1f1(0.25, 1.75, z, derivatives=True)


def test_kummer_term_cap_raises(monkeypatch):
    monkeypatch.setattr(specfun, "_KUMMER_MAX_TERMS", 20)
    with pytest.raises(NonConvergence, match="20-term cap"):
        specfun.kummer_1f1(0.25, 1.75, 50.0)
    with pytest.raises(NonConvergence, match="20-term cap"):
        specfun.kummer_1f1(-30, 1.75, 50.0)


def test_kummer_terminating_overflow_raises():
    # the sum is not finite, which the scalar loop returns as it is
    assert not cmath.isfinite(_kummer_scalar_loop(-400, 0.5, 1e6)[0])
    with pytest.raises(NonConvergence):
        specfun.kummer_1f1(-400, 0.5, 1e6)


def test_kummer_derivative_rows_stay_at_the_scale_of_f():
    # a continuum point 0.62 off the wall: 1F1(a+2; b+2; z) leaves the float
    # range, so the scalar loop refuses it, but (a)_2/(b)_2 1F1(a+2; b+2; z),
    # the second derivative, is about 5e307 and its row stays finite
    a, b, z = complex(-42.00722036172869, 54.90663593733891), complex(1, 109.81327187467782), 905.8364719203213
    with pytest.raises(NonConvergence):
        _kummer_scalar_loop(a + 2, b + 2, z)
    mpmath.mp.dps = 30
    ma, mb = mpmath.mpc(a), mpmath.mpc(b)
    for j, value in enumerate(specfun.kummer_1f1(a, b, z, derivatives=True)):
        ref = complex(mpmath.rf(ma, j) / mpmath.rf(mb, j) * mpmath.hyp1f1(ma + j, mb + j, z))
        assert abs(value - ref) <= 1e-12 * abs(ref)


def test_kummer_derivatives_at_zero():
    a, b = complex(-3.5, 1.0), complex(1.0, 2.0)
    f, df, d2f = specfun.kummer_1f1(a, b, 0.0, derivatives=True)
    assert (f, df, d2f) == (1.0, a / b, a * (a + 1.0) / (b * (b + 1.0)))


@pytest.mark.parametrize("z", [0.5, 3.0, 12.0, 40.0])
def test_kummer_derivatives_against_mpmath(z):
    mpmath.mp.dps = 30
    cases = [
        (complex(-3.5, 1.0), complex(1.0, 2.0)),
        (complex(-7.5, 0.5), complex(1.0, 1.0)),
        (complex(0.25, 0.0), complex(1.75, 0.0)),
    ]
    for a, b in cases:
        ma, mb = mpmath.mpc(a), mpmath.mpc(b)
        refs = (
            mpmath.hyp1f1(ma, mb, z),
            ma / mb * mpmath.hyp1f1(ma + 1, mb + 1, z),
            ma * (ma + 1) / (mb * (mb + 1)) * mpmath.hyp1f1(ma + 2, mb + 2, z),
        )
        for value, ref in zip(specfun.kummer_1f1(a, b, z, derivatives=True), map(complex, refs)):
            assert abs(value - ref) <= 1e-11 * max(1.0, abs(ref))


# ---------------------------------------------------------------- log gamma

def test_log_gamma_values():
    assert specfun.log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert specfun.log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
    assert specfun.log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)


def test_log_gamma_functional_equation():
    for x in np.arange(0.5, 51.0, 1.0):
        x = float(x)
        gap = specfun.log_gamma(x + 1.0) - specfun.log_gamma(x) - math.log(x)
        assert abs(gap) <= 1e-12


def test_log_gamma_against_stdlib():
    for x in (0.1, 0.5, 1.0, 2.5, 17.0, 101.5, 1234.5):
        assert specfun.log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-13)


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        specfun.log_gamma(0.0)
    with pytest.raises(DomainError):
        specfun.log_gamma(-2.5)

