"""Polynomial families and confluent hypergeometric series used by the well model.

Everything here is scalar and pure: Hermite, generalized Laguerre and Bessel
polynomials via their three-term recurrences, the Kummer series 1F1, a
Lanczos log-gamma, and the underflow-floored exponential that turns the
log-space prefactors of the closed forms into values.  Bessel polynomials get
a direct terminating-series fallback because their recurrence coefficients
have poles in the alpha parameter.
"""

import math

from .errors import DomainError, NonConvergence, PolePivot

# The y_n recurrence is abandoned for the terminating series when any pole
# factor k+alpha+1 or 2k+alpha comes within this margin of zero.  The margin
# must be generous: the rounding of alpha alone puts a relative error of
# eps/|factor| on a near-zero factor, and two consecutive near-pole steps
# square that amplification (measured 1.6e-3 of lost accuracy at distance
# 1e-6).  At 1e-3 the recurrence still carries ~1e-10 relative accuracy and
# the series is exact, so the two routes agree everywhere.
_BESSEL_POLE_MARGIN = 1e-3

_KUMMER_MAX_TERMS = 100_000
_KUMMER_REL_EPS = 1e-16
_KUMMER_CONSECUTIVE = 8
_INTEGER_EPS = 1e-12

# Lanczos coefficients, g = 7, 9 terms (double precision).
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LOG_SQRT_2PI = 0.9189385332046727417803297364

# Values whose log-magnitude falls below this are flushed to exactly 0 to keep
# denormal noise out of quadrature.
_LOG_FLOOR = -700.0


def exp_scaled(log_prefactor, factor):
    """factor * exp(log_prefactor) with the underflow floor applied."""
    if factor == 0.0:
        return 0.0
    m = log_prefactor + math.log(abs(factor))
    if m < _LOG_FLOOR:
        return 0.0
    return math.copysign(math.exp(m), factor)


def hermite(n, x):
    """Physicists' Hermite polynomial H_n(x).

    Three-term recurrence H_{n+1} = 2 x H_n - 2 n H_{n-1}, seeded with
    H_0 = 1 and H_1 = 2x.
    """
    if n < 0:
        raise DomainError(f"hermite degree must be non-negative, got {n}")
    if n == 0:
        return 1.0
    hm1 = 1.0
    h = 2.0 * x
    for k in range(1, n):
        hm1, h = h, 2.0 * x * h - 2.0 * k * hm1
    return h


def laguerre(n, alpha, x):
    """Generalized Laguerre polynomial L_n^alpha(x).

    Uses (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}, which is
    total in alpha (no parameter poles), seeded with L_0 = 1, L_1 = 1+alpha-x.
    """
    if n < 0:
        raise DomainError(f"laguerre degree must be non-negative, got {n}")
    if n == 0:
        return 1.0
    lm1 = 1.0
    l = 1.0 + alpha - x
    for k in range(1, n):
        lm1, l = l, ((2.0 * k + 1.0 + alpha - x) * l - (k + alpha) * lm1) / (k + 1.0)
    return l


def _bessel_recurrence_safe(n, alpha):
    """True if no recurrence denominator up to degree n is near a pole."""
    for k in range(1, n):
        if abs(k + alpha + 1.0) < _BESSEL_POLE_MARGIN:
            return False
        if abs(2.0 * k + alpha) < _BESSEL_POLE_MARGIN:
            return False
    return True


def _bessel_series_coeffs(n, alpha):
    """Coefficients c_k of y_n(x; alpha) = sum_k c_k x^k from the terminating
    2F0 form: c_k = (-n)_k (n+alpha+1)_k / k! * (-1/2)^k."""
    coeffs = []
    c = 1.0
    for k in range(n + 1):
        coeffs.append(c)
        c *= (-n + k) * (n + alpha + 1.0 + k) / (k + 1.0) * (-0.5)
    return coeffs


def bessel_poly(n, alpha, x):
    """Bessel polynomial y_n(x; alpha) from the Askey scheme.

    Default path is the three-term recurrence
        y_{n+1} = A_n y_n + B_n y_{n-1},
        A_n = (2n+a+1)[2a + (2n+a)(2n+a+2)x] / [2(n+a+1)(2n+a)],
        B_n = n(2n+a+2) / [(n+a+1)(2n+a)],
    seeded with y_0 = 1 and y_1 = 1 + (2+a)x/2.  When a recurrence
    denominator (k+a+1)(2k+a) approaches zero the terminating series is
    evaluated directly instead, which makes the operation total (see
    _BESSEL_POLE_MARGIN for where the switch happens and why).
    """
    y, _, _ = bessel_poly_with_derivatives(n, alpha, x)
    return y


def bessel_poly_with_derivatives(n, alpha, x):
    """y_n(x; alpha) together with its first two x-derivatives.

    The recurrence is differentiated in step: A_n is linear in x with slope
    q_n = (2n+a+1)(2n+a+2) / [2(n+a+1)], so
        y'_{n+1}  = q_n y_n + A_n y'_n + B_n y'_{n-1},
        y''_{n+1} = 2 q_n y'_n + A_n y''_n + B_n y''_{n-1}.
    Falls back to termwise differentiation of the series on parameter poles.
    """
    if n < 0:
        raise DomainError(f"bessel_poly degree must be non-negative, got {n}")
    if n == 0:
        return 1.0, 0.0, 0.0
    if not _bessel_recurrence_safe(n, alpha):
        coeffs = _bessel_series_coeffs(n, alpha)
        y = dy = d2y = 0.0
        for k in range(n, -1, -1):  # Horner, highest degree first
            d2y = d2y * x + 2.0 * dy
            dy = dy * x + y
            y = y * x + coeffs[k]
        return y, dy, d2y
    ym1, dym1, d2ym1 = 1.0, 0.0, 0.0
    y = 1.0 + 0.5 * (2.0 + alpha) * x
    dy = 0.5 * (2.0 + alpha)
    d2y = 0.0
    for k in range(1, n):
        denom = 2.0 * (k + alpha + 1.0) * (2.0 * k + alpha)
        ak = (2.0 * k + alpha + 1.0) * (
            2.0 * alpha + (2.0 * k + alpha) * (2.0 * k + alpha + 2.0) * x
        ) / denom
        qk = (2.0 * k + alpha + 1.0) * (2.0 * k + alpha + 2.0) / (2.0 * (k + alpha + 1.0))
        bk = 2.0 * k * (2.0 * k + alpha + 2.0) / denom
        ynew = ak * y + bk * ym1
        dynew = qk * y + ak * dy + bk * dym1
        d2ynew = 2.0 * qk * dy + ak * d2y + bk * d2ym1
        ym1, dym1, d2ym1 = y, dy, d2y
        y, dy, d2y = ynew, dynew, d2ynew
    return y, dy, d2y


def _near_nonpositive_integer(v):
    """Integer m <= 0 with |v - m| <= 1e-12, or None."""
    z = complex(v)
    if abs(z.imag) > _INTEGER_EPS:
        return None
    m = round(z.real)
    if m <= 0 and abs(z.real - m) <= _INTEGER_EPS:
        return m
    return None


def kummer_1f1(a_param, b_param, z):
    """Confluent hypergeometric series 1F1(a; b; z) for real argument z.

    Sums sum_k (a)_k / (b)_k * z^k / k! until the term stays below
    1e-16 of the partial sum for 8 consecutive terms.  Parameters may be
    complex; the result is complex.  If a is a non-positive integer (within
    1e-12) the series terminates exactly at k = -a.

    Raises PolePivot when b is a non-positive integer, and NonConvergence if
    the 1e5-term cap is reached (or the terms overflow) before the stopping
    criterion is met, or if the converged sum is smaller than 1e-13 of the
    largest partial sum: such a result would be pure cancellation noise and
    refusing beats returning it.
    """
    a = complex(a_param)
    b = complex(b_param)
    if _near_nonpositive_integer(b) is not None:
        raise PolePivot(f"1F1 lower parameter {b_param!r} is a non-positive integer")
    z = float(z)
    if z == 0.0:
        return complex(1.0)

    terminal = _near_nonpositive_integer(a)
    if terminal is not None:
        total = complex(1.0)
        term = complex(1.0)
        for k in range(-terminal):
            term *= (a + k) / (b + k) * z / (k + 1.0)
            total += term
        return total

    total = complex(1.0)
    term = complex(1.0)
    peak = 1.0
    small_count = 0
    for k in range(_KUMMER_MAX_TERMS):
        term *= (a + k) / (b + k) * z / (k + 1.0)
        total += term
        try:
            size = abs(total)
            small = abs(term) < _KUMMER_REL_EPS * size
        except OverflowError:  # finite parts whose modulus leaves the float range
            size = math.inf
        if not math.isfinite(size):
            raise NonConvergence(
                f"1F1({a_param!r}; {b_param!r}; {z!r}) overflowed after {k + 1} terms"
            )
        peak = max(peak, size)
        if small:
            small_count += 1
            if small_count >= _KUMMER_CONSECUTIVE:
                if size < 1e-13 * peak:
                    # the sum cancelled down to round-off noise; no digits left
                    raise NonConvergence(
                        f"1F1({a_param!r}; {b_param!r}; {z!r}) lost all precision "
                        f"to cancellation (peak {peak:.3e}, result {size:.3e})"
                    )
                return total
        else:
            small_count = 0
    raise NonConvergence(
        f"1F1({a_param!r}; {b_param!r}; {z!r}) hit the {_KUMMER_MAX_TERMS}-term cap"
    )


def log_gamma(x):
    """ln Gamma(x) for x > 0 via the Lanczos approximation (g = 7, 9 terms)."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    s = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        s += _LANCZOS_COEFFS[i] / (x - 1.0 + i)
    t = x + _LANCZOS_G - 0.5
    return _LOG_SQRT_2PI + (x - 0.5) * math.log(t) - t + math.log(s)

