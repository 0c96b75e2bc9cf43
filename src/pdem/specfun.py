"""Polynomial families and confluent hypergeometric series used by the well model.

Hermite, generalized Laguerre and Bessel polynomials come from their
three-term recurrences, run elementwise over a numpy array of arguments (a
scalar argument gives a Python float).  Each recurrence carries a mantissa and
a per-element base-2 exponent and renormalizes them every few steps with
np.frexp/np.ldexp, which are exact, so no intermediate overflows however high
the degree (Gil, Segura and Temme, Numerical Methods for Special Functions,
SIAM 2007, ch. 4).  The *_scaled forms hand mantissa and exponent to
exp_scaled, which folds the exponent into a log-space prefactor.  Bessel
polynomials get a direct terminating-series fallback because their recurrence
coefficients have poles in the alpha parameter.  The Kummer series 1F1 and the
Lanczos log-gamma are scalar.
"""

import math

import numpy as np

from .errors import DomainError, NonConvergence, PolePivot

# The y_n recurrence is abandoned for the terminating series when any pole
# factor k+alpha+1 or 2k+alpha comes within this margin of zero.  The margin
# must be generous: the rounding of alpha alone puts a relative error of
# eps/|factor| on a near-zero factor, and two consecutive near-pole steps
# square that amplification (measured 1.6e-3 of lost accuracy at distance
# 1e-6).  At 1e-3 the recurrence still carries ~1e-10 relative accuracy and
# the series is exact, so the two routes agree everywhere.
_BESSEL_POLE_MARGIN = 1e-3

# Recurrence steps between renormalizations.  After one, the running values
# are below 1 in magnitude, so the next _RESCALE_EVERY steps overflow only if
# their growth factors |A_k| + |B_k| average above 2^(1023/8), about 1e38
# (growth per step is about |alpha| times the argument for Bessel, twice the
# argument for Hermite, and the argument over k for Laguerre).
_RESCALE_EVERY = 8

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
_LN2 = math.log(2.0)

# Values whose log-magnitude falls below this are flushed to exactly 0 to keep
# denormal noise out of quadrature.
_LOG_FLOOR = -700.0


def shaped_like(x, values):
    """values as a Python float when x is a scalar, else as the array itself.

    A float, never a numpy scalar: numpy 2 prints those as np.float64(...),
    which would leak into repr-serialized output."""
    return float(values) if np.ndim(x) == 0 else values


def exp_scaled(log_prefactor, factor, exponent=0):
    """factor * 2**exponent * exp(log_prefactor), elementwise, with the
    underflow floor applied.

    The exponent joins the log prefactor before anything is exponentiated, so
    the mantissa and exponent of a rescaled recurrence never have to be formed
    into a value that could overflow."""
    with np.errstate(divide="ignore", under="ignore"):  # log(0) = -inf is floored
        m = log_prefactor + np.log(np.abs(factor)) + exponent * _LN2
        value = np.copysign(np.exp(m), factor)
    return shaped_like(m, np.where(m < _LOG_FLOOR, 0.0, value))


def _rescaled(exponent, lead, prev, *rest):
    """Divide every running value by the power of two that brings
    max(|lead|, |prev|) into [0.5, 1), elementwise, and add that power to the
    exponent.  Scaling by a power of two is exact, so later steps round
    exactly as they would unscaled."""
    _, shift = np.frexp(np.maximum(np.abs(lead), np.abs(prev)))
    return (exponent + shift, *(np.ldexp(v, -shift) for v in (lead, prev, *rest)))


def _start(x):
    x = np.asarray(x, dtype=float)
    return x, np.zeros(x.shape, dtype=np.int64)


def hermite_scaled(n, x):
    """(exponent, H_{n-1}, H_n): physicists' Hermite polynomials of degrees
    n-1 and n as mantissas sharing one base-2 exponent, elementwise
    (H_{-1} = 0).

    Three-term recurrence H_{k+1} = 2 x H_k - 2 k H_{k-1} from H_0 = 1."""
    if n < 0:
        raise DomainError(f"hermite degree must be non-negative, got {n}")
    x, exponent = _start(x)
    two_x = 2.0 * x
    hm1, h = np.zeros_like(x), np.ones_like(x)
    for k in range(n):
        hm1, h = h, two_x * h - 2.0 * k * hm1
        if k % _RESCALE_EVERY == _RESCALE_EVERY - 1:
            exponent, h, hm1 = _rescaled(exponent, h, hm1)
    return exponent, hm1, h


def hermite(n, x):
    """Physicists' Hermite polynomial H_n(x)."""
    exponent, _, h = hermite_scaled(n, x)
    return shaped_like(x, np.ldexp(h, exponent))


def laguerre_scaled(n, alpha, x):
    """(exponent, L_n^alpha): the generalized Laguerre polynomial as a
    mantissa and base-2 exponent, elementwise.

    Uses (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}, which is
    total in alpha (no parameter poles), from L_{-1} = 0 and L_0 = 1."""
    if n < 0:
        raise DomainError(f"laguerre degree must be non-negative, got {n}")
    x, exponent = _start(x)
    lm1, l = np.zeros_like(x), np.ones_like(x)
    for k in range(n):
        lm1, l = l, ((2.0 * k + 1.0 + alpha - x) * l - (k + alpha) * lm1) / (k + 1.0)
        if k % _RESCALE_EVERY == _RESCALE_EVERY - 1:
            exponent, l, lm1 = _rescaled(exponent, l, lm1)
    return exponent, l


def laguerre(n, alpha, x):
    """Generalized Laguerre polynomial L_n^alpha(x)."""
    exponent, l = laguerre_scaled(n, alpha, x)
    return shaped_like(x, np.ldexp(l, exponent))


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


def bessel_poly_scaled(n, alpha, x, derivatives=False):
    """(exponent, y, y', y''): the Bessel polynomial y_n(x; alpha) of the
    Askey scheme and, with derivatives, its first two x-derivatives, as
    mantissas sharing one base-2 exponent, elementwise.  Without derivatives
    the recurrence skips y' and y'' and the caller must ignore them.

    Default path is the three-term recurrence
        y_{n+1} = A_n y_n + B_n y_{n-1},
        A_n = (2n+a+1)[2a + (2n+a)(2n+a+2)x] / [2(n+a+1)(2n+a)],
        B_n = n(2n+a+2) / [(n+a+1)(2n+a)],
    seeded with y_0 = 1 and y_1 = 1 + (2+a)x/2.  It is differentiated in step:
    A_n is linear in x with slope q_n = (2n+a+1)(2n+a+2) / [2(n+a+1)], so
        y'_{n+1}  = q_n y_n + A_n y'_n + B_n y'_{n-1},
        y''_{n+1} = 2 q_n y'_n + A_n y''_n + B_n y''_{n-1}.
    When a recurrence denominator (k+a+1)(2k+a) approaches zero the
    terminating series is evaluated by Horner's rule instead (differentiated
    termwise), which makes the operation total (see _BESSEL_POLE_MARGIN for
    where the switch happens and why).
    """
    if n < 0:
        raise DomainError(f"bessel_poly degree must be non-negative, got {n}")
    x, exponent = _start(x)
    zero = np.zeros_like(x)
    if n == 0:
        return exponent, np.ones_like(x), zero, zero
    if not _bessel_recurrence_safe(n, alpha):
        coeffs = _bessel_series_coeffs(n, alpha)
        y = dy = d2y = zero
        for step, k in enumerate(range(n, -1, -1)):  # Horner, highest degree first
            d2y = d2y * x + 2.0 * dy
            dy = dy * x + y
            y = y * x + np.ldexp(coeffs[k], -exponent)
            if step % _RESCALE_EVERY == _RESCALE_EVERY - 1:
                exponent, y, dy, d2y = _rescaled(exponent, y, dy, d2y)
        return exponent, y, dy, d2y
    ym1 = np.ones_like(x)
    y = 1.0 + 0.5 * (2.0 + alpha) * x
    if derivatives:
        dym1, d2ym1 = zero, zero
        dy = np.full_like(x, 0.5 * (2.0 + alpha))
        d2y = zero
    for k in range(1, n):
        denom = 2.0 * (k + alpha + 1.0) * (2.0 * k + alpha)
        ak = (2.0 * k + alpha + 1.0) * (
            2.0 * alpha + (2.0 * k + alpha) * (2.0 * k + alpha + 2.0) * x
        ) / denom
        bk = 2.0 * k * (2.0 * k + alpha + 2.0) / denom
        ym1, y = y, ak * y + bk * ym1
        if derivatives:
            qk = (2.0 * k + alpha + 1.0) * (2.0 * k + alpha + 2.0) / (2.0 * (k + alpha + 1.0))
            dym1, dy, d2ym1, d2y = (
                dy,
                qk * ym1 + ak * dy + bk * dym1,
                d2y,
                2.0 * qk * dy + ak * d2y + bk * d2ym1,
            )
            if k % _RESCALE_EVERY == 0:
                exponent, y, ym1, dy, dym1, d2y, d2ym1 = _rescaled(
                    exponent, y, ym1, dy, dym1, d2y, d2ym1
                )
        elif k % _RESCALE_EVERY == 0:
            exponent, y, ym1 = _rescaled(exponent, y, ym1)
    if derivatives:
        return exponent, y, dy, d2y
    return exponent, y, None, None


def bessel_poly(n, alpha, x):
    """Bessel polynomial y_n(x; alpha) from the Askey scheme (see
    bessel_poly_scaled for the recurrence and its pole fallback)."""
    exponent, y, _, _ = bessel_poly_scaled(n, alpha, x)
    return shaped_like(x, np.ldexp(y, exponent))


def bessel_poly_with_derivatives(n, alpha, x):
    """y_n(x; alpha) together with its first two x-derivatives."""
    exponent, *values = bessel_poly_scaled(n, alpha, x, derivatives=True)
    return tuple(shaped_like(x, np.ldexp(v, exponent)) for v in values)


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

