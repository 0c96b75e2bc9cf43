"""Polynomial families and confluent hypergeometric series used by the well model.

Hermite, generalized Laguerre and Bessel polynomials come from their
three-term recurrences, run elementwise over a numpy array of arguments (a
scalar argument gives a Python float).  Each recurrence carries a mantissa and
a per-element base-2 exponent and renormalizes them every few steps with
np.frexp/np.ldexp, which are exact, so no intermediate overflows however high
the degree (Gil, Segura and Temme, Numerical Methods for Special Functions,
SIAM 2007, ch. 4).  The *_scaled forms hand mantissa and exponent to
exp_scaled, which folds the exponent into a log-space prefactor.  One Bessel
recurrence records every degree a caller asks for as it passes it; its
coefficients have poles in the alpha parameter, and a step too close to one is
refused with PolePivot.  The Kummer series 1F1 takes scalar parameters and
argument but sums its terms as numpy arrays, chunk by chunk, with its first
two z-derivatives as extra rows of the same pass, and kummer_1f1_scaled hands
its sums on scaled for exp_scaled_complex.  The Lanczos log-gamma is scalar.
"""

import cmath
import math

import numpy as np

from .errors import DomainError, NonConvergence, PolePivot

# The y_n recurrence refuses a step whose pole factor k+alpha+1 or 2k+alpha
# comes within this margin of zero.  The margin must be generous: the rounding
# of alpha alone puts a relative error of eps/|factor| on a near-zero factor,
# and two consecutive near-pole steps square that amplification (measured
# 1.6e-3 of lost accuracy at distance 1e-6).  At 1e-3 the recurrence still
# carries ~1e-10 relative accuracy.  No caller in the package comes near:
# bound levels n < b^2 - 1/2 at alpha = -2b^2, and the Hermite limit's
# nu > 2n+1 at alpha = -nu, keep every factor a step passes above 3 in size.
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
# Terms per chunk of the Kummer series at most.  The first chunk covers the
# terms up to a little past their peak near k = z, so most sums take one.
_KUMMER_CHUNK_CAP = 2048
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


def exp_scaled_complex(log_prefactor, factor, exponent=0):
    """exp_scaled for one complex log prefactor and one complex factor, in
    cmath rather than numpy, which is slow on single values."""
    if factor == 0:
        return 0.0 + 0.0j
    log_prefactor += exponent * _LN2
    if log_prefactor.real + math.log(abs(factor)) < _LOG_FLOOR:
        return 0.0 + 0.0j
    return cmath.exp(log_prefactor + cmath.log(factor))


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


def bessel_poly_rows(degrees, alpha, x, derivatives=False):
    """(exponent, y, y', y''): the Bessel polynomials y_n(x; alpha) of the
    Askey scheme for every degree n in degrees and, with derivatives, their
    first two x-derivatives, elementwise, as mantissas with a base-2 exponent.
    Each is an array of shape (len(degrees), *x.shape) whose row i belongs to
    degrees[i]; degrees may come in any order and may repeat.  Without
    derivatives y' and y'' are None.

    One three-term recurrence
        y_{n+1} = A_n y_n + B_n y_{n-1},
        A_n = (2n+a+1)[2a + (2n+a)(2n+a+2)x] / [2(n+a+1)(2n+a)],
        B_n = n(2n+a+2) / [(n+a+1)(2n+a)],
    seeded with y_0 = 1 and y_1 = 1 + (2+a)x/2, runs up to the highest
    degree and records each requested degree as it passes it, so a row is
    bit for bit what a recurrence stopping at its degree gives.  It is
    differentiated in step: A_n is linear in x with slope
    q_n = (2n+a+1)(2n+a+2) / [2(n+a+1)], so
        y'_{n+1}  = q_n y_n + A_n y'_n + B_n y'_{n-1},
        y''_{n+1} = 2 q_n y'_n + A_n y''_n + B_n y''_{n-1}.
    Raises PolePivot when a step the highest degree needs has a factor k+a+1
    or 2k+a of its denominator within _BESSEL_POLE_MARGIN of zero.
    """
    for n in degrees:
        if n < 0:
            raise DomainError(f"bessel_poly degree must be non-negative, got {n}")
    x, exponent = _start(x)
    shape = (len(degrees), *x.shape)
    out = [np.empty(shape, dtype=np.int64), np.empty(shape)]
    if derivatives:
        out += [np.empty(shape), np.empty(shape)]
    rows = {}  # degree -> the rows that want it, until it is recorded
    for i, n in enumerate(degrees):
        rows.setdefault(n, []).append(i)

    def record(n, *values):
        for i in rows.pop(n):
            for array, value in zip(out, values):
                array[i] = value

    zero = np.zeros_like(x)
    if 0 in rows:
        record(0, exponent, np.ones_like(x), zero, zero)
    if rows:
        ym1 = np.ones_like(x)
        y = 1.0 + 0.5 * (2.0 + alpha) * x
        dym1 = d2ym1 = d2y = zero
        dy = np.full_like(x, 0.5 * (2.0 + alpha)) if derivatives else None
        if 1 in rows:
            record(1, exponent, y, dy, d2y)
    for k in range(1, max(rows, default=1)):
        if min(abs(k + alpha + 1.0), abs(2.0 * k + alpha)) < _BESSEL_POLE_MARGIN:
            raise PolePivot(
                f"Bessel recurrence step k={k} at alpha={alpha!r} lies within "
                f"{_BESSEL_POLE_MARGIN} of a pole of its coefficients"
            )
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
        if k + 1 in rows:
            record(k + 1, exponent, y, dy, d2y)
    return tuple(out) if derivatives else (*out, None, None)


def bessel_poly(n, alpha, x):
    """Bessel polynomial y_n(x; alpha) from the Askey scheme (see
    bessel_poly_rows for the recurrence and its pole refusal)."""
    exponent, y, _, _ = bessel_poly_rows((n,), alpha, x)
    return shaped_like(x, np.ldexp(y[0], exponent[0]))


def _near_nonpositive_integer(v):
    """Integer m <= 0 with |v - m| <= 1e-12, or None."""
    z = complex(v)
    if abs(z.imag) > _INTEGER_EPS:
        return None
    m = round(z.real)
    if m <= 0 and abs(z.real - m) <= _INTEGER_EPS:
        return m
    return None


def kummer_1f1_scaled(a_param, b_param, z, derivatives=False):
    """(exponent, values): kummer_1f1's result as complex mantissas with one
    base-2 exponent that puts the largest real or imaginary part in [0.5, 1).

    Only the final sums are scaled, exactly unless a part lies more than
    about 2^1022 below the largest."""
    a = complex(a_param)
    b = complex(b_param)
    if _near_nonpositive_integer(b) is not None:
        raise PolePivot(f"1F1 lower parameter {b_param!r} is a non-positive integer")
    z = float(z)
    rows = 3 if derivatives else 1
    if z == 0.0:
        sums = (complex(1.0), a / b, a * (a + 1.0) / (b * (b + 1.0)))[:rows]
    else:
        call = (a_param, b_param, z)
        terminal = _near_nonpositive_integer(a)
        with np.errstate(all="ignore"):  # overflow and NaN are refused below
            if terminal is None:
                sums = _kummer_converged(a, b, z, rows, call)
            else:
                sums = _kummer_terminating(a, b, z, -terminal, rows, call)
    sums = [complex(v) for v in sums]
    _, exponent = math.frexp(max(abs(c) for v in sums for c in (v.real, v.imag)))
    values = tuple(_ldexp_complex(v, -exponent) for v in sums)
    return exponent, values if derivatives else values[0]


def _ldexp_complex(v, exponent):
    """v * 2**exponent, part by part (2**exponent alone may overflow)."""
    return complex(math.ldexp(v.real, exponent), math.ldexp(v.imag, exponent))


def kummer_1f1(a_param, b_param, z, derivatives=False):
    """Confluent hypergeometric series 1F1(a; b; z) for real argument z, and
    with derivatives the tuple (F, dF/dz, d^2F/dz^2) from the same pass.

    The terms t_k = (a)_k / (b)_k * z^k / k! come in chunks: a chunk forms
    the ratios (a+k)/(b+k) * z/(k+1), np.cumprod turns them into terms
    (continuing from the last term of the chunk before) and np.cumsum into
    partial sums.  The derivatives are the rows sum_k (k/z) t_k and
    sum_k k(k-1)/z^2 t_k, weighted so that each row stays at the scale of F
    (plain k and k(k-1) weights overflow near the float ceiling).  The first
    chunk is sized from z, because the terms peak near k = z; later chunks
    double, up to _KUMMER_CHUNK_CAP terms.  A chunk stops at its first
    overflowing term: past it only the products of row 0 are formed, no
    derivative row or partial sum.  Parameters may be complex; the results
    are complex.

    Each row stops once its term stays below 1e-16 of its partial sum for 8
    consecutive terms, and is refused with NonConvergence if its partial sum
    (or a term's modulus) is not finite before then, if the 1e5-term cap is
    reached first, or if the sum it stops at is smaller than 1e-13 of its
    largest partial sum: such a result would be pure cancellation noise and
    refusing beats returning it.  If a is a non-positive integer (within
    1e-12) the series terminates exactly at k = -a, with no stopping rule, and
    is refused only if it is longer than the cap or not finite.  Raises
    PolePivot when b is a non-positive integer.
    """
    exponent, values = kummer_1f1_scaled(a_param, b_param, z, derivatives)
    if not derivatives:
        return _ldexp_complex(values, exponent)
    return tuple(_ldexp_complex(v, exponent) for v in values)


def _kummer_label(call, row=0):
    """How a refusal names the series (call is kummer_1f1's a, b and z)."""
    return ("", "d/dz ", "d^2/dz^2 ")[row] + "1F1({!r}; {!r}; {!r})".format(*call)


def _kummer_chunks(a, b, z, rows, limit):
    """Yield (term_moduli, partial_sums), each of shape (rows, n), chunk by
    chunk over the term indices 1 .. limit; row 0 is the series of 1F1, rows
    1 and 2 its z-derivatives (see kummer_1f1).

    A chunk whose last term in row 0 is not finite is cut after its first
    term that is not, and no chunk follows it.  Once a product leaves the
    float range every later one stays out of it, so only the last term needs
    a test, nothing past the cut can change a refusal, and cumprod and cumsum,
    which accumulate in order, give every earlier sum bit for bit."""
    term = complex(1.0)
    total = np.zeros(rows, dtype=complex)
    total[0] = 1.0
    start = 0
    reach = abs(z) + 10.0 * math.sqrt(abs(z)) + 16.0  # past the peak of the terms
    size = int(reach) if reach < _KUMMER_CHUNK_CAP else _KUMMER_CHUNK_CAP  # inf, NaN too
    while start < limit:
        k = np.arange(start, min(start + size, limit), dtype=float)
        k1 = k + 1.0  # the index of the term that k's ratio ends at
        ratios = (a + k) / (b + k) * z / k1
        ratios[0] *= term
        terms = np.empty((rows, len(k)), dtype=complex)
        ratios.cumprod(out=terms[0])
        term = complex(terms[0, -1])
        overflowed = not cmath.isfinite(term)
        if overflowed:
            n = int(np.isfinite(terms[0]).argmin()) + 1
            k, k1, terms = k[:n], k1[:n], terms[:, :n]
        if rows > 1:
            weight = k1 / z
            np.multiply(weight, terms[0], out=terms[1])
            np.multiply(weight * (k / z), terms[0], out=terms[2])
        moduli = np.abs(terms)
        # the running total leads the chunk, so the sums add up in series order
        terms[:, 0] += total
        sums = terms.cumsum(axis=1, out=terms)
        total = sums[:, -1]
        yield moduli, sums
        if overflowed:
            return
        start += len(k)
        size = min(2 * size, _KUMMER_CHUNK_CAP)


def _kummer_converged(a, b, z, rows, call):
    """Each row's sum under the stopping and refusal rules of kummer_1f1."""
    results = [None] * rows
    peak = [1.0] + [0.0] * (rows - 1)  # |partial sum| before the first term
    run = np.zeros((rows, 1), dtype=np.int64)  # small terms ending the last chunk
    start = 0
    for term_size, sums in _kummer_chunks(a, b, z, rows, _KUMMER_MAX_TERMS):
        n = sums.shape[1]
        size = np.abs(sums)
        finite = np.isfinite(size - term_size)  # both moduli finite
        index = np.arange(n)
        # length of the run of consecutive small terms ending at each index
        last_large = np.maximum.accumulate(
            np.where(term_size < _KUMMER_REL_EPS * size, -1, index), axis=1
        )
        run_length = index - last_large + np.where(last_large < 0, run, 0)
        stopped = run_length >= _KUMMER_CONSECUTIVE
        peaks = np.maximum.accumulate(size, axis=1)
        stops, first_bads = stopped.argmax(axis=1).tolist(), finite.argmin(axis=1).tolist()
        for row in range(rows):
            if results[row] is not None:
                continue
            stop, first_bad = stops[row], first_bads[row]
            done = stopped[row, stop]
            end = stop if done else n - 1
            if first_bad <= end and not finite[row, first_bad]:
                raise NonConvergence(
                    f"{_kummer_label(call, row)} overflowed after "
                    f"{start + first_bad + 1} terms"
                )
            peak[row] = max(peak[row], float(peaks[row, end]))
            if not done:
                continue
            if size[row, end] < 1e-13 * peak[row]:
                # the sum cancelled down to round-off noise; no digits left
                raise NonConvergence(
                    f"{_kummer_label(call, row)} lost all precision to cancellation "
                    f"(peak {peak[row]:.3e}, result {size[row, end]:.3e})"
                )
            results[row] = sums[row, end]
        if all(r is not None for r in results):
            return results
        run = run_length[:, -1:]
        start += n
    raise NonConvergence(f"{_kummer_label(call)} hit the {_KUMMER_MAX_TERMS}-term cap")


def _kummer_terminating(a, b, z, degree, rows, call):
    """The rows of a series that ends at term index degree, summed in full."""
    if degree > _KUMMER_MAX_TERMS:
        raise NonConvergence(
            f"{_kummer_label(call)} terminates beyond the {_KUMMER_MAX_TERMS}-term cap"
        )
    sums = np.zeros(rows, dtype=complex)
    sums[0] = 1.0
    for _, chunk_sums in _kummer_chunks(a, b, z, rows, degree):
        sums = chunk_sums[:, -1]
    if not np.isfinite(sums).all():
        raise NonConvergence(f"{_kummer_label(call)} overflowed")
    return sums


def log_gamma(x):
    """ln Gamma(x) for x > 0 via the Lanczos approximation (g = 7, 9 terms)."""
    if not x > 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    s = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        s += _LANCZOS_COEFFS[i] / (x - 1.0 + i)
    t = x + _LANCZOS_G - 0.5
    return _LOG_SQRT_2PI + (x - 0.5) * math.log(t) - t + math.log(s)

