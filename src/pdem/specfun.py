"""Polynomial families, the confluent hypergeometric series and the
application of units used by the well model.

Hermite, generalized Laguerre and Bessel polynomials come from their
three-term recurrences, run elementwise over a numpy array of arguments,
carrying a mantissa and a per-element base-2 exponent renormalized every few
steps (every step at arguments where a few could overflow) with
np.frexp/np.ldexp, which are exact, so no intermediate overflows however
high the degree (Gil, Segura and Temme, Numerical Methods for Special
Functions, SIAM 2007, ch. 4).  exp_scaled folds the exponent into a log-space
prefactor.  One Bessel recurrence records every degree a caller asks for;
a step too close to a pole of its coefficients is refused with PolePivot.
kummer_1f1_scaled sums 1F1 and its first two z-derivatives at a scalar or an
array of arguments in one loop over numpy chunks, about fifteen numpy calls
and a few Python steps per row each, so a scalar call with derivatives
costs some 27-56 us (z from 1 to 400); it refuses a non-positive integer
upper parameter, whose series terminates.
in_units applies physical units through binary mantissas and exponents, to
a float or an array of them, and level_in_units to a quantity of one level
or of an array of levels.
"""

import cmath
import math
import operator
import sys

import numpy as np

from .errors import DomainError, LevelOutOfRange, NonConvergence, PdemError, PolePivot

# The y_n recurrence refuses a step whose pole factor k+alpha+1 or 2k+alpha
# comes within this margin of zero.  The margin must be generous: the rounding
# of alpha alone puts a relative error of eps/|factor| on a near-zero factor,
# and two consecutive near-pole steps square that amplification (measured
# 1.6e-3 of lost accuracy at distance 1e-6).  At 1e-3 the recurrence still
# carries ~1e-10 relative accuracy.  No caller in the package comes near:
# bound levels n < b^2 - 1/2 at alpha = -2b^2, and the Hermite limit's
# nu > 2n+1 at alpha = -nu, keep every factor a step passes above 3 in size.
_BESSEL_POLE_MARGIN = 1e-3

# Recurrence steps between renormalizations where a seed and that many steps
# cannot overflow (_cadence; elsewhere every step renormalizes).
_RESCALE_EVERY = 8

_KUMMER_MAX_TERMS = 100_000
_KUMMER_REL_EPS = 1e-16
_KUMMER_CONSECUTIVE = 8
# Terms per chunk of the Kummer series at most.  The first chunk covers the
# terms up to a little past their peak near k = z, so most sums take one.
_KUMMER_CHUNK_CAP = 2048
# An array of arguments is summed in blocks of _KUMMER_BLOCK points, and a
# chunk holds at most _KUMMER_CHUNK_CELLS terms over all the points of its
# block, so each of its arrays stays near 1.5 MB (three rows of complex)
# and a full block still takes 64 terms per chunk.
_KUMMER_CHUNK_CELLS = 1 << 15
_KUMMER_BLOCK = _KUMMER_CHUNK_CELLS // 64
_INTEGER_EPS = 1e-12

_LN2 = math.log(2.0)

# Values below the normal float range, whose log-magnitude falls below this,
# are flushed to exactly 0 to keep subnormal noise out of quadrature.
_LOG_FLOOR = math.log(sys.float_info.min)


def shaped_like(x, values):
    """values as a Python float when x is a scalar, else as the array itself.

    A float, never a numpy scalar: numpy 2 prints those as np.float64(...),
    which would leak into repr-serialized output."""
    return float(values) if np.ndim(x) == 0 else values


def exp_scaled(log_prefactor, factor, exponent=0, flush=None):
    """factor * 2**exponent * exp(log_prefactor), elementwise, with the
    underflow floor applied, or, where given, 0 where the boolean array
    flush is True instead.

    The exponent joins the log prefactor before anything is exponentiated, so
    the mantissa and exponent of a rescaled recurrence never have to be formed
    into a value that could overflow."""
    with np.errstate(divide="ignore", under="ignore"):  # log(0) = -inf is floored
        m = log_prefactor + np.log(np.abs(factor)) + exponent * _LN2
        value = np.copysign(np.exp(m), factor)
    return shaped_like(m, np.where(m < _LOG_FLOOR if flush is None else flush, 0.0, value))


def exp_scaled_complex(log_prefactor, factor, exponent=0):
    """exp_scaled for one complex log prefactor and one complex factor, in
    cmath rather than numpy, which is slow on single values and whose
    vectorized complex logarithm can round differently; the continuum states
    call it at each position of an array."""
    if factor == 0:
        return 0.0 + 0.0j
    log_prefactor += exponent * _LN2
    if log_prefactor.real + math.log(abs(factor)) < _LOG_FLOOR:
        return 0.0 + 0.0j
    return cmath.exp(log_prefactor + cmath.log(factor))


def in_units(value, factors, what):
    """value times the product of the positive floats factors, where value
    is a float (giving a float) or an array of floats (giving an array of
    its shape).  Only binary mantissas are multiplied and exponents added
    (np.frexp and np.ldexp are exact), so no intermediate leaves the float
    range where the result does not, the result rounds as the plain product
    does where that stays normal, and each element is bit for bit its scalar
    value.  DomainError, naming what, where a value is not finite or a
    product overflows (below the normal range it comes out subnormal or 0)."""
    mantissa, exponent = 1.0, 0
    for f in factors:
        m, e = math.frexp(f)
        mantissa, exponent = mantissa * m, exponent + e
    m, e = np.frexp(value)
    with np.errstate(over="ignore"):
        result = np.ldexp(m * mantissa, e + exponent)
    if not np.isfinite(result).all():
        raise DomainError(f"{what} leaves the float range")
    return shaped_like(value, result)


def level_in_units(n, require, factors, whats, brackets):
    """The brackets of a level n, which require(n) checks, in the units
    factors (in_units), as a list of floats, or those of each of an array of
    levels, as an array with a row per bracket.  brackets(n) gives them
    all, for a level or an array of levels, and whats names each, as in
    "the energy".

    An array is refused as a loop of scalar calls over it would be: at its
    first level refused, and at that level its first bracket refused, with
    that error.  Its levels are evaluated at once where they are integers,
    require accepts the least and the greatest of them (each require of the
    package is a range check) and every value stays in the float range;
    level by level otherwise."""
    levels = np.asarray(n)
    if levels.ndim == 0:
        require(n)
        return [in_units(v, factors, f"{what} of level {n}") for what, v in zip(whats, brackets(n))]
    ends = _integer_ends(n, levels)
    if ends:
        try:
            for end in ends:
                require(end)
            return in_units(np.array(brackets(levels)), factors, "a level's quantity")
        except PdemError:
            pass
    rows = [level_in_units(k, require, factors, whats, brackets) for k in n]
    return np.array(rows, dtype=float).reshape(-1, len(whats)).T


def _integer_ends(n, levels):
    """(least, greatest) of the levels n, given as the array levels too,
    where every one of them is an integer (an integer array, or a sequence
    of integers none of which is a bool); else ()."""
    if not levels.size or levels.dtype.kind not in "iu":
        return ()
    if isinstance(n, np.ndarray):
        return levels.min(), levels.max()
    if any(isinstance(k, bool) for k in n):
        return ()
    return min(n), max(n)  # a short sequence, as bound_states is given: no numpy reductions


def require_integer(n):
    """Raise LevelOutOfRange unless the level n is an integer: a Python or
    numpy integer, not a bool or a float."""
    try:
        operator.index(n)  # ints and numpy integers; floats are refused
    except TypeError:
        pass
    else:
        if not isinstance(n, bool):
            return
    raise LevelOutOfRange(f"level n={n!r} is not an integer")


def _cadence(growth, what):
    """Recurrence steps between renormalizations, from growth, a bound on the
    factor by which a seed or one step of a recurrence can grow its running
    values, which a renormalization leaves below 1 in magnitude.

    _RESCALE_EVERY where a seed and that many steps cannot leave the float
    range together, about growth < 2^(1023/9) or 1e34, else 1: every step and
    the seeds are renormalized.  DomainError, naming what, where one step
    can."""
    bits = math.log2(growth) if growth > 1.0 else 0.0  # NaN arguments come out NaN
    if bits >= 1023.0:
        raise DomainError(f"{what} leaves the float range (a step grows it by up to {growth:.3g})")
    return _RESCALE_EVERY if (_RESCALE_EVERY + 1) * bits < 1023.0 else 1


def _largest(x):
    """max |x| over the array x, 0 for an empty one, NaN where x has one."""
    return float(np.abs(x).max(initial=0.0))


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

    Three-term recurrence H_{k+1} = 2 x H_k - 2 k H_{k-1} from H_0 = 1, whose
    steps grow the values by at most 2 max|x| + 2n.  DomainError where an
    argument is NaN."""
    if n < 0:
        raise DomainError(f"hermite degree must be non-negative, got {n}")
    x, exponent = _start(x)
    largest = _largest(x)
    if math.isnan(largest):
        raise DomainError(f"H_{n} at an argument that is not a number")
    hm1, h = np.zeros_like(x), np.ones_like(x)
    if n == 0:
        return exponent, hm1, h
    every = _cadence(2.0 * largest + 2.0 * n, "the Hermite recurrence")
    two_x = 2.0 * x
    for k in range(n):
        hm1, h = h, two_x * h - 2.0 * k * hm1
        if k % every == every - 1:
            exponent, h, hm1 = _rescaled(exponent, h, hm1)
    return exponent, hm1, h


def hermite(n, x):
    """Physicists' Hermite polynomial H_n(x), at a scalar x (giving a float)
    or elementwise on an array; DomainError at a NaN argument."""
    exponent, _, h = hermite_scaled(n, x)
    return shaped_like(x, np.ldexp(h, exponent))


def laguerre_scaled(n, alpha, x):
    """(exponent, L_n^alpha): the generalized Laguerre polynomial as a
    mantissa and base-2 exponent, elementwise.

    Uses (k+1) L_{k+1} = (2k+1+alpha-x) L_k - (k+alpha) L_{k-1}, which is
    total in alpha (no parameter poles), from L_{-1} = 0 and L_0 = 1.  Its
    steps grow the values, before the division by k+1 too, by at most
    3n + 1 + 2|alpha| + max|x|."""
    if n < 0:
        raise DomainError(f"laguerre degree must be non-negative, got {n}")
    x, exponent = _start(x)
    every = _cadence(3.0 * n + 1.0 + 2.0 * abs(alpha) + _largest(x), "the Laguerre recurrence") if n else 1
    lm1, l = np.zeros_like(x), np.ones_like(x)
    for k in range(n):
        lm1, l = l, ((2.0 * k + 1.0 + alpha - x) * l - (k + alpha) * lm1) / (k + 1.0)
        if k % every == every - 1:
            exponent, l, lm1 = _rescaled(exponent, l, lm1)
    return exponent, l


def _nearest(offset, step, last):
    """min |offset + step k| over the integers 1 <= k <= last."""
    k = min(max(round(-offset / step), 1), last)
    return abs(offset + step * k)


def _bessel_cadence(alpha, top, x_max, derivatives):
    """_cadence of the y_n recurrence of bessel_poly_rows up to degree top,
    at arguments of at most x_max in size.

    Over its steps 1 <= k < top, with d = 2k+alpha, every factor d, d+1 and
    d+2 is at most wide in size, k+alpha+1 and d at least near1 and near2
    (or the step is refused with PolePivot), so |A_k| + |B_k|, and the
    2|q_k| the derivative rows add, are bounded from these; so is the seed
    y_1 = 1 + (2+alpha) x/2.  DomainError where a coefficient, or a product
    that forms A_k, may leave the float range: |alpha| above about 6.7e153
    (scaled_bessel), or arguments near 1e308 / alpha^2."""
    growth = 1.0 + 0.5 * abs(2.0 + alpha) * x_max
    last = top - 1
    if last >= 1:
        wide = max(abs(2.0 + alpha), abs(2.0 * last + alpha)) + 2.0
        if not 2.0 * wide * wide < math.inf or wide * (wide * wide * x_max + 2.0 * abs(alpha)) == math.inf:
            raise DomainError(f"the Bessel recurrence coefficients at alpha={alpha!r} "
                              f"and arguments up to {x_max:.6g} leave the float range")
        near1 = max(_nearest(alpha + 1.0, 1.0, last), _BESSEL_POLE_MARGIN)
        near2 = max(_nearest(alpha, 2.0, last), _BESSEL_POLE_MARGIN)
        step = wide / (2.0 * near1) * (2.0 * abs(alpha) / near2 + wide * x_max) + last * wide / (near1 * near2)
        if derivatives:
            step += wide * wide / near1
        growth = max(growth, step)
    return _cadence(growth, "the Bessel recurrence")


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
    or 2k+a of its denominator within _BESSEL_POLE_MARGIN of zero, and
    DomainError where its coefficients may leave the float range
    (_bessel_cadence, which also sets how often the values are renormalized).
    """
    for n in degrees:
        if n < 0:
            raise DomainError(f"bessel_poly degree must be non-negative, got {n}")
    x, exponent = _start(x)
    shape = x.shape
    table = (len(degrees), *shape)
    out = [np.empty(table, dtype=np.int64), np.empty(table)]
    if derivatives:
        out += [np.empty(table), np.empty(table)]
    rows = {}  # degree -> the rows that want it, until it is recorded
    for i, n in enumerate(degrees):
        rows.setdefault(n, []).append(i)

    def record(n, *values):
        for i in rows.pop(n):
            for array, value in zip(out, values):
                array[i] = value.reshape(shape)

    # the recurrence runs on 1-d arrays, which numpy keeps as arrays (a 0-d
    # operand would come back as a scalar, which out= cannot take)
    x, exponent = x.reshape(-1), exponent.reshape(-1)
    top = max(rows, default=1)
    every = _bessel_cadence(alpha, top, _largest(x), derivatives)

    zero = np.zeros_like(x)
    if 0 in rows:
        record(0, exponent, np.ones_like(x), zero, zero)
    if rows:
        ym1 = np.ones_like(x)
        y = 1.0 + 0.5 * (2.0 + alpha) * x
        dym1 = d2ym1 = d2y = zero
        dy = np.full_like(x, 0.5 * (2.0 + alpha)) if derivatives else None
        if every == 1 and derivatives:  # the seeds too
            exponent, y, ym1, dy = _rescaled(exponent, y, ym1, dy)
        elif every == 1:
            exponent, y, ym1 = _rescaled(exponent, y, ym1)
        if 1 in rows:
            record(1, exponent, y, dy, d2y)
    # Each step writes into scratch arrays (out=): A_k, a product, and the
    # next value of each running row, which then takes the place of the
    # oldest.  Every operation and its order are those of the plain
    # expressions, so each row rounds as they would.
    ak, term, spare = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    if derivatives:  # their own arrays, as they are written in place
        dym1, d2ym1, d2y = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
        dspare, d2spare = np.empty_like(x), np.empty_like(x)
    for k in range(1, top):
        if min(abs(k + alpha + 1.0), abs(2.0 * k + alpha)) < _BESSEL_POLE_MARGIN:
            raise PolePivot(
                f"Bessel recurrence step k={k} at alpha={alpha!r} lies within "
                f"{_BESSEL_POLE_MARGIN} of a pole of its coefficients"
            )
        denom = 2.0 * (k + alpha + 1.0) * (2.0 * k + alpha)
        # A_k = (2k+a+1) (2a + (2k+a)(2k+a+2) x) / denom
        np.multiply((2.0 * k + alpha) * (2.0 * k + alpha + 2.0), x, out=ak)
        np.add(2.0 * alpha, ak, out=ak)
        np.multiply(2.0 * k + alpha + 1.0, ak, out=ak)
        np.divide(ak, denom, out=ak)
        bk = 2.0 * k * (2.0 * k + alpha + 2.0) / denom
        np.multiply(ak, y, out=spare)
        np.multiply(bk, ym1, out=term)
        np.add(spare, term, out=spare)
        ym1, y, spare = y, spare, ym1
        if derivatives:
            qk = (2.0 * k + alpha + 1.0) * (2.0 * k + alpha + 2.0) / (2.0 * (k + alpha + 1.0))
            # y'_(k+1) = q_k y_k + A_k y'_k + B_k y'_(k-1)
            np.multiply(qk, ym1, out=dspare)
            np.multiply(ak, dy, out=term)
            np.add(dspare, term, out=dspare)
            np.multiply(bk, dym1, out=term)
            np.add(dspare, term, out=dspare)
            # y''_(k+1) = 2 q_k y'_k + A_k y''_k + B_k y''_(k-1)
            np.multiply(2.0 * qk, dy, out=d2spare)
            np.multiply(ak, d2y, out=term)
            np.add(d2spare, term, out=d2spare)
            np.multiply(bk, d2ym1, out=term)
            np.add(d2spare, term, out=d2spare)
            dym1, dy, dspare = dy, dspare, dym1
            d2ym1, d2y, d2spare = d2y, d2spare, d2ym1
            if k % every == 0:
                exponent, y, ym1, dy, dym1, d2y, d2ym1 = _rescaled(
                    exponent, y, ym1, dy, dym1, d2y, d2ym1
                )
        elif k % every == 0:
            exponent, y, ym1 = _rescaled(exponent, y, ym1)
        if k + 1 in rows:
            record(k + 1, exponent, y, dy, d2y)
    return tuple(out) if derivatives else (*out, None, None)


def _near_nonpositive_integer(v):
    """Whether v lies within 1e-12 of an integer m <= 0."""
    z = complex(v)
    if abs(z.imag) > _INTEGER_EPS:
        return False
    m = round(z.real)
    return m <= 0 and abs(z.real - m) <= _INTEGER_EPS


def kummer_1f1_scaled(a_param, b_param, z, derivatives=False):
    """1F1(a; b; z) for complex a and b and real z, and with derivatives
    (F, dF/dz, d^2F/dz^2) from the same pass, as (exponent, values): complex
    mantissas with one base-2 exponent per point that puts its largest part
    in [0.5, 1) (math.ldexp on each part gives 1F1; exact unless a part lies
    about 2^1022 below the largest).  A scalar z gives a Python int and a
    complex (a tuple of three with derivatives); a 1-d array of z gives an
    int64 array and complex arrays of its shape, each point bit for bit as
    alone.

    The terms t_k = (a)_k/(b)_k z^k/k! come in chunks: the ratios
    (a+k)/(b+k) z/(k+1), a cumulative product for the terms and a cumulative
    sum for the partial sums.  The derivative rows sum (k/z) t_k and
    k(k-1)/z^2 t_k stay at the scale of F.  The first chunk reaches past the
    peak of the terms near k = z; later ones double, up to _KUMMER_CHUNK_CAP.
    A row stops once 8 consecutive terms are below 1e-16 of its partial sum,
    and is refused with NonConvergence if a partial sum or a term's modulus
    is not finite before then, at the 1e5-term cap, or if the sum cancels
    below 1e-13 of its largest partial sum.  Of several rows or points
    refused, the one refused at the lowest term index is named, whatever the
    chunk bounds.  Where |z| is so small (below about 7e-154) that those
    weights overflow before the d^2/dz^2 row can stop, the derivative rows
    come from d^r/dz^r 1F1(a; b; z) = (a)_r/(b)_r 1F1(a+r; b+r; z) instead,
    each series summed alone.  Raises PolePivot when b is a non-positive
    integer, and DomainError when a is one (within 1e-12), as that series
    terminates; the continuum's a = (1 - 2b^2 + iq)/2 never is, as q > 0.

    Scalar and array calls run the same loop over chunks (_kummer_sums):
    about fifteen numpy calls per chunk, whatever its length, and a few
    Python steps per row of each point, with no per-point bookkeeping
    around the loop.  So a scalar call with derivatives costs some 27 us at
    z = 1 and 56 us at z = 400 (README gives the measurement), most of it
    numpy's fixed cost per call and then the work per term.
    """
    a = complex(a_param)
    b = complex(b_param)
    if _near_nonpositive_integer(b):
        raise PolePivot(f"1F1 lower parameter {b_param!r} is a non-positive integer")
    if _near_nonpositive_integer(a):
        raise DomainError(f"1F1 upper parameter {a_param!r} is a non-positive integer: "
                          "its series terminates, and only non-terminating ones are summed")
    rows = 3 if derivatives else 1
    params = (a_param, b_param)
    if isinstance(z, float) or np.ndim(z) == 0:
        z = float(z)
        if z == 0.0:
            sums = _kummer_at_zero(a, b)[:rows]
        elif rows == 3 and _weights_overflow(z):
            sums = _kummer_shifted(a, b, [z], params)
        else:
            sums = _kummer_sums(a, b, [z], rows, params)
        exponent = math.frexp(max([abs(p) for s in sums for p in (s.real, s.imag)]))[1]
        # part by part: 2**exponent alone may overflow
        values = [complex(math.ldexp(s.real, -exponent), math.ldexp(s.imag, -exponent)) for s in sums]
        return exponent, tuple(values) if derivatives else values[0]
    points = np.asarray(z, dtype=float)
    if points.ndim != 1:
        raise DomainError(f"1F1 takes a scalar or 1-d array argument, got shape {points.shape}")
    listed = points.tolist()
    sums = np.empty((rows, len(listed)), dtype=complex)  # row r of point j at [r, j]
    zero, tiny, summed = [], [], []  # the points at z = 0, as _weights_overflow, and the rest
    for j, v in enumerate(listed):
        (zero if v == 0.0 else tiny if rows == 3 and _weights_overflow(v) else summed).append(j)
    sums[:, zero] = np.array(_kummer_at_zero(a, b)[:rows])[:, None]
    for lo in range(0, len(summed), _KUMMER_BLOCK):
        block = summed[lo:lo + _KUMMER_BLOCK]
        sums[:, block] = np.reshape(_kummer_sums(a, b, [listed[j] for j in block], rows, params), (rows, -1))
    if tiny:
        sums[:, tiny] = np.reshape(_kummer_shifted(a, b, [listed[j] for j in tiny], params), (3, -1))
    parts = sums.view(float).reshape(rows, len(listed), 2)  # the real and imaginary parts
    shifts = np.frexp(np.abs(parts).max(axis=(0, 2), initial=0.0))[1]
    values = np.ldexp(parts, -shifts[:, None]).reshape(rows, 2 * len(listed)).view(complex)
    return shifts.astype(np.int64), tuple(values) if derivatives else values[0]


def _kummer_at_zero(a, b):
    """1F1 and its two z-derivatives at z = 0: 1, a/b and a(a+1)/(b(b+1))."""
    return complex(1.0), a / b, a * (a + 1.0) / (b * (b + 1.0))


def _weights_overflow(v):
    """Whether the weight k(k+1)/z^2 of the d^2/dz^2 row overflows by the
    term that row can stop at first: its terms t_1 (weight 0) and t_2 (its
    whole sum so far) are never small, so its first run of small terms ends
    at t_(_KUMMER_CONSECUTIVE + 2) at the earliest.  The pass refuses every
    such z, where that row meets an infinite weight before it stops."""
    k = _KUMMER_CONSECUTIVE + 1.0
    return math.isinf((k / v) * ((k + 1.0) / v))


def _kummer_shifted(a, b, z, params):
    """The row sums of _kummer_sums with derivatives, for the list z, from
    d^r/dz^r 1F1(a; b; z) = (a)_r/(b)_r 1F1(a+r; b+r; z), each series
    summed alone (and named as itself if refused)."""
    sums = _kummer_sums(a, b, z, 1, params)
    for r, factor in enumerate(_kummer_at_zero(a, b)[1:], 1):
        sums += [factor * s for s in _kummer_sums(a + r, b + r, z, 1, (a + r, b + r))]
    return sums


def _kummer_label(params, z, row=0):
    """How a refusal names the series (params are the a and b of 1F1)."""
    return ("", "d/dz ", "d^2/dz^2 ")[row] + "1F1({!r}; {!r}; {!r})".format(*params, float(z))


_KUMMER_START = np.array([[1.0], [0.0], [0.0]], dtype=complex)  # the sums before t_1
# Rows k and k + 1 of one array of complex term indices (k + 0j adds and
# divides as k does), over an axis to broadcast against the points.
_KUMMER_INDICES = np.lib.stride_tricks.as_strided(  # 16 bytes per complex128
    np.arange(_KUMMER_CHUNK_CAP + 1.0, dtype=complex), (2, 1, _KUMMER_CHUNK_CAP), (16, 0, 16))
_KUMMER_RUN = b"\x01" * _KUMMER_CONSECUTIVE  # a run of small-term flags


def _kummer_terms(a, b, column, term, start, stop, rows):
    """(terms, term): the terms t_{k+1}, start <= k < stop, at each point z
    of column, from column 1 of a (rows, points, stop - start + 1) array, and
    each point's last term in row 0, which term gives before the chunk.  If
    that is not finite at any point, the array is cut after the last of
    their first terms that are not (a product out of the float range stays
    out): every row still summing stops or is refused by its end."""
    k = _KUMMER_INDICES[..., :stop - start]
    if start:
        k = k + start  # exact, for integers
    ratios = (a + k[0]) / (b + k[0]) * column / k[1]  # k + 1: the term the ratio ends at
    for j, t in enumerate(term):
        ratios[j, 0] *= t
    n = ratios.shape[1]
    terms = np.empty((rows, len(ratios), n + 1), dtype=complex)
    row0 = np.multiply.accumulate(ratios, axis=1, out=terms[0, :, 1:])
    term = row0[:, -1].tolist()
    if not any(map(cmath.isfinite, term)):
        n = int(np.isfinite(row0).argmin(axis=1).max()) + 1
        k, terms, row0 = k[..., :n], terms[..., :n + 1], row0[:, :n]
    if rows > 1:
        weights = k.real / column  # k/z and (k+1)/z in one division
        weights[0] *= weights[1]  # k(k+1)/z^2
        np.multiply(weights[::-1], row0, out=terms[1:, :, 1:])
    return terms, term


@np.errstate(all="ignore")  # overflow and NaN are refused
def _kummer_sums(a, b, z, rows, params):
    """The row sums of each point of the list z of floats, as one flat list
    in which row r of point j is item r * len(z) + j, under the stopping and
    refusal rules of kummer_1f1_scaled, in one loop over chunks of at most
    _KUMMER_CHUNK_CELLS terms.  A chunk's rows are ordered the same way over
    the points still summing, and so is the state kept per row, in flat
    lists of Python numbers; a point leaves once all its rows have stopped.
    bytes.find meets a row's stop in the chunk's small-term flags, and
    bytes.startswith one that completes a run its last chunk ended with.
    cumprod and cumsum run in order, all else is elementwise, and a chunk's
    first ratio takes on the term before it in numpy's scalar arithmetic, so
    each sum is bit for bit the same whatever the chunk bounds and whichever
    points are summed together."""
    count = len(z)
    # per row still summing: its sum once stopped, its largest |partial sum|
    # before the chunk, and the number of small terms its last chunk ended with
    found = [None] * (rows * count)
    peaks = [1.0] * count + [0.0] * (len(found) - count)  # |t_0| = 1 in row 0
    runs = [0] * len(found)
    left = len(found)  # the rows still summing
    # once a point has left early: the rest, as indices into z, and all the sums
    points = results = None
    # one point's argument stays a float; several stand in a column against k
    column = z[0] if count == 1 else np.array(z)[:, None]
    term = []  # each point's term before the chunk: none before t_1, for t_0 = 1
    total = _KUMMER_START[:rows]  # each row's running total, point by point
    start = 0
    reach = max(map(abs, z))
    reach += 10.0 * math.sqrt(reach) + 16.0  # past the peak of the terms, near k = |z|
    size = int(reach) if reach < _KUMMER_CHUNK_CAP else _KUMMER_CHUNK_CAP  # inf, NaN too
    while start < _KUMMER_MAX_TERMS:
        n = len(z)
        stop = min(start + max(1, min(size, _KUMMER_CHUNK_CELLS // n)), _KUMMER_MAX_TERMS)
        terms, term = _kummer_terms(a, b, column, term, start, stop, rows)
        width = terms.shape[2]  # a row's columns: its total before the chunk, then its terms
        terms[:, :, 0] = total  # so that the sums add up in series order
        sizes = np.empty((2, rows, n, width))
        np.abs(terms, out=sizes[0])
        sums = np.add.accumulate(terms, axis=2, out=terms)
        np.abs(sums, out=sizes[1])
        total = sums[:, :, -1]
        sizes, sums = sizes.reshape(2, -1, width), sums.reshape(-1, width)
        flags = (sizes[0] < _KUMMER_REL_EPS * sizes[1]).tobytes()
        # each row's largest term and partial sum in the chunk
        largest, tops = np.maximum.reduce(sizes, axis=2).tolist()
        bads = None  # each row's first column with a modulus not finite, if any has one
        if not math.isfinite(sum(largest) + sum(tops)):  # NaN and inf carry through
            finite = np.isfinite(sizes[1] - sizes[0])
            bads = np.where(finite.all(axis=1), width, finite.argmin(axis=1)).tolist()
        refusals = []  # (point, column, row, why)
        for i, value in enumerate(found):
            if value is not None:
                continue
            lo = i * width + 1  # the flags of the row's terms
            hi = lo + width - 1
            run = runs[i]
            if run and flags.startswith(_KUMMER_RUN[run:], lo, hi):
                end = _KUMMER_CONSECUTIVE - run  # the column the run ends at
            else:
                end = flags.find(_KUMMER_RUN, lo, hi)
                end = end + _KUMMER_CONSECUTIVE - lo if end >= 0 else None
            if bads and bads[i] <= (width - 1 if end is None else end):
                refusals.append((i % n, bads[i], i // n, f"overflowed after {start + bads[i]} terms"))
            elif end is None:  # no run ends in this chunk
                peaks[i] = max(peaks[i], tops[i])
                zero = flags.rfind(b"\x00", lo, hi)  # the small terms the row ends with
                runs[i] = hi - 1 - zero if zero >= 0 else run + hi - lo
            else:
                result = sizes.item(1, i, end)
                top = max(tops[i], peaks[i])  # at least the peak up to the end
                if not result >= 1e-13 * top:  # then that peak itself decides
                    top = max(peaks[i], sizes[1, i, :end + 1].max())
                if result >= 1e-13 * top:
                    found[i] = sums.item(i, end)
                    left -= 1
                else:  # the sum cancelled down to round-off noise; no digits left
                    refusals.append((i % n, end, i // n, (
                        f"lost all precision to cancellation (peak {top:.3e}, "
                        f"result {result:.3e})"
                    )))
        if refusals:
            j, _, row, why = min(refusals)
            raise NonConvergence(f"{_kummer_label(params, z[j], row)} {why}")
        if not left and results is None:
            return found  # every point at once, so in the order given
        alive = [found[j::n].count(None) > 0 for j in range(n)]
        if not all(alive):  # the points with every row's sum leave
            if results is None:
                points, results = list(range(n)), [None] * len(found)
            for j in range(n):
                if not alive[j]:
                    results[points[j]::count] = found[j::n]
            if not left:
                return results
            keep = [j for j in range(n) if alive[j]]
            found, peaks, runs = (
                [v[r * n + j] for r in range(rows) for j in keep] for v in (found, peaks, runs)
            )
            points, z, term = ([v[j] for j in keep] for v in (points, z, term))
            total = total[:, keep]
            column = np.array(z)[:, None]
        start += width - 1
        size = min(2 * size, _KUMMER_CHUNK_CAP)
    raise NonConvergence(f"{_kummer_label(params, z[0])} hit the {_KUMMER_MAX_TERMS}-term cap")
