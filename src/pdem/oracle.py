"""Independent numerical machinery that validates the closed forms.

A flux-form finite-difference discretization of the variable-mass kinetic
operator, a Sturm-sequence eigensolver for the resulting symmetric
tridiagonal matrices, adaptive Gauss-Kronrod quadrature, and a pointwise
ODE-residual meter.  Nothing in this module reuses the model's closed forms,
so agreement between the two is a real cross-check.

The eigensolver finds each level by Laguerre's iteration on the
characteristic polynomial, deflated by the levels already found (Li and
Zeng, SIAM J. Sci. Comput. 15 (1994) 1145), refines it by Newton steps, and
certifies a bracket of 1e-12 relative width around it by Sturm counts.
Bisection is only its fallback.  Each pass over the matrix factors
P (H - lam) P^T = L D L^T, for a permutation P, by odd-even reduction in
numpy; P H P^T has the inertia of H, so the signs of the pivots count the
eigenvalues below lam, as the natural-order factorization's do.  What the
bracket certifies is these computed counts.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergence, ToleranceNotMet

# Gauss-Kronrod 7-15 nodes and weights on [-1, 1] (QUADPACK values).
_KRONROD_NODES = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_KRONROD_WEIGHTS = (
    0.022935322010529224,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
    0.20948214108472782,
)
_GAUSS_WEIGHTS = (  # weights of the embedded 7-point rule, nodes 1, 3, 5, 7
    0.1294849661688697,
    0.27970539148927664,
    0.3818300505051189,
    0.4179591836734694,
)

# The 15 panel nodes on [-1, 1] in ascending order, with the Kronrod weights
# and the Gauss weights (zero on the Kronrod-only nodes) laid out to match.
_PANEL_NODES = np.concatenate((np.negative(_KRONROD_NODES[:7]), _KRONROD_NODES[::-1]))
_PANEL_KRONROD = np.array(_KRONROD_WEIGHTS[:7] + _KRONROD_WEIGHTS[::-1])
_PANEL_GAUSS = np.zeros(15)
_PANEL_GAUSS[1::2] = _GAUSS_WEIGHTS + _GAUSS_WEIGHTS[-2::-1]

_MAX_PANELS = 20_000
# Equal panels of integrate's first call, 1920 nodes in one call of the
# integrand.  A call costs mostly its fixed numpy overhead: an overlap
# integrand of two levels at a = 3 takes 64 us at 1 node, 88 us at 480 and
# 178 us at 1920 (2-core x86-64 VM), so calls, not nodes, set the cost.
# Over the 180 overlaps of the bound-states benchmark (seeds 7-9), a first
# round of 32, 64, 128 and 256 panels takes 3.1, 2.07, 1.28 and 1.00 calls
# per overlap, all within 1.5e-15 of a tol = 1e-14 reference.  Of 32, 128
# and 256, 128 gives the benchmark's lowest median task time.
_FIRST_PANELS = 128
# Most panels one round of integrate splits: 30 nodes each in one call of the
# integrand.  Unbounded, a round could ask for 10^4 panels at once and hold
# 3e5 nodes and their values in memory.
_MAX_SPLITS = 512
# Most interior points a Grid admits.  A ground level takes about 0.09 s at
# 10^5 rows and 1.2 s and 120 MB at 10^6 (8 and 19 passes, measured on a
# 2-core x86-64 VM), so a larger grid would hold gigabytes of temporaries.
GRID_CAP = 1_000_000
# Rows at or below which _sturm_pass stops reducing and finishes in a Python
# loop: on fewer rows numpy's per-call overhead costs more than the loop.
_REDUCE_CUTOFF = 192
# Most e2 / q^2, for a pivot q and either of its squared couplings e2, that
# a level of the reduction eliminates.  Its entries then grow by at most
# sqrt(_GROWTH) times the couplings, and so does the rounding that
# cancellation at the next level can expose.
_GROWTH = 1e6
_REL_TOL = 1e-12  # eigenvalue bracket width, relative to max(1, |lo|, |hi|)
_MAX_SWEEPS = 200  # Sturm sweeps per eigenvalue
# Laguerre step, relative to max(1, |x|) as the tolerance is, below which
# Newton steps take over; relative to |x| alone it never comes for a level
# at 0.
_LAGUERRE_HANDOFF = 1e-2
# Relative Newton step that ends the Newton steps: the error of the iterate it
# leads to is about C step^2, with C the sum of 1/(lam_i - lam_j) over the
# other levels (below 10 on the finite-difference matrices), so far below the
# tolerance.  Past that the pivots' rounding, not the iteration, sets where
# the computed det(H - lam) vanishes: up to about 1e-10 relative off the
# count's sign change on the 150000-row test matrix.
_NEWTON_STOP = 1e-7
# Level j > 0 starts this far above level j - 1, relative: near enough that
# the Laguerre steps start below level j, far enough that the deflated pole of
# level j - 1, known to 1e-12 relative, does not swamp the sums.
_DEFLATION_GAP = 1e-3


@dataclass(frozen=True)
class Grid:
    """Uniform interior grid for the Dirichlet eigenproblem.

    count interior points between the boundary nodes x_min and x_max;
    spacing = (x_max - x_min) / (count + 1).
    """

    x_min: float
    x_max: float
    count: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError(f"x_min must be below x_max, got [{self.x_min}, {self.x_max}]")
        if self.count < 3:
            raise ValueError(f"need at least 3 interior points, got {self.count}")
        if self.count > GRID_CAP:
            raise ValueError(f"{self.count} interior points exceed the cap of {GRID_CAP}")

    @property
    def spacing(self):
        return (self.x_max - self.x_min) / (self.count + 1)

    @property
    def points(self):
        """Interior nodes, excluding the Dirichlet boundaries."""
        h = self.spacing
        return self.x_min + h * np.arange(1, self.count + 1)


@dataclass(frozen=True)
class Tridiagonal:
    """Symmetric tridiagonal matrix with finite entries."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        object.__setattr__(self, "off", np.asarray(self.off, dtype=float))
        if self.off.shape[0] != self.diag.shape[0] - 1:
            raise ValueError("off-diagonal must be one shorter than the diagonal")
        if not (np.all(np.isfinite(self.diag)) and np.all(np.isfinite(self.off))):
            raise ValueError("matrix entries must be finite")

    @property
    def dimension(self):
        return self.diag.shape[0]


def build_hamiltonian(params, grid):
    """Flux-form discretization of the variable-mass Hamiltonian on the grid.

    (H f)_i = -(hbar^2 / 2 h^2) [ s_{i+1/2} (f_{i+1} - f_i)
                                 - s_{i-1/2} (f_i - f_{i-1}) ] + V(x_i) f_i
    with s = 1/M sampled at midpoints and Dirichlet zeros at both boundary
    nodes.  Midpoint sampling keeps the matrix exactly symmetric and the
    scheme second order.
    """
    if not grid.x_min > -params.a:
        raise DomainError(
            f"grid must start inside the wall: x_min={grid.x_min} <= {-params.a}"
        )
    h = grid.spacing
    x = grid.points
    mids = np.concatenate(([grid.x_min + 0.5 * h], x + 0.5 * h))
    s = (params.a + mids) ** 2 / (params.a**2 * params.m0)  # 1/M at midpoints
    k = params.hbar**2 / (2.0 * h * h)
    v = params.m0 * params.omega**2 * params.a**2 * x**2 / (2.0 * (params.a + x) ** 2)
    diag = k * (s[:-1] + s[1:]) + v
    off = -k * s[1:-1]
    return Tridiagonal(diag=diag, off=off)


def _quotient(num, den, inv):
    """Taylor coefficients of num / den, given inv = 1 / den[0]."""
    out = []
    for k, x in enumerate(num):
        for i in range(k):
            x = x - out[i] * den[k - i]
        out.append(x * inv)
    return out


def _product(x, y):
    """Taylor coefficients of x * y."""
    out = []
    for k in range(len(x)):
        z = x[0] * y[k]
        for i in range(1, k + 1):
            z = z + x[i] * y[k - i]
        out.append(z)
    return out


def _grows(ratio):
    """Does e2 / q^2 exceed _GROWTH for a pivot q and one of its couplings?
    ratio holds those values; NaN, from q = 0, counts as growth."""
    return not ratio.max() <= _GROWTH


def _sturm_pass(d, e2, lam, pivmin, order):
    """(count, g, h): the number of eigenvalues of H below lam and, as far as
    order (0, 1 or 2) asks, g = sum 1/(lam_i - lam) and
    h = sum 1/(lam_i - lam)^2 over the eigenvalues lam_i of H.

    d is the diagonal of H and e2 its squared off-diagonal, both arrays.
    The pass factors P (H - lam) P^T = L D L^T, for a permutation P, by
    odd-even (cyclic) reduction: the even rows are not coupled to each
    other, so a few array operations eliminate them all at once, and what
    is left on the odd rows is tridiagonal again and is reduced in turn.
    P H P^T has the inertia of H, so the count is the number of negative
    pivots over all levels.  det(H - lam) is the product of the pivots, so
    g = -sum q'/q and h = sum (q'/q)^2 - q''/q over every pivot q, whose
    derivatives in lam are carried through the reduction as Taylor
    coefficients of the entries.  Once _REDUCE_CUTOFF rows or fewer are
    left, or a pivot q is so small next to a squared coupling e2
    (e2 / q^2 > _GROWTH, as when lam is at a diagonal entry) that
    eliminating it would swamp the entries it leaves with rounding, one
    natural-order loop over what is left finishes the pass.  There a pivot
    in [0, pivmin) becomes pivmin and makes g NaN.  Matrices of at most
    _REDUCE_CUTOFF rows never touch numpy.
    """
    count, g, h = 0, 0.0, 0.0
    n = len(d)
    a = None
    if n > _REDUCE_CUTOFF:
        with np.errstate(all="ignore"):
            # Level 0: q' = -1 and q'' = 0 on every pivot q, and e2 does not
            # depend on lam, so e2 / q has the coefficients e2 r^(k+1), with
            # r = 1 / q.  Its second coefficient, e2 / q^2, is the growth.
            q = d[0::2] - lam
            r = 1.0 / q
            m, nr = n // 2, (n - 1) // 2
            left = [e2[0::2] * r[:m]]  # coupling to the pivot before each odd row
            right = [e2[1::2] * r[1 : nr + 1]]  # and to the pivot after it
            for _ in range(max(order, 1)):
                left.append(left[-1] * r[:m])
                right.append(right[-1] * r[1 : nr + 1])
            if not (_grows(left[1]) or _grows(right[1])):
                count += int(np.count_nonzero(q < 0.0))
                if order:
                    g += float(r.sum())
                if order == 2:
                    h += float(r @ r)
                a = [x - y for x, y in zip((d[1::2] - lam, -1.0, 0.0)[: order + 1], left)]
                for x, y in zip(a, right):
                    x[:nr] -= y
                # the coupling e2_R e2_L r^2 has the coefficients
                # (k + 1) e2_R e2_L r^(k+2)
                b = [right[0][: m - 1] * left[0][1:]]
                for k in range(order):
                    b.append(b[-1] * r[1:m] * ((k + 2) / (k + 1)))
            while a is not None and len(a[0]) > _REDUCE_CUTOFF:
                n = len(a[0])
                m, nr = n // 2, (n - 1) // 2
                q = [x[0::2] for x in a]
                r = 1.0 / q[0]
                left = _quotient([x[0::2] for x in b], [x[:m] for x in q], r[:m])
                right = _quotient([x[1::2] for x in b], [x[1 : nr + 1] for x in q], r[1 : nr + 1])
                if _grows(left[0] * r[:m]) or _grows(right[0] * r[1 : nr + 1]):
                    break
                count += int(np.count_nonzero(q[0] < 0.0))
                if order:
                    t = q[1] * r
                    g -= float(t.sum())
                if order == 2:
                    h += float(t @ t) - 2.0 * float(q[2] @ r)
                a = [x[1::2] - y for x, y in zip(a, left)]
                for x, y in zip(a, right):
                    x[:nr] -= y
                b = _product([x[: m - 1] for x in right], [x[1:] for x in left])
    if a is None:
        a = [[x - lam for x in d.tolist()], [-1.0] * n, [0.0] * n][: order + 1]
        b = [[0.0] + e2.tolist(), [0.0] * n, [0.0] * n][: order + 1]
    else:
        a = [x.tolist() for x in a]
        b = [[0.0] + x.tolist() for x in b]
    # Natural-order LDL^T of what is left, with the Taylor coefficients of
    # each pivot q and of y = e2 / (the pivot before it).
    p0, p1, p2 = 1.0, 0.0, 0.0  # the first row has no coupling before it
    for i, a0 in enumerate(a[0]):
        y0 = b[0][i] / p0
        q0 = a0 - y0
        if q0 < 0.0:
            count += 1
        elif q0 < pivmin:  # q in [0, pivmin): nudge off the breakdown
            q0 = pivmin
            g = math.nan  # the nudged pivot has no derivative
        if order:
            y1 = (b[1][i] - y0 * p1) / p0
            q1 = a[1][i] - y1
            t = q1 / q0
            g -= t
            if order == 2:
                y2 = (b[2][i] - y1 * p1 - y0 * p2) / p0
                q2 = a[2][i] - y2
                h += t * t - 2.0 * q2 / q0
                p2 = q2
            p1 = q1
        p0 = q0
    return count, g, h


class _Bracket:
    """[lo, hi] around eigenvalue j, with the Sturm counts of its ends.

    Starts from the tightest bracket that the (shift, count below shift)
    pairs in known prove, or from upper, a bound that is not a count, if that
    is lower.  Every sweep appends its pair to known and moves the end on its
    side.  At most _MAX_SWEEPS sweeps are made.
    """

    def __init__(self, d, e2, pivmin, j, known, upper):
        self.d, self.e2, self.pivmin, self.j, self.known = d, e2, pivmin, j, known
        self.lo, self.below_lo = max((x, c) for x, c in known if c <= j)
        self.hi, self.below_hi = min((x, c) for x, c in known if c > j)
        if upper < self.hi:
            self.hi, self.below_hi = upper, None
        self.sweeps = 0

    def tol(self):
        return _REL_TOL * max(1.0, abs(self.lo), abs(self.hi))

    def closed(self):
        """Is the bracket within the tolerance, or at adjacent floats?"""
        return self.hi - self.lo <= self.tol() or not self.inside(self.midpoint())

    def done(self):
        return self.closed() or self.sweeps >= _MAX_SWEEPS

    def isolated(self):
        """Do the end counts prove that eigenvalue j is alone in the bracket?"""
        return self.below_lo == self.j and self.below_hi == self.j + 1

    def inside(self, x):
        return self.lo < x < self.hi  # False for NaN and for the ends

    def midpoint(self):
        return 0.5 * (self.lo + self.hi)

    def _move(self, x, below):
        self.known.append((x, below))
        self.sweeps += 1
        if below > self.j:
            self.hi, self.below_hi = x, below
        else:
            self.lo, self.below_lo = x, below

    def count(self, x):
        self._move(x, _sturm_pass(self.d, self.e2, x, self.pivmin, 0)[0])

    def newton(self, x):
        """Sweep at x and return the Newton iterate from it (NaN if none)."""
        below, g, _ = _sturm_pass(self.d, self.e2, x, self.pivmin, 1)
        self._move(x, below)
        return x + 1.0 / g if g != 0.0 else math.nan

    def laguerre(self, x, deflate):
        """Sweep at x and return the Laguerre iterate from it toward
        eigenvalue j, or NaN if the count puts x above eigenvalue j + 1.

        The iterate is that of det(H - lam) / prod(lam_i - lam) over the
        eigenvalues lam_i in deflate, the certified levels below j: degree
        m = n - len(deflate), roots lam_j, lam_{j+1}, ...  From below its
        smallest root the upward iterate never passes it; from between its
        two smallest roots the downward iterate never passes the lower one.
        """
        below, g, h = _sturm_pass(self.d, self.e2, x, self.pivmin, 2)
        self._move(x, below)
        for lam in deflate:
            pole = 1.0 / (lam - x)
            g -= pole
            h -= pole * pole
        m = len(self.d) - len(deflate)
        root = math.sqrt(max(0.0, (m - 1) * (m * h - g * g)))
        if below <= self.j:
            den = g + root
            return x + m / den if den > 0.0 else math.nan
        if below == self.j + 1:
            den = root - g
            return x - m / den if den > 0.0 else math.nan
        return math.nan


def _bisect(bracket, until_isolated=False):
    while not bracket.done() and not (until_isolated and bracket.isolated()):
        bracket.count(bracket.midpoint())


def _restart(bracket):
    """The midpoint of the bracket once bisection has isolated eigenvalue j."""
    _bisect(bracket, until_isolated=True)
    return bracket.midpoint()


def _eigenvalue(d, e2, pivmin, j, known, upper, deflate):
    """Eigenvalue j, the midpoint of a bracket certified by Sturm counts.

    Laguerre steps on det(H - lam), deflated by the levels in deflate, start
    at the bracket's lower end for the ground level and just above level
    j - 1 otherwise.  Once a step is below _LAGUERRE_HANDOFF, Newton steps on
    det(H - lam) follow until one is below _NEWTON_STOP.  Every sweep also
    moves an end of the bracket by its count.  A step that leaves the
    bracket or has no sums, and a step that fails to halve the one before,
    as toward a multiple level or a cluster of levels, where both iterations
    converge only linearly, give way to the midpoint of a bracket that
    bisection has isolated.  Count-only probes at x -/+ w around the last
    iterate, with w just under half the tolerance, then certify it.  A
    window that misses the eigenvalue, as rounding makes it do on large
    matrices, is widened fourfold, which costs fewer sweeps than bisecting
    from a far end, and bisection closes what is left of the window.  Raises
    ToleranceNotMet if _MAX_SWEEPS sweeps leave the bracket open.
    """
    bracket = _Bracket(d, e2, pivmin, j, known, upper)
    x = bracket.lo
    if deflate:
        x = deflate[-1] + _DEFLATION_GAP * max(1.0, abs(deflate[-1]))
        if not bracket.inside(x):
            x = _restart(bracket)
    step = math.inf
    while not bracket.done():
        nxt = bracket.laguerre(x, deflate)
        if not bracket.inside(nxt):  # above level j + 1, or no sums
            break
        last, step, x = step, abs(nxt - x), nxt
        if step <= _LAGUERRE_HANDOFF * max(1.0, abs(x)):
            break
        if last > step > 0.5 * last:  # linear, as toward a multiple level
            x = _restart(bracket)
            break
    if not bracket.inside(x):
        x = _restart(bracket)
    step = math.inf
    while not bracket.done():
        nxt = bracket.newton(x)
        if nxt != x and not bracket.inside(nxt):  # overshoot, or no derivative
            x, step = _restart(bracket), math.inf
            continue
        last, step, x = step, abs(nxt - x), nxt
        if step <= max(_NEWTON_STOP * abs(x), _REL_TOL):
            break
        if 2.0 * step > last:
            x, step = _restart(bracket), math.inf
    w = 0.45 * _REL_TOL * max(1.0, abs(x))
    while not bracket.done():
        if bracket.inside(x - w):
            bracket.count(x - w)
        elif bracket.inside(x + w):
            bracket.count(x + w)
        elif x - w <= bracket.lo and bracket.hi <= x + w:
            break
        else:
            w *= 4.0
    _bisect(bracket)
    if not bracket.closed():
        raise ToleranceNotMet(
            bracket.midpoint(),
            0.5 * (bracket.hi - bracket.lo),
            f"eigenvalue {j} not bracketed within {bracket.tol():.3g} "
            f"after {_MAX_SWEEPS} sweeps: [{bracket.lo!r}, {bracket.hi!r}]",
        )
    return bracket.midpoint()


def lowest_eigenvalues(matrix, k):
    """The k smallest eigenvalues, ascending, each certified by Sturm counts.

    Eigenvalue j is the midpoint of a bracket [lo, hi] with
    hi - lo <= 1e-12 max(1, |lo|, |hi|) that provably holds it: each end is a
    shift whose Sturm count (the number of eigenvalues below it) puts
    eigenvalue j on the inner side, or a Gershgorin bound (the upper one
    moved up by the tolerance, as a level can equal it), or, for the lowest
    level, min(diag), a Rayleigh quotient.  Every count is kept, so a level
    starts from the tightest bracket the earlier levels proved.

    Laguerre steps find the level (Li and Zeng, SIAM J. Sci. Comput. 15
    (1994) 1145).  Level j steps on det(H - lam) / prod(lam_i - lam) over
    the certified levels i < j, a polynomial of degree n - j whose smallest
    root is level j, so the ground level starts at the Gershgorin bound and
    level j just above level j - 1, with no bisection.  From below that root
    the iterates rise toward it without passing it, from between it and
    level j + 1 they fall toward it, and either way they converge cubically.
    Newton steps refine the level, and count-only probes certify it.  The
    pass over the rows that gives a count also gives the sums the steps
    need, sum 1/(lam_i - lam) and sum 1/(lam_i - lam)^2, from the LDL^T
    pivots and their derivatives (_sturm_pass).  It factors a symmetric
    permutation of H - lam by odd-even reduction, which has the inertia of
    H - lam, so the counts are Sturm counts; the brackets certify these
    computed counts, which rounding can move near the level.  Bisection
    takes over when a step leaves the bracket or has no sums, and when a
    step fails to halve the one before, as it does toward a multiple level
    or a cluster of levels.  Raises ToleranceNotMet, with the midpoint and
    the half-width of the bracket, if 200 Sturm sweeps leave a level's
    bracket wider than the tolerance, and ValueError if k is out of range or
    a squared off-diagonal entry overflows.
    """
    n = matrix.dimension
    if k < 1 or k > n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    diag = matrix.diag
    off = matrix.off
    with np.errstate(over="ignore"):
        e2 = off * off
        radius = np.zeros(n)
        radius[:-1] += np.abs(off)
        radius[1:] += np.abs(off)
        bottom = float(np.min(diag - radius))
        top = float(np.max(diag + radius))
    if not np.all(np.isfinite(e2)):
        raise ValueError("squared off-diagonal entries overflow")
    pivmin = max(float(np.max(e2, initial=0.0)), 1.0) * 1e-292
    # Every level is strictly below the Gershgorin upper end only once it is
    # moved up: a level can equal it, as a diagonal entry of a reducible
    # matrix does.
    top += _REL_TOL * max(1.0, abs(top))
    known = [(bottom, 0), (top, n)]
    upper = float(np.min(diag))
    eigenvalues = []
    for j in range(k):
        eigenvalues.append(
            _eigenvalue(diag, e2, pivmin, j, known, upper if j == 0 else math.inf, eigenvalues)
        )
    return eigenvalues


def _gauss_kronrod_panels(f, starts, ends):
    """(kronrod, |kronrod - gauss|) over the panels [starts[i], ends[i]],
    from one call of f on all their nodes: arrays of shape (panels,) for an
    f that returns shape (N,) on N nodes, or (k, panels) for one that
    returns (k, N).

    Raises NonConvergence naming the first panel on which either is not
    finite in some row, as when f returns NaN or inf there.
    """
    centers = 0.5 * (starts + ends)
    radii = 0.5 * (ends - starts)
    values = np.asarray(f((centers[:, None] + radii[:, None] * _PANEL_NODES).ravel()))
    values = np.reshape(values, values.shape[:-1] + (radii.size, _PANEL_NODES.size))
    with np.errstate(invalid="ignore", over="ignore"):
        kron = radii * (values @ _PANEL_KRONROD)
        err = np.abs(kron - radii * (values @ _PANEL_GAUSS))
    bad = ~(np.isfinite(kron) & np.isfinite(err))
    if bad.any():
        i = int(np.flatnonzero(bad.reshape(-1, radii.size).any(axis=0))[0])
        raise NonConvergence(
            f"quadrature is not finite on the panel [{float(starts[i])!r}, {float(ends[i])!r}]: "
            "the integrand returned NaN or inf there, or its sum overflowed"
        )
    return kron, err


def integrate(f, x_min, x_max, tol=1e-10):
    """Adaptive Gauss-Kronrod (7, 15) quadrature of f over [x_min, x_max].

    f is called with a 1-d ndarray of N nodes.  It returns their values as
    an array of shape (N,), and integrate returns the integral as a float,
    or as an array of shape (k, N), k integrands over one shared partition
    of the range, and integrate returns the k integrals as an array of
    shape (k,).  The first call gets the nodes of _FIRST_PANELS equal panels
    covering the range, 15 each, with the end edges exactly x_min and x_max.
    Each later call is one round: it splits the worst panels, as many as it
    takes to bring the error of the panels left unsplit down to
    tol * (1 + |integral|) in every row (at least one, at most _MAX_SPLITS),
    and gets the nodes of both halves of all of them, 30 per split panel.
    A panel's rank is its worst error in any row relative to that row's
    tolerance.  A panel of zero width or at float resolution is kept as it
    is and never split.  Stops when the summed Kronrod-Gauss gap of every
    row is at or below tol * (1 + |its integral|).  Raises ValueError,
    before any call of f, for a limit that is not finite or a range whose
    width overflows; ToleranceNotMet (carrying the best estimate and its
    error bound) if the budget of _MAX_PANELS panels runs out or only panels
    at float resolution are left to split; and NonConvergence if f gives
    NaN or inf.
    """
    if not math.isfinite(x_max - x_min):  # an infinite limit makes it inf or NaN
        raise ValueError(
            f"integration range [{x_min}, {x_max}] is not finite or its width overflows"
        )
    if not x_min < x_max:
        raise ValueError(f"empty integration range [{x_min}, {x_max}]")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")

    edges = np.linspace(x_min, x_max, _FIRST_PANELS + 1)  # its ends are exact
    starts, ends = edges[:-1], edges[1:]
    kron, errs = _gauss_kronrod_panels(f, starts, ends)
    result = (lambda v: float(v[0])) if kron.ndim == 1 else (lambda v: v)
    kron, errs = np.atleast_2d(kron, errs)  # (rows, panels)
    while True:
        total = kron.sum(axis=1)
        allowed = tol * (1.0 + np.abs(total))
        excess = errs.sum(axis=1) - allowed
        if not (excess > 0.0).any():
            return result(total)
        mids = 0.5 * (starts + ends)
        splittable = np.flatnonzero((starts < mids) & (mids < ends))
        room = min(_MAX_SPLITS, _MAX_PANELS - starts.size)
        if splittable.size == 0 or room <= 0:
            raise ToleranceNotMet(result(total), result(excess + allowed))
        rank = (errs[:, splittable] / allowed[:, None]).max(axis=0)
        worst = splittable[np.argsort(-rank)]
        # the fewest of the worst panels whose errors cover every row's excess
        covered = np.cumsum(errs[:, worst], axis=1)
        need = (covered < excess[:, None]).sum(axis=1) + 1
        split = worst[: min(int(need[excess > 0.0].max()), room)]
        lo, mid, hi = starts[split], mids[split], ends[split]
        new_kron, new_errs = _gauss_kronrod_panels(
            f, np.concatenate((lo, mid)), np.concatenate((mid, hi))
        )
        keep = np.ones(starts.size, dtype=bool)
        keep[split] = False
        starts = np.concatenate((starts[keep], lo, mid))
        ends = np.concatenate((ends[keep], mid, hi))
        kron = np.concatenate((kron[:, keep], np.atleast_2d(new_kron)), axis=1)
        errs = np.concatenate((errs[:, keep], np.atleast_2d(new_errs)), axis=1)


def ode_residual(params, psi, energy_value, x):
    """Relative residual of the position-space equation at x.

    psi must map x to the triple (psi, psi', psi'').  The equation is
        psi'' + 2/(a+x) psi' - [ l0^4 a^4 x^2/(a+x)^4 - c0/(a+x)^2 ] psi = 0
    with c0 = 2 m0 a^2 E / hbar^2; the residual is normalized by the local
    scale max(|psi''|, l0 |psi'|, l0^2 |psi|) floored at 1e-300.
    """
    if not x > -params.a:
        raise DomainError(f"position {x} is at or behind the wall x = {-params.a}")
    v, d1, d2 = psi(x)
    lam0 = params.lambda0
    xa = x + params.a
    # c0 = (lambda0 a)^4 E / V_inf: squares of a/hbar or hbar/a can leave the
    # float range for constants whose lambda0 a and V_inf are ordinary
    omega_a = params.omega * params.a
    c0 = (params.b2 * params.b2) * (energy_value / (0.5 * params.m0 * omega_a * omega_a))
    # one power of x + a at a time: (x + a)^4 underflows for a below about 1e-81
    br = params.b2 * (x / xa)
    coeff = (br * br - c0) / xa / xa
    lhs = d2 + 2.0 / xa * d1 - coeff * v
    scale = max(abs(d2), lam0 * abs(d1), lam0**2 * abs(v), 1e-300)
    return abs(lhs) / scale
