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
Bisection is only its fallback.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ToleranceNotMet

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
# Most interior points a Grid admits.  The eigensolver's passes are pure
# Python over the rows (about 0.15 s per level at 10^5 rows), so a larger
# grid would be hours of work and its row lists gigabytes.
GRID_CAP = 1_000_000
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


def _sturm_count(d, e2, lam, pivmin):
    """Number of eigenvalues strictly below lam (LDL^T sign count)."""
    count = 0
    q = 1.0
    for di, e2i in zip(d, e2):
        q = di - lam - e2i / q
        if q < 0.0:
            count += 1
        elif q < pivmin:  # q in [0, pivmin): nudge off the breakdown
            q = pivmin
    return count


def _sturm_newton(d, e2, lam, pivmin):
    """(count, s): the Sturm count below lam and s = d/dlam log|det(H - lam)|.

    The pivots q_i of H - lam have derivatives q_i' = -1 + e2_i q_{i-1}'/q_{i-1}^2,
    and s = sum q_i'/q_i.  Carrying t = q'/q forms only ratios, so nothing
    overflows the way det itself would.  A pivmin nudge makes s NaN.
    """
    count = 0
    q = 1.0
    t = 0.0
    s = 0.0
    for di, e2i in zip(d, e2):
        r = e2i / q
        q = di - lam - r
        if q < 0.0:
            count += 1
        elif q < pivmin:
            q = pivmin
            s = math.nan  # the nudged pivot has no derivative
        t = (r * t - 1.0) / q
        s += t
    return count, s


def _sturm_laguerre(d, e2, lam, pivmin):
    """(count, g, h): the Sturm count below lam, g = sum 1/(lam_i - lam) and
    h = sum 1/(lam_i - lam)^2 over the eigenvalues lam_i.

    g and h are minus the first two derivatives of log|det(H - lam)|.  Beside
    t = q'/q of _sturm_newton this carries u = q''/q, from
    q_i'' = e2_i (q_{i-1}''/q_{i-1}^2 - 2 q_{i-1}'^2/q_{i-1}^3), and sums
    d/dlam t = u - t^2: ratios again.  A pivmin nudge makes g NaN.
    """
    count = 0
    q = 1.0
    t = 0.0
    u = 0.0
    g = 0.0
    h = 0.0
    for di, e2i in zip(d, e2):
        r = e2i / q
        q = di - lam - r
        if q < 0.0:
            count += 1
        elif q < pivmin:
            q = pivmin
            g = math.nan
        u = r * (u - 2.0 * t * t) / q
        t = (r * t - 1.0) / q
        g -= t
        h += t * t - u
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
        self._move(x, _sturm_count(self.d, self.e2, x, self.pivmin))

    def newton(self, x):
        """Sweep at x and return the Newton iterate from it (NaN if none)."""
        below, s = _sturm_newton(self.d, self.e2, x, self.pivmin)
        self._move(x, below)
        return x - 1.0 / s if s != 0.0 else math.nan

    def laguerre(self, x, deflate):
        """Sweep at x and return the Laguerre iterate from it toward
        eigenvalue j, or NaN if the count puts x above eigenvalue j + 1.

        The iterate is that of det(H - lam) / prod(lam_i - lam) over the
        eigenvalues lam_i in deflate, the certified levels below j: degree
        m = n - len(deflate), roots lam_j, lam_{j+1}, ...  From below its
        smallest root the upward iterate never passes it; from between its
        two smallest roots the downward iterate never passes the lower one.
        """
        below, g, h = _sturm_laguerre(self.d, self.e2, x, self.pivmin)
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
    eigenvalue j on the inner side, or a Gershgorin bound, or, for the lowest
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
    need, sum 1/(lam_i - lam) and sum 1/(lam_i - lam)^2, from ratios of the
    LDL^T pivots and their derivatives, so nothing overflows.  Bisection
    takes over when a step leaves the bracket or has no sums, and when a
    step fails to halve the one before, as it does toward a multiple level
    or a cluster of levels.  Raises ToleranceNotMet, with the midpoint and
    the half-width of the bracket, if 200 Sturm sweeps leave a level's
    bracket wider than the tolerance.
    """
    n = matrix.dimension
    if k < 1 or k > n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    diag = matrix.diag
    off = matrix.off
    d = diag.tolist()
    e2 = [0.0] + (off * off).tolist()
    radius = np.zeros(n)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    pivmin = max(max(e2), 1.0) * 1e-292
    known = [(float(np.min(diag - radius)), 0), (float(np.max(diag + radius)), n)]
    upper = float(np.min(diag))
    eigenvalues = []
    for j in range(k):
        eigenvalues.append(
            _eigenvalue(d, e2, pivmin, j, known, upper if j == 0 else math.inf, eigenvalues)
        )
    return eigenvalues


def _gauss_kronrod_panels(f, edges):
    """[(kronrod, |kronrod - gauss|), ...] on the panels between consecutive
    edges, from one call of f on all their nodes."""
    edges = np.asarray(edges, dtype=float)
    centers = 0.5 * (edges[:-1] + edges[1:])
    radii = 0.5 * (edges[1:] - edges[:-1])
    values = f((centers[:, None] + radii[:, None] * _PANEL_NODES).ravel())
    values = np.reshape(values, (radii.size, _PANEL_NODES.size))
    kron = radii * (values @ _PANEL_KRONROD)
    gauss = radii * (values @ _PANEL_GAUSS)
    return list(zip(kron.tolist(), np.abs(kron - gauss).tolist()))


def integrate(f, x_min, x_max, tol=1e-10):
    """Adaptive Gauss-Kronrod (7, 15) quadrature of f over [x_min, x_max].

    f is called with a 1-d ndarray of nodes and must return their values as
    an array of the same length: the 15 nodes of the first panel in one call,
    then the 30 nodes of the two halves of each split panel in one call.
    Splits the worst panel until the summed Kronrod-Gauss gap drops below
    tol * (1 + |integral|).  Raises ToleranceNotMet (carrying the best
    estimate and its error bound) if the panel budget runs out.
    """
    if not x_min < x_max:
        raise ValueError(f"empty integration range [{x_min}, {x_max}]")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")

    [(val, err)] = _gauss_kronrod_panels(f, (x_min, x_max))
    heap = [(-err, 0, x_min, x_max, val, err)]
    total, total_err = val, err
    counter = 1
    while total_err > tol * (1.0 + abs(total)) and len(heap) < _MAX_PANELS:
        _, _, a, b, val, err = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:  # interval exhausted at float resolution
            heapq.heappush(heap, (0.0, counter, a, b, val, err))
            counter += 1
            total_err = sum(item[5] for item in heap)
            continue
        (v1, e1), (v2, e2) = _gauss_kronrod_panels(f, (a, mid, b))
        total += v1 + v2 - val
        total_err += e1 + e2 - err
        heapq.heappush(heap, (-e1, counter, a, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, mid, b, v2, e2))
        counter += 2
        if counter % 256 == 0:  # drift control for the running error sum
            total_err = sum(item[5] for item in heap)
    total = sum(item[4] for item in heap)
    total_err = sum(item[5] for item in heap)
    if total_err > tol * (1.0 + abs(total)):
        raise ToleranceNotMet(total, total_err)
    return total


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
    c0 = 2.0 * params.m0 * params.a**2 * energy_value / params.hbar**2
    coeff = (lam0 * params.a) ** 4 * x * x / xa**4 - c0 / xa**2
    lhs = d2 + 2.0 / xa * d1 - coeff * v
    scale = max(abs(d2), lam0 * abs(d1), lam0**2 * abs(v), 1e-300)
    return abs(lhs) / scale
