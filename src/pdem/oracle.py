"""Independent numerical machinery that validates the closed forms.

A flux-form finite-difference discretization of the variable-mass kinetic
operator, a Sturm-sequence bisection eigensolver for the resulting symmetric
tridiagonal matrices, adaptive Gauss-Kronrod quadrature, and a pointwise
ODE-residual meter.  Nothing in this module reuses the model's closed forms,
so agreement between the two is a real cross-check.
"""

import heapq
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

_MAX_PANELS = 20_000
_BISECT_MAX_ITER = 200


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
    """Symmetric tridiagonal matrix."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        object.__setattr__(self, "off", np.asarray(self.off, dtype=float))
        if self.off.shape[0] != self.diag.shape[0] - 1:
            raise ValueError("off-diagonal must be one shorter than the diagonal")

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


def _bisect_eigenvalue(d, e2, pivmin, index, lo, hi, rel_tol=1e-12):
    """The index-th smallest eigenvalue by bisection on the Sturm count."""
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _sturm_count(d, e2, mid, pivmin) > index:
            hi = mid
        else:
            lo = mid
        if hi - lo <= rel_tol * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def lowest_eigenvalues(matrix, k):
    """k smallest eigenvalues by Sturm-sequence bisection, 1e-12 relative."""
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
    lo = float(np.min(diag - radius))
    hi_bound = float(np.max(diag + radius))
    eigenvalues = []
    for j in range(k):
        lam = _bisect_eigenvalue(d, e2, pivmin, j, lo, hi_bound)
        eigenvalues.append(lam)
        lo = lam  # the next eigenvalue cannot lie below this one
    return eigenvalues


def _gauss_kronrod_panel(f, a, b):
    """(kronrod, |kronrod - gauss|) on one panel."""
    c = 0.5 * (a + b)
    r = 0.5 * (b - a)
    fc = f(c)
    kron = _KRONROD_WEIGHTS[7] * fc
    gauss = _GAUSS_WEIGHTS[3] * fc
    for i in range(7):
        fp = f(c + r * _KRONROD_NODES[i])
        fm = f(c - r * _KRONROD_NODES[i])
        kron += _KRONROD_WEIGHTS[i] * (fp + fm)
        if i % 2 == 1:
            gauss += _GAUSS_WEIGHTS[i // 2] * (fp + fm)
    return r * kron, abs(r * (kron - gauss))


def integrate(f, x_min, x_max, tol=1e-10):
    """Adaptive Gauss-Kronrod (7, 15) quadrature of f over [x_min, x_max].

    Splits the worst panel until the summed Kronrod-Gauss gap drops below
    tol * (1 + |integral|).  Raises ToleranceNotMet (carrying the best
    estimate and its error bound) if the panel budget runs out.
    """
    if not x_min < x_max:
        raise ValueError(f"empty integration range [{x_min}, {x_max}]")
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")

    val, err = _gauss_kronrod_panel(f, x_min, x_max)
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
        v1, e1 = _gauss_kronrod_panel(f, a, mid)
        v2, e2 = _gauss_kronrod_panel(f, mid, b)
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
