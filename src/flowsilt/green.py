"""Resolvent kernels and their compactly supported mollifications.

For a constant-coefficient model the single-particle motion is a Gaussian
diffusion with covariance rate a = diag(b^2) + c c'. The resolvent kernel
at rate lambda is the exponentially weighted time integral of its
transition density. With isotropic a the kernel has a closed form: an
exponential in one and three dimensions, the Bessel function K0 in two.
Anisotropic kernels are computed by whitening plus a one-dimensional
adaptive quadrature in time, which also serves as the reference the
closed forms are checked against.

Mollification convolves the kernel with the standard bump supported on
the ball of radius eps. Outside the bump support the convolution is
exactly the sharp kernel times a constant C_d(eps), so only [0, eps]
needs a tabulated profile: a clamped cubic spline of the panel
quadrature on a uniform grid there, whose coefficients are read by
direct index, and the closed form beyond. These are the reads the
pair-sum estimators evaluate in bulk.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import i0, k0, k1

from .model import CoefficientModel, a_matrix, isotropic_diffusion

_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}
_BUMP_NORM: dict[int, float] = {}


class GreenUsageError(ValueError):
    pass


def _bump_constant(d: int) -> float:
    """Normalizer making the unit-ball bump integrate to one."""
    if d not in _BUMP_NORM:
        def shell(r):
            return r ** (d - 1) * math.exp(-1.0 / (1.0 - r * r))
        val, _ = quad(shell, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
        _BUMP_NORM[d] = 1.0 / (_SPHERE_AREA[d] * val)
    return _BUMP_NORM[d]


def mollifier_radial(r, eps: float, d: int):
    """The scaled bump psi_eps as a function of radius (vectorized)."""
    r = np.asarray(r, dtype=float)
    c = _bump_constant(d) / eps ** d
    s = np.abs(r) / eps
    # evaluated everywhere and zeroed outside the unit ball, where the
    # exponent may overflow
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bump = c * np.exp(-1.0 / (1.0 - s ** 2))
    return np.where(s < 1.0, bump, 0.0)


def _unit_radial(r: float, d: int, lam: float) -> float:
    """Resolvent kernel of the unit-covariance diffusion at radius r."""
    kap = math.sqrt(2.0 * lam)
    if d == 1:
        return math.exp(-kap * r) / kap
    if d == 3:
        if r == 0.0:
            return math.inf
        return math.exp(-kap * r) / (2.0 * math.pi * r)
    if r == 0.0 and d >= 2:
        return math.inf
    # adaptive quadrature in v = sqrt(t); the integrand is smooth and the
    # truncation tail is below 1e-14 of the total
    v_max = math.sqrt(40.0 / lam + 4.0 * r / kap + 1.0)

    def integrand(v):
        return (2.0 * v * math.exp(-lam * v * v)
                * (2.0 * math.pi * v * v) ** (-0.5 * d)
                * math.exp(-r * r / (2.0 * v * v)))

    hint = max(min(r / kap ** 0.5, v_max * 0.9), 1e-3)
    val, _ = quad(integrand, 0.0, v_max, points=[hint],
                  epsabs=1e-13, epsrel=1e-11, limit=200)
    return val


class GreenFunction:
    """Resolvent kernel of a constant model, centered at the shift point."""

    def __init__(self, model: CoefficientModel, lam: float,
                 u: Optional[np.ndarray] = None):
        if lam <= 0:
            raise GreenUsageError("lambda must be positive")
        self.model = model
        self.lam = float(lam)
        self.dim = model.dim
        self.u = (np.zeros(self.dim) if u is None
                  else np.asarray(u, dtype=float).reshape(self.dim))
        self.a_full = a_matrix(model)
        alpha = isotropic_diffusion(model)
        self.isotropic = alpha is not None and alpha > 0
        self.alpha = alpha if self.isotropic else None
        self.closed_form = self.isotropic and self.dim in (1, 2, 3)
        if self.isotropic:
            self.kappa = math.sqrt(2.0 * self.lam / self.alpha)

    # -- radial access (isotropic only)

    def radial(self, r) -> np.ndarray:
        """Kernel value at radius r >= 0; +inf at r = 0 when d >= 2.
        Closed form in d = 1, 2, 3, the time quadrature otherwise."""
        if not self.isotropic:
            raise GreenUsageError("radial form needs isotropic coefficients")
        r = np.abs(np.asarray(r, dtype=float))
        lam, a, kap = self.lam, self.alpha, self.kappa
        if self.dim == 1:
            return np.exp(-kap * r) / math.sqrt(2.0 * lam * a)
        if self.dim == 3:
            # a subnormal r overflows to +inf as r = 0 does
            with np.errstate(divide="ignore", over="ignore"):
                out = np.exp(-kap * r) / (2.0 * math.pi * a * r)
            return np.where(r == 0.0, np.inf, out)
        if self.dim == 2:
            return k0(kap * r) / (math.pi * a)
        return self.quadrature_radial(r)

    def quadrature_radial(self, r) -> np.ndarray:
        """The time-quadrature route regardless of dimension (test hook)."""
        if not self.isotropic:
            raise GreenUsageError("radial form needs isotropic coefficients")
        a = self.alpha
        flat = np.atleast_1d(np.abs(np.asarray(r, dtype=float)))
        vals = np.array([_unit_radial(x / math.sqrt(a), self.dim, self.lam)
                         for x in flat]) * a ** (-0.5 * self.dim)
        r = np.asarray(r)
        return vals.reshape(r.shape) if r.shape else vals[0]

    # -- pointwise access (general constant model)

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float).reshape(self.dim)
        if self.isotropic:
            return float(self.radial(np.linalg.norm(x - self.u)))
        chol = np.linalg.cholesky(self.a_full)
        w = np.linalg.solve(chol, x - self.u)
        det_half = float(np.prod(np.diagonal(chol)))
        rw = float(np.linalg.norm(w))
        if rw == 0.0 and self.dim >= 2:
            return math.inf
        return _unit_radial(rw, self.dim, self.lam) / det_half

    def l1_mass(self) -> float:
        """Numeric total integral; equals 1/lambda up to quadrature error."""
        if not self.isotropic:
            raise GreenUsageError("mass check implemented for isotropic a")
        d = self.dim
        r_hi = self._far_radius()

        def shell(r):
            return _SPHERE_AREA[d] * r ** (d - 1) * float(self.radial(r))

        val, _ = quad(shell, 0.0, r_hi, epsabs=1e-12, epsrel=1e-12,
                      limit=400)
        return val

    def _far_radius(self) -> float:
        """Radius beyond which the kernel is below 1e-16 of its scale."""
        return (40.0 + 8.0 * abs(math.log10(self.lam + 1.0))) / self.kappa


class MollifiedGreen:
    """The resolvent kernel convolved with the radius-eps bump.

    Supported for isotropic constant coefficients in dimensions one
    through three, where the base kernel reduces to an exponential (d=1,
    3) or a Bessel K0 (d=2) and the spherical average over the bump
    support is elementary. Beyond eps the convolution is the base kernel
    times a constant (see ``far_scale``); inside eps reads go through a
    clamped cubic spline of the exact panel quadrature on a uniform grid.
    The spline is fitted once by scipy; a read finds its interval by
    direct index on the grid and evaluates the interval's cubic in the
    order scipy's own evaluator uses, so the values are scipy's bit for
    bit without its per-point search.
    """

    GRID_POINTS = 4096
    SUPPORT_CUT = 1e-12

    def __init__(self, base: GreenFunction, eps: float):
        if eps <= 0:
            raise GreenUsageError("eps must be positive")
        if not base.isotropic or base.dim not in (1, 2, 3):
            raise GreenUsageError(
                "mollified kernels are built for isotropic constant "
                "coefficients in dimension 1, 2, or 3"
            )
        self.base = base
        self.eps = float(eps)
        self.dim = base.dim
        self.lam = base.lam
        self.u = base.u

        r_far = base._far_radius() + eps
        coarse = np.linspace(0.0, r_far, 512)
        vals = self.exact_radial(coarse)
        peak = vals.max()
        keep = np.nonzero(vals >= self.SUPPORT_CUT * peak)[0]
        cut = coarse[keep[-1]] + 2.0 * (coarse[1] - coarse[0])
        self.support_radius = float(min(cut, r_far))

        # the spherical mean of the base kernel over a sphere of radius
        # s < r around a point at radius r is G(r) phi(kappa s), phi the
        # regular radial solution of the same equation with phi(0) = 1
        nodes, weights = gauss_legendre(96)
        s = 0.5 * self.eps * (nodes + 1.0)
        ks = base.kappa * s
        phi = {1: np.cosh, 2: i0, 3: lambda x: np.sinh(x) / x}[self.dim](ks)
        shell = s ** (self.dim - 1) * mollifier_radial(s, self.eps, self.dim)
        self.far_scale = float(_SPHERE_AREA[self.dim] * 0.5 * self.eps
                               * ((shell * phi) @ weights))

        self._grid = np.linspace(0.0, self.eps, self.GRID_POINTS)
        slope = self.far_scale * self._base_slope(self.eps)
        spline = CubicSpline(self._grid, self.exact_radial(self._grid),
                             bc_type=((1, 0.0), (1, slope)))
        # rows c0..c3 of the interval cubics, highest power first
        self._coef = tuple(np.ascontiguousarray(row) for row in spline.c)
        self._knot_scale = (self.GRID_POINTS - 1) / self.eps

    # -- exact panel convolution (reference evaluator)

    def exact_radial(self, r) -> np.ndarray:
        """Panel quadrature of the convolution at every radius in r.

        Each radius gets two 96-node Gauss-Legendre panels split at
        min(r, eps), where the integrand has its kink; all radii are
        evaluated together as one (len(r), 96) array per panel.
        """
        r_in = np.asarray(r, dtype=float)
        rr = np.abs(r_in).reshape(-1)
        eps = self.eps
        a, kap = self.base.alpha, self.base.kappa
        nodes, weights = gauss_legendre(96)
        mid = np.minimum(rr, eps)[:, None]

        def integral(f, lo, hi):
            half = 0.5 * (hi - lo)
            return (f(half * (nodes + 1.0) + lo) * half * weights).sum(axis=-1)

        if self.dim == 1:
            def f(s):
                return (mollifier_radial(s, eps, 1)
                        * self.base.radial(rr[:, None] - s))
            out = integral(f, -eps, mid) + integral(f, mid, eps)
            return out.reshape(r_in.shape)

        def shell(weight):
            return lambda s: s * mollifier_radial(s, eps, self.dim) * weight(s)

        out = np.zeros(rr.shape)
        pos = rr > 0.0
        x = kap * rr[pos]
        if self.dim == 3:
            # radial chord formula: the spherical mean of exp(-kap |y|)/|y|
            # over a sphere of radius s at distance r is
            # exp(-kap r>) sinh(kap r<) / (kap r s), kept in that product
            # form so small r loses no digits to cancellation
            inner = integral(shell(lambda s: np.sinh(kap * s)), 0.0, mid)
            outer = integral(shell(lambda s: np.exp(-kap * s)), mid, eps)
            out[pos] = (inner[pos] * np.exp(-x) + outer[pos] * np.sinh(x)) / x
            out[~pos] = outer[~pos]
        else:
            # d = 2: the circular average of K0 around a ring of radius s
            # at distance r is K0(kap r>) I0(kap r<). The part beyond s = r
            # is the whole K0 integral less its prefix up to r.
            def k0_prefix(m):
                # nodes s = m t^2 smooth the log singularity of K0 at s = 0
                def f(t):
                    s = m * t * t
                    return (s * mollifier_radial(s, eps, 2) * k0(kap * s)
                            * 2.0 * m * t)
                return integral(f, 0.0, 1.0)

            inner = integral(shell(lambda s: i0(kap * s)), 0.0, mid)
            full = k0_prefix(eps)
            out[pos] = (inner[pos] * k0(x)
                        + (full - k0_prefix(mid[pos])) * i0(x))
            out[~pos] = full
        return ((2.0 / a) * out).reshape(r_in.shape)

    # -- fast reads

    def _base_slope(self, r: float) -> float:
        """Radial derivative of the sharp kernel at r > 0."""
        kap = self.base.kappa
        if self.dim == 2:
            return -kap * float(k1(kap * r)) / (math.pi * self.base.alpha)
        g = float(self.base.radial(r))
        return -kap * g if self.dim == 1 else -(kap + 1.0 / r) * g

    def _spline_read(self, r: np.ndarray) -> np.ndarray:
        """The clamped spline at radii 0 <= r < eps.

        The interval of r is floor(r / h) on the uniform grid, moved by at
        most one knot so that grid[i] <= r < grid[i + 1] holds as in
        scipy's search; the cubic is summed as scipy's evaluator sums it.
        """
        grid = self._grid
        i = (r * self._knot_scale).astype(np.intp)
        np.minimum(i, self.GRID_POINTS - 2, out=i)
        i -= r < grid[i]
        i += r >= grid[i + 1]
        s = r - grid[i]
        s2 = s * s
        c0, c1, c2, c3 = (row[i] for row in self._coef)
        return c3 + c2 * s + c1 * s2 + c0 * (s2 * s)

    def radial(self, r, sharp=None) -> np.ndarray:
        """Kernel value at radius r: the spline inside eps, far_scale
        times the sharp kernel from eps to support_radius, zero beyond.

        sharp, when given, is ``base.radial(r)``; kernels on one base that
        read the same radii can share it. The values are the same bits
        either way.
        """
        r_in = np.abs(np.asarray(r, dtype=float))
        rr = r_in.reshape(-1)
        if sharp is None:
            sharp = self.base.radial(rr)
        out = self.far_scale * np.reshape(sharp, -1)
        out[rr > self.support_radius] = 0.0
        inner = np.flatnonzero(rr < self.eps)
        out[inner] = self._spline_read(rr[inner])
        return np.maximum(out, 0.0, out=out).reshape(r_in.shape)

    # -- integral diagnostics

    def mass(self) -> float:
        """Total integral over space, computed from the exact evaluator."""
        d = self.dim

        def shell(r):
            return _SPHERE_AREA[d] * r ** (d - 1) * float(self.exact_radial(r))

        val, _ = quad(shell, 0.0, self.support_radius,
                      points=[self.eps], epsabs=1e-11, epsrel=1e-11,
                      limit=400)
        return val

    def l1_distance_to_base(self) -> float:
        """Integral of |G_eps - G| over space."""
        d = self.dim

        def shell(r):
            if r == 0.0 and d >= 2:
                r = 1e-300
            diff = abs(float(self.exact_radial(r))
                       - float(self.base.radial(r)))
            return _SPHERE_AREA[d] * r ** (d - 1) * diff

        hi = self.support_radius
        val, _ = quad(shell, 0.0, hi, points=[self.eps, 2.0 * self.eps],
                      epsabs=1e-11, epsrel=1e-10, limit=400)
        return val

    def lambda_minus_l_radial(self, r, sim_alpha: Optional[float] = None):
        """Radial profile of (lambda - L) G_eps for an isotropic generator.

        The base kernel turns the operator into a two-term closed form:
        with rho = a_sim / a_kernel,

            (lambda - L_sim) G_eps = lambda (1 - rho) G_eps + rho psi_eps.

        rho defaults to 1 (generator of the kernel's own model), which
        collapses to the mollifier itself.
        """
        rho = 1.0 if sim_alpha is None else float(sim_alpha) / self.base.alpha
        out = rho * mollifier_radial(r, self.eps, self.dim)
        if rho != 1.0:
            out = out + self.lam * (1.0 - rho) * self.radial(r)
        return out


_GL_NODES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on (-1, 1), built once per n and
    shared; callers must not write to them."""
    if n not in _GL_NODES:
        _GL_NODES[n] = np.polynomial.legendre.leggauss(n)
    return _GL_NODES[n]
