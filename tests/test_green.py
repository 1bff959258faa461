"""Resolvent kernels and mollification.

The closed forms (exponential in d=1,3, Bessel K0 in d=2) are checked
against the independent time-quadrature route, d=2 also against the K0
expression written out here, and the mollified kernels against their
defining integral identities.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import i0, k0

from flowsilt.green import (
    GreenFunction,
    GreenUsageError,
    MollifiedGreen,
    mollifier_radial,
)
from flowsilt.model import CoefficientModel


def iso_model(dim: int, alpha: float) -> CoefficientModel:
    """Constant model with a = alpha * I, split between noise sources."""
    b = math.sqrt(alpha / 2.0)
    return CoefficientModel.constant(b=(b,) * dim, c=b * np.eye(dim))


def test_d1_closed_form_matches_quadrature():
    g = GreenFunction(iso_model(1, 2.0), lam=1.0)
    radii = np.array([0.0, 0.05, 0.3, 0.7, 1.5, 4.0])
    closed = g.radial(radii)
    viaquad = g.quadrature_radial(radii)
    assert np.max(np.abs(closed - viaquad)) < 1e-8
    # and the elementary expression itself
    assert closed == pytest.approx(np.exp(-radii) / 2.0, abs=1e-12)


def test_d3_closed_form_matches_quadrature():
    g = GreenFunction(iso_model(3, 1.0), lam=0.7)
    radii = np.array([0.05, 0.2, 0.9, 2.5])
    assert np.max(np.abs(g.radial(radii) - g.quadrature_radial(radii))) < 1e-8


def test_d2_matches_bessel_resolvent():
    """In the plane the kernel is K0, and the time quadrature agrees."""
    alpha, lam = 1.5, 0.8
    g = GreenFunction(iso_model(2, alpha), lam=lam)
    for r in (0.1, 0.4, 1.2, 3.0):
        expected = k0(r * math.sqrt(2.0 * lam / alpha)) / (math.pi * alpha)
        assert float(g.radial(r)) == pytest.approx(expected, rel=1e-9)
    radii = np.array([0.05, 0.2, 0.9, 2.5])
    assert np.max(np.abs(g.radial(radii) - g.quadrature_radial(radii))) < 1e-8


def test_green_mass_is_reciprocal_lambda():
    for dim, lam in ((1, 1.0), (2, 0.6), (3, 2.0)):
        g = GreenFunction(iso_model(dim, 1.3), lam=lam)
        assert g.l1_mass() == pytest.approx(1.0 / lam, abs=1e-8)


def test_kernel_diverges_at_origin_above_d1():
    g1 = GreenFunction(iso_model(1, 1.0), lam=1.0)
    g3 = GreenFunction(iso_model(3, 1.0), lam=1.0)
    assert np.isfinite(g1.radial(0.0))
    assert g3.radial(0.0) == math.inf


def test_value_uses_shift_point():
    u = np.array([0.3, -0.2, 0.1])
    g = GreenFunction(iso_model(3, 1.0), lam=1.0, u=u)
    g0 = GreenFunction(iso_model(3, 1.0), lam=1.0)
    x = np.array([0.8, 0.1, -0.4])
    assert g.value(x) == pytest.approx(g0.value(x - u), rel=1e-13)
    assert GreenFunction(iso_model(3, 1.0), 1.0, u).value(x) == pytest.approx(
        g.value(x), rel=1e-13)


def test_anisotropic_value_agrees_with_whitened_quadrature():
    model = CoefficientModel.constant(b=(1.0, 0.5), c=np.array([[0.4], [0.3]]))
    g = GreenFunction(model, lam=1.0)
    x = np.array([0.6, -0.3])
    a = g.a_full

    def integrand(t):
        det = np.linalg.det(2.0 * math.pi * t * a)
        quad_form = x @ np.linalg.solve(t * a, x)
        return math.exp(-t) * math.exp(-0.5 * quad_form) / math.sqrt(det)

    expected, _ = quad(integrand, 0.0, 60.0, epsabs=1e-12, epsrel=1e-11,
                       limit=300)
    assert g.value(x) == pytest.approx(expected, rel=1e-8)
    with pytest.raises(GreenUsageError, match="isotropic"):
        g.radial(0.5)


def test_mollifier_has_unit_mass_each_dimension():
    area = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}
    for d in (1, 2, 3):
        for eps in (0.25, 0.05):
            val, _ = quad(
                lambda r: area[d] * r ** (d - 1)
                * float(mollifier_radial(r, eps, d)),
                0.0, eps, epsabs=1e-12, epsrel=1e-11)
            assert val == pytest.approx(1.0, abs=1e-9)


def test_mollified_mass_is_reciprocal_lambda():
    for dim, lam in ((1, 1.0), (2, 0.6), (3, 1.0), (3, 2.5)):
        base = GreenFunction(iso_model(dim, 1.0), lam=lam)
        for eps in (0.4, 0.1):
            assert MollifiedGreen(base, eps).mass() == pytest.approx(
                1.0 / lam, abs=1e-8)


def test_mollified_generator_identity_d1():
    """(lambda - L) G_eps = psi_eps, via finite differences of the exact
    convolution. The spline profile is bypassed on purpose: its second
    derivative carries interpolation error well above this tolerance."""
    base = GreenFunction(iso_model(1, 2.0), lam=1.3)
    moll = MollifiedGreen(base, 0.3)
    h = 1e-3
    for r in (0.05, 0.12, 0.22, 0.45):
        f0, fp, fm = (float(moll.exact_radial(x))
                      for x in (r, r + h, r - h))
        second = (fp - 2.0 * f0 + fm) / h**2
        lhs = 1.3 * f0 - 0.5 * 2.0 * second
        rhs = float(mollifier_radial(r, 0.3, 1))
        assert lhs == pytest.approx(rhs, abs=2e-4)


def test_mollified_generator_identity_d3():
    base = GreenFunction(iso_model(3, 1.0), lam=1.0)
    eps = 0.35
    moll = MollifiedGreen(base, eps)
    h = 1e-3
    for r in (0.08, 0.2, 0.35, 0.6):
        f0, fp, fm = (float(moll.exact_radial(x))
                      for x in (r, r + h, r - h))
        second = (fp - 2.0 * f0 + fm) / h**2
        first = (fp - fm) / (2.0 * h)
        lhs = f0 - 0.5 * (second + 2.0 * first / r)
        rhs = float(mollifier_radial(r, eps, 3))
        assert lhs == pytest.approx(rhs, abs=5e-4)


def test_mollified_d2_matches_direct_convolution():
    """The planar evaluator folds the angular integral analytically; this
    oracle refuses that shortcut and does the full polar double quadrature
    of bump * K0 over the disk."""
    alpha, lam, eps = 1.5, 0.8, 0.3
    base = GreenFunction(iso_model(2, alpha), lam=lam)
    moll = MollifiedGreen(base, eps)

    def oracle(r):
        def inner(s):
            def along_ring(theta):
                chord = math.sqrt(
                    max(r * r + s * s - 2.0 * r * s * math.cos(theta), 0.0))
                return k0(base.kappa * max(chord, 1e-14)) / (math.pi * alpha)
            val, _ = quad(along_ring, 0.0, math.pi,
                          epsabs=1e-13, epsrel=1e-12, limit=500)
            return 2.0 * val

        pts = [r] if 0.0 < r < eps else None
        val, _ = quad(
            lambda s: s * float(mollifier_radial(s, eps, 2)) * inner(s),
            0.0, eps, epsabs=1e-13, epsrel=1e-12, limit=500, points=pts)
        return val

    for r in (0.0, 0.05, 0.15, 0.45, 1.2):
        assert float(moll.exact_radial(r)) == pytest.approx(
            oracle(r), rel=1e-9)


def test_mollified_generator_identity_d2():
    alpha, lam, eps = 1.5, 0.8, 0.3
    base = GreenFunction(iso_model(2, alpha), lam=lam)
    moll = MollifiedGreen(base, eps)
    h = 1e-3
    for r in (0.08, 0.15, 0.22, 0.4):
        f0, fp, fm = (float(moll.exact_radial(x))
                      for x in (r, r + h, r - h))
        second = (fp - 2.0 * f0 + fm) / h**2
        first = (fp - fm) / (2.0 * h)
        lhs = lam * f0 - 0.5 * alpha * (second + first / r)
        assert lhs == pytest.approx(float(mollifier_radial(r, eps, 2)),
                                    abs=5e-4)


def test_lambda_minus_l_radial_routes():
    base = GreenFunction(iso_model(1, 2.0), lam=1.0)
    moll = MollifiedGreen(base, 0.2)
    r = np.array([0.0, 0.1, 0.3])
    same = moll.lambda_minus_l_radial(r)
    assert same == pytest.approx(mollifier_radial(r, 0.2, 1), rel=1e-12)
    # mismatched simulation generator: lambda (1 - rho) G_eps + rho psi_eps
    rho = 1.5 / 2.0
    mixed = moll.lambda_minus_l_radial(r, sim_alpha=1.5)
    expected = rho * mollifier_radial(r, 0.2, 1) + (1.0 - rho) * moll.radial(r)
    assert mixed == pytest.approx(expected, rel=1e-12)


def test_l1_localization_shrinks_with_eps():
    for dim in (1, 2, 3):
        base = GreenFunction(iso_model(dim, 1.0), lam=1.0)
        dists = [MollifiedGreen(base, eps).l1_distance_to_base()
                 for eps in (0.4, 0.2, 0.1)]
        assert dists[1] < 0.9 * dists[0]
        assert dists[2] < 0.9 * dists[1]


def test_spline_reader_tracks_exact_profile():
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3):
        base = GreenFunction(iso_model(dim, 1.0), lam=1.0)
        moll = MollifiedGreen(base, 0.25)
        radii = np.concatenate([rng.uniform(0.0, moll.eps, size=64),
                                rng.uniform(0.0, moll.support_radius, size=64),
                                [0.0, moll.eps, moll.support_radius]])
        exact = moll.exact_radial(radii)
        fast = moll.radial(radii)
        assert np.max(np.abs(exact - fast) / exact) < 1e-10, dim
        assert float(moll.radial(moll.support_radius + 1.0)) == 0.0


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("eps", [0.4, 0.05])
def test_spline_read_equals_scipy_spline(dim, eps):
    """The direct-index read inside eps is bit for bit the clamped
    CubicSpline of the exact profile on the kernel's own grid: at every
    knot below eps, at both float neighbours of each knot, at zero and at
    uniform radii."""
    base = GreenFunction(iso_model(dim, 1.0), lam=1.0)
    moll = MollifiedGreen(base, eps)
    grid = moll._grid
    slope = moll.far_scale * moll._base_slope(moll.eps)
    spline = CubicSpline(grid, moll.exact_radial(grid),
                         bc_type=((1, 0.0), (1, slope)))
    knots = grid[:-1]
    rng = np.random.default_rng(dim)
    radii = np.concatenate([
        [0.0], knots, np.nextafter(knots, -np.inf),
        np.nextafter(knots, np.inf), rng.uniform(0.0, eps, size=10 ** 4)])
    radii = radii[(radii >= 0.0) & (radii < eps)]
    fast = moll.radial(radii)
    ref = spline(radii)
    assert np.array_equal(fast.view(np.int64), ref.view(np.int64))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_far_field_is_scaled_sharp_kernel(dim):
    """Beyond eps the bump sits inside the region where the sharp kernel
    solves the homogeneous equation, so its spherical means factor:
    G_eps(r) = C_d G(r) with C_d = integral of psi_eps(y) phi(kappa |y|),
    phi = cosh, I0, sinh(x)/x in d = 1, 2, 3. The ratio of the panel
    quadrature to the sharp kernel must be that constant, computed here
    by adaptive quadrature."""
    alpha, lam, eps = 1.3, 0.8, 0.3
    base = GreenFunction(iso_model(dim, alpha), lam=lam)
    moll = MollifiedGreen(base, eps)
    kap = base.kappa
    phi = {1: math.cosh, 2: lambda x: float(i0(x)),
           3: lambda x: math.sinh(x) / x}[dim]
    area = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}[dim]
    c_d, _ = quad(lambda s: area * s ** (dim - 1)
                  * float(mollifier_radial(s, eps, dim)) * phi(kap * s),
                  1e-300, eps, epsabs=0.0, epsrel=1e-13)
    assert moll.far_scale == pytest.approx(c_d, rel=1e-12)
    radii = np.array([eps, 1.1 * eps, 0.7, 2.0, 6.0])
    ratio = moll.exact_radial(radii) / base.radial(radii)
    assert ratio == pytest.approx(np.full(radii.shape, c_d), rel=1e-10)


def test_peak_grows_as_eps_shrinks_d3():
    base = GreenFunction(iso_model(3, 1.0), lam=1.0)
    peaks = [float(MollifiedGreen(base, eps).radial(0.0))
             for eps in (0.4, 0.2, 0.1)]
    assert peaks[0] < peaks[1] < peaks[2]
    assert np.isfinite(peaks[-1])


def test_mollified_guards():
    base1 = GreenFunction(iso_model(1, 1.0), lam=1.0)
    with pytest.raises(GreenUsageError, match="eps"):
        MollifiedGreen(base1, 0.0)
    base4 = GreenFunction(iso_model(4, 1.0), lam=1.0)
    with pytest.raises(GreenUsageError, match="dimension"):
        MollifiedGreen(base4, 0.1)
    with pytest.raises(GreenUsageError, match="lambda"):
        GreenFunction(iso_model(1, 1.0), lam=0.0)
