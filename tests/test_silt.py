"""Renormalized self-intersection estimators.

The frozen single-atom trajectory gives grid-exact closed forms for every
component, which pins the quadrature conventions; ensemble behavior
(residual decay, coupled studies) is exercised at small scale.
"""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from flowsilt.engine import RecordedTrajectory, simulate_ensemble
from flowsilt.green import GreenFunction, MollifiedGreen, mollifier_radial
from flowsilt.model import CoefficientModel, InitialMeasureSpec
import flowsilt.silt as silt
from flowsilt.silt import (
    EpsStudy,
    PairGrid,
    ResolutionError,
    SiltUsageError,
    _components,
    _pair_pass,
    decomposition_ensemble,
    epsilon_convergence_study,
    gamma_epsilon,
    isotropic_alpha,
    small_ball_lambda,
    tanaka_decomposition,
    write_components_csv,
    write_study_csv,
)

BM1 = CoefficientModel.constant(b=(1.0,), c=((1.0,),))   # a = 2
STILL = CoefficientModel.constant(b=(0.0,), c=((0.0,),))  # frozen paths

G_EPS_AT_ZERO = 0.46807919370435286  # a=2, lambda=1, eps=0.2 mollified kernel


def frozen_atom_trajectory(n=16, horizon=1.0, pos=0.0, weight=1.0):
    times = np.linspace(0.0, horizon, n + 1)
    atoms = np.full((1, 1), pos)
    return RecordedTrajectory(times=times, positions=[atoms] * (n + 1),
                              weight=weight, n=n, sub_steps=1, model=STILL)


def bm1_kernel(eps=0.2, lam=1.0, u=None):
    return MollifiedGreen(GreenFunction(BM1, lam, u), eps)


def test_mollified_kernel_at_zero_against_direct_convolution():
    kern = bm1_kernel()
    direct, _ = quad(
        lambda s: float(mollifier_radial(s, 0.2, 1))
        * math.exp(-abs(s)) / 2.0,
        -0.2, 0.2, epsabs=1e-13, epsrel=1e-12)
    assert float(kern.radial(0.0)) == pytest.approx(direct, abs=1e-10)
    assert float(kern.radial(0.0)) == pytest.approx(G_EPS_AT_ZERO, abs=1e-12)


def test_frozen_atom_component_closed_forms():
    """Single still atom: every pair radius is zero, so each component is
    a counting exercise: gamma = lam*G_eps(0)*dt^2*C(n,2) with rho = 0,
    double point = G_eps(0)*T. Frozen numerics guard the conventions."""
    traj = frozen_atom_trajectory()
    kern = bm1_kernel()
    gamma = gamma_epsilon(traj, kern, 1.0, 1.0)
    comp = tanaka_decomposition(traj, kern, 1.0, 1.0)
    dp = comp.double_point

    dt = 1.0 / 16.0
    pair_count = 16 * 15 / 2.0
    assert gamma == pytest.approx(G_EPS_AT_ZERO * dt * dt * pair_count,
                                  rel=1e-14)
    assert gamma == pytest.approx(0.21941212204891541, abs=1e-15)
    assert dp == pytest.approx(G_EPS_AT_ZERO, abs=1e-15)

    assert comp.gamma == pytest.approx(gamma, rel=1e-13)
    assert comp.stochastic_term == 0.0
    assert comp.ito_residual == 0.0
    assert comp.renormalized == comp.gamma - comp.double_point
    # rho = 0 collapses gamma to the lambda term
    assert comp.lambda_term == pytest.approx(gamma, rel=1e-14)
    assert comp.boundary_term == pytest.approx(dp, rel=1e-14)


def test_far_shift_kills_every_component():
    traj = frozen_atom_trajectory()
    kern = bm1_kernel(u=(50.0,))
    comp = tanaka_decomposition(traj, kern, 1.0, 1.0)
    for field in ("gamma", "double_point", "lambda_term", "boundary_term",
                  "stochastic_term", "renormalized"):
        assert abs(getattr(comp, field)) < 1e-10


def test_gamma_matches_manual_pair_sum_with_shift():
    """Nested-loop recomputation of the shifted pair sum, checking both
    the cell bookkeeping and the off-center kernel evaluation."""
    result = simulate_ensemble(BM1, InitialMeasureSpec.point((0.0,), 1.0),
                               n=16, horizon=0.5, seed=42, replicates=1,
                               record="full")
    traj = result.trajectory(0)
    u = 0.3
    kern = bm1_kernel(u=(u,))
    alpha = isotropic_alpha(BM1)
    upto = len(traj.times) - 1
    dt = traj.dt

    manual = 0.0
    for j in range(1, upto):
        for i in range(j):
            xi, xj = traj.positions[i], traj.positions[j]
            radii = np.abs(xi[:, None, 0] - xj[None, :, 0] - u)
            vals = kern.lambda_minus_l_radial(radii, sim_alpha=alpha)
            manual += traj.weight ** 2 * float(vals.sum())
    manual *= dt * dt

    assert gamma_epsilon(traj, kern, 1.0, 0.5) == pytest.approx(
        manual, rel=1e-12)


def iso_model(dim, alpha):
    b = math.sqrt(alpha / 2.0)
    return CoefficientModel.constant(b=(b,) * dim, c=b * np.eye(dim))


def _rel(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("block_pairs", [silt.BLOCK_PAIRS, 40])
def test_streaming_pass_matches_dense_pair_grid(dim, block_pairs, monkeypatch):
    """Column totals, super-diagonal and diagonal of the streaming pass
    against the dense radius tensor, with a shift u != 0 and a kernel
    built for a different diffusivity than the simulation (rho != 1), so
    (lambda - L_sim) G_eps has no compact support. block_pairs = 40
    splits every column into blocks of one or a few snapshots."""
    monkeypatch.setattr(silt, "BLOCK_PAIRS", block_pairs)
    sim = iso_model(dim, 1.0)
    result = simulate_ensemble(sim, InitialMeasureSpec.point((0.0,) * dim),
                               n=16, horizon=0.5, seed=4, replicates=1,
                               record="full")
    traj = result.trajectory(0)
    upto = len(traj.times) - 1
    u = np.linspace(0.05, 0.15, dim)
    kern = MollifiedGreen(GreenFunction(iso_model(dim, 1.6), 1.0, u), 0.2)
    reads = [
        (kern.radial, math.inf),
        silt._gamma_read(kern, 1.0),
        (kern.lambda_minus_l_radial, kern.eps),
        (lambda r: (r <= 0.1) / 0.2, 0.1),
    ]
    assert reads[1][1] == math.inf   # rho != 1: not compact
    cells, diag = _pair_pass(traj, u, upto, strict=reads, diag=reads)
    grid = PairGrid(traj, u, upto)
    for k, (fn, _) in enumerate(reads):
        dense = grid.strict_matrix(fn)
        assert _rel(cells[k].sum(axis=0), dense.sum(axis=0)) < 1e-12
        assert _rel(np.diagonal(cells[k], 1), np.diagonal(dense, 1)) < 1e-12
        assert _rel(diag[k], grid.diagonal(fn)) < 1e-12
        assert np.all(np.tril(cells[k]) == 0.0)


@pytest.mark.parametrize("dim", [1, 3])
def test_estimators_match_dense_pair_grid(dim):
    sim = iso_model(dim, 1.0)
    result = simulate_ensemble(sim, InitialMeasureSpec.point((0.0,) * dim),
                               n=16, horizon=0.5, seed=8, replicates=1,
                               record="full")
    traj = result.trajectory(0)
    upto = len(traj.times) - 1
    u = np.full(dim, 0.1)
    kern = MollifiedGreen(GreenFunction(iso_model(dim, 1.6), 1.0, u), 0.2)
    grid = PairGrid(traj, u, upto)
    dt = traj.dt
    rho = 1.0 / 1.6

    gamma = dt * dt * grid.strict_total(
        lambda r: kern.lambda_minus_l_radial(r, sim_alpha=1.0), upto - 1)
    assert gamma_epsilon(traj, kern, 1.0, 0.5) == pytest.approx(gamma,
                                                                rel=1e-12)
    dp = dt * float(grid.diagonal(kern.radial)[:upto].sum())
    comp = tanaka_decomposition(traj, kern, 1.0, 0.5)
    assert comp.double_point == pytest.approx(dp, rel=1e-12)

    dense = _components(grid.strict_matrix(kern.radial),
                        grid.strict_matrix(kern.lambda_minus_l_radial),
                        grid.diagonal(kern.radial), 1.0, rho, dt, upto)
    for field in ("gamma", "double_point", "lambda_term", "boundary_term",
                  "stochastic_term", "renormalized"):
        assert getattr(comp, field) == pytest.approx(getattr(dense, field),
                                                     rel=1e-12)
    assert comp.ito_residual == pytest.approx(dense.ito_residual,
                                              rel=1e-9, abs=1e-14)


def _fixed_population_trajectory(steps, atoms=100):
    """A frozen cloud of a fixed number of atoms at every time."""
    rng = np.random.default_rng(steps)
    times = np.linspace(0.0, 1.0, steps + 1)
    positions = [rng.normal(size=(atoms, 1)) for _ in times]
    return RecordedTrajectory(times=times, positions=positions,
                              weight=1.0 / atoms, n=steps, sub_steps=1,
                              model=STILL)


def test_gamma_memory_grows_at_most_linearly_in_steps():
    """Peak traced memory of one gamma estimate with a fixed population:
    a J^2 A^2 radius tensor would grow fourfold when J doubles."""
    kern = bm1_kernel()
    peaks = []
    for steps in (16, 32):
        traj = _fixed_population_trajectory(steps)
        tracemalloc.start()
        try:
            gamma_epsilon(traj, kern, 1.0, 1.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.2 * peaks[0]


def test_kernel_lambda_mismatch_rejected():
    traj = frozen_atom_trajectory()
    with pytest.raises(SiltUsageError, match="lambda"):
        gamma_epsilon(traj, bm1_kernel(lam=1.0), 2.0, 1.0)


def test_coarse_grid_rejected():
    traj = frozen_atom_trajectory(n=4)
    with pytest.raises(ResolutionError, match="time points"):
        gamma_epsilon(traj, bm1_kernel(), 1.0, 1.0)


def test_anisotropic_simulation_model_rejected():
    aniso = CoefficientModel.constant(b=(1.0, 2.0), c=np.zeros((2, 1)))
    with pytest.raises(SiltUsageError, match="isotropic"):
        isotropic_alpha(aniso)


def test_residual_shrinks_when_substeps_double():
    rms = []
    for sub in (2, 4):
        result = simulate_ensemble(BM1, InitialMeasureSpec.point((0.0,), 1.0),
                                   n=8, horizon=0.5, seed=7, replicates=300,
                                   sub_steps=sub, record="full")
        comps = decomposition_ensemble(result, bm1_kernel(), 1.0, 0.5)
        rms.append(math.sqrt(
            np.mean([c.ito_residual ** 2 for c in comps])))
    assert rms[1] < 0.85 * rms[0]


def test_decomposition_ensemble_identity_is_bitwise():
    result = simulate_ensemble(BM1, InitialMeasureSpec.point((0.0,), 1.0),
                               n=16, horizon=0.5, seed=3, replicates=8,
                               record="full")
    for comp in decomposition_ensemble(result, bm1_kernel(), 1.0, 0.5):
        assert comp.renormalized == comp.gamma - comp.double_point


def test_eps_study_guards():
    init = InitialMeasureSpec.point((0.0,), 1.0)
    with pytest.raises(SiltUsageError, match="three"):
        epsilon_convergence_study(BM1, init, 16, 0.5, 1.0, (0.0,),
                                  (0.4, 0.2), 4, 1)
    with pytest.raises(SiltUsageError, match="positive"):
        epsilon_convergence_study(BM1, init, 16, 0.5, 1.0, (0.0,),
                                  (0.4, 0.2, -0.1), 4, 1)
    for schedule in ((0.2, 0.4, 0.1), (0.2, 0.2, 0.1)):
        with pytest.raises(SiltUsageError, match="strictly decreasing"):
            epsilon_convergence_study(BM1, init, 16, 0.5, 1.0, (0.0,),
                                      schedule, 4, 1)


def test_eps_study_columns_are_coupled_and_summarized():
    study = epsilon_convergence_study(
        BM1, InitialMeasureSpec.point((0.0,), 1.0), 32, 0.5, 1.0, (0.0,),
        (0.4, 0.2, 0.1), replicates=24, seed=5)
    assert study.renormalized.shape == (24, 3)
    assert study.double_points.shape == (24, 3)
    assert len(study.distances) == 2
    assert study.variances.shape == (3,)
    assert np.all(np.isfinite(study.small_ball))
    assert study.extrapolated_limit().shape == (24,)
    # same paths, different kernels: distances far below the variance scale
    for _, _, l2, _ in study.distances:
        assert 0.0 < l2 < float(study.variances.max())


def test_extrapolated_limit_cancels_linear_and_quadratic_error():
    eps = (0.4, 0.2, 0.1, 0.05)
    rng = np.random.default_rng(0)
    truth = rng.normal(size=5)
    c1 = rng.normal(size=5)
    c2 = rng.normal(size=5)
    cols = np.stack([truth + c1 * e + c2 * e * e for e in eps], axis=1)
    study = EpsStudy(eps=eps, renormalized=cols, double_points=np.zeros_like(cols),
                     distances=[], variances=cols.var(axis=0))
    assert study.extrapolated_limit() == pytest.approx(truth, abs=1e-12)


def test_renormalized_variance_stays_banded_d1():
    """Shrinking eps sharpens the kernel but must not inflate the spread
    of the renormalized value in one dimension. A factor-2 band is the
    contract; the observed band is a couple of percent."""
    study = epsilon_convergence_study(
        BM1, InitialMeasureSpec.point((0.0,), 1.0), 48, 0.5, 1.0,
        np.zeros(1), (0.4, 0.2, 0.1, 0.05), replicates=80, seed=14,
        sub_steps=1)
    v = study.variances
    assert float(v.max()) <= 2.0 * float(v.min())


@pytest.mark.parametrize("dim", [2, 3])
def test_double_point_mean_grows_as_eps_shrinks(dim):
    b = 1.0 / math.sqrt(2.0)
    model = CoefficientModel.constant(b=(b,) * dim, c=b * np.eye(dim))
    study = epsilon_convergence_study(
        model, InitialMeasureSpec.point((0.0,) * dim, 1.0), 32, 0.25, 1.0,
        np.zeros(dim), (0.4, 0.2, 0.1, 0.05), replicates=60, seed=21,
        sub_steps=1)
    means = study.double_points.mean(axis=0)
    # the study reuses one path set per replicate across the schedule, so
    # the step noise is the paired spread, far below the raw spread
    steps = np.diff(study.double_points, axis=1)
    se = steps.std(axis=0, ddof=1) / math.sqrt(steps.shape[0])
    assert np.all(np.diff(means) > 5.0 * se)


def test_small_ball_is_one_dimensional_only():
    b = 1.0 / math.sqrt(2.0)
    model3 = CoefficientModel.constant(b=(b,) * 3, c=b * np.eye(3))
    result = simulate_ensemble(model3, InitialMeasureSpec.point((0.0,) * 3, 1.0),
                               n=8, horizon=0.5, seed=1, replicates=1,
                               record="full")
    traj = result.trajectory(0)
    base = GreenFunction(model3, 1.0)
    with pytest.raises(SiltUsageError, match="one-dimensional"):
        small_ball_lambda(traj, base, 0.1)


def test_component_csv_round_trip(tmp_path):
    result = simulate_ensemble(BM1, InitialMeasureSpec.point((0.0,), 1.0),
                               n=16, horizon=0.5, seed=9, replicates=3,
                               record="full")
    comps = decomposition_ensemble(result, bm1_kernel(), 1.0, 0.5)
    path = tmp_path / "components.csv"
    write_components_csv(path, [(r, 0.2, c) for r, c in enumerate(comps)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("replicate,eps,gamma,double_point,lambda_term,"
                        "boundary_term,stochastic_term,renormalized,"
                        "ito_residual")
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[2]) == comps[0].gamma


def test_study_csv_layout(tmp_path):
    study = epsilon_convergence_study(
        BM1, InitialMeasureSpec.point((0.0,), 1.0), 16, 0.5, 1.0, (0.0,),
        (0.4, 0.2, 0.1), replicates=4, seed=2)
    path = tmp_path / "study.csv"
    write_study_csv(path, study)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "eps_i,eps_j,L2_distance,stderr"
    assert len(lines) == 3
    assert [float(lines[1].split(",")[0])] == [0.4]


# ---------------------------------------------------------------------------
# frozen values: the pair pass and the kernel reads change no bit

def _a08_replicate():
    """One replicate in the shape of A08 (bm1d, n=16, horizon 0.5) at
    sub_steps 4: 33 snapshots, ending in a small tail."""
    result = simulate_ensemble(BM1, InitialMeasureSpec.point((0.0,), 1.0),
                               n=16, horizon=0.5, seed=808, replicates=1,
                               sub_steps=4, record="full")
    return result.trajectory(0)


def _lattice_3d():
    pts = np.linspace(-0.525, 0.525, 4)
    atoms = [((x, y, z), 1.0 / 64.0) for x in pts for y in pts for z in pts]
    return InitialMeasureSpec.from_atoms(atoms)


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def test_tanaka_components_frozen():
    comp = tanaka_decomposition(_a08_replicate(), bm1_kernel(), 1.0, 0.5)
    assert _hex([comp.gamma, comp.double_point, comp.lambda_term,
                 comp.boundary_term, comp.stochastic_term,
                 comp.renormalized, comp.ito_residual]) == [
        "0x1.06e9cbb3e761ap-6", "0x1.014f063f99f30p-4",
        "0x1.f5617b411e1aap-8", "0x1.d1f0acfb5a802p-9",
        "-0x1.7423e9234367cp-5", "-0x1.7f2926a540353p-5",
        "-0x1.649310d357460p-8"]


def test_eps_study_d1_frozen():
    study = epsilon_convergence_study(
        BM1, InitialMeasureSpec.point((0.0,), 1.0), 32, 0.5, 1.0, (0.0,),
        (0.4, 0.2, 0.1, 0.05), replicates=2, seed=11, sub_steps=1)
    assert _hex(study.renormalized) == [
        "-0x1.51ac07151242ap-4", "-0x1.5796e67ef0612p-4",
        "-0x1.5367e46f3c704p-4", "-0x1.4926d00f99769p-4",
        "-0x1.e9aca29cc9c74p-5", "-0x1.fdf05b95acd66p-5",
        "-0x1.03ea8c43e2e5dp-4", "-0x1.0bce1408fe0e4p-4"]
    assert _hex(study.double_points) == [
        "0x1.d0b1a80a052f3p-4", "0x1.dc869afe30f55p-4",
        "0x1.e16ede271e838p-4", "0x1.e39718f27db42p-4",
        "0x1.52da4b0f12f62p-4", "0x1.5bbe179e2aabdp-4",
        "0x1.5f9149ee6dd1ap-4", "0x1.6155d07701b3cp-4"]
    assert _hex(study.small_ball) == ["-0x1.29ddfb3c9b5e0p-4",
                                      "-0x1.1dcc2eef83331p-4"]


@pytest.mark.filterwarnings("ignore:Degrees of freedom")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_eps_study_d3_frozen():
    """One replicate of the benchmark's A10-shaped d=3 study."""
    model = CoefficientModel.constant(b=(1.0, 1.0, 1.0), c=np.eye(3))
    study = epsilon_convergence_study(
        model, _lattice_3d(), 256, 0.0625, 1.0, np.zeros(3),
        (0.4, 0.2, 0.1, 0.05), replicates=1, seed=77, sub_steps=1)
    assert _hex(study.renormalized) == [
        "-0x1.a3f987e45367ap-9", "-0x1.c4fa19c18ab1bp-9",
        "-0x1.ffbf0270d6170p-9", "-0x1.3c8fac01e0400p-8"]
    assert _hex(study.double_points) == [
        "0x1.f5b655d68f3fap-9", "0x1.17d9ff5477a2ap-8",
        "0x1.3c27530f4d044p-8", "0x1.7aba06ed29233p-8"]


def test_eps_study_d2_frozen():
    """Two replicates of a d=2 study on a 3x3 lattice with a shift: every
    strict read is compact (rho = 1) and the same-time reads share one
    sharp read, and no small-ball read is taken."""
    model = CoefficientModel.constant(b=(1.0, 1.0), c=np.eye(2))
    pts = np.linspace(-0.3, 0.3, 3)
    initial = InitialMeasureSpec.from_atoms(
        [((x, y), 1.0 / 9.0) for x in pts for y in pts])
    study = epsilon_convergence_study(
        model, initial, 64, 0.25, 1.0, np.array([0.05, -0.1]),
        (0.4, 0.2, 0.1, 0.05), replicates=2, seed=21, sub_steps=1)
    assert _hex(study.renormalized) == [
        "-0x1.d081632674b77p-6", "-0x1.d8976c75f5f90p-6",
        "-0x1.db98226617b54p-6", "-0x1.d6981fd44d195p-6",
        "-0x1.b70934c23d13fp-8", "-0x1.cba4700b33608p-8",
        "-0x1.d16bc26a9e417p-8", "-0x1.c35be889ceacap-8"]
    assert _hex(study.double_points) == [
        "0x1.53052566c5818p-5", "0x1.5f29e1f3930cdp-5",
        "0x1.61cd7c7aeb8aap-5", "0x1.623f7b1e97bb6p-5",
        "0x1.fd04967e041dcp-8", "0x1.0c8ba43653bbap-7",
        "0x1.0f9601ae6375dp-7", "0x1.1018ecf5f5d68p-7"]


# one MollifiedGreen.radial call per non-empty same-time block and per
# strict block, as the pass read them before blocks were filled
UNFILLED_RADIAL_CALLS = 65


def test_filled_blocks_cut_kernel_calls(monkeypatch):
    traj = _a08_replicate()
    kern = bm1_kernel()
    calls = []
    radial = MollifiedGreen.radial

    def counting(self, r):
        calls.append(np.size(r))
        return radial(self, r)

    monkeypatch.setattr(MollifiedGreen, "radial", counting)
    tanaka_decomposition(traj, kern, 1.0, 0.5)
    assert 0 < len(calls) <= UNFILLED_RADIAL_CALLS // 5


def _ragged_trajectory(dim):
    """A frozen cloud whose sizes vary by column: snapshots wider than the
    small block caps, empty columns inside, and an extinct tail."""
    sizes = (48, 40, 33, 20, 9, 0, 5, 3, 0, 1, 2, 0, 0, 0)
    rng = np.random.default_rng(dim)
    times = np.linspace(0.0, 1.0, len(sizes))
    positions = [rng.normal(scale=0.3, size=(k, dim)) for k in sizes]
    return RecordedTrajectory(times=times, positions=positions,
                              weight=1.0 / 48, n=len(sizes) - 1,
                              sub_steps=1, model=iso_model(dim, 1.0))


@pytest.mark.parametrize("dim", [1, 3])
def test_block_layout_changes_no_bit(dim, monkeypatch):
    traj = _ragged_trajectory(dim)
    last = len(traj.times) - 1
    u = np.linspace(0.05, 0.15, dim)
    kern = MollifiedGreen(GreenFunction(iso_model(dim, 1.6), 1.0, u), 0.2)
    reads = [
        (kern.radial, math.inf),
        silt._gamma_read(kern, 1.0),
        (kern.lambda_minus_l_radial, kern.eps),
        (lambda r: (r <= 0.1) / 0.2, 0.1),
    ]
    runs = []
    for block_pairs in (40, 1 << 10, silt.BLOCK_PAIRS, 1 << 30):
        monkeypatch.setattr(silt, "BLOCK_PAIRS", block_pairs)
        runs.append(_pair_pass(traj, u, last, strict=reads, diag=reads))
    cells, diag = runs[0]
    assert np.any(cells != 0.0) and np.any(diag != 0.0)
    for other_cells, other_diag in runs[1:]:
        assert np.array_equal(other_cells.view(np.int64),
                              cells.view(np.int64))
        assert np.array_equal(other_diag.view(np.int64), diag.view(np.int64))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("centre", [0.0, 1e3, 1e6])
def test_reach_filter_equals_filtered_full_radii(dim, centre):
    """The strict pairs within reach are the full block's radii filtered
    by <= R, bit for bit in indices and radii: on a ragged cloud with
    empty columns moved to centre, with a ring of points at distance
    about R from one point, and at reaches that sit exactly on a formed
    radius and one ulp either side of it."""
    traj = _ragged_trajectory(dim)
    shift = np.linspace(0.05, 0.15, dim)
    rng = np.random.default_rng(10 + dim)
    dirs = rng.normal(size=(64, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    target = traj.positions[0][0] + shift
    ring = target + 0.2 * dirs
    positions = [ring] + traj.positions
    positions = [p + centre for p in positions]
    flat = np.concatenate(positions)
    off = silt._offsets(positions)
    ring_radii = silt._radii(flat[:64], flat[64][None], shift)
    r0 = float(np.sort(ring_radii)[32])
    for reach in (np.nextafter(r0, 0.0), r0, np.nextafter(r0, np.inf)):
        filt = silt._ReachFilter(flat, shift, reach)
        kept = dropped = 0
        for j in range(1, len(positions)):
            col = slice(off[j], off[j + 1])
            for rows in [slice(off[i], off[i + 1]) for i in range(j)] + [
                    slice(0, off[j])]:
                full = silt._radii(flat[rows, None], flat[None, col],
                                   shift).reshape(-1)
                ref = np.flatnonzero(full <= reach)
                idx, radii = filt.pairs(rows, col)
                assert np.array_equal(idx, ref)
                assert np.array_equal(radii.view(np.int64),
                                      full[ref].view(np.int64))
                kept += ref.size
                dropped += full.size - ref.size
        assert kept > 0 and dropped > 0
    assert np.any(ring_radii == r0)


def _piecewise_radial(kern, r):
    """The mollified read assembled piece by piece: the spline below eps,
    the scaled sharp kernel up to the support radius, zero beyond."""
    out = np.zeros(r.shape)
    inner = r < kern.eps
    out[inner] = kern._spline_read(r[inner])
    outer = ~inner & (r <= kern.support_radius)
    out[outer] = kern.far_scale * kern.base.radial(r[outer])
    return np.maximum(out, 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_same_time_rows_equal_single_kernel_reads(dim):
    """Each row of the shared same-time read is bit for bit the kernel's
    own read and the piecewise read, and the sharp row the base read, at
    r = 0, at a subnormal radius, at each eps, at each support radius and
    one ulp either side, and beyond every support; no read warns."""
    base = GreenFunction(iso_model(dim, 2.0), 1.0)
    kernels = [MollifiedGreen(base, e) for e in (0.4, 0.2, 0.1, 0.05)]
    marks = [k.eps for k in kernels] + [k.support_radius for k in kernels]
    widest = max(k.support_radius for k in kernels)
    r = np.concatenate([
        [0.0, 5e-324], marks, np.nextafter(marks, 0.0),
        np.nextafter(marks, np.inf), np.linspace(0.0, widest, 1001),
        [widest * 1.5, widest * 4.0, 1e3]])
    for with_sharp in (False, True):
        fn, reach, height = silt._same_time_rows(kernels, with_sharp)
        assert reach == math.inf
        rows = list(fn(r))
        assert len(rows) == height == len(kernels) + with_sharp
        for kern, row in zip(kernels, rows):
            assert np.array_equal(row, kern.radial(r))
            assert np.array_equal(row.view(np.int64),
                                  kern.radial(r).view(np.int64))
            assert np.array_equal(row.view(np.int64),
                                  _piecewise_radial(kern, r).view(np.int64))
        if with_sharp:
            assert np.array_equal(rows[-1], base.radial(r))
    for kern in kernels:
        beyond = kern.radial(np.nextafter(kern.support_radius, np.inf))
        assert float(beyond) == 0.0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_strict_radii_beyond_reach_change_no_bit(dim, monkeypatch):
    """Compact strict reads alone (only the pairs within the widest reach
    are formed) give the cells that the same reads give next to an
    infinite-reach read (every strict radius formed), bit for bit."""
    traj = _ragged_trajectory(dim)
    last = len(traj.times) - 1
    u = np.linspace(0.05, 0.15, dim)
    kern = MollifiedGreen(GreenFunction(iso_model(dim, 1.0), 1.0, u), 0.2)
    compact = [silt._gamma_read(kern, kern.base.alpha),
               (lambda r: (r <= 0.1) / 0.2, 0.1)]
    assert compact[0][1] == kern.eps   # rho = 1: compact
    everything = compact + [(np.zeros_like, math.inf)]
    for block_pairs in (40, silt.BLOCK_PAIRS):
        monkeypatch.setattr(silt, "BLOCK_PAIRS", block_pairs)
        near, _ = _pair_pass(traj, u, last, strict=compact)
        full, _ = _pair_pass(traj, u, last, strict=everything)
        assert np.any(near != 0.0)
        assert np.array_equal(near.view(np.int64), full[:2].view(np.int64))
