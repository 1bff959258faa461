"""Branching-particle engine: criticality, reproducibility, martingales."""

from __future__ import annotations

import math

import numpy as np
import pytest

from flowsilt.engine import (
    EngineUsageError,
    MartingaleSpec,
    ObservableSpec,
    SimulationDiverged,
    generator_values,
    simulate_ensemble,
    write_replicate_csv,
)
from flowsilt.model import (
    CoefficientModel,
    GaussianBump,
    InitialMeasureSpec,
    TestFunction,
    a_matrix,
)

from oracles import martingale_path

BM1D = CoefficientModel.constant([1.0], [[1.0]])
DELTA0 = InitialMeasureSpec.point([0.0])


def test_total_mass_is_critical_with_exact_variance():
    """Mean mass stays at mu_0(1); Var mu_T(1) = T exactly on the grid."""
    res = simulate_ensemble(BM1D, DELTA0, 40, 0.5, seed=101, replicates=3000,
                            sub_steps=1, record="none")
    mass = res.final_mass
    r = mass.size
    se_mean = mass.std(ddof=1) / math.sqrt(r)
    assert abs(mass.mean() - 1.0) < 4.0 * se_mean

    s2 = mass.var(ddof=1)
    m4 = np.mean((mass - mass.mean()) ** 4)
    se_var = math.sqrt(max(m4 - (r - 3) / (r - 1) * s2**2, 0.0) / r)
    assert abs(s2 - 0.5) < 5.0 * se_var


def test_offspring_splits_are_fair_coins():
    res = simulate_ensemble(BM1D, DELTA0, 40, 0.5, seed=55, replicates=1000,
                            sub_steps=1, record="none")
    events = res.split_count + res.death_count
    p_hat = res.split_count / events
    assert abs(p_hat - 0.5) < 4.0 * math.sqrt(0.25 / events)


def test_same_seed_reproduces_bitwise():
    kw = dict(sub_steps=2, record="mass")
    a = simulate_ensemble(BM1D, DELTA0, 20, 0.5, seed=7, replicates=8, **kw)
    b = simulate_ensemble(BM1D, DELTA0, 20, 0.5, seed=7, replicates=8, **kw)
    assert np.array_equal(a.final_mass, b.final_mass)
    assert np.array_equal(a.mass_path, b.mass_path)
    assert (a.split_count, a.death_count) == (b.split_count, b.death_count)


def test_worker_partitioning_changes_nothing():
    kw = dict(sub_steps=2, record="full")
    one = simulate_ensemble(BM1D, DELTA0, 16, 0.5, seed=31, replicates=6,
                            workers=1, **kw)
    three = simulate_ensemble(BM1D, DELTA0, 16, 0.5, seed=31, replicates=6,
                              workers=3, **kw)
    assert np.array_equal(one.final_mass, three.final_mass)
    assert one.split_count == three.split_count
    for r in (0, 3, 5):
        ta = one.trajectory(r)
        tb = three.trajectory(r)
        assert np.array_equal(ta.times, tb.times)
        for pa, pb in zip(ta.positions, tb.positions):
            assert np.array_equal(pa, pb)


def test_replicates_are_decoupled_from_batch_size():
    # replicate k alone equals replicate k inside a larger batch
    solo = simulate_ensemble(BM1D, DELTA0, 16, 0.5, seed=31, replicates=1,
                             sub_steps=1, record="mass", replicate_offset=2)
    batch = simulate_ensemble(BM1D, DELTA0, 16, 0.5, seed=31, replicates=5,
                              sub_steps=1, record="mass")
    assert np.array_equal(solo.mass_path[:, 0], batch.mass_path[:, 2])


def test_mass_changes_only_at_branch_times():
    res = simulate_ensemble(BM1D, DELTA0, 8, 0.5, seed=3, replicates=2,
                            sub_steps=4, record="mass")
    path = res.mass_path
    for j in range(path.shape[0] - 1):
        if (j + 1) % 4 != 0:
            assert np.array_equal(path[j + 1], path[j])


def test_martingale_mean_zero_and_bracket():
    f = GaussianBump([0.0], [[1.0]])
    res = simulate_ensemble(BM1D, DELTA0, 50, 0.5, seed=12, replicates=2000,
                            sub_steps=1, martingales=[MartingaleSpec("z", f)],
                            record="none")
    acc = res.martingales["z"]
    se = acc.z_final.std(ddof=1) / math.sqrt(acc.z_final.size)
    assert abs(acc.z_final.mean()) < 4.0 * se
    emp = float(np.mean(acc.z_final ** 2))
    pred = float(np.mean(acc.bracket))
    assert pred > 0
    assert abs(emp - pred) / pred < 0.10


def test_martingale_path_matches_ensemble_accumulator():
    f = GaussianBump([0.0], [[2.0]], amplitude=0.7)
    res = simulate_ensemble(BM1D, DELTA0, 12, 1.0, seed=9, replicates=1,
                            sub_steps=2, martingales=[MartingaleSpec("z", f)],
                            record="full")
    traj = res.trajectory(0)
    z_path = martingale_path(traj.positions, traj.dt, traj.weight, f.center,
                             f.precision, f.amplitude, a_matrix(BM1D))
    assert z_path[0] == 0.0
    assert z_path[-1] == pytest.approx(float(res.martingales["z"].z_final[0]),
                                       rel=1e-9, abs=1e-12)


def test_observables_recorded_at_requested_times():
    f = GaussianBump([0.0], [[1.0]])
    spec = ObservableSpec("bump", f, (0.0, 0.25, 0.5))
    res = simulate_ensemble(BM1D, DELTA0, 8, 0.5, seed=21, replicates=3,
                            sub_steps=1, observables=[spec], record="mass")
    times, vals = res.observables["bump"]
    assert np.allclose(times, [0.0, 0.25, 0.5])
    assert vals.shape == (3, 3)
    # every atom starts at the origin, so <f, mu_0> is exactly f(0)
    assert np.allclose(vals[:, 0], 1.0)


def test_duplicate_observable_names_rejected():
    f = GaussianBump([0.0], [[1.0]])
    with pytest.raises(EngineUsageError, match="unique"):
        simulate_ensemble(BM1D, DELTA0, 8, 0.25, seed=1, replicates=1,
                          observables=[ObservableSpec("x", f, (0.0,)),
                                       ObservableSpec("x", f, (0.25,))])


def test_init_population_largest_remainder_rounding():
    spec = InitialMeasureSpec.from_atoms([([0.0], 0.6), ([1.0], 0.4)])
    res = simulate_ensemble(BM1D, spec, 5, horizon=0.0, seed=0, replicates=1,
                            record="full")
    traj = res.trajectory(0)
    atoms = traj.positions[traj.snap_index(0.0)]
    assert atoms.shape == (5, 1)
    assert np.sum(atoms[:, 0] == 0.0) == 3
    assert np.sum(atoms[:, 0] == 1.0) == 2
    assert res.final_mass[0] == pytest.approx(1.0)

    uneven = InitialMeasureSpec.from_atoms([([0.0], 0.5), ([1.0], 0.25), ([2.0], 0.25)])
    res2 = simulate_ensemble(BM1D, uneven, 2, horizon=0.0, seed=0,
                             replicates=1, record="full")
    traj2 = res2.trajectory(0)
    assert traj2.positions[traj2.snap_index(0.0)].shape[0] == 2


def test_measure_at_snaps_and_rejects_out_of_range():
    res = simulate_ensemble(BM1D, DELTA0, 4, 0.5, seed=5, replicates=1,
                            sub_steps=2, record="full")
    traj = res.trajectory(0)
    assert len(traj.times) == 5  # 0.5 * 4 grid steps * 2 sub-steps + 1
    assert traj.dt == pytest.approx(0.125)
    assert traj.times[-1] == pytest.approx(0.5)
    assert traj.times[traj.snap_index(0.25)] == pytest.approx(0.25)
    with pytest.raises(EngineUsageError, match="range"):
        traj.snap_index(3.0)


def test_off_grid_horizon_rejected():
    """0.53 is not a multiple of 1/16; the run must not stop at 0.5."""
    with pytest.raises(EngineUsageError, match="multiple of the grid step"):
        simulate_ensemble(BM1D, DELTA0, 16, 0.53, seed=1, replicates=1,
                          sub_steps=4, record="full")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_divergence_is_reported_with_location():
    bad = CoefficientModel.constant([1e308], [[1e308]])
    with pytest.raises(SimulationDiverged,
                       match="replicate 0, root 4, grid step 2"):
        simulate_ensemble(bad, DELTA0, 4, 0.5, seed=2, replicates=1,
                          sub_steps=1, record="none")


def test_generator_values_equal_finite_difference_trace():
    """L f = 0.5 tr(a grad^2 f) for a bump under an anisotropic d=2 model,
    against a Hessian from central differences of the values."""
    model = CoefficientModel.constant([1.0, 0.5], [[1.0, 0.3], [0.2, 0.8]])
    f = GaussianBump([0.1, -0.2], [[2.0, 0.4], [0.4, 1.0]], amplitude=1.3)
    xs = np.array([[0.0, 0.0], [0.4, -0.5], [-0.7, 0.3]])
    h = 1e-4
    eye = np.eye(2) * h
    hess = np.empty((3, 2, 2))
    for i in range(2):
        for j in range(2):
            hess[:, i, j] = (f.value_many(xs + eye[i] + eye[j])
                             - f.value_many(xs + eye[i] - eye[j])
                             - f.value_many(xs - eye[i] + eye[j])
                             + f.value_many(xs - eye[i] - eye[j])) / (4 * h * h)
    expected = 0.5 * np.einsum("ij,aij->a", a_matrix(model), hess)
    assert np.allclose(generator_values(model, f, xs), expected, atol=1e-6)


def test_generator_values_refuse_other_functions():
    f = TestFunction()
    f.dim = 1
    with pytest.raises(EngineUsageError, match="Gaussian bump"):
        generator_values(BM1D, f, np.zeros((2, 1)))


def test_dimension_mismatch_rejected():
    with pytest.raises(EngineUsageError, match="dimensions"):
        simulate_ensemble(BM1D, InitialMeasureSpec.point([0.0, 0.0]),
                          8, 0.25, seed=1, replicates=1)


def test_write_replicate_csv(tmp_path):
    res = simulate_ensemble(BM1D, DELTA0, 8, 0.25, seed=4, replicates=2,
                            sub_steps=1, record="mass")
    out = tmp_path / "reps.csv"
    write_replicate_csv(out, res)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "replicate,t,mass"
    assert len(lines) == 1 + 2 * len(res.times)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[2]) == pytest.approx(1.0)


def test_csv_refuses_observables_off_the_mass_grid(tmp_path):
    spec = ObservableSpec("bump", GaussianBump([0.0], [[1.0]]),
                          (0.0, 0.25, 0.5))
    res = simulate_ensemble(BM1D, DELTA0, 16, 0.5, seed=4, replicates=2,
                            sub_steps=1, observables=[spec], record="mass")
    out = tmp_path / "reps.csv"
    with pytest.raises(EngineUsageError, match=r"bump \(3 times\)"):
        write_replicate_csv(out, res)
    assert not out.exists()


def test_csv_requires_recorded_mass():
    res = simulate_ensemble(BM1D, DELTA0, 8, 0.25, seed=4, replicates=1,
                            record="none")
    with pytest.raises(EngineUsageError, match="record"):
        write_replicate_csv("/tmp/should_not_exist.csv", res)
