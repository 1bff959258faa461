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
    martingale_path,
    quadratic_variation_check,
    simulate_ensemble,
    write_replicate_csv,
)
from flowsilt.model import (
    CoefficientModel,
    GaussianBump,
    InitialMeasureSpec,
)

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
    emp, pred = quadratic_variation_check(res, f)
    assert pred > 0
    assert abs(emp - pred) / pred < 0.10


def test_martingale_path_matches_ensemble_accumulator():
    f = GaussianBump([0.0], [[2.0]], amplitude=0.7)
    res = simulate_ensemble(BM1D, DELTA0, 12, 1.0, seed=9, replicates=1,
                            sub_steps=2, martingales=[MartingaleSpec("z", f)],
                            record="full")
    z_path = martingale_path(res.trajectory(0), f)
    assert z_path[0] == 0.0
    assert z_path[-1] == pytest.approx(float(res.martingales["z"].z_final[0]),
                                       rel=1e-9, abs=1e-12)


def test_quadratic_variation_check_requires_registration():
    f = GaussianBump([0.0], [[1.0]])
    res = simulate_ensemble(BM1D, DELTA0, 8, 0.25, seed=1, replicates=2,
                            record="none")
    with pytest.raises(EngineUsageError, match="registered"):
        quadratic_variation_check(res, f)


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
    mu = res.trajectory(0).measure_at(0.0)
    assert mu.positions.shape == (5, 1)
    assert np.sum(mu.positions[:, 0] == 0.0) == 3
    assert np.sum(mu.positions[:, 0] == 1.0) == 2
    assert res.final_mass[0] == pytest.approx(1.0)

    uneven = InitialMeasureSpec.from_atoms([([0.0], 0.5), ([1.0], 0.25), ([2.0], 0.25)])
    res2 = simulate_ensemble(BM1D, uneven, 2, horizon=0.0, seed=0,
                             replicates=1, record="full")
    assert res2.trajectory(0).measure_at(0.0).positions.shape[0] == 2


def test_measure_at_snaps_and_rejects_out_of_range():
    res = simulate_ensemble(BM1D, DELTA0, 4, 0.5, seed=5, replicates=1,
                            sub_steps=2, record="full")
    traj = res.trajectory(0)
    assert len(traj.times) == 5  # 0.5 * 4 grid steps * 2 sub-steps + 1
    assert traj.dt == pytest.approx(0.125)
    assert traj.times[-1] == pytest.approx(0.5)
    mu = traj.measure_at(0.25)
    assert mu.time == pytest.approx(0.25)
    with pytest.raises(EngineUsageError, match="range"):
        traj.measure_at(3.0)


def test_off_grid_horizon_rejected():
    """0.53 is not a multiple of 1/16; the run must not stop at 0.5."""
    with pytest.raises(EngineUsageError, match="multiple of the grid step"):
        simulate_ensemble(BM1D, DELTA0, 16, 0.53, seed=1, replicates=1,
                          sub_steps=4, record="full")


def test_divergence_is_reported_with_location():
    bad = CoefficientModel.from_callables(
        1, 1, b=lambda x: np.array([np.nan]), c=lambda x: np.zeros((1, 1)))
    with pytest.raises(SimulationDiverged, match="replicate"):
        simulate_ensemble(bad, DELTA0, 4, 0.5, seed=2, replicates=1,
                          sub_steps=1, record="none")


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
