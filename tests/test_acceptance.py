"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Every criterion runs at a fixed desk scale with a pinned seed, so each
verdict is reproducible run to run. Statistical checks state their SE
budget inline; deterministic checks state their tolerance. The heavy
entries (A05, A10) take a few minutes each on one core.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import beta, norm

from flowsilt.engine import ObservableSpec, simulate_ensemble
from flowsilt.genealogy import Label, Topology, arrangement_count, classify_topology
from flowsilt.harness import config_from_dict, suite_green, suite_ito, suite_martingale
from flowsilt.model import (CoefficientModel, ConstantOne, GaussianBump,
                            InitialMeasureSpec)
from flowsilt.oracle import build_templates, mixed_moment
from flowsilt.silt import epsilon_convergence_study
from oracles import brute_force_classify

BM1D = CoefficientModel.constant(b=(1.0,), c=((1.0,),))


def _verdict(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def mass_ensemble():
    """n=100 critical system over [0,1], 10^4 replicates, shared by A01/A02."""
    initial = InitialMeasureSpec.point(np.zeros(1))
    t0 = time.perf_counter()
    result = simulate_ensemble(BM1D, initial, 100, 1.0, seed=101,
                               replicates=10_000, sub_steps=1)
    return result, time.perf_counter() - t0


def test_a01_critical_mass_law(mass_ensemble, capsys) -> None:
    result, elapsed = mass_ensemble
    masses = result.final_mass
    r = masses.size
    mean = float(masses.mean())
    z_mean = (mean - 1.0) / float(masses.std(ddof=1) / math.sqrt(r))
    var = float(masses.var(ddof=1))
    centered = masses - mean
    m4 = float((centered ** 4).mean())
    se_var = math.sqrt(max(m4 - (r - 3) / (r - 1) * var * var, 0.0) / r)
    z_var = (var - 1.0) / se_var
    ok = abs(z_mean) <= 3.0 and abs(z_var) <= 5.0 and elapsed < 60.0
    _verdict(capsys, "A01 critical mass law", ok,
             f"mean {mean:.5f} (z={z_mean:+.2f}, budget 3), "
             f"variance {var:.4f} vs 1.0 (z={z_var:+.2f}, budget 5), "
             f"sim {elapsed:.1f}s (target <60s)")


def test_a02_offspring_moments(mass_ensemble, capsys) -> None:
    """E N^q = 2^(q-1) for q=1..6 within an exact 99% binomial interval.

    N is 0 or 2, so E N^q = 2^q P(split) and every moment check reduces
    to the same Clopper-Pearson interval on the split fraction.
    """
    result, _ = mass_ensemble
    k = result.split_count
    m = k + result.death_count
    lo = float(beta.ppf(0.005, k, m - k + 1))
    hi = float(beta.ppf(0.995, k + 1, m - k))
    ok = True
    worst = 0.0
    for q in range(1, 7):
        inside = lo * 2.0 ** q <= 2.0 ** (q - 1) <= hi * 2.0 ** q
        ok = ok and inside
        worst = max(worst, abs(k / m * 2.0 ** q / 2.0 ** (q - 1) - 1.0))
    _verdict(capsys, "A02 offspring moments", ok,
             f"{m} branch events, split fraction {k / m:.6f}, "
             f"99% CI [{lo:.6f}, {hi:.6f}] covers 1/2 for q=1..6 "
             f"(max rel moment error {worst:.2e})")


def test_a03_martingale_problem(capsys) -> None:
    raw = {"model": {"preset": "bm1d"},
           "sim": {"n": 100, "horizon": 1.0, "replicates": 10_000,
                   "seed": 303}}
    mean_zero, bracket = suite_martingale(config_from_dict(raw, source="a03"))
    ok = mean_zero.passed and bracket.passed
    _verdict(capsys, "A03 martingale problem", ok,
             f"E Z_T = {mean_zero.estimate:+.5f} (z={mean_zero.z:+.2f}, "
             f"budget 3); {bracket.detail} (budget 10%)")


def test_a04_moment_oracle_golden_values(capsys) -> None:
    point = InitialMeasureSpec.point(np.zeros(1))
    bump = GaussianBump(np.zeros(1), np.eye(1))
    first = mixed_moment(BM1D, 1, [bump], [1.0], point)
    closed = (1.0 + 2.0 * 1.0) ** -0.5
    # independent route: integrate the bump against the t=1 transition law
    quad_val = quad(lambda y: math.exp(-0.5 * y * y)
                    * norm.pdf(y, 0.0, math.sqrt(2.0)),
                    -np.inf, np.inf)[0]

    one = ConstantOne(1)
    m3 = mixed_moment(BM1D, 3, [one] * 3, [1.0] * 3, point)
    m4 = mixed_moment(BM1D, 4, [one] * 4, [1.0] * 4, point)
    counts = (len(build_templates(3)), len(build_templates(4)))

    ok = (abs(first - closed) <= 1e-6 and abs(first - quad_val) <= 1e-6
          and abs(m3 - 5.5) <= 1e-8 and abs(m4 - 19.0) <= 1e-8
          and counts == (5, 14))
    _verdict(capsys, "A04 moment oracle golden values", ok,
             f"order1 {first:.9f} vs closed {closed:.9f} and quadrature "
             f"{quad_val:.9f} (tol 1e-6); mass moments ({m3:.10g}, "
             f"{m4:.10g}) vs (5.5, 19.0) (tol 1e-8); term counts {counts}")


def test_a05_simulation_matches_moment_oracle(capsys) -> None:
    """Orders 1-4 mixed moments of a 4-bump battery at four times, 5 SE."""
    times = (0.25, 0.5, 0.75, 1.0)
    centers = (0.0, 0.3, -0.4, 0.7)
    widths = (1.0, 0.8, 1.2, 0.6)
    battery = [GaussianBump(np.array([c]), np.array([[w]]))
               for c, w in zip(centers, widths)]
    specs = tuple(ObservableSpec(f"f{i}", f, times)
                  for i, f in enumerate(battery))
    initial = InitialMeasureSpec.point(np.zeros(1))
    reps = 20_000
    t0 = time.perf_counter()
    result = simulate_ensemble(BM1D, initial, 200, 1.0, seed=505,
                               replicates=reps, sub_steps=1,
                               observables=specs)
    elapsed = time.perf_counter() - t0
    vals = [result.observables[f"f{i}"][1] for i in range(4)]

    worst_z = 0.0
    worst_tag = ""
    for q in (1, 2, 3, 4):
        for ti, t in enumerate(times):
            samples = vals[0][:, ti].copy()
            for i in range(1, q):
                samples *= vals[i][:, ti]
            est = float(samples.mean())
            se = float(samples.std(ddof=1) / math.sqrt(reps))
            oracle = mixed_moment(BM1D, q, battery[:q], [t] * q, initial)
            z = (est - oracle) / se
            if abs(z) > abs(worst_z):
                worst_z, worst_tag = z, f"order {q} at t={t}"
    ok = abs(worst_z) <= 5.0
    _verdict(capsys, "A05 simulation vs moment oracle", ok,
             f"16 mixed moments (orders 1-4, four times), worst "
             f"z={worst_z:+.2f} ({worst_tag}, budget 5), sim {elapsed:.0f}s")


def test_a06_genealogy_classifier(capsys) -> None:
    rs = np.random.default_rng(606060)
    trials = 100_000
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(trials):
        depth = int(rs.integers(1, 7))
        roots = int(rs.integers(1, 5))
        while roots * 2 ** depth < 8:
            depth += 1
        labels: set[Label] = set()
        while len(labels) < 4:
            root = int(rs.integers(1, roots + 1))
            bits = tuple(int(b) for b in rs.integers(0, 2, size=depth))
            labels.add(Label(root, bits))
        tup = tuple(labels)
        topo, gens = classify_topology(tup)
        name, oracle_gens = brute_force_classify(tup)
        if topo.name.lower() != name or gens != oracle_gens:
            mismatches += 1
    elapsed = time.perf_counter() - t0

    table = {Topology.FOUR_TREES: 1, Topology.ONE_PAIR: 12,
             Topology.TWO_PAIRS: 12, Topology.TRIPLE_PLUS_ONE: 48,
             Topology.NESTED_PAIRS: 12, Topology.CATERPILLAR: 24}
    table_ok = all(arrangement_count(k) == v for k, v in table.items())
    ok = mismatches == 0 and table_ok
    _verdict(capsys, "A06 genealogy classifier", ok,
             f"{trials - mismatches}/{trials} random quadruples match the "
             f"partition oracle ({elapsed:.0f}s); arrangement counts "
             "(1, 12, 12, 48, 12, 24) as derived in the fourth-moment "
             "expansion")


def test_a07_green_function(capsys) -> None:
    raw = {"model": {"preset": "bm1d"},
           "sim": {"n": 16, "horizon": 0.5, "replicates": 8, "seed": 7}}
    checks = suite_green(config_from_dict(raw, source="a07"))
    by_name = {c.name: c for c in checks}
    closed = by_name["green.closed_vs_quadrature"]
    mass = by_name["green.mollified_mass"]
    local = by_name["green.l1_localization"]
    ok = closed.passed and mass.passed and local.passed
    _verdict(capsys, "A07 resolvent kernel", ok,
             f"closed vs quadrature {closed.estimate:.2e} (tol 1e-8); "
             f"max |mass - 1/lambda| {mass.estimate:.2e} (tol 1e-8); "
             f"{local.detail} (ratio budget 0.9 per halving)")


def test_a08_decomposition_residual_refinement(capsys) -> None:
    raw = {"model": {"preset": "bm1d"},
           "sim": {"n": 16, "horizon": 0.5, "replicates": 2000, "seed": 808}}
    check = suite_ito(config_from_dict(raw, source="a08"))[0]
    _verdict(capsys, "A08 decomposition residual refinement", check.passed,
             check.detail)


def test_a09_mollification_cauchy_limit(capsys) -> None:
    initial = InitialMeasureSpec.point(np.zeros(1))
    t0 = time.perf_counter()
    study = epsilon_convergence_study(
        BM1D, initial, 96, 0.5, 1.0, np.zeros(1), (0.4, 0.2, 0.1, 0.05),
        replicates=64, seed=905, sub_steps=1)
    elapsed = time.perf_counter() - t0

    d = study.distances
    cauchy_ok = all(
        d[i + 1][2] < d[i][2] + 2.0 * math.hypot(d[i][3], d[i + 1][3])
        for i in range(len(d) - 1))
    diff = study.extrapolated_limit() - study.small_ball
    z = float(diff.mean() / (diff.std(ddof=1) / math.sqrt(diff.size)))
    ok = cauchy_ok and abs(z) <= 5.0
    _verdict(capsys, "A09 mollification Cauchy limit", ok,
             "coupled L2 distances "
             + ", ".join(f"{row[2]:.4g}±{row[3]:.2g}" for row in d)
             + f" decreasing within 2 SE; small-ball agreement z={z:+.2f} "
             f"(budget 5); {elapsed:.0f}s")


def test_a10_three_d_singularity_diagnostic(capsys) -> None:
    """Double-point mean must blow up along the schedule while the
    variance of the renormalized functional stays in a factor-2 band.

    d=3 needs the time grid to resolve the smallest mollification radius,
    hence the short horizon and large step count; see the repo notes for
    the resolution study behind this scale.
    """
    s = CoefficientModel.constant(b=(1.0, 1.0, 1.0), c=np.eye(3))
    pts = np.linspace(-0.525, 0.525, 4)
    atoms = [((x, y, z), 1.0 / 64.0) for x in pts for y in pts for z in pts]
    initial = InitialMeasureSpec.from_atoms(atoms)
    t0 = time.perf_counter()
    study = epsilon_convergence_study(
        s, initial, 256, 0.0625, 1.0, np.zeros(3), (0.4, 0.2, 0.1, 0.05),
        replicates=300, seed=77, sub_steps=1)
    elapsed = time.perf_counter() - t0

    dp_means = study.double_points.mean(axis=0)
    variances = study.renormalized.var(axis=0, ddof=1)
    band = float(variances.max() / variances.min())
    increasing = bool(np.all(np.diff(dp_means) > 0))
    ok = increasing and band <= 2.0
    _verdict(capsys, "A10 three-d singularity diagnostic", ok,
             "double-point means "
             + ", ".join(f"{v:.5f}" for v in dp_means)
             + f" {'increasing' if increasing else 'NOT increasing'}; "
             f"Var band {band:.2f} (budget 2.0); {elapsed:.0f}s")
