"""Each benchmark check passes on a correct output and fails on a
perturbed one.

    python3 -m pytest -q benchmark/test_checks.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import direct  # noqa: E402
import references  # noqa: E402


def test_oracle_value_off_by_1e8_relative_fails() -> None:
    ref = 0.8990855704870404
    assert checks.relative("v", ref * (1 + 1e-14), ref, 1e-10).ok
    assert not checks.relative("v", ref * (1 + 1e-8), ref, 1e-10).ok
    assert not checks.relative("v", ref * (1 - 1e-8), ref, 1e-10).ok


def _positions(seed: int, steps: int = 6, count: int = 12):
    rs = np.random.default_rng(seed)
    return [rs.normal(scale=0.15, size=(count + j, 3)) for j in range(steps)]


def test_pair_sum_with_one_cell_dropped_fails() -> None:
    pos = _positions(1)
    eps = (0.4, 0.2)
    full = direct.gamma_direct(pos, 0.1, 0.25, eps)
    # with three recorded steps the sum has the single cell (0, 1), so
    # this is the contribution of cell (0, 3) of the full sum
    cell_03 = direct.gamma_direct([pos[0], pos[3], pos[3]], 0.1, 0.25, eps)
    assert all(c > 0 for c in cell_03)
    dropped = [f - c for f, c in zip(full, cell_03)]
    for e in range(len(eps)):
        assert checks.relative("g", full[e], full[e], 1e-9).ok
        assert not checks.relative("g", dropped[e], full[e], 1e-9).ok


def test_direct_pair_sum_matches_the_program() -> None:
    from flowsilt.engine import RecordedTrajectory
    from flowsilt.green import GreenFunction, MollifiedGreen
    from flowsilt.model import CoefficientModel
    from flowsilt.silt import gamma_epsilon

    model = CoefficientModel.constant(b=(1.0, 1.0, 1.0), c=np.eye(3))
    pos = _positions(2, steps=9)
    traj = RecordedTrajectory(np.arange(9) * 0.05, pos, 0.25, 4, 1, model)
    kern = MollifiedGreen(GreenFunction(model, 1.0, np.zeros(3)), 0.2)
    program = gamma_epsilon(traj, kern, 1.0, 0.4)
    mine = direct.gamma_direct(pos, 0.05, 0.25, (0.2,))[0]
    assert checks.relative("g", program, mine, 1e-9).ok


def test_replicates_swapped_between_partitions_fail() -> None:
    rs = np.random.default_rng(3)
    full = rs.normal(size=(10, 4))
    part = full[2:6].copy()
    assert checks.identical("p", full[2:6], part).ok
    part[[0, 1]] = part[[1, 0]]
    assert not checks.identical("p", full[2:6], part).ok
    assert not checks.identical("p", full[2:6], part[:3]).ok


def test_double_points_not_increasing_fail() -> None:
    assert checks.strictly_increasing("d", [0.1, 0.2, 0.4, 0.9]).ok
    assert not checks.strictly_increasing("d", [0.1, 0.3, 0.2, 0.9]).ok
    assert not checks.strictly_increasing("d", [0.1, 0.2, 0.2, 0.9]).ok


@pytest.mark.parametrize("code,stdout,ok", [
    (0, "[PASS] a  estimate=1\n[PASS] b\nreport: x\n", True),
    (0, "[PASS] a\n[FAIL] b  z=6.1\n", False),
    (1, "[PASS] a\n[PASS] b\n", False),
    (2, "", False),
    (0, "[PASS] a\n", False),   # a check went missing
])
def test_cli_fail_line_or_nonzero_exit_fails(code, stdout, ok) -> None:
    assert checks.cli_clean("cli", code, stdout, 2).ok is ok


def test_distances_rising_beyond_two_se_fail() -> None:
    assert checks.distances_nonincreasing([(4e-6, 1e-6), (5e-6, 1e-6)]).ok
    assert not checks.distances_nonincreasing([(4e-6, 1e-7), (5e-6, 1e-7)]).ok


def test_statistical_checks_catch_a_biased_output() -> None:
    rs = np.random.default_rng(4)
    mass = rs.gamma(2.0, 0.5, size=20000)   # mean 1, variance 0.5
    assert all(c.ok for c in checks.mass_law(mass, 1.0, 0.5))
    assert not all(c.ok for c in checks.mass_law(mass * 1.05, 1.0, 0.5))
    assert checks.split_fraction(500_000, 500_200).ok
    assert not checks.split_fraction(500_000, 510_000).ok
    z = rs.normal(size=20000)
    assert all(c.ok for c in checks.martingale(z, np.ones(20000)))
    assert not all(c.ok for c in checks.martingale(z + 0.1,
                                                   np.ones(20000)))
    assert not all(c.ok for c in checks.martingale(z, 1.2 * np.ones(20000)))


def test_closed_mass_moments() -> None:
    assert references.mass_moment_closed([1.0, 1.0, 1.0, 1.0]) == \
        pytest.approx(19.0, rel=1e-14)
    assert references.feller_moment(3, 0.5) == pytest.approx(2.875)
    # E[M_s M_t] = E[M_s^2] for s < t (M is a martingale)
    assert references.mass_moment_closed([0.3, 0.7]) == pytest.approx(1.3)
