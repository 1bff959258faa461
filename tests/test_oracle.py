"""Closed moment formulas against independently computed values.

The pinned constants below were produced by the coalescent-forest oracle in
oracles.py, which enumerates ranked genealogies and integrates Gaussian
functionals over ordered split times with its own quadrature. The evaluator
under test composes semigroup and branch operators instead; the two routes
share no code beyond numpy.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from flowsilt.model import (
    CoefficientModel,
    ConstantOne,
    GaussianBump,
    InitialMeasureSpec,
)
import flowsilt.oracle
from flowsilt.oracle import (
    OracleModelError,
    _choices,
    _prepare,
    _term_grid,
    _term_value,
    build_templates,
    dump_terms,
    evaluate_gamma_batch,
    mixed_moment,
    pair_with_initial,
)
from oracles import (
    coalescent_moment,
    heat_semigroup_bump,
    mass_moment,
    mixed_mass_moment,
)

BM1D = CoefficientModel.constant([1.0], [[1.0]])
DELTA0 = InitialMeasureSpec.point([0.0])
BUMP = GaussianBump([0.0], [[1.0]])


def evaluator(order, times, mu0=DELTA0, fns=None):
    fns = fns or [BUMP] * order
    return mixed_moment(BM1D, order, fns, times, mu0)


# values frozen from the coalescent-forest oracle (a=2, sigma=1, unit bump
# at the origin, delta initial mass at 0)
FROZEN = {
    (2, (0.5, 1.0)): 0.6319942322369408,
    (3, (0.3, 0.8, 1.0)): 0.8310883009884722,
    (3, (1.0, 1.0, 1.0)): 1.366011144024666,
    (4, (0.3, 0.6, 0.8, 1.0)): 1.3862333502395396,
    (4, (1.0, 1.0, 1.0, 1.0)): 3.2197401864030026,
}


@pytest.mark.parametrize("order,times", sorted(FROZEN))
def test_evaluator_matches_frozen_coalescent_values(order, times):
    assert evaluator(order, times) == pytest.approx(FROZEN[(order, times)], abs=1e-10)


def test_frozen_value_with_shifted_start():
    got = evaluator(3, (0.4, 0.7, 1.0), mu0=InitialMeasureSpec.point([0.4]))
    assert got == pytest.approx(0.8092085702038527, abs=1e-10)


def test_live_coalescent_comparison_order_two():
    times = (0.25, 0.9)
    ours = evaluator(2, times)
    theirs = coalescent_moment(times, a=2.0, sigma=1.0, nodes=32)
    assert ours == pytest.approx(theirs, abs=1e-9)


def test_order_one_is_the_heat_semigroup():
    for t in (0.1, 0.5, 1.0, 2.0):
        assert evaluator(1, (t,)) == pytest.approx((1 + 2 * t) ** -0.5, abs=1e-12)
    shifted = mixed_moment(BM1D, 1, [BUMP], [0.8],
                           InitialMeasureSpec.point([0.4]))
    assert shifted == pytest.approx(heat_semigroup_bump(0.8, 2.0, x=0.4), abs=1e-10)


def test_mass_moments_match_branching_recursion():
    one = ConstantOne(1)
    for order in (1, 2, 3, 4):
        got = mixed_moment(BM1D, order, [one] * order, [1.0] * order, DELTA0)
        assert got == pytest.approx(mass_moment(order, 1.0), abs=1e-12)
    assert mass_moment(3, 1.0) == pytest.approx(5.5)
    assert mass_moment(4, 1.0) == pytest.approx(19.0)


def test_mixed_time_mass_moments():
    one = ConstantOne(1)
    got = mixed_moment(BM1D, 3, [one] * 3, [0.5, 1.0, 1.0], DELTA0)
    assert got == pytest.approx(mixed_mass_moment((0.5, 1.0, 1.0)), abs=1e-12)
    assert mixed_mass_moment((0.5, 1.0, 1.0)) == pytest.approx(3.625)
    got4 = mixed_moment(BM1D, 4, [one] * 4, [0.5, 1.0, 1.0, 1.0], DELTA0)
    assert got4 == pytest.approx(mixed_mass_moment((0.5, 1.0, 1.0, 1.0)), abs=1e-12)


def test_initial_mass_scaling():
    # scaling the initial mass scales the q-th mass moment per the
    # branching recursion, not geometrically
    one = ConstantOne(1)
    heavy = InitialMeasureSpec.point([0.0], mass=2.0)
    got = mixed_moment(BM1D, 2, [one] * 2, [1.0, 1.0], heavy)
    assert got == pytest.approx(mass_moment(2, 1.0, m0=2.0), abs=1e-12)
    assert got == pytest.approx(6.0)


def test_term_counts_per_order():
    assert [len(build_templates(k)) for k in (1, 2, 3, 4)] == [1, 2, 5, 14]
    assert len(build_templates(3)) == 5


def test_dump_terms_sums_to_moment():
    times = (0.5, 1.0)
    rows = dump_terms(BM1D, 2, [BUMP] * 2, times, DELTA0)
    assert len(rows) == 2
    assert sum(v for _, v in rows) == pytest.approx(FROZEN[(2, times)], abs=1e-10)
    assert all(isinstance(name, str) and name for name, _ in rows)


def test_time_order_does_not_matter():
    a = evaluator(3, (1.0, 0.3, 0.8))
    b = evaluator(3, (0.3, 0.8, 1.0))
    assert a == pytest.approx(b, rel=1e-12)


def test_zero_time_collapses_to_initial_pairing():
    # at t=0 the moment is the initial integral of the bump, here phi(0)=1
    assert evaluator(1, (0.0,)) == pytest.approx(1.0, abs=1e-12)


def test_argument_validation():
    with pytest.raises(ValueError, match="order"):
        mixed_moment(BM1D, 5, [BUMP] * 5, [1.0] * 5, DELTA0)
    with pytest.raises(ValueError, match="per factor"):
        mixed_moment(BM1D, 2, [BUMP], [1.0, 2.0], DELTA0)
    with pytest.raises(ValueError, match="nonnegative"):
        mixed_moment(BM1D, 1, [BUMP], [-0.5], DELTA0)


@pytest.mark.parametrize("order, fns, times, mu0, message", [
    (5, [BUMP] * 5, [1.0] * 5, DELTA0, "order"),
    (2, [BUMP] * 2, [-0.5, 1.0], DELTA0, "nonnegative"),
    (2, [BUMP] * 3, [0.5, 1.0, 1.0], DELTA0, "per factor"),
    (2, [BUMP] * 2, [1.0], DELTA0, "per factor"),
    (1, [BUMP], [1.0], InitialMeasureSpec.point([0.0], mass=-1.0),
     "mass must be positive"),
])
@pytest.mark.parametrize("entry", [mixed_moment, dump_terms])
def test_moment_entries_share_input_checks(entry, order, fns, times, mu0,
                                           message):
    with pytest.raises(ValueError, match=message):
        entry(BM1D, order, fns, times, mu0)


def test_oracle_rejects_plain_callables():
    from flowsilt.model import TestFunction
    f = TestFunction()
    f.dim = 1
    with pytest.raises(OracleModelError, match="Gaussian"):
        mixed_moment(BM1D, 1, [f], [1.0], DELTA0)


FLOW3D = CoefficientModel.constant([1.0, 0.0, 0.0], np.eye(3).tolist())
TWO_ATOMS = {
    1: InitialMeasureSpec.from_atoms([([0.2], 0.7), ([-0.5], 1.3)]),
    3: InitialMeasureSpec.from_atoms([([0.2, 0.2, 0.2], 0.7),
                                      ([-0.5, 0.3, 0.3], 1.3)]),
}
SKEW_PRECISION = {
    1: [[2.0]],
    3: [[2.0, 0.3, 0.1], [0.3, 1.5, -0.2], [0.1, -0.2, 1.0]],
}


@pytest.mark.parametrize("times", [(0.3, 0.6, 0.8, 1.0), (0.5, 0.5, 1.0, 1.0)],
                         ids=["distinct", "coincident"])
@pytest.mark.parametrize("model", [BM1D, FLOW3D], ids=["bm1d", "flow3d"])
def test_batched_evaluation_equals_row_by_row(model, times):
    """A one-row batch has one function per stage and pair choice, so
    these calls run the evaluator with nothing shared across rows; the
    full grid must give every row the same function, bit for bit, and
    the same term value. Each pair choice must match its concrete stage
    list run alone, in itertools.product order."""
    d = model.dim
    bump = GaussianBump([0.1] * d, SKEW_PRECISION[d])
    mu0 = TWO_ATOMS[d]
    nodes = 3
    for order in (1, 2, 3, 4):
        kernels, ts, phi = _prepare(model, order, [bump] * order,
                                    times[:order], mu0)
        for template in build_templates(order):
            gaps, weights = _term_grid(template, ts, nodes)
            batch = evaluate_gamma_batch(kernels, template.ell0,
                                         template.ops, gaps, phi)
            single = [evaluate_gamma_batch(kernels, template.ell0,
                                           template.ops, gaps[b:b + 1], phi)
                      for b in range(gaps.shape[0])]
            # (combinations, B, ...) parameters of every row's function
            rows = [np.stack([one[q][:, one[3][0]] for one in single], axis=1)
                    for q in range(3)]
            for q in range(3):
                assert (batch[q][:, batch[3]].tobytes()
                        == rows[q].tobytes()), template.name
            # combination c is the c-th concrete stage list, run on its own
            combos = itertools.product(*map(_choices, template.ops))
            for c, combo in enumerate(combos):
                alone = evaluate_gamma_batch(kernels, template.ell0, combo,
                                             gaps, phi)
                for q in range(3):
                    assert (alone[q][0, alone[3]].tobytes()
                            == rows[q][c].tobytes()), template.name

            expected = 0.0
            if np.any(weights != 0.0):
                for c in range(rows[0].shape[0]):
                    paired = pair_with_initial(
                        rows[0][c], rows[1][c], rows[2][c], template.ell0,
                        mu0, np.arange(gaps.shape[0]))
                    expected += float(paired @ weights)
            got = _term_value(kernels, template, phi, ts, mu0, nodes)
            assert got.hex() == expected.hex(), template.name


def test_staged_evaluation_pushes_each_suffix_once(monkeypatch):
    """Pushing every stage over every quadrature row, once per pair
    choice, convolves 59,056 matrices in this call."""
    pushed = []
    convolve = flowsilt.oracle.convolve_params

    def counting(amp, mean, prec, cov):
        pushed.append(int(np.prod(np.shape(prec)[:-2])))
        return convolve(amp, mean, prec, cov)

    monkeypatch.setattr(flowsilt.oracle, "convolve_params", counting)
    bump = GaussianBump([0.0] * 3, SKEW_PRECISION[3])
    mixed_moment(FLOW3D, 4, [bump] * 4, (0.3, 0.6, 0.8, 1.0),
                 InitialMeasureSpec.point([0.0] * 3), nodes=6)
    assert 0 < sum(pushed) < 59056 / 3
