"""The Gaussian family closure rules, checked against direct integrals."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import quad

from flowsilt.gaussian import (
    GaussianFunctional,
    convolve_params,
    merge_embedding,
    pullback_params,
    value_params,
)


def scalar_member(amp=1.0, mean=0.0, prec=1.0):
    return GaussianFunctional(1, 1, amp, np.array([mean]), np.array([[prec]]))


def params(f: GaussianFunctional):
    return f.amplitude, f.mean, f.precision


def test_convolution_matches_quadrature():
    f = scalar_member(amp=0.8, mean=0.4, prec=2.5)
    t = 0.37
    g = convolve_params(*params(f), np.array([[t]]))

    def integrand(y, x):
        return (value_params(*params(f), np.array([y]))
                * np.exp(-((x - y) ** 2) / (2 * t)) / np.sqrt(2 * np.pi * t))

    for x in (-1.0, 0.0, 0.6, 2.3):
        expected, _ = quad(integrand, -np.inf, np.inf, args=(x,))
        assert value_params(*g, np.array([x])) == pytest.approx(expected,
                                                                rel=1e-10)


def test_convolution_semigroup_property():
    f = scalar_member(amp=1.0, mean=-0.2, prec=1.7)
    one_step = convolve_params(*params(f), np.array([[0.5]]))
    two_steps = convolve_params(*convolve_params(*params(f), np.array([[0.2]])),
                                np.array([[0.3]]))
    x = np.array([0.9])
    assert value_params(*one_step, x) == pytest.approx(
        float(value_params(*two_steps, x)), rel=1e-12)
    assert one_step[0] == pytest.approx(two_steps[0], rel=1e-12)


def test_convolving_constant_one_is_identity():
    one = GaussianFunctional.constant_one(2, 1)
    amp, _, prec = convolve_params(*params(one), 0.4 * np.eye(2))
    assert amp == pytest.approx(1.0)
    assert np.allclose(prec, 0.0)


def test_convolve_rejects_indefinite_inputs():
    with pytest.raises(np.linalg.LinAlgError):
        convolve_params(1.0, np.zeros(1), np.array([[1.0]]), np.array([[-2.0]]))


def test_merge_embedding_layout():
    e = merge_embedding(3, 2, 0, 2)
    z = np.array([1.0, 2.0, 3.0, 4.0])  # two remaining blocks in R^2
    full = e @ z
    assert np.allclose(full, [1.0, 2.0, 3.0, 4.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        merge_embedding(3, 2, 2, 2)


def test_merge_blocks_equals_diagonal_restriction():
    rng = np.random.default_rng(5)
    m = rng.normal(size=4)
    a = rng.normal(size=(4, 4))
    prec = a @ a.T
    f = GaussianFunctional(2, 2, 1.3, m, prec)
    g = pullback_params(*params(f), merge_embedding(2, 2, 0, 1))
    for _ in range(5):
        x = rng.normal(size=2)
        assert value_params(*g, x).item() == pytest.approx(
            value_params(*params(f), np.concatenate([x, x])).item(),
            rel=1e-10)


def test_product_builds_block_diagonal():
    f1 = scalar_member(amp=2.0, mean=0.3, prec=1.0)
    f2 = scalar_member(amp=0.5, mean=-1.0, prec=4.0)
    p = GaussianFunctional.product([f1, f2])
    assert p.arity == 2
    assert p.amplitude == pytest.approx(1.0)
    assert value_params(*params(p), np.array([0.1, 0.2])).item() == pytest.approx(
        value_params(*params(f1), np.array([0.1])).item()
        * value_params(*params(f2), np.array([0.2])).item(), rel=1e-12)


def test_product_rejects_multi_block_factors():
    f = GaussianFunctional.constant_one(2, 1)
    with pytest.raises(ValueError, match="arity 1"):
        GaussianFunctional.product([f])


def test_pullback_handles_degenerate_precision():
    # a function depending only on the first block stays well defined
    # when the second block is merged away
    prec = np.zeros((2, 2))
    prec[0, 0] = 3.0
    f = GaussianFunctional(2, 1, 1.0, np.array([0.5, 9.9]), prec)
    g = pullback_params(*params(f), merge_embedding(2, 1, 0, 1))
    assert float(value_params(*g, np.array([0.5]))) == pytest.approx(1.0)


def test_value_params_broadcasts_batches():
    amps = np.ones(3)
    means = np.zeros((3, 2))
    precs = np.broadcast_to(np.eye(2), (3, 2, 2))
    xs = np.zeros((3, 2))
    out = value_params(amps, means, precs, xs)
    assert out.shape == (3,)
    assert np.allclose(out, 1.0)


def test_constructor_rejects_asymmetric_precision():
    with pytest.raises(ValueError, match="symmetric"):
        GaussianFunctional(1, 2, 1.0, np.zeros(2),
                           np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_pullback_amplitude_accounts_for_offset_energy():
    # merging blocks whose means disagree must cost amplitude, matching
    # direct evaluation at the least squares representative
    prec = np.eye(2)
    f = GaussianFunctional(2, 1, 1.0, np.array([1.0, -1.0]), prec)
    g = pullback_params(*params(f), merge_embedding(2, 1, 0, 1))
    # g(z) = exp(-((z-1)^2 + (z+1)^2)/2), peak at z=0 with value e^{-1}
    assert float(value_params(*g, np.array([0.0]))) == pytest.approx(
        np.exp(-1.0), rel=1e-12)
