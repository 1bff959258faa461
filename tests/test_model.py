from __future__ import annotations

import numpy as np
import pytest

from flowsilt.engine import generator_values
from flowsilt.model import (
    CoefficientModel,
    ConstantOne,
    GaussianBump,
    InitialMeasureSpec,
    a_matrix,
    validate_model,
)


def bm1d():
    return CoefficientModel.constant([1.0], [[1.0]])


def test_constant_factory_infers_dimensions():
    m = CoefficientModel.constant([1.0, 2.0], [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert m.dim == 2
    assert m.flow_dim == 3


def test_constant_factory_rejects_row_mismatch():
    with pytest.raises(ValueError, match="rows"):
        CoefficientModel.constant([1.0, 1.0], [[1.0]])


def test_sigma_and_a_matrices():
    """a = sigma + diag(b * b) with the flow coupling sigma = c c^T."""
    m = CoefficientModel.constant([2.0], [[3.0]])
    assert a_matrix(m)[0, 0] == pytest.approx(13.0)
    m2 = CoefficientModel.constant([1.0, 2.0], [[1.0, 1.0], [0.0, 1.0]])
    assert np.array_equal(a_matrix(m2), [[3.0, 1.0], [1.0, 5.0]])


def test_non_finite_coefficients_rejected():
    for b, c in (([np.inf], [[1.0]]), ([1.0], [[np.nan]]),
                 ([1.0, 1.0], [[1.0], [-np.inf]])):
        with pytest.raises(ValueError, match="non-finite"):
            CoefficientModel.constant(b, c)


def test_gaussian_bump_analytic_derivatives_match_fd():
    """The analytic gradient agrees with central differences of the values."""
    prec = np.array([[2.0, 0.3], [0.3, 1.0]])
    f = GaussianBump([0.2, -0.1], prec, amplitude=1.7)
    xs = np.array([[0.4, 0.3], [-0.5, 0.1], [0.2, -0.1]])
    h = 1e-5
    fd = np.stack([(f.value_many(xs + h * e) - f.value_many(xs - h * e))
                   / (2 * h) for e in np.eye(2)], axis=1)
    assert np.allclose(f.grad_many(xs), fd, atol=1e-9)


def test_gaussian_bump_requires_positive_definite_precision():
    with pytest.raises(ValueError, match="positive definite"):
        GaussianBump([0.0], [[-1.0]])


def test_constant_one_annihilated_by_generator():
    m = bm1d()
    xs = np.array([[0.0], [0.7], [-2.0]])
    assert np.array_equal(generator_values(m, ConstantOne(1), xs), np.zeros(3))


def test_point_measure_and_from_atoms():
    p = InitialMeasureSpec.point([1.0, 2.0], mass=0.5)
    assert p.dim == 2
    assert p.total_mass == 0.5
    a = InitialMeasureSpec.from_atoms([([0.0], 1.0), ([1.0], 2.0)])
    assert a.total_mass == pytest.approx(3.0)


def test_from_atoms_rejects_empty():
    with pytest.raises(ValueError):
        InitialMeasureSpec.from_atoms([])


def test_measure_validate_rejects_bad_atoms():
    spec = InitialMeasureSpec.from_atoms([([0.0], 1.0)])
    bad = InitialMeasureSpec(dim=1, atoms=((np.zeros(1), -1.0),))
    spec.validate()
    with pytest.raises(ValueError, match="positive"):
        bad.validate()


def test_validate_model_passes_preset():
    rep = validate_model(bm1d(), initial=InitialMeasureSpec.point([0.0]))
    assert rep.passed
    assert rep.min_eigenvalue == pytest.approx(2.0)


def test_validate_model_flags_degenerate_diffusion():
    degenerate = CoefficientModel.constant([0.0], [[0.0]])
    rep = validate_model(degenerate)
    assert not rep.passed
    assert any("ellipticity" in m for m in rep.messages)
