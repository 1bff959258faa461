from __future__ import annotations

import numpy as np
import pytest

from flowsilt.model import (
    CallableFunction,
    CoefficientModel,
    ConstantOne,
    GaussianBump,
    InitialMeasureSpec,
    ModelEvaluationError,
    UnsupportedFunctionError,
    a_matrix,
    generator_L,
    sigma_matrix,
    validate_model,
)


def bm1d():
    return CoefficientModel.constant([1.0], [[1.0]])


def test_constant_factory_infers_dimensions():
    m = CoefficientModel.constant([1.0, 2.0], [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert m.dim == 2
    assert m.flow_dim == 3
    assert m.is_constant


def test_constant_factory_rejects_row_mismatch():
    with pytest.raises(ValueError, match="rows"):
        CoefficientModel.constant([1.0, 1.0], [[1.0]])


def test_sigma_and_a_matrices():
    m = CoefficientModel.constant([2.0], [[3.0]])
    x = np.array([0.5])
    assert sigma_matrix(m, x, x)[0, 0] == pytest.approx(9.0)
    assert a_matrix(m, x, x, same_particle=True)[0, 0] == pytest.approx(13.0)
    assert a_matrix(m, x, x, same_particle=False)[0, 0] == pytest.approx(9.0)


def test_callable_coefficients_shape_checked():
    m = CoefficientModel.from_callables(
        2, 1,
        b=lambda x: np.ones(3),            # wrong shape on purpose
        c=lambda x: np.ones((2, 1)))
    with pytest.raises(ModelEvaluationError, match="shape"):
        m.b_at(np.zeros(2))


def test_non_finite_coefficients_rejected():
    m = CoefficientModel.from_callables(
        1, 1, b=lambda x: np.array([np.inf]), c=lambda x: np.ones((1, 1)))
    from flowsilt.model import evaluate_coefficients
    with pytest.raises(ModelEvaluationError, match="non-finite"):
        evaluate_coefficients(m, np.zeros(1))


def test_gaussian_bump_analytic_derivatives_match_fd():
    """Analytic gradient and Hessian agree with central differences."""
    prec = np.array([[2.0, 0.3], [0.3, 1.0]])
    f = GaussianBump([0.2, -0.1], prec, amplitude=1.7)
    g = CallableFunction(lambda x: f.value(x), dim=2)
    x = np.array([0.4, 0.3])
    assert np.allclose(f.grad(x), g.grad(x), atol=1e-7)
    assert np.allclose(f.hess(x), g.hess(x), atol=1e-5)


def test_gaussian_bump_requires_positive_definite_precision():
    with pytest.raises(ValueError, match="positive definite"):
        GaussianBump([0.0], [[-1.0]])


def test_constant_one_annihilated_by_generator():
    m = bm1d()
    assert generator_L(m, ConstantOne(1), np.zeros(1)) == 0.0


def test_generator_on_quadratic():
    # f(x) = x^2 has Lf = a(x,x), constant; for b=c=1 that is 2
    m = bm1d()
    f = CallableFunction(lambda x: float(x[0] ** 2), dim=1)
    assert generator_L(m, f, np.array([0.7])) == pytest.approx(2.0, abs=1e-6)


def test_untwice_differentiable_function_refuses_hessian():
    f = CallableFunction(lambda x: abs(float(x[0])), dim=1,
                         twice_differentiable=False)
    with pytest.raises(UnsupportedFunctionError):
        f.hess(np.zeros(1))


def test_point_measure_and_from_atoms():
    p = InitialMeasureSpec.point([1.0, 2.0], mass=0.5)
    assert p.dim == 2
    assert p.total_mass == 0.5
    a = InitialMeasureSpec.from_atoms([([0.0], 1.0), ([1.0], 2.0)])
    assert a.total_mass == pytest.approx(3.0)
    lo, hi = a.support_box()
    assert lo[0] == 0.0 and hi[0] == 1.0


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
    assert rep.lipschitz_b == 0.0


def test_validate_model_flags_degenerate_diffusion():
    degenerate = CoefficientModel.constant([0.0], [[0.0]])
    rep = validate_model(degenerate)
    assert not rep.passed
    assert any("ellipticity" in m for m in rep.messages)
