"""Coefficient models, test functions, and initial measures given as
weighted atoms.

A model consists of a constant per-particle coefficient ``b`` and a constant
flow coefficient ``c``. Two particles see the correlated diffusion matrix

    a_ij = delta_ij * b_i * b_j + sigma_ij,    sigma_ij = sum_l c_il * c_jl,

where the delta term is present only on the same particle (independent
drivers) and sigma is the coupling through the shared flow noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

ELLIPTICITY_FLOOR = 1e-8


@dataclass(frozen=True)
class CoefficientModel:
    """Spatial dimension, flow dimension, and the two constant coefficients."""

    dim: int
    flow_dim: int
    b_vec: np.ndarray
    c_mat: np.ndarray

    @classmethod
    def constant(cls, b: Sequence[float], c: Sequence[Sequence[float]]) -> "CoefficientModel":
        b_vec = np.atleast_1d(np.asarray(b, dtype=float))
        c_mat = np.atleast_2d(np.asarray(c, dtype=float))
        d = b_vec.shape[0]
        if c_mat.shape[0] != d:
            raise ValueError(
                f"flow coefficient has {c_mat.shape[0]} rows, expected {d}"
            )
        if not (np.all(np.isfinite(b_vec)) and np.all(np.isfinite(c_mat))):
            raise ValueError("non-finite coefficients")
        return cls(dim=d, flow_dim=c_mat.shape[1], b_vec=b_vec, c_mat=c_mat)


def a_matrix(model: CoefficientModel) -> np.ndarray:
    """One-particle diffusion matrix a(x, x) = c c^T + diag(b * b)."""
    return model.c_mat @ model.c_mat.T + np.diag(model.b_vec * model.b_vec)


def isotropic_diffusion(model: CoefficientModel) -> Optional[float]:
    """The scalar alpha with a(x, x) = alpha * I, or None if a(x, x) is
    not a multiple of the identity."""
    a = a_matrix(model)
    diag = np.diagonal(a)
    if (np.allclose(diag, diag[0], rtol=1e-12, atol=1e-14)
            and np.allclose(a - np.diag(diag), 0.0, atol=1e-14)):
        return float(diag[0])
    return None


# ---------------------------------------------------------------------------
# test functions


class TestFunction:
    """Scalar function on R^d, evaluated at batches of points."""

    dim: int

    def value_many(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_many(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ConstantOne(TestFunction):
    """The function identically equal to one."""

    def __init__(self, dim: int = 1):
        self.dim = dim

    def value_many(self, xs):
        return np.ones(np.atleast_2d(xs).shape[0])

    def grad_many(self, xs):
        return np.zeros_like(np.atleast_2d(xs), dtype=float)


class GaussianBump(TestFunction):
    """amplitude * exp(-(x-center)' P (x-center) / 2) with P positive definite."""

    def __init__(self, center: Sequence[float], precision: Sequence[Sequence[float]],
                 amplitude: float = 1.0):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.precision = np.atleast_2d(np.asarray(precision, dtype=float))
        self.amplitude = float(amplitude)
        self.dim = self.center.shape[0]
        if self.precision.shape != (self.dim, self.dim):
            raise ValueError("precision shape does not match center dimension")
        eigs = np.linalg.eigvalsh(0.5 * (self.precision + self.precision.T))
        if eigs.min() <= 0:
            raise ValueError("precision matrix must be positive definite")

    def value_many(self, xs):
        dx = np.atleast_2d(xs) - self.center
        q = np.einsum("ki,ij,kj->k", dx, self.precision, dx)
        return self.amplitude * np.exp(-0.5 * q)

    def grad_many(self, xs):
        dx = np.atleast_2d(xs) - self.center
        vals = self.value_many(xs)
        return -vals[:, None] * (dx @ self.precision.T)


# ---------------------------------------------------------------------------
# initial measures


@dataclass(frozen=True)
class InitialMeasureSpec:
    """A finite list of weighted atoms (position, mass)."""

    dim: int
    atoms: tuple[tuple[np.ndarray, float], ...]

    @classmethod
    def point(cls, position: Sequence[float], mass: float = 1.0) -> "InitialMeasureSpec":
        pos = np.atleast_1d(np.asarray(position, dtype=float))
        return cls(dim=pos.shape[0], atoms=((pos, float(mass)),))

    @classmethod
    def from_atoms(cls, atoms: Sequence[tuple[Sequence[float], float]]) -> "InitialMeasureSpec":
        packed = tuple((np.atleast_1d(np.asarray(p, dtype=float)), float(m)) for p, m in atoms)
        if not packed:
            raise ValueError("need at least one atom")
        return cls(dim=packed[0][0].shape[0], atoms=packed)

    @property
    def total_mass(self) -> float:
        return sum(m for _, m in self.atoms)

    def validate(self) -> None:
        if self.total_mass <= 0:
            raise ValueError("total mass must be positive")
        for pos, m in self.atoms:
            if m <= 0:
                raise ValueError("atom masses must be positive")
            if pos.shape != (self.dim,):
                raise ValueError("atom dimension mismatch")


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    passed: bool
    min_eigenvalue: float
    messages: list[str] = field(default_factory=list)


def validate_model(model: CoefficientModel,
                   initial: Optional[InitialMeasureSpec] = None,
                   horizon: float = 1.0) -> ValidationReport:
    """Check ellipticity of a(x, x) and the initial measure. The
    coefficients are constant, so ``horizon`` does not change the result."""
    axx = a_matrix(model)
    min_eig = float(np.linalg.eigvalsh(0.5 * (axx + axx.T)).min())
    msgs: list[str] = []

    passed = min_eig >= ELLIPTICITY_FLOOR
    if not passed:
        msgs.append(
            f"uniform ellipticity violated: min eigenvalue {min_eig:.3e} "
            f"< floor {ELLIPTICITY_FLOOR:.0e}"
        )

    if initial is not None:
        try:
            initial.validate()
        except ValueError as exc:
            passed = False
            msgs.append(f"initial measure invalid: {exc}")

    return ValidationReport(passed=passed, min_eigenvalue=min_eig,
                            messages=msgs)
