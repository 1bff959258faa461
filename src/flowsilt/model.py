"""Coefficient models, test functions, the one-particle generator, and
initial measures given as weighted atoms.

A model consists of a per-particle coefficient ``b`` and a flow coefficient
``c``. Two particles at positions x and y see the correlated diffusion
matrix

    a_ij(x, y) = delta_ij * b_i(x) * b_j(y) + sigma_ij(x, y),
    sigma_ij(x, y) = sum_l c_il(x) * c_jl(y),

where the delta term is present only on the same particle (independent
drivers) and sigma is the coupling through the shared flow noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

ELLIPTICITY_FLOOR = 1e-8
PROBE_POINTS = 11


class ModelEvaluationError(ValueError):
    """Coefficient evaluation produced a non-finite value."""


class UnsupportedFunctionError(TypeError):
    """Operation requires derivatives the test function cannot provide."""


class CoefficientKind(Enum):
    CONSTANT = "constant"
    CALLABLE = "callable"


def _fd_step(x: np.ndarray) -> float:
    return 1e-4 * (1.0 + float(np.linalg.norm(x)))


@dataclass(frozen=True)
class CoefficientModel:
    """Spatial dimension, flow dimension, and the two coefficient fields."""

    dim: int
    flow_dim: int
    kind: CoefficientKind
    b_vec: Optional[np.ndarray] = None
    c_mat: Optional[np.ndarray] = None
    b_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    c_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @classmethod
    def constant(cls, b: Sequence[float], c: Sequence[Sequence[float]]) -> "CoefficientModel":
        b_vec = np.atleast_1d(np.asarray(b, dtype=float))
        c_mat = np.atleast_2d(np.asarray(c, dtype=float))
        d = b_vec.shape[0]
        if c_mat.shape[0] != d:
            raise ValueError(
                f"flow coefficient has {c_mat.shape[0]} rows, expected {d}"
            )
        return cls(dim=d, flow_dim=c_mat.shape[1], kind=CoefficientKind.CONSTANT,
                   b_vec=b_vec, c_mat=c_mat)

    @classmethod
    def from_callables(cls, dim: int, flow_dim: int,
                       b: Callable[[np.ndarray], np.ndarray],
                       c: Callable[[np.ndarray], np.ndarray]) -> "CoefficientModel":
        return cls(dim=dim, flow_dim=flow_dim, kind=CoefficientKind.CALLABLE,
                   b_fn=b, c_fn=c)

    @property
    def is_constant(self) -> bool:
        return self.kind is CoefficientKind.CONSTANT

    def b_at(self, x: np.ndarray) -> np.ndarray:
        if self.is_constant:
            return self.b_vec
        out = np.asarray(self.b_fn(np.asarray(x, dtype=float)), dtype=float)
        if out.shape != (self.dim,):
            raise ModelEvaluationError(f"b(x) has shape {out.shape}, expected ({self.dim},)")
        return out

    def c_at(self, x: np.ndarray) -> np.ndarray:
        if self.is_constant:
            return self.c_mat
        out = np.asarray(self.c_fn(np.asarray(x, dtype=float)), dtype=float)
        if out.shape != (self.dim, self.flow_dim):
            raise ModelEvaluationError(
                f"c(x) has shape {out.shape}, expected ({self.dim}, {self.flow_dim})"
            )
        return out


def evaluate_coefficients(model: CoefficientModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate (b(x), c(x)) and reject non-finite output."""
    b = model.b_at(x)
    c = model.c_at(x)
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise ModelEvaluationError(f"non-finite coefficients at x={x!r}")
    return b, c


def sigma_matrix(model: CoefficientModel, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Flow coupling sigma_ij(x, y) = sum_l c_il(x) c_jl(y)."""
    cx = model.c_at(x)
    cy = model.c_at(y)
    return cx @ cy.T


def a_matrix(model: CoefficientModel, x: np.ndarray, y: np.ndarray,
             same_particle: bool) -> np.ndarray:
    """Two-point diffusion matrix; the b term appears on-particle only."""
    s = sigma_matrix(model, x, y)
    if same_particle:
        bx = model.b_at(x)
        by = model.b_at(y)
        s = s + np.diag(bx * by)
    return s


# ---------------------------------------------------------------------------
# test functions


class TestFunction:
    """Scalar function on R^d with optional analytic derivatives."""

    dim: int
    twice_differentiable: bool = True

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def value_many(self, xs: np.ndarray) -> np.ndarray:
        return np.array([self.value(x) for x in np.atleast_2d(xs)])

    def grad(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        h = _fd_step(x)
        g = np.empty(self.dim)
        for i in range(self.dim):
            e = np.zeros(self.dim)
            e[i] = h
            g[i] = (self.value(x + e) - self.value(x - e)) / (2 * h)
        return g

    def grad_many(self, xs: np.ndarray) -> np.ndarray:
        return np.array([self.grad(x) for x in np.atleast_2d(xs)])

    def hess(self, x: np.ndarray) -> np.ndarray:
        if not self.twice_differentiable:
            raise UnsupportedFunctionError(
                f"{type(self).__name__} is not tagged twice differentiable"
            )
        x = np.asarray(x, dtype=float)
        h = _fd_step(x)
        d = self.dim
        out = np.empty((d, d))
        f0 = self.value(x)
        for i in range(d):
            ei = np.zeros(d)
            ei[i] = h
            out[i, i] = (self.value(x + ei) - 2 * f0 + self.value(x - ei)) / h**2
            for j in range(i + 1, d):
                ej = np.zeros(d)
                ej[j] = h
                v = (self.value(x + ei + ej) - self.value(x + ei - ej)
                     - self.value(x - ei + ej) + self.value(x - ei - ej)) / (4 * h**2)
                out[i, j] = v
                out[j, i] = v
        return out


class ConstantOne(TestFunction):
    """The function identically equal to one."""

    def __init__(self, dim: int = 1):
        self.dim = dim

    def value(self, x):
        return 1.0

    def value_many(self, xs):
        return np.ones(np.atleast_2d(xs).shape[0])

    def grad(self, x):
        return np.zeros(self.dim)

    def grad_many(self, xs):
        return np.zeros_like(np.atleast_2d(xs), dtype=float)

    def hess(self, x):
        return np.zeros((self.dim, self.dim))


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

    def value(self, x):
        dx = np.asarray(x, dtype=float) - self.center
        return self.amplitude * float(np.exp(-0.5 * dx @ self.precision @ dx))

    def value_many(self, xs):
        dx = np.atleast_2d(xs) - self.center
        q = np.einsum("ki,ij,kj->k", dx, self.precision, dx)
        return self.amplitude * np.exp(-0.5 * q)

    def grad(self, x):
        dx = np.asarray(x, dtype=float) - self.center
        return -self.value(x) * (self.precision @ dx)

    def grad_many(self, xs):
        dx = np.atleast_2d(xs) - self.center
        vals = self.value_many(xs)
        return -vals[:, None] * (dx @ self.precision.T)

    def hess(self, x):
        dx = np.asarray(x, dtype=float) - self.center
        pdx = self.precision @ dx
        return self.value(x) * (np.outer(pdx, pdx) - self.precision)


class CallableFunction(TestFunction):
    """Wraps a plain callable; derivatives fall back to central differences
    with step 1e-4 * (1 + |x|) unless analytic ones are supplied."""

    def __init__(self, fn: Callable[[np.ndarray], float], dim: int,
                 grad: Optional[Callable] = None, hess: Optional[Callable] = None,
                 twice_differentiable: bool = True):
        self._fn = fn
        self.dim = dim
        self._grad = grad
        self._hess = hess
        self.twice_differentiable = twice_differentiable

    def value(self, x):
        return float(self._fn(np.asarray(x, dtype=float)))

    def grad(self, x):
        if self._grad is not None:
            return np.asarray(self._grad(np.asarray(x, dtype=float)), dtype=float)
        return super().grad(x)

    def hess(self, x):
        if self._hess is not None:
            return np.asarray(self._hess(np.asarray(x, dtype=float)), dtype=float)
        return super().hess(x)


# ---------------------------------------------------------------------------
# the one-particle generator


def generator_L(model: CoefficientModel, f: TestFunction, x: np.ndarray) -> float:
    """One-particle generator: 0.5 * sum_ij a_ij(x, x) d2f/dxi dxj."""
    x = np.asarray(x, dtype=float)
    a = a_matrix(model, x, x, same_particle=True)
    return 0.5 * float(np.sum(a * f.hess(x)))


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

    def support_box(self) -> tuple[np.ndarray, np.ndarray]:
        pts = np.array([p for p, _ in self.atoms])
        return pts.min(axis=0), pts.max(axis=0)


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    passed: bool
    min_eigenvalue: float
    lipschitz_b: float
    lipschitz_c: float
    messages: list[str] = field(default_factory=list)


def default_probe_grid(model: CoefficientModel,
                       initial: Optional[InitialMeasureSpec] = None,
                       horizon: float = 1.0) -> np.ndarray:
    """Lattice of PROBE_POINTS per axis over the initial support box
    inflated by three diffusion standard deviations at the horizon."""
    d = model.dim
    if initial is not None:
        lo, hi = initial.support_box()
    else:
        lo = np.zeros(d)
        hi = np.zeros(d)
    center = 0.5 * (lo + hi)
    try:
        a0 = a_matrix(model, center, center, same_particle=True)
        spread = 3.0 * np.sqrt(max(float(np.max(np.linalg.eigvalsh(a0))), 0.0) * horizon)
    except Exception:
        spread = 3.0 * np.sqrt(horizon)
    lo = lo - spread - 1e-6
    hi = hi + spread + 1e-6
    axes = [np.linspace(lo[i], hi[i], PROBE_POINTS) for i in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def validate_model(model: CoefficientModel,
                   initial: Optional[InitialMeasureSpec] = None,
                   horizon: float = 1.0) -> ValidationReport:
    """Probe ellipticity of a(x, x) and estimate Lipschitz constants of b
    and c over pairs of the default probe grid, and check the initial
    measure."""
    probe_grid = default_probe_grid(model, initial=initial, horizon=horizon)

    min_eig = np.inf
    lip_b = 0.0
    lip_c = 0.0
    msgs: list[str] = []
    prev = None
    for x in probe_grid:
        b, c = evaluate_coefficients(model, x)
        axx = a_matrix(model, x, x, same_particle=True)
        eigs = np.linalg.eigvalsh(0.5 * (axx + axx.T))
        min_eig = min(min_eig, float(eigs.min()))
        if prev is not None:
            xp, bp, cp = prev
            gap = float(np.linalg.norm(x - xp))
            if gap > 0:
                lip_b = max(lip_b, float(np.linalg.norm(b - bp)) / gap)
                lip_c = max(lip_c, float(np.linalg.norm(c - cp)) / gap)
        prev = (x, b, c)

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
                            lipschitz_b=lip_b, lipschitz_c=lip_c,
                            messages=msgs)
