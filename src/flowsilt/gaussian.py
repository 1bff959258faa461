"""A closed algebra of (possibly degenerate) Gaussian-shaped functions.

Members have the form

    f(x) = amplitude * exp(-(x - mean)' P (x - mean) / 2),

with P symmetric positive semidefinite on R^(k*d). Zero rows of P encode
directions the function does not depend on; the constant-one function is
amplitude 1 with P = 0. The family is closed under

  * convolution with a centered Gaussian kernel (semigroup steps),
  * linear pullback (identifying coordinate blocks at a branch point),

which is exactly what the moment calculus composes. All helpers below
broadcast over an arbitrary leading batch shape so quadrature grids can be
pushed through the pipeline in one shot.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def convolve_params(amp, mean, prec, cov):
    """Convolve f with N(0, cov): returns updated (amp, mean, prec).

    I + cov @ P always has positive determinant for PSD inputs, so the
    update never leaves the family. The mean is unchanged.
    """
    prec = np.asarray(prec, dtype=float)
    cov = np.asarray(cov, dtype=float)
    n = prec.shape[-1]
    eye = np.eye(n)
    m = eye + np.matmul(cov, prec)
    sign, logdet = np.linalg.slogdet(m)
    if np.any(sign <= 0):
        raise np.linalg.LinAlgError("convolution determinant not positive; "
                                    "precision or kernel covariance not PSD")
    new_amp = np.asarray(amp, dtype=float) * np.exp(-0.5 * logdet)
    # P (I + cov P)^{-1} computed as solve(I + P cov, P), then symmetrized
    m2 = eye + np.matmul(prec, cov)
    new_prec = np.linalg.solve(m2, prec)
    new_prec = 0.5 * (new_prec + np.swapaxes(new_prec, -1, -2))
    return new_amp, np.asarray(mean, dtype=float), new_prec


def pullback_params(amp, mean, prec, embed):
    """Compose f with the linear map x = embed @ z.

    Returns parameters of g(z) = f(embed z). The new mean is the least
    squares representative; the offset energy folds into the amplitude.
    """
    embed = np.asarray(embed, dtype=float)
    prec = np.asarray(prec, dtype=float)
    mean = np.asarray(mean, dtype=float)
    et_p = np.matmul(np.swapaxes(embed, -1, -2), prec)
    new_prec = np.matmul(et_p, embed)
    new_prec = 0.5 * (new_prec + np.swapaxes(new_prec, -1, -2))
    rhs = np.matmul(et_p, mean[..., None])[..., 0]
    new_mean = np.matmul(np.linalg.pinv(new_prec, hermitian=True), rhs[..., None])[..., 0]
    e_old = np.einsum("...i,...ij,...j->...", mean, prec, mean)
    e_new = np.einsum("...i,...ij,...j->...", new_mean, new_prec, new_mean)
    gap = np.maximum(e_old - e_new, 0.0)
    new_amp = np.asarray(amp, dtype=float) * np.exp(-0.5 * gap)
    return new_amp, new_mean, new_prec


def value_params(amp, mean, prec, x):
    """Evaluate f at x (trailing axis is the flattened coordinate)."""
    dx = np.asarray(x, dtype=float) - mean
    q = np.einsum("...i,...ij,...j->...", dx, prec, dx)
    return amp * np.exp(-0.5 * q)


def merge_embedding(arity: int, dim: int, i: int, j: int) -> np.ndarray:
    """0/1 matrix mapping (arity-1) blocks to ``arity`` blocks, writing the
    merged source into both slot i and slot j (0-based block indices)."""
    if not (0 <= i < j < arity):
        raise ValueError(f"need 0 <= i < j < {arity}, got ({i}, {j})")
    e = np.zeros((arity * dim, (arity - 1) * dim))
    src = 0
    for blk in range(arity):
        if blk == j:
            tgt = i  # duplicate the block already written at slot i
        else:
            tgt = src
            src += 1
        for r in range(dim):
            e[blk * dim + r, tgt * dim + r] = 1.0
    return e


class GaussianFunctional:
    """One member of the family, on R^(arity x dim)."""

    def __init__(self, arity: int, dim: int, amplitude: float,
                 mean: np.ndarray, precision: np.ndarray):
        self.arity = int(arity)
        self.dim = int(dim)
        n = self.arity * self.dim
        self.amplitude = float(amplitude)
        self.mean = np.asarray(mean, dtype=float).reshape(n)
        self.precision = np.asarray(precision, dtype=float).reshape(n, n)
        if not np.allclose(self.precision, self.precision.T, atol=1e-12):
            raise ValueError("precision must be symmetric")
        eigs = np.linalg.eigvalsh(self.precision)
        if eigs.min() < -1e-10 * max(1.0, abs(eigs.max())):
            raise ValueError("precision must be positive semidefinite")

    @classmethod
    def constant_one(cls, arity: int, dim: int) -> "GaussianFunctional":
        n = arity * dim
        return cls(arity, dim, 1.0, np.zeros(n), np.zeros((n, n)))

    @classmethod
    def product(cls, factors: Sequence["GaussianFunctional"]) -> "GaussianFunctional":
        """Tensor product of arity-1 members into one multi-block member."""
        if any(f.arity != 1 for f in factors):
            raise ValueError("product factors must have arity 1")
        dim = factors[0].dim
        if any(f.dim != dim for f in factors):
            raise ValueError("product factors must share a dimension")
        k = len(factors)
        amp = float(np.prod([f.amplitude for f in factors]))
        mean = np.concatenate([f.mean for f in factors])
        prec = np.zeros((k * dim, k * dim))
        for p, f in enumerate(factors):
            prec[p * dim:(p + 1) * dim, p * dim:(p + 1) * dim] = f.precision
        return cls(k, dim, amp, mean, prec)
