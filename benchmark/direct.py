"""Direct computations the benchmark compares the program against.

Nothing here calls flowsilt's estimators or kernels: the mollifier gets
its own normaliser, pair sums are plain loops over cells, and integrals
use composite Gauss-Legendre rules.
"""

from __future__ import annotations

import math

import numpy as np

_SPHERE = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


def _panels(lo: float, hi: float, panels: int, nodes: int = 16):
    """Composite Gauss-Legendre points and weights on [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * x[None, :]).reshape(-1)
    wts = (half[:, None] * w[None, :]).reshape(-1)
    return pts, wts


def bump_normaliser(d: int) -> float:
    """c_d with c_d * exp(-1 / (1 - |x|^2)) integrating to one on the
    unit ball of R^d. The integrand is flat to all orders at r = 1, so
    a fine composite rule converges to rounding."""
    r, w = _panels(0.0, 1.0, 400)
    shell = r ** (d - 1) * np.exp(-1.0 / (1.0 - r * r))
    return 1.0 / (_SPHERE[d] * float(shell @ w))


def psi(r: np.ndarray, eps: float, d: int, norm: float) -> np.ndarray:
    """The mollifier of radius eps as a function of radius."""
    s = np.asarray(r, dtype=float) / eps
    out = np.zeros_like(s)
    inside = s < 1.0
    out[inside] = norm / eps ** d * np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out


def gamma_direct(positions, dt: float, weight: float, eps_list,
                 u=None) -> list[float]:
    """dt^2 sum_{i < j < J} sum_{a, b} w^2 psi_eps(|x_a(t_i) - x_b(t_j) - u|)
    for every eps, on recorded positions t_0 .. t_J (left-endpoint sums)."""
    d = positions[0].shape[1]
    shift = np.zeros(d) if u is None else np.asarray(u, dtype=float)
    norm = bump_normaliser(d)
    reach = max(eps_list)
    totals = [0.0] * len(eps_list)
    last = len(positions) - 1
    for j in range(1, last):
        b = positions[j]
        for i in range(j):
            a = positions[i]
            if a.shape[0] == 0 or b.shape[0] == 0:
                continue
            diff = a[:, None, :] - b[None, :, :] - shift
            r = np.sqrt((diff ** 2).sum(axis=2)).reshape(-1)
            near = r[r < reach]
            for e, eps in enumerate(eps_list):
                totals[e] += float(psi(near, eps, d, norm).sum())
    return [dt * dt * weight * weight * t for t in totals]


def radial_mass(radial, d: int, eps: float, support: float) -> float:
    """|S^{d-1}| * integral_0^support r^{d-1} G(r) dr from radial reads,
    split at eps where the mollified profile changes character."""
    r1, w1 = _panels(0.0, eps, 200)
    r2, w2 = _panels(eps, support, 2000)
    r = np.concatenate([r1, r2])
    w = np.concatenate([w1, w2])
    return _SPHERE[d] * float((r ** (d - 1) * radial(r)) @ w)
