"""Renormalized self-intersection functionals on recorded trajectories.

Everything here reduces to pair sums: for snapshot times t_i <= t_j, the
cell value p[i, j] = sum_{a,b} w^2 K(|x_a(t_i) - x_b(t_j) - u|) for radial
kernels K. One streaming pass over the time columns feeds every kernel of
an estimator (the mollified resolvent, the mollifier itself, box
indicators, the exact resolvent): column j pairs x(t_j) with all earlier
snapshots and with itself, one block of radii at a time, so estimators
with different kernels are coupled on the same paths by construction and
no more than a bounded block of radii is held at once. Compactly supported
kernels are evaluated only on the radii within their reach.

Discretization conventions, fixed across all components so the Tanaka
identity closes at the grid level: every time integral is a left-endpoint
sum on the recorded sub-step grid, and same-time pair sums keep the a = b
self-pairs.

With an isotropic simulation generator the operator applied to the
mollified kernel stays in closed form,

    (lambda - L_sim) G_eps = lambda (1 - rho) G_eps + rho psi_eps,
    L_sim G_eps = rho (lambda G_eps - psi_eps),      rho = a_sim / a_kernel,

so no numerical differentiation of the profile enters the estimators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import math

import numpy as np

from .engine import (EnsembleResult, RecordedTrajectory, simulate_ensemble)
from .green import GreenFunction, MollifiedGreen
from .model import CoefficientModel, InitialMeasureSpec, a_matrix


class SiltUsageError(ValueError):
    pass


class ResolutionError(SiltUsageError):
    """The recorded grid is too coarse for the double time integral."""


MIN_TIME_POINTS = 8
SMALL_BALL_H = 0.1   # box radius of the eps-study's small-ball estimate


@dataclass(frozen=True)
class SiltComponents:
    gamma: float
    double_point: float
    lambda_term: float
    boundary_term: float
    stochastic_term: float
    renormalized: float
    ito_residual: float


def isotropic_alpha(model: CoefficientModel) -> float:
    """The scalar a with a(x, x) = alpha * I, or an error."""
    zero = np.zeros(model.dim)
    a = a_matrix(model, zero, zero, same_particle=True)
    diag = np.diagonal(a)
    if not (np.allclose(diag, diag[0], rtol=1e-12, atol=1e-14)
            and np.allclose(a - np.diag(diag), 0.0, atol=1e-14)):
        raise SiltUsageError(
            "self-intersection estimators need isotropic coefficients"
        )
    return float(diag[0])


def _sim_alpha(traj: RecordedTrajectory, kernel: MollifiedGreen) -> float:
    """The simulation's isotropic alpha, checked against the kernel's
    dimension."""
    if traj.model.dim != kernel.dim:
        raise SiltUsageError("trajectory and kernel dimensions differ")
    return isotropic_alpha(traj.model)


# ---------------------------------------------------------------------------
# pair-radius grids


def _offsets(parts: Sequence[np.ndarray]) -> np.ndarray:
    lengths = np.array([p.shape[0] for p in parts], dtype=np.int64)
    out = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


class PairGrid:
    """All pairwise radii |x(t_i) - y(t_j) - u| on a trajectory prefix.

    Strict cells (i < j) and diagonal cells (i = j, self-pairs included)
    are stored as two flat arrays with per-cell offsets; each kernel is
    one vectorized evaluation plus a segmented reduction. The estimators
    use the streaming ``_pair_pass``; this dense form holds all J^2 A^2
    radii at once and is kept as its reference.
    """

    def __init__(self, traj: RecordedTrajectory, u, upto: int):
        self.upto = upto
        self.weight2 = traj.weight ** 2
        d = traj.positions[0].shape[1] if traj.positions else 1
        shift = np.zeros(d) if u is None else np.asarray(u, dtype=float)
        pos = traj.positions[:upto + 1]

        strict_cells = []
        strict_parts = []
        for j in range(1, upto + 1):
            b = pos[j]
            for i in range(j):
                a = pos[i]
                if a.shape[0] == 0 or b.shape[0] == 0:
                    continue
                diff = a[:, None, :] - b[None, :, :] - shift
                strict_parts.append(
                    np.sqrt((diff ** 2).sum(axis=2)).reshape(-1))
                strict_cells.append((i, j))
        self.strict_cells = strict_cells
        self.strict_radii = (np.concatenate(strict_parts) if strict_parts
                             else np.zeros(0))
        self.strict_offsets = _offsets(strict_parts)

        diag_cells = []
        diag_parts = []
        for j in range(upto + 1):
            a = pos[j]
            if a.shape[0] == 0:
                continue
            diff = a[:, None, :] - a[None, :, :] - shift
            diag_parts.append(np.sqrt((diff ** 2).sum(axis=2)).reshape(-1))
            diag_cells.append(j)
        self.diag_cells = diag_cells
        self.diag_radii = (np.concatenate(diag_parts) if diag_parts
                           else np.zeros(0))
        self.diag_offsets = _offsets(diag_parts)

    def _cell_sums(self, radial_fn, radii, offsets) -> np.ndarray:
        if radii.shape[0] == 0:
            return np.zeros(0)
        vals = np.asarray(radial_fn(radii), dtype=float)
        sums = np.add.reduceat(vals, offsets[:-1])
        return sums * self.weight2

    def strict_matrix(self, radial_fn) -> np.ndarray:
        """(upto+1)^2 matrix with <K, mu_i mu_j> at i < j, zero elsewhere."""
        m = np.zeros((self.upto + 1, self.upto + 1))
        sums = self._cell_sums(radial_fn, self.strict_radii,
                               self.strict_offsets)
        for (i, j), v in zip(self.strict_cells, sums):
            m[i, j] = v
        return m

    def strict_total(self, radial_fn, col_max: int) -> float:
        """Sum of <K, mu_i mu_j> over i < j <= col_max."""
        sums = self._cell_sums(radial_fn, self.strict_radii,
                               self.strict_offsets)
        return float(sum(v for (i, j), v in zip(self.strict_cells, sums)
                         if j <= col_max))

    def diagonal(self, radial_fn) -> np.ndarray:
        """Vector of <K, mu_j mu_j> including self-pairs."""
        out = np.zeros(self.upto + 1)
        sums = self._cell_sums(radial_fn, self.diag_radii, self.diag_offsets)
        for j, v in zip(self.diag_cells, sums):
            out[j] = v
        return out


# ---------------------------------------------------------------------------
# streaming pair sums

# radii held at once per block: each temporary of a block is at most 2 MiB
BLOCK_PAIRS = 1 << 18


def _radii(rows: np.ndarray, cols: np.ndarray,
           shift: np.ndarray) -> np.ndarray:
    """(len(rows), len(cols)) radii |rows_a - cols_b - shift|, summed
    coordinate by coordinate so no (N, M, d) temporary is formed."""
    acc = np.subtract.outer(rows[:, 0], cols[:, 0] + shift[0])
    if rows.shape[1] == 1:
        return np.abs(acc, out=acc)
    np.square(acc, out=acc)
    tmp = np.empty_like(acc)
    for k in range(1, rows.shape[1]):
        np.subtract.outer(rows[:, k], cols[:, k] + shift[k], out=tmp)
        acc += np.square(tmp, out=tmp)
    return np.sqrt(acc, out=acc)


def _segment_sums(vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sums of vals over the segments that begin at starts (the last one
    runs to the end); empty segments sum to zero."""
    out = np.zeros(len(starts))
    nonempty = np.diff(starts, append=vals.shape[0]) > 0
    if nonempty.any():
        out[nonempty] = np.add.reduceat(vals, starts[nonempty], dtype=float)
    return out


def _read_sums(radii: np.ndarray, starts: np.ndarray, reads) -> np.ndarray:
    """Per-segment kernel sums over flat radii, one row per read.

    A read is (radial_fn, reach) with radial_fn zero beyond reach
    (math.inf for kernels without compact support). Reads are visited by
    falling reach, each keeping only the radii within its own reach from
    those the one before kept, so a compact kernel never sees the far
    pairs.
    """
    cur = radii.reshape(-1)
    out = np.zeros((len(reads), len(starts)))
    held = math.inf
    for k in sorted(range(len(reads)), key=lambda k: -reads[k][1]):
        fn, reach = reads[k]
        if reach < held:
            keep = cur <= reach
            counts = _segment_sums(keep, starts).astype(np.int64)
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            cur = cur[keep]
            held = reach
        if cur.size:
            out[k] = _segment_sums(np.asarray(fn(cur), dtype=float), starts)
    return out


def _pair_pass(traj: RecordedTrajectory, u, last: int, strict=(), diag=()):
    """Pair-functional cell sums over snapshots t_0 .. t_last, one time
    column at a time.

    Returns ``(cells, diagonal)``: ``cells[k]`` is the (last+1)^2 matrix
    with p[i, j] at i < j for strict read k, and ``diagonal[k]`` the
    vector p[j, j] (self-pairs included) for diag read k. Column j pairs
    x(t_j) with the concatenated earlier snapshots in blocks of whole
    snapshots holding at most ``BLOCK_PAIRS`` radii (one snapshot when it
    alone is larger), and with itself; each block is dropped after its
    sums are taken.
    """
    pos = traj.positions[:last + 1]
    d = pos[0].shape[1]
    shift = np.zeros(d) if u is None else np.asarray(u, dtype=float).reshape(d)
    flat = np.concatenate(pos)
    off = _offsets(pos)
    cells = np.zeros((len(strict), last + 1, last + 1))
    diagonal = np.zeros((len(diag), last + 1))
    one_segment = np.zeros(1, dtype=np.int64)
    for j in range(last + 1):
        col = pos[j]
        width = col.shape[0]
        if width == 0:
            continue
        if diag:
            diagonal[:, j] = _read_sums(_radii(col, col, shift), one_segment,
                                        diag)[:, 0]
        if not strict:
            continue
        cap = max(1, BLOCK_PAIRS // width)
        lo = 0
        while lo < j:
            hi = lo + 1
            while hi < j and off[hi + 1] - off[lo] <= cap:
                hi += 1
            if off[hi] > off[lo]:
                starts = (off[lo:hi] - off[lo]) * width
                block = _radii(flat[off[lo]:off[hi]], col, shift)
                cells[:, lo:hi, j] = _read_sums(block, starts, strict)
            lo = hi
    w2 = traj.weight ** 2
    return cells * w2, diagonal * w2


def _gamma_read(kernel: MollifiedGreen, alpha_sim: float):
    """(lambda - L_sim) G_eps as a read: compact exactly when the
    simulation generator is the kernel's own (rho = 1)."""
    reach = kernel.eps if alpha_sim == kernel.base.alpha else math.inf
    return (lambda r: kernel.lambda_minus_l_radial(r, sim_alpha=alpha_sim),
            reach)


# ---------------------------------------------------------------------------
# estimator components


def _require_resolution(upto: int) -> None:
    if upto + 1 < MIN_TIME_POINTS:
        raise ResolutionError(
            f"need at least {MIN_TIME_POINTS} recorded time points, "
            f"got {upto + 1}"
        )


def _check_lambda(kernel: MollifiedGreen, lam: float) -> None:
    if abs(kernel.lam - lam) > 1e-12 * max(1.0, lam):
        raise SiltUsageError(
            f"kernel was built at lambda={kernel.lam}, asked for {lam}"
        )


def gamma_epsilon(traj: RecordedTrajectory, kernel: MollifiedGreen,
                  lam: float, horizon: float) -> float:
    """Double time integral of <(lambda - L) G_eps, mu_s mu_t> over s < t."""
    _check_lambda(kernel, lam)
    alpha_sim = _sim_alpha(traj, kernel)
    upto = traj.snap_index(horizon)
    _require_resolution(upto)
    cells, _ = _pair_pass(traj, kernel.u, upto - 1,
                          strict=[_gamma_read(kernel, alpha_sim)])
    dt = traj.dt
    return dt * dt * float(cells[0].sum())


def double_point_term(traj: RecordedTrajectory, kernel: MollifiedGreen,
                      horizon: float) -> float:
    """Left-endpoint time integral of the same-time pair functional."""
    upto = traj.snap_index(horizon)
    if upto == 0:
        return 0.0
    _, diag = _pair_pass(traj, kernel.u, upto - 1,
                         diag=[(kernel.radial, math.inf)])
    return traj.dt * float(diag[0].sum())


def tanaka_decomposition(traj: RecordedTrajectory, kernel: MollifiedGreen,
                         lam: float, horizon: float) -> SiltComponents:
    """All components of the decomposition on one trajectory.

    The stochastic term uses the predictable left endpoint: the integrand
    frozen at t_k is paired against the increment to t_{k+1}.
    """
    _check_lambda(kernel, lam)
    upto = traj.snap_index(horizon)
    _require_resolution(upto)
    rho = _sim_alpha(traj, kernel) / kernel.base.alpha
    g_read = (kernel.radial, math.inf)
    (p_g, p_psi), (diag_g,) = _pair_pass(
        traj, kernel.u, upto,
        strict=[g_read, (kernel.lambda_minus_l_radial, kernel.eps)],
        diag=[g_read])
    return _components(p_g, p_psi, diag_g, lam, rho, traj.dt, upto)


def _components(p_g: np.ndarray, p_psi: np.ndarray, diag_g: np.ndarray,
                lam: float, rho: float, dt: float, upto: int) -> SiltComponents:
    strict_g = p_g[:, :upto].sum()
    strict_psi = p_psi[:, :upto].sum()

    gamma = dt * dt * (lam * (1.0 - rho) * strict_g + rho * strict_psi)
    double_point = dt * float(diag_g[:upto].sum())
    lambda_term = lam * dt * dt * float(strict_g)
    boundary = dt * float(p_g[:upto, upto].sum())

    # cumulative rows: s[k, j] = sum_{i < k} p[i, j]
    s_g = np.zeros((upto + 2, upto + 1))
    np.cumsum(p_g, axis=0, out=s_g[1:])
    p_lg = rho * (lam * p_g - p_psi)
    s_lg = np.zeros((upto + 2, upto + 1))
    np.cumsum(p_lg, axis=0, out=s_lg[1:])

    ks = np.arange(upto)
    stoch = float(
        (dt * (s_g[ks, ks + 1] - s_g[ks, ks]) - dt * dt * s_lg[ks, ks]).sum()
    )
    renorm = gamma - double_point
    residual = renorm - (lambda_term - boundary + stoch)
    return SiltComponents(float(gamma), float(double_point),
                          float(lambda_term), float(boundary), float(stoch),
                          float(renorm), float(residual))


# ---------------------------------------------------------------------------
# epsilon convergence study (coupled seeds)


@dataclass
class EpsStudy:
    eps: tuple[float, ...]
    renormalized: np.ndarray      # (R, E)
    double_points: np.ndarray     # (R, E)
    distances: list[tuple[float, float, float, float]]  # eps_i, eps_j, L2, se
    variances: np.ndarray         # (E,)
    small_ball: Optional[np.ndarray] = None   # (R,)
    lam: float = 0.0
    u: Optional[np.ndarray] = None

    def extrapolated_limit(self) -> np.ndarray:
        """Per-replicate renormalized value extrapolated to zero smoothing.

        Quadratic-in-scale Lagrange extrapolation through the last three
        schedule values (the schedule is strictly decreasing).  Pair
        separations concentrate near zero with a kink in their density, so
        the scale error carries a linear term on top of the quadratic one;
        fitting both and evaluating at zero removes them together.
        """
        x = self.eps[-3:]
        cols = self.renormalized[:, -3:]
        out = np.zeros(self.renormalized.shape[0])
        for pos in range(3):
            w = 1.0
            for q, xq in enumerate(x):
                if q != pos:
                    w *= xq / (xq - x[pos])
            out += w * cols[:, pos]
        return out


def _small_ball_reads(base: GreenFunction, h: float):
    """Strict box reads at radii h, h/2, h/4 and the exact-kernel diag read."""
    if base.dim != 1:
        raise SiltUsageError("the small-ball comparator is one-dimensional")

    def box(width):
        return (lambda r: (r <= width) / (2.0 * width), width)
    return [box(h), box(0.5 * h), box(0.25 * h)], [(base.radial, math.inf)]


def _small_ball_value(boxes: np.ndarray, diag: np.ndarray, dt: float) -> float:
    b1, b2, b3 = (dt * dt * float(cells.sum()) for cells in boxes)
    gamma0 = (b1 - 6.0 * b2 + 8.0 * b3) / 3.0
    return gamma0 - dt * float(diag.sum())


def small_ball_lambda(traj: RecordedTrajectory, base: GreenFunction,
                      h: float) -> float:
    """Occupation-style estimate of the limiting renormalized value.

    Box-kernel pair counts at radii h, h/2 and h/4 combined with weights
    (1, -6, 8)/3, minus the same-time term under the exact kernel, over
    the whole recorded path.  The pair-separation density has a kink at
    zero (nearby relatives pile up there), so the box estimate carries
    both linear and quadratic errors in h; the three-point combination
    cancels both.  One-dimensional paths only.
    """
    strict, diag = _small_ball_reads(base, h)
    upto = len(traj.times) - 1
    _require_resolution(upto)
    boxes, (dp,) = _pair_pass(traj, base.u, upto - 1, strict, diag)
    return _small_ball_value(boxes, dp, traj.dt)


def epsilon_convergence_study(model: CoefficientModel,
                              initial: InitialMeasureSpec,
                              n: int, horizon: float, lam: float, u,
                              eps_schedule: Sequence[float],
                              replicates: int, seed: int,
                              sub_steps: int = 1,
                              workers: int = 1) -> EpsStudy:
    """Coupled-seed L2 distances between consecutive renormalized values.

    All kernels are evaluated on the same simulated paths (common random
    numbers), so the reported distances isolate the kernel change. In one
    dimension the small-ball estimate at h = SMALL_BALL_H is taken on the
    same paths.
    """
    eps_schedule = tuple(float(e) for e in eps_schedule)
    if len(eps_schedule) < 3:
        raise SiltUsageError("the schedule needs at least three values")
    if any(e <= 0 for e in eps_schedule):
        raise SiltUsageError("eps values must be positive")
    if any(b >= a for a, b in zip(eps_schedule, eps_schedule[1:])):
        raise SiltUsageError("the schedule must be strictly decreasing")

    base = GreenFunction(model, lam, u)
    kernels = [MollifiedGreen(base, e) for e in eps_schedule]
    alpha_sim = isotropic_alpha(model)

    result = simulate_ensemble(model, initial, n, horizon, seed, replicates,
                               sub_steps=sub_steps, record="full",
                               workers=workers)
    n_eps = len(eps_schedule)
    renorm = np.zeros((replicates, n_eps))
    dps = np.zeros((replicates, n_eps))
    sball = np.zeros(replicates) if model.dim == 1 else None

    strict = [_gamma_read(kern, alpha_sim) for kern in kernels]
    diag = [(kern.radial, math.inf) for kern in kernels]
    if sball is not None:
        box_reads, base_read = _small_ball_reads(base, SMALL_BALL_H)
        strict += box_reads
        diag += base_read

    for r in range(replicates):
        traj = result.trajectory(r)
        upto = len(traj.times) - 1
        if upto == 0:
            continue
        _require_resolution(upto)
        cells, diags = _pair_pass(traj, base.u, upto - 1, strict, diag)
        dt = traj.dt
        for e in range(n_eps):
            gamma = dt * dt * float(cells[e].sum())
            dp = dt * float(diags[e].sum())
            renorm[r, e] = gamma - dp
            dps[r, e] = dp
        if sball is not None:
            sball[r] = _small_ball_value(cells[n_eps:], diags[n_eps], dt)

    distances = []
    for e in range(n_eps - 1):
        diff2 = (renorm[:, e] - renorm[:, e + 1]) ** 2
        l2 = float(diff2.mean())
        se = float(diff2.std(ddof=1) / np.sqrt(replicates))
        distances.append((eps_schedule[e], eps_schedule[e + 1], l2, se))

    return EpsStudy(
        eps=eps_schedule,
        renormalized=renorm,
        double_points=dps,
        distances=distances,
        variances=renorm.var(axis=0, ddof=1),
        small_ball=sball,
        lam=lam,
        u=np.asarray(u, dtype=float) if u is not None else np.zeros(model.dim),
    )


# ---------------------------------------------------------------------------
# ensemble decomposition runs and CSV output


def decomposition_ensemble(result: EnsembleResult, kernel: MollifiedGreen,
                           lam: float, horizon: float) -> list[SiltComponents]:
    """Tanaka components for every replicate of a fully recorded run."""
    out = []
    for r in range(result.replicates):
        out.append(tanaka_decomposition(result.trajectory(r), kernel, lam,
                                        horizon))
    return out


def write_components_csv(path, rows: Sequence[tuple[int, float, SiltComponents]]) -> None:
    """Rows of (replicate, eps, components)."""
    header = ("replicate,eps,gamma,double_point,lambda_term,boundary_term,"
              "stochastic_term,renormalized,ito_residual")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for rep, eps, c in rows:
            fields = [str(rep), f"{eps:.12g}"] + [
                f"{v:.17g}" for v in (c.gamma, c.double_point, c.lambda_term,
                                      c.boundary_term, c.stochastic_term,
                                      c.renormalized, c.ito_residual)
            ]
            fh.write(",".join(fields) + "\n")


def write_study_csv(path, study: EpsStudy) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("eps_i,eps_j,L2_distance,stderr\n")
        for ei, ej, l2, se in study.distances:
            fh.write(f"{ei:.12g},{ej:.12g},{l2:.17g},{se:.17g}\n")
