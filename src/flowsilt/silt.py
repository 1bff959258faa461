"""Renormalized self-intersection functionals on recorded trajectories.

Everything here reduces to pair sums: for snapshot times t_i <= t_j, the
cell value p[i, j] = sum_{a,b} w^2 K(|x_a(t_i) - x_b(t_j) - u|) for radial
kernels K. One streaming pass over the time columns feeds every kernel of
an estimator (the mollified resolvent, the mollifier itself, box
indicators, the exact resolvent): column j pairs x(t_j) with all earlier
snapshots and with itself, one block of radii at a time, so estimators
with different kernels are coupled on the same paths by construction and
no more than a bounded block of radii is held at once. A read is a
radial kernel with its reach (the radius beyond which it is zero), or a
group of kernels that share one read of a common sharp kernel and give
their rows in turn; compactly supported kernels are evaluated only on
the radii within their reach. When every strict (earlier-time) read is
compact, the strict radii beyond the widest reach are never formed: a
matmul prefilter picks the candidate pairs and exact radii are formed
only on them. The same-time blocks and the runs of earlier snapshots of
successive columns are queued into filled blocks of a bounded number of
radii, so a kernel is read once per filled block, not once per column.

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
from .model import CoefficientModel, InitialMeasureSpec, isotropic_diffusion


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
    alpha = isotropic_diffusion(model)
    if alpha is None:
        raise SiltUsageError(
            "self-intersection estimators need isotropic coefficients"
        )
    return alpha


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

# radii held at once per block. At 2^17 a block's radii fill 1 MiB, so a
# block and one temporary fit in a 2 MiB per-core L2 cache; at 2^18 they
# do not. In a sweep of 2^15..2^18 over the ito pass, the d=3 study and
# the d=1 eps-study (Xeon VM, 2 MiB L2 per core), 2^16 and 2^17 tied as
# fastest on all three, and 2^18 slowed the two studies by 20-35 %
# in the median.
BLOCK_PAIRS = 1 << 17


# pairs scored per prefilter matmul. OpenBLAS runs a gemm of m n k <= 2^18
# on the calling thread, and 2^15 pairs by d + 2 <= 5 terms stay below
# that; with whole pieces a second BLAS thread doubled the CPU time of the
# d=3 study (0.28 -> 0.61 s a round on a 2-core VM) at no gain in wall time.
SCORE_PAIRS = 1 << 15


def _radii(rows: np.ndarray, cols: np.ndarray,
           shift: np.ndarray) -> np.ndarray:
    """Radii |row - col - shift| for points whose leading axes broadcast
    against each other (rows[:, None] and cols[None] give every pair),
    summed coordinate by coordinate so no (..., d) temporary is formed."""
    acc = rows[..., 0] - (cols[..., 0] + shift[0])
    if rows.shape[-1] == 1:
        return np.abs(acc, out=acc)
    np.square(acc, out=acc)
    tmp = np.empty_like(acc)
    for k in range(1, rows.shape[-1]):
        np.subtract(rows[..., k], cols[..., k] + shift[k], out=tmp)
        acc += np.square(tmp, out=tmp)
    return np.sqrt(acc, out=acc)


class _ReachFilter:
    """Strict pairs within a finite reach R, built once per pass.

    ``pairs`` gives the flat row-major indices of the pairs with radius at
    most R in a block of rows against a column, and their radii exactly
    as ``_radii`` forms them, so the result is the full block filtered by
    ``<= R`` bit for bit. In d = 1 the block's radii are formed and
    filtered. In d >= 2 exact radii are formed only on candidates from a
    prefilter: with p = x - o and q = (y + u) - o centred on one origin
    o, the score |p|^2 + |q|^2 - 2 p.q of every pair is a matmul of the
    rows [p, |p|^2, 1] by the columns [-2 q, 1, |q|^2], taken over at most
    ``SCORE_PAIRS`` pairs at a time.

    Margin: let S bound |p| and |q|, t = x - fl(y + u) (the difference
    ``_radii`` rounds once per coordinate) and r the radius it returns.
    To first order in the unit roundoff u_r, |r - |t|| <= (d + 3) u_r |t|,
    centring moves p - q from t by at most 2 u_r S, and the score is
    within ((d + 2) 4 + 2 d) u_r S^2 of |p - q|^2 whatever the summation
    order. So r <= R implies score <= R^2 + (6 d + 8) u_r (R + S)^2, and
    the cut R^2 + 64 d eps_mach (R + S)^2 (eps_mach = 2 u_r) has a factor
    of more than twelve to spare in d >= 2; candidates beyond R are
    dropped on their exact radii.
    """

    def __init__(self, flat: np.ndarray, shift: np.ndarray, reach: float):
        self.flat, self.shift, self.reach = flat, shift, reach
        d = flat.shape[1]
        if d == 1:
            return
        origin = (flat.mean(axis=0) if flat.size else 0.0) + 0.5 * shift
        p = flat - origin
        q = (flat + shift) - origin
        pn = np.einsum("ij,ij->i", p, p)
        qn = np.einsum("ij,ij->i", q, q)
        self._rows = np.column_stack((p, pn, np.ones_like(pn)))
        self._cols = np.vstack((-2.0 * q.T, np.ones_like(qn), qn))
        scale = reach + math.sqrt(max(np.max(pn, initial=0.0),
                                      np.max(qn, initial=0.0)))
        self._cut = (reach * reach
                     + 64.0 * d * np.finfo(float).eps * scale * scale)

    def pairs(self, rows: slice, col: slice):
        """(indices, radii) of the pairs of flat[rows] x flat[col] within
        reach, indices row-major in the (rows, col) block."""
        a, b = self.flat[rows], self.flat[col]
        if a.shape[1] == 1:
            radii = _radii(a[:, None], b[None], self.shift).reshape(-1)
            idx = np.flatnonzero(radii <= self.reach)
            return idx, radii[idx]
        m = b.shape[0]
        scored, cols = self._rows[rows], self._cols[:, col]
        step = max(1, SCORE_PAIRS // max(m, 1))
        idx = [np.zeros(0, dtype=np.intp)]
        for lo in range(0, scored.shape[0], step):
            score = scored[lo:lo + step] @ cols
            idx.append(np.flatnonzero(score <= self._cut) + lo * m)
        idx = np.concatenate(idx)
        ia, ib = np.divmod(idx, m)
        radii = _radii(a[ia], b[ib], self.shift)
        keep = np.flatnonzero(radii <= self.reach)
        return idx[keep], radii[keep]


def _segment_sums(vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sums of vals over the segments that begin at starts (the last one
    runs to the end); empty segments sum to zero."""
    out = np.zeros(len(starts))
    nonempty = np.diff(starts, append=vals.shape[0]) > 0
    if nonempty.any():
        out[nonempty] = np.add.reduceat(vals, starts[nonempty], dtype=float)
    return out


def _read_sums(radii: np.ndarray, starts: np.ndarray, reads) -> np.ndarray:
    """Per-segment kernel sums over flat radii, one row per read row.

    A read is (radial_fn, reach), one row, with radial_fn zero beyond
    reach (math.inf for kernels without compact support), or (rows_fn,
    reach, n): rows_fn yields n rows in turn from one call, so work they
    share (one read of a common sharp kernel) is done once per block and
    no more than one row is held at a time. Reads are visited by falling
    reach, each keeping only the radii within its own reach from those
    the one before kept, so a compact kernel never sees the far pairs.
    """
    cur = radii.reshape(-1)
    first = np.cumsum([0] + [_height(read) for read in reads])
    out = np.zeros((first[-1], len(starts)))
    held = math.inf
    for k in sorted(range(len(reads)), key=lambda k: -reads[k][1]):
        fn, reach = reads[k][:2]
        if reach < held:
            keep = np.flatnonzero(cur <= reach)
            starts = np.searchsorted(keep, starts)
            cur = cur[keep]
            held = reach
        if not cur.size:
            continue
        rows = fn(cur) if len(reads[k]) > 2 else (fn(cur),)
        for row, vals in enumerate(rows, first[k]):
            out[row] = _segment_sums(np.asarray(vals, dtype=float), starts)
    return out


def _height(read) -> int:
    """The number of rows a read gives."""
    return read[2] if len(read) > 2 else 1


class _BlockQueue:
    """Pieces of radii queued into blocks of at most ``BLOCK_PAIRS``.

    A piece is a radius array with its segment starts and the cell of each
    segment. Adding a piece that would take the queue past the cap first
    flushes what is queued; a flush reads every kernel once over the
    concatenated pieces and writes each segment sum to its cell of out. A
    piece over the cap alone is a block of its own.
    """

    def __init__(self, reads, out: np.ndarray):
        self.reads = reads
        self.out = out
        self.size = 0
        self.radii, self.starts, self.cells = [], [], []

    def add(self, radii: np.ndarray, starts: np.ndarray, cells) -> None:
        if self.size and self.size + radii.size > BLOCK_PAIRS:
            self.flush()
        self.radii.append(radii.reshape(-1))
        self.starts.append(starts + self.size)
        self.cells.append(cells)
        self.size += radii.size

    def flush(self) -> None:
        if not self.size:
            return
        sums = _read_sums(np.concatenate(self.radii),
                          np.concatenate(self.starts), self.reads)
        cells = tuple(np.concatenate(axis) for axis in zip(*self.cells))
        self.out[(slice(None),) + cells] = sums
        self.size = 0
        self.radii, self.starts, self.cells = [], [], []


def _pair_pass(traj: RecordedTrajectory, u, last: int, strict=(), diag=()):
    """Pair-functional cell sums over snapshots t_0 .. t_last, one time
    column at a time.

    Returns ``(cells, diagonal)``: ``cells[k]`` is the (last+1)^2 matrix
    with p[i, j] at i < j for strict read row k, and ``diagonal[k]`` the
    vector p[j, j] (self-pairs included) for diag read row k (see
    ``_read_sums`` for reads and their rows). Column j pairs x(t_j) with
    itself, and with the concatenated earlier snapshots in pieces of
    whole snapshots holding at most ``BLOCK_PAIRS`` pairs (one snapshot
    when it alone is larger). When every strict read is compact, a strict
    piece keeps only its pairs within the widest strict reach (see
    ``_ReachFilter``); the others are never formed. The pieces are
    queued, same-time and strict apart, into filled blocks of at most
    ``BLOCK_PAIRS`` radii across columns, with one read per kernel per
    block; each block is dropped after its sums are taken. Every cell sum
    is taken over the same radii in the same order whatever the block
    layout, so the sums depend neither on ``BLOCK_PAIRS`` nor on the
    strict radii beyond reach being formed.
    """
    pos = traj.positions[:last + 1]
    d = pos[0].shape[1]
    shift = np.zeros(d) if u is None else np.asarray(u, dtype=float).reshape(d)
    flat = np.concatenate(pos)
    off = _offsets(pos)
    cells = np.zeros((sum(map(_height, strict)), last + 1, last + 1))
    diagonal = np.zeros((sum(map(_height, diag)), last + 1))
    strict_queue = _BlockQueue(strict, cells)
    diag_queue = _BlockQueue(diag, diagonal)
    reach = max((read[1] for read in strict), default=math.inf)
    near = _ReachFilter(flat, shift, reach) if reach < math.inf else None
    one_segment = np.zeros(1, dtype=np.int64)
    for j in range(last + 1):
        col = pos[j]
        width = col.shape[0]
        if width == 0:
            continue
        if diag:
            diag_queue.add(_radii(col[:, None], col[None], shift),
                           one_segment, ([j],))
        if not strict:
            continue
        cap = max(1, BLOCK_PAIRS // width)
        lo = 0
        while lo < j:
            hi = lo + 1
            while hi < j and off[hi + 1] - off[lo] <= cap:
                hi += 1
            starts = (off[lo:hi] - off[lo]) * width
            if near is None:
                radii = _radii(flat[off[lo]:off[hi], None], col[None], shift)
            else:
                idx, radii = near.pairs(slice(off[lo], off[hi]),
                                        slice(off[j], off[j + 1]))
                starts = np.searchsorted(idx, starts)
            if radii.size:
                strict_queue.add(radii, starts,
                                 (np.arange(lo, hi), [j] * (hi - lo)))
            lo = hi
    strict_queue.flush()
    diag_queue.flush()
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


def _same_time_rows(kernels: Sequence[MollifiedGreen], with_sharp: bool):
    """One same-time read of kernels on a common base: the base's sharp
    kernel is read once per block, each kernel's row is derived from it,
    and the sharp row itself follows when with_sharp (the small-ball
    exact read)."""
    base = kernels[0].base

    def rows(r):
        sharp = base.radial(r)
        for kern in kernels:
            yield kern.radial(r, sharp)
        if with_sharp:
            yield sharp
    return rows, math.inf, len(kernels) + with_sharp


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
    diag = [_same_time_rows(kernels, sball is not None)]
    if sball is not None:
        strict += _small_ball_reads(base, SMALL_BALL_H)[0]

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
