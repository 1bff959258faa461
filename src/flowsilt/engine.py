"""Branching particle system over a shared flow.

Each replicate holds a population of particles carrying weight 1/n. Between
grid times k/n particles move by Euler-Maruyama sub-steps driven by a
per-particle noise and one noise shared across the whole replicate (the
flow). At every grid time each particle independently either dies or splits
into two children that inherit its position.

``simulate_ensemble`` is the one driver: every suite and estimator gets its
particles from it, and a single replicate is an ensemble of one
(``replicates=1, replicate_offset=r``). The hot loop is batched across
replicates: one position array, one key array, and a replicate-id column.
Every random draw is a pure function of (seed, replicate, lineage, purpose,
counter), so results do not depend on how replicates are partitioned into
chunks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import rng
from .model import (CoefficientModel, ConstantOne, GaussianBump,
                    InitialMeasureSpec, TestFunction, a_matrix)


class SimulationDiverged(RuntimeError):
    """A particle position left the finite range."""


class EngineUsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# test-function batch helpers


def generator_values(model: CoefficientModel, f: TestFunction,
                     xs: np.ndarray) -> np.ndarray:
    """L f = 0.5 * tr(a grad^2 f) at many points, in closed form for the
    constant one and Gaussian bumps; other functions are refused."""
    if not isinstance(f, (ConstantOne, GaussianBump)):
        raise EngineUsageError(
            "generator values need a Gaussian bump or the constant one"
        )
    if xs.shape[0] == 0:
        return np.zeros(0)
    if isinstance(f, ConstantOne):
        return np.zeros(xs.shape[0])
    a = a_matrix(model)
    v = (xs - f.center) @ f.precision
    quad = np.einsum("ai,ij,aj->a", v, a, v)
    vals = f.value_many(xs)
    return 0.5 * vals * (quad - np.trace(a @ f.precision))


def _flow_gradient_sums(model: CoefficientModel, f: TestFunction,
                        xs: np.ndarray, rep: np.ndarray, n_rep: int,
                        weight: float) -> np.ndarray:
    """Per-replicate vector sum of weight * c^T grad f(x), shape (R, m)."""
    m = model.flow_dim
    out = np.zeros((n_rep, m))
    if xs.shape[0] == 0:
        return out
    proj = f.grad_many(xs) @ model.c_mat  # (A, m)
    for col in range(m):
        out[:, col] = np.bincount(rep, weights=proj[:, col], minlength=n_rep)
    return out * weight


# ---------------------------------------------------------------------------
# batched population core


class Population:
    """Positions, keys, and replicate ids of all alive particles."""

    def __init__(self, model: CoefficientModel, initial: InitialMeasureSpec,
                 n: int, seed: int, replicates: int, sub_steps: int,
                 replicate_offset: int = 0):
        if n < 1:
            raise EngineUsageError("n must be at least 1")
        if sub_steps < 1:
            raise EngineUsageError("sub-step count must be at least 1")
        initial.validate()
        if model.dim != initial.dim:
            raise EngineUsageError("model and initial measure dimensions differ")
        self.model = model
        self.n = int(n)
        self.sub_steps = int(sub_steps)
        self.dt = 1.0 / (self.n * self.sub_steps)
        self.R = int(replicates)
        self.seed = int(seed)
        self.replicate_offset = int(replicate_offset)
        self.step = 0       # completed grid intervals
        self.substep = 0    # completed sub-steps (global index)
        self.split_count = 0
        self.death_count = 0

        rep_ids = np.arange(replicate_offset, replicate_offset + self.R,
                            dtype=np.uint64)
        rep_keys = rng.fold_keys(np.uint64(rng.derive_key(self.seed)), rep_ids)
        self._flow_keys = rng.tag_keys(rep_keys, rng.FLOW_TAG)
        self._motion_stride = rng.normal_stride(model.dim)
        self._flow_stride = rng.normal_stride(model.flow_dim)

        block = self._initial_positions(initial)
        m_count = block.shape[0]
        if m_count == 0:
            warnings.warn("initial population is empty; all functionals are 0",
                          RuntimeWarning)
        self.pos = np.tile(block, (self.R, 1))
        self.rep = np.repeat(np.arange(self.R, dtype=np.int64), m_count)
        roots = np.tile(np.arange(1, m_count + 1, dtype=np.uint64), self.R)
        self.root = roots.astype(np.int64)
        self.keys = rng.fold_keys(np.repeat(rep_keys, m_count), roots)
        self._motion_keys = rng.tag_keys(self.keys, rng.MOTION_TAG)


    # -- initial placement

    def _initial_positions(self, spec: InitialMeasureSpec) -> np.ndarray:
        """round(n * total mass) particles on the atoms, n * mass each
        rounded down and the remainder given to the largest fractions."""
        n = self.n
        total = int(math.floor(n * spec.total_mass + 0.5))
        targets = np.array([n * m for _, m in spec.atoms])
        counts = np.floor(targets).astype(int)
        frac = targets - counts
        short = total - counts.sum()
        if short > 0:
            order = np.argsort(-frac, kind="stable")
            counts[order[:short]] += 1
        rows = [np.repeat(p[None, :], c, axis=0)
                for (p, _), c in zip(spec.atoms, counts) if c > 0]
        return (np.concatenate(rows, axis=0) if rows
                else np.zeros((0, spec.dim)))

    # -- time bookkeeping

    @property
    def time(self) -> float:
        return self.substep * self.dt

    @property
    def alive_count(self) -> int:
        return self.pos.shape[0]

    # -- dynamics

    def do_substep(self) -> None:
        model = self.model
        d = model.dim
        dt = self.dt
        sqdt = math.sqrt(dt)
        dw = rng.normals(self._flow_keys, self.substep * self._flow_stride,
                         model.flow_dim) * sqdt
        if self.alive_count:
            db = rng.normals(self._motion_keys,
                             self.substep * self._motion_stride, d) * sqdt
            self.pos += model.b_vec * db + dw[self.rep] @ model.c_mat.T
        self.substep += 1

    def do_branch(self) -> None:
        event = self.step + 1
        if self.alive_count:
            bad = ~np.isfinite(self.pos).all(axis=1)
            if bad.any():
                i = int(np.argmax(bad))
                raise SimulationDiverged(
                    f"particle diverged: replicate "
                    f"{self.replicate_offset + int(self.rep[i])}, root "
                    f"{int(self.root[i])}, grid step {event}"
                )
            branch_keys = rng.tag_keys(self.keys, rng.BRANCH_TAG)
            split = rng.coin_flips(branch_keys, event)
            n_split = int(split.sum())
            self.split_count += n_split
            self.death_count += self.alive_count - n_split
            c0, c1 = rng.split_keys(self.keys[split])
            new_keys = np.empty(2 * n_split, dtype=np.uint64)
            new_keys[0::2] = c0
            new_keys[1::2] = c1
            self.pos = np.repeat(self.pos[split], 2, axis=0)
            self.rep = np.repeat(self.rep[split], 2)
            self.root = np.repeat(self.root[split], 2)
            self.keys = new_keys
            self._motion_keys = rng.tag_keys(new_keys, rng.MOTION_TAG)
        self.step = event

    def advance_substep(self) -> None:
        """One Euler-Maruyama sub-step, branching when a grid time lands."""
        self.do_substep()
        if self.substep % self.sub_steps == 0:
            self.do_branch()

    # -- views

    def mass_per_replicate(self) -> np.ndarray:
        return np.bincount(self.rep, minlength=self.R) / self.n

    def observe_per_replicate(self, f: TestFunction) -> np.ndarray:
        if self.alive_count == 0:
            return np.zeros(self.R)
        vals = f.value_many(self.pos)
        return np.bincount(self.rep, weights=vals, minlength=self.R) / self.n


# ---------------------------------------------------------------------------
# recorded trajectories (single replicate view)


@dataclass(frozen=True)
class RecordedTrajectory:
    """Sub-step-resolution history of one replicate."""

    times: np.ndarray                 # (J+1,)
    positions: list[np.ndarray]       # J+1 arrays, (A_j, d)
    weight: float
    n: int
    sub_steps: int
    model: CoefficientModel

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0]) if len(self.times) > 1 else 0.0

    def snap_index(self, t: float) -> int:
        if len(self.times) == 1:
            if abs(t - self.times[0]) > 1e-9:
                raise EngineUsageError("time outside the recorded range")
            return 0
        dt = self.dt
        j = int(round(t / dt))
        if j < 0 or j >= len(self.times) or abs(t - j * dt) > 0.5 * dt + 1e-9:
            raise EngineUsageError(
                f"time {t} outside the recorded range [0, {self.times[-1]}]"
            )
        return j


# ---------------------------------------------------------------------------
# batched ensemble driver


@dataclass(frozen=True)
class ObservableSpec:
    """Record <f, mu_t> per replicate at the listed times."""

    name: str
    f: TestFunction
    times: tuple[float, ...]


@dataclass(frozen=True)
class MartingaleSpec:
    """Accumulate Z_T(f) and its predicted bracket along the run."""

    name: str
    f: TestFunction


@dataclass
class MartingaleAccum:
    z_final: np.ndarray     # (R,)
    bracket: np.ndarray     # (R,) left-endpoint integral of the bracket rate
    lf_integral: np.ndarray


@dataclass
class Snapshot:
    time: float
    positions: np.ndarray    # (A, d), grouped by replicate in ascending order
    offsets: np.ndarray      # (R+1,) slice boundaries per replicate


@dataclass
class EnsembleResult:
    n: int
    sub_steps: int
    horizon: float
    seed: int
    replicates: int
    dt: float
    final_mass: np.ndarray
    split_count: int
    death_count: int
    times: Optional[np.ndarray] = None
    mass_path: Optional[np.ndarray] = None          # (J+1, R)
    observables: dict = field(default_factory=dict)  # name -> (times, (R, T))
    martingales: dict = field(default_factory=dict)  # name -> MartingaleAccum
    snapshots: Optional[list[Snapshot]] = None
    _model: Optional[CoefficientModel] = None

    def trajectory(self, rep: int) -> RecordedTrajectory:
        if self.snapshots is None:
            raise EngineUsageError("run was not recorded at full resolution")
        pos = [s.positions[s.offsets[rep]:s.offsets[rep + 1]]
               for s in self.snapshots]
        return RecordedTrajectory(np.array([s.time for s in self.snapshots]),
                                  pos, 1.0 / self.n, self.n, self.sub_steps,
                                  self._model)


def _merge_results(parts: list[EnsembleResult]) -> EnsembleResult:
    head = parts[0]
    if len(parts) == 1:
        return head
    out = EnsembleResult(
        n=head.n, sub_steps=head.sub_steps, horizon=head.horizon,
        seed=head.seed, replicates=sum(p.replicates for p in parts),
        dt=head.dt,
        final_mass=np.concatenate([p.final_mass for p in parts]),
        split_count=sum(p.split_count for p in parts),
        death_count=sum(p.death_count for p in parts),
        times=head.times,
        _model=head._model,
    )
    if head.mass_path is not None:
        out.mass_path = np.concatenate([p.mass_path for p in parts], axis=1)
    for name in head.observables:
        ts = head.observables[name][0]
        vals = np.concatenate([p.observables[name][1] for p in parts], axis=0)
        out.observables[name] = (ts, vals)
    for name, acc in head.martingales.items():
        out.martingales[name] = MartingaleAccum(
            np.concatenate([p.martingales[name].z_final for p in parts]),
            np.concatenate([p.martingales[name].bracket for p in parts]),
            np.concatenate([p.martingales[name].lf_integral for p in parts]),
        )
    if head.snapshots is not None:
        merged = []
        for j in range(len(head.snapshots)):
            pos = np.concatenate([p.snapshots[j].positions for p in parts])
            counts = np.concatenate([np.diff(p.snapshots[j].offsets)
                                     for p in parts])
            offs = np.zeros(counts.shape[0] + 1, dtype=np.int64)
            np.cumsum(counts, out=offs[1:])
            merged.append(Snapshot(head.snapshots[j].time, pos, offs))
        out.snapshots = merged
    return out


def simulate_ensemble(model: CoefficientModel, initial: InitialMeasureSpec,
                      n: int, horizon: float, seed: int, replicates: int,
                      sub_steps: int = 4,
                      observables: Sequence[ObservableSpec] = (),
                      martingales: Sequence[MartingaleSpec] = (),
                      record: str = "mass",
                      replicate_offset: int = 0,
                      workers: int = 1) -> EnsembleResult:
    """Run independent replicates batched in one population.

    record: "none" (final state only), "mass" (per-sub-step mass path),
    or "full" (positions at every sub-step, for path functionals).
    Each martingale spec's Z_T(f) and predicted bracket are read from
    ``result.martingales[spec.name]``. The horizon must be a multiple
    of the grid step 1/n. Replicate k draws from the streams of
    replicate replicate_offset + k, so one replicate of a larger run can
    be replayed alone. workers > 1 splits the replicates into that many
    chunks, runs them one after another in this process and merges the
    results; no number changes.
    """
    if record not in ("none", "mass", "full"):
        raise EngineUsageError(f"unknown record mode {record!r}")
    if horizon < 0:
        raise EngineUsageError("horizon must be nonnegative")
    if workers > 1 and replicates > 1:
        chunk = (replicates + workers - 1) // workers
        parts = []
        for lo in range(0, replicates, chunk):
            size = min(chunk, replicates - lo)
            parts.append(simulate_ensemble(
                model, initial, n, horizon, seed, size, sub_steps,
                observables, martingales, record,
                replicate_offset + lo, workers=1))
        return _merge_results(parts)

    names = [o.name for o in observables]
    if len(set(names)) != len(names):
        raise EngineUsageError("observable names must be unique")
    grid_steps = int(round(horizon * n))
    if abs(horizon * n - grid_steps) > 1e-9 * max(1.0, grid_steps):
        raise EngineUsageError(f"horizon {horizon} is not a multiple of "
                               f"the grid step 1/{n}")
    pop = Population(model, initial, n, seed, replicates, sub_steps,
                     replicate_offset)
    total_sub = grid_steps * sub_steps
    r_count = pop.R

    obs_values = {o.name: (np.array([_snap_time(t, pop.dt, total_sub)
                                     for t in o.times]) * pop.dt,
                           np.zeros((r_count, len(o.times))))
                  for o in observables}
    obs_index: dict[int, list[tuple[str, int, TestFunction]]] = {}
    for o in observables:
        for col, t in enumerate(o.times):
            j = _snap_time(t, pop.dt, total_sub)
            obs_index.setdefault(j, []).append((o.name, col, o.f))

    mart = {m.name: MartingaleAccum(np.zeros(r_count), np.zeros(r_count),
                                    np.zeros(r_count))
            for m in martingales}
    mart_f0 = {m.name: pop.observe_per_replicate(m.f) for m in martingales}

    mass_path = None
    times = None
    if record in ("mass", "full"):
        times = np.arange(total_sub + 1) * pop.dt
        mass_path = np.zeros((total_sub + 1, r_count))
        mass_path[0] = pop.mass_per_replicate()
    snaps = None
    if record == "full":
        snaps = [_take_snapshot(pop)]
    for name, col, f in obs_index.get(0, []):
        obs_values[name][1][:, col] = pop.observe_per_replicate(f)

    w = 1.0 / pop.n
    for j in range(total_sub):
        if martingales and pop.alive_count:
            _accumulate_martingales(pop, martingales, mart, w)
        pop.advance_substep()
        if mass_path is not None:
            mass_path[j + 1] = pop.mass_per_replicate()
        if snaps is not None:
            snaps.append(_take_snapshot(pop))
        for name, col, f in obs_index.get(j + 1, []):
            obs_values[name][1][:, col] = pop.observe_per_replicate(f)

    for m in martingales:
        acc = mart[m.name]
        acc.z_final = (pop.observe_per_replicate(m.f) - mart_f0[m.name]
                       - acc.lf_integral)

    result = EnsembleResult(
        n=pop.n, sub_steps=sub_steps, horizon=horizon, seed=seed,
        replicates=r_count, dt=pop.dt,
        final_mass=pop.mass_per_replicate(),
        split_count=pop.split_count, death_count=pop.death_count,
        times=times, mass_path=mass_path,
        observables=obs_values, martingales=mart,
        snapshots=snaps,
        _model=model,
    )
    return result


def _snap_time(t: float, dt: float, total_sub: int) -> int:
    j = int(round(t / dt))
    if j < 0 or j > total_sub or abs(t - j * dt) > 0.5 * dt + 1e-9:
        raise EngineUsageError(f"time {t} is outside the simulated horizon")
    return j


def _take_snapshot(pop: Population) -> Snapshot:
    counts = np.bincount(pop.rep, minlength=pop.R)
    offsets = np.zeros(pop.R + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return Snapshot(pop.time, pop.pos.copy(), offsets)


def _accumulate_martingales(pop: Population, martingales, mart, w) -> None:
    dt = pop.dt
    for m in martingales:
        acc = mart[m.name]
        vals = m.f.value_many(pop.pos)
        f2 = np.bincount(pop.rep, weights=vals ** 2, minlength=pop.R) * w
        lf = generator_values(pop.model, m.f, pop.pos)
        lf_sum = np.bincount(pop.rep, weights=lf, minlength=pop.R) * w
        svec = _flow_gradient_sums(pop.model, m.f, pop.pos, pop.rep, pop.R, w)
        acc.bracket += dt * (f2 + (svec ** 2).sum(axis=1))
        acc.lf_integral += dt * lf_sum


# ---------------------------------------------------------------------------
# CSV output


def write_replicate_csv(path, result: EnsembleResult) -> None:
    """Per-replicate summary rows: replicate, t, mass, then one column per
    observable. Every observable must be recorded on the mass grid."""
    if result.mass_path is None:
        raise EngineUsageError("run with record='mass' or 'full' to export")
    times = result.times
    cols = []
    off_grid = []
    for name, (ots, vals) in sorted(result.observables.items()):
        if len(ots) == len(times) and np.allclose(ots, times):
            cols.append((name, vals))
        else:
            off_grid.append(f"{name} ({len(ots)} times)")
    if off_grid:
        raise EngineUsageError(
            f"observables not recorded on the {len(times)}-point mass grid "
            f"cannot be exported: {', '.join(off_grid)}")
    with open(path, "w", encoding="utf-8") as fh:
        header = ["replicate", "t", "mass"] + [name for name, _ in cols]
        fh.write(",".join(header) + "\n")
        for r in range(result.replicates):
            for j in range(len(times)):
                row = [str(r), f"{times[j]:.12g}",
                       f"{result.mass_path[j, r]:.17g}"]
                row += [f"{vals[r, j]:.17g}" for _, vals in cols]
                fh.write(",".join(row) + "\n")
