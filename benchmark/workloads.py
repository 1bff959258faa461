"""The four workloads: set-up, one round of operations, and the checks.

A workload object is built once per process; building it is the set-up
(configs loaded and validated, references read). ``run_round(k)`` runs
round k, whose inputs are a pure function of (seed, k), and returns the
round's outputs together with the checks that need that round alone.
``final_checks(rounds)`` runs the checks that pool several rounds or
recompute outputs independently; it is not timed.

Every operation is a public flowsilt call looked up through its module
at call time, so the traced run's hooks see it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import flowsilt.cli
import flowsilt.engine
import flowsilt.harness
import flowsilt.model
import flowsilt.oracle
import flowsilt.silt
from flowsilt.green import GreenFunction, MollifiedGreen
from flowsilt.model import ConstantOne, GaussianBump, InitialMeasureSpec

import checks
import direct
import references
from checks import Check

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"


def _config(name: str):
    """Load a benchmark config and validate its model as a user would."""
    cfg = flowsilt.harness.load_config(CONFIGS / name)
    model = cfg.model()
    initial = cfg.initial()
    report = flowsilt.model.validate_model(model, initial=initial,
                                           horizon=cfg.horizon)
    if not report.passed:
        raise RuntimeError(f"{name}: model validation failed: "
                           f"{report.messages}")
    return cfg, model, initial


def _engine_seed(seed: int, k: int, leg: int = 0) -> int:
    return (seed * 1000 + k) * 4 + leg


@dataclass
class Round:
    outputs: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def op(self, fn, *args, **kwargs):
        """Run one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # the run goes on; the failure is counted
            traceback.print_exc()
            self.failed += 1
            return None


class Workload:
    min_rounds = 1

    def __init__(self, seed: int, workers: int, out_dir: Path):
        self.seed = seed
        self.workers = workers
        self.out_dir = out_dir

    def run_round(self, k: int) -> Round:
        raise NotImplementedError

    def final_checks(self, rounds: list[Round]) -> list[Check]:
        return []


# ---------------------------------------------------------------------------


class Ensemble1d(Workload):
    """bm1d simulate_ensemble: a mass-only leg (A01/A02 shape) and a leg
    with one bump observed at four times plus a martingale (A03/A05)."""

    min_rounds = 6          # the pooled statistics use rounds 0..5
    subset = 50             # replicates re-run under another partition

    def __init__(self, seed, workers, out_dir):
        super().__init__(seed, workers, out_dir)
        self.mass_cfg, self.model, self.initial = _config("ensemble-mass.json")
        self.obs_cfg, _, _ = _config("ensemble-observe.json")
        ref = references.load()["ensemble"]
        self.times = tuple(ref["times"])
        self.moments = ref["moments"]
        self.bump = GaussianBump([0.0], [[ref["precision"]]])

    def _mass_leg(self, seed, replicates=None, offset=0, workers=None):
        cfg = self.mass_cfg
        return flowsilt.engine.simulate_ensemble(
            self.model, self.initial, cfg.n, cfg.horizon, seed,
            replicates or cfg.replicates, sub_steps=cfg.sub_steps,
            replicate_offset=offset, workers=workers or self.workers)

    def _observe_leg(self, seed, replicates=None, offset=0, workers=None):
        cfg = self.obs_cfg
        return flowsilt.engine.simulate_ensemble(
            self.model, self.initial, cfg.n, cfg.horizon, seed,
            replicates or cfg.replicates, sub_steps=cfg.sub_steps,
            observables=(flowsilt.engine.ObservableSpec(
                "bump", self.bump, self.times),),
            martingales=(flowsilt.engine.MartingaleSpec("bump", self.bump),),
            replicate_offset=offset, workers=workers or self.workers)

    def run_round(self, k):
        rnd = Round()
        seeds = (_engine_seed(self.seed, k, 0), _engine_seed(self.seed, k, 1))
        mass = rnd.op(self._mass_leg, seeds[0])
        obs = rnd.op(self._observe_leg, seeds[1])
        rnd.outputs = {"seeds": seeds, "mass": mass, "observe": obs}
        return rnd

    def final_checks(self, rounds):
        pooled = [r.outputs for r in rounds[:self.min_rounds]]
        mass = [o["mass"] for o in pooled if o["mass"] is not None]
        obs = [o["observe"] for o in pooled if o["observe"] is not None]
        out = []
        if mass:
            out += checks.mass_law(
                np.concatenate([m.final_mass for m in mass]),
                self.initial.total_mass, self.mass_cfg.horizon)
            out.append(checks.split_fraction(
                sum(m.split_count for m in mass),
                sum(m.death_count for m in mass)))
        if obs:
            out += checks.observable_moments(
                np.concatenate([o.observables["bump"][1] for o in obs]),
                self.moments)
            out += checks.martingale(
                np.concatenate([o.martingales["bump"].z_final for o in obs]),
                np.concatenate([o.martingales["bump"].bracket for o in obs]))
        out += self._partition_checks(rounds[0].outputs)
        return out

    def _partition_checks(self, first):
        """Replicates [lo, lo + subset) of round 0, re-run alone on one
        worker, must reproduce the batched run bit for bit."""
        out = []
        mass_cfg, obs_cfg = self.mass_cfg, self.obs_cfg
        if first["mass"] is not None:
            lo = self.seed % (mass_cfg.replicates - self.subset)
            sl = slice(lo, lo + self.subset)
            part = self._mass_leg(first["seeds"][0], self.subset, lo, 1)
            out.append(checks.identical("partition.final_mass",
                                        first["mass"].final_mass[sl],
                                        part.final_mass))
            out.append(checks.identical("partition.mass_path",
                                        first["mass"].mass_path[:, sl],
                                        part.mass_path))
        if first["observe"] is not None:
            lo = (7 * self.seed) % (obs_cfg.replicates - self.subset)
            sl = slice(lo, lo + self.subset)
            part = self._observe_leg(first["seeds"][1], self.subset, lo, 1)
            full = first["observe"]
            out.append(checks.identical("partition.observables",
                                        full.observables["bump"][1][sl],
                                        part.observables["bump"][1]))
            for name in ("z_final", "bracket"):
                out.append(checks.identical(
                    f"partition.martingale.{name}",
                    getattr(full.martingales["bump"], name)[sl],
                    getattr(part.martingales["bump"], name)))
        return out


# ---------------------------------------------------------------------------


class OracleMoments(Workload):
    """mixed_moment at orders 1-4 and four distinct times on bm1d and
    flow3d, for a diagonal-precision bump and for ConstantOne, and at
    orders 2-4 with all times equal for ConstantOne."""

    nodes = 6               # agrees with the references to 1e-13
    rtol = 1e-10

    def __init__(self, seed, workers, out_dir):
        super().__init__(seed, workers, out_dir)
        _, self.bm1d, _ = _config("oracle-bm1d.json")
        _, self.flow3d, _ = _config("oracle-flow3d.json")
        self.sets = references.load()["oracle_sets"]

    def run_round(self, k):
        """Both models have constant coefficients, so moving the initial
        point and the bump centre by the same vector leaves every moment
        as stored; the move, drawn from (seed, k), gives each round inputs
        of its own."""
        rnd = Round()
        spec = self.sets[(self.seed + k) % len(self.sets)]
        times = spec["times"]
        p = spec["precision"]
        rs = np.random.default_rng([self.seed, k])
        x1, x3 = rs.uniform(-1.0, 1.0, size=1), rs.uniform(-1.0, 1.0, size=3)
        point1 = InitialMeasureSpec.point(x1)
        point3 = InitialMeasureSpec.point(x3)
        cases = (
            ("bm1d", self.bm1d, point1, GaussianBump(x1, [[p[0]]]),
             spec["bm1d"]),
            ("flow3d", self.flow3d, point3, GaussianBump(x3, np.diag(p)),
             spec["flow3d"]),
            ("bm1d", self.bm1d, point1, ConstantOne(1), spec["mass"]),
            ("flow3d", self.flow3d, point3, ConstantOne(3), spec["mass"]),
        )
        for label, model, mu0, f, refs in cases:
            kind = "one" if isinstance(f, ConstantOne) else "bump"
            for q in range(1, 5):
                val = rnd.op(flowsilt.oracle.mixed_moment, model, q, [f] * q,
                             times[:q], mu0, nodes=self.nodes)
                if val is not None:
                    rnd.checks.append(checks.relative(
                        f"oracle.{label}.{kind}.order{q}", val, refs[q - 1],
                        self.rtol))
        # all q times equal: the branch-time domains that need distinct
        # times are empty, the path the report's moments suite takes
        t = times[-1]
        for label, model, mu0, f in (
                ("bm1d", self.bm1d, point1, ConstantOne(1)),
                ("flow3d", self.flow3d, point3, ConstantOne(3))):
            for q in range(2, 5):
                val = rnd.op(flowsilt.oracle.mixed_moment, model, q, [f] * q,
                             [t] * q, mu0, nodes=self.nodes)
                if val is not None:
                    rnd.checks.append(checks.relative(
                        f"oracle.{label}.one.coincident.order{q}", val,
                        references.feller_moment(q, t), self.rtol))
        return rnd


# ---------------------------------------------------------------------------


class Tanaka3d(Workload):
    """epsilon_convergence_study in the shape of A10 (d=3, 64 atoms,
    n=256, horizon 1/16, four eps).

    The engine seed is the config's (77, as in A10), so every run grows the
    same branching trees and does the same pair-sum work; the seed and the
    round move the 64 atoms, which changes every radius and every value.
    """

    jitter = 0.175          # half the lattice spacing
    direct_replicates = (0, 1)
    mass_rtol = 1e-6

    def __init__(self, seed, workers, out_dir):
        super().__init__(seed, workers, out_dir)
        self.cfg, self.model, self.lattice = _config("tanaka-3d.json")

    def initial(self, k: int) -> InitialMeasureSpec:
        rs = np.random.default_rng([self.seed, k])
        atoms = [(p + rs.uniform(-self.jitter, self.jitter, size=p.shape), m)
                 for p, m in self.lattice.atoms]
        return InitialMeasureSpec.from_atoms(atoms)

    def run_round(self, k):
        rnd = Round()
        cfg = self.cfg
        initial = self.initial(k)
        study = rnd.op(flowsilt.silt.epsilon_convergence_study,
                       self.model, initial, cfg.n, cfg.horizon, cfg.lam,
                       np.asarray(cfg.u), cfg.eps_schedule, cfg.replicates,
                       cfg.seed, sub_steps=cfg.sub_steps, workers=self.workers)
        rnd.outputs = {"initial": initial, "study": study}
        if study is not None:
            rnd.checks.append(checks.strictly_increasing(
                "tanaka.double_point_means",
                study.double_points.mean(axis=0)))
        return rnd

    def final_checks(self, rounds):
        out = []
        cfg = self.cfg
        first = rounds[0].outputs
        study = first["study"]
        if study is not None:
            for r in self.direct_replicates:
                res = flowsilt.engine.simulate_ensemble(
                    self.model, first["initial"], cfg.n, cfg.horizon,
                    cfg.seed, 1, sub_steps=cfg.sub_steps, record="full",
                    replicate_offset=r)
                traj = res.trajectory(0)
                gammas = direct.gamma_direct(traj.positions, traj.dt,
                                             traj.weight, cfg.eps_schedule,
                                             cfg.u)
                program = study.renormalized[r] + study.double_points[r]
                for e, eps in enumerate(cfg.eps_schedule):
                    out.append(checks.relative(
                        f"tanaka.gamma_direct[rep {r}, eps {eps}]",
                        float(program[e]), gammas[e], 1e-9))
        base = GreenFunction(self.model, cfg.lam, np.asarray(cfg.u))
        for eps in cfg.eps_schedule:
            kern = MollifiedGreen(base, eps)
            mass = direct.radial_mass(kern.radial, self.model.dim, eps,
                                      kern.support_radius)
            out.append(checks.relative(f"green.radial_mass[eps {eps}]",
                                       mass, 1.0 / cfg.lam, self.mass_rtol))
        return out


# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class Report1d(Workload):
    """The flowsilt command: eps-study on the A09 config, then report on
    the A08 config (bm1d, n=16, horizon 0.5).

    The report runs as two invocations: ito on the A08 config with 64
    replicates, and mass, genealogy and green at n=32 with 5000 replicates,
    where the mass z budgets hold reliably. The moments suite is left out:
    its fixed 32-node order-4 oracle call alone takes 6-10 s and left a run
    one or two rounds to take the median of (see README). The eps-study keeps
    A09's pinned seed and runs first, so the round's peak RSS, which it
    sets, does not depend on what the report seeds left in the allocator.
    """

    min_rounds = 2          # peak RSS settles from the second round on

    def __init__(self, seed, workers, out_dir):
        super().__init__(seed, workers, out_dir)
        self.invocations = []
        for command, name in (("eps-study", "eps-study-1d.json"),
                              ("report", "report-1d.json"),
                              ("report", "report-1d-ito.json")):
            cfg, _, _ = _config(name)
            self.invocations.append((command, name, cfg))

    def _cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = flowsilt.cli.main(argv)
        return code, buf.getvalue()

    def run_round(self, k):
        rnd = Round()
        for i, (command, name, cfg) in enumerate(self.invocations):
            out = self.out_dir / f"round{k}" / Path(name).stem
            argv = [command, "--config", str(CONFIGS / name), "--out",
                    str(out), "--threads", str(self.workers)]
            if command == "report":
                argv += ["--seed", str(_engine_seed(self.seed, k, i))]
            res = rnd.op(self._cli, argv)
            if res is None:
                continue
            code, stdout = res
            rnd.checks += self._check(command, name, cfg, out, code, stdout)
        return rnd

    def _check(self, command, name, cfg, out, code, stdout):
        table = out / ("eps_study.csv" if command == "eps-study"
                       else "checks.csv")
        rows = _read_csv(table) if table.exists() else []
        if command == "eps-study":
            return [checks.cli_clean(f"cli.{name}", code, stdout, 2),
                    checks.distances_nonincreasing(
                        [(float(r["L2_distance"]), float(r["stderr"]))
                         for r in rows])]
        found = [checks.cli_clean(f"cli.{name}", code, stdout,
                                  max(len(rows), 1))]
        if "mass" not in cfg.suites:
            return found
        mass0 = cfg.initial().total_mass
        mean = references.feller_moment(1, cfg.horizon, mass0)
        closed = {"mass.mean": mean,
                  "mass.variance": references.feller_moment(
                      2, cfg.horizon, mass0) - mean ** 2}
        oracle = {row["name"]: row["oracle"] for row in rows}
        for row_name, ref in closed.items():
            found.append(checks.relative(f"checks.csv {row_name} oracle",
                                         float(oracle.get(row_name) or "nan"),
                                         ref, 1e-12))
        return found


WORKLOADS = {
    "ensemble-1d": Ensemble1d,
    "oracle-moments": OracleMoments,
    "tanaka-3d": Tanaka3d,
    "report-1d": Report1d,
}
