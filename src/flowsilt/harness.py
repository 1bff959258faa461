"""Experiment configuration, orchestration, and statistical reporting.

A run is described by one JSON file. ``run_experiment`` executes the
requested suites against their analytic oracles and returns a
``StatReport``; artifacts (markdown report, CSV tables) land in the
configured output directory. Numeric output is a pure function of
(config, seed), independent of thread count.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .engine import (MartingaleSpec, ObservableSpec, simulate_ensemble,
                     write_replicate_csv)
from .genealogy import Label, Topology, arrangement_count, classify_topology
from .green import GreenFunction, MollifiedGreen
from .model import (CoefficientModel, ConstantOne, GaussianBump,
                    InitialMeasureSpec, a_matrix, validate_model)
from .oracle import MomentFormula, mixed_moment
from .rng import derive_key, uniforms
from .silt import (MIN_TIME_POINTS, decomposition_ensemble,
                   epsilon_convergence_study, write_components_csv,
                   write_study_csv)


class ConfigError(ValueError):
    pass


PRESETS = {
    "bm1d": (1, [1.0], [[1.0]]),
    "flow3d": (3, [1.0, 0.0, 0.0], [[1.0, 0.0, 0.0],
                                    [0.0, 1.0, 0.0],
                                    [0.0, 0.0, 1.0]]),
}

SUITE_NAMES = ("mass", "moments", "martingale", "genealogy", "green",
               "ito", "eps-study")

DEFAULT_MEAN_SE = 3.0
DEFAULT_VAR_SE = 5.0


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    dim: int
    b: tuple[float, ...]
    c: tuple[tuple[float, ...], ...]
    atoms: tuple[tuple[tuple[float, ...], float], ...]
    n: int
    sub_steps: int
    horizon: float
    replicates: int
    seed: int
    lam: float
    u: tuple[float, ...]
    eps_schedule: tuple[float, ...]
    suites: tuple[str, ...]
    out_dir: str
    threads: int = 1
    mean_se: float = DEFAULT_MEAN_SE
    var_se: float = DEFAULT_VAR_SE
    source: str = "<dict>"

    def model(self) -> CoefficientModel:
        return CoefficientModel.constant(np.asarray(self.b),
                                         np.asarray(self.c))

    def initial(self) -> InitialMeasureSpec:
        return InitialMeasureSpec.from_atoms(
            [(np.asarray(p), m) for p, m in self.atoms])

    def canonical_json(self) -> str:
        payload = {
            "model": {"dim": self.dim, "b": list(self.b),
                      "c": [list(r) for r in self.c]},
            "initial": [{"position": list(p), "mass": m}
                        for p, m in self.atoms],
            "sim": {"n": self.n, "sub_steps": self.sub_steps,
                    "horizon": self.horizon,
                    "replicates": self.replicates, "seed": self.seed},
            "silt": {"lambda": self.lam, "u": list(self.u),
                     "eps": list(self.eps_schedule)},
            "suites": list(self.suites),
            "thresholds": {"mean_se": self.mean_se, "var_se": self.var_se},
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


def _finite(values: tuple[float, ...], where: str) -> tuple[float, ...]:
    """Refuse NaN and infinities, which Python's json reads from NaN,
    Infinity and out-of-range literals such as 1e400."""
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{where} must be finite, got "
                          f"{', '.join(map(repr, values))}")
    return values


def _want(mapping: dict, key: str, kind, source: str, default=None,
          required: bool = False):
    if key not in mapping:
        if required:
            raise ConfigError(f"{source}: missing required key '{key}'")
        return default
    value = mapping[key]
    # JSON true/false load as bool, which Python also counts as an int
    is_bool = isinstance(value, bool)
    if kind is float and isinstance(value, int) and not is_bool:
        value = float(value)
    if is_bool or not isinstance(value, kind):
        raise ConfigError(
            f"{source}: key '{key}' should be {kind}, got {type(value).__name__}"
        )
    if kind is float:
        _finite((value,), f"{source}: key '{key}'")
    return value


def config_from_dict(raw: dict, source: str = "<dict>") -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")

    model_part = _want(raw, "model", dict, source, required=True)
    preset = model_part.get("preset")
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"{source}: unknown preset '{preset}' "
                f"(known: {sorted(PRESETS)})")
        dim, b, c = PRESETS[preset]
    else:
        dim = _want(model_part, "dim", int, source + ":model", required=True)
        b = _want(model_part, "b", list, source + ":model", required=True)
        c = _want(model_part, "c", list, source + ":model", required=True)
    if dim < 1:
        raise ConfigError(f"{source}: model.dim must be >= 1")
    try:
        b = tuple(float(x) for x in b)
        c = tuple(tuple(float(x) for x in row) for row in c)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{source}: model.b must be a list of numbers and "
                          "model.c a list of rows of numbers") from err
    _finite(b, f"{source}: model.b")
    _finite(sum(c, ()), f"{source}: model.c")
    flow_dim = len(c[0]) if c else 0
    if (len(b) != dim or len(c) != dim or flow_dim < 1
            or any(len(r) != flow_dim for r in c)):
        raise ConfigError(f"{source}: b must have length {dim} and c be "
                          f"{dim}xm, rows of one length m >= 1")

    init_part = raw.get("initial", [{"position": [0.0] * dim, "mass": 1.0}])
    if not isinstance(init_part, list) or not init_part:
        raise ConfigError(f"{source}: 'initial' must be a nonempty list of "
                          "atoms")
    atoms = []
    for k, entry in enumerate(init_part):
        where = f"{source}:initial[{k}]"
        pos = _want(entry, "position", list, where, required=True)
        mass = _want(entry, "mass", float, where, required=True)
        if len(pos) != dim:
            raise ConfigError(f"{where}: position length != dim")
        if mass <= 0:
            raise ConfigError(f"{where}: mass must be positive")
        atoms.append((_finite(tuple(float(x) for x in pos),
                              f"{where}: position"), float(mass)))

    sim = _want(raw, "sim", dict, source, required=True)
    n = _want(sim, "n", int, source + ":sim", required=True)
    sub_steps = _want(sim, "sub_steps", int, source + ":sim", default=1)
    horizon = _want(sim, "horizon", float, source + ":sim", required=True)
    replicates = _want(sim, "replicates", int, source + ":sim", required=True)
    if "seed" not in sim:
        raise ConfigError(f"{source}:sim: a seed is required; runs never "
                          "draw entropy implicitly")
    seed = _want(sim, "seed", int, source + ":sim", required=True)
    for name, val in (("n", n), ("sub_steps", sub_steps),
                      ("horizon", horizon), ("replicates", replicates)):
        if val <= 0:
            raise ConfigError(f"{source}:sim: {name} must be positive")
    grid_steps = round(horizon * n)
    if abs(horizon * n - grid_steps) > 1e-9 * max(1.0, grid_steps):
        raise ConfigError(f"{source}:sim: horizon {horizon} is not a "
                          f"multiple of the grid step 1/n = 1/{n}")
    if seed < 0:
        raise ConfigError(f"{source}:sim: seed must be a nonnegative integer")

    silt_part = raw.get("silt", {})
    lam = _want(silt_part, "lambda", float, source + ":silt", default=1.0)
    u = _want(silt_part, "u", list, source + ":silt", default=[0.0] * dim)
    eps = _want(silt_part, "eps", list, source + ":silt",
                default=[0.4, 0.2, 0.1, 0.05])
    if lam <= 0:
        raise ConfigError(f"{source}:silt: lambda must be positive")
    if len(u) != dim:
        raise ConfigError(f"{source}:silt: u length != dim")
    u = _finite(tuple(float(x) for x in u), f"{source}:silt: u")
    eps = _finite(tuple(float(e) for e in eps), f"{source}:silt: eps")
    if not eps:
        raise ConfigError(f"{source}:silt: eps schedule must not be empty")
    if any(e <= 0 for e in eps):
        raise ConfigError(f"{source}:silt: eps values must be positive")
    if any(later >= earlier for earlier, later in zip(eps, eps[1:])):
        raise ConfigError(f"{source}:silt: eps schedule must be strictly "
                          "decreasing")

    suites = raw.get("suites", [])
    if not isinstance(suites, list):
        raise ConfigError(f"{source}: 'suites' must be a list")
    for s in suites:
        if s not in SUITE_NAMES:
            raise ConfigError(f"{source}: unknown suite '{s}' "
                              f"(known: {list(SUITE_NAMES)})")

    thresholds = raw.get("thresholds", {})
    mean_se = _want(thresholds, "mean_se", float, source + ":thresholds",
                    default=DEFAULT_MEAN_SE)
    var_se = _want(thresholds, "var_se", float, source + ":thresholds",
                   default=DEFAULT_VAR_SE)

    return ExperimentConfig(
        dim=dim, b=b, c=c, atoms=tuple(atoms),
        n=n, sub_steps=sub_steps, horizon=float(horizon),
        replicates=replicates, seed=seed,
        lam=float(lam), u=u, eps_schedule=eps,
        suites=tuple(suites),
        out_dir=str(raw.get("out", "flowsilt-out")),
        threads=_want(raw, "threads", int, source, default=1),
        mean_se=float(mean_se), var_se=float(var_se),
        source=source,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{path}:{err.lineno}:{err.colno}: invalid JSON: {err.msg}"
        ) from err
    return config_from_dict(raw, source=str(path))


def require_inputs(cfg: ExperimentConfig, names) -> None:
    """Refuse a config on which a suite (or the silt command) named in
    ``names`` cannot give a meaningful answer; other names pass."""
    points = int(round(cfg.horizon * cfg.n)) * cfg.sub_steps + 1
    for name in names:
        where = f"{cfg.source}: {name}"
        if (name in ("mass", "moments", "martingale", "eps-study")
                and cfg.replicates < 2):
            raise ConfigError(f"{where} takes a sample standard error and "
                              f"needs at least 2 replicates, got "
                              f"{cfg.replicates}")
        if name in ("ito", "eps-study", "silt") and points < MIN_TIME_POINTS:
            raise ConfigError(f"{where} needs at least {MIN_TIME_POINTS} "
                              f"recorded time points (n * horizon * "
                              f"sub_steps + 1), got {points}")
        if name == "eps-study" and len(cfg.eps_schedule) < 3:
            raise ConfigError(f"{where} needs at least three eps values, "
                              f"got {len(cfg.eps_schedule)}")


# ---------------------------------------------------------------------------
# statistical report


@dataclass(frozen=True)
class CheckResult:
    name: str
    estimate: float
    oracle: float
    stderr: float
    z: float
    threshold: float
    passed: bool
    runtime: float
    detail: str = ""


@dataclass
class StatReport:
    config_hash: str
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.all_passed else 1


def _z_check(name: str, estimate: float, oracle: float, stderr: float,
             threshold: float, runtime: float, detail: str = "") -> CheckResult:
    if stderr > 0:
        z = (estimate - oracle) / stderr
    elif estimate == oracle:
        z = 0.0
    else:
        z = math.inf
    return CheckResult(name, estimate, oracle, stderr, z, threshold,
                       abs(z) <= threshold, runtime, detail)


def _flag_check(name: str, passed: bool, runtime: float,
                detail: str, estimate: float = math.nan,
                oracle: float = math.nan) -> CheckResult:
    return CheckResult(name, estimate, oracle, math.nan, math.nan, math.nan,
                       passed, runtime, detail)


# ---------------------------------------------------------------------------
# suites


def suite_mass(cfg: ExperimentConfig) -> list[CheckResult]:
    t0 = time.perf_counter()
    model = cfg.model()
    initial = cfg.initial()
    mass0 = initial.total_mass
    result = simulate_ensemble(model, initial, cfg.n, cfg.horizon, cfg.seed,
                               cfg.replicates, sub_steps=cfg.sub_steps,
                               workers=cfg.threads)
    masses = result.final_mass
    r = cfg.replicates
    mean = float(masses.mean())
    se_mean = float(masses.std(ddof=1) / math.sqrt(r))
    var = float(masses.var(ddof=1))
    centered = masses - mean
    m4 = float((centered ** 4).mean())
    se_var = math.sqrt(max(m4 - (r - 3) / (r - 1) * var * var, 0.0) / r)
    dt = time.perf_counter() - t0
    return [
        _z_check("mass.mean", mean, mass0, se_mean, cfg.mean_se, dt),
        _z_check("mass.variance", var, cfg.horizon * mass0, se_var,
                 cfg.var_se, 0.0),
    ]


def _feller_mass_moments(mass0: float, t: float) -> tuple[float, ...]:
    m = mass0
    return (
        m,
        m * m + m * t,
        m ** 3 + 3 * m * m * t + 1.5 * m * t * t,
        m ** 4 + 6 * m ** 3 * t + 9 * m * m * t * t + 3 * m * t ** 3,
    )


def suite_moments(cfg: ExperimentConfig) -> list[CheckResult]:
    checks: list[CheckResult] = []
    model = cfg.model()
    initial = cfg.initial()
    mass0 = initial.total_mass
    t = cfg.horizon

    # deterministic golden values first
    t0 = time.perf_counter()
    point = InitialMeasureSpec.point(np.zeros(cfg.dim))
    bump = GaussianBump(np.zeros(cfg.dim), np.eye(cfg.dim))
    first = mixed_moment(model, 1, [bump], [1.0], point)
    a0 = a_matrix(model)
    expected = float(np.linalg.det(np.eye(cfg.dim) + a0) ** -0.5)
    checks.append(_flag_check(
        "moments.order1_gaussian", abs(first - expected) <= 1e-6,
        time.perf_counter() - t0,
        f"|{first:.9g} - {expected:.9g}| <= 1e-6",
        estimate=first, oracle=expected))

    t0 = time.perf_counter()
    one = ConstantOne(cfg.dim)
    # the integrand of every term is constant in the branch times for the
    # constant function, so a few nodes are exact
    m3 = mixed_moment(model, 3, [one] * 3, [1.0] * 3, point, nodes=6)
    m4 = mixed_moment(model, 4, [one] * 4, [1.0] * 4, point, nodes=6)
    golden = _feller_mass_moments(1.0, 1.0)
    ok = abs(m3 - golden[2]) <= 1e-8 and abs(m4 - golden[3]) <= 1e-8
    checks.append(_flag_check(
        "moments.feller_golden", ok, time.perf_counter() - t0,
        f"order3 {m3:.12g} vs {golden[2]}, order4 {m4:.12g} vs {golden[3]}",
        estimate=m4, oracle=golden[3]))

    t0 = time.perf_counter()
    counts_ok = (MomentFormula(3).term_count == 5
                 and MomentFormula(4).term_count == 14)
    checks.append(_flag_check(
        "moments.term_counts", counts_ok, time.perf_counter() - t0,
        f"order3 -> {MomentFormula(3).term_count}, "
        f"order4 -> {MomentFormula(4).term_count}"))

    # Monte Carlo agreement for mass moments at the horizon
    t0 = time.perf_counter()
    result = simulate_ensemble(model, initial, cfg.n, cfg.horizon, cfg.seed,
                               cfg.replicates, sub_steps=cfg.sub_steps,
                               workers=cfg.threads)
    masses = result.final_mass
    oracle_vals = _feller_mass_moments(mass0, t)
    sim_time = time.perf_counter() - t0
    for q in range(1, 5):
        t1 = time.perf_counter()
        samples = masses ** q
        est = float(samples.mean())
        se = float(samples.std(ddof=1) / math.sqrt(cfg.replicates))
        threshold = cfg.mean_se if q == 1 else cfg.var_se
        checks.append(_z_check(
            f"moments.mc_order{q}", est, oracle_vals[q - 1], se, threshold,
            sim_time + time.perf_counter() - t1))
        sim_time = 0.0
    return checks


def suite_martingale(cfg: ExperimentConfig) -> list[CheckResult]:
    t0 = time.perf_counter()
    model = cfg.model()
    initial = cfg.initial()
    center = np.asarray(initial.atoms[0][0], dtype=float)
    bump = GaussianBump(center, np.eye(cfg.dim))
    result = simulate_ensemble(
        model, initial, cfg.n, cfg.horizon, cfg.seed, cfg.replicates,
        sub_steps=cfg.sub_steps, workers=cfg.threads,
        martingales=(MartingaleSpec("bump", bump),))
    acc = result.martingales["bump"]
    r = cfg.replicates
    z_mean = float(acc.z_final.mean())
    z_se = float(acc.z_final.std(ddof=1) / math.sqrt(r))
    dt = time.perf_counter() - t0

    squared = acc.z_final ** 2
    est2 = float(squared.mean())
    predicted = float(acc.bracket.mean())
    rel = abs(est2 - predicted) / predicted if predicted else math.inf
    return [
        _z_check("martingale.mean_zero", z_mean, 0.0, z_se, cfg.mean_se, dt),
        _flag_check("martingale.bracket_10pct", rel <= 0.10, 0.0,
                    f"E Z^2 = {est2:.6g} vs bracket {predicted:.6g} "
                    f"(rel {rel:.3%})", estimate=est2, oracle=predicted),
    ]


def suite_genealogy(cfg: ExperimentConfig) -> list[CheckResult]:
    t0 = time.perf_counter()
    expected = {
        Topology.FOUR_TREES: 1,
        Topology.ONE_PAIR: 12,
        Topology.TWO_PAIRS: 12,
        Topology.TRIPLE_PLUS_ONE: 48,
        Topology.NESTED_PAIRS: 12,
        Topology.CATERPILLAR: 24,
    }
    table_ok = all(arrangement_count(k) == v for k, v in expected.items())
    checks = [_flag_check(
        "genealogy.arrangement_table", table_ok, time.perf_counter() - t0,
        "quadruple arrangement counts match the fixed table")]

    # permutation invariance of the classifier on random tuples
    t0 = time.perf_counter()
    perms = list(itertools.permutations(range(4)))
    key = derive_key(cfg.seed, 0xA11CE)
    draws = 2000
    vals = uniforms([key], 0, draws * 32)[0]
    bad = 0
    idx = 0
    for trial in range(draws):
        depth = 2 + int(vals[idx] * 5)
        idx += 1
        labels = []
        # a trailing 2-bit tag keeps the four labels distinct while the
        # random prefix still produces every ancestry pattern
        for k in range(4):
            bits = tuple(int(vals[idx + j] < 0.5) for j in range(depth))
            idx += depth
            labels.append(Label(1, bits + (k >> 1, k & 1)))
        topo, gens = classify_topology(labels)
        perm = perms[trial % len(perms)]
        topo2, gens2 = classify_topology([labels[p] for p in perm])
        if topo2 != topo or gens2 != gens:
            bad += 1
    checks.append(_flag_check(
        "genealogy.permutation_invariance", bad == 0,
        time.perf_counter() - t0,
        f"{bad} of {draws} random tuples changed class under relabeling"))
    return checks


def suite_green(cfg: ExperimentConfig) -> list[CheckResult]:
    model = cfg.model()
    base = GreenFunction(model, cfg.lam, np.asarray(cfg.u))
    checks: list[CheckResult] = []

    t0 = time.perf_counter()
    if base.closed_form:
        rs = np.linspace(0.05, 3.0 / base.kappa, 40)
        closed = base.radial(rs)
        quadr = base.quadrature_radial(rs)
        err = float(np.max(np.abs(closed - quadr)))
        checks.append(_flag_check(
            "green.closed_vs_quadrature", err <= 1e-8,
            time.perf_counter() - t0, f"max abs deviation {err:.3g}",
            estimate=err, oracle=0.0))

    masses = []
    l1 = []
    for eps in cfg.eps_schedule:
        t0 = time.perf_counter()
        kern = MollifiedGreen(base, eps)
        masses.append((eps, kern.mass(), time.perf_counter() - t0))
        l1.append(kern.l1_distance_to_base())
    worst = max(abs(m - 1.0 / cfg.lam) for _, m, _ in masses)
    checks.append(_flag_check(
        "green.mollified_mass", worst <= 1e-8,
        sum(t for _, _, t in masses),
        f"max |mass - 1/lambda| = {worst:.3g} over {len(masses)} kernels",
        estimate=worst, oracle=0.0))

    ratios = [l1[i + 1] / l1[i] for i in range(len(l1) - 1)] if len(l1) > 1 else []
    mono = all(x < y for x, y in zip(l1[1:], l1[:-1]))
    # on halving steps the distance must drop geometrically
    halving_ok = all(
        ratios[i] <= 0.9
        for i in range(len(ratios))
        if abs(cfg.eps_schedule[i + 1] / cfg.eps_schedule[i] - 0.5) < 1e-9)
    checks.append(_flag_check(
        "green.l1_localization", mono and halving_ok, 0.0,
        "L1 distance to the sharp kernel decreases along the schedule: "
        + ", ".join(f"{v:.4g}" for v in l1)
        + (f" (ratios {', '.join(f'{r:.3g}' for r in ratios)})" if ratios else "")))
    return checks


def suite_ito(cfg: ExperimentConfig) -> list[CheckResult]:
    model = cfg.model()
    initial = cfg.initial()
    eps = cfg.eps_schedule[min(1, len(cfg.eps_schedule) - 1)]
    base = GreenFunction(model, cfg.lam, np.asarray(cfg.u))
    kern = MollifiedGreen(base, eps)

    rms = []
    t0 = time.perf_counter()
    for level in range(3):
        s = cfg.sub_steps * (2 ** level)
        result = simulate_ensemble(model, initial, cfg.n, cfg.horizon,
                                   cfg.seed, cfg.replicates, sub_steps=s,
                                   record="full", workers=cfg.threads)
        comps = decomposition_ensemble(result, kern, cfg.lam, cfg.horizon)
        res = np.array([c.ito_residual for c in comps])
        rms.append(float(np.sqrt((res ** 2).mean())))
    dt = time.perf_counter() - t0
    drops_ok = all(rms[i + 1] <= 0.7 * rms[i] for i in range(2))
    return [_flag_check(
        "ito.residual_refinement", drops_ok, dt,
        "RMS residual per sub-step level: "
        + ", ".join(f"{v:.4g}" for v in rms)
        + " (each level must drop by >= 30%)",
        estimate=rms[-1], oracle=0.0)]


def suite_eps_study(cfg: ExperimentConfig,
                    out_dir: Optional[Path] = None) -> list[CheckResult]:
    model = cfg.model()
    initial = cfg.initial()
    t0 = time.perf_counter()
    study = epsilon_convergence_study(
        model, initial, cfg.n, cfg.horizon, cfg.lam, np.asarray(cfg.u),
        cfg.eps_schedule, cfg.replicates, cfg.seed,
        sub_steps=cfg.sub_steps, workers=cfg.threads)
    dt = time.perf_counter() - t0
    if out_dir is not None:
        write_study_csv(out_dir / "eps_study.csv", study)

    checks = []
    dists = study.distances
    cauchy = all(
        dists[i + 1][2] <= dists[i][2]
        + 2.0 * math.hypot(dists[i][3], dists[i + 1][3])
        for i in range(len(dists) - 1))
    checks.append(_flag_check(
        "eps.cauchy_decrease", cauchy, dt,
        "consecutive L2 distances: "
        + ", ".join(f"{d[2]:.4g}±{d[3]:.2g}" for d in dists)))

    if study.small_ball is not None:
        diff = study.extrapolated_limit() - study.small_ball
        mean = float(diff.mean())
        se = float(diff.std(ddof=1) / math.sqrt(len(diff)))
        checks.append(_z_check("eps.small_ball_agreement", mean, 0.0, se,
                               cfg.var_se, 0.0))
    return checks


SUITES: dict[str, Callable[[ExperimentConfig], list[CheckResult]]] = {
    "mass": suite_mass,
    "moments": suite_moments,
    "martingale": suite_martingale,
    "genealogy": suite_genealogy,
    "green": suite_green,
    "ito": suite_ito,
}


# ---------------------------------------------------------------------------
# orchestration and reporting


def run_experiment(cfg: ExperimentConfig,
                   write_artifacts: bool = True) -> StatReport:
    require_inputs(cfg, cfg.suites)
    report_obj = StatReport(config_hash=cfg.config_hash(), seed=cfg.seed)

    model = cfg.model()
    initial = cfg.initial()
    vr = validate_model(model, initial=initial, horizon=cfg.horizon)
    if not vr.passed:
        raise ConfigError(
            f"{cfg.source}: model validation failed: {'; '.join(vr.messages)}"
        )

    out_dir = Path(cfg.out_dir)
    if write_artifacts:
        out_dir.mkdir(parents=True, exist_ok=True)

    for name in cfg.suites:
        if name == "eps-study":
            checks = suite_eps_study(
                cfg, out_dir=out_dir if write_artifacts else None)
        else:
            checks = SUITES[name](cfg)
        report_obj.checks.extend(checks)

    if write_artifacts:
        write_report(report_obj, cfg, out_dir)
    return report_obj


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return ""
    return f"{x:.17g}"


def write_report(report_obj: StatReport, cfg: ExperimentConfig,
                 out_dir: Path) -> tuple[Path, Path]:
    """Markdown summary plus a machine-readable CSV of every check.

    The CSV body is a pure function of (config, seed); runtimes stay in
    the markdown so reruns stay byte-comparable where it matters.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    csv_path = out_dir / "checks.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("# config_hash=%s seed=%d\n" % (report_obj.config_hash,
                                                 report_obj.seed))
        fh.write("name,estimate,oracle,stderr,z,threshold,passed\n")
        for c in report_obj.checks:
            fh.write(",".join([
                c.name, _fmt(c.estimate), _fmt(c.oracle), _fmt(c.stderr),
                _fmt(c.z), _fmt(c.threshold), str(int(c.passed)),
            ]) + "\n")

    md_path = out_dir / "report.md"
    lines = [
        "# flowsilt experiment report",
        "",
        f"- config hash: `{report_obj.config_hash}`",
        f"- seed: {report_obj.seed}",
        f"- suites: {', '.join(cfg.suites) if cfg.suites else '(validation only)'}",
        f"- outcome: {'PASS' if report_obj.all_passed else 'FAIL'}",
        "",
        "Replay: rerun `flowsilt report --config <this config>`; the CSV "
        "body is determined by (config, seed).",
        "",
        "| check | estimate | oracle | stderr | z | pass | time (s) |",
        "|---|---|---|---|---|---|---|",
    ]
    for c in report_obj.checks:
        lines.append("| {} | {} | {} | {} | {} | {} | {:.2f} |".format(
            c.name,
            "" if math.isnan(c.estimate) else f"{c.estimate:.6g}",
            "" if math.isnan(c.oracle) else f"{c.oracle:.6g}",
            "" if math.isnan(c.stderr) else f"{c.stderr:.3g}",
            "" if math.isnan(c.z) else f"{c.z:.3f}",
            "yes" if c.passed else "NO",
            c.runtime,
        ))
        if c.detail:
            lines.append(f"|  | {c.detail} | | | | | |")
    lines.append("")
    md_path.write_text("\n".join(lines), encoding="utf-8")
    return md_path, csv_path


# ---------------------------------------------------------------------------
# direct runs used by the CLI


def run_simulation(cfg: ExperimentConfig, out_dir: Path) -> Path:
    """Simulate and dump the per-replicate CSV: mass and a bump at the
    initial atom, both at every recorded sub-step."""
    model = cfg.model()
    initial = cfg.initial()
    center = np.asarray(initial.atoms[0][0], dtype=float)
    bump = GaussianBump(center, np.eye(cfg.dim))
    steps = int(round(cfg.horizon * cfg.n)) * cfg.sub_steps
    grid = np.linspace(0.0, cfg.horizon, steps + 1)
    result = simulate_ensemble(
        model, initial, cfg.n, cfg.horizon, cfg.seed, cfg.replicates,
        sub_steps=cfg.sub_steps, workers=cfg.threads,
        observables=(ObservableSpec("bump", bump, tuple(grid)),))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "replicates.csv"
    write_replicate_csv(path, result)
    return path


def run_silt(cfg: ExperimentConfig, out_dir: Path) -> Path:
    """Tanaka decomposition per replicate for every eps in the schedule."""
    model = cfg.model()
    initial = cfg.initial()
    base = GreenFunction(model, cfg.lam, np.asarray(cfg.u))
    result = simulate_ensemble(model, initial, cfg.n, cfg.horizon, cfg.seed,
                               cfg.replicates, sub_steps=cfg.sub_steps,
                               record="full", workers=cfg.threads)
    rows = []
    for eps in cfg.eps_schedule:
        kern = MollifiedGreen(base, eps)
        comps = decomposition_ensemble(result, kern, cfg.lam, cfg.horizon)
        rows.extend((rep, eps, c) for rep, c in enumerate(comps))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "silt_components.csv"
    write_components_csv(path, rows)
    return path
