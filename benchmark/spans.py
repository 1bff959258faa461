"""Span tracing for traced benchmark runs, installed from outside flowsilt.

Each hook replaces one function or method on the name its caller looks
up: a module attribute for ``rng.normals``-style calls, the importing
module's own name for ``from .x import f`` (harness, silt and oracle
import their callees that way), a class attribute for methods, or a
dict entry for the harness suite table. Hooks are installed for one
traced round and removed afterwards, so untraced rounds run the program
exactly as shipped.

A span records name, start, end and parent. Its self time is its
duration minus the time covered by its child spans, so nested calls
(``normals`` -> ``uniforms`` -> ``words``) are never counted twice.
Inclusive totals and counters of a hook that has a group are taken only
at the outermost open span of that group.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np

# the suites the report-1d workload runs
SUITES = ("mass", "genealogy", "green", "ito", "eps-study")

# name -> (unit, better); the order is the print order
PER_LAYER = {
    "rng.busy_s": ("s", "lower"),
    "rng.words": ("count", "lower"),
    "rng.words_per_s": ("1/s", "higher"),
    "engine.substep_s": ("s", "lower"),
    "engine.branch_s": ("s", "lower"),
    "engine.observe_s": ("s", "lower"),
    "engine.simulate_s": ("s", "lower"),
    "engine.particle_substeps": ("count", "lower"),
    "engine.particle_substeps_per_s": ("1/s", "higher"),
    "engine.branch_events": ("count", "lower"),
    "engine.peak_alive": ("count", "lower"),
    "engine.snapshot_bytes": ("B", "lower"),
    **{f"oracle.moment_s.d{d}.order{q}": ("s", "lower")
       for d in (1, 3) for q in (1, 2, 3, 4)},
    "oracle.gamma_batch_s": ("s", "lower"),
    "oracle.gamma_batches": ("count", "lower"),
    "oracle.quadrature_rows": ("count", "lower"),
    "oracle.pairing_s": ("s", "lower"),
    "gaussian.convolve_s": ("s", "lower"),
    "gaussian.convolve_matrices": ("count", "lower"),
    "gaussian.pullback_s": ("s", "lower"),
    "green.kernel_build_s": ("s", "lower"),
    "green.kernel_builds": ("count", "lower"),
    "green.radial_s": ("s", "lower"),
    "green.radial_points": ("count", "lower"),
    "green.diagnostics_s": ("s", "lower"),
    "silt.pairgrid_build_s": ("s", "lower"),
    "silt.cell_sums_s": ("s", "lower"),
    "silt.pairs_per_s": ("1/s", "higher"),
    "silt.decomposition_s": ("s", "lower"),
    "silt.small_ball_s": ("s", "lower"),
    "silt.study_s": ("s", "lower"),
    "silt.pairs": ("count", "lower"),
    "silt.pair_bytes": ("B", "lower"),
    **{f"harness.suite_s.{s}": ("s", "lower") for s in SUITES},
    "harness.report_write_s": ("s", "lower"),
    "genealogy.classify_s": ("s", "lower"),
    "genealogy.classify_calls": ("count", "lower"),
    "model.validate_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "process.cpu_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Spans kept in memory, plus per-round metric accumulators."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index]
        # open spans: [span index, time covered by children, start, parent]
        self._stack: list[list] = []
        self._open_groups: dict[str, int] = defaultdict(int)
        self.values: dict[str, float] = defaultdict(float)

    def add(self, key: str, amount: float) -> None:
        self.values[key] += amount

    def peak(self, key: str, value: float) -> None:
        self.values[key] = max(self.values[key], value)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself (the root of a round)."""
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        start = perf_counter()
        self.spans.append([name, start, start,
                           parent[0] if parent else -1])
        frame = [len(self.spans) - 1, 0.0, start, parent]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> tuple[float, float]:
        end = perf_counter()
        self._stack.pop()
        idx, covered, start, parent = frame
        self.spans[idx][2] = end
        dur = end - start
        if parent is not None:
            parent[1] += dur
        return dur, dur - covered

    def call(self, hook: "Hook", fn: Callable, args, kwargs):
        group = hook.group
        outer = group is None or self._open_groups[group] == 0
        pre = hook.pre(args, kwargs) if (hook.pre and outer) else None
        if group is not None:
            self._open_groups[group] += 1
        frame = self._open(hook.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            dur, own = self._close(frame)
            if group is not None:
                self._open_groups[group] -= 1
            if hook.self_key:
                self.values[hook.self_key] += own
            if outer and hook.total_key:
                key = (hook.total_key(args, kwargs)
                       if callable(hook.total_key) else hook.total_key)
                self.values[key] += dur
        if outer and hook.post:
            hook.post(self, args, kwargs, result, pre)
        return result

    def take_round(self) -> dict[str, float]:
        """Per-layer metrics of the round just traced; resets the
        accumulators (spans are kept for the trace file)."""
        v = self.values
        out = {name: float(v.get(name, 0.0)) for name in PER_LAYER}
        out["rng.words_per_s"] = _ratio(v["rng.words"], v["rng.busy_s"])
        out["engine.particle_substeps_per_s"] = _ratio(
            v["engine.particle_substeps"], v["engine.simulate_s"])
        out["silt.pairs_per_s"] = _ratio(v["silt.pairs_evaluated"],
                                         v["silt.cell_sums_incl_s"])
        self.values = defaultdict(float)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


@dataclass(frozen=True)
class Hook:
    owner: str            # "module", "module:Class" or "module:DICT"
    attr: str
    span: str
    self_key: Optional[str] = None
    group: Optional[str] = None
    total_key: object = None   # str or callable(args, kwargs) -> str
    pre: Optional[Callable] = None
    post: Optional[Callable] = None


# -- counters -----------------------------------------------------------------


def _words(tr, args, kwargs, result, pre):
    tr.add("rng.words", result.size)


def _alive(args, kwargs):
    return args[0].pos.shape[0]


def _substep(tr, args, kwargs, result, alive):
    tr.add("engine.particle_substeps", alive)
    tr.peak("engine.peak_alive", alive)


def _branch(tr, args, kwargs, result, alive):
    tr.add("engine.branch_events", alive)
    tr.peak("engine.peak_alive", alive)


def _snapshot(tr, args, kwargs, result, pre):
    tr.add("engine.snapshot_cur", result.positions.nbytes
           + result.offsets.nbytes)


def _simulated(tr, args, kwargs, result, pre):
    tr.peak("engine.snapshot_bytes", tr.values.pop("engine.snapshot_cur", 0.0))


def _moment_key(args, kwargs):
    model = args[0] if args else kwargs["model"]
    order = args[1] if len(args) > 1 else kwargs["order"]
    return f"oracle.moment_s.d{model.dim}.order{order}"


def _gamma_batch(tr, args, kwargs, result, pre):
    gaps = args[3] if len(args) > 3 else kwargs["gaps"]
    tr.add("oracle.gamma_batches", 1)
    tr.add("oracle.quadrature_rows", np.atleast_2d(gaps).shape[0])


def _convolve(tr, args, kwargs, result, pre):
    prec = np.asarray(args[2] if len(args) > 2 else kwargs["prec"])
    tr.add("gaussian.convolve_matrices", int(np.prod(prec.shape[:-2])))


def _kernel_build(tr, args, kwargs, result, pre):
    tr.add("green.kernel_builds", 1)


def _radial(tr, args, kwargs, result, pre):
    tr.add("green.radial_points", np.size(args[1]))


def _pair_grid(tr, args, kwargs, result, pre):
    grid = args[0]
    radii = grid.strict_radii.size + grid.diag_radii.size
    nbytes = (grid.strict_radii.nbytes + grid.diag_radii.nbytes
              + grid.strict_offsets.nbytes + grid.diag_offsets.nbytes)
    tr.add("silt.pairs", radii)
    tr.peak("silt.pair_bytes", nbytes)


def _strict_sums(tr, args, kwargs, result, pre):
    tr.add("silt.pairs_evaluated", args[0].strict_radii.size)


def _diag_sums(tr, args, kwargs, result, pre):
    tr.add("silt.pairs_evaluated", args[0].diag_radii.size)


def _classified(tr, args, kwargs, result, pre):
    tr.add("genealogy.classify_calls", 1)


# -- the hook table -------------------------------------------------------------


def _hooks() -> list[Hook]:
    hooks = []
    for name in ("words", "uniforms", "normals", "coin_flips", "split_keys",
                 "fold_keys", "tag_keys"):
        hooks.append(Hook("flowsilt.rng", name, f"rng.{name}", "rng.busy_s",
                          post=_words if name == "words" else None))
    for name in ("uniforms", "derive_key"):
        hooks.append(Hook("flowsilt.harness", name, f"rng.{name}",
                          "rng.busy_s"))

    pop = "flowsilt.engine:Population"
    hooks += [
        Hook(pop, "do_substep", "engine.do_substep", "engine.substep_s",
             pre=_alive, post=_substep),
        Hook(pop, "do_branch", "engine.do_branch", "engine.branch_s",
             pre=_alive, post=_branch),
        Hook(pop, "observe_per_replicate", "engine.observe",
             "engine.observe_s"),
        Hook(pop, "mass_per_replicate", "engine.observe_mass",
             "engine.observe_s"),
        Hook("flowsilt.engine", "_accumulate_martingales",
             "engine.martingales", "engine.observe_s"),
        Hook("flowsilt.engine", "_take_snapshot", "engine.snapshot",
             "engine.observe_s", post=_snapshot),
    ]
    for owner in ("flowsilt.engine", "flowsilt.harness", "flowsilt.silt"):
        hooks.append(Hook(owner, "simulate_ensemble",
                          "engine.simulate_ensemble", group="engine.simulate",
                          total_key="engine.simulate_s", post=_simulated))

    for owner in ("flowsilt.model", "flowsilt.harness", "flowsilt.cli"):
        hooks.append(Hook(owner, "validate_model", "model.validate_model",
                          "model.validate_s"))

    for owner in ("flowsilt.oracle", "flowsilt.gaussian"):
        hooks += [
            Hook(owner, "convolve_params", "gaussian.convolve_params",
                 "gaussian.convolve_s", post=_convolve),
            Hook(owner, "pullback_params", "gaussian.pullback_params",
                 "gaussian.pullback_s"),
        ]
    for owner in ("flowsilt.oracle", "flowsilt.harness"):
        hooks.append(Hook(owner, "mixed_moment", "oracle.mixed_moment",
                          group="oracle.moment", total_key=_moment_key))
    hooks += [
        Hook("flowsilt.oracle", "evaluate_gamma_batch",
             "oracle.evaluate_gamma_batch", "oracle.gamma_batch_s",
             post=_gamma_batch),
        Hook("flowsilt.oracle", "pair_with_initial",
             "oracle.pair_with_initial", "oracle.pairing_s"),
    ]

    mg = "flowsilt.green:MollifiedGreen"
    gf = "flowsilt.green:GreenFunction"
    hooks += [
        Hook(mg, "__init__", "green.kernel_build", "green.kernel_build_s",
             post=_kernel_build),
        Hook(mg, "radial", "green.radial", "green.radial_s",
             group="green.radial", post=_radial),
        Hook(mg, "lambda_minus_l_radial", "green.lambda_minus_l_radial",
             "green.radial_s", group="green.radial", post=_radial),
        Hook(mg, "mass", "green.mass", "green.diagnostics_s"),
        Hook(mg, "l1_distance_to_base", "green.l1_distance",
             "green.diagnostics_s"),
        Hook(gf, "l1_mass", "green.l1_mass", "green.diagnostics_s"),
        Hook(gf, "quadrature_radial", "green.quadrature_radial",
             "green.diagnostics_s"),
    ]

    grid = "flowsilt.silt:PairGrid"
    hooks += [
        Hook(grid, "__init__", "silt.pair_grid", "silt.pairgrid_build_s",
             post=_pair_grid),
        Hook(grid, "strict_matrix", "silt.strict_matrix", "silt.cell_sums_s",
             total_key="silt.cell_sums_incl_s", post=_strict_sums),
        Hook(grid, "strict_total", "silt.strict_total", "silt.cell_sums_s",
             total_key="silt.cell_sums_incl_s", post=_strict_sums),
        Hook(grid, "diagonal", "silt.diagonal", "silt.cell_sums_s",
             total_key="silt.cell_sums_incl_s", post=_diag_sums),
        Hook("flowsilt.silt", "tanaka_decomposition",
             "silt.tanaka_decomposition", "silt.decomposition_s"),
        Hook("flowsilt.silt", "small_ball_lambda", "silt.small_ball_lambda",
             "silt.small_ball_s"),
    ]
    for owner in ("flowsilt.silt", "flowsilt.harness"):
        hooks.append(Hook(owner, "epsilon_convergence_study",
                          "silt.epsilon_convergence_study",
                          group="silt.study", total_key="silt.study_s"))

    for suite in SUITES:
        if suite != "eps-study":
            hooks.append(Hook("flowsilt.harness:SUITES", suite,
                              f"harness.suite.{suite}",
                              f"harness.suite_s.{suite}"))
    for owner in ("flowsilt.harness", "flowsilt.cli"):
        hooks.append(Hook(owner, "suite_eps_study", "harness.suite.eps-study",
                          "harness.suite_s.eps-study"))
    for name in ("write_report", "write_study_csv"):
        hooks.append(Hook("flowsilt.harness", name, f"harness.{name}",
                          "harness.report_write_s"))
    hooks += [
        Hook("flowsilt.harness", "classify_topology",
             "genealogy.classify_topology", "genealogy.classify_s",
             post=_classified),
        Hook("flowsilt.cli", "main", "cli.main", "cli.main_s"),
    ]
    return hooks


HOOKS = _hooks()


def _resolve(owner: str):
    module, _, inner = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, inner) if inner else obj


def _get(obj, attr: str):
    if isinstance(obj, dict):
        return obj.get(attr)
    if isinstance(obj, type):
        return obj.__dict__.get(attr)
    return getattr(obj, attr, None)


def _set(obj, attr: str, value) -> None:
    if isinstance(obj, dict):
        obj[attr] = value
    else:
        setattr(obj, attr, value)


def install(tracer: Tracer, hooks=HOOKS) -> tuple[Callable[[], None], list[str]]:
    """Patch every hook; returns (undo, names of hooks whose target is
    missing). A missing target leaves its metrics at zero."""
    undo: list[tuple] = []
    missing: list[str] = []
    for hook in hooks:
        obj = _resolve(hook.owner)
        original = _get(obj, hook.attr)
        if original is None:
            missing.append(f"{hook.owner}.{hook.attr}")
            continue

        def wrapper(*args, _fn=original, _hook=hook, **kwargs):
            return tracer.call(_hook, _fn, args, kwargs)

        functools.update_wrapper(wrapper, original)
        _set(obj, hook.attr, wrapper)
        undo.append((obj, hook.attr, original))

    def restore() -> None:
        for obj, attr, original in reversed(undo):
            _set(obj, attr, original)

    return restore, missing
