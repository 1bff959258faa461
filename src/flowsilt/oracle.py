"""Closed-form mixed-moment evaluation for constant-coefficient models.

Moments of orders one through four decompose into a fixed list of terms.
Each term composes three kinds of stages, read here right to left (the
order in which they hit the test function):

  * a diffusion stage: convolve the currently diffusing trailing blocks
    with a centered Gaussian whose covariance is gap * A(m), where A(m)
    couples m particles through the shared flow;
  * an observation stage: freeze the leading diffusing block, which stops
    receiving noise and loses its flow coupling to the others;
  * a branch stage: identify two diffusing blocks (a common ancestor),
    dropping the arity by one.

A term's block count at each stage follows a ledger: observation lowers
the diffusing count by one reading left to right, branching raises it.
The finished function has arity equal to the term's initial-measure power
and is paired with that tensor power of the initial measure. Terms with
branch stages carry time integrals over the branch times, evaluated by
nested Gauss-Legendre rules over (products of) simplices.

A term is evaluated for its whole quadrature grid at once, but each
stage runs on the distinct functions it sees, not on the grid rows. A
row-to-function index travels with the batch: a diffusion stage convolves
each distinct (function, gap) pair once, so a gap between observation
times, the same on every row, costs one push, and a stage to the right
of every branch time costs one push per distinct gap. A branch stage
that sums over pairs (AnyPair) splits the batch into one branch per pair
from the function they share; the stages to its right have already run
once for all of them, so the pair choices form a trie walked right to
left. The branches see the same gaps and share one row index. Every
matrix goes through the same Gaussian update as it would in a
row-by-row evaluation, so the values are the same bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gaussian import (GaussianFunctional, convolve_params, merge_embedding,
                       pullback_params, value_params)
from .green import gauss_legendre
from .model import (CoefficientModel, ConstantOne, GaussianBump,
                    InitialMeasureSpec, TestFunction)

DEFAULT_NODES = 32


class ExpressionError(ValueError):
    """A stage composition violated the arity ledger."""


class OracleModelError(TypeError):
    """The analytic oracle handles constant-coefficient models only."""


# ---------------------------------------------------------------------------
# stage markers


@dataclass(frozen=True)
class FreezeLeading:
    """Stop the leading diffusing block (an observation time)."""

    def __repr__(self):
        return "pi_1"


@dataclass(frozen=True)
class MergeBlocks:
    """Identify diffusing blocks i and j, 1-based within the diffusing
    suffix (a branch time)."""

    i: int
    j: int

    def __post_init__(self):
        if not (1 <= self.i < self.j):
            raise ValueError("need 1 <= i < j")

    def __repr__(self):
        return f"Phi_{self.i}{self.j}"


@dataclass(frozen=True)
class AnyPair:
    """A branch stage summed over every pair of the first m diffusing
    blocks; expands to one MergeBlocks per pair."""

    m: int

    def __repr__(self):
        return f"Phi_ij[{self.m}]"


def ledger_superscripts(ell0: int, ops: Sequence[object]) -> list[int]:
    """Diffusing-block counts for each stage boundary, left to right.

    Entry p is the count for the gap to the right of the first p stages;
    entry 0 is ell0 itself. An observation lowers the count by one, a
    branch stage (MergeBlocks or AnyPair) raises it.
    """
    sup = [ell0]
    for op in ops:
        sup.append(sup[-1] - 1 if isinstance(op, FreezeLeading) else sup[-1] + 1)
    return sup


def _choices(op) -> list:
    """The concrete stages one stage stands for: a MergeBlocks per pair
    for AnyPair, the stage itself otherwise."""
    if isinstance(op, AnyPair):
        return [MergeBlocks(i, j) for i in range(1, op.m + 1)
                for j in range(i + 1, op.m + 1)]
    return [op]


# ---------------------------------------------------------------------------
# constant-model covariance kernels


class ModelKernels:
    """Per-particle and flow covariance blocks of a constant model."""

    def __init__(self, model: CoefficientModel):
        self.dim = model.dim
        self.driver = np.diag(model.b_vec.astype(float) ** 2)
        self.flow = model.c_mat @ model.c_mat.T
        self._joint: dict[int, np.ndarray] = {}

    def joint(self, m: int) -> np.ndarray:
        """Covariance rate of m particles moving together: block (p, q)
        is flow coupling, plus the independent driver on the diagonal."""
        if m not in self._joint:
            eye = np.eye(m)
            ones = np.ones((m, m))
            self._joint[m] = (np.kron(eye, self.driver)
                              + np.kron(ones, self.flow))
        return self._joint[m]


def _step_cov(kernels: ModelKernels, arity: int, moving: int,
              gaps: np.ndarray) -> np.ndarray:
    """Batched covariance for one diffusion stage: zeros on the frozen
    prefix, gap * A(moving) on the trailing diffusing blocks."""
    d = kernels.dim
    n = arity * d
    base = kernels.joint(moving)
    cov = np.zeros(gaps.shape + (n, n))
    z = (arity - moving) * d
    cov[..., z:, z:] = gaps[..., None, None] * base
    return cov


def _convolve_distinct(kernels: ModelKernels, branches: list,
                       ids: np.ndarray, gap_col: np.ndarray, arity: int,
                       moving: int) -> tuple[list, np.ndarray]:
    """One diffusion stage on the distinct (function, gap) pairs of a batch.

    Each branch holds (amp, mean, prec) of its distinct functions; row b
    of the batch is function ids[b] of every branch and has gap
    gap_col[b]. Each distinct pair is convolved once per branch. Returns
    the new branches and row index.
    """
    gap_vals, gap_ids = np.unique(gap_col, return_inverse=True)
    _, first, new_ids = np.unique(ids * gap_vals.shape[0] + gap_ids,
                                  return_index=True, return_inverse=True)
    src = ids[first]
    cov = _step_cov(kernels, arity, moving, gap_col[first])
    return [convolve_params(amp[src], mean[src], prec[src], cov)
            for amp, mean, prec in branches], new_ids


def evaluate_gamma_batch(kernels: ModelKernels, ell0: int,
                         ops: Sequence[object], gaps: np.ndarray,
                         phi: GaussianFunctional) -> tuple:
    """Push phi through every concrete stage list of ops for a batch of
    gap vectors.

    phi has arity ell0 plus the number of branch stages and gaps has
    shape (B, len(ops) + 1). The stages run right to left on the distinct
    functions of the batch, as the module docstring describes: each
    AnyPair stage branches into its pair choices, and each diffusion
    stage finds its distinct (function, gap) pairs once for all branches.

    Returns (amp, mean, prec, ids): the finished arity-ell0 functions,
    indexed (combination, function), and the row index ids of shape (B,):
    row b of combination c is function [c, ids[b]]. The combinations of
    the stages' choices come in itertools.product order. The callers
    check their inputs; this does not.
    """
    sup = ledger_superscripts(ell0, ops)
    k = len(ops)
    arity = ell0 + sum(not isinstance(op, FreezeLeading) for op in ops)
    d = phi.dim
    gaps = np.atleast_2d(np.asarray(gaps, dtype=float))

    branches = [(np.array([phi.amplitude]), phi.mean[None, :],
                 phi.precision[None, :, :])]
    branches, ids = _convolve_distinct(
        kernels, branches, np.zeros(gaps.shape[0], dtype=np.intp),
        gaps[:, k], arity, sup[k])
    for p in range(k - 1, -1, -1):
        op = ops[p]
        if not isinstance(op, FreezeLeading):
            frozen = arity - sup[p + 1]
            embeds = [merge_embedding(arity, d, frozen + merge.i - 1,
                                      frozen + merge.j - 1)
                      for merge in _choices(op)]
            # the new choice varies slowest, as in itertools.product
            branches = [pullback_params(*branch, e)
                        for e in embeds for branch in branches]
            arity -= 1
        branches, ids = _convolve_distinct(kernels, branches, ids,
                                           gaps[:, p], arity, sup[p])
    amp, mean, prec = (np.stack([branch[q] for branch in branches])
                       for q in range(3))
    return amp, mean, prec, ids


def diagonal_restrict(f: GaussianFunctional, i: int, j: int) -> GaussianFunctional:
    """Identify argument blocks i and j (1-based), dropping arity by one."""
    if i == j:
        raise ValueError("blocks must be distinct")
    lo, hi = sorted((i, j))
    if not (1 <= lo and hi <= f.arity):
        raise ValueError(f"blocks ({i}, {j}) out of range for arity {f.arity}")
    return f.merge_blocks(lo - 1, hi - 1)


# ---------------------------------------------------------------------------
# initial-measure pairing


def pair_with_initial(amp: np.ndarray, mean: np.ndarray, prec: np.ndarray,
                      power: int, mu0: InitialMeasureSpec,
                      rows: np.ndarray) -> np.ndarray:
    """<F, mu0^power> for batched function parameters: a sum over all
    ordered atom tuples of the tensor power, weighted by mass products.

    The functions are indexed by the leading axes of amp; rows picks
    along the last of them, so entry [..., b] of the result pairs function
    [..., rows[b]]. Each function is evaluated at the atom tuples once,
    but the weighted sum over them runs on the rows: its rounding can
    depend on a row's place in the batch.
    """
    atoms = mu0.atoms
    pts = np.array([p for p, _ in atoms])
    ms = np.array([m for _, m in atoms])
    idx = np.array(list(itertools.product(range(len(atoms)), repeat=power)))
    pos = pts[idx].reshape(idx.shape[0], power * mu0.dim)
    w = ms[idx].prod(axis=1)
    vals = value_params(amp[..., None], mean[..., None, :],
                        prec[..., None, :, :], pos)
    return vals[..., rows, :] @ w


# ---------------------------------------------------------------------------
# formula templates


_F = FreezeLeading()
_M12 = MergeBlocks(1, 2)


@dataclass(frozen=True)
class TermTemplate:
    """One displayed term: stage pattern, time-slot layout, and domain."""

    name: str
    ell0: int
    ops: tuple            # FreezeLeading, MergeBlocks(1, 2) or AnyPair
    slots: tuple[str, ...]
    svars: tuple[tuple[str, tuple, tuple], ...]  # (name, lo, hi), outer first

    def describe(self) -> str:
        sup = ledger_superscripts(self.ell0, self.ops)
        gap_names = [self.slots[0]] + [
            f"{self.slots[q]}-{self.slots[q - 1]}" for q in range(1, len(self.slots))
        ]
        parts = [f"Q^{sup[0]}_{{{gap_names[0]}}}"]
        for p, op in enumerate(self.ops):
            parts.append(repr(op))
            parts.append(f"Q^{sup[p + 1]}_{{{gap_names[p + 1]}}}")
        dom = " ".join(
            f"{nm} in ({_token_str(lo)},{_token_str(hi)})" for nm, lo, hi in self.svars
        )
        tail = f" | {dom}" if dom else ""
        return f"{' '.join(parts)} | <., mu0^{self.ell0}>{tail}"


def _token_str(tok) -> str:
    kind = tok[0]
    if kind == "zero":
        return "0"
    if kind == "t":
        return f"t{tok[1] + 1}"
    return str(tok[1])


def _t(i):
    return ("t", i)


_Z = ("zero",)


def _s(name):
    return ("s", name)


def build_templates(order: int) -> list[TermTemplate]:
    if order == 1:
        return [TermTemplate("1.1", 1, (), ("t1",), ())]
    if order == 2:
        return [
            TermTemplate("2.1", 2, (_F,), ("t1", "t2"), ()),
            TermTemplate("2.2", 1, (_M12, _F), ("s1", "t1", "t2"),
                         (("s1", _Z, _t(0)),)),
        ]
    if order == 3:
        return [
            TermTemplate("3.1", 3, (_F, _F), ("t1", "t2", "t3"), ()),
            TermTemplate("3.2", 2, (AnyPair(3), _F, _F), ("s1", "t1", "t2", "t3"),
                         (("s1", _Z, _t(0)),)),
            TermTemplate("3.3", 1, (_M12, AnyPair(3), _F, _F),
                         ("s1", "s2", "t1", "t2", "t3"),
                         (("s2", _Z, _t(0)), ("s1", _Z, _s("s2")))),
            TermTemplate("3.4", 2, (_F, _M12, _F),
                         ("t1", "s1", "t2", "t3"),
                         (("s1", _t(0), _t(1)),)),
            TermTemplate("3.5", 1, (_M12, _F, _M12, _F),
                         ("s1", "t1", "s2", "t2", "t3"),
                         (("s2", _t(0), _t(1)), ("s1", _Z, _t(0)))),
        ]
    if order == 4:
        return [
            TermTemplate("4.1", 4, (_F, _F, _F), ("t1", "t2", "t3", "t4"), ()),
            TermTemplate("4.2", 3, (AnyPair(4), _F, _F, _F),
                         ("s1", "t1", "t2", "t3", "t4"),
                         (("s1", _Z, _t(0)),)),
            TermTemplate("4.3", 3, (_F, AnyPair(3), _F, _F),
                         ("t1", "s1", "t2", "t3", "t4"),
                         (("s1", _t(0), _t(1)),)),
            TermTemplate("4.4", 3, (_F, _F, _M12, _F),
                         ("t1", "t2", "s1", "t3", "t4"),
                         (("s1", _t(1), _t(2)),)),
            TermTemplate("4.5", 2, (AnyPair(3), AnyPair(4), _F, _F, _F),
                         ("s1", "s2", "t1", "t2", "t3", "t4"),
                         (("s2", _Z, _t(0)), ("s1", _Z, _s("s2")))),
            TermTemplate("4.6", 2, (AnyPair(3), _F, AnyPair(3), _F, _F),
                         ("s1", "t1", "s2", "t2", "t3", "t4"),
                         (("s2", _t(0), _t(1)), ("s1", _Z, _t(0)))),
            TermTemplate("4.7", 2, (_F, _M12, AnyPair(3), _F, _F),
                         ("t1", "s1", "s2", "t2", "t3", "t4"),
                         (("s2", _t(0), _t(1)), ("s1", _t(0), _s("s2")))),
            TermTemplate("4.8", 2, (AnyPair(3), _F, _F, _M12, _F),
                         ("s1", "t1", "t2", "s2", "t3", "t4"),
                         (("s2", _t(1), _t(2)), ("s1", _Z, _t(0)))),
            TermTemplate("4.9", 2, (_F, _M12, _F, _M12, _F),
                         ("t1", "s1", "t2", "s2", "t3", "t4"),
                         (("s2", _t(1), _t(2)), ("s1", _t(0), _t(1)))),
            TermTemplate("4.10", 1,
                         (_M12, AnyPair(3), AnyPair(4), _F, _F, _F),
                         ("s1", "s2", "s3", "t1", "t2", "t3", "t4"),
                         (("s3", _Z, _t(0)), ("s2", _Z, _s("s3")),
                          ("s1", _Z, _s("s2")))),
            TermTemplate("4.11", 1,
                         (_M12, AnyPair(3), _F, AnyPair(3), _F, _F),
                         ("s1", "s2", "t1", "s3", "t2", "t3", "t4"),
                         (("s3", _t(0), _t(1)), ("s2", _Z, _t(0)),
                          ("s1", _Z, _s("s2")))),
            TermTemplate("4.12", 1,
                         (_M12, _F, _M12, AnyPair(3), _F, _F),
                         ("s1", "t1", "s2", "s3", "t2", "t3", "t4"),
                         (("s3", _t(0), _t(1)), ("s2", _t(0), _s("s3")),
                          ("s1", _Z, _t(0)))),
            TermTemplate("4.13", 1,
                         (_M12, AnyPair(3), _F, _F, _M12, _F),
                         ("s1", "s2", "t1", "t2", "s3", "t3", "t4"),
                         (("s3", _t(1), _t(2)), ("s2", _Z, _t(0)),
                          ("s1", _Z, _s("s2")))),
            TermTemplate("4.14", 1,
                         (_M12, _F, _M12, _F, _M12, _F),
                         ("s1", "t1", "s2", "t2", "s3", "t3", "t4"),
                         (("s3", _t(1), _t(2)), ("s2", _t(0), _t(1)),
                          ("s1", _Z, _t(0)))),
        ]
    raise ValueError(f"moment order {order} not supported (1..4)")


def _check_template(template: TermTemplate) -> None:
    """Template self-consistency: a pair sum ranges over every diffusing
    block, a fixed merge acts on exactly two, and the ledger stays at one
    or above and ends at one."""
    sup = ledger_superscripts(template.ell0, template.ops)
    for op, m in zip(template.ops, sup[1:]):
        if isinstance(op, AnyPair) and op.m != m:
            raise ExpressionError(
                f"{template.name}: pair range {op.m} != ledger {m}")
        if isinstance(op, MergeBlocks) and m != 2:
            raise ExpressionError(
                f"{template.name}: fixed merge at diffusing count {m}")
    if min(sup) < 1 or sup[-1] != 1:
        raise ExpressionError(f"{template.name}: ledger {sup} must stay at "
                              "one or above and end at one")


for _order in (1, 2, 3, 4):
    for _tpl in build_templates(_order):
        _check_template(_tpl)


@dataclass(frozen=True)
class MomentFormula:
    """The displayed term list for one moment order."""

    order: int

    @property
    def terms(self) -> list[TermTemplate]:
        return build_templates(self.order)

    @property
    def term_count(self) -> int:
        return len(self.terms)


# ---------------------------------------------------------------------------
# quadrature over the (product of) branch-time domains


def _bound_values(tok, ts: np.ndarray, assigned: dict[str, np.ndarray],
                  batch: int) -> np.ndarray:
    kind = tok[0]
    if kind == "zero":
        return np.zeros(batch)
    if kind == "t":
        return np.full(batch, ts[tok[1]])
    return assigned[tok[1]]


def _quadrature_grid(template: TermTemplate, ts: np.ndarray, nodes: int):
    """Enumerate quadrature nodes for the branch times, outer to inner.

    Returns (assignments, weights); empty domains get zero weight, which
    makes coincident observation times exact.
    """
    x, w = gauss_legendre(nodes)
    assigned: dict[str, np.ndarray] = {}
    weights = np.ones(1)
    batch = 1
    for name, lo_tok, hi_tok in template.svars:
        lo = _bound_values(lo_tok, ts, assigned, batch)
        hi = _bound_values(hi_tok, ts, assigned, batch)
        width = np.maximum(hi - lo, 0.0)
        vals = lo[:, None] + 0.5 * (x[None, :] + 1.0) * width[:, None]
        wts = 0.5 * width[:, None] * w[None, :]
        assigned = {k: np.repeat(v, nodes) for k, v in assigned.items()}
        assigned[name] = vals.reshape(-1)
        weights = (weights[:, None] * wts).reshape(-1)
        batch *= nodes
    return assigned, weights


def _term_grid(template: TermTemplate, ts: np.ndarray,
               nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The gap vectors (B, len(slots)) and quadrature weights (B,) of one
    term."""
    assigned, weights = _quadrature_grid(template, ts, nodes)
    batch = weights.shape[0]
    slot_vals = np.empty((batch, len(template.slots)))
    for col, slot in enumerate(template.slots):
        if slot.startswith("t"):
            slot_vals[:, col] = ts[int(slot[1:]) - 1]
        else:
            slot_vals[:, col] = assigned[slot]
    gaps = np.empty_like(slot_vals)
    gaps[:, 0] = slot_vals[:, 0]
    gaps[:, 1:] = np.diff(slot_vals, axis=1)
    return np.maximum(gaps, 0.0), weights


def _term_value(kernels: ModelKernels, template: TermTemplate,
                phi: GaussianFunctional, ts: np.ndarray,
                mu0: InitialMeasureSpec, nodes: int) -> float:
    gaps, weights = _term_grid(template, ts, nodes)
    if weights.shape[0] == 0 or not np.any(weights != 0.0):
        return 0.0
    amp, mean, prec, ids = evaluate_gamma_batch(kernels, template.ell0,
                                                template.ops, gaps, phi)
    paired = pair_with_initial(amp, mean, prec, template.ell0, mu0, ids)
    total = 0.0
    for row in paired:
        total += float(row @ weights)
    return total


# ---------------------------------------------------------------------------
# the public moment evaluator


def _as_functional(f: TestFunction, dim: int) -> GaussianFunctional:
    if isinstance(f, ConstantOne):
        return GaussianFunctional.constant_one(1, dim)
    if isinstance(f, GaussianBump):
        return GaussianFunctional(1, dim, f.amplitude, f.center, f.precision)
    raise OracleModelError(
        "the analytic oracle accepts Gaussian bumps and the constant one"
    )


def _prepare(model, order: int, test_functions: Sequence[TestFunction],
             times: Sequence[float], mu0: InitialMeasureSpec):
    """The input checks shared by mixed_moment and dump_terms; returns the
    kernels, the sorted times and the product test functional."""
    if order not in (1, 2, 3, 4):
        raise ValueError(f"moment order {order} not supported (1..4)")
    if len(test_functions) != order or len(times) != order:
        raise ValueError("need one test function and one time per factor")
    kernels = model if isinstance(model, ModelKernels) else ModelKernels(model)
    pairs = sorted(zip([float(t) for t in times], range(order)))
    ts = np.array([t for t, _ in pairs])
    if ts[0] < 0:
        raise ValueError("times must be nonnegative")
    fs = [_as_functional(test_functions[orig], kernels.dim) for _, orig in pairs]
    phi = GaussianFunctional.product(fs)
    mu0.validate()
    return kernels, ts, phi


def mixed_moment(model, order: int, test_functions: Sequence[TestFunction],
                 times: Sequence[float], mu0: InitialMeasureSpec,
                 nodes: int = DEFAULT_NODES) -> float:
    """E prod_p <f_p, mu_{t_p}> for a constant model, orders one to four."""
    kernels, ts, phi = _prepare(model, order, test_functions, times, mu0)
    total = 0.0
    for template in build_templates(order):
        total += _term_value(kernels, template, phi, ts, mu0, nodes)
    return total


def dump_terms(model, order: int, test_functions: Sequence[TestFunction],
               times: Sequence[float], mu0: InitialMeasureSpec,
               nodes: int = DEFAULT_NODES) -> list[tuple[str, float]]:
    """Per-term description and value; the debug view used by golden tests."""
    kernels, ts, phi = _prepare(model, order, test_functions, times, mu0)
    return [(template.describe(),
             _term_value(kernels, template, phi, ts, mu0, nodes))
            for template in build_templates(order)]
