"""Independent reference computations for the test suite.

Nothing in here imports the package's moment evaluator or estimators.
The moment oracles work directly from the genealogical picture: a draw
of observed particles is jointly Gaussian given its coalescent forest,
branch times integrate against unit rate per ranked split, and the
shared flow contributes covariance over the interval where two distinct
lineages are both alive. Forest sums are enumerated explicitly, so the
values below are closed Gaussian integrals evaluated by quadrature.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate


# ---------------------------------------------------------------------------
# total-mass moments of the critical branching limit


def mass_moment(order: int, t: float, m0: float = 1.0) -> float:
    """E M_t^order for the measure-valued limit started from mass m0.

    Closed solutions of the moment ODE chain m_q' = (q choose 2) m_{q-1},
    m_q(0) = m0^q, for orders one to four.
    """
    if order == 1:
        return m0
    if order == 2:
        return m0 * m0 + m0 * t
    if order == 3:
        return m0 ** 3 + 3 * m0 * m0 * t + 1.5 * m0 * t * t
    if order == 4:
        return (m0 ** 4 + 6 * m0 ** 3 * t + 9 * m0 * m0 * t * t
                + 3 * m0 * t ** 3)
    raise ValueError(order)


def mixed_mass_moment(times: Sequence[float], m0: float = 1.0) -> float:
    """E prod_p M_{t_p} via the Markov/martingale reduction.

    Sorting the times and conditioning at the earliest one turns the
    product into a polynomial in the later gaps with mass-moment
    coefficients; handles up to four factors.
    """
    ts = sorted(float(t) for t in times)
    q = len(ts)
    if q == 1:
        return mass_moment(1, ts[0], m0)
    if q == 2:
        return mass_moment(2, ts[0], m0)
    if q == 3:
        t1, t2, t3 = ts
        # E[M1 M2 M3] = E[M1 E[M2 M3 | F2]] with E[M3|F2] = M2
        # then E[M1 M2^2] = E[M1 (M1^2 + M1 (t2-t1))]
        return mass_moment(3, t1, m0) + (t2 - t1) * mass_moment(2, t1, m0)
    if q == 4:
        t1, t2, t3, t4 = ts
        # peel t4 then t3: E[M1 M2 M3^2] = E[M1 M2 M2^2] + (t3-t2) E[M1 M2^2]
        inner3 = (mass_moment(4, t1, m0)
                  + 3 * (t2 - t1) * mass_moment(3, t1, m0)
                  + 1.5 * (t2 - t1) ** 2 * mass_moment(2, t1, m0))
        inner2 = mass_moment(3, t1, m0) + (t2 - t1) * mass_moment(2, t1, m0)
        return inner3 + (t3 - t2) * inner2
    raise ValueError(q)


# ---------------------------------------------------------------------------
# genealogical Gaussian moments for constant coefficients


def _ranked_forests(leaves: int):
    """All coalescent forests on `leaves` observed particles.

    A forest is a list of trees; a tree is (leaf_set, ranked merge list).
    Each merge list entry is a pair of frozensets merged at that rank,
    innermost (latest) splits enumerated via recursive merging. Returns
    tuples (partition, merges) where merges is ordered from the earliest
    split to the latest.
    """
    labels = list(range(leaves))
    forests = []

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in partitions(rest):
            for k in range(len(sub)):
                yield sub[:k] + [[first] + sub[k]] + sub[k + 1:]
            yield [[first]] + sub

    def ranked_histories(block):
        """All orderings of binary merges building the tree on `block`."""
        state = [frozenset([x]) for x in block]

        def rec(parts):
            if len(parts) == 1:
                yield []
                return
            for i, j in itertools.combinations(range(len(parts)), 2):
                merged = parts[i] | parts[j]
                nxt = [p for k, p in enumerate(parts) if k not in (i, j)]
                nxt.append(merged)
                for tail in rec(nxt):
                    yield [(parts[i], parts[j])] + tail
        # rec yields merges from latest-backward order built forward;
        # reverse so entry 0 is the earliest (closest to time 0) split
        return [list(reversed(h)) for h in rec(state)]

    for part in partitions(labels):
        blocks = [sorted(b) for b in part]
        per_block = [ranked_histories(b) for b in blocks]
        for combo in itertools.product(*per_block):
            # interleave the independent block histories in all rank orders
            if sum(len(h) for h in combo) == 0:
                forests.append((blocks, ()))
                continue
            for assignment in _interleavings(combo):
                forests.append((blocks, tuple(assignment)))
    return forests


def _interleavings(histories):
    """Merge several ordered lists in every rank order, keeping each
    list's internal order."""
    seqs = [list(h) for h in histories if h]
    if not seqs:
        return []
    total = sum(len(s) for s in seqs)
    out = []

    def rec(prefix, states):
        if len(prefix) == total:
            out.append(list(prefix))
            return
        for k, s in enumerate(states):
            if s:
                rec(prefix + [s[0]], [t[1:] if i == k else t
                                      for i, t in enumerate(states)])
    rec([], seqs)
    return out


def _split_time_of(label: int, other: int, blocks, merges, assigned):
    """Forward time at which the lineages of two leaves separate."""
    b1 = next(i for i, b in enumerate(blocks) if label in b)
    b2 = next(i for i, b in enumerate(blocks) if other in b)
    if b1 != b2:
        return 0.0
    # lineages share ancestry until the first merge event that joins them,
    # scanning from the latest split backward; forward in time they are
    # together until the rank at which the containing sets merged
    for rank, (a, b) in enumerate(merges):
        joined = a | b
        if label in joined and other in joined and not (
                label in a and other in a) and not (
                label in b and other in b):
            return assigned[rank]
    raise AssertionError("pair never merged inside one tree")


def coalescent_moment(times: Sequence[float], a: float, sigma: float,
                      phi_prec: float = 1.0, x0: float = 0.0,
                      nodes: int = 48) -> float:
    """E prod_p <phi, mu_{t_p}> in d=1 from the coalescent picture.

    phi(x) = exp(-phi_prec * x^2 / 2), mu_0 = delta_{x0}, self-diffusion
    coefficient a, shared-flow coefficient sigma (both constant). Sums
    over ranked coalescent forests; each split carries unit rate, each
    ranked history integrates over its ordered split times, and the
    observed particles are jointly Gaussian with
        Var(X_p)    = a t_p
        Cov(X_p X_q) = a s_pq + sigma (min(t_p, t_q) - s_pq)
    where s_pq is the forward split time of the pair (0 across trees).
    """
    ts = [float(t) for t in times]
    q = len(ts)
    x, w = leggauss(nodes)
    total = 0.0

    for blocks, merges in _ranked_forests(q):
        k = len(merges)
        # upper bound for each merge: all leaves below it must be alive
        ubs = [min(ts[p] for p in (m[0] | m[1])) for m in merges]

        def gauss_value(assigned):
            cov = np.empty((q, q))
            for p in range(q):
                cov[p, p] = a * ts[p]
                for r in range(p + 1, q):
                    s = _split_time_of(p, r, blocks, merges, assigned)
                    c = a * s + sigma * (min(ts[p], ts[r]) - s)
                    cov[p, r] = cov[r, p] = c
            prec = phi_prec * np.eye(q)
            m = np.linalg.det(np.eye(q) + cov @ prec) ** -0.5
            if x0 != 0.0:
                mu = np.full(q, x0)
                shifted = np.linalg.solve(np.eye(q) + cov @ prec, mu)
                m *= math.exp(-0.5 * phi_prec * float(mu @ shifted))
            return m

        if k == 0:
            total += gauss_value([])
            continue

        # iterate ordered times 0 < r_1 < ... < r_k with r_j <= ub_j;
        # panels split at the inner levels' bounds so the integrand stays
        # smooth on every panel (the inner integral vanishes past them)
        def nested(level, lo, assigned):
            hi = ubs[level]
            if hi <= lo:
                return 0.0
            cuts = sorted({lo, hi} | {u for u in ubs[level + 1:]
                                      if lo < u < hi})
            acc = 0.0
            for a_, b_ in zip(cuts, cuts[1:]):
                pts = a_ + 0.5 * (x + 1.0) * (b_ - a_)
                wts = 0.5 * (b_ - a_) * w
                for p, ww in zip(pts, wts):
                    assigned.append(p)
                    if level == k - 1:
                        acc += ww * gauss_value(assigned)
                    else:
                        acc += ww * nested(level + 1, p, assigned)
                    assigned.pop()
            return acc

        total += nested(0, 0.0, [])
    return total


# ---------------------------------------------------------------------------
# one-particle semigroup values by direct quadrature


def heat_semigroup_bump(t: float, a: float, x: float = 0.0,
                        phi_prec: float = 1.0) -> float:
    """(Q_t phi)(x) for phi = exp(-phi_prec x^2/2) and generator a/2 d^2."""

    def integrand(y):
        return (math.exp(-phi_prec * y * y / 2.0)
                * math.exp(-(y - x) ** 2 / (2 * a * t))
                / math.sqrt(2 * math.pi * a * t))

    val, _ = integrate.quad(integrand, -np.inf, np.inf, epsabs=1e-13)
    return val


def martingale_path(positions: Sequence[np.ndarray], dt: float, weight: float,
                    center: np.ndarray, precision: np.ndarray,
                    amplitude: float, a: np.ndarray) -> np.ndarray:
    """Z_t(f) = <f, mu_t> - <f, mu_0> - int_0^t <L f, mu_s> ds on a
    recorded grid, the time integral taken at left endpoints.

    f is the bump amplitude * exp(-(x-c)' P (x-c) / 2) with P symmetric,
    and L f = 0.5 f (v' a v - tr(a P)) with v = P (x - c), for the
    constant one-particle diffusion matrix a.
    """
    center = np.asarray(center, dtype=float)
    precision = np.asarray(precision, dtype=float)
    a = np.asarray(a, dtype=float)
    totals, generator = [], []
    for x in positions:
        dx = np.asarray(x, dtype=float).reshape(-1, center.size) - center
        f = amplitude * np.exp(-0.5 * np.einsum("ki,ij,kj->k", dx,
                                                precision, dx))
        v = dx @ precision
        lf = 0.5 * f * (np.einsum("ki,ij,kj->k", v, a, v)
                        - np.trace(a @ precision))
        totals.append(weight * f.sum())
        generator.append(weight * lf.sum())
    totals = np.array(totals)
    z = np.zeros_like(totals)
    z[1:] = totals[1:] - totals[0] - dt * np.cumsum(generator[:-1])
    return z


# ---------------------------------------------------------------------------
# resolvent references


def resolvent_d1(r: float, lam: float, a: float) -> float:
    kap = math.sqrt(2.0 * lam / a)
    return math.exp(-kap * r) / math.sqrt(2.0 * lam * a)


def resolvent_d2(r: float, lam: float, a: float) -> float:
    """d=2 isotropic resolvent via the Bessel K_0 closed form."""
    from scipy.special import k0
    kap = math.sqrt(2.0 * lam / a)
    return k0(kap * r) / (math.pi * a)


def resolvent_d3(r: float, lam: float, a: float) -> float:
    kap = math.sqrt(2.0 * lam / a)
    return math.exp(-kap * r) / (2.0 * math.pi * a * r)


def resolvent_time_integral(r: float, lam: float, a: float, d: int) -> float:
    """Direct Laplace-transform quadrature of the heat kernel."""

    def integrand(t):
        return (math.exp(-lam * t) * (2 * math.pi * a * t) ** (-d / 2.0)
                * math.exp(-r * r / (2 * a * t)))

    val, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-13, limit=400)
    return val


# ---------------------------------------------------------------------------
# brute-force genealogy classification via partition refinement


def _partition_at(labels, g: int):
    """Blocks of indices whose labels agree on root and first g bits."""
    blocks: dict = {}
    for i, lab in enumerate(labels):
        blocks.setdefault((lab.root, tuple(lab.bits[:g])), []).append(i)
    return sorted(tuple(v) for v in blocks.values())


def split_events(labels) -> list[tuple[int, tuple[int, ...]]]:
    """(generation, block) for every block split in the refinement chain.

    Walking g upward, a block of the generation-g partition that is not
    a block of the generation-(g+1) partition split at g. Works for any
    tuple of same-depth labels and touches only roots and bit prefixes.
    """
    depth = len(labels[0].bits)
    events = []
    for g in range(depth):
        now = set(_partition_at(labels, g))
        nxt = set(_partition_at(labels, g + 1))
        for block in sorted(now - nxt):
            events.append((g, block))
    return events


def brute_force_classify(labels) -> tuple[str, tuple[int, ...]]:
    """Shape name and sorted split generations, from scratch.

    Takes a quadruple and returns one of four_trees/one_pair/two_pairs/
    triple_plus_one/nested_pairs/caterpillar, with the generation tuple
    in the same convention as the package classifier: every split event's
    generation, ordered by the chain (earliest first, and for a
    first 2+2 split the two later pair splits sorted ascending).
    """
    sizes = sorted(len(b) for b in _partition_at(labels, 0))
    events = split_events(labels)
    gens = [g for g, _ in events]

    if sizes == [1, 1, 1, 1]:
        return "four_trees", ()
    if sizes == [1, 1, 2]:
        return "one_pair", (gens[0],)
    if sizes == [2, 2]:
        return "two_pairs", tuple(sorted(gens))
    if sizes == [1, 3]:
        return "triple_plus_one", tuple(gens)

    # one tree on all four leaves: the first event fixes the branch sizes
    g1, first_block = events[0]
    children = _partition_at(labels, g1 + 1)
    parts = [b for b in children if set(b) <= set(first_block)]
    child_sizes = sorted(len(p) for p in parts)
    if child_sizes == [2, 2]:
        return "nested_pairs", (g1,) + tuple(sorted(gens[1:]))
    return "caterpillar", tuple(gens)
