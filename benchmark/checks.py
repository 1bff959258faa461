"""Correctness checks on program outputs, kept free of flowsilt imports.

Each check returns a Check; the workloads collect them and the run is
correct only if every check passed. The statistical budgets are set so a
correct program fails a run with probability well under 1e-4: the
benchmark runs hundreds of times, and a spurious failure refuses a
change just as a real one does.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

Z_BUDGET = 5.0
SPLIT_ALPHA = 1e-6
BRACKET_REL = 0.10


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _z(samples: np.ndarray, target: float) -> float:
    se = float(samples.std(ddof=1) / math.sqrt(samples.size))
    diff = float(samples.mean()) - target
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / se


def mass_law(final_mass: np.ndarray, m0: float, horizon: float) -> list[Check]:
    """Mean m0 and variance m0 * horizon of the critical mass."""
    m = np.asarray(final_mass, dtype=float)
    r = m.size
    z_mean = _z(m, m0)
    var = float(m.var(ddof=1))
    m4 = float(((m - m.mean()) ** 4).mean())
    se_var = math.sqrt(max(m4 - (r - 3) / (r - 1) * var * var, 0.0) / r)
    z_var = (var - m0 * horizon) / se_var if se_var > 0 else math.inf
    return [
        Check("mass.mean", abs(z_mean) <= Z_BUDGET,
              f"mean {m.mean():.5f} vs {m0} (z={z_mean:+.2f}, budget {Z_BUDGET})"),
        Check("mass.variance", abs(z_var) <= Z_BUDGET,
              f"variance {var:.5f} vs {m0 * horizon} (z={z_var:+.2f}, "
              f"budget {Z_BUDGET})"),
    ]


def split_fraction(splits: int, deaths: int,
                   alpha: float = SPLIT_ALPHA) -> Check:
    """Two-sided Clopper-Pearson interval on the split fraction covers 1/2."""
    from scipy.stats import beta  # slow to import; keep it out of set-up

    n = splits + deaths
    lo = float(beta.ppf(alpha / 2, splits, n - splits + 1)) if splits else 0.0
    hi = (float(beta.ppf(1 - alpha / 2, splits + 1, n - splits))
          if splits < n else 1.0)
    return Check("branch.split_fraction", lo <= 0.5 <= hi,
                 f"{splits}/{n} splits, {1 - alpha:.6f} interval "
                 f"[{lo:.6f}, {hi:.6f}]")


def observable_moments(values: np.ndarray, references: dict) -> list[Check]:
    """Every mixed moment E prod_{q in S} <f, mu_{t_q}> over the observation
    subsets S against its reference, keyed "0,2,3"-style."""
    values = np.asarray(values, dtype=float)
    out = []
    for q in range(1, values.shape[1] + 1):
        for idx in itertools.combinations(range(values.shape[1]), q):
            key = ",".join(map(str, idx))
            samples = values[:, list(idx)].prod(axis=1)
            z = _z(samples, references[key])
            out.append(Check(f"observable.moment[{key}]",
                             abs(z) <= Z_BUDGET,
                             f"{samples.mean():.6f} vs {references[key]:.6f} "
                             f"(z={z:+.2f}, budget {Z_BUDGET})"))
    return out


def martingale(z_final: np.ndarray, bracket: np.ndarray) -> list[Check]:
    """E Z_T = 0, and E Z_T^2 within 10 % of the mean predicted bracket."""
    z_final = np.asarray(z_final, dtype=float)
    z = _z(z_final, 0.0)
    second = float((z_final ** 2).mean())
    pred = float(np.mean(bracket))
    rel = abs(second - pred) / pred if pred > 0 else math.inf
    return [
        Check("martingale.mean_zero", abs(z) <= Z_BUDGET,
              f"E Z = {z_final.mean():+.5f} (z={z:+.2f}, budget {Z_BUDGET})"),
        Check("martingale.bracket", rel <= BRACKET_REL,
              f"E Z^2 = {second:.5f} vs bracket {pred:.5f} (rel {rel:.2%}, "
              f"budget {BRACKET_REL:.0%})"),
    ]


def identical(name: str, a, b) -> Check:
    """Bit-for-bit equality of two arrays."""
    a = np.asarray(a)
    b = np.asarray(b)
    same = a.shape == b.shape and a.dtype == b.dtype and (
        a.tobytes() == b.tobytes())
    return Check(name, same, "identical" if same else
                 f"differ: shapes {a.shape} vs {b.shape}")


def relative(name: str, value: float, reference: float, rtol: float) -> Check:
    err = abs(value - reference) / max(abs(reference), 1e-300)
    return Check(name, bool(err <= rtol),
                 f"{value!r} vs {reference!r} (rel {err:.2e}, tol {rtol:.0e})")


def strictly_increasing(name: str, values) -> Check:
    v = [float(x) for x in values]
    ok = all(b > a for a, b in zip(v, v[1:]))
    return Check(name, ok, ", ".join(f"{x:.6g}" for x in v))


_STATUS = re.compile(r"^\[(PASS|FAIL)\] ", re.MULTILINE)


def cli_clean(name: str, code: int, stdout: str, expected_pass: int) -> Check:
    """Exit 0, no [FAIL] line, and the expected number of [PASS] lines."""
    status = _STATUS.findall(stdout)
    fails = status.count("FAIL")
    passes = status.count("PASS")
    ok = code == 0 and fails == 0 and passes == expected_pass
    return Check(name, ok, f"exit {code}, {passes} PASS (expected "
                           f"{expected_pass}), {fails} FAIL")


def distances_nonincreasing(rows) -> Check:
    """Consecutive (L2, SE) distances never rise by more than 2 SE."""
    ok = all(b[0] <= a[0] + 2.0 * math.hypot(a[1], b[1])
             for a, b in zip(rows, rows[1:]))
    return Check("eps.distances", ok, ", ".join(f"{l2:.4g}±{se:.2g}"
                                                for l2, se in rows))
