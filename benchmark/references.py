"""Reference values the workloads check the program against.

Stored values (references.json) come from make_references.py. The mass
moments are closed forms computed here: the total mass M of the critical
branching limit is a Feller diffusion, a martingale with d<M> = M dt, so
its conditional moments solve the chain m_k' = C(k, 2) m_{k-1} exactly.
"""

from __future__ import annotations

import json
from math import comb
from pathlib import Path

from numpy.polynomial import Polynomial

HERE = Path(__file__).resolve().parent
PATH = HERE / "references.json"


def load() -> dict:
    """The stored reference values; raises if the file is missing."""
    return json.loads(PATH.read_text(encoding="utf-8"))


def _conditional_moments(k: int) -> list[Polynomial]:
    """Coefficients of E[M_d^k | M_0 = x] = sum_j c_j(d) x^j, each c_j a
    polynomial in the elapsed time d."""
    zero = Polynomial([0.0])
    coeffs = [Polynomial([1.0])]  # k = 0
    for order in range(1, k + 1):
        prev = coeffs + [zero]
        coeffs = [comb(order, 2) * prev[j].integ() for j in range(order + 1)]
        coeffs[order] = coeffs[order] + 1.0
    return coeffs


def _apply(poly: list[float], elapsed: float) -> list[float]:
    """E[p(M_d) | M_0 = x] as coefficients in x, for p given in powers of M."""
    out = [0.0] * len(poly)
    for k, a in enumerate(poly):
        if a == 0.0:
            continue
        for j, c in enumerate(_conditional_moments(k)):
            out[j] += a * c(elapsed)
    return out


def mass_moment_closed(times, m0: float = 1.0) -> float:
    """E prod_q M_{t_q} for the Feller mass started at m0.

    Conditioning from the latest time backwards: at each earlier time the
    remaining product is a polynomial in the current mass, multiplied by
    that mass and pushed back through the conditional moments.
    """
    ts = sorted(float(t) for t in times)
    poly = [0.0, 1.0]  # M_{t_last}
    for later, earlier in zip(ts[::-1], ts[-2::-1]):
        pushed = _apply(poly, later - earlier)
        poly = [0.0] + pushed  # times M_{t_earlier}
    value = _apply(poly, ts[0])
    return float(sum(c * m0 ** j for j, c in enumerate(value)))


def feller_moment(order: int, t: float, m0: float = 1.0) -> float:
    """E M_t^order."""
    return float(sum(c(t) * m0 ** j
                     for j, c in enumerate(_conditional_moments(order))))
