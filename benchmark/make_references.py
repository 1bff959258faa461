"""Regenerate benchmark/references.json from the coalescent oracle.

    python3 benchmark/make_references.py

The values come from ``coalescent_moment`` in ``tests/oracles.py``, which
enumerates ranked coalescent forests and shares no code with
``flowsilt.oracle``. One order-4 value takes about two minutes, so the
whole file takes about ten; the workloads only read it.

bm1d (b=1, c=1) has self-diffusion a = b^2 + c^2 = 2 and flow coupling
sigma = c^2 = 1. flow3d (b=(1,0,0), c=I) moves coordinate 1 like bm1d,
while coordinates 2 and 3 carry only the shared flow, so every particle
of a replicate sits at the same Brownian point W_k(t) there. A bump with
precision diag(p1, p2, p3) then factorises:

    E prod_q <f, mu_{t_q}> = coalescent(p1) * prod_{k=2,3} det(I + p_k C)^(-1/2)

with C_pq = min(t_p, t_q), the covariance of W_k at the observation times.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "references.json"

# ensemble-1d: one unit bump at the origin, observed at four grid times of
# the n=50 and n=100 grids
ENSEMBLE = {"precision": 1.0, "times": [0.3, 0.6, 0.8, 1.0]}

# oracle-moments: four input sets; a round uses one set, chosen from the seed
ORACLE_SETS = [
    {"times": [0.2, 0.45, 0.7, 0.95], "precision": [1.3, 0.7, 2.0]},
    {"times": [0.1, 0.4, 0.55, 0.9], "precision": [0.8, 1.5, 0.5]},
    {"times": [0.3, 0.5, 0.65, 1.0], "precision": [2.0, 0.9, 1.2]},
    {"times": [0.15, 0.35, 0.8, 0.85], "precision": [0.6, 2.5, 1.0]},
]


def flow_factor(times, p: float) -> float:
    """E prod_q exp(-p W(t_q)^2 / 2) for one Brownian coordinate."""
    t = np.asarray(times, dtype=float)
    cov = np.minimum.outer(t, t)
    return float(np.linalg.det(np.eye(len(t)) + p * cov) ** -0.5)


def main() -> int:
    sys.path.insert(0, str(ROOT / "tests"))
    from oracles import coalescent_moment, mixed_mass_moment

    from references import mass_moment_closed

    def coal(times, prec):
        t0 = time.perf_counter()
        val = coalescent_moment(times, a=2.0, sigma=1.0, phi_prec=prec)
        print(f"  coalescent order {len(times)} at {times}, precision "
              f"{prec}: {val!r} ({time.perf_counter() - t0:.0f} s)",
              flush=True)
        return val

    ens_times = ENSEMBLE["times"]
    subsets = {}
    for q in range(1, 5):
        for idx in itertools.combinations(range(4), q):
            ts = [ens_times[i] for i in idx]
            subsets[",".join(map(str, idx))] = coal(ts, ENSEMBLE["precision"])

    sets = []
    for spec in ORACLE_SETS:
        times = spec["times"]
        p1, p2, p3 = spec["precision"]
        bm1d, flow3d, mass = [], [], []
        for q in range(1, 5):
            c = coal(times[:q], p1)
            bm1d.append(c)
            flow3d.append(c * flow_factor(times[:q], p2)
                          * flow_factor(times[:q], p3))
            # the benchmark's own closed form must agree with the test
            # suite's independent mass-moment reduction
            mine = mass_moment_closed(times[:q])
            theirs = mixed_mass_moment(times[:q])
            if abs(mine - theirs) > 1e-12 * abs(theirs):
                raise SystemExit(f"closed mass moment {mine} != {theirs}")
            mass.append(mine)
        sets.append(dict(spec, bm1d=bm1d, flow3d=flow3d, mass=mass))

    payload = {
        "generator": "benchmark/make_references.py "
                     "(coalescent_moment in tests/oracles.py)",
        "model_params": {"a": 2.0, "sigma": 1.0, "x0": 0.0},
        "ensemble": dict(ENSEMBLE, moments=subsets),
        "oracle_sets": sets,
    }
    OUT.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
