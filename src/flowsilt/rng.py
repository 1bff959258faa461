"""Counter-based random streams for reproducible parallel Monte Carlo.

Every draw is a pure function of (key, counter). Keys are derived by
hashing (seed, replicate, lineage, purpose) together, so any particle's
noise can be regenerated in isolation and results never depend on
scheduling order or worker count.

The core mixer is the splitmix64 finalizer applied twice. One round is
already a decent avalanche; two rounds decorrelate keys differing in a
single bit well below statistical detectability for our sample sizes.
"""

from __future__ import annotations

import numpy as np

U64 = np.uint64
_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB

# purpose tags; xored into a lineage key to split it into independent streams
MOTION_TAG = 0x6D6F74696F6E0001
BRANCH_TAG = 0x6272616E63680002
FLOW_TAG = 0x666C6F7700000003
_CHILD0 = 0xC2B2AE3D27D4EB4F
_CHILD1 = 0x165667B19E3779F9


def mix64(x: int) -> int:
    """splitmix64 finalizer on a python int, reduced mod 2^64."""
    x = (x + _GAMMA) & _MASK
    x ^= x >> 30
    x = (x * _MULT1) & _MASK
    x ^= x >> 27
    x = (x * _MULT2) & _MASK
    return x ^ (x >> 31)


def derive_key(*parts: int) -> int:
    """Fold integers into one 64-bit key, two mixer rounds per part."""
    h = 0x8E51_2F2C_7A6B_91D3
    for p in parts:
        h = mix64(mix64(h ^ (p & _MASK)))
    return h


def _mix_array(x: np.ndarray) -> np.ndarray:
    x = x + U64(_GAMMA)
    x ^= x >> U64(30)
    x *= U64(_MULT1)
    x ^= x >> U64(27)
    x *= U64(_MULT2)
    return x ^ (x >> U64(31))


def words(keys: np.ndarray, counter_start: int, m: int) -> np.ndarray:
    """Return m raw 64-bit words per key, shape (len(keys), m)."""
    keys = np.asarray(keys, dtype=U64)
    ctrs = np.arange(counter_start, counter_start + m, dtype=np.uint64)
    with np.errstate(over="ignore"):
        mixed_ctr = _mix_array(ctrs)
        return _mix_array(keys[:, None] ^ mixed_ctr[None, :])


def uniforms(keys: np.ndarray, counter_start: int, m: int) -> np.ndarray:
    """Uniforms on the open interval (0, 1), shape (len(keys), m)."""
    w = words(keys, counter_start, m)
    return ((w >> U64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


def normals(keys: np.ndarray, counter_start: int, m: int) -> np.ndarray:
    """Standard normals via Box-Muller, shape (len(keys), m).

    Consumes 2*ceil(m/2) counters per key regardless of parity, so a
    caller advancing its counter by that stride stays reproducible. Entry
    q is the same number for every m > q; for odd m the sine of the last
    pair, which would be entry m, is not computed.
    """
    pairs = (m + 1) // 2
    u = uniforms(keys, counter_start, 2 * pairs)
    u1 = u[:, :pairs]
    u2 = u[:, pairs:]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi) * u2
    z = np.empty((u.shape[0], m))
    z[:, 0::2] = r * np.cos(theta)
    z[:, 1::2] = r[:, :m // 2] * np.sin(theta[:, :m // 2])
    return z


def normal_stride(m: int) -> int:
    """Counter consumption of normals(..., m)."""
    return 2 * ((m + 1) // 2)


def coin_flips(keys: np.ndarray, counter: int) -> np.ndarray:
    """One fair bit per key (True with probability 1/2)."""
    w = words(keys, counter, 1)[:, 0]
    return (w & U64(1)).astype(bool)


def split_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Derive two child keys from each parent key.

    Children of distinct parents, and the two children of one parent,
    all get decorrelated streams; the derivation is order-free.
    """
    keys = np.asarray(keys, dtype=U64)
    with np.errstate(over="ignore"):
        c0 = _mix_array(_mix_array(keys ^ U64(_CHILD0)))
        c1 = _mix_array(_mix_array(keys ^ U64(_CHILD1)))
    return c0, c1


def fold_keys(keys, parts) -> np.ndarray:
    """Vectorized one-part extension of derive_key.

    fold_keys(derive_key(a, b), r) equals derive_key(a, b, r) elementwise,
    so arrays of per-replicate or per-root keys come out identical to the
    scalar derivation.
    """
    keys = np.asarray(keys, dtype=U64)
    parts = np.asarray(parts, dtype=U64)
    with np.errstate(over="ignore"):
        return _mix_array(_mix_array(keys ^ parts))


def tag_keys(keys: np.ndarray, tag: int) -> np.ndarray:
    """Split lineage keys into purpose-specific streams."""
    keys = np.asarray(keys, dtype=U64)
    with np.errstate(over="ignore"):
        return _mix_array(_mix_array(keys ^ U64(tag)))
