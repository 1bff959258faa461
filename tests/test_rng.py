"""Counter-stream determinism and distributional sanity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from flowsilt import rng


def test_words_are_pure_functions_of_key_and_counter():
    key = np.array([rng.derive_key(7, 3)], dtype=np.uint64)
    a = rng.words(key, 100, 16)
    b = rng.words(key, 100, 16)
    assert np.array_equal(a, b)


def test_words_windows_agree_on_overlap():
    key = np.array([rng.derive_key(42)], dtype=np.uint64)
    wide = rng.words(key, 0, 32)
    shifted = rng.words(key, 10, 22)
    assert np.array_equal(wide[:, 10:], shifted)


def test_derive_key_order_sensitive():
    assert rng.derive_key(1, 2) != rng.derive_key(2, 1)
    assert rng.derive_key(0) != rng.derive_key()


def test_fold_keys_matches_scalar_derivation():
    base = rng.derive_key(5, 9)
    extended = rng.fold_keys(np.array([base], dtype=np.uint64), np.array([13], dtype=np.uint64))
    assert int(extended[0]) == rng.derive_key(5, 9, 13)


def test_mix_array_matches_scalar_mixer():
    xs = np.array([0, 1, 2**63, 0xDEADBEEF], dtype=np.uint64)
    with np.errstate(over="ignore"):
        arr = rng._mix_array(xs.copy())
    for x, m in zip(xs, arr):
        assert rng.mix64(int(x)) == int(m)


def test_uniforms_strictly_inside_unit_interval():
    keys = np.array([rng.derive_key(s) for s in range(32)], dtype=np.uint64)
    u = rng.uniforms(keys, 0, 512)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_uniform_mean_and_variance():
    keys = np.array([rng.derive_key(1000 + s) for s in range(64)], dtype=np.uint64)
    u = rng.uniforms(keys, 0, 4096).ravel()
    m = u.size
    assert abs(u.mean() - 0.5) < 4.0 * np.sqrt(1.0 / 12.0 / m)
    assert abs(u.var() - 1.0 / 12.0) < 5e-4


def test_normals_moments():
    keys = np.array([rng.derive_key(2, s) for s in range(64)], dtype=np.uint64)
    z = rng.normals(keys, 0, 4096).ravel()
    m = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(m)
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / m)
    # fourth standardized moment of a normal is 3
    assert abs((z**4).mean() - 3.0) < 5.0 * np.sqrt(96.0 / m)


def test_normals_consume_declared_stride():
    key = np.array([rng.derive_key(77)], dtype=np.uint64)
    odd = rng.normals(key, 0, 5)
    even = rng.normals(key, 0, 6)
    assert rng.normal_stride(5) == 6
    assert np.array_equal(odd[0], even[0, :5])
    # the draw after an odd-length block starts at the stride boundary
    nxt = rng.normals(key, rng.normal_stride(5), 2)
    cont = rng.normals(key, 6, 2)
    assert np.array_equal(nxt, cont)


@pytest.mark.parametrize("counter", [0, 7, 123456])
def test_odd_normals_are_a_prefix_of_the_next_even_draw(counter):
    keys = np.array([rng.derive_key(3, s) for s in range(1000)],
                    dtype=np.uint64)
    for odd in (1, 3):
        got = rng.normals(keys, counter, odd)
        want = rng.normals(keys, counter, odd + 1)[:, :odd]
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_coin_flips_fair_and_deterministic():
    keys = np.array([rng.derive_key(3, s) for s in range(20000)], dtype=np.uint64)
    flips = rng.coin_flips(keys, 17)
    assert np.array_equal(flips, rng.coin_flips(keys, 17))
    p = flips.mean()
    assert abs(p - 0.5) < 4.0 * np.sqrt(0.25 / flips.size)


def test_split_keys_decorrelated():
    keys = np.array([rng.derive_key(9, s) for s in range(1024)], dtype=np.uint64)
    c0, c1 = rng.split_keys(keys)
    pool = np.concatenate([keys, c0, c1])
    assert len(np.unique(pool)) == pool.size


def test_tag_keys_separates_purposes():
    keys = np.array([rng.derive_key(4)], dtype=np.uint64)
    motion = rng.tag_keys(keys, rng.MOTION_TAG)
    branch = rng.tag_keys(keys, rng.BRANCH_TAG)
    assert motion[0] != branch[0]
    u_m = rng.uniforms(motion, 0, 64)
    u_b = rng.uniforms(branch, 0, 64)
    assert not np.allclose(u_m, u_b)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_mix64_stays_in_range(x):
    y = rng.mix64(x)
    assert 0 <= y < 2**64


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=4))
def test_derive_key_deterministic(parts):
    assert rng.derive_key(*parts) == rng.derive_key(*parts)
