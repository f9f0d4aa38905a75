import numpy as np
import pytest

from collapsemc.noise import BLOCK_STEPS, PhiloxNoiseSource, derive_stream_key


def test_key_deterministic():
    a = derive_stream_key(42, "D1", 17)
    b = derive_stream_key(42, "D1", 17)
    assert a == b
    assert isinstance(a, tuple) and len(a) == 2
    assert all(0 <= k < 2**64 for k in a)


def test_key_documented_derivation():
    # independent re-derivation of the documented algorithm
    import hashlib
    digest = hashlib.sha256(b"collapsemc.v1|42|D1|17|").digest()
    expected = (int.from_bytes(digest[0:8], "little"),
                int.from_bytes(digest[8:16], "little"))
    assert derive_stream_key(42, "D1", 17) == expected


def test_no_collisions_desk_scale():
    seen = set()
    for k in range(1_000_000):
        seen.add(derive_stream_key(42, "D1", k))
        seen.add(derive_stream_key(42, "D2", k))
    assert len(seen) == 2_000_000


def test_master_seed_changes_every_key():
    for k in range(0, 1000, 37):
        assert derive_stream_key(1, "D1", k) != derive_stream_key(2, "D1", k)


def test_salt_changes_key():
    assert derive_stream_key(5, "D1", 0) != derive_stream_key(5, "D1", 0, salt="cont")


def test_key_input_validation():
    with pytest.raises(ValueError):
        derive_stream_key(5, "D1", -1)
    with pytest.raises(ValueError):
        derive_stream_key(2**64, "D1", 0)


def test_block_normals_deterministic_across_instances():
    key = derive_stream_key(9, "D1", 3)
    a = PhiloxNoiseSource().block_normals(key, 0)
    b = PhiloxNoiseSource().block_normals(key, 0)
    assert np.array_equal(a, b)
    assert a.shape == (BLOCK_STEPS,)


def test_block_normals_distinct_keys_and_blocks():
    src = PhiloxNoiseSource()
    k1 = derive_stream_key(9, "D1", 3)
    k2 = derive_stream_key(9, "D2", 3)
    assert not np.array_equal(src.block_normals(k1, 0), src.block_normals(k2, 0))
    assert not np.array_equal(src.block_normals(k1, 0), src.block_normals(k1, 1))


def test_partial_rows_match_full_block_prefix():
    src = PhiloxNoiseSource()
    key = derive_stream_key(11, "D1", 0)
    full = src.block_normals(key, 4)
    assert np.array_equal(src.block_normals(key, 4, rows=17), full[:17])
    assert np.array_equal(src.block_normals(key, 4, rows=BLOCK_STEPS), full)


def test_block_normals_moments():
    src = PhiloxNoiseSource()
    vals = np.concatenate([
        src.block_normals(derive_stream_key(1, "D1", k), 0) for k in range(100)])
    n = vals.size
    assert abs(vals.mean()) < 4.0 / np.sqrt(n)
    assert abs(vals.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)


def test_block_normals_validation():
    src = PhiloxNoiseSource()
    key = (1, 2)
    with pytest.raises(ValueError):
        src.block_normals(key, -1)
    with pytest.raises(ValueError):
        src.block_normals(key, 0, rows=0)
    with pytest.raises(ValueError):
        src.block_normals(key, 0, rows=BLOCK_STEPS + 1)
