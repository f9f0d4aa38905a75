import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from collapsemc.noise import (BLOCK_STEPS, RUN_INDEX_LIMIT, SPAN_MIN_FILL,
                              PhiloxNoiseSource, derive_stream_key)

# a window's words, one per Box-Muller pair, and the counter values they span
HALF = BLOCK_STEPS // 2
COUNTERS = HALF // 4

# the documented tail cut: |z| <= sqrt(-2 ln 2**-40)
Z_MAX = math.sqrt(80.0 * math.log(2.0))


def window_words(key, block, run):
    """The words of window `block` of run `run` on stream `key`, from a
    fresh Philox at counter (16 run, block, 0, 0)."""
    counter = np.array([run * COUNTERS, block, 0, 0], dtype=np.uint64)
    return Philox(key=np.array(key, dtype=np.uint64), counter=counter).random_raw(HALF)


def reference_transform(words):
    """float32 normals of one window's words through the documented
    transform: the radius from bits 63..24 of each word, the angle from
    bits 23..0, every operation in float32."""
    u = ((words >> np.uint64(24)) + np.uint64(1)).astype(np.float32) * np.float32(2.0 ** -40)
    radius = np.sqrt(np.float32(-2.0) * np.log(u))
    theta = (words & np.uint64(2**24 - 1)).astype(np.float32) * (np.float32(2.0 * np.pi)
                                                                 * np.float32(2.0 ** -24))
    return np.concatenate([radius * np.cos(theta), radius * np.sin(theta)])


def reference_window(key, block, run):
    """Window `block` of run `run` on stream `key` through the documented
    transform."""
    return reference_transform(window_words(key, block, run))


def radius32(n):
    """The float32 radius of u = n * 2**-40, n a float32 integer."""
    return np.sqrt(np.float32(-2.0) * np.log(np.float32(n) * np.float32(2.0 ** -40)))


def phi(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------

def test_key_deterministic():
    a = derive_stream_key(42, "D1")
    b = derive_stream_key(42, "D1")
    assert a == b
    assert isinstance(a, tuple) and len(a) == 2
    assert all(0 <= k < 2**64 for k in a)


def test_key_documented_derivation():
    # independent re-derivation of the documented algorithm
    for material, args in ((b"collapsemc.v2|42|D1|", (42, "D1")),
                           (b"collapsemc.v2|7|D2|grw", (7, "D2", "grw"))):
        digest = hashlib.sha256(material).digest()
        expected = (int.from_bytes(digest[0:8], "little"),
                    int.from_bytes(digest[8:16], "little"))
        assert derive_stream_key(*args) == expected


def test_keys_distinct_over_seed_detector_salt_grid():
    # decimal seeds that share digits, detector ids that are prefixes of one
    # another and salts that could run into the detector id all give
    # distinct keys, and no key word repeats
    seeds = [*range(0, 300), 1000, 2**63, 2**64 - 1]
    detectors = ["D1", "D2", "D", "D12", "1", ""]
    salts = ["", "grw", "2", "D1", "|"]
    keys = [derive_stream_key(s, d, salt) for s, d, salt in
            itertools.product(seeds, detectors, salts)]
    assert len(set(keys)) == len(keys)
    assert len({w for key in keys for w in key}) == 2 * len(keys)


def test_master_seed_changes_every_key():
    for det, salt in itertools.product(("D1", "D2"), ("", "grw")):
        assert derive_stream_key(1, det, salt) != derive_stream_key(2, det, salt)


def test_salt_changes_key():
    assert derive_stream_key(5, "D1") != derive_stream_key(5, "D1", salt="cont")


def test_key_input_validation():
    with pytest.raises(ValueError):
        derive_stream_key(-1, "D1")
    with pytest.raises(ValueError):
        derive_stream_key(2**64, "D1")
    # "D1|x" with no salt would spell the same string as "D1" with salt "x"
    with pytest.raises(ValueError, match=r"\|"):
        derive_stream_key(5, "D1|x")
    # 1.0 would hash "1.0" and True "True": a seed is an integer, and a
    # numpy integer is the seed it equals
    for bad in (1.0, True, False, np.float64(1.0), np.bool_(True)):
        with pytest.raises(TypeError, match="master_seed must be an integer"):
            derive_stream_key(bad, "D1")
    assert derive_stream_key(np.int64(1), "D1") == derive_stream_key(1, "D1")
    assert derive_stream_key(np.uint64(2**64 - 1), "D1") == derive_stream_key(2**64 - 1, "D1")


def test_key_ids_must_be_strings():
    # a detector id or salt is spelled into the key's string as it is, so
    # None, a number or bytes is refused rather than spelled
    for bad in (None, 1, b"D1"):
        with pytest.raises(TypeError, match="detector_id must be a str"):
            derive_stream_key(5, bad)
        with pytest.raises(TypeError, match="salt must be a str"):
            derive_stream_key(5, "D1", bad)


def test_key_ids_must_be_ascii():
    # the documented derivation hashes an ASCII string
    for bad in ("D\u00e9", "\u0394"):
        with pytest.raises(ValueError, match="detector_id must be ASCII"):
            derive_stream_key(5, bad)
        with pytest.raises(ValueError, match="salt must be ASCII"):
            derive_stream_key(5, "D1", bad)


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def test_block_normals_deterministic_across_instances():
    key = derive_stream_key(9, "D1")
    a = PhiloxNoiseSource().block_normals(key, 0, [3])
    b = PhiloxNoiseSource().block_normals(key, 0, [3])
    assert np.array_equal(a, b)
    assert a.shape == (BLOCK_STEPS,) and a.dtype == np.float32
    empty = PhiloxNoiseSource().block_normals(key, 0, [])
    assert empty.shape == (0,) and empty.dtype == np.float32


def test_block_normals_distinct_keys_and_blocks():
    src = PhiloxNoiseSource()
    k1 = derive_stream_key(9, "D1")
    k2 = derive_stream_key(9, "D2")
    base = src.block_normals(k1, 0, [3])
    assert not np.array_equal(base, src.block_normals(k2, 0, [3]))
    assert not np.array_equal(base, src.block_normals(k1, 1, [3]))
    assert not np.array_equal(base, src.block_normals(k1, 0, [4]))


def test_window_matches_reference_transform():
    keys = [(0, 0), (2**64 - 1, 2**63), derive_stream_key(3, "D2")]
    src = PhiloxNoiseSource()
    for key, block, run in itertools.product(keys, (0, 5, 2**64 - 1),
                                             (0, 1, 77, RUN_INDEX_LIMIT - 1)):
        got = src.block_normals(key, block, [run])
        assert np.array_equal(got, reference_window(key, block, run)), (key, block, run)


def test_transform_matches_scalar_math():
    # the documented transform in double-precision scalar math, which
    # differs from the float32 transform by float32 rounding only
    key, block, run = derive_stream_key(4, "D1"), 2, 9
    words = [int(w) for w in window_words(key, block, run)]
    got = PhiloxNoiseSource().block_normals(key, block, [run])
    np.testing.assert_allclose(got, _scalar_window(words), rtol=0, atol=2e-6)


def _scalar_window(words):
    """The documented transform of a window's words in double-precision
    scalar math."""
    expected = []
    for part in (math.cos, math.sin):
        for w in words:
            radius = math.sqrt(-2.0 * math.log(((w >> 24) + 1) * 2.0 ** -40))
            expected.append(radius * part(2.0 * math.pi * (w & (2**24 - 1)) * 2.0 ** -24))
    return expected


class _WordSource(PhiloxNoiseSource):
    """Transforms hand-built words in place of every Philox draw."""

    def __init__(self, words):
        super().__init__()
        self.words = np.array(words, dtype=np.uint64)

    def _draw(self, first_run, n_runs):
        assert n_runs * HALF == self.words.size
        return self.words.copy()


def test_word_bits_split_between_radius_and_angle():
    # word j of a window gives rows j and 64 + j: bits 63..24 set the
    # radius and bits 23..0 the angle, and neither field leaks into the other
    quarter = 2**22  # an angle of pi / 2
    special = [
        0,                            # radius at the tail cut, angle 0
        2**64 - 1,                    # u = 1: radius 0, whatever the angle
        2**24,                        # lowest radius bit: u = 2 * 2**-40, angle 0
        (2**40 - 1) << 24,            # u = 1 again, angle 0
        2**24 - 1,                    # radius at the cut, angle just short of 2 pi
        quarter,                      # radius at the cut, angle pi / 2
        (12345 << 24) | quarter,
    ]
    rng = np.random.default_rng(5)
    words = special + [int(w) for w in rng.integers(0, 2**64, HALF - len(special),
                                                     dtype=np.uint64)]
    got = _WordSource(words).block_normals((1, 2), 0, [0])
    assert got.dtype == np.float32
    assert np.array_equal(got, reference_transform(np.array(words, dtype=np.uint64)))
    cos_rows, sin_rows = got[:HALF], got[HALF:]
    assert cos_rows[0] == radius32(1) and sin_rows[0] == 0.0
    assert cos_rows[1] == 0.0 and sin_rows[1] == 0.0
    assert cos_rows[2] == radius32(2) and sin_rows[2] == 0.0
    assert cos_rows[3] == 0.0 and sin_rows[3] == 0.0
    assert cos_rows[4] == radius32(1)
    assert -1e-5 < sin_rows[4] < 0.0
    assert abs(cos_rows[5]) < 1e-6 and float(sin_rows[5]) == pytest.approx(Z_MAX, rel=1e-7)
    r = math.sqrt(-2.0 * math.log(12346 * 2.0 ** -40))
    assert abs(cos_rows[6]) < 1e-6 and float(sin_rows[6]) == pytest.approx(r, rel=1e-7)
    np.testing.assert_allclose(got, _scalar_window(words), rtol=0, atol=2e-6)


def test_u_rounds_to_one_at_the_top_of_the_radius_field():
    # in float32, (w >> 24) + 1 rounds to 2**40 from 2**40 - 2**15 up (the
    # midpoint ties to the even 2**40), so u = 1 and both rows of the pair
    # are 0: an atom at z = 0 of 2**15 + 1 of the 2**40 radius fields,
    # about 2**-25 per pair.  One field lower, u = 1 - 2**-24
    top = 2**40 - 2**15 - 1
    words = [top << 24, (top << 24) | 2**22, (top - 1) << 24]
    got = _WordSource(words + [0] * (HALF - len(words))).block_normals((1, 2), 0, [0])
    assert got[0] == got[HALF] == got[1] == got[HALF + 1] == 0.0
    assert got[2] == radius32(2**40 - 2**16) and 0.0 < got[2] < 4e-4


def test_run_lists_match_per_run_draws():
    # gapped, reordered and repeated run lists, and index arrays of either
    # integer kind, give each run its own window bit for bit
    key = derive_stream_key(11, "D1")
    src = PhiloxNoiseSource()
    for runs in ([0, 1, 2, 3], [5, 9, 10, 11, 2], list(range(20, 0, -1)),
                 [7, 8, 8, 9, 40, 41], np.array([3, 4, 6], dtype=np.uint64),
                 np.arange(100, 400, 3)):
        got = src.block_normals(key, 4, runs)
        per_run = np.concatenate([src.block_normals(key, 4, [k]) for k in runs])
        assert np.array_equal(got, per_run), runs


class _DrawSpy(PhiloxNoiseSource):
    """Records the (first run, run count) and the words of every Philox draw."""

    def __init__(self):
        super().__init__()
        self.draws = []
        self.words = []

    def _draw(self, first_run, n_runs):
        self.draws.append((int(first_run), n_runs))
        words = super()._draw(first_run, n_runs)
        self.words.append(words)
        return words


def _per_run(key, block, runs):
    return np.concatenate([reference_window(key, block, int(k)) for k in runs])


def test_dense_run_lists_take_one_draw_over_their_span():
    # a list with entries for at least a quarter of the indices from its
    # least to its greatest is drawn in one call over that span, whatever
    # its order and repeats, and gives each entry its own window
    assert SPAN_MIN_FILL == 0.25
    key = derive_stream_key(12, "D2")
    for runs in ([4], [10, 11, 12], [12, 11, 10], [0, 3], [3, 0, 0], [0, 7], [9, 5, 6, 12],
                 [50, 20, 41, 35, 22, 27, 44, 29], np.array([8, 1, 8, 8], dtype=np.uint64),
                 np.arange(600, 100, -3)):
        src = _DrawSpy()
        got = src.block_normals(key, 3, runs)
        lo, hi = int(min(runs)), int(max(runs))
        assert src.draws == [(lo, hi - lo + 1)], runs
        assert np.array_equal(got, _per_run(key, 3, runs)), runs


def test_sparse_run_lists_take_one_draw_per_segment():
    # two runs 9 apart, or 0 and the last run index, fill under a quarter
    # of their span, so each segment of consecutive indices takes a call
    key = derive_stream_key(12, "D2")
    last = RUN_INDEX_LIMIT - 1
    for runs, segments in (([0, 8], [(0, 1), (8, 1)]),
                           ([30, 31, 0, 1, 2, 90], [(30, 2), (0, 3), (90, 1)]),
                           ([0, last], [(0, 1), (last, 1)]),
                           ([last, last - 1, 7], [(last, 1), (last - 1, 1), (7, 1)])):
        src = _DrawSpy()
        got = src.block_normals(key, 1, runs)
        assert src.draws == segments, runs
        assert np.array_equal(got, _per_run(key, 1, runs)), runs


@settings(max_examples=60, deadline=None)
@given(runs=st.lists(st.integers(0, 300), min_size=1, max_size=40),
       offset=st.sampled_from([0, 2**40, RUN_INDEX_LIMIT - 301]))
def test_draws_stay_within_four_times_the_requested_words(runs, offset):
    # any run list is drawn within 4 x its own words, in at most as many
    # calls as it has segments of consecutive indices, and matches its
    # per-run windows bit for bit, up to the last run index
    runs = [offset + k for k in runs]
    key = derive_stream_key(13, "D1")
    src = _DrawSpy()
    got = src.block_normals(key, 2, runs)
    drawn = sum(w.size for w in src.words)
    assert drawn == sum(n for _, n in src.draws) * HALF
    assert drawn <= 4 * len(runs) * HALF
    assert len(src.draws) <= 1 + sum(b - a != 1 for a, b in zip(runs, runs[1:]))
    assert got.shape == (len(runs) * BLOCK_STEPS,)
    assert np.array_equal(got, _per_run(key, 2, runs))


def test_span_ending_at_the_last_run_index():
    # a dense span that ends at the last run index reads the counter up to
    # 2**64 - 16, as the single run there does
    key = derive_stream_key(14, "D1")
    last = RUN_INDEX_LIMIT - 1
    runs = [last, last - 5, last - 2, last - 3]
    src = _DrawSpy()
    got = src.block_normals(key, 7, runs)
    assert src.draws == [(last - 5, 6)]
    assert [int(w) for w in src._bitgen.state["state"]["counter"]] == [2**64 - 16, 7, 0, 0]
    assert np.array_equal(got, _per_run(key, 7, runs))


def test_block_normals_validation():
    src = PhiloxNoiseSource()
    key = (1, 2)
    # block index: the second counter word
    assert src.block_normals(key, 0, [0]).shape == (BLOCK_STEPS,)
    assert src.block_normals(key, 2**64 - 1, [0]).shape == (BLOCK_STEPS,)
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match=str(bad)):
            src.block_normals(key, bad, [0])
    # 1.5 and True would both read window 1: a block index is an integer,
    # and a numpy integer is the window it equals
    for bad in (1.5, 1.0, True, np.float32(1.0), np.bool_(True)):
        with pytest.raises(TypeError, match="block_index must be an integer"):
            src.block_normals(key, bad, [0])
    assert np.array_equal(src.block_normals(key, np.int64(1), [0]),
                          src.block_normals(key, 1, [0]))
    # run index: the last run whose window ends inside the low counter word
    assert RUN_INDEX_LIMIT == 2**60 - 1
    last = RUN_INDEX_LIMIT - 1
    src.block_normals(key, 3, [last])
    assert [int(w) for w in src._bitgen.state["state"]["counter"]] == [2**64 - 16, 3, 0, 0]
    for bad in (-1, RUN_INDEX_LIMIT, 2**63, 2**64):
        with pytest.raises(ValueError, match=f"got {bad}"):
            src.block_normals(key, 3, [0, bad])
    with pytest.raises(ValueError, match=f"got {RUN_INDEX_LIMIT}"):
        src.block_normals(key, 3, np.array([last, RUN_INDEX_LIMIT], dtype=np.uint64))
    # the next run's window would carry into the block index word
    state = src._bitgen.state
    state["state"]["counter"] = [RUN_INDEX_LIMIT * COUNTERS, 3, 0, 0]
    state["buffer_pos"] = 4
    src._bitgen.state = state
    src._bitgen.random_raw(HALF)
    assert [int(w) for w in src._bitgen.state["state"]["counter"]] == [0, 4, 0, 0]
    with pytest.raises(ValueError, match="1-D"):
        src.block_normals(key, 0, np.array([[0, 1]]))
    for bad in ([0.5], np.array([0.5]), [[0, 1]]):
        with pytest.raises(TypeError):
            src.block_normals(key, 0, bad)
    # a bool is not a run index: True does not read run 1's window, as a
    # bool array does not
    for bad in ([True], [0, False], np.array([True])):
        with pytest.raises(TypeError, match="integers"):
            src.block_normals(key, 0, bad)


def _state_words(bitgen):
    st = bitgen.state
    return ([int(w) for w in st["state"]["counter"]], [int(w) for w in st["state"]["key"]],
            [int(w) for w in st["buffer"]], st["buffer_pos"], st["has_uint32"], st["uinteger"])


def test_reused_state_matches_fresh_generators():
    # one source drawn in an interleaved order must match, draw by draw, a
    # fresh generator at that key and counter, in words, values and the
    # state left behind: window b of run k is the 64 words of a fresh
    # Philox at counter (16 k, b, 0, 0).  Words and a uint32 drawn from the
    # shared bit generator between calls leave its output buffer part used
    # and a cached word, and neither may carry over into the next draw
    keys = [(0, 0), (2**64 - 1, 2**63), (2**63 + 5, 12345), derive_stream_key(3, "D2")]
    src = _DrawSpy()
    for runs in ([7], [1, 2, 3]):
        for block in (0, 3, 2**40):
            for key in keys:
                got = src.block_normals(key, block, runs)
                assert np.array_equal(got, np.concatenate(
                    [reference_window(key, block, k) for k in runs])), (key, block, runs)
                words = src.words[-1].reshape(len(runs), HALF)
                for k, run_words in zip(runs, words):
                    fresh = Philox(key=np.array(key, dtype=np.uint64),
                                   counter=np.array([16 * k, block, 0, 0], dtype=np.uint64))
                    assert np.array_equal(run_words, fresh.random_raw(64)), (key, block, k)
                counter = np.array([runs[0] * COUNTERS, block, 0, 0], dtype=np.uint64)
                fresh = Philox(key=np.array(key, dtype=np.uint64), counter=counter)
                fresh.random_raw(len(runs) * HALF)
                assert _state_words(src._bitgen) == _state_words(fresh)
                src._bitgen.random_raw(3)
                Generator(src._bitgen).integers(0, 2**32, dtype=np.uint32)


# ---------------------------------------------------------------------------
# distribution
# ---------------------------------------------------------------------------

def _sample(n_runs, seed=1, chunk=4096):
    """n_runs windows of block 0, in chunks, as one (runs, BLOCK_STEPS) array."""
    key = derive_stream_key(seed, "D1")
    src = PhiloxNoiseSource()
    return np.concatenate([src.block_normals(key, 0, np.arange(lo, min(lo + chunk, n_runs)))
                           for lo in range(0, n_runs, chunk)]).reshape(n_runs, BLOCK_STEPS)


def test_block_normals_moments():
    vals = _sample(800).ravel()
    n = vals.size
    assert np.abs(vals).max() <= Z_MAX
    assert abs(vals.mean()) < 4.5 / np.sqrt(n)
    assert abs(vals.var() - 1.0) < 4.5 * np.sqrt(2.0 / n)


def test_normals_follow_the_normal_law():
    # 2**22 normals: a binned chi-square against Phi over 0.25-sigma bins
    # out to 4 sigma, the tail counts beyond 3, 4 and 5 sigma, and the
    # documented bound |z| <= sqrt(80 ln 2)
    z = _sample(2**15).ravel()
    n = z.size
    assert n >= 4_000_000
    assert np.abs(z).max() <= Z_MAX
    inner = np.arange(-16, 17) * 0.25
    edges = np.concatenate([[-np.inf], inner, [np.inf]])
    counts = np.histogram(z, bins=edges)[0]
    expected = n * np.diff([0.0, *(phi(e) for e in inner), 1.0])
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    dof = len(counts) - 1
    assert abs(chi2 - dof) < 4.5 * math.sqrt(2.0 * dof), chi2
    for t in (3.0, 4.0, 5.0):
        mean = n * 2.0 * (1.0 - phi(t))
        tail = int(np.count_nonzero(np.abs(z) > t))
        assert abs(tail - mean) < 4.5 * math.sqrt(mean), (t, tail, mean)


def test_rows_and_runs_are_uncorrelated():
    # row j and row 64 + j share their radius, and adjacent runs share
    # counter neighbours; both pairs must be uncorrelated
    z = _sample(2**13)

    def corr(x, y):
        return float(np.corrcoef(x.ravel(), y.ravel())[0, 1]), x.size

    for r, n in (corr(z[:, :HALF], z[:, HALF:]), corr(z[0::2], z[1::2]),
                 corr(z[:, :HALF] ** 2, z[:, HALF:] ** 2)):
        assert abs(r) < 4.5 / math.sqrt(n), r
