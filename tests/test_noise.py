import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from collapsemc.noise import (BLOCK_STEPS, LEVELS, MAX_GAP, RUN_INDEX_LIMIT, PhiloxNoiseSource,
                              _levels, derive_stream_key)

# a window's words, 4 bits a step, and the counter values they span
WORDS = BLOCK_STEPS // 16
COUNTERS = WORDS // 4

# the documented law: level index i stands for LEVELS[i]
A = math.sqrt((8.0 - math.sqrt(14.0)) / 5.0)
B = math.sqrt(8.0 - 4.0 * A * A)


def window_words(key, block, run):
    """The words of window `block` of run `run` on stream `key`, from a
    fresh Philox at counter (2 run, block, 0, 0)."""
    counter = np.array([run * COUNTERS, block, 0, 0], dtype=np.uint64)
    return Philox(key=np.array(key, dtype=np.uint64), counter=counter).random_raw(WORDS)


def reference_transform(words):
    """Level indices of one window's words in the documented nibble order:
    byte j of the window is bits 8 (j % 8) ... of word j // 8, row j its
    low nibble and row 64 + j its high nibble, so row j reads nibble
    2 (j % 8) of word j // 8 and row 64 + j the nibble after it."""
    nibbles = (words[:, None] >> (np.arange(16, dtype=np.uint64) * np.uint64(4))) & np.uint64(15)
    return np.concatenate([nibbles[:, 0::2].ravel(), nibbles[:, 1::2].ravel()]).astype(np.uint8)


def reference_window(key, block, run):
    """Window `block` of run `run` on stream `key` through the documented
    nibble order."""
    return reference_transform(window_words(key, block, run))


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
    assert a.shape == (BLOCK_STEPS,) and a.dtype == np.uint8
    empty = PhiloxNoiseSource().block_normals(key, 0, [])
    assert empty.shape == (0,) and empty.dtype == np.uint8


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
    # the documented nibble order in Python integer arithmetic: row t reads
    # byte t % 64 of the window, low nibble for t < 64, high nibble after
    key, block, run = derive_stream_key(4, "D1"), 2, 9
    words = [int(w) for w in window_words(key, block, run)]
    got = PhiloxNoiseSource().block_normals(key, block, [run])
    assert got.tolist() == _scalar_window(words)


def _scalar_window(words):
    """The documented nibble order of a window's words in Python integers."""
    window = []
    for t in range(BLOCK_STEPS):
        j = t % (BLOCK_STEPS // 2)
        byte = (words[j // 8] >> (8 * (j % 8))) & 0xFF
        window.append(byte & 0xF if t < BLOCK_STEPS // 2 else byte >> 4)
    return window


class _WordSource(PhiloxNoiseSource):
    """Splits hand-built words in place of every Philox draw."""

    def __init__(self, words):
        super().__init__()
        self.words = np.array(words, dtype=np.uint64)

    def _draw(self, first_run, n_runs):
        assert n_runs * WORDS == self.words.size
        return self.words.copy()


def test_nibble_layout_of_a_window():
    # word m's byte b is byte 8 m + b of the window: its low nibble gives
    # row 8 m + b and its high nibble row 64 + 8 m + b, and no nibble
    # leaks into another row
    words = [0] * WORDS
    words[0] = 0x0000_0000_0000_00F1   # byte 0: row 0 reads 1, row 64 reads 15
    words[1] = 0x5A00_0000_0000_0000   # byte 15: row 15 reads 10, row 79 reads 5
    words[7] = 0x3000_0000_0000_0C00   # byte 57: row 57 reads 12; byte 63: row 127 reads 3
    got = _WordSource(words).block_normals((1, 2), 0, [0])
    assert got.dtype == np.uint8 and got.shape == (BLOCK_STEPS,)
    want = np.zeros(BLOCK_STEPS, dtype=np.uint8)
    want[[0, 64, 15, 79, 57, 127]] = [1, 15, 10, 5, 12, 3]
    assert np.array_equal(got, want)
    # every word of all ones reads 15 everywhere, and random words match
    # the reference on two runs drawn at once
    assert (_WordSource([2**64 - 1] * WORDS).block_normals((1, 2), 0, [0]) == 15).all()
    rng = np.random.default_rng(5)
    words = rng.integers(0, 2**64, 2 * WORDS, dtype=np.uint64)
    got = _WordSource(words).block_normals((1, 2), 0, [4, 5])
    assert np.array_equal(got, np.concatenate([reference_transform(words[:WORDS]),
                                               reference_transform(words[WORDS:])]))


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


def _pieces(runs):
    """The documented cut of a run list: (first run, span) of each piece,
    a new piece wherever the next index repeats, steps back or skips more
    than MAX_GAP runs."""
    runs = [int(k) for k in runs]
    starts = [0, *(i for i in range(1, len(runs)) if not 0 < runs[i] - runs[i - 1] <= MAX_GAP + 1)]
    ends = [*starts[1:], len(runs)]
    return [(runs[a], runs[b - 1] - runs[a] + 1) for a, b in zip(starts, ends)]


def _check_pieces(key, block, runs):
    """Draw runs through a _DrawSpy and check the piece rule: one draw per
    piece over its span, at most MAX_GAP + 1 times the requested words
    drawn, and every run's window that of the run drawn alone."""
    src = _DrawSpy()
    got = src.block_normals(key, block, runs)
    assert src.draws == _pieces(runs), runs
    drawn = sum(w.size for w in src.words)
    assert drawn == sum(n for _, n in src.draws) * WORDS
    assert drawn <= (MAX_GAP + 1) * len(runs) * WORDS
    assert got.shape == (len(runs) * BLOCK_STEPS,)
    assert np.array_equal(got, _per_run(key, block, runs)), runs
    return src


def test_run_lists_are_drawn_in_pieces():
    # ascending runs a gap of at most MAX_GAP apart share a draw over
    # their span, dead runs included; a repeat, a descent or a wider gap
    # starts a new piece
    assert MAX_GAP == 63
    key = derive_stream_key(12, "D2")
    for runs, pieces in (([4], [(4, 1)]),
                         ([10, 11, 12], [(10, 3)]),
                         ([12, 11, 10], [(12, 1), (11, 1), (10, 1)]),
                         ([0, 3], [(0, 4)]),
                         ([3, 0, 0], [(3, 1), (0, 1), (0, 1)]),
                         ([0, 7], [(0, 8)]),
                         ([0, 8], [(0, 9)]),
                         ([9, 5, 6, 12], [(9, 1), (5, 8)]),
                         ([0, 64, 129], [(0, 65), (129, 1)]),
                         ([30, 31, 0, 1, 2, 90], [(30, 2), (0, 3), (90, 1)]),
                         ([50, 20, 41, 35, 22, 27, 44, 29],
                          [(50, 1), (20, 22), (35, 1), (22, 23), (29, 1)]),
                         (np.array([8, 1, 8, 8], dtype=np.uint64), [(8, 1), (1, 8), (8, 1)]),
                         (np.arange(600, 100, -3), [(k, 1) for k in range(600, 100, -3)]),
                         (np.arange(100, 400, 3), [(100, 298)])):
        src = _check_pieces(key, 3, runs)
        assert src.draws == pieces, runs


def test_sparse_run_lists_take_one_draw_per_segment():
    # runs more than MAX_GAP dead runs apart, or 0 and the last run index
    # in either order, take one draw per segment of consecutive indices,
    # never one over the 2**63 windows between them
    key = derive_stream_key(12, "D2")
    last = RUN_INDEX_LIMIT - 1
    for runs, segments in (([0, 65], [(0, 1), (65, 1)]),
                           ([30, 31, 0, 1, 2, 90], [(30, 2), (0, 3), (90, 1)]),
                           ([0, last], [(0, 1), (last, 1)]),
                           ([last, 0], [(last, 1), (0, 1)]),
                           ([last, last - 1, 7], [(last, 1), (last - 1, 1), (7, 1)])):
        src = _check_pieces(key, 1, runs)
        assert src.draws == segments, runs


def test_span_ending_at_the_last_run_index():
    # a piece that ends at the last run index reads the counter up to
    # 2**64 - 2, as the single run there does; the same runs out of order
    # are cut at each descent
    key = derive_stream_key(14, "D1")
    last = RUN_INDEX_LIMIT - 1
    for runs, pieces in (([last], [(last, 1)]),
                         ([last - 5, last - 3, last - 2, last], [(last - 5, 6)]),
                         ([last, last - 5, last - 2, last - 3],
                          [(last, 1), (last - 5, 4), (last - 3, 1)])):
        src = _check_pieces(key, 7, runs)
        assert src.draws == pieces, runs
        if runs[-1] == last:
            assert [int(w) for w in src._bitgen.state["state"]["counter"]] == [2**64 - 2, 7, 0, 0]


@settings(max_examples=60, deadline=None)
@given(runs=st.lists(st.integers(0, 300), min_size=1, max_size=40),
       offset=st.sampled_from([0, 2**40, RUN_INDEX_LIMIT - 301]))
def test_any_run_list_follows_the_piece_rule(runs, offset):
    # any run list, repeats, descents and wide gaps among its entries, up
    # to the last run index, takes one draw per piece within MAX_GAP + 1
    # times its own words, and matches its per-run windows bit for bit
    _check_pieces(derive_stream_key(13, "D1"), 2, [offset + k for k in runs])


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
    assert RUN_INDEX_LIMIT == 2**63 - 1
    last = RUN_INDEX_LIMIT - 1
    src.block_normals(key, 3, [last])
    assert [int(w) for w in src._bitgen.state["state"]["counter"]] == [2**64 - 2, 3, 0, 0]
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
    src._bitgen.random_raw(WORDS)
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
    # state left behind: window b of run k is the 8 words of a fresh
    # Philox at counter (2 k, b, 0, 0).  Words and a uint32 drawn from the
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
                words = src.words[-1].reshape(len(runs), WORDS)
                for k, run_words in zip(runs, words):
                    fresh = Philox(key=np.array(key, dtype=np.uint64),
                                   counter=np.array([2 * k, block, 0, 0], dtype=np.uint64))
                    assert np.array_equal(run_words, fresh.random_raw(WORDS)), (key, block, k)
                counter = np.array([runs[0] * COUNTERS, block, 0, 0], dtype=np.uint64)
                fresh = Philox(key=np.array(key, dtype=np.uint64), counter=counter)
                fresh.random_raw(len(runs) * WORDS)
                assert _state_words(src._bitgen) == _state_words(fresh)
                src._bitgen.random_raw(3)
                Generator(src._bitgen).integers(0, 2**32, dtype=np.uint32)


# ---------------------------------------------------------------------------
# distribution
# ---------------------------------------------------------------------------

def _sample(n_runs, seed=1, chunk=4096):
    """n_runs windows of block 0, in chunks, as one (runs, BLOCK_STEPS)
    array of level indices."""
    key = derive_stream_key(seed, "D1")
    src = PhiloxNoiseSource()
    return np.concatenate([src.block_normals(key, 0, np.arange(lo, min(lo + chunk, n_runs)))
                           for lo in range(0, n_runs, chunk)]).reshape(n_runs, BLOCK_STEPS)


def test_levels_match_the_normal_moments():
    # the 16 equally likely levels: 0 six times, +-a four times and +-b
    # once each, in increasing order, odd under i -> 15 - i; E zeta^k is
    # the standard normal's 0, 1, 0, 3, 0 for k = 1 ... 5
    assert LEVELS.dtype == np.float64 and LEVELS.shape == (16,)
    assert LEVELS.tolist() == [-B, *[-A] * 4, *[0.0] * 6, *[A] * 4, B]
    assert A * A == pytest.approx(0.8517, abs=1e-4) and B * B == pytest.approx(4.593, abs=1e-3)
    assert (np.diff(LEVELS) >= 0).all() and (LEVELS[::-1] == -LEVELS).all()
    for k, normal in zip(range(1, 6), (0.0, 1.0, 0.0, 3.0, 0.0)):
        assert abs(math.fsum(LEVELS ** k) / 16 - normal) < 1e-12, k
    # the sixth moment is where the law leaves the normal's 15
    assert abs(math.fsum(LEVELS ** 6) / 16 - 15.0) > 1.0
    assert not LEVELS.flags.writeable


def test_lane_split_matches_the_byte_split():
    # _levels splits the nibbles on 64-bit lanes; it must give the bytes
    # of the byte-wise split: a window's words as 64 little-endian octets
    # c, row j = c_j & 15 and row 64 + j = c_j >> 4
    def byte_split(words):
        octets = words.astype("<u8").view(np.uint8).reshape(-1, BLOCK_STEPS // 2)
        return np.concatenate([octets & 15, octets >> 4], axis=1).ravel()

    rng = np.random.default_rng(37)
    for words in (np.zeros(4 * WORDS, dtype=np.uint64),
                  np.full(4 * WORDS, 2**64 - 1, dtype=np.uint64),
                  rng.integers(0, 2**64, size=10**4, dtype=np.uint64, endpoint=False)):
        got = _levels(words)
        assert got.dtype == np.uint8 and got.shape == (words.size * 16,)
        assert np.array_equal(got, byte_split(words))
    assert (_levels(np.full(WORDS, 2**64 - 1, dtype=np.uint64)) == 15).all()


def test_block_normals_moments():
    vals = LEVELS[_sample(800).ravel()]
    n = vals.size
    assert np.abs(vals).max() <= B
    assert abs(vals.mean()) < 4.5 / np.sqrt(n)
    assert abs(vals.var() - 1.0) < 4.5 * np.sqrt(2.0 / n)


def test_levels_follow_the_five_point_law():
    # 2**22 level indices: a chi-square of the 16 index counts against 1/16
    # each, and of the five values' counts against 6/16, 4/16 and 1/16
    i = _sample(2**15).ravel()
    n = i.size
    assert n == 2**22 and i.dtype == np.uint8 and i.max() <= 15
    counts = np.bincount(i, minlength=16)
    chi2 = float(np.sum((counts - n / 16) ** 2 / (n / 16)))
    assert abs(chi2 - 15) < 4.5 * math.sqrt(2.0 * 15), chi2
    values, counts = np.unique(LEVELS[i], return_counts=True)
    assert values.tolist() == [-B, -A, 0.0, A, B]
    expected = n * np.array([1, 4, 6, 4, 1]) / 16
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert abs(chi2 - 4) < 4.5 * math.sqrt(2.0 * 4), chi2


def test_rows_and_runs_are_uncorrelated():
    # row j and row 64 + j share a byte, and adjacent runs share counter
    # neighbours; both pairs must be uncorrelated, and the two nibbles of
    # a byte independent: a chi-square of their 256 joint counts
    i = _sample(2**13)
    z = LEVELS[i]

    def corr(x, y):
        return float(np.corrcoef(x.ravel(), y.ravel())[0, 1]), x.size

    half = BLOCK_STEPS // 2
    for r, n in (corr(z[:, :half], z[:, half:]), corr(z[0::2], z[1::2]),
                 corr(z[:, :half] ** 2, z[:, half:] ** 2)):
        assert abs(r) < 4.5 / math.sqrt(n), r
    pairs = np.bincount((i[:, :half].astype(np.intp) * 16 + i[:, half:]).ravel(), minlength=256)
    expected = pairs.sum() / 256
    chi2 = float(np.sum((pairs - expected) ** 2 / expected))
    assert abs(chi2 - 255) < 4.5 * math.sqrt(2.0 * 255), chi2
