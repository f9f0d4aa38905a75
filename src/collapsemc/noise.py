"""Reproducible, counter-addressed Gaussian noise streams.

Every random number consumed by a simulation run is addressed, not drawn
sequentially from shared state.  A noise stream has a 128-bit key derived
from (master seed, detector, salt) with SHA-256 (see
``derive_stream_key``); a run reads its stream at its *stream address*
``(k0, k1, run_index)``, and a value is identified by (address, step).
Concurrent trajectories never coordinate, and a rerun of any single
trajectory reproduces its noise exactly, whatever else executed.

Following Random123 (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC '11), the stream sits in the Philox key and the position in
the counter.  Philox4x64-10 yields four 64-bit words per counter value,
and a window of ``BLOCK_STEPS`` steps takes ``BLOCK_STEPS / 2`` words,
one per Box-Muller pair, so 16 counter values.  Window b of run k is the
words numpy's ``Philox`` yields from key (k0, k1) and counter
(16 k, b, 0, 0) with an empty buffer; numpy steps the counter before each
block, so run k reads low counter words 16 k + 1 ... 16 k + 16.
Consecutive runs are adjacent in the counter, so one ``random_raw`` call
draws a window for every run index in a span.  A list of run indices is
drawn over the whole span from its least to its greatest index in one
call when its entries number at least ``SPAN_MIN_FILL`` (a quarter) of
that span, and the requested runs' words are picked out of the draw; a
sparser list takes one call per segment of consecutive indices.  So a
draw never holds more than four times the requested runs' words, however
gapped the list is.

Each run-window of h = BLOCK_STEPS / 2 words w_j becomes ``BLOCK_STEPS``
float32 standard normals by a fixed-consumption Box-Muller transform, one
word per pair: the high 40 bits give the radius and the low 24 bits the
angle,

    u_j = float32((w_j >> 24) + 1) * 2**-40
    R_j = sqrt(-2 ln(u_j))
    theta_j = float32(w_j & (2**24 - 1)) * c                (c = float32(2 pi) * 2**-24)

every operation in float32, and rows j and h + j of the window are
R_j cos(theta_j) and R_j sin(theta_j).  The normals are random inputs to
a float32 step kernel and need no float64 precision, and float32 ``log``,
``sqrt``, ``sin`` and ``cos`` have SIMD loops in numpy at several times
the throughput of the float64 ones.  The integers are converted through
a signed view, which rounds as the unsigned conversion does and costs
less.  The angle field converts exactly.  The radius field has 41 bits
after the + 1 and float32 holds 24, so it is rounded to nearest:

- The least uniform is exactly 2**-40, so |z| <= sqrt(80 ln 2)
  ~= 7.45 up to the float32 rounding of the radius: the tails are cut at
  7.45 sigma, beyond which a normal falls with probability about 1e-13.
- From 2**40 - 2**15 up (the midpoint ties to the even 2**40) the field
  rounds to 2**40, so u_j = 1 and both normals of the pair are 0.  That
  is an atom at z = 0 of 2**15 + 1 of the 2**40 fields, about 2**-25 per
  pair.

The Philox words are fixed by the algorithm.  The normals also depend on
numpy's ``log``, ``sin`` and ``cos``, whose last bits vary with the numpy
build and with the CPU features its loops dispatch on, and so do the
float32 ``sinh`` and ``arcsinh`` the step kernel applies to them (see
``dynamics``).  So the records are deterministic within one numpy build
on one CPU feature set, which is the reproducibility level this package
promises; the manifest of an ensemble records both.
"""

from __future__ import annotations

import hashlib
import numbers

import numpy as np
from numpy.random import Philox

# A stream is consumed in fixed windows of this many steps, and any window
# can be produced without generating its predecessors.  A run draws every
# window it enters, so a window is kept to about one typical run at the
# scenario step size (experiment.TARGET_GAMMA_DT, which also gives the
# accuracy at that step): a frame-0 run at q0 0.5 takes about 140 steps,
# a frame-A run about 280.
BLOCK_STEPS = 128

# Philox words a run-window takes: one per Box-Muller pair
_WORDS_PER_WINDOW = BLOCK_STEPS // 2

# Philox4x64 counter values a window spans: one per four words
_COUNTERS_PER_WINDOW = _WORDS_PER_WINDOW // 4

# run k reads low counter words up to 16 k + 16, which must not carry into
# the block index word: k < 2**60 - 1
RUN_INDEX_LIMIT = 2**64 // _COUNTERS_PER_WINDOW - 1

# A run list whose entries number at least this share of the index span
# it covers is drawn over the whole span, dead runs included, in one call;
# 1/8 and 1/2 measured the same.  The draw then holds at most
# 1 / SPAN_MIN_FILL times the requested runs' words.
SPAN_MIN_FILL = 0.25

_U40 = np.float32(2.0 ** -40)
_ANGLE_MASK = np.uint64(2**24 - 1)
_ANGLE_STEP = np.float32(2.0 * np.pi) * np.float32(2.0 ** -24)

_KEY_PREFIX = b"collapsemc.v2"

StreamKey = tuple[int, int]


def derive_stream_key(master_seed: int, detector_id: str, salt: str = "") -> StreamKey:
    """Derive the 128-bit key of one detector's noise stream.

    The derivation is fixed and portable so that any implementation can
    reproduce the key mapping:

    1. Build the ASCII string
       ``"collapsemc.v2|<master_seed>|<detector_id>|<salt>"`` with the
       seed in decimal.
    2. Take SHA-256 of its bytes.
    3. The key is the first 16 digest bytes as two little-endian uint64
       words ``(k0, k1)``.

    The run index is not part of the key: run k reads the stream at
    address ``(k0, k1, k)``, in the counter (see ``PhiloxNoiseSource``).
    ``salt`` gives a stream independent of the primary stream of the same
    detector; the default empty salt is the primary stream, which is the
    only one the engine draws.  A detector id may not contain ``|``, so
    distinct (master_seed, detector_id, salt) give distinct strings, and
    their keys could meet only through a SHA-256 collision.  A float or
    bool seed is refused with TypeError: it would spell "1.0" or "True",
    not the integer it equals.  A detector_id or salt that is not a str is
    refused with TypeError, and one that is not ASCII with ValueError.
    """
    master_seed = _integer(master_seed, "master_seed must be an integer")
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master_seed must fit in uint64, got {master_seed}")
    for name, text in (("detector_id", detector_id), ("salt", salt)):
        if not isinstance(text, str):
            raise TypeError(f"{name} must be a str, got {text!r}")
        if not text.isascii():
            raise ValueError(f"{name} must be ASCII, got {text!r}")
    if "|" in detector_id:
        raise ValueError(f"detector_id may not contain '|', got {detector_id!r}")
    material = b"|".join([
        _KEY_PREFIX,
        str(master_seed).encode(),
        detector_id.encode(),
        salt.encode(),
    ])
    digest = hashlib.sha256(material).digest()
    k0 = int.from_bytes(digest[0:8], "little")
    k1 = int.from_bytes(digest[8:16], "little")
    return (k0, k1)


def _integer(k, refusal: str) -> int:
    """k as an int, or the TypeError that starts with refusal: a float is
    not an integer, and True is not 1.  numpy integers are integers."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise TypeError(f"{refusal}, got {k!r}")
    return int(k)


def _run_indices(runs):
    """Run indices as a 1-D uint64 array, each checked to lie in
    [0, RUN_INDEX_LIMIT), with the least and the greatest of them as
    ints (None for an empty list)."""
    if isinstance(runs, np.ndarray):
        idx = runs
        if idx.dtype.kind not in "iu":
            raise TypeError(f"run indices must be integers, got dtype {idx.dtype}")
    else:
        # exact Python ints: numpy would infer float64 for a list that
        # mixes indices past 2**63 with small ones
        idx = np.array([_integer(k, "run indices must be integers") for k in runs],
                       dtype=object)
    if idx.ndim != 1:
        raise ValueError(f"run indices must be 1-D, got shape {idx.shape}")
    if idx.size == 0:
        return idx, None, None
    lo, hi = int(idx.min()), int(idx.max())
    for k in (lo, hi):
        if not 0 <= k < RUN_INDEX_LIMIT:
            raise ValueError(f"run index must be in [0, {RUN_INDEX_LIMIT}), got {k}")
    return idx.astype(np.uint64, copy=False), lo, hi


def _box_muller(words: np.ndarray) -> np.ndarray:
    """float32 normals of a flat run-major array of run-windows of words,
    by the transform of the module docstring."""
    words = words.reshape(-1, _WORDS_PER_WINDOW)
    radius = words >> np.uint64(24)
    radius += np.uint64(1)
    radius = radius.view(np.int64).astype(np.float32)
    radius *= _U40
    np.log(radius, out=radius)
    radius *= np.float32(-2.0)
    np.sqrt(radius, out=radius)
    angle = (words & _ANGLE_MASK).view(np.int64).astype(np.float32)
    angle *= _ANGLE_STEP
    out = np.empty((len(words), 2, _WORDS_PER_WINDOW), dtype=np.float32)
    out[:, 0] = np.cos(angle)
    out[:, 1] = np.sin(angle, out=angle)
    out *= radius[:, None]
    return out.ravel()


class PhiloxNoiseSource:
    """Supplies standard-normal increments addressed by (stream address, step).

    Values come in windows of ``BLOCK_STEPS`` steps: the value for step t
    of the run at address (k0, k1, k) is row ``t % BLOCK_STEPS`` of
    window ``t // BLOCK_STEPS``, drawn with the counter layout and the
    transform of the module docstring.

    An instance reuses one bit generator and one state dict, writing the
    key and counter words into it per draw, so it is cheap but not safe
    to share across threads.  The dict holds plain lists where the state
    getter returns numpy arrays: the setter reads lists in about half the
    time and stores the same words.  Setting it also empties the output
    buffer, so no draw leaks into the next.
    Separate threads or processes should each build their own instance;
    all instances produce identical values.
    """

    def __init__(self):
        self._bitgen = Philox(key=np.zeros(2, dtype=np.uint64))
        self._counter = [0, 0, 0, 0]
        self._key = [0, 0]
        # a fresh generator's state: empty output buffer, no cached uint32
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def block_normals(self, key: StreamKey, block_index: int, runs) -> np.ndarray:
        """Window ``block_index`` of stream ``key`` for each run index in
        ``runs``, as a flat run-major float32 array of ``len(runs) *
        BLOCK_STEPS`` normals: run ``runs[i]``'s window is
        ``[i * BLOCK_STEPS, (i + 1) * BLOCK_STEPS)``.

        ``runs`` may be unsorted and may repeat an index.  When its
        entries number at least ``SPAN_MIN_FILL`` of the span
        [min(runs), max(runs)], the whole span is drawn by one state set
        and one ``random_raw`` call and the requested runs' windows of
        words are gathered from it in list order, so the draw holds at most
        ``1 / SPAN_MIN_FILL`` times the requested words.  A sparser list
        takes one call per maximal segment of consecutive indices.  Either
        way only the requested runs' words are transformed, once over all
        of them, and a run's normals are the same bits on both paths.
        Raises TypeError for a block index or a run index that is not an
        integer (a float or a bool), and ValueError for a block index
        outside [0, 2**64) or a run index outside [0, RUN_INDEX_LIMIT).
        """
        block_index = _integer(block_index, "block_index must be an integer")
        if not 0 <= block_index < 2**64:
            raise ValueError(f"block_index must be in [0, 2**64), got {block_index}")
        idx, lo, hi = _run_indices(runs)
        if idx.size == 0:
            return np.empty(0, dtype=np.float32)
        self._counter[1] = block_index
        self._key[0], self._key[1] = key
        span = hi - lo + 1
        if idx.size >= SPAN_MIN_FILL * span:
            words = self._draw(lo, span)
            if span != idx.size or (np.diff(idx) != 1).any():
                offsets = (idx - np.uint64(lo)).astype(np.intp)
                words = words.reshape(span, _WORDS_PER_WINDOW).take(offsets, axis=0)
            return _box_muller(words)
        starts = [0, *(np.flatnonzero(np.diff(idx) != 1) + 1).tolist(), idx.size]
        words = [self._draw(idx[a], b - a) for a, b in zip(starts, starts[1:])]
        return _box_muller(np.concatenate(words))

    def _draw(self, first_run, n_runs) -> np.ndarray:
        """Words of the current window for runs first_run ... first_run + n_runs - 1."""
        self._counter[0] = int(first_run) * _COUNTERS_PER_WINDOW
        self._bitgen.state = self._state
        return self._bitgen.random_raw(n_runs * _WORDS_PER_WINDOW)


DEFAULT_NOISE = PhiloxNoiseSource()
