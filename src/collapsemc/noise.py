"""Reproducible, counter-addressed noise streams of a five-point weak law.

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
and a window of ``BLOCK_STEPS`` steps takes 4 bits a step, so
``BLOCK_STEPS / 16`` words, 2 counter values.  Window b of run k is the
words numpy's ``Philox`` yields from key (k0, k1) and counter
(2 k, b, 0, 0) with an empty buffer; numpy steps the counter before each
block, so run k reads low counter words 2 k + 1 and 2 k + 2.
Consecutive runs are adjacent in the counter, so one ``random_raw`` call
draws a window for every run index in a span.  A list of run indices is
cut into pieces, in list order, wherever the next index repeats, steps
back or skips more than ``MAX_GAP`` dead runs; each piece is drawn over
its own span in one call, and the requested runs' words are picked out of
the draw.  So a draw holds at most ``MAX_GAP + 1`` times the requested
runs' words, however gapped the list is.

Each step of a stream takes one 4-bit field, a level index i in 0 ... 15,
in this nibble order: a run-window's 8 words w_0 ... w_7 are read as 64
little-endian bytes c_0 ... c_63 (c_j is bits 8 (j % 8) ... 8 (j % 8) + 7
of w_{j // 8}), and row j < 64 of the window is the low nibble of c_j,
row 64 + j its high nibble.  Index i stands for the value ``LEVELS[i]``
of the five-point law

    zeta = 0 with probability 6/16, +-a with 4/16 each, +-b with 1/16 each,
    a^2 = (8 - sqrt(14)) / 5 ~= 0.8517,  b^2 = 8 - 4 a^2 ~= 4.593,

which ``LEVELS`` lists in increasing order: index 0 is -b, 1 ... 4 are -a,
5 ... 10 are 0, 11 ... 14 are +a and 15 is +b, so LEVELS[15 - i] =
-LEVELS[i].  Its moments E zeta^k equal the standard normal's for every
k <= 5 (odd ones 0, E zeta^2 = 1, E zeta^4 = 3).  Every statistic the
package reports is a weak one, the law of winners and durations and the
joint law of two frames' outcomes, so the law may stand in for a
Gaussian increment: a weak scheme keeps its order with any increment law
whose low moments match the normal's (Kloeden and Platen, *Numerical
Solution of Stochastic Differential Equations*, Springer 1992, ch. 14).
Its support is bounded by b ~= 2.143, and it has no tails to cut.

The Philox words, and so the level indices, are fixed by the algorithm
on any platform; the step kernel maps them to increments by a table
worked out in float64 and rounded once (see ``dynamics``).  The records
then depend on the numpy build only through the kernel's float32 ``sinh``
and ``arcsinh``, whose last bits vary with the numpy build and with the
CPU features its loops dispatch on.  So the records are deterministic
within one numpy build on one CPU feature set, which is the
reproducibility level this package promises; the manifest of an ensemble
records both.
"""

from __future__ import annotations

import hashlib
import math
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

# Philox words a run-window takes: 4 bits a step, 16 steps a word
_WORDS_PER_WINDOW = BLOCK_STEPS // 16

# Philox4x64 counter values a window spans: one per four words
_COUNTERS_PER_WINDOW = _WORDS_PER_WINDOW // 4

# run k reads low counter words up to 2 k + 2, which must not carry into
# the block index word: k < 2**63 - 1
RUN_INDEX_LIMIT = 2**64 // _COUNTERS_PER_WINDOW - 1

# the low nibble of every byte of a word
_LOW_NIBBLES = np.uint64(0x0F0F0F0F0F0F0F0F)

# The most dead runs a draw runs through: a run list is cut into pieces
# where the next index skips more, and each piece is one random_raw call.
# A piece costs about 2 us, as much as 50-60 windows at 33-39 ns a window
# over 256-2048 windows, so a gap this short is cheaper to draw through
# than to cut at; 15 and 31 ran born ensembles as fast within the
# run-to-run spread (numpy 2.4 on a shared 2-CPU x86-64 VM).
MAX_GAP = 63

# The five-point law's values by level index, in increasing order (see
# the module docstring)
_A = math.sqrt((8.0 - math.sqrt(14.0)) / 5.0)
_B = math.sqrt(8.0 - 4.0 * _A * _A)
LEVELS = np.array([-_B, *[-_A] * 4, *[0.0] * 6, *[_A] * 4, _B])
LEVELS.flags.writeable = False

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
    [0, RUN_INDEX_LIMIT)."""
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
    for k in (int(idx.min()), int(idx.max())) if idx.size else ():
        if not 0 <= k < RUN_INDEX_LIMIT:
            raise ValueError(f"run index must be in [0, {RUN_INDEX_LIMIT}), got {k}")
    return idx.astype(np.uint64, copy=False)


def _levels(words: np.ndarray) -> np.ndarray:
    """uint8 level indices of a flat run-major array of run-windows of
    words, in the nibble order of the module docstring.

    The nibbles are split on 64-bit lanes.  A window's low nibbles are
    words & 0x0F0F...0F and its high nibbles (words >> 4) & 0x0F0F...0F,
    written as little-endian words, so byte j of the low half is the low
    nibble of c_j and byte j of the high half its high nibble.  The two
    halves are copied into place and masked in one pass over the whole
    output.  That ran as fast as a byte-wise split, and in about a third
    less time than masking each half in place, whose inner loops are one
    window's 8 words.  The uint64 scalars keep the arithmetic in uint64 under
    value-based casting (numpy 1.x) and NEP 50 (numpy 2) alike.
    """
    words = words.reshape(-1, _WORDS_PER_WINDOW)
    out = np.empty((len(words), 2, _WORDS_PER_WINDOW), dtype="<u8")
    out[:, 0] = words
    out[:, 1] = words >> np.uint64(4)
    out &= _LOW_NIBBLES
    return out.view(np.uint8).ravel()


class PhiloxNoiseSource:
    """Supplies level indices of the five-point law addressed by (stream
    address, step).

    Values come in windows of ``BLOCK_STEPS`` steps: the value for step t
    of the run at address (k0, k1, k) is row ``t % BLOCK_STEPS`` of
    window ``t // BLOCK_STEPS``, drawn with the counter layout and the
    nibble order of the module docstring.

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

    # bench/spans.py reads this method by name and counts its elements as rows
    def block_normals(self, key: StreamKey, block_index: int, runs) -> np.ndarray:
        """Window ``block_index`` of stream ``key`` for each run index in
        ``runs``, as a flat run-major uint8 array of ``len(runs) *
        BLOCK_STEPS`` level indices in 0 ... 15, one per run and row: run
        ``runs[i]``'s window is ``[i * BLOCK_STEPS, (i + 1) * BLOCK_STEPS)``,
        and index i stands for the value ``LEVELS[i]``.

        ``runs`` may be unsorted and may repeat an index.  It is cut into
        pieces, in list order, wherever the next index repeats, steps back
        or skips more than ``MAX_GAP`` dead runs.  Each piece is drawn over
        its own span, from its first index to its last, by one state set
        and one ``random_raw`` call, and when the piece has gaps its runs'
        windows of words are gathered from the draw.  So the draws hold at
        most ``MAX_GAP + 1`` times the requested words, and the runs 0 and
        ``RUN_INDEX_LIMIT - 1`` take two one-window draws.  Only the
        requested runs' words are split into nibbles, once over all of
        them, so a run's indices do not depend on the rest of the list.
        Raises TypeError for a block index or a run index that is not an
        integer (a float or a bool), and ValueError for a block index
        outside [0, 2**64) or a run index outside [0, RUN_INDEX_LIMIT).
        """
        block_index = _integer(block_index, "block_index must be an integer")
        if not 0 <= block_index < 2**64:
            raise ValueError(f"block_index must be in [0, 2**64), got {block_index}")
        idx = _run_indices(runs)
        if idx.size == 0:
            return np.empty(0, dtype=np.uint8)
        self._counter[1] = block_index
        self._key[0], self._key[1] = key
        # a repeat or a descent wraps the uint64 difference past MAX_GAP too;
        # the slices cost a third of np.diff's call
        cuts = (np.flatnonzero(idx[1:] - idx[:-1] - 1 > MAX_GAP) + 1).tolist()
        words = []
        for a, b in zip([0, *cuts], [*cuts, idx.size]):
            lo, span = int(idx[a]), int(idx[b - 1] - idx[a]) + 1
            piece = self._draw(lo, span)
            if span != b - a:
                offsets = (idx[a:b] - np.uint64(lo)).astype(np.intp)
                piece = piece.reshape(span, _WORDS_PER_WINDOW).take(offsets, axis=0).ravel()
            words.append(piece)
        return _levels(words[0] if len(words) == 1 else np.concatenate(words))

    def _draw(self, first_run, n_runs) -> np.ndarray:
        """Words of the current window for runs first_run ... first_run + n_runs - 1."""
        self._counter[0] = int(first_run) * _COUNTERS_PER_WINDOW
        self._bitgen.state = self._state
        return self._bitgen.random_raw(n_runs * _WORDS_PER_WINDOW)


DEFAULT_NOISE = PhiloxNoiseSource()
