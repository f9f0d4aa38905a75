"""Reproducible, counter-addressed Gaussian noise streams.

Every random number consumed by a simulation run is addressed, not drawn
sequentially from shared state: a value is identified by its (stream key,
step index).  Distinct detectors and distinct run indices get distinct
stream keys, so concurrent trajectories never coordinate and a rerun of
any single trajectory reproduces its noise exactly, regardless of what
else executed.

Stream keys are derived with SHA-256 so the mapping is portable and easy
to audit (see ``derive_stream_key``).  The Gaussian values themselves come
from numpy's Philox counter-based bit generator; they are deterministic
within one build of numpy, which is the reproducibility level this
package promises.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random import Generator, Philox

# A stream is consumed in fixed windows of this many steps.  Window b of a
# stream is generated from Philox counter (0, b, 0, 0), so any window can
# be produced without generating its predecessors.  A run draws every
# window it enters, so a window is kept to about one typical run at the
# scenario step size (experiment.TARGET_GAMMA_DT, which also gives the
# accuracy at that step): a frame-0 run at q0 0.5 takes about 140 steps,
# a frame-A run about 280.
BLOCK_STEPS = 128

_KEY_PREFIX = b"collapsemc.v1"

StreamKey = tuple[int, int]


def derive_stream_key(master_seed: int, detector_id: str, run_index: int,
                      salt: str = "") -> StreamKey:
    """Derive the 128-bit noise stream key for one detector in one run.

    The derivation is fixed and portable so that any implementation can
    reproduce the key mapping:

    1. Build the ASCII string
       ``"collapsemc.v1|<master_seed>|<detector_id>|<run_index>|<salt>"``
       with the integers in decimal.
    2. Take SHA-256 of its bytes.
    3. The key is the first 16 digest bytes as two little-endian uint64
       words ``(k0, k1)``.

    ``salt`` gives a stream independent of the primary stream of the same
    detector and run; the default empty salt is the primary stream, which
    is the only one the engine draws.

    Collisions between distinct inputs would require a SHA-256 collision,
    so distinct (detector_id, run_index) pairs map to distinct keys.
    """
    if run_index < 0:
        raise ValueError(f"run_index must be >= 0, got {run_index}")
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master_seed must fit in uint64, got {master_seed}")
    material = b"|".join([
        _KEY_PREFIX,
        str(master_seed).encode(),
        detector_id.encode(),
        str(run_index).encode(),
        salt.encode(),
    ])
    digest = hashlib.sha256(material).digest()
    k0 = int.from_bytes(digest[0:8], "little")
    k1 = int.from_bytes(digest[8:16], "little")
    return (k0, k1)


class PhiloxNoiseSource:
    """Supplies standard-normal increments addressed by (key, step).

    Values are generated in windows of ``BLOCK_STEPS`` steps.  Window ``b``
    of stream ``key`` is drawn from a Philox generator with 128-bit key
    ``key`` and 256-bit counter ``(0, b, 0, 0)``, so the value for a step
    sits at row ``step % BLOCK_STEPS`` of window ``step // BLOCK_STEPS``.
    Windows are separated by 2**64 counter positions, far more than one
    window ever consumes, and a draw of only the first ``rows`` rows of a
    window equals the prefix of the full window because generation is
    sequential within a window.

    An instance reuses one generator object and one state dict, writing
    the key and counter words into it per window, so it is cheap but not
    safe to share across threads.  The dict holds plain lists where the
    state getter returns numpy arrays: the setter reads lists in about
    half the time and stores the same words.  Setting it also clears the
    output buffer and the cached uint32, so no draw leaks into the next.
    Separate threads or processes should each build their own instance;
    all instances produce identical values.
    """

    def __init__(self):
        self._bitgen = Philox(key=np.zeros(2, dtype=np.uint64))
        self._gen = Generator(self._bitgen)
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

    def block_normals(self, key: StreamKey, block_index: int,
                      rows: int | None = None) -> np.ndarray:
        """Return the first ``rows`` rows (default all) of one stream window
        as a 1-D array."""
        if block_index < 0:
            raise ValueError(f"block_index must be >= 0, got {block_index}")
        rows = BLOCK_STEPS if rows is None else rows
        if not 0 < rows <= BLOCK_STEPS:
            raise ValueError(f"rows must be in [1, {BLOCK_STEPS}], got {rows}")
        self._counter[1] = block_index
        self._key[0], self._key[1] = key
        self._bitgen.state = self._state
        return self._gen.standard_normal(rows)


DEFAULT_NOISE = PhiloxNoiseSource()
