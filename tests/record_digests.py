"""Committed SHA-256 digests of the records and manifests of a small grid
of ensembles, keyed by platform.

The records are a pure function of the config only within one numpy build
on one CPU feature set (see collapsemc.noise), so ``record_digests.json``
holds one entry per platform key: the artifact version, the numpy version
and a hash of ``ensemble.cpu_features()``.  Each entry maps every cell of
the grid, ``born``, ``collapse-time`` and ``disagree`` in csv and jsonl,
at two seeds and epsilon 1e-6 and 0.01, and ``disagree`` at a step cap
that caps a few runs, to the SHA-256 of its records file and of its
manifest.  The manifest is hashed with its out-dir and Python version
masked, since neither is part of the platform key.

    PYTHONPATH=src python tests/record_digests.py

recomputes the grid and writes this platform's entry, dropping the
entries of other artifact versions.  A change that alters the records
regenerates the file in the same diff, so the change shows in review.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile

import numpy as np

from collapsemc import __version__, cli
from collapsemc.ensemble import cpu_features

DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "record_digests.json")

COMMANDS = ("born", "collapse-time", "disagree")
FORMATS = ("csv", "jsonl")
SEEDS = (4, 77)
EPSILONS = (1e-6, 0.01)
RUNS = 2000
Q0 = 0.8
# at this step cap, epsilon 1e-6, the disagree cells cap 9 and 8 of their
# runs at the two seeds, under the ensemble's 1 % abort
CAPPED_MAX_STEPS = 720

MASK = "<masked>"


def platform_key() -> str:
    """The artifact version, the numpy version and a hash of numpy's
    enabled CPU features, the platform the digests stand for."""
    features = hashlib.sha256(",".join(cpu_features()).encode()).hexdigest()[:16]
    return f"{__version__}|numpy-{np.__version__}|cpu-{features}"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cells():
    """(name, command, format, seed, overrides) of every cell of the grid."""
    for command, fmt, seed, eps in itertools.product(COMMANDS, FORMATS, SEEDS, EPSILONS):
        yield f"{command}-{fmt}-seed{seed}-eps{eps:g}", command, fmt, seed, {"epsilon": eps}
    for fmt, seed in itertools.product(FORMATS, SEEDS):
        yield (f"disagree-{fmt}-seed{seed}-eps1e-06-cap{CAPPED_MAX_STEPS}", "disagree", fmt,
               seed, {"epsilon": 1e-6, "max_steps": CAPPED_MAX_STEPS})


def run_grid(out_root: str) -> dict[str, dict[str, str]]:
    """Run every cell of the grid under out_root through cli.main and
    return its records and manifest digests by cell name."""
    digests = {}
    for name, command, fmt, seed, overrides in cells():
        out = os.path.join(out_root, name)
        config = os.path.join(out_root, f"{name}.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"overrides": overrides}, fh)
        argv = [command, "--runs", str(RUNS), "--seed", str(seed), "--q0", str(Q0),
                "--workers", "1", "--format", fmt, "--config", config, "--out-dir", out]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"{name}: collapsemc exited {code}")
        with open(os.path.join(out, f"records.{fmt}"), "rb") as fh:
            records = fh.read()
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["config"]["out_dir"] = MASK
        manifest["build"]["python"] = MASK
        digests[name] = {"records": _sha256(records),
                         "manifest": _sha256(json.dumps(manifest, sort_keys=True).encode())}
    return digests


def load() -> dict:
    with open(DIGEST_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    key = platform_key()
    try:
        table = load()
    except FileNotFoundError:
        table = {}
    table = {k: v for k, v in table.items() if v["artifact_version"] == __version__}
    with tempfile.TemporaryDirectory() as out_root:
        digests = run_grid(out_root)
    table[key] = {"artifact_version": __version__, "numpy": np.__version__,
                  "cpu_features": cpu_features(), "digests": digests}
    with open(DIGEST_FILE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {len(digests)} cells for {key} to {DIGEST_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
