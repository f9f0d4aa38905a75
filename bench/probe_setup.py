"""Time a fresh interpreter's set-up for one workload.

Usage: python3 probe_setup.py <src-dir> <config-json>

Imports collapsemc and its CLI, then builds the workload's ensemble
config, scenario and manifest, as ``collapsemc.cli.main`` does before it
runs anything.  ``config-json`` holds the EnsembleConfig fields, plus an
optional ``config_file`` whose contents the fields override.  Prints the
elapsed seconds.
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from collapsemc import cli  # noqa: E402,F401  (the entry point users load)
from collapsemc.ensemble import EnsembleConfig, build_manifest, scenario_from_config  # noqa: E402

fields = json.loads(sys.argv[2])
merged = {}
config_file = fields.pop("config_file", None)
if config_file:
    with open(config_file, encoding="utf-8") as fh:
        merged = json.load(fh)
merged.update(fields)
config = EnsembleConfig.from_dict(merged)
scenario_from_config(config)
build_manifest(config)
print(repr(time.perf_counter() - start))
