"""Span recording around the public layer functions of collapsemc.

The tracer times each layer from outside the package: it replaces the
module attributes through which one layer calls the next with wrappers
that record a span (name, start, end, parent, info).  Spans are kept in
memory as tuples and written out only when the traced run ends, so the
file system stays out of the timed region.

Layers are named after the module that defines the wrapped function; a
span name is ``<layer>.<function>``.  A span's self time is its duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import csv
import inspect
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("noise", "dynamics", "experiment", "ensemble", "cli")

KEYS = "noise.derive_stream_key"
NORMALS = "noise.block_normals"
BATCH = "dynamics.collapse_batch"
FRAME_BATCH = "experiment.run_frame_batch"
RUN_ENSEMBLE = "ensemble.run_ensemble"
REDUCE = "ensemble.compute_stats"
EXPORT_ENSEMBLE = "ensemble.export_ensemble"
EXPORT = "ensemble.export_records"
MAIN = "cli.main"


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name, fn, info=None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``info(result, args, kwargs)``, when given, returns the tuple of work
        counts stored with the span: it runs after the span has ended, so
        its cost is not charged to the layer.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, None)
            if info is not None:
                spans[idx] = (name, start, end, parent, info(result, args, kwargs))
            return result

        return traced

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_s", "end_s", "parent", "info"])
            for idx, (name, start, end, parent, info) in enumerate(self.spans):
                writer.writerow([idx, name, repr(start), repr(end), parent,
                                 "" if info is None else repr(info)])


def _arg(fn, position: int, name: str):
    """Reader of one argument of ``fn``, passed by position or by keyword."""
    params = list(inspect.signature(fn).parameters)
    if params[position:position + 1] != [name]:
        raise TypeError(f"{fn.__qualname__}: expected argument {position} to be {name!r}, "
                        f"signature has {params}")

    def read(args, kwargs):
        return args[position] if len(args) > position else kwargs[name]
    return read


@contextmanager
def traced_package(tracer: Tracer, pkg):
    """Install span wrappers on the layer boundaries of ``pkg`` for the
    duration of the block.

    ``pkg`` maps module names (noise, experiment, ensemble, cli) to the
    imported modules.  Each function is replaced where its caller looks
    it up: ``experiment`` and ``ensemble`` import their callees by name,
    and the noise source is reached through its class.
    """
    noise, experiment, ensemble, cli = (pkg[m] for m in ("noise", "experiment", "ensemble", "cli"))
    stream_keys = _arg(experiment.collapse_batch, 5, "stream_keys")
    records_of_reduce = _arg(ensemble.compute_stats, 2, "records")
    records_of_export = _arg(ensemble.export_records, 0, "records")
    records_of_export_ensemble = _arg(ensemble.export_ensemble, 2, "records")

    def batch_info(res, args, kwargs):
        keys = stream_keys(args, kwargs)
        return (int(res.steps.sum()), len(res.steps), len(keys[0]) if len(keys) else 0)

    patches = [
        (experiment, "derive_stream_key", KEYS, None),
        (noise.PhiloxNoiseSource, "block_normals", NORMALS,
         lambda res, a, kw: (res.shape[0], res.size)),
        (experiment, "collapse_batch", BATCH, batch_info),
        (ensemble, "run_frame_batch", FRAME_BATCH,
         lambda res, a, kw: (len(res[0]) + len(res[1]),)),
        (ensemble, "compute_stats", REDUCE,
         lambda res, a, kw: (len(records_of_reduce(a, kw)),)),
        (ensemble, "export_records", EXPORT,
         lambda res, a, kw: (len(records_of_export(a, kw)),)),
        (cli, "run_ensemble", RUN_ENSEMBLE, lambda res, a, kw: (len(res[1]),)),
        (cli, "export_ensemble", EXPORT_ENSEMBLE,
         lambda res, a, kw: (len(records_of_export_ensemble(a, kw)),)),
        (cli, "main", MAIN, None),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
    try:
        for owner, attr, name, info in patches:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), info))
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to its own interval."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _info in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_name, start, end, _parent, _info) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def totals(spans) -> dict[str, dict]:
    """Per span name: call count, total self time and summed work counts."""
    out: dict[str, dict] = {}
    for span, self_s in zip(spans, self_times(spans)):
        name, info = span[0], span[4]
        t = out.setdefault(name, {"calls": 0, "self_s": 0.0, "info": None})
        t["calls"] += 1
        t["self_s"] += self_s
        if info is not None:
            t["info"] = info if t["info"] is None else tuple(
                a + b for a, b in zip(t["info"], info))
    return out


def rows_used_ratio(spans) -> float:
    """Useful steps per stream over noise rows drawn.

    Each ``collapse_batch`` span carries (run-steps, runs, streams per run)
    from its returned ``BatchResult``: every run step consumes one row of
    each of its streams.  Each ``block_normals`` span carries (rows, normals)
    of the window prefix it drew.
    """
    useful = sum(s[4][0] * s[4][2] for s in spans if s[0] == BATCH and s[4] is not None)
    drawn = sum(s[4][0] for s in spans if s[0] == NORMALS and s[4] is not None)
    return useful / drawn


def layer_metrics(spans, traced_walls, runs_per_rep: int) -> dict[str, float]:
    """Per-layer metrics of a traced run of ``len(traced_walls)`` repetitions
    of ``runs_per_rep`` ensemble runs each."""
    t = totals(spans)
    reps = len(traced_walls)
    wall = sum(traced_walls)

    def rate(name):
        """Work count of a single-count span over its total self time."""
        return t[name]["info"][0] / t[name]["self_s"]

    run_steps, frame_runs, _ = t[BATCH]["info"]
    _rows, normals = t[NORMALS]["info"]
    layer_self = {layer: sum(v["self_s"] for n, v in t.items() if n.split(".")[0] == layer)
                  for layer in LAYERS}
    out = {
        "noise.keys_per_s": t[KEYS]["calls"] / t[KEYS]["self_s"],
        "noise.normals_per_s": normals / t[NORMALS]["self_s"],
        "noise.normals_per_run": normals / (runs_per_rep * reps),
        "noise.rows_used_ratio": rows_used_ratio(spans),
        "dynamics.run_steps_per_s": run_steps / t[BATCH]["self_s"],
        "dynamics.steps_per_run": run_steps / frame_runs,
        "experiment.records_per_s": rate(FRAME_BATCH),
        "ensemble.reduce_records_per_s": rate(REDUCE),
        "ensemble.export_records_per_s": rate(EXPORT),
        "ensemble.self_s": t[RUN_ENSEMBLE]["self_s"] / reps,
        "cli.self_s": t[MAIN]["self_s"] / reps,
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = layer_self[layer] / wall
    out["trace.remainder_share"] = (wall - sum(layer_self.values())) / wall
    return out
