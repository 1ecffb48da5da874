"""Per-layer spans and counts for the traced runs.

`install` replaces each traced wallcross function by a wrapper at every
module attribute that refers to it, so `wallcross.stability.spherical_set`
is wrapped as well as `wallcross.spheres.spherical_set`, and calls made
inside the defining module go through the wrapper too.  A wrapper records
its span against the span that called it.  Spans are aggregated per
(function, parent) edge as they close, because the hot functions run
millions of times a pass; self time is a span's time minus its child spans.
Counts are taken from arguments and return values.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

MODULES = (
    "lattice",
    "spheres",
    "stability",
    "strata",
    "packing",
    "serialize",
    "cli",
)

# (module, function) -> ((metric, count taken from the return value), ...)
TRACED = {
    ("lattice", "pairing"): (),
    ("lattice", "validate_forward"): (),
    ("lattice", "areas"): (),
    ("lattice", "reflect"): (),
    ("lattice", "reduce"): (("lattice.reduce.moves", lambda r: len(r[1])),),
    ("spheres", "enumerate_candidates"): (
        ("spheres.enumerate_candidates.classes", lambda r: len(r.classes)),
    ),
    ("spheres", "candidate_pool"): (("spheres.candidate_pool.classes", len),),
    ("spheres", "full_search_depth"): (),
    ("spheres", "spherical_set"): (
        ("spheres.spherical_set.members", lambda r: len(r.classes)),
    ),
    ("spheres", "set_difference"): (),
    ("spheres", "classify"): (),
    ("stability", "certify"): (
        ("stability.certify.samples", lambda r: len(r.samples)),
        ("stability.perturb.records", lambda r: r.perturbation is not None),
    ),
    ("stability", "segment_walls"): (("stability.segment_walls.walls", len),),
    ("stability", "max_stable_level"): (),
    ("strata", "enumerate_admissible"): (
        ("strata.enumerate_admissible.labels", lambda r: len(r.strata)),
    ),
    ("packing", "critical_capacities"): (
        ("packing.critical_capacities.flagged", lambda r: len(r.flagged)),
    ),
    ("packing", "blowup_class"): (),
    ("serialize", "dumps"): (("serialize.dumps.bytes", lambda r: len(r.encode())),),
    ("cli", "main"): (),
}
ATTEMPTS = "stability.perturb.attempts"
COUNTS = [m for counters in TRACED.values() for m, _ in counters] + [ATTEMPTS]

# Each *_to_json writer of the serializer is wrapped under its own name and
# reported as one total.
TO_JSON_SUFFIX = "_to_json"


class Recorder:
    """Aggregated spans and counts of one process."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.edges: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()

    def reset(self) -> None:
        self.edges.clear()
        self.counts.clear()

    def wrap(self, name: str, fn, counters=()):
        stack, edges, counts = self.stack, self.edges, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                edge = edges.get((name, parent))
                if edge is None:
                    edge = edges[(name, parent)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += dt
                edge[2] += dt - frame[1]
            for metric, count in counters:
                counts[metric] += count(result)
            return result

        return wrapper

    def counting(self, metric: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self) -> dict:
        """JSON-ready spans: [name, parent, calls, total_s, self_s] per edge."""
        return {
            "edges": [[n, p, *e] for (n, p), e in sorted(self.edges.items())],
            "counts": dict(self.counts),
        }


def install(recorder: Recorder) -> None:
    """Wrap every traced function at every wallcross attribute naming it.

    A function that no longer exists is skipped; its metrics then read 0.
    """
    import importlib

    import wallcross

    modules = [wallcross] + [
        importlib.import_module(f"wallcross.{m}") for m in MODULES
    ]
    targets = dict(TRACED)
    serialize = sys.modules["wallcross.serialize"]
    for attr, value in vars(serialize).items():
        if attr.endswith(TO_JSON_SUFFIX) and callable(value):
            targets[("serialize", attr)] = ()
    wrappers: dict[int, tuple] = {}
    for (module, attr), counters in targets.items():
        fn = getattr(sys.modules[f"wallcross.{module}"], attr, None)
        if fn is not None:
            wrappers[id(fn)] = (fn, recorder.wrap(f"{module}.{attr}", fn, counters))
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    # Perturbation candidates are the forwardness tests made by stability.
    stability = sys.modules["wallcross.stability"]
    if hasattr(stability, "is_forward"):
        stability.is_forward = recorder.counting(ATTEMPTS, stability.is_forward)


def merge(summaries) -> dict:
    """One summary from several (the requests of one pass)."""
    edges: dict[tuple[str, str], list] = {}
    counts: Counter = Counter()
    for s in summaries:
        for name, parent, calls, total, self_s in s["edges"]:
            e = edges.setdefault((name, parent), [0, 0.0, 0.0])
            e[0] += calls
            e[1] += total
            e[2] += self_s
        counts.update(s["counts"])
    return {
        "edges": [[n, p, *e] for (n, p), e in sorted(edges.items())],
        "counts": dict(counts),
    }


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics of one pass, from its merged summary."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for name, _parent, n, _total, s in summary["edges"]:
        calls[name] += n
        self_s[name] += s
    out: dict[str, float] = {}
    for module, attr in TRACED:
        name = f"{module}.{attr}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["serialize.to_json.self_s"] = sum(
        s for name, s in self_s.items()
        if name.startswith("serialize.") and name.endswith(TO_JSON_SUFFIX)
    )
    for metric in COUNTS:
        out[metric] = summary["counts"].get(metric, 0)
    return out
