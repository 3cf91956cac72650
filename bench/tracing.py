"""Traced runs: per-layer spans taken from outside the library.

The public functions of the five library modules are wrapped in every
module namespace that binds them (``from .word_core import add`` makes a
second binding, the package ``__init__`` a third), so calls through any
name are seen.  Spans are aggregated per (function, calling layer) as
they close, which keeps memory flat however long the run is.  Garbage
collector pauses are timed through ``gc.callbacks``.
"""

import gc
import importlib
import sys
import time

#: module -> {public function: metric group}
WRAPPED = {
    "word_core": {name: name for name in
                  ("add", "neg", "scale", "cyclic_reduce", "power_of", "make_stable")},
    "nearring_maps": {name: name for name in ("f_eval", "mul", "preimage", "in_w", "in_h")},
    "grammar": {"parse_element": "parse_element", "render": "render"},
    "verify_suites": {
        "sample_element": "sample",
        "sample_nonzero": "sample",
        "sample_w_element": "sample",
        "check_nearring_axioms": "suite",
        "check_conjugacy": "suite",
        "witness_nonequiprime_B": "suite",
        "witness_nonequiprime_C": "suite",
        "check_equiprime_instances_A": "suite",
        "check_invariant_subgroups": "suite",
        "find_left_distrib_counterexample": "suite",
    },
    "cli_io": {"write_report": "write_report", "run_cli": "run_cli"},
}

#: groups whose operands, compared by identity, are checked for repeats
REPEAT_GROUPS = ("word_core.add", "nearring_maps.f_eval")
#: groups whose results are measured by length, and the metric suffix
SIZE_GROUPS = {"grammar.render": "chars", "cli_io.write_report": "bytes"}

MODULES = tuple(WRAPPED)
TOP_LAYER = "bench"


class Tracer:
    """Wraps the library's public functions and aggregates their spans."""

    def __init__(self):
        self.stack = []     # open spans: [time covered by child spans, layer]
        self.spans = {}     # (group, calling layer) -> [calls, total_s, self_s]
        self.seen = {group: set() for group in REPEAT_GROUPS}
        self.repeats = dict.fromkeys(REPEAT_GROUPS, 0)
        self.sizes = dict.fromkeys(SIZE_GROUPS, 0)
        self._restore = []

    def _wrap(self, fn, group, layer):
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        seen = self.seen.get(group)
        sized = group in SIZE_GROUPS

        def traced(*args, **kwargs):
            if seen is not None:
                if args in seen:
                    self.repeats[group] += 1
                else:
                    seen.add(args)
            caller = stack[-1][1] if stack else TOP_LAYER
            frame = [0.0, layer]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                agg = spans.get((group, caller))
                if agg is None:
                    agg = spans[(group, caller)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
            if sized:
                self.sizes[group] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every binding of a wrapped function in every loaded module."""
        by_id = {}
        for mod, names in WRAPPED.items():
            module = importlib.import_module(f"hnn_nearring.{mod}")
            for name, group in names.items():
                fn = getattr(module, name)
                by_id[id(fn)] = (fn, self._wrap(fn, f"{mod}.{group}", mod))
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[attr] = hit[1]
                    self._restore.append((namespace, attr, value))

    def uninstall(self):
        for namespace, attr, value in reversed(self._restore):
            namespace[attr] = value
        self._restore.clear()

    def snapshot(self):
        """JSON-ready aggregate: spans per (group, calling layer), repeat
        counts and result sizes."""
        return {
            "spans": [[g, c, *v] for (g, c), v in sorted(self.spans.items())],
            "repeats": dict(self.repeats),
            "sizes": dict(self.sizes),
        }


class GcTimer:
    """Counts collections and their time through ``gc.callbacks``."""

    def __init__(self):
        self.collections = 0
        self.seconds = 0.0
        self._t0 = 0.0

    def _callback(self, phase, info):
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._t0
            self.collections += 1

    def install(self):
        gc.callbacks.append(self._callback)

    def uninstall(self):
        gc.callbacks.remove(self._callback)

    def snapshot(self):
        return {"collections": self.collections, "seconds": self.seconds}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def _groups():
    out = []
    for mod, names in WRAPPED.items():
        for group in names.values():
            if f"{mod}.{group}" not in out:
                out.append(f"{mod}.{group}")
    return out


def metric_names():
    """Every per-layer metric name with its unit, in a fixed order."""
    names = []
    for group in _groups():
        if group != "verify_suites.suite":
            names.append((f"{group}.calls", "count"))
        names.append((f"{group}.self_s", "s"))
        if group in REPEAT_GROUPS:
            names.append((f"{group}.repeat_share", "ratio"))
        if group in SIZE_GROUPS:
            names.append((f"{group}.{SIZE_GROUPS[group]}", SIZE_GROUPS[group]))
    names += [(f"{mod}.import_s", "s") for mod in MODULES]
    names += [("python.gc.collections", "count"), ("python.gc.s", "s"),
              ("trace.overhead_pct", "%")]
    return names


def merge_spans(traces):
    """Spans summed over snapshots, one row per (group, calling layer):
    [group, caller, calls, total_s, self_s], heaviest self time first."""
    merged = {}
    for snap in traces:
        for group, caller, n, total, own in snap["spans"]:
            row = merged.setdefault((group, caller), [group, caller, 0, 0.0, 0.0])
            row[2] += n
            row[3] += total
            row[4] += own
    return sorted(merged.values(), key=lambda row: -row[4])


def layer_values(traces, gcs, import_s, overhead_pct, rounds):
    """Per-layer metric values averaged per round, from the traced
    snapshots, the untraced gc snapshots, the import self times and the
    tracing overhead of one run."""
    calls, self_s, repeats, sizes = {}, {}, {}, {}
    for group, _caller, n, _total, own in merge_spans(traces):
        calls[group] = calls.get(group, 0) + n
        self_s[group] = self_s.get(group, 0.0) + own
    for snap in traces:
        for group, n in snap["repeats"].items():
            repeats[group] = repeats.get(group, 0) + n
        for group, n in snap["sizes"].items():
            sizes[group] = sizes.get(group, 0) + n
    values = {}
    for group in _groups():
        values[f"{group}.calls"] = calls.get(group, 0) / rounds
        values[f"{group}.self_s"] = self_s.get(group, 0.0) / rounds
        if group in REPEAT_GROUPS:
            n = calls.get(group, 0)
            values[f"{group}.repeat_share"] = repeats.get(group, 0) / n if n else 0.0
        if group in SIZE_GROUPS:
            values[f"{group}.{SIZE_GROUPS[group]}"] = sizes.get(group, 0) / rounds
    for mod in MODULES:
        values[f"{mod}.import_s"] = import_s[mod]
    values["python.gc.collections"] = sum(g["collections"] for g in gcs) / rounds
    values["python.gc.s"] = sum(g["seconds"] for g in gcs) / rounds
    values["trace.overhead_pct"] = overhead_pct
    return {name: {"value": values[name], "unit": unit} for name, unit in metric_names()}
