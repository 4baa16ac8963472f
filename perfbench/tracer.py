"""Span tracer that wraps swarmsim's public functions from outside.

Each hook replaces one module or class attribute with a wrapper that records
a span (layer, parent span, start, end) in memory. Hooks are installed for
one operation and removed after it, so untraced operations run the program
unmodified. A hook whose attribute no longer exists marks its layer missing,
and every metric drawn from that layer is reported as missing, not as 0.

Self time of a span is its duration minus the durations of its direct
children; busy_s figures below are self times summed per layer.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter

# Layers whose spans nest inside Simulation.step.
STEP_LAYERS = (
    "sim.raycast",
    "sim.integrate",
    "core.potential_field",
    "core.nearest_obstacle",
    "protection.triggered",
    "protection.arbitrate",
    "patterns.tick",
    "bus.publish",
    "bus.drain",
)

# layer -> (module, attribute) pairs it is hooked at. Functions are wrapped
# in every namespace that Simulation.step, scenario.run or the benchmark
# calls them through.
HOOKS = {
    "sim.step": [("swarmsim.sim", "Simulation.step")],
    "sim.raycast": [("swarmsim.sim", "raycast_scan")],
    "sim.integrate": [
        ("swarmsim.sim", "resolve_wall_contact"),
        ("swarmsim.sim", "integrate_pose"),
    ],
    "core.potential_field": [
        ("swarmsim.protection", "potential_field"),
        ("swarmsim.patterns.movement", "potential_field"),
    ],
    "core.nearest_obstacle": [
        ("swarmsim.protection", "nearest_obstacle"),
        ("swarmsim.patterns.movement", "nearest_obstacle"),
    ],
    "protection.triggered": [
        ("swarmsim.sim", "triggered"),
        ("swarmsim.protection", "triggered"),
    ],
    "protection.arbitrate": [("swarmsim.sim", "arbitrate")],
    "patterns.tick": [("swarmsim.scenario", "build_simulation")],
    "bus.publish": [("swarmsim.bus", "MessageBus.publish"), ("swarmsim.bus", "VOTE_TOPIC")],
    "bus.drain": [("swarmsim.bus", "Subscription.drain")],
    "trace.from_columns": [
        ("swarmsim.scenario", "trace_from_columns"),
        ("swarmsim.trace", "trace_from_columns"),
    ],
    "trace.write": [("swarmsim.scenario", "write_trace"), ("swarmsim.trace", "write_trace")],
    "trace.read": [("swarmsim.trace", "read_trace")],
    "metrics.compute": [
        ("swarmsim.scenario", "compute_metrics"),
        ("swarmsim.metrics", "compute_metrics"),
    ],
    "metrics.write": [
        ("swarmsim.scenario", "write_metrics_json"),
        ("swarmsim.metrics", "write_metrics_json"),
        ("swarmsim.scenario", "write_series_csv"),
        ("swarmsim.metrics", "write_series_csv"),
    ],
}


def _resolve(module_name: str, dotted: str):
    """(owner, attribute name) for a hook, or None if it no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


def missing_layers() -> set[str]:
    return {
        layer
        for layer, hooks in HOOKS.items()
        if any(_resolve(mod, attr) is None for mod, attr in hooks)
    }


class Tracer:
    """Records spans for the operations run inside ``with tracer:``."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        # (layer id, parent span index or -1, start, end), in entry order
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.missing = missing_layers()
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _layer(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def wrap(self, layer: str, fn, after=None):
        """Wrap fn in a span; after(result, args) may update counters."""
        lid = self._layer(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (lid, parent, start, end)
            if after is not None:
                after(result, args)
            return result

        return traced

    def _patch(self, layer: str, module: str, attr: str, after=None, make=None) -> None:
        if layer in self.missing:
            return
        owner, name = _resolve(module, attr)
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        replacement = make(original) if make else self.wrap(layer, original, after)
        self._undo.append((owner, name, original))
        setattr(owner, name, replacement)

    def __enter__(self) -> "Tracer":
        import swarmsim.bus as bus

        counts = self.counts
        vote_topic = getattr(bus, "VOTE_TOPIC", None)

        def on_publish(delivered, args):
            counts["bus.deliveries"] += delivered
            if args[1].topic == vote_topic:
                counts["bus.vote.publishes"] += 1

        def on_step_triggered(hit, args):
            counts["protection.step_checks"] += 1
            counts["protection.suppressed"] += bool(hit)

        def on_pose_eval(result, args):
            counts["sim.integrate.pose_evals"] += 1

        def traced_resolve(original):
            inner = self.wrap("sim.integrate", original)

            def resolve(pose, cmd, dt, radius, walls):
                before = counts["sim.integrate.pose_evals"]
                result = inner(pose, cmd, dt, radius, walls)
                counts["sim.integrate.calls"] += 1
                # Without contact, resolve_wall_contact evaluates one pose per
                # waypoint check plus the final pose; more means it bisected.
                checks = max(1, math.ceil(abs(cmd.linear) * dt / radius))
                if counts["sim.integrate.pose_evals"] - before > checks + 1:
                    counts["sim.integrate.bisections"] += 1
                return result

            return resolve

        def traced_build(original):
            inner = self.wrap("scenario.build", original)

            def build(config):
                sim = inner(config)
                for node in sim.nodes:
                    node.behavior.tick = self.wrap("patterns.tick", node.behavior.tick)
                return sim

            return build

        special = {
            ("swarmsim.sim", "resolve_wall_contact"): {"make": traced_resolve},
            ("swarmsim.sim", "integrate_pose"): {"after": on_pose_eval},
            ("swarmsim.sim", "triggered"): {"after": on_step_triggered},
            ("swarmsim.scenario", "build_simulation"): {"make": traced_build},
            ("swarmsim.bus", "MessageBus.publish"): {"after": on_publish},
            ("swarmsim.bus", "VOTE_TOPIC"): None,  # read by on_publish, not wrapped
        }
        for layer, hooks in HOOKS.items():
            for module, attr in hooks:
                options = special.get((module, attr), {})
                if options is not None:
                    self._patch(layer, module, attr, **options)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        self._stack.clear()

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per layer: span count, inclusive time and self time."""
        child = [0.0] * len(self.spans)
        for lid, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.layers}
        for i, (lid, parent, start, end) in enumerate(self.spans):
            entry = out[self.layers[lid]]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
        return out

    def write_spans(self, path) -> None:
        """One line per span: index, parent index, layer, start and end in s."""
        with open(path, "w") as fh:
            fh.write("span,parent,layer,start_s,end_s\n")
            for i, (lid, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{parent},{self.layers[lid]},{start!r},{end!r}\n")
