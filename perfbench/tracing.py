"""Spans recorded from outside the package, by wrapping the calls into its layers.

fracspde has no timers of its own, so the traced pass replaces module and
class attributes with timing wrappers and restores them afterwards.  Every
span knows its parent; per-name totals (calls, total and self time) are
always complete, while the span list itself keeps at most `PER_NAME_CAP`
spans of each name so a long ensemble does not fill memory.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

PER_NAME_CAP = 2000

# (span name, module, attribute path).  A name may wrap several attributes,
# e.g. hermitianize is called through both spectral and noise.
HOOKS = (
    ("experiments.delay_study", "fracspde.experiments", "delay_study"),
    ("experiments.level", "fracspde.experiments", "ensemble_survival"),
    ("io.parse_config", "fracspde.io", "parse_config_dict"),
    ("io.write", "fracspde.io", "write_trajectory"),
    ("io.write", "fracspde.io", "write_survival"),
    ("io.write", "fracspde.io", "write_delay_study"),
    ("dynamics.integrate", "fracspde.dynamics", "integrate"),
    ("dynamics.engine_setup", "fracspde.dynamics", "_Engine.__init__"),
    ("dynamics.initial_field", "fracspde.dynamics", "build_initial_field"),
    ("dynamics.drift", "fracspde.dynamics", "_Engine.drift_block"),
    ("dynamics.nonlinear", "fracspde.dynamics", "_Engine.zeta_block"),
    ("dynamics.grid_transform", "fracspde.dynamics", "_Engine._to_grid"),
    ("dynamics.grid_transform", "fracspde.dynamics", "_Engine._from_grid"),
    ("fractional.kernel_increments", "fracspde.dynamics", "kernel_increments"),
    ("noise.plan_build", "fracspde.noise", "TransportPlan.__init__"),
    ("noise.transport", "fracspde.noise", "TransportPlan.apply"),
    ("noise.draw", "fracspde.noise", "sample_increments"),
    ("spectral.hermitianize", "fracspde.spectral", "hermitianize"),
    ("spectral.hermitianize", "fracspde.noise", "hermitianize"),
)


class Tracer:
    """Span stack, per-name totals and a bounded span list for one process."""

    def __init__(self):
        self.totals = {}  # name -> [calls, total_ns, self_ns]
        self.spans = []  # (id, parent id or -1, name, start_ns, end_ns)
        self.dropped = 0
        self.absent = {}  # span name -> reason its hook target is missing
        self.on_exit = {}  # span name -> callback(args, result, total_ns, self_ns)
        self._kept = {}
        self._stack = []
        self._top_ns = 0
        self._next_id = 0
        self._installed = []

    def wrap(self, name: str, fn):
        clock = time.perf_counter_ns
        stack = self._stack
        totals = self.totals.setdefault(name, [0, 0, 0])
        self._kept.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            frame = [sid, 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                else:
                    self._top_ns += dur
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[1]
                if self._kept[name] < PER_NAME_CAP:
                    self._kept[name] += 1
                    self.spans.append((sid, parent, name, t0, t1))
                else:
                    self.dropped += 1
            callback = self.on_exit.get(name)
            if callback is not None:
                callback(args, result, dur, dur - frame[1])
            return result

        return traced

    def install(self):
        """Wrap every hook target; a name none of whose targets exist is absent."""
        missing = {}
        for name, module_name, attr in HOOKS:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                missing[name] = f"{module_name}.{attr} not found"
                continue
            setattr(owner, leaf, self.wrap(name, original))
            self._installed.append((owner, leaf, original))
        self.absent.update((n, r) for n, r in missing.items() if n not in self.totals)

    def uninstall(self):
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed.clear()

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0, 0])[0]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0, 0])[1] / 1e9

    def mean_us(self, name: str) -> float:
        n = self.calls(name)
        return self.total_s(name) / n * 1e6 if n else 0.0

    def top_level_s(self) -> float:
        """Sum of the durations of spans that have no parent span."""
        return self._top_ns / 1e9

    def wrapped_calls(self) -> int:
        return sum(t[0] for t in self.totals.values())

    def write(self, path, extra: dict):
        payload = {
            "totals": {
                name: {"calls": c, "total_s": tot / 1e9, "self_s": slf / 1e9}
                for name, (c, tot, slf) in sorted(self.totals.items())
            },
            "absent": self.absent,
            "dropped_spans": self.dropped,
            "spans": [
                {"id": sid, "parent": parent, "name": name, "start_ns": t0, "end_ns": t1}
                for sid, parent, name, t0, t1 in self.spans
            ],
        }
        payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh)
