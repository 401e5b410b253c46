"""In-memory spans around calls into steerkit's public functions.

A `Tracer` replaces module attributes with timing wrappers.  It patches the
name each caller binds (both `steerkit.monotones.solve` and
`steerkit.functionals.solve`, because both modules import `solve` by name),
so no file under `src/` changes.  Spans are kept in memory as
[name, start, end, parent, op, thread, attrs, cpu] (`cpu` is the calling
thread's CPU time inside the span) and written out when the benchmark ends.  A span opened in a pool thread with no open span of its
own takes the main thread's innermost open span as its parent, so the
solves an audit fans out still count as the audit's children.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time

NAME, START, END, PARENT, OP, THREAD, ATTRS, CPU = range(8)

# (module, attribute, span name).  Every binding a caller goes through is
# listed, so each call is seen exactly once whatever its caller.
_SERIALIZE = [
    ("steerkit.cli", name, "serialize.decode")
    for name in (
        "load_json", "decode_state", "decode_assemblage", "decode_functional",
        "decode_measurements", "decode_bell", "decode_correlation",
    )
] + [
    ("steerkit.cli", name, "serialize.encode")
    for name in (
        "encode_assemblage", "encode_bell", "encode_functional", "encode_matrix",
        "encode_measurements", "render_report",
    )
]
# `harmonic`, `kappa` and the `lvs_upper_*` ceilings are left unwrapped: the
# planner and the reference table call them tens of thousands of times per
# command, and their time shows in their callers' spans.
_CRITERIA = [
    ("steerkit.criteria", name, f"criteria.{name}")
    for name in (
        "isotropic_thresholds", "fef_threshold", "mub_threshold", "bell_upper_bounds",
        "bell_sufficient", "superactivation_min_copies", "amplification_plan",
    )
]
TARGETS = [
    ("steerkit.monotones", "solve", "sdp.solve"),
    ("steerkit.functionals", "solve", "sdp.solve"),
    ("steerkit.sdp", "SdpProblem.add_block", "sdp.build"),
    ("steerkit.sdp", "SdpProblem.set_objective", "sdp.build"),
    ("steerkit.sdp", "SdpProblem.add_matrix_equality", "sdp.build"),
    ("steerkit.sdp", "SdpProblem.add_scalar_constraint", "sdp.build"),
    ("steerkit.monotones", "optimal_steering_fraction", "monotones.optimal_steering_fraction"),
    ("steerkit.monotones", "steerable_weight", "monotones.steerable_weight"),
    ("steerkit.monotones", "steering_robustness", "monotones.steering_robustness"),
    ("steerkit.monotones", "robustness_program", "monotones.robustness_program"),
    ("steerkit.monotones", "monotonicity_audit", "monotones.monotonicity_audit"),
    ("steerkit.monotones", "apply_instrument", "assemblages.apply_instrument"),
    ("steerkit.assemblages", "lhs_membership", "assemblages.lhs_membership"),
    ("steerkit.assemblages", "steer", "assemblages.steer"),
    ("steerkit.functionals", "steer", "assemblages.steer"),
    ("steerkit.functionals", "steering_bound", "functionals.steering_bound"),
    ("steerkit.functionals", "lv_s", "functionals.lv_s"),
    ("steerkit.criteria", "lv_s", "functionals.lv_s"),
    ("steerkit.games", "kv_game", "games.kv_game"),
    ("steerkit.cli", "steer", "assemblages.steer"),
    ("steerkit.cli", "steering_bound", "functionals.steering_bound"),
    ("steerkit.cli", "lv_s", "functionals.lv_s"),
    ("steerkit.cli", "optimal_steering_fraction", "monotones.optimal_steering_fraction"),
    ("steerkit.cli", "steerable_weight", "monotones.steerable_weight"),
    ("steerkit.cli", "steering_robustness", "monotones.steering_robustness"),
    ("steerkit.cli", "fef", "states.fef"),
    ("steerkit.cli", "kv_game", "games.kv_game"),
    ("steerkit.cli", "kv_fraction", "games.kv_fraction"),
    ("steerkit.cli", "run", "cli.run"),
] + _SERIALIZE + _CRITERIA


def _solve_attrs(args, kwargs, result):
    problem = args[0]
    return {
        "rows": problem.n_constraints,
        "blocks": len(problem.blocks),
        "iters": result.iterations,
        "status": result.status,
    }


def _bound_attrs(args, kwargs, result):
    func = args[0]
    return {"strategies": func.outcomes ** func.settings}


def _load_attrs(args, kwargs, result):
    return {"bytes_in": os.path.getsize(args[0])}


def _render_attrs(args, kwargs, result):
    return {"bytes_out": len(result.encode("utf-8"))}


_ATTRS = {
    "solve": _solve_attrs,
    "steering_bound": _bound_attrs,
    "load_json": _load_attrs,
    "render_report": _render_attrs,
}


class Tracer:
    """Collects spans from wrapped calls; `op` tags the operation in flight."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            record = [name, 0.0, None, parent, self.op, threading.get_ident(), None, None]
            with self._lock:
                self.spans.append(record)
                index = len(self.spans) - 1
            stack.append(index)
            cpu = time.thread_time()
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                record[CPU] = time.thread_time() - cpu
                stack.pop()
            if attrs is not None:
                record[ATTRS] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; `uninstall` puts the originals back."""
        for module_name, attr, span in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(span, original, _ATTRS.get(leaf)))

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    def record(self, name: str, start: float, end: float) -> int:
        """Add a span timed by the caller; returns its index."""
        with self._lock:
            self.spans.append([name, start, end, None, self.op, threading.get_ident(), None, None])
            return len(self.spans) - 1

    def adopt(self, spans: list[list], root: int) -> None:
        """Append spans recorded in a child process under the span `root`,
        with parent indices shifted into this tracer."""
        with self._lock:
            base = len(self.spans)
            for record in spans:
                record = list(record)
                record[PARENT] = root if record[PARENT] is None else record[PARENT] + base
                record[OP] = self.op
                self.spans.append(record)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        if record[PARENT] is not None:
            children.setdefault(record[PARENT], []).append((record[START], record[END]))
    return [
        (r[END] - r[START]) - covered(children.get(i, []), r[START], r[END])
        for i, r in enumerate(spans)
    ]
