"""Per-layer metrics from the spans of the traced cycles.

Counts (`.calls`, `sdp.iters`, `.strategies`, `bytes_*`, `sdp.nonoptimal`)
and times (`.ms`, `.self_ms`) are per cycle, so a count repeats exactly
between runs with one seed.  `sdp.ms_per_iter`, `cli.import_ms` and
`cli.process_overhead_ms` are means per iteration or per child process.
Self time is a span's duration minus the part its child spans cover.
`monotones.audit.parallel_eff` counts the solves' thread CPU time, not their
wall time, so a solve waiting for the interpreter lock adds nothing.
"""

from __future__ import annotations

import statistics

from spans import ATTRS, CPU, END, NAME, OP, PARENT, START, covered, self_times

MONOTONES = (
    "steering_robustness", "steerable_weight", "optimal_steering_fraction",
    "robustness_program", "monotonicity_audit",
)

# name -> unit, in report order
UNITS = {
    "sdp.solve.calls": "count",
    "sdp.iters": "count",
    "sdp.solve.ms": "ms",
    "sdp.ms_per_iter": "ms",
    "sdp.solve.share": "frac",
    "sdp.rows_max": "count",
    "sdp.rows_mean": "count",
    "sdp.build.ms": "ms",
    "sdp.nonoptimal": "count",
    **{f"monotones.{fn}.{k}": u for fn in MONOTONES for k, u in (("calls", "count"), ("ms", "ms"))},
    "monotones.self_ms": "ms",
    "monotones.audit.parallel_eff": "frac",
    "assemblages.steer.ms": "ms",
    "assemblages.apply_instrument.calls": "count",
    "assemblages.apply_instrument.ms": "ms",
    "assemblages.lhs_membership.calls": "count",
    "assemblages.lhs_membership.ms": "ms",
    "assemblages.lhs_membership.self_ms": "ms",
    "functionals.steering_bound.ms": "ms",
    "functionals.steering_bound.strategies": "count",
    "functionals.lv_s.ms": "ms",
    "states.fef.ms": "ms",
    "games.kv_game.calls": "count",
    "games.kv_game.ms": "ms",
    "games.kv_fraction.ms": "ms",
    "criteria.ms": "ms",
    "serialize.decode.ms": "ms",
    "serialize.encode.ms": "ms",
    "serialize.bytes_in": "bytes",
    "serialize.bytes_out": "bytes",
    "cli.import_ms": "ms",
    "cli.process_overhead_ms": "ms",
    "cli.run.self_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
    **{
        f"reanchor.{point}.{k}": u
        for point in ("sr_d2m2", "sr_d3m3", "so_d3m3")
        for k, u in (("rows", "count"), ("iters", "count"), ("ms", "ms"))
    },
}


def layer_metrics(spans, windows, plain, traced, workload) -> dict:
    """`windows` are the traced operations' (start, end); `plain` and
    `traced` hold each cycle's latency by operation key."""
    cycles = len(traced)
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, record in enumerate(spans):
        by_name.setdefault(record[NAME], []).append(i)

    def dur(i: int) -> float:
        return spans[i][END] - spans[i][START]

    def ids(*names: str) -> list[int]:
        return [i for name in names for i in by_name.get(name, [])]

    def ms(*names: str) -> float:
        return 1e3 * sum(dur(i) for i in ids(*names)) / cycles

    def self_ms(*names: str) -> float:
        return 1e3 * sum(own[i] for i in ids(*names)) / cycles

    def calls(*names: str) -> float:
        return len(ids(*names)) / cycles

    def attr_sum(name: str, key: str) -> float:
        return sum(spans[i][ATTRS][key] for i in ids(name) if spans[i][ATTRS]) / cycles

    def under(i: int, prefix: str) -> bool:
        parent = spans[i][PARENT]
        while parent is not None:
            if spans[parent][NAME].startswith(prefix):
                return True
            parent = spans[parent][PARENT]
        return False

    solves = [i for i in ids("sdp.solve") if spans[i][ATTRS]]
    iters = sum(spans[i][ATTRS]["iters"] for i in solves)
    rows = [spans[i][ATTRS]["rows"] for i in solves]
    solve_intervals = [(spans[i][START], spans[i][END]) for i in solves]
    busy = sum(covered(solve_intervals, lo, hi) for lo, hi in windows)
    audits = ids("monotones.monotonicity_audit")
    audit_solves = [i for i in solves if under(i, "monotones.monotonicity_audit")]
    threads = getattr(workload, "threads", 1)
    processes, imports = ids("cli.process"), ids("cli.import")
    criteria_names = [n for n in by_name if n.startswith("criteria.")]
    outer_criteria = [i for i in ids(*criteria_names) if not under(i, "criteria.")]

    m = {
        "sdp.solve.calls": len(solves) / cycles,
        "sdp.iters": iters / cycles,
        "sdp.solve.ms": ms("sdp.solve"),
        "sdp.ms_per_iter": 1e3 * sum(dur(i) for i in solves) / iters if iters else 0.0,
        "sdp.solve.share": busy / sum(hi - lo for lo, hi in windows),
        "sdp.rows_max": max(rows, default=0),
        "sdp.rows_mean": statistics.fmean(rows) if rows else 0.0,
        "sdp.build.ms": ms("sdp.build"),
        "sdp.nonoptimal": sum(spans[i][ATTRS]["status"] != "optimal" for i in solves) / cycles,
    }
    for fn in MONOTONES:
        m[f"monotones.{fn}.calls"] = calls(f"monotones.{fn}")
        m[f"monotones.{fn}.ms"] = ms(f"monotones.{fn}")
    m["monotones.self_ms"] = self_ms(*(f"monotones.{fn}" for fn in MONOTONES))
    m["monotones.audit.parallel_eff"] = (
        sum(spans[i][CPU] for i in audit_solves) / (sum(dur(i) for i in audits) * threads)
        if audits else 0.0
    )
    m.update({
        "assemblages.steer.ms": ms("assemblages.steer"),
        "assemblages.apply_instrument.calls": calls("assemblages.apply_instrument"),
        "assemblages.apply_instrument.ms": ms("assemblages.apply_instrument"),
        "assemblages.lhs_membership.calls": calls("assemblages.lhs_membership"),
        "assemblages.lhs_membership.ms": ms("assemblages.lhs_membership"),
        "assemblages.lhs_membership.self_ms": self_ms("assemblages.lhs_membership"),
        "functionals.steering_bound.ms": ms("functionals.steering_bound"),
        "functionals.steering_bound.strategies": attr_sum("functionals.steering_bound", "strategies"),
        "functionals.lv_s.ms": ms("functionals.lv_s"),
        "states.fef.ms": ms("states.fef"),
        "games.kv_game.calls": calls("games.kv_game"),
        "games.kv_game.ms": ms("games.kv_game"),
        "games.kv_fraction.ms": ms("games.kv_fraction"),
        "criteria.ms": 1e3 * sum(dur(i) for i in outer_criteria) / cycles,
        "serialize.decode.ms": ms("serialize.decode"),
        "serialize.encode.ms": ms("serialize.encode"),
        "serialize.bytes_in": attr_sum("serialize.decode", "bytes_in"),
        "serialize.bytes_out": attr_sum("serialize.encode", "bytes_out"),
        "cli.import_ms": 1e3 * statistics.fmean(map(dur, imports)) if imports else 0.0,
        "cli.process_overhead_ms": (
            1e3 * (sum(map(dur, processes)) - sum(map(dur, ids("cli.run")))) / len(processes)
            if processes else 0.0
        ),
        "cli.run.self_ms": self_ms("cli.run"),
        "trace.overhead_pct": 100.0 * (
            sum(sum(c.values()) for c in traced) / sum(sum(c.values()) for c in plain) - 1.0
        ),
        "trace.spans": len(spans) / cycles,
    })
    for point in ("sr_d2m2", "sr_d3m3", "so_d3m3"):
        key = workload.REANCHOR.get(point)
        mine = [i for i in solves if spans[i][OP] == key] if key else []
        m[f"reanchor.{point}.rows"] = max((spans[i][ATTRS]["rows"] for i in mine), default=0)
        m[f"reanchor.{point}.iters"] = sum(spans[i][ATTRS]["iters"] for i in mine) / cycles
        m[f"reanchor.{point}.ms"] = (
            1e3 * statistics.median(c[key] for c in plain) if key else 0.0
        )
    return {name: (m[name], unit) for name, unit in UNITS.items()}
