"""steerkit benchmark: one workload, one seed, one timed or traced run.

    python3 bench/run.py --workload {solve_mid,audit_tiny,cli_cold} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from `src/`.  With
`--trace 0` the run sets up the workload, repeats whole cycles of its
operations until S seconds have passed, checks every output, and reports the
end-to-end metrics.  With `--trace 1` it runs
every operation twice, plain and then traced, in cycles until S seconds
have passed, and reports
the per-layer metrics from the traced calls together with the tracing
overhead against the plain ones.  Each run prints an environment line, a
table of every metric with its unit, and, as its last line, the JSON result.
It writes the full result (and, traced, the spans) under `bench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
CONFIRM_SEED = 2   # kept apart from tuning runs, for confirming claims


def _cpu_seconds(children: bool) -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    if children:
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        total += kids.ru_utime + kids.ru_stime
    return total


def _steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs; a
    large share during a run means its wall times say more about the host
    than about the program.  Reported, not corrected for."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_call(op):
    """Run one operation: (result or the exception it raised, start, end)."""
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as err:  # a failed operation is counted, not fatal
        result = err
    return result, start, time.perf_counter()


def run_cycle(workload):
    """One pass over the workload's operations: results and latencies by key."""
    results, latencies = {}, {}
    for op in workload.cycle():
        results[op.key], start, end = timed_call(op)
        latencies[op.key] = end - start
    return results, latencies


def verify(workload, cycles: list[dict]) -> list[str]:
    """Run the workload's oracle on every result; returns one line per failure."""
    failures = []
    for n, results in enumerate(cycles):
        for key, result in results.items():
            if isinstance(result, Exception):
                err = f"raised {type(result).__name__}: {result}"
            else:
                try:
                    err = workload.check(key, result, results, cycles[0])
                except Exception as exc:  # a malformed output fails its check
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err is not None:
                failures.append(f"cycle {n} {key}: {err}")
    return failures


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples above it,
    that percentile, and the sample count (the maximum below 11 samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(0, n - 11)
    return ordered[index], 100.0 * (index + 1) / n, n


def op_medians(per_cycle: list[dict]) -> dict:
    """Median latency in ms of each operation across cycles."""
    return {key: 1e3 * statistics.median(c[key] for c in per_cycle) for key in per_cycle[0]}


def _git_rev() -> str:
    """HEAD's commit, read from `.git` in the checkout without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int, workload) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "audit_threads": min(4, os.cpu_count() or 1),
        "seed": seed,
        "confirm_seed": CONFIRM_SEED,
        "workload": workload.name,
    }


def measure(workload, seconds: float) -> dict:
    """Whole cycles until `seconds` have passed and MIN_CYCLES are done."""
    children = not workload.in_process
    cycles, per_cycle = [], []
    cpu0, steal0 = _cpu_seconds(children), _steal_seconds()
    start = time.perf_counter()
    while True:
        results, lat = run_cycle(workload)
        cycles.append(results)
        per_cycle.append(lat)
        if len(cycles) >= workload.MIN_CYCLES and time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    steal = _steal_seconds() - steal0
    return {
        "cycles": cycles,
        "per_cycle": per_cycle,
        "wall": wall,
        "cpu": _cpu_seconds(children) - cpu0,
        "steal_share": steal / (wall * (os.cpu_count() or 1)),
    }


def timed_run(workload, seconds: float) -> tuple[dict, dict, list[str]]:
    run = measure(workload, seconds)
    per_cycle, wall = run["per_cycle"], run["wall"]
    failures = verify(workload, run["cycles"])
    latencies = [s for lat in per_cycle for s in lat.values()]
    attempted = len(latencies)
    ok = attempted - len(failures)
    tail_s, tail_pct, samples = tail(latencies)
    metrics = {
        "ops_per_s": (ok / wall, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "cpu_ms_per_op": (1e3 * run["cpu"] / attempted, "ms"),
        "ok_frac": (ok / attempted, "frac"),
        "peak_rss_mb": (_peak_rss_mb(not workload.in_process), "MB"),
    }
    details = {
        "cycles": len(per_cycle),
        "wall_s": wall,
        "steal_share": run["steal_share"],
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "op_tail_percentile": tail_pct,
        "op_tail_samples": samples,
        "op_ms": op_medians(per_cycle),
    }
    return metrics, details, failures


def traced_run(workload, seconds: float):
    from layers import layer_metrics
    from spans import Tracer

    # Each operation runs plain and then traced, back to back, so the
    # overhead compares the two under the same machine load.
    tracer = Tracer()
    pairs = list(zip(workload.cycle(), workload.cycle(tracer)))
    plain, traced, windows, cycles = [], [], [], []
    start = time.perf_counter()
    while True:
        results, lat = ({}, {}), ({}, {})
        for plain_op, traced_op in pairs:
            key = plain_op.key
            results[0][key], begin, end = timed_call(plain_op)
            lat[0][key] = end - begin
            tracer.op = key
            if workload.in_process:
                tracer.install()
            try:
                results[1][key], begin, end = timed_call(traced_op)
            finally:
                tracer.uninstall()
            lat[1][key] = end - begin
            windows.append((begin, end))
        cycles.extend(results)
        plain.append(lat[0])
        traced.append(lat[1])
        if time.perf_counter() - start >= seconds:
            break
    failures = verify(workload, cycles)
    metrics = layer_metrics(tracer.spans, windows, plain, traced, workload)
    details = {
        "cycles": len(traced),
        "attempted": sum(len(c) for c in cycles),
        "failed": len(failures),
        "spans": len(tracer.spans),
        "op_ms": op_medians(plain),
        "op_ms_traced": op_medians(traced),
    }
    return metrics, details, failures, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("solve_mid", "audit_tiny", "cli_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "steerkit" / "__init__.py").is_file():
        sys.stderr.write(f"no steerkit sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2

    import_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy and steerkit

    import_s = time.perf_counter() - import_start

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setups = []
        for _ in range(SETUP_REPEATS):
            begin = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - begin)
        setup_s = import_s + statistics.median(setups)
        if args.trace:
            metrics, details, failures, spans = traced_run(workload, args.seconds)
        else:
            metrics, details, failures = timed_run(workload, args.seconds)
            metrics["setup_s"] = (setup_s, "s")
            spans = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details.update(setup_runs_s=setups, import_s=import_s)

    env = environment(args.seed, workload)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "env": env,
        "details": details,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    if spans is not None:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")

    print(json.dumps({"env": env, "details": details}))
    for line in failures:
        print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<11} {name:<40} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
