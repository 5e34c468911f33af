"""Benchmark of the emdflow stack: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload episode_1shot --seed 1 --seconds 25 --trace 0

``--workload all`` (the default) runs every workload in one process.  An
untraced run (``--trace 0``) times whole passes over the workload's units
for about ``--seconds`` and prints the end-to-end metrics; a traced run
(``--trace 1``) runs one pass untraced and one pass traced and prints the
per-layer metrics.  Both end with the correctness gate, outside the timed
region.  The last line of output is one JSON object; the exit code is 0
only when every unit and every check succeeded.  emdflow is imported from
``src/`` next to this directory and nowhere else.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: load comes from this single process, and with
# the default of one thread per core the interior point's small dense
# factorizations swing between ~5 ms and ~200 ms at 25 nodes.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import spec  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_EVERY_S = 2.0
SETUP_REPEATS = 5   # at least this many set-ups per timed run
MIN_UNITS = 20      # so the unit median has ten samples beyond it
TAIL_BEYOND = 10


def load_emdflow(root: Path):
    """Import emdflow from ``root/src`` afresh; return (module, import seconds).

    Its own modules are dropped from ``sys.modules`` first, so every call
    pays emdflow's import; numpy and scipy stay loaded after the first.
    """
    src = (root / "src").resolve()
    if not (src / "emdflow" / "__init__.py").is_file():
        raise SystemExit(f"emdflow sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "emdflow" or n.startswith("emdflow.")]:
        del sys.modules[name]
    t0 = perf_counter()
    em = importlib.import_module("emdflow")
    import_s = perf_counter() - t0
    if Path(em.__file__).resolve().parent != src / "emdflow":
        raise SystemExit(f"imported emdflow from {em.__file__}, not from {src}")
    return em, import_s


def environment() -> dict:
    import numpy
    import scipy
    threads = None
    try:
        with open("/proc/self/status") as fh:
            threads = next((int(line.split()[1]) for line in fh if line.startswith("Threads:")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "process_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def tail(times_ms):
    """(value, percentile, samples): the highest order statistic with
    TAIL_BEYOND samples above it, never below the median."""
    ordered = sorted(times_ms)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)  # 1-based
    return ordered[rank - 1], 100.0 * rank / n, n


class Outcome:
    """Attempted and failed operations of one workload run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def unit(self, workload, i):
        """Run unit i; a raised error counts as a failed operation."""
        self.attempted += 1
        try:
            return workload.run_unit(i)
        except Exception:  # a typed error from the library is a failure, not a crash
            self.failed += 1
            self.notes.append(f"unit {i}: {traceback.format_exc(limit=3)}")
            return None

    def gate(self, workload, outputs, seed, extra=()):
        """Run the workload's gate on complete first-pass outputs; count each check.

        Missing outputs (a unit failed) or an error inside the gate count
        as one more failed check.
        """
        import numpy as np
        from gate import Check
        if len(outputs) != workload.units:
            checks = [Check("gate.skipped", False, "a unit of the checked pass failed")]
        else:
            try:
                checks = workload.gate(outputs, np.random.default_rng([seed, 1]))
            except Exception:
                checks = [Check("gate.error", False, traceback.format_exc(limit=3))]
        for c in [*checks, *extra]:
            self.attempted += 1
            if not c.ok:
                self.failed += 1
                self.notes.append(f"check {c.name} failed: {c.detail}")


def setup(workload_cls, seed, tiny):
    """Import emdflow afresh and build the workload; return (workload, seconds)."""
    t0 = perf_counter()
    em, _ = load_emdflow(ROOT)
    wl = workload_cls(em, seed, tiny)
    return wl, perf_counter() - t0


def timed_run(workload_cls, seed, seconds, tiny=False):
    """Untraced run: whole passes for about ``seconds``; end-to-end metrics.

    The host's speed drifts over seconds, so set-up is repeated between
    units, about every SETUP_EVERY_S, rather than all at once; its median
    then sees the same drift as the units.  Only unit time counts as the
    timed region.
    """
    outcome = Outcome()
    wl, first_setup_s = setup(workload_cls, seed, tiny)
    setup_times = [first_setup_s]
    times_ms, pairs, first_pass, passes = [], 0, [], 0
    last_setup = perf_counter()
    while True:
        passes += 1
        for i in range(wl.units):
            t0 = perf_counter()
            unit = outcome.unit(wl, i)
            t1 = perf_counter()
            times_ms.append((t1 - t0) * 1e3)
            if unit is not None:
                pairs += unit.pairs
            if len(first_pass) < wl.units:
                first_pass.append(unit)
            if not tiny and t1 - last_setup >= SETUP_EVERY_S:
                setup_times.append(setup(workload_cls, seed, tiny)[1])
                last_setup = perf_counter()
        elapsed = sum(times_ms) / 1e3
        # Stop at the pass boundary nearest to ``seconds``.
        if elapsed + elapsed / passes / 2 >= seconds and (tiny or len(times_ms) >= MIN_UNITS):
            break
    while not tiny and len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup(workload_cls, seed, tiny)[1])
    outputs = [u.output for u in first_pass if u is not None]
    outcome.gate(wl, outputs, seed)
    tail_ms, tail_pct, n = tail(times_ms)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pairs_per_s": pairs / elapsed,
        "unit_ms_tail": tail_ms,
        "ok_share": 1.0 - outcome.failed / outcome.attempted,
        "quality": wl.quality(outputs) if len(outputs) == wl.units else 0.0,
    }
    info = {"unit_ms_p50": statistics.median(times_ms), "units": n, "passes": passes,
            "pairs": pairs, "elapsed_s": elapsed, "tail_percentile": tail_pct,
            "setups": len(setup_times)}
    return metrics, info, outcome


def traced_run(workload_cls, seed, tiny=False, write_to=None):
    """One pass untraced, one pass traced; per-layer metrics."""
    from gate import Check
    from tracer import Tracer
    outcome = Outcome()
    wl, _ = setup(workload_cls, seed, tiny)
    em = wl.em
    t0 = perf_counter()
    plain = [outcome.unit(wl, i) for i in range(wl.units)]
    plain_s = perf_counter() - t0
    tracer = Tracer(em)
    with tracer.active():
        traced_wl = workload_cls(em, seed, tiny)
        t0 = perf_counter()
        traced = []
        for i in range(wl.units):
            tracer.unit = f"unit{i}"
            traced.append(outcome.unit(traced_wl, i))
        traced_s = perf_counter() - t0
    if write_to is not None:
        tracer.write(write_to)
    a = [u.output for u in plain if u is not None]
    b = [u.output for u in traced if u is not None]
    same = (len(a) == len(b) == wl.units and wl.results(a) == traced_wl.results(b)
            and wl.quality(a) == traced_wl.quality(b))
    outcome.gate(wl, a, seed, extra=[Check("trace.same_results", same,
                                           "traced and untraced passes differ")])
    pairs = sum(u.pairs for u in traced if u is not None)
    metrics = tracer.layer_metrics(pairs)
    metrics["trace.overhead_s"] = traced_s - plain_s
    info = {"units": wl.units, "pairs": pairs, "untraced_s": plain_s, "traced_s": traced_s,
            "spans": len(tracer.spans)}
    return metrics, info, outcome


def run_workload(name, seed, seconds, trace, tiny=False):
    """Run one workload; return (metrics with units, info, outcome)."""
    from workloads import WORKLOADS
    cls = WORKLOADS[name]
    if trace:
        RESULTS.mkdir(exist_ok=True)
        spans_path = None if tiny else RESULTS / f"spans-{name}-seed{seed}.jsonl"
        values, info, outcome = traced_run(cls, seed, tiny, spans_path)
        units = spec.per_layer_units()
    else:
        values, info, outcome = timed_run(cls, seed, seconds, tiny)
        units = {n: u for n, (u, _, _) in spec.END_TO_END.items()}
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    return metrics, info, outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        print(spec.write_manifest(ROOT))
        return 0

    t0 = perf_counter()
    load_emdflow(ROOT)
    first_import_s = perf_counter() - t0
    env = {**environment(), "first_import_s": first_import_s}
    print("env " + json.dumps(env), flush=True)
    names = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    combined, attempted, failed = {}, 0, 0
    for name in names:
        metrics, info, outcome = run_workload(name, args.seed, args.seconds, args.trace)
        for note in outcome.notes:
            print(f"FAIL {name}: {note}", file=sys.stderr)
        for metric, m in metrics.items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
        print(f"{name} info " + json.dumps(info), flush=True)
        RESULTS.mkdir(exist_ok=True)
        record = {"workload": name, "seed": args.seed, "trace": args.trace, "env": env,
                  "info": info, "metrics": metrics,
                  "attempted": outcome.attempted, "failed": outcome.failed}
        (RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n")
        prefix = "" if len(names) == 1 else f"{name}."
        combined.update({prefix + k: v for k, v in metrics.items()})
        attempted += outcome.attempted
        failed += outcome.failed
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": combined}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
