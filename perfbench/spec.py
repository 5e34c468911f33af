"""What the benchmark measures: workloads, metric names, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-manifest``); the self-tests check that
the committed file still matches it.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

RUN_SECONDS = 25

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

WORKLOADS = {
    "episode_1shot": "5-way 1-shot inference at 25 nodes; solve_simplex does most of the work, backward and IPM none",
    "sfc_5shot": "5-way 5-shot SFC fit, 750 forward+envelope-backward calls on slowly moving prototypes; the training path",
    "retrieval_gallery": "self-retrieval over seeded 25-node galleries; every pair is symmetric and shares one gallery",
    "pair_sweep": "single pairs at 4, 25 and 100 nodes through simplex, interior point and full-mode KKT backward",
}

# name -> (unit, better, bound).  The host these were tuned on changes
# speed by ~1.4x in phases of seconds to tens of seconds, so a 25 s run
# lands in one phase or the other; the timing bounds leave room for that.
# The unit median flips between the phases (its spread over ten seeded
# runs reached 0.21-0.23), so it is printed with every run but kept out
# of this set; the tail and the throughput stay.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "pairs_per_s": ("1/s", "higher", 0.25),
    "unit_ms_tail": ("ms", "lower", 0.25),
    "ok_share": ("share", "higher", 0.01),
    "quality": ("share", "higher", 0.1),
}

# Spans recorded by the traced run, one per public function a layer is
# entered through.  Each yields <name>.calls, <name>.self_s and <name>.fail.
LAYER_SPANS = (
    "synth.generate",
    "tensor_io.DenseTensor.from_array",
    "metric.extract",
    "metric.cost_matrix",
    "metric.cross_reference_weights",
    "metric.pair_similarity",
    "metric.emd_similarity",
    "metric.similarity_node_grads",
    "transport.TransportProblem",
    "transport.solve_simplex",
    "transport.solve_interior_point",
    "diff.envelope",
    "diff.full",
    "fewshot.sample_episode",
    "fewshot.classify_1shot",
    "fewshot.fit_sfc",
    "fewshot.classify_kshot",
    "retrieval.rank_gallery",
    "retrieval.metrics",
)

SWEEP_SIZES = (4, 25, 100)

# name -> unit, for the counters measured at the same boundaries.
LAYER_COUNTERS = {
    "transport.solve_simplex.cells": "count",
    "transport.solve_interior_point.cells": "count",
    "transport.solve_simplex.degenerate_share": "share",
    "metric.cost_matrix.flops_computed": "flop",
    "metric.cross_reference_weights.zero_share": "share",
    "diff.full.gate_trips": "count",
    "transport.solves_per_pair": "ratio",
    **{f"transport.solve_simplex.ms_p50.n{n}": "ms" for n in SWEEP_SIZES},
    **{f"transport.solve_interior_point.ms_p50.n{n}": "ms" for n in SWEEP_SIZES},
    **{f"diff.full.ms_p50.n{n}": "ms" for n in SWEEP_SIZES[:2]},
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for span in LAYER_SPANS:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
        units[f"{span}.fail"] = "count"
    units.update(LAYER_COUNTERS)
    return units


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        # Every layer metric counts work, time or failures: less is better.
        "per_layer": [{"name": n, "unit": u, "better": "lower"}
                      for n, u in per_layer_units().items()],
    }


def manifest_text() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


def write_manifest(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(manifest_text())
    return path
