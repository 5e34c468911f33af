"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gate
import run
import spec
from workloads import WORKLOADS

em, _ = run.load_emdflow(run.ROOT)

COUNTS = ("calls", "fail", "cells", "flops_computed", "zero_share", "degenerate_share",
          "gate_trips", "solves_per_pair")


def tiny(name, seed, trace):
    return run.run_workload(name, seed, seconds=0.0, trace=trace, tiny=True)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_completes_with_declared_metrics(name, trace):
    metrics, _, outcome = tiny(name, 3, trace)
    assert outcome.failed == 0, outcome.notes
    assert outcome.attempted > 0
    declared = spec.per_layer_units() if trace else {n: u for n, (u, _, _) in spec.END_TO_END.items()}
    assert {n: m["unit"] for n, m in metrics.items()} == declared
    assert all(np.isfinite(m["value"]) for m in metrics.values())


def test_emitted_names_are_well_formed():
    names = [*spec.WORKLOADS, *spec.END_TO_END, *spec.per_layer_units()]
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_RE.fullmatch(name), name
    for m in [*spec.manifest()["end_to_end"], *spec.manifest()["per_layer"]]:
        assert len(m["unit"]) <= 16 and all(ch.isalnum() or ch in "_/%.-" for ch in m["unit"])


def test_manifest_file_matches_spec():
    assert (run.ROOT / "BENCHMARK.json").read_text() == spec.manifest_text()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_identical_counts_and_quality(name):
    first, second = tiny(name, 5, 1)[0], tiny(name, 5, 1)[0]
    for metric in first:
        if metric.rsplit(".", 1)[-1] in COUNTS:
            assert first[metric] == second[metric], metric
    assert tiny(name, 5, 0)[0]["quality"] == tiny(name, 5, 0)[0]["quality"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_different_seed_gives_different_inputs(name):
    cls = WORKLOADS[name]
    assert cls(em, 1, tiny=True).fingerprint() != cls(em, 2, tiny=True).fingerprint()
    assert cls(em, 1, tiny=True).fingerprint() == cls(em, 1, tiny=True).fingerprint()


def _solved_problem(seed=0, n=5):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, (2, n))
    p = em.transport.TransportProblem(cost=rng.uniform(0, 2, (n, n)),
                                      supply=w[0] / w[0].sum(), demand=w[1] / w[1].sum())
    return p, em.transport.solve_simplex(p)


def test_certificate_accepts_optimum_and_rejects_corruptions():
    p, sol = _solved_problem()
    assert gate.certificate(p, sol) == []
    assert gate.certificate(p, dataclasses.replace(sol, flows=sol.flows * 1.01))
    assert gate.certificate(p, dataclasses.replace(sol, objective=sol.objective * 1.01))
    raised = sol.duals_eq.copy()
    raised[0] += 0.05
    assert gate.certificate(p, dataclasses.replace(sol, duals_eq=raised))


def test_gate_catches_corrupted_sweep_solution():
    wl = WORKLOADS["pair_sweep"](em, 2, tiny=True)
    outputs = [wl.run_unit(i).output for i in range(wl.units)]
    assert all(c.ok for c in wl.gate(outputs, np.random.default_rng(0)))
    p, simplex, ipm, full = outputs[0]
    outputs[0] = (p, dataclasses.replace(simplex, flows=simplex.flows * 1.01), ipm, full)
    failed = [c for c in wl.gate(outputs, np.random.default_rng(0)) if not c.ok]
    assert [c.name for c in failed] == ["sweep.certificate"]


def test_gate_catches_wrong_retrieval_similarity():
    wl = WORKLOADS["retrieval_gallery"](em, 2, tiny=True)
    outputs = [wl.run_unit(i).output for i in range(wl.units)]
    assert all(c.ok for c in wl.gate(outputs, np.random.default_rng(0)))
    for run_, _ in outputs:
        off = ~np.eye(len(run_.similarity), dtype=bool)
        run_.similarity[off] *= 1.01
    assert any(c.name == "retrieval.certificate" and not c.ok
               for c in wl.gate(outputs, np.random.default_rng(0)))


def test_map_at_r_reference_matches_hand_computed_ranking():
    labels = [0, 0, 1, 1]
    sim = np.array([[0, .9, .8, .1], [.9, 0, .2, .3], [.8, .2, 0, .7], [.1, .3, .7, 0]], float)
    # query 0 ranks 1 first (hit): 1.0; query 1 ranks 0 first: 1.0;
    # query 2 ranks 0, 3: hit at rank 2 -> 0.5; query 3 ranks 2 first: 1.0
    assert gate.map_at_r(sim, labels) == pytest.approx(3.5 / 4)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "episode_1shot",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
