"""The benchmark's tracer (perfbench/tracer.py) hooks into emdflow by name.

It replaces module attributes such as ``emdflow.fewshot.pair_similarity``
while a traced run is active.  Entering and leaving it here makes a
refactor that drops or renames one of those names fail this suite, not
only the traced benchmark run.
"""

from pathlib import Path

import numpy as np

import emdflow
from emdflow.metric import EmbeddingSet

from conftest import counted_calls

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _current(owner, key):
    if isinstance(owner, dict):
        return owner[key]
    if isinstance(owner, type):
        return vars(owner)[key]  # the raw classmethod, as the tracer saves it
    return getattr(owner, key)


def test_tracer_patches_and_restores_every_hook_point(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    tracer = Tracer(emdflow)
    points = [(owner, key) for owner, key, _ in tracer._patch_points()]
    before = [_current(owner, key) for owner, key in points]
    rng = np.random.default_rng(0)
    items = [(i, EmbeddingSet(rng.standard_normal((3, 4)))) for i in range(3)]
    solves = counted_calls(monkeypatch, emdflow.transport, "_simplex")
    with tracer.active():
        assert all(_current(o, k) is not b for (o, k), b in zip(points, before))
        emdflow.retrieval.rank_gallery(items, items)
    assert all(_current(o, k) is b for (o, k), b in zip(points, before))
    # Every unordered off-diagonal pair is one simplex kernel run.
    assert len(solves) == len(items) * (len(items) - 1) // 2


def test_traced_1shot_builds_every_cost_and_prunes_solves(monkeypatch):
    """Traced 1-shot scoring builds every pair's cost in one stacked product,
    runs the simplex kernel only on the pairs whose bound can still win, and
    builds an exact cost block only for those."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    col = emdflow.generate(emdflow.SynthSpec(class_count=5, sets_per_class=4, spatial=(2, 2),
                                             channels=8, cluster_sep=8.0, seed=1))
    ep = emdflow.sample_episode(col, 5, 1, 3, seed=0)
    tracer = Tracer(emdflow)
    costs = counted_calls(monkeypatch, emdflow.metric, "_cosine")
    solves = counted_calls(monkeypatch, emdflow.transport, "_simplex")
    with tracer.active():
        emdflow.fewshot.classify_1shot(ep)
    pairs = len(ep.query) * ep.n_way
    assert len(costs) == 1 + len(solves)
    assert 0 < len(solves) < pairs
