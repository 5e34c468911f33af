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
    with tracer.active():
        assert all(_current(o, k) is not b for (o, k), b in zip(points, before))
        emdflow.retrieval.rank_gallery(items, items)
    assert all(_current(o, k) is b for (o, k), b in zip(points, before))
    # Every off-diagonal pair is one traced pair_similarity call.
    calls = sum(s.name == "metric.pair_similarity" for s in tracer.spans)
    assert calls == len(items) * (len(items) - 1)
