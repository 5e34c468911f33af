"""Spans at emdflow's layer boundaries, recorded from outside the library.

While a :class:`Tracer` is active it replaces the module attributes each
layer is called through (for example ``emdflow.fewshot.pair_similarity``
or the ``"simplex"`` entry of ``emdflow.transport.SOLVERS``) with wrappers
that record a span per call, and it restores them on exit.  Spans stay in
memory until :meth:`Tracer.write` saves them.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter

import numpy as np

import spec


@dataclass
class Span:
    id: int
    parent: int | None
    unit: str
    name: str
    start: float
    end: float = 0.0
    error: str | None = None
    size: int | None = None  # m of the transport problem, where there is one


def _problem_arg(name):
    """Where a wrapped function receives its TransportProblem, if anywhere."""
    if name.startswith("transport.solve_"):
        return lambda args, kwargs: args[0] if args else kwargs["p"]
    if name in ("diff.envelope", "diff.full"):
        return lambda args, kwargs: args[2] if len(args) > 2 else kwargs["p"]
    return None


def _backward_mode(args, kwargs):
    mode = args[3] if len(args) > 3 else kwargs.get("mode", "envelope")
    return f"diff.{mode}"


class Tracer:
    def __init__(self, em):
        self.em = em
        self.spans: list[Span] = []
        self.unit = "setup"
        self._stack: list[Span] = []
        self.counters = defaultdict(float)

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, name):
        """``name`` is a span name or a function of the call's arguments."""
        tracer = self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            span = Span(id=len(tracer.spans),
                        parent=tracer._stack[-1].id if tracer._stack else None,
                        unit=tracer.unit, name=span_name, start=perf_counter())
            tracer.spans.append(span)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            where = _problem_arg(span_name)
            if where is not None:
                span.size = where(args, kwargs).m
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result
        return traced

    def _patch_points(self):
        em = self.em
        t, m, f, r = em.transport, em.metric, em.fewshot, em.retrieval
        dense = em.tensor_io.DenseTensor
        return [
            (em.synth, "generate", "synth.generate"),
            (dense, "from_array", "tensor_io.DenseTensor.from_array"),
            (m, "extract", "metric.extract"),
            (f, "extract", "metric.extract"),
            (m, "cost_matrix", "metric.cost_matrix"),
            (m, "cross_reference_weights", "metric.cross_reference_weights"),
            (m, "pair_similarity", "metric.pair_similarity"),
            (f, "pair_similarity", "metric.pair_similarity"),
            (r, "pair_similarity", "metric.pair_similarity"),
            (m, "emd_similarity", "metric.emd_similarity"),
            (m, "similarity_node_grads", "metric.similarity_node_grads"),
            (f, "similarity_node_grads", "metric.similarity_node_grads"),
            (t, "TransportProblem", "transport.TransportProblem"),
            (m, "TransportProblem", "transport.TransportProblem"),
            (t, "solve_simplex", "transport.solve_simplex"),
            (t, "solve_interior_point", "transport.solve_interior_point"),
            (t.SOLVERS, "simplex", "transport.solve_simplex"),
            (t.SOLVERS, "interior_point", "transport.solve_interior_point"),
            (t.SOLVERS, "ipm", "transport.solve_interior_point"),
            (m, "backward_similarity", _backward_mode),
            (em.diff, "backward_similarity", _backward_mode),
            (f, "sample_episode", "fewshot.sample_episode"),
            (f, "classify_1shot", "fewshot.classify_1shot"),
            (f, "fit_sfc", "fewshot.fit_sfc"),
            (f, "classify_kshot", "fewshot.classify_kshot"),
            (r, "rank_gallery", "retrieval.rank_gallery"),
            (r, "metrics", "retrieval.metrics"),
        ]

    @contextlib.contextmanager
    def active(self):
        """Patch every layer boundary; restore the originals on exit."""
        undo = []
        try:
            for owner, key, name in self._patch_points():
                if isinstance(owner, dict):
                    undo.append((owner.__setitem__, key, owner[key]))
                    owner[key] = self._wrap(owner[key], name)
                elif isinstance(owner, type):
                    # Keep the raw classmethod so restoring is exact.
                    undo.append((lambda k, v, o=owner: setattr(o, k, v), key, vars(owner)[key]))
                    setattr(owner, key, staticmethod(self._wrap(getattr(owner, key), name)))
                else:
                    undo.append((lambda k, v, o=owner: setattr(o, k, v), key, getattr(owner, key)))
                    setattr(owner, key, self._wrap(getattr(owner, key), name))
            yield self
        finally:
            for restore, key, original in reversed(undo):
                restore(key, original)

    # -- reporting -------------------------------------------------------

    def layer_metrics(self, pairs: int) -> dict:
        """Every per-layer metric of ``spec``, from the recorded spans.

        ``pairs`` is the number of similarities the traced units delivered.
        A layer with no calls reports zeros.
        """
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        calls, self_s, fail = defaultdict(int), defaultdict(float), defaultdict(int)
        per_size = defaultdict(list)
        for s in self.spans:
            calls[s.name] += 1
            self_s[s.name] += (s.end - s.start) - child_time[s.id]
            fail[s.name] += s.error is not None
            if s.size is not None:
                per_size[(s.name, s.size)].append((s.end - s.start) * 1e3)
        out = {}
        for name in spec.LAYER_SPANS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.fail"] = fail[name]
        c = self.counters
        simplex, ipm = calls["transport.solve_simplex"], calls["transport.solve_interior_point"]
        out["transport.solve_simplex.cells"] = int(c["simplex_cells"])
        out["transport.solve_interior_point.cells"] = int(c["ipm_cells"])
        out["transport.solve_simplex.degenerate_share"] = c["simplex_degenerate"] / simplex if simplex else 0.0
        out["metric.cost_matrix.flops_computed"] = int(c["cost_flops"])
        out["metric.cross_reference_weights.zero_share"] = (
            c["weights_zero"] / c["weights_nodes"] if c["weights_nodes"] else 0.0)
        out["diff.full.gate_trips"] = sum(1 for s in self.spans
                                          if s.name == "diff.full" and s.error == "SingularKktError")
        out["transport.solves_per_pair"] = (simplex + ipm) / pairs if pairs else 0.0
        for name in spec.LAYER_COUNTERS:
            if ".ms_p50.n" in name:
                layer, n = name.split(".ms_p50.n")
                samples = per_size.get((layer, int(n)))
                out[name] = float(np.median(samples)) if samples else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _count_simplex(counters, args, kwargs, sol):
    p = args[0] if args else kwargs["p"]
    counters["simplex_cells"] += p.m * p.k
    counters["simplex_degenerate"] += bool(sol.degenerate)


def _count_ipm(counters, args, kwargs, sol):
    p = args[0] if args else kwargs["p"]
    counters["ipm_cells"] += p.m * p.k


def _count_cost(counters, args, kwargs, cost):
    counters["cost_flops"] += 2 * cost.shape[0] * cost.shape[1] * args[0].channels


def _count_weights(counters, args, kwargs, weights):
    for w in weights:
        counters["weights_zero"] += int(np.count_nonzero(w == 0))
        counters["weights_nodes"] += w.size


_HOOKS = {
    "transport.solve_simplex": _count_simplex,
    "transport.solve_interior_point": _count_ipm,
    "metric.cost_matrix": _count_cost,
    "metric.cross_reference_weights": _count_weights,
}
