"""The four workloads: seeded fixed inputs, one timed unit, and the gate on its outputs.

A workload is built from the benchmark seed alone (its set-up), then runs
``units`` distinct units in order; a timed run repeats that pass.  Each
unit returns the number of query x reference similarities it delivered and
what the correctness gate needs afterwards.  Every call into emdflow goes
through a submodule attribute (``em.fewshot.sample_episode``), which is
where the traced run hooks in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import gate
from gate import Check

N_WAY = 5
SFC_ITERATIONS = 30


@dataclass(frozen=True)
class Unit:
    pairs: int
    output: object


@dataclass(frozen=True)
class Size:
    """Input sizes of one workload; ``tiny`` variants serve the self-tests."""

    spatial: tuple = (5, 5)
    channels: int = 64
    class_count: int = 10
    sets_per_class: int = 8
    units: int = 20


def _collection(em, rng, size: Size):
    spec = em.synth.SynthSpec(class_count=size.class_count, sets_per_class=size.sets_per_class,
                              spatial=size.spatial, channels=size.channels,
                              background_fraction=0.5, seed=int(rng.integers(2**31)))
    return em.synth.generate(spec)


def _seeds(rng, count):
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


class Episode1Shot:
    """5-way 1-shot, 3 queries per class; unit = sample_episode + classify_1shot."""

    name = "episode_1shot"
    SIZES = {False: Size(units=60), True: Size(spatial=(2, 2), channels=8, class_count=6,
                                               sets_per_class=4, units=2)}
    queries_per_class = 3

    def __init__(self, em, seed: int, tiny: bool = False):
        self.em = em
        size = self.SIZES[tiny]
        rng = np.random.default_rng(seed)
        self.collection = _collection(em, rng, size)
        self.episode_seeds = _seeds(rng, size.units)
        self.units = size.units

    def fingerprint(self):
        return (self.collection.sets[0][1].data.tobytes(), tuple(self.episode_seeds))

    def run_unit(self, i: int) -> Unit:
        fs = self.em.fewshot
        ep = fs.sample_episode(self.collection, N_WAY, 1, self.queries_per_class,
                               seed=self.episode_seeds[i])
        preds, acc = fs.classify_1shot(ep)
        return Unit(pairs=len(ep.query) * N_WAY, output=(ep, preds, acc))

    def quality(self, outputs) -> float:
        """Accuracy over every query of the pass."""
        return float(np.mean([acc for _, _, acc in outputs]))

    def results(self, outputs):
        return [(preds.tolist(), acc) for _, preds, acc in outputs]

    def gate(self, outputs, rng):
        checks = []
        for ui in rng.choice(len(outputs), size=min(4, len(outputs)), replace=False):
            ep, preds, _ = outputs[ui]
            supports = [sets[0] for sets in ep.support_by_class()]
            qi = int(rng.integers(len(ep.query)))
            sims = []
            for s in supports:
                sim, issues = gate.certified_similarity(self.em, ep.query[qi][1], s)
                sims.append(sim)
                checks.append(gate.check("episode.certificate", issues))
            checks.append(Check("episode.prediction", gate.argmax_agrees(sims, preds[qi]),
                                f"unit {ui} query {qi}: sims {sims}, predicted {preds[qi]}"))
            checks.append(gate.oracle_subproblem_check(self.em, ep.query[qi][1].vectors,
                                                       supports[0].vectors))
        return checks


class Sfc5Shot:
    """5-way 5-shot, 2 queries per class; unit = classify_kshot(ep, "sfc").

    4x4 maps (16 nodes) keep a unit near 0.5 s, so a run times 30-50 units
    and its tail percentile is a real tail; at 25 nodes a unit takes ~1 s.
    """

    name = "sfc_5shot"
    SIZES = {False: Size(spatial=(4, 4), units=16),
             True: Size(spatial=(2, 2), channels=8, class_count=6, sets_per_class=7, units=1)}
    queries_per_class = 2
    batch_size = 5  # fit_sfc's default minibatch

    def __init__(self, em, seed: int, tiny: bool = False):
        self.em = em
        size = self.SIZES[tiny]
        rng = np.random.default_rng(seed)
        self.collection = _collection(em, rng, size)
        self.episodes = [em.fewshot.sample_episode(self.collection, N_WAY, 5,
                                                   self.queries_per_class, seed=s)
                         for s in _seeds(rng, size.units)]
        self.iterations = 2 if tiny else SFC_ITERATIONS
        self.units = size.units

    def fingerprint(self):
        return self.episodes[0].query[0][1].vectors.tobytes()

    def run_unit(self, i: int) -> Unit:
        ep = self.episodes[i]
        acc = self.em.fewshot.classify_kshot(ep, "sfc",
                                             sfc_kwargs={"iterations": self.iterations})
        fit_pairs = self.iterations * self.batch_size * N_WAY
        return Unit(pairs=fit_pairs + len(ep.query) * N_WAY, output=(ep, acc))

    def quality(self, outputs) -> float:
        """Accuracy over every query of the pass."""
        return float(np.mean([acc for _, acc in outputs]))

    def results(self, outputs):
        return [acc for _, acc in outputs]

    def gate(self, outputs, rng):
        """Refit the first episode's prototypes and re-score its queries with certified solves."""
        em = self.em
        ep, acc = outputs[0]
        fitted = em.fewshot.fit_sfc(ep, iterations=self.iterations)
        refs = [em.metric.EmbeddingSet(vectors=p) for p in fitted.per_class]
        checks, hits, ties = [], 0, 0
        for label, q in ep.query:
            sims = []
            for ref in refs:
                sim, issues = gate.certified_similarity(em, q, ref)
                sims.append(sim)
                checks.append(gate.check("sfc.certificate", issues))
            order = np.sort(sims)
            ties += int(order[-1] - order[-2] <= gate.TIE_MARGIN)
            hits += int(np.argmax(sims) == label)
        n = len(ep.query)
        checks.append(Check("sfc.accuracy", abs(hits / n - acc) <= ties / n,
                            f"certified accuracy {hits / n} vs reported {acc}"))
        checks.append(gate.oracle_subproblem_check(em, ep.query[0][1].vectors, refs[0].vectors))
        return checks


class RetrievalGallery:
    """Self-retrieval over galleries of 5 classes x 3 items; unit = rank_gallery + metrics."""

    name = "retrieval_gallery"
    SIZES = {False: Size(units=24), True: Size(spatial=(2, 2), channels=8, class_count=6,
                                              sets_per_class=4, units=1)}
    classes_per_gallery = 5
    items_per_class = 3

    def __init__(self, em, seed: int, tiny: bool = False):
        self.em = em
        size = self.SIZES[tiny]
        rng = np.random.default_rng(seed)
        by_class = _collection(em, rng, size).by_class()
        cfg = em.metric.ExtractionConfig()
        self.galleries = []
        for _ in range(size.units):
            classes = rng.choice(size.class_count, size=self.classes_per_gallery, replace=False)
            items = []
            for c in classes:
                picks = rng.choice(size.sets_per_class, size=self.items_per_class, replace=False)
                items += [(int(c), em.metric.extract(by_class[int(c)][int(i)], cfg)) for i in picks]
            self.galleries.append(items)
        self.units = size.units

    def fingerprint(self):
        return self.galleries[0][0][1].vectors.tobytes()

    def run_unit(self, i: int) -> Unit:
        items = self.galleries[i]
        run = self.em.retrieval.rank_gallery(items, items)
        _, _, map_r = self.em.retrieval.metrics(run)
        return Unit(pairs=len(items) * (len(items) - 1), output=(run, map_r))

    def quality(self, outputs) -> float:
        """MAP@R averaged over the pass's galleries."""
        return float(np.mean([m for _, m in outputs]))

    def results(self, outputs):
        return [(run.similarity.tobytes(), m) for run, m in outputs]

    def gate(self, outputs, rng):
        checks = []
        for gi, (run, map_r) in enumerate(outputs):
            ref = gate.map_at_r(run.similarity, run.query_labels)
            checks.append(Check("retrieval.map_at_r", abs(ref - map_r) <= 1e-12,
                                f"gallery {gi}: reference {ref!r} vs reported {map_r!r}"))
        for _ in range(12):
            gi = int(rng.integers(len(outputs)))
            items = self.galleries[gi]
            i, j = rng.choice(len(items), size=2, replace=False)
            sim, issues = gate.certified_similarity(self.em, items[i][1], items[j][1])
            reported = outputs[gi][0].similarity[i, j]
            if abs(sim - reported) > gate.CERT_RTOL:
                issues.append(f"similarity {reported!r} vs certified {sim!r}")
            checks.append(gate.check("retrieval.certificate", issues))
        items = self.galleries[0]
        checks.append(gate.oracle_subproblem_check(self.em, items[0][1].vectors, items[1][1].vectors))
        return checks


class PairSweep:
    """Single pairs: simplex and interior point on cross-reference weights,
    plus a full-mode backward on strictly positive weights up to 25 nodes."""

    name = "pair_sweep"
    # (map side, pairs): 4, 25 and 100 nodes.  The 25-node cases dominate
    # the count so the unit median sits inside one size class.
    PLAN = {False: ((2, 3), (5, 8), (10, 3)), True: ((2, 1), (3, 1))}
    FULL_MODE_MAX_NODES = 25

    def __init__(self, em, seed: int, tiny: bool = False):
        self.em = em
        rng = np.random.default_rng(seed)
        cfg = em.metric.ExtractionConfig()
        self.cases = []
        for side, count in self.PLAN[tiny]:
            size = Size(spatial=(side, side), class_count=N_WAY, sets_per_class=2)
            sets = [em.metric.extract(t, cfg) for _, t in _collection(em, rng, size).sets]
            n = side * side
            for _ in range(count):
                i, j = rng.choice(len(sets), size=2, replace=False)
                # Strictly positive, generic weights keep the optimum
                # nondegenerate, which today's full-mode gate requires.
                wa, wb = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n)
                self.cases.append((sets[i], sets[j], wa / wa.sum(), wb / wb.sum()))
        self.units = len(self.cases)

    def fingerprint(self):
        return self.cases[0][0].vectors.tobytes()

    def run_unit(self, i: int) -> Unit:
        em = self.em
        a, b, pos_a, pos_b = self.cases[i]
        cost = em.metric.cost_matrix(a, b)
        wa, wb = em.metric.cross_reference_weights(a, b)
        p = em.transport.TransportProblem(cost=cost, supply=wa, demand=wb)
        simplex = em.transport.solve_simplex(p)
        ipm = em.transport.solve_interior_point(p)
        full = None
        if a.node_count <= self.FULL_MODE_MAX_NODES:
            q = em.transport.TransportProblem(cost=cost, supply=pos_a, demand=pos_b)
            sol = em.transport.solve_simplex(q)
            full = (q, sol, em.diff.backward_similarity(1.0, sol, q, mode="full"))
        return Unit(pairs=1, output=(p, simplex, ipm, full))

    def quality(self, outputs) -> float:
        """Share of cases where the interior point reaches the simplex optimum."""
        return float(np.mean([not gate.ipm_agreement(simplex, ipm)
                              for _, simplex, ipm, _ in outputs]))

    def results(self, outputs):
        return [(simplex.objective, ipm.objective, None if full is None else full[2].d_cost.tobytes())
                for _, simplex, ipm, full in outputs]

    def gate(self, outputs, rng):
        em = self.em
        checks = []
        for p, simplex, ipm, full in outputs:
            checks.append(gate.check("sweep.certificate", gate.certificate(p, simplex)))
            checks.append(gate.check("sweep.ipm_agreement", gate.ipm_agreement(simplex, ipm)))
            if p.m * p.k <= em.transport.ORACLE_MAX_CELLS:
                checks.append(gate.check("sweep.oracle", gate.oracle_agreement(em, p, simplex, ipm)))
            if full is not None:
                q, sol, grads = full
                checks.append(gate.check("sweep.full_certificate", gate.certificate(q, sol)))
                err = gate.fd_gradcheck(em, q, sol, grads, rng)
                checks.append(Check("sweep.gradcheck", err <= gate.FD_RTOL,
                                   f"{q.m} nodes: relative error {err:.3e}"))
        return checks


WORKLOADS = {cls.name: cls for cls in (Episode1Shot, Sfc5Shot, RetrievalGallery, PairSweep)}
