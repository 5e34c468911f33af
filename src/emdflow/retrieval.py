"""Gallery ranking by EMD similarity and the three retrieval metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import similarity_matrix
from .metric import pair_similarity  # noqa: F401  (kept: perfbench/tracer.py patches it)


@dataclass(frozen=True)
class RetrievalRun:
    """Similarity matrix plus the induced per-query gallery ranking.

    Rankings sort by descending similarity with ties broken by ascending
    gallery index.  When the gallery is the query list object itself,
    self-matches carry -inf similarity so they never rank, and each
    unordered pair is solved once and ``similarity`` is symmetric.
    """

    query_labels: np.ndarray
    gallery_labels: np.ndarray
    similarity: np.ndarray
    ranking: np.ndarray

    def __post_init__(self):
        q, g = self.similarity.shape
        if self.query_labels.shape != (q,) or self.gallery_labels.shape != (g,):
            raise ValueError("label/similarity shape mismatch")
        if self.ranking.shape != (q, g):
            raise ValueError("ranking shape mismatch")
        for row in self.ranking:
            if not np.array_equal(np.sort(row), np.arange(g)):
                raise ValueError("ranking row is not a permutation")


def _rank_rows(similarity: np.ndarray) -> np.ndarray:
    # argsort is stable, so equal similarities keep ascending index order.
    return np.argsort(-similarity, axis=1, kind="stable")


def rank_gallery(queries, gallery, weighting: str = "cross_reference",
                 solver: str = "simplex") -> RetrievalRun:
    """Score every (query, gallery) pair and rank the gallery per query.

    ``queries`` and ``gallery`` are sequences of (label, EmbeddingSet).
    Self-retrieval is ``gallery is queries`` (the same list object): the
    index-identical pairs are excluded from the ranking, and each unordered
    pair is solved once and mirrored
    (:func:`~emdflow.metric.similarity_matrix`).  An equal but distinct
    gallery list solves and ranks every ordered pair.
    """
    q_labels = np.array([label for label, _ in queries])
    g_labels = np.array([label for label, _ in gallery])
    q_sets = [q for _, q in queries]
    g_sets = q_sets if queries is gallery else [g for _, g in gallery]
    sim = similarity_matrix(q_sets, g_sets, weighting=weighting, solver=solver,
                            skip_diagonal=queries is gallery)
    return RetrievalRun(query_labels=q_labels, gallery_labels=g_labels,
                        similarity=sim, ranking=_rank_rows(sim))


def metrics(run: RetrievalRun):
    """(P@1, R-Precision, MAP@R) averaged over queries.

    For each query, R is the number of same-label gallery items (minus the
    excluded self-match); every query must have R >= 1.  The third value
    sums the precision at the position of each of the R hits, wherever it
    ranks, and divides by R: the average precision over all R hits, not the
    MAP@R of Musgrave et al. (ECCV 2020), which counts only the hits within
    the top R ranks.  Raises ValueError for a run with no queries.
    """
    if len(run.query_labels) == 0:
        raise ValueError("retrieval metrics need at least one query")
    p1_total = rp_total = map_total = 0.0
    for qi in range(len(run.query_labels)):
        order = run.ranking[qi]
        usable = order[np.isfinite(run.similarity[qi, order])]
        hits = run.gallery_labels[usable] == run.query_labels[qi]
        r = int(hits.sum())
        if r == 0:
            raise ValueError(f"query {qi} has no same-label gallery item")
        p1_total += float(hits[0])
        rp_total += hits[:r].mean()
        hit_pos = np.flatnonzero(hits)[:r]
        map_total += float(np.sum(np.arange(1, r + 1) / (hit_pos + 1)) / r)
    n = len(run.query_labels)
    return p1_total / n, rp_total / n, map_total / n
