"""Episodic few-shot evaluation on top of the EMD similarity.

Covers episode sampling from a labeled collection, 1-shot classification,
the k-shot variants (nearest support, score fusion, set merging, global
prototypes, and the learnable structured-FC layer fine-tuned by SGD), and
a toy end-to-end trainer for a linear projection placed before the metric.
Each node gradient is one fused step against all classes at once, per picked
support in :func:`fit_sfc` (warm-started) and per query in the trainer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .tensor_io import LabeledSetCollection
from .metric import (EmbeddingSet, ExtractionConfig, _fused_step, _Stack, _WarmStarts,
                     best_match, extract, similarity_matrix)
from .metric import pair_similarity, similarity_node_grads  # noqa: F401  (kept: perfbench/tracer.py patches them)

KSHOT_METHODS = ("sfc", "nn", "fusion", "merge", "prototype")


class InsufficientDataError(ValueError):
    """Collection cannot supply the requested episode shape."""


class DivergenceError(RuntimeError):
    """Optimization produced a non-finite loss."""

    def __init__(self, iteration: int):
        super().__init__(f"loss became non-finite at iteration {iteration}")
        self.iteration = iteration


def _check_shape(n_way: int, k_shot: int, q_per_class: int):
    if min(n_way, k_shot, q_per_class) < 1:
        raise ValueError(f"an episode needs n_way, k_shot and q_per_class >= 1, "
                         f"got {n_way}, {k_shot}, {q_per_class}")


@dataclass(frozen=True)
class Episode:
    """One N-way K-shot task: labeled support and query embedding sets."""

    n_way: int
    k_shot: int
    q_per_class: int
    support: tuple
    query: tuple

    def __post_init__(self):
        _check_shape(self.n_way, self.k_shot, self.q_per_class)
        object.__setattr__(self, "support", tuple(self.support))
        object.__setattr__(self, "query", tuple(self.query))
        for label, _ in (*self.support, *self.query):
            if not (0 <= label < self.n_way):
                raise ValueError(f"label {label} outside [0, {self.n_way})")
        for name, items, per_class in (("support", self.support, self.k_shot),
                                       ("query", self.query, self.q_per_class)):
            counts = Counter(label for label, _ in items)
            if any(counts[c] != per_class for c in range(self.n_way)):
                raise ValueError(f"{name} size mismatch: every class needs {per_class} sets, "
                                 f"got {[counts[c] for c in range(self.n_way)]}")

    def support_by_class(self):
        out = [[] for _ in range(self.n_way)]
        for label, es in self.support:
            out[label].append(es)
        return out


@dataclass
class SfcPrototypes:
    """Learnable per-class node groups produced by SGD fine-tuning.

    ``solves``, ``pivots`` and ``warm_starts`` count the fit's simplex
    kernel runs, their pivots and the runs that began from a cached basis
    (all 0 for the other solvers).
    """

    per_class: list
    learning_rate: float = 0.1
    batch_size: int = 5
    iterations: int = 100
    loss_curve: list = field(default_factory=list)
    solves: int = 0
    pivots: int = 0
    warm_starts: int = 0

    @property
    def n_way(self) -> int:
        return len(self.per_class)


@dataclass
class ProjectionModel:
    """Linear map applied to every node vector before the metric."""

    weight: np.ndarray
    temperature: float = 0.1
    loss_curve: list = field(default_factory=list)

    def apply(self, es: EmbeddingSet) -> EmbeddingSet:
        return EmbeddingSet(vectors=es.vectors @ self.weight)


def sample_episode(col: LabeledSetCollection, n_way: int, k_shot: int,
                   q_per_class: int, seed: int,
                   cfg: ExtractionConfig = ExtractionConfig()) -> Episode:
    """Draw an N-way K-shot episode, deterministic under ``seed``.

    Classes and per-class sets are sampled without replacement; sampled
    classes are relabeled 0..n_way-1 in draw order.  Raises ValueError
    unless ``n_way``, ``k_shot`` and ``q_per_class`` are all at least 1.
    """
    _check_shape(n_way, k_shot, q_per_class)  # before sampling with them
    rng = np.random.default_rng(seed)
    by_class = col.by_class()
    need = k_shot + q_per_class
    eligible = sorted(c for c, sets in by_class.items() if len(sets) >= need)
    if len(eligible) < n_way:
        raise InsufficientDataError(
            f"need {n_way} classes with >= {need} sets each, found {len(eligible)}"
        )
    chosen = rng.choice(eligible, size=n_way, replace=False)
    support, query = [], []
    for new_label, cls in enumerate(chosen):
        sets = by_class[int(cls)]
        idx = rng.choice(len(sets), size=need, replace=False)
        for i in idx[:k_shot]:
            support.append((new_label, extract(sets[i], cfg)))
        for i in idx[k_shot:]:
            query.append((new_label, extract(sets[i], cfg)))
    return Episode(n_way=n_way, k_shot=k_shot, q_per_class=q_per_class,
                   support=tuple(support), query=tuple(query))


def _accuracy(ep: Episode, preds: np.ndarray) -> float:
    """Share of the episode's queries whose predicted class is their label."""
    labels = np.array([label for label, _ in ep.query])
    return int(np.count_nonzero(preds == labels)) / len(ep.query)


def classify_1shot(ep: Episode, weighting: str = "cross_reference",
                   solver: str = "simplex"):
    """Assign each query the class of the most similar support set.

    Returns (predictions, accuracy).
    """
    if ep.k_shot != 1:
        raise ValueError(f"classify_1shot requires k_shot = 1, got {ep.k_shot}")
    supports = [sets[0] for sets in ep.support_by_class()]
    preds, _ = best_match([q for _, q in ep.query], supports,
                          weighting=weighting, solver=solver)
    return preds, _accuracy(ep, preds)


def _global_mean(es: EmbeddingSet) -> np.ndarray:
    return es.vectors.mean(axis=0)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def _cross_entropy(sims: np.ndarray, label: int, temperature: float):
    """Softmax cross-entropy of sims / temperature against ``label``.

    Returns (loss, d loss / d sims).
    """
    probs = _softmax(sims / temperature)
    d_sims = probs.copy()
    d_sims[label] -= 1.0
    return -float(np.log(max(probs[label], 1e-300))), d_sims / temperature


def _check_training(learning_rate, temperature, steps_name, steps, batch_size=1):
    """Raise ValueError for SGD settings that cannot train: a learning rate
    that is not finite and >= 0, a temperature that is not finite and > 0,
    a negative step count or a batch below 1."""
    if not (np.isfinite(learning_rate) and learning_rate >= 0):
        raise ValueError(f"learning rate must be finite and >= 0, got {learning_rate}")
    if not (np.isfinite(temperature) and temperature > 0):
        raise ValueError(f"temperature must be finite and > 0, got {temperature}")
    if steps < 0:
        raise ValueError(f"{steps_name} must be >= 0, got {steps}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")


def fit_sfc(ep: Episode, learning_rate: float = 0.1, batch_size: int = 5,
            iterations: int = 100, temperature: float = 0.1, seed: int = 0,
            solver: str = "simplex") -> SfcPrototypes:
    """Fine-tune per-class prototype node groups on the support set.

    Prototypes start as the node-wise mean of each class's support node
    matrices and are optimized by plain SGD on the cross-entropy of
    temperature-scaled similarities, sampling support minibatches with
    replacement.

    Each step is fused: the supports' unit rows, norms and means are taken
    once per fit and the prototypes' once per iteration, and each picked
    support meets all prototypes in one cosine product and one relevance
    product, one mass check, one solve per class on its mass support, and
    prototype-side gradients batched over the classes.  The simplex
    restarts each (support, class) solve from the basis that pair ended on
    at its last visit, while its mass support is unchanged; ``solves``,
    ``pivots`` and ``warm_starts`` count those kernel runs.
    """
    _check_training(learning_rate, temperature, "iterations", iterations, batch_size)
    groups = ep.support_by_class()
    protos = [np.mean([es.vectors for es in sets], axis=0) for sets in groups]
    starts = np.cumsum([0] + [p.shape[0] for p in protos]).tolist()
    stacked = np.concatenate(protos)
    rng = np.random.default_rng(seed)
    result = SfcPrototypes(per_class=np.split(stacked, starts[1:-1]),
                           learning_rate=learning_rate, batch_size=batch_size,
                           iterations=iterations)
    support = [(label, _Stack(es.vectors)) for label, es in ep.support]
    warm = _WarmStarts() if solver == "simplex" else None
    for it in range(iterations):
        picks = rng.integers(0, len(support), size=batch_size)
        ys = _Stack(stacked, starts)
        grad = np.zeros_like(stacked)
        batch_loss = 0.0
        for pick in picks.tolist():
            label, x = support[pick]
            loss, g, _ = _fused_step(x, ys, lambda sims: _cross_entropy(sims, label, temperature),
                                     solver, warm, pick)
            batch_loss += loss
            grad += g
        batch_loss /= batch_size
        if not np.isfinite(batch_loss):
            raise DivergenceError(it)
        result.loss_curve.append(batch_loss)
        stacked -= learning_rate * grad / batch_size  # the per_class views follow
    if warm is not None:
        result.solves, result.pivots, result.warm_starts = warm.solves, warm.pivots, warm.warm
    return result


def support_cross_entropy(ep: Episode, protos, temperature: float = 0.1,
                          solver: str = "simplex") -> float:
    """Mean cross-entropy of the full support set against prototypes."""
    sims = similarity_matrix([es for _, es in ep.support],
                             [EmbeddingSet(vectors=p) for p in protos], solver=solver)
    total = 0.0
    for (label, _), row in zip(ep.support, sims):
        total += _cross_entropy(row, label, temperature)[0]
    return total / len(ep.support)


def classify_kshot(ep: Episode, method: str = "sfc", solver: str = "simplex",
                   sfc_kwargs: dict = None) -> float:
    """Accuracy of a k-shot classification rule on the episode's queries.

    ``sfc``, ``merge`` and ``nn`` predict the best-matching reference
    (:func:`~emdflow.metric.best_match`), so they solve only the pairs
    that can still win; ``fusion`` sums scores and needs all of them.
    Ties go to the lowest class id.
    """
    if method not in KSHOT_METHODS:
        raise ValueError(f"unknown method {method!r}")
    groups = ep.support_by_class()
    queries = [q for _, q in ep.query]

    if method == "sfc":
        fitted = fit_sfc(ep, solver=solver, **(sfc_kwargs or {}))
        preds, _ = best_match(queries, [EmbeddingSet(vectors=p) for p in fitted.per_class],
                              solver=solver)
    elif method == "merge":
        merged = [EmbeddingSet(vectors=np.concatenate([es.vectors for es in sets]))
                  for sets in groups]
        preds, _ = best_match(queries, merged, solver=solver)
    elif method == "nn":
        # The supports are in class order, k_shot each, so the lowest index
        # among the best supports belongs to the lowest class among the best.
        best, _ = best_match(queries, [es for sets in groups for es in sets], solver=solver)
        preds = best // ep.k_shot
    elif method == "prototype":
        means = [np.mean([_global_mean(es) for es in sets], axis=0) for sets in groups]

        def score(q, c):
            qm = _global_mean(q)
            denom = np.linalg.norm(qm) * np.linalg.norm(means[c])
            return float(qm @ means[c] / denom) if denom > 0 else 0.0
        preds = np.argmax([[score(q, c) for c in range(ep.n_way)] for q in queries], axis=1)
    else:
        # fusion: total over each class's supports, summed in support order.
        per_support = similarity_matrix(queries, [es for sets in groups for es in sets],
                                        solver=solver)
        splits = np.cumsum([len(sets) for sets in groups])[:-1]
        preds = np.argmax([[sum(part) for part in np.split(row, splits)]
                           for row in per_support], axis=1)
    return _accuracy(ep, preds)


def episode_loss_and_grad(weight: np.ndarray, ep: Episode,
                          temperature: float = 0.1, solver: str = "simplex"):
    """Query cross-entropy with the projection applied, plus d loss / d weight.

    Supports and queries are projected node-wise, the supports in one
    product.  Each query takes one fused step against all supports, and its
    node gradients chain back through the shared linear map.
    """
    weight = np.asarray(weight, dtype=float)
    supports = [sets[0].vectors for sets in ep.support_by_class()]
    stacked = np.concatenate(supports)
    ys = _Stack(stacked @ weight, np.cumsum([0] + [s.shape[0] for s in supports]).tolist())
    grad = np.zeros_like(weight)
    loss = 0.0
    for label, q in ep.query:
        q_loss, (g_q, g_s), _ = _fused_step(
            _Stack(q.vectors @ weight), ys,
            lambda sims: _cross_entropy(sims, label, temperature), solver, want_x=True)
        loss += q_loss
        grad += q.vectors.T @ g_q + stacked.T @ g_s
    n = len(ep.query)
    return loss / n, grad / n


def train_projection(train_col: LabeledSetCollection, epochs: int = 20,
                     lr: float = 0.05, temperature: float = 0.1, seed: int = 0,
                     n_way: int = 5, k_shot: int = 1, q_per_class: int = 1,
                     cfg: ExtractionConfig = ExtractionConfig(),
                     out_dim: int = None, solver: str = "simplex") -> ProjectionModel:
    """Fit the node projection by SGD over sampled 1-shot episodes."""
    _check_training(lr, temperature, "epochs", epochs)
    channels = train_col.channels
    if channels is None:
        raise InsufficientDataError("empty collection")
    out_dim = out_dim or channels
    rng = np.random.default_rng(seed)
    weight = np.eye(channels, out_dim) + 0.01 * rng.standard_normal((channels, out_dim))
    model = ProjectionModel(weight=weight, temperature=temperature)
    for epoch in range(epochs):
        ep = sample_episode(train_col, n_way, k_shot, q_per_class,
                            seed=int(rng.integers(0, 2**63)), cfg=cfg)
        loss, grad = episode_loss_and_grad(model.weight, ep, temperature, solver)
        if not np.isfinite(loss):
            raise DivergenceError(epoch)
        model.loss_curve.append(loss)
        if lr != 0.0:
            model.weight = model.weight - lr * grad
    return model


def mean_ci95(values) -> tuple:
    """Mean with the 95% confidence half-width 1.96 * std / sqrt(E)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return float("nan"), float("nan")
    return float(arr.mean()), float(1.96 * arr.std() / np.sqrt(arr.size))
