"""Episodic few-shot evaluation on top of the EMD similarity.

Covers episode sampling from a labeled collection, 1-shot classification,
the k-shot variants (nearest support, score fusion, set merging, global
prototypes, and the learnable structured-FC layer fine-tuned by SGD), and
a toy end-to-end trainer for a linear projection placed before the metric.
Each node gradient is one fused step of a stack against a stack, every
member against every member in one forward and one backward: a minibatch's
picked supports against all prototypes per :func:`fit_sfc` iteration, an
episode's queries against its supports in the trainer, with uncertified
simplex kernel solves: warm-started in the fit (restarts that need no
pivot certified in one stacked pass), cold in the trainer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .tensor_io import LabeledSetCollection
from .metric import (EmbeddingSet, ExtractionConfig, _fused_step, _row_norms, _Stack,
                     _starts, _WarmStarts, best_match, extract, similarity_matrix)
from .metric import pair_similarity, similarity_node_grads  # noqa: F401  (kept: perfbench/tracer.py patches them)

KSHOT_METHODS = ("sfc", "nn", "fusion", "merge", "prototype")


class InsufficientDataError(ValueError):
    """Collection cannot supply the requested episode shape."""


class DivergenceError(RuntimeError):
    """Optimization produced a non-finite loss, or a parameter row norm that overflows."""

    def __init__(self, iteration: int):
        super().__init__(f"training diverged at iteration {iteration}")
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
    solves, their pivots and the solves that began from a cached basis (all
    0 for the other solvers); a certified restart is one warm solve with 0
    pivots, as the kernel would have run it.
    """

    per_class: list
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


def _cross_entropy(sims: np.ndarray, labels, temperature: float):
    """Softmax cross-entropy of each row of the P x G sims / temperature
    against its label, the label probability floored at 1e-300, summed in
    row order.  Returns (loss, d loss / d sims)."""
    logits = sims / temperature
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    rows = np.arange(len(labels))
    d_sims = probs.copy()
    d_sims[rows, labels] -= 1.0
    losses = -np.log(np.maximum(probs[rows, labels], 1e-300))
    # Left to right, as a += loop adds (Python 3.12's sum compensates).
    return float(np.cumsum(losses)[-1]), d_sims / temperature


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

    Each iteration is one fused step: the picked supports and the
    prototypes are stacked, with their unit rows, norms and means, and
    every picked support meets every prototype in one cosine product, one
    relevance product per side, one solve per (pick, class) pair on its
    mass support, and one stacked backward.  The batch loss is each pick's
    cross-entropy, summed.  The simplex restarts each (support, class) solve
    from the basis that pair ended on at its last visit, while its mass
    support is unchanged, so a support drawn twice in one iteration restarts
    its second visit from its first.  Restarts whose kept tree is still
    optimal are certified in one stacked pass per iteration, bit-equal to
    the kernel's 0-pivot run; only the other pairs run the kernel.  The
    fit's ``solves``, ``pivots`` and ``warm_starts`` count both.
    """
    _check_training(learning_rate, temperature, "iterations", iterations, batch_size)
    groups = ep.support_by_class()
    protos = [np.mean([es.vectors for es in sets], axis=0) for sets in groups]
    starts = _starts(protos)
    stacked = np.concatenate(protos)
    rng = np.random.default_rng(seed)
    result = SfcPrototypes(per_class=np.split(stacked, starts[1:-1]))
    labels = [label for label, _ in ep.support]
    mats = [es.vectors for _, es in ep.support]
    warm = _WarmStarts()
    for it in range(iterations):
        picks = rng.integers(0, len(labels), size=batch_size).tolist()
        picked = [mats[p] for p in picks]
        batch_loss, grad = _fused_step(
            _Stack(np.concatenate(picked), _starts(picked)), _Stack(stacked, starts),
            lambda sims: _cross_entropy(sims, [labels[p] for p in picks], temperature),
            solver, warm, picks)
        batch_loss /= batch_size
        if not np.isfinite(batch_loss):
            raise DivergenceError(it)
        result.loss_curve.append(batch_loss)
        stacked -= learning_rate * grad / batch_size  # the per_class views follow
        if not np.isfinite(_row_norms(stacked)).all():
            raise DivergenceError(it)
    result.solves, result.pivots, result.warm_starts = warm.solves, warm.pivots, warm.warm
    return result


def classify_kshot(ep: Episode, method: str = "sfc", solver: str = "simplex",
                   sfc_kwargs: dict = None) -> float:
    """Accuracy of a k-shot classification rule on the episode's queries.

    ``sfc``, ``merge``, ``nn`` and ``prototype`` predict the best-matching
    reference (:func:`~emdflow.metric.best_match`), so they solve only the
    pairs that can still win; ``fusion`` sums scores and needs all of them.
    ``prototype`` matches one-node sets of global means (a class's is the
    mean of its supports'), whose EMD is the means' cosine.  Ties go to the
    lowest class id.  ``sfc_kwargs`` go to :func:`fit_sfc`
    and apply only to ``sfc``; the fit's solver is ``solver``.
    """
    if method not in KSHOT_METHODS:
        raise ValueError(f"unknown method {method!r}")
    if sfc_kwargs and method != "sfc":
        raise ValueError(f"sfc_kwargs apply only to method 'sfc', not {method!r}")
    if sfc_kwargs and "solver" in sfc_kwargs:
        raise ValueError("sfc_kwargs must not set 'solver': classify_kshot's solver "
                         "fits and scores")
    groups = ep.support_by_class()
    queries = [q for _, q in ep.query]
    if method == "fusion":
        # Total over each class's supports, summed in support order.
        per_support = similarity_matrix(queries, [es for sets in groups for es in sets],
                                        solver=solver)
        splits = np.cumsum([len(sets) for sets in groups])[:-1]
        preds = np.argmax([[sum(part) for part in np.split(row, splits)]
                           for row in per_support], axis=1)
        return _accuracy(ep, preds)
    if method == "sfc":
        fitted = fit_sfc(ep, solver=solver, **(sfc_kwargs or {}))
        refs = [EmbeddingSet(vectors=p) for p in fitted.per_class]
    elif method == "merge":
        refs = [EmbeddingSet(vectors=np.concatenate([es.vectors for es in sets]))
                for sets in groups]
    elif method == "nn":
        refs = [es for sets in groups for es in sets]
    else:  # prototype
        queries = [EmbeddingSet(vectors=q.vectors.mean(axis=0)[None]) for q in queries]
        refs = [EmbeddingSet(vectors=np.mean([es.vectors.mean(axis=0) for es in sets],
                                             axis=0)[None]) for sets in groups]
    best, _ = best_match(queries, refs, solver=solver)
    # nn's supports are in class order, k_shot each, so the lowest index
    # among the best supports belongs to the lowest class among the best.
    preds = best // ep.k_shot if method == "nn" else best
    return _accuracy(ep, preds)


def episode_loss_and_grad(weight: np.ndarray, ep: Episode,
                          temperature: float = 0.1, solver: str = "simplex"):
    """Query cross-entropy with the projection applied, plus d loss / d weight.

    ``ep`` must be 1-shot (ValueError otherwise), as for :func:`classify_1shot`.
    Supports and queries are projected node-wise, each side in one
    product.  The episode takes one fused step, every query against every
    class's support, solved cold (a fresh :class:`~emdflow.metric._WarmStarts`,
    one key per query); the loss is each query's cross-entropy, summed, and
    the node gradients of both sides chain back through the shared linear map.
    """
    if ep.k_shot != 1:
        raise ValueError(f"episode_loss_and_grad requires k_shot = 1, got {ep.k_shot}")
    weight = np.asarray(weight, dtype=float)
    supports = [sets[0].vectors for sets in ep.support_by_class()]
    queries = [q.vectors for _, q in ep.query]
    labels = [label for label, _ in ep.query]
    stacked_s, stacked_q = np.concatenate(supports), np.concatenate(queries)
    loss, (g_q, g_s) = _fused_step(
        _Stack(stacked_q @ weight, _starts(queries)),
        _Stack(stacked_s @ weight, _starts(supports)),
        lambda sims: _cross_entropy(sims, labels, temperature),
        solver, _WarmStarts(), range(len(labels)), want_x=True)
    n = len(labels)
    return loss / n, (stacked_q.T @ g_q + stacked_s.T @ g_s) / n


def train_projection(train_col: LabeledSetCollection, epochs: int = 20,
                     lr: float = 0.05, temperature: float = 0.1, seed: int = 0,
                     n_way: int = 5, q_per_class: int = 1,
                     cfg: ExtractionConfig = ExtractionConfig(),
                     out_dim: int = None, solver: str = "simplex") -> ProjectionModel:
    """Fit the node projection by SGD over sampled 1-shot episodes.

    The projection is C x ``out_dim``; ``out_dim`` None keeps the C channels.
    """
    _check_training(lr, temperature, "epochs", epochs)
    if out_dim is not None and out_dim < 1:
        raise ValueError(f"out_dim must be >= 1, got {out_dim}")
    channels = train_col.channels
    if channels is None:
        raise InsufficientDataError("empty collection")
    out_dim = channels if out_dim is None else out_dim
    rng = np.random.default_rng(seed)
    weight = np.eye(channels, out_dim) + 0.01 * rng.standard_normal((channels, out_dim))
    model = ProjectionModel(weight=weight, temperature=temperature)
    for epoch in range(epochs):
        ep = sample_episode(train_col, n_way, 1, q_per_class,
                            seed=int(rng.integers(0, 2**63)), cfg=cfg)
        loss, grad = episode_loss_and_grad(model.weight, ep, temperature, solver)
        if not np.isfinite(loss):
            raise DivergenceError(epoch)
        model.loss_curve.append(loss)
        if lr != 0.0:
            model.weight = model.weight - lr * grad
            if not np.isfinite(_row_norms(model.weight)).all():
                raise DivergenceError(epoch)
    return model


def mean_ci95(values) -> tuple:
    """Mean with the 95% confidence half-width 1.96 * std / sqrt(E)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return float("nan"), float("nan")
    return float(arr.mean()), float(1.96 * arr.std() / np.sqrt(arr.size))
