"""EMD inputs from embedding sets.

Builds everything the transportation solver needs from two sets of local
embeddings: the cosine ground-cost matrix, cross-reference node weights,
the similarity score, and the extraction strategies that turn a spatial
feature map into a node set (dense, grid-pooled, randomly sampled patches,
and multi-scale pyramids).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .tensor_io import DenseTensor
from .transport import TransportProblem, check_masses, solve
from .diff import backward_similarity

# best_match skips a pair whose similarity bound is more than this share of
# the total mass below the best similarity so far.  It must exceed the
# rounding of bound and score and the interior point's objective error.
PRUNE_RTOL = 1e-6


@dataclass(frozen=True)
class EmbeddingSet:
    """A weighted collection of node vectors sharing one channel dim.

    ``vectors`` is M x C; ``weights`` is length M and nonnegative.  Fresh
    extractions carry unit weights; call :func:`cross_reference_weights`
    (or normalize explicitly) before solving.
    """

    vectors: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        vec = np.asarray(self.vectors, dtype=np.float64)
        if vec.ndim != 2 or vec.shape[0] < 1 or vec.shape[1] < 1:
            raise ValueError(f"vectors must be M x C with M,C >= 1, got {vec.shape}")
        if not np.all(np.isfinite(vec)):
            raise ValueError("non-finite node vector")
        w = self.weights
        if w is None:
            w = np.ones(vec.shape[0])
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (vec.shape[0],):
            raise ValueError(f"weights shape {w.shape} does not match {vec.shape[0]} nodes")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("weights must be finite and >= 0")
        object.__setattr__(self, "vectors", vec)
        object.__setattr__(self, "weights", w)

    @property
    def node_count(self) -> int:
        return self.vectors.shape[0]

    @property
    def channels(self) -> int:
        return self.vectors.shape[1]

    def with_weights(self, weights) -> "EmbeddingSet":
        return replace(self, weights=np.asarray(weights, dtype=np.float64))


@dataclass(frozen=True)
class ExtractionConfig:
    """Parameters for turning a feature map into a node set."""

    strategy: str = "fcn"
    grid_rows: int = 2
    grid_cols: int = 2
    patch_count: int = 9
    patch_scale_range: tuple = (0.2, 0.8)
    context_enlarge: float = 2.0
    pyramid_levels: tuple = ()
    rng_seed: int = 0

    def __post_init__(self):
        if self.strategy not in ("fcn", "grid", "sampling"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.grid_rows < 1 or self.grid_cols < 1 or self.patch_count < 1:
            raise ValueError("grid dimensions and patch_count must be >= 1")
        lo, hi = self.patch_scale_range
        if not (0 < lo <= hi <= 1):
            raise ValueError("patch_scale_range must satisfy 0 < lo <= hi <= 1")
        if self.context_enlarge < 1:
            raise ValueError("context_enlarge must be >= 1")
        object.__setattr__(self, "pyramid_levels", tuple(self.pyramid_levels))


def _check_channels(a: EmbeddingSet, b: EmbeddingSet):
    if a.channels != b.channels:
        raise ValueError(f"channel mismatch: {a.channels} vs {b.channels}")


def _unit_rows(mat: np.ndarray):
    """Row-normalize, mapping zero rows to zero (treated as orthogonal)."""
    norms = np.linalg.norm(mat, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    return mat / safe[:, None], norms


def _cosine(U: np.ndarray, V: np.ndarray):
    """Unit rows and norms of both node matrices, their cosines, and the cost.

    Returns (uhat, unorm, vhat, vnorm, cos, cost) with cost = clip(1 - cos).
    """
    uhat, unorm = _unit_rows(U)
    vhat, vnorm = _unit_rows(V)
    cos = uhat @ vhat.T
    return uhat, unorm, vhat, vnorm, cos, np.clip(1.0 - cos, 0.0, 2.0)


def _relevance(U: np.ndarray, V: np.ndarray):
    """Clamped raw relevance max(u_i . mean(V), 0) of each side, and the means.

    Returns (raw_u, raw_v, mean_u, mean_v).
    """
    mean_u, mean_v = U.mean(axis=0), V.mean(axis=0)
    return np.maximum(U @ mean_v, 0.0), np.maximum(V @ mean_u, 0.0), mean_u, mean_v


def _normalize(raw: np.ndarray):
    """(raw / sum(raw), sum(raw)); an all-zero side falls back to uniform."""
    total = raw.sum()
    return (raw / total if total > 0 else np.full(raw.size, 1.0 / raw.size)), total


def cost_matrix(a: EmbeddingSet, b: EmbeddingSet) -> np.ndarray:
    """Cosine ground cost c_ij = 1 - cos(u_i, v_j), in [0, 2].

    Zero-norm vectors get cost 1 against everything (orthogonal limit).
    """
    _check_channels(a, b)
    return _cosine(a.vectors, b.vectors)[-1]


def cross_reference_weights(a: EmbeddingSet, b: EmbeddingSet):
    """Relevance weights: each node scored against the other set's mean.

    s_i = max(u_i . mean(v), 0), then normalized so each side sums to 1.0.
    A side whose raw scores are all zero falls back to uniform weights.
    Returns (weights_a, weights_b).
    """
    _check_channels(a, b)
    raw_a, raw_b, _, _ = _relevance(a.vectors, b.vectors)
    return _normalize(raw_a)[0], _normalize(raw_b)[0]


def uniform_weights(a: EmbeddingSet, b: EmbeddingSet):
    """Equal-weight baseline: both sides uniform, summing to 1.0."""
    return (np.full(a.node_count, 1.0 / a.node_count),
            np.full(b.node_count, 1.0 / b.node_count))


def _solve_and_score(cost: np.ndarray, supply, demand, solver: str):
    """Solve the transport problem and score it as sum((1 - c) * flows).

    Returns (similarity, solution, problem).
    """
    p = TransportProblem(cost=cost, supply=supply, demand=demand)
    sol = solve(p, solver)
    return float(np.sum((1.0 - cost) * sol.flows)), sol, p


def emd_similarity(a: EmbeddingSet, b: EmbeddingSet, solver: str = "simplex"):
    """Similarity sum((1 - c) * flows) under the sets' current weights.

    Weights must be balanced (equal totals).  Returns (similarity, solution).
    """
    sim, sol, _ = _solve_and_score(cost_matrix(a, b), a.weights, b.weights, solver)
    return sim, sol


def _weights(a: EmbeddingSet, b: EmbeddingSet, weighting: str):
    """Both sets' weights under ``weighting`` (cross_reference | equal | given)."""
    if weighting == "cross_reference":
        return cross_reference_weights(a, b)
    if weighting == "equal":
        return uniform_weights(a, b)
    if weighting == "given":
        return a.weights, b.weights
    raise ValueError(f"unknown weighting {weighting!r}")


def pair_similarity(a: EmbeddingSet, b: EmbeddingSet, weighting: str = "cross_reference",
                    solver: str = "simplex"):
    """Weight both sets (cross_reference | equal | given) and score them."""
    wa, wb = _weights(a, b, weighting)
    return emd_similarity(a.with_weights(wa), b.with_weights(wb), solver=solver)


def similarity_matrix(queries, refs, weighting: str = "cross_reference",
                      solver: str = "simplex", skip_diagonal: bool = False) -> np.ndarray:
    """:func:`pair_similarity` of every query x reference pair, as a Q x R array.

    ``queries`` and ``refs`` are sequences of :class:`EmbeddingSet`.  With
    ``skip_diagonal`` the index-identical pairs (i, i) are not solved and
    hold -inf.  When ``refs`` is ``queries`` (the same sequence object) the
    score is symmetric in the pair, so only the pairs j >= i are solved
    (j > i with ``skip_diagonal``) and each result is copied to (j, i).
    """
    sim = np.empty((len(queries), len(refs)))
    mirror = queries is refs
    for i, q in enumerate(queries):
        for j, r in enumerate(refs):
            if skip_diagonal and i == j:
                sim[i, j] = -np.inf
            elif mirror and j < i:
                sim[i, j] = sim[j, i]
            else:
                sim[i, j] = pair_similarity(q, r, weighting=weighting, solver=solver)[0]
    return sim


def _similarity_bound(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray) -> float:
    """Upper bound on the similarity sum((1 - c) * flows), without a solve.

    On the mass support, u_i = min_j c_ij with v = 0 is dual-feasible, so
    the EMD is at least sum_i a_i min_j c_ij, and likewise with the sides
    swapped (the relaxed bound of Kusner et al., ICML 2015).  The
    similarity is the total mass minus the EMD.
    """
    rows, cols = supply > 0, demand > 0
    kept = cost[rows][:, cols]
    return float(supply.sum()) - max(float(supply[rows] @ kept.min(axis=1)),
                                     float(demand[cols] @ kept.min(axis=0)))


def best_match(queries, refs, weighting: str = "cross_reference", solver: str = "simplex"):
    """Per query, the most similar reference and its exact similarity.

    Equal to the ``np.argmax`` of each row of :func:`similarity_matrix`,
    exact ties to the lowest index, but solves only the pairs that can
    still win.  Each pair is bounded without a solve
    (:func:`_similarity_bound`); pairs are solved in descending bound
    order, ties by index, until the next bound is more than ``PRUNE_RTOL``
    of the total mass below the best similarity so far.  Every pair's
    masses are checked as :class:`TransportProblem` checks them, solved or
    not.  Returns (indices, similarities), two arrays of length Q.
    """
    if len(refs) == 0:
        raise ValueError("best_match needs at least one reference")
    index, best = np.empty(len(queries), dtype=np.intp), np.empty(len(queries))
    for i, q in enumerate(queries):
        pairs = []
        for r in refs:
            wa, wb = _weights(q, r, weighting)
            check_masses(wa, wb)
            pairs.append((cost_matrix(q, r), wa, wb))
        bounds = np.array([_similarity_bound(*pair) for pair in pairs])
        best_j, best_sim = -1, -np.inf
        for j in np.argsort(-bounds, kind="stable"):
            cost, wa, wb = pairs[j]
            if bounds[j] < best_sim - PRUNE_RTOL * float(wa.sum()):
                break
            sim = _solve_and_score(cost, wa, wb, solver)[0]
            if sim > best_sim or (sim == best_sim and j < best_j):
                best_j, best_sim = int(j), sim
        index[i], best[i] = best_j, best_sim
    return index, best


# ---------------------------------------------------------------------------
# Backward chain: similarity -> (cost, weights) -> node matrices.


def _cosine_vjp(g_cos, cos, xhat, xnorm, yhat):
    """Pull g_cos back to the rows x of cos = xhat @ yhat.T.

    d cos_ij / d x_i = (yhat_j - cos_ij * xhat_i) / |x_i|; zero-norm rows
    are flat (cost pinned at 1).
    """
    safe = np.where(xnorm > 0, xnorm, 1.0)
    grad = (g_cos @ yhat - (g_cos * cos).sum(axis=1)[:, None] * xhat) / safe[:, None]
    grad[xnorm == 0] = 0.0
    return grad


def _weight_vjp(grad_w, w, raw, total, X, mean_other, grad_x, grad_other):
    """Accumulate the pullback through w = normalize(max(X @ mean_other, 0)).

    Adds into ``grad_x`` (X's rows) and ``grad_other`` (the rows of the
    set whose mean is ``mean_other``).  The uniform fallback carries no
    gradient.
    """
    if total > 0:
        g_raw = (grad_w - float(grad_w @ w)) / total * (raw > 0)
        grad_x += g_raw[:, None] * mean_other[None, :]
        n_other = grad_other.shape[0]
        grad_other += np.outer(np.ones(n_other), g_raw @ X) / n_other


def similarity_node_grads(a: EmbeddingSet, b: EmbeddingSet, solver: str = "simplex"):
    """Similarity with gradients wrt both node matrices.

    Uses cross-reference weighting; the chain runs through the cosine cost
    and the clamp/normalize weight path, with the envelope gradient of the
    LP value.  Returns (similarity, solution, grad_a, grad_b) where grad_a
    is d similarity / d a.vectors (M_a x C), likewise grad_b.
    """
    _check_channels(a, b)
    U, V = a.vectors, b.vectors
    raw_a, raw_b, mean_a, mean_b = _relevance(U, V)
    wa, tot_a = _normalize(raw_a)
    wb, tot_b = _normalize(raw_b)
    uhat, unorm, vhat, vnorm, cos, cost = _cosine(U, V)
    sim, sol, p = _solve_and_score(cost, wa, wb, solver)
    env = backward_similarity(1.0, sol, p, mode="envelope")

    g_cos = -env.d_cost
    grad_a = _cosine_vjp(g_cos, cos, uhat, unorm, vhat)
    grad_b = _cosine_vjp(g_cos.T, cos.T, vhat, vnorm, uhat)
    _weight_vjp(env.d_supply, wa, raw_a, tot_a, U, mean_b, grad_a, grad_b)
    _weight_vjp(env.d_demand, wb, raw_b, tot_b, V, mean_a, grad_b, grad_a)
    return sim, sol, grad_a, grad_b


# ---------------------------------------------------------------------------
# Extraction strategies.


def _as_map(feature_map) -> np.ndarray:
    arr = feature_map.as_array() if isinstance(feature_map, DenseTensor) else np.asarray(feature_map, dtype=float)
    if arr.ndim != 3:
        raise ValueError(f"feature map must be H x W x C, got shape {arr.shape}")
    return arr


def _cell_bounds(index: int, count: int, extent: int):
    """Even-division cell [lo, hi) along one axis (adaptive pooling bounds)."""
    lo = int(np.floor(index * extent / count))
    hi = int(np.ceil((index + 1) * extent / count))
    return lo, max(hi, lo + 1)


def _enlarge(lo: int, hi: int, factor: float, extent: int):
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * factor
    new_lo = int(np.floor(center - half))
    new_hi = int(np.ceil(center + half))
    return max(new_lo, 0), min(new_hi, extent)


def _grid_nodes(arr: np.ndarray, rows: int, cols: int, enlarge: float) -> np.ndarray:
    h, w, c = arr.shape
    if rows > h or cols > w:
        raise ValueError(f"grid {rows}x{cols} exceeds spatial extent {h}x{w}")
    nodes = np.empty((rows * cols, c))
    for r in range(rows):
        r0, r1 = _enlarge(*_cell_bounds(r, rows, h), enlarge, h)
        for q in range(cols):
            c0, c1 = _enlarge(*_cell_bounds(q, cols, w), enlarge, w)
            nodes[r * cols + q] = arr[r0:r1, c0:c1].mean(axis=(0, 1))
    return nodes


def _sampled_nodes(arr: np.ndarray, cfg: ExtractionConfig) -> np.ndarray:
    h, w, c = arr.shape
    rng = np.random.default_rng(cfg.rng_seed)
    lo, hi = cfg.patch_scale_range
    nodes = np.empty((cfg.patch_count, c))
    for i in range(cfg.patch_count):
        area = rng.uniform(lo, hi) * h * w
        aspect = np.exp(rng.uniform(np.log(0.5), np.log(2.0)))
        ph = int(np.clip(round(np.sqrt(area * aspect)), 1, h))
        pw = int(np.clip(round(np.sqrt(area / aspect)), 1, w))
        top = rng.integers(0, h - ph + 1)
        left = rng.integers(0, w - pw + 1)
        nodes[i] = arr[top:top + ph, left:left + pw].mean(axis=(0, 1))
    return nodes


def extract(feature_map, cfg: ExtractionConfig) -> EmbeddingSet:
    """Turn an H x W x C feature map into a node set.

    ``fcn`` keeps every spatial vector (row-major); ``grid`` averages
    context-enlarged cells of a rows x cols partition; ``sampling`` averages
    seeded random rectangles.  A non-empty ``cfg.pyramid_levels`` replaces
    the strategy with :func:`extract_pyramid`.  Weights are left at 1 for
    every node.
    """
    if cfg.pyramid_levels:
        return extract_pyramid(feature_map, cfg.pyramid_levels)
    arr = _as_map(feature_map)
    h, w, _ = arr.shape
    if cfg.strategy == "fcn":
        nodes = arr.reshape(h * w, -1)
    elif cfg.strategy == "grid":
        nodes = _grid_nodes(arr, cfg.grid_rows, cfg.grid_cols, cfg.context_enlarge)
    else:
        nodes = _sampled_nodes(arr, cfg)
    return EmbeddingSet(vectors=nodes)


def extract_pyramid(feature_map, levels) -> EmbeddingSet:
    """Multi-scale node set: level L contributes an L x L pooled grid.

    Levels pool with adaptive average windows, so levels [H] on a square
    map reproduce the dense extraction and level [1] is global pooling.
    """
    arr = _as_map(feature_map)
    h, w, _ = arr.shape
    levels = [int(v) for v in levels]
    if not levels:
        raise ValueError("pyramid needs at least one level")
    parts = []
    for lv in levels:
        if lv < 1 or lv > min(h, w):
            raise ValueError(f"pyramid level {lv} exceeds spatial extent {h}x{w}")
        parts.append(_grid_nodes(arr, lv, lv, 1.0))
    return EmbeddingSet(vectors=np.concatenate(parts, axis=0))
