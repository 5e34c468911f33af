"""EMD inputs from embedding sets.

Builds everything the transportation solver needs from two sets of local
embeddings: the cosine ground-cost matrix, cross-reference node weights,
the similarity score, and the extraction strategies that turn a spatial
feature map into a node set (dense, grid-pooled, randomly sampled patches,
and multi-scale pyramids).

Public entry points (:func:`emd_similarity`, :func:`pair_similarity`,
:func:`similarity_node_grads`) certify their solve; batched paths never do
for the simplex, whose kernel solves each pair's mass support.
:func:`similarity_matrix` and :func:`best_match` share one Q x R forward
(:func:`_pair_blocks`): the references are stacked once per call and each
query's unit rows and mean are taken once, then each pair gets its own cost
block and weights.  Every score is bit-equal to :func:`pair_similarity`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .tensor_io import DenseTensor
from .transport import TransportProblem, _simplex, check_masses, solve
from .diff import envelope_grads
from .diff import backward_similarity  # noqa: F401  (kept: perfbench/tracer.py patches it)

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


def _cosine(uhat: np.ndarray, vhat: np.ndarray):
    """Cosines of two stacks of unit rows, and the cost clip(1 - cos, 0, 2)."""
    cos = uhat @ vhat.T
    return cos, np.clip(1.0 - cos, 0.0, 2.0)


def _relevance(X: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Clamped raw relevance max(x_i . mean, 0) of each row of X.

    ``mean`` is one mean (C) or a stack of G means (G x C, giving M x G).
    """
    return np.maximum(X @ mean.T, 0.0)


def _normalize(raw: np.ndarray):
    """(raw / sum(raw), sum(raw)); an all-zero side falls back to uniform."""
    total = raw.sum()
    return (raw / total if total > 0 else np.full(raw.size, 1.0 / raw.size)), total


def cost_matrix(a: EmbeddingSet, b: EmbeddingSet) -> np.ndarray:
    """Cosine ground cost c_ij = 1 - cos(u_i, v_j), in [0, 2].

    Zero-norm vectors get cost 1 against everything (orthogonal limit).
    """
    _check_channels(a, b)
    return _cosine(_unit_rows(a.vectors)[0], _unit_rows(b.vectors)[0])[1]


def cross_reference_weights(a: EmbeddingSet, b: EmbeddingSet):
    """Relevance weights: each node scored against the other set's mean.

    s_i = max(u_i . mean(v), 0), then normalized so each side sums to 1.0.
    A side whose raw scores are all zero falls back to uniform weights.
    Returns (weights_a, weights_b).
    """
    _check_channels(a, b)
    return _weights(a, b, "cross_reference")


def emd_similarity(a: EmbeddingSet, b: EmbeddingSet, solver: str = "simplex"):
    """Similarity sum((1 - c) * flows) under the sets' current weights.

    Weights must be balanced (equal totals).  Returns (similarity, solution).
    """
    cost = cost_matrix(a, b)
    sol = solve(TransportProblem(cost=cost, supply=a.weights, demand=b.weights), solver)
    return float(np.sum((1.0 - cost) * sol.flows)), sol


def _weights(a: EmbeddingSet, b: EmbeddingSet, weighting: str, means=None):
    """Both sets' weights under ``weighting`` (cross_reference | equal | given).

    Cross-reference weights score each set against the other's node mean:
    ``means`` (a's, b's) when given, else each set's ``vectors.mean(axis=0)``.
    Equal weights are uniform and sum to 1.0; given are the sets' own.
    """
    if weighting == "cross_reference":
        mean_a, mean_b = means or (a.vectors.mean(axis=0), b.vectors.mean(axis=0))
        return (_normalize(_relevance(a.vectors, mean_b))[0],
                _normalize(_relevance(b.vectors, mean_a))[0])
    if weighting == "equal":
        return (np.full(a.node_count, 1.0 / a.node_count),
                np.full(b.node_count, 1.0 / b.node_count))
    if weighting == "given":
        return a.weights, b.weights
    raise ValueError(f"unknown weighting {weighting!r}")


def pair_similarity(a: EmbeddingSet, b: EmbeddingSet, weighting: str = "cross_reference",
                    solver: str = "simplex"):
    """Weight both sets (cross_reference | equal | given) and score them."""
    _check_channels(a, b)
    wa, wb = _weights(a, b, weighting)
    return emd_similarity(a.with_weights(wa), b.with_weights(wb), solver=solver)


def _pair_blocks(queries, refs, weighting: str, skip_diagonal: bool = False,
                 mirror: bool = False):
    """Per query i, the pairs it meets: yields (i, js, blocks), where
    blocks[n] = (cost, query weights, reference weights) for reference js[n].

    The references are stacked once and each query is its own
    :class:`_Stack`; its own buffer keeps a mirrored (i, i) block off BLAS's
    syrk path.  Each block is its own product, with the array shapes of
    :func:`cost_matrix` and :func:`cross_reference_weights`, so it is
    bit-equal to theirs, as one stacked product would not be.  With
    ``mirror`` (``refs`` is ``queries``) only the pairs j >= i are built
    (j > i with ``skip_diagonal``), else every pair but (i, i) with
    ``skip_diagonal``.  Each query's masses are checked in one batch, as
    :class:`TransportProblem` checks one pair.
    """
    if len(refs) == 0:
        return
    for r in refs:
        _check_channels(refs[0], r)
    mats = [r.vectors for r in refs]
    ys = _Stack(np.concatenate(mats), _starts(mats))
    spans = [slice(s, e) for s, e in zip(ys.starts, ys.starts[1:])]
    for i, q in enumerate(queries):
        _check_channels(q, refs[0])
        x = _Stack(q.vectors)
        js = [j for j in range(i if mirror else 0, len(refs)) if not (skip_diagonal and j == i)]
        blocks = [(_cosine(x.unit, ys.unit[spans[j]])[1],
                   *_weights(q, refs[j], weighting, (x.means[0], ys.means[j])))
                  for j in js]
        if blocks:
            supplies, demands = [b[1] for b in blocks], [b[2] for b in blocks]
            check_masses(np.concatenate(supplies), np.concatenate(demands),
                         totals=([float(w.sum()) for w in supplies],
                                 [float(w.sum()) for w in demands]))
        yield i, js, blocks


def _pair_score(cost: np.ndarray, supply, demand, solver: str) -> float:
    """:func:`emd_similarity` of one checked block, bit for bit.

    The simplex kernel solves the mass support, and its flows are scattered
    into the full block as :func:`~emdflow.transport.solve_simplex` does;
    no certificate is built.  Other solvers go through :func:`solve`.
    """
    if solver != "simplex":
        flows = solve(TransportProblem(cost=cost, supply=supply, demand=demand), solver).flows
    else:
        rows, cols = supply > 0, demand > 0
        kept = rows[:, None] & cols
        flows = np.zeros(cost.shape)
        flows[kept] = _simplex(cost[kept].reshape(np.count_nonzero(rows), -1),
                               supply[rows], demand[cols]).flows.ravel()
    return float(np.sum((1.0 - cost) * flows))


def similarity_matrix(queries, refs, weighting: str = "cross_reference",
                      solver: str = "simplex", skip_diagonal: bool = False) -> np.ndarray:
    """:func:`pair_similarity` of every query x reference pair, as a Q x R array.

    ``queries`` and ``refs`` are sequences of :class:`EmbeddingSet`.  With
    ``skip_diagonal`` the index-identical pairs (i, i) are not solved and
    hold -inf.  When ``refs`` is ``queries`` (the same sequence object) the
    score is symmetric in the pair, so only the pairs j >= i are solved
    (j > i with ``skip_diagonal``) and each result is copied to (j, i).
    Every entry is bit-equal to :func:`pair_similarity`'s.
    """
    sim = np.full((len(queries), len(refs)), -np.inf)
    mirror = queries is refs
    for i, js, blocks in _pair_blocks(queries, refs, weighting, skip_diagonal, mirror):
        sim[i, js] = [_pair_score(*block, solver) for block in blocks]
    if mirror:
        lower = np.tril_indices(len(refs), -1)
        sim[lower] = sim.T[lower]
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
    of the total mass below the best similarity so far.  Bounds and solves
    share :func:`similarity_matrix`'s forward, so every pair's masses are
    checked, solved or not.  Returns (indices, similarities), two arrays of
    length Q.
    """
    if len(refs) == 0:
        raise ValueError("best_match needs at least one reference")
    index, best = np.empty(len(queries), dtype=np.intp), np.empty(len(queries))
    for i, _, blocks in _pair_blocks(queries, refs, weighting):
        bounds = np.array([_similarity_bound(*block) for block in blocks])
        best_j, best_sim = -1, -np.inf
        for j in np.argsort(-bounds, kind="stable"):
            cost, wa, wb = blocks[j]
            if bounds[j] < best_sim - PRUNE_RTOL * float(wa.sum()):
                break
            sim = _pair_score(cost, wa, wb, solver)
            if sim > best_sim or (sim == best_sim and j < best_j):
                best_j, best_sim = int(j), sim
        index[i], best[i] = best_j, best_sim
    return index, best


# ---------------------------------------------------------------------------
# Every member of one stack of node sets against every member of another, and
# the backward chain: similarity -> (cost, weights) -> node matrices.


class _Stack:
    """Node matrices stacked by rows, with their unit rows (zero rows stay
    zero), norms and each member's node mean.

    Member g is rows ``starts[g]:starts[g + 1]``, one member unless
    ``starts`` splits them; members may differ in node count.  A non-finite
    entry raises ValueError, as in :class:`EmbeddingSet`.
    """

    __slots__ = ("vectors", "starts", "unit", "norms", "means")

    def __init__(self, vectors: np.ndarray, starts=None):
        if not np.all(np.isfinite(vectors)):
            raise ValueError("non-finite node vector")
        self.vectors = vectors
        self.starts = [0, vectors.shape[0]] if starts is None else starts
        self.unit, self.norms = _unit_rows(vectors)
        self.means = np.array([vectors[s:e].mean(axis=0)
                               for s, e in zip(self.starts, self.starts[1:])])


def _starts(mats) -> list:
    """Row offsets of node matrices stacked in order, with the total last."""
    return np.cumsum([0] + [m.shape[0] for m in mats]).tolist()


def _segment_sums(a: np.ndarray, starts) -> np.ndarray:
    """Sums of the last-axis segments ``starts[s]:starts[s + 1]`` of a
    C-contiguous ``a``, each bit-equal to that segment's own ``.sum()``."""
    return np.stack([a[..., s:e].sum(axis=-1) for s, e in zip(starts, starts[1:])], axis=-1)


def _normalize_segments(raw: np.ndarray, starts):
    """:func:`_normalize` of every last-axis segment of raw, bit for bit:
    (weights, segment totals), the totals with one entry per segment."""
    counts = np.diff(starts)
    total = _segment_sums(raw, starts)
    per_node = np.repeat(total, counts, axis=-1)
    uniform = np.repeat(1.0 / counts, counts)
    return np.where(per_node > 0, raw / np.where(per_node > 0, per_node, 1.0), uniform), total


class _Pairs:
    """Every member p of a stack xs against every member g of a stack ys.

    ``cos`` and ``cost`` are M x N; pair (p, g) is the block of p's rows and
    g's columns.  ``w_x`` / ``raw_x`` (G x M) hold xs's cross-reference
    weights against each y member, normalized over each x member's rows,
    with totals ``tot_x`` (G x P); ``w_y`` / ``raw_y`` (P x N) and ``tot_y``
    (P x G) are ys's against each x member.  An all-zero side keeps its
    uniform fallback.  The masses of all P x G problems are checked at once,
    as :func:`~emdflow.transport.check_masses` checks one problem.
    """

    __slots__ = ("cos", "cost", "w_x", "raw_x", "tot_x", "w_y", "raw_y", "tot_y")

    def __init__(self, xs: _Stack, ys: _Stack):
        self.cos, self.cost = _cosine(xs.unit, ys.unit)
        self.raw_x = np.ascontiguousarray(_relevance(xs.vectors, ys.means).T)
        self.raw_y = np.ascontiguousarray(_relevance(ys.vectors, xs.means).T)
        self.w_x, self.tot_x = _normalize_segments(self.raw_x, xs.starts)
        self.w_y, self.tot_y = _normalize_segments(self.raw_y, ys.starts)
        check_masses(self.w_x, self.w_y,
                     totals=(_segment_sums(self.w_x, xs.starts).T.ravel().tolist(),
                             _segment_sums(self.w_y, ys.starts).ravel().tolist()))


class _WarmStarts:
    """Last simplex basis tree of each (key, member) pair, with solve counts.

    A tree is offered again, and pivoted in place by the next solve, only
    while the pair's mass support, the rows and columns its subproblem
    keeps, is unchanged.
    """

    def __init__(self):
        self.trees = {}
        self.solves = self.pivots = self.warm = 0

    def solve(self, key, cost, supply, demand, rows, cols):
        support = (rows.tobytes(), cols.tobytes())
        last = self.trees.get(key)
        run = _simplex(cost, supply, demand,
                       start=last[1] if last is not None and last[0] == support else None)
        self.trees[key] = (support, run.tree)
        self.solves += 1
        self.pivots += run.pivots
        self.warm += run.warm
        return run


def _solve_members(pairs: _Pairs, xs: _Stack, ys: _Stack, solver: str, warm: _WarmStarts,
                   keys):
    """Solve every member pair (p, g); return (sims, flows, d_x, d_y).

    ``sims`` is P x G.  ``flows`` (M x N), ``d_x`` (G x M) and ``d_y``
    (P x N) hold each pair's envelope gradient of its similarity, -d_cost,
    d_supply and d_demand, in :class:`_Pairs`' layout: the pairs' flows and
    potentials are written into that layout and
    :func:`~emdflow.diff.envelope_grads` is applied once to the stack.
    Pairs are solved in x-member order.  The simplex kernel solves each
    pair on its mass support, restarted through ``warm`` from the basis
    tree that (``keys[p]``, g) last ended on, so an x member that appears
    twice restarts its second visit from its first; a zero-mass node gets
    zero gradients.  The gradient is gauge-invariant after the weight
    normalization, so the kernel's own potentials serve and no certificate
    is built.  Other solvers go through :func:`solve` on each pair's block.
    """
    sims = np.empty((len(xs.starts) - 1, len(ys.starts) - 1))
    flows = np.zeros(pairs.cost.shape)
    u, v = np.zeros(pairs.w_x.shape), np.zeros(pairs.w_y.shape)
    for p, (xa, xb) in enumerate(zip(xs.starts, xs.starts[1:])):
        for g, (ya, yb) in enumerate(zip(ys.starts, ys.starts[1:])):
            supply, demand = pairs.w_x[g, xa:xb], pairs.w_y[p, ya:yb]
            cost = pairs.cost[xa:xb, ya:yb]
            if solver == "simplex":
                rows, cols = supply.nonzero()[0], demand.nonzero()[0]
                cost = cost[rows[:, None], cols]
                run = warm.solve((keys[p], g), cost, supply[rows], demand[cols], rows, cols)
                flow, pot = run.flows, run.pot
            else:
                rows, cols = np.arange(xb - xa), np.arange(yb - ya)
                sol = solve(TransportProblem(cost=cost, supply=supply, demand=demand), solver)
                flow, pot = sol.flows, sol.duals_eq
            sims[p, g] = float(np.sum((1.0 - cost) * flow))
            flows[xa:xb, ya:yb][rows[:, None], cols] = flow
            u[g, xa:xb][rows] = pot[:rows.size]
            v[p, ya:yb][cols] = pot[rows.size:]
    env = envelope_grads(1.0, flows, u, v)
    d_x, d_y = env.d_supply, env.d_demand
    if solver == "simplex":  # the kernel leaves zero-mass nodes without potentials
        d_x, d_y = np.where(pairs.w_x > 0, d_x, 0.0), np.where(pairs.w_y > 0, d_y, 0.0)
    return sims, -env.d_cost, d_x, d_y


def _cosine_vjp(g_cos, cos, xhat, xnorm, yhat):
    """Pull g_cos back to the rows x of cos = xhat @ yhat.T.

    d cos_ij / d x_i = (yhat_j - cos_ij * xhat_i) / |x_i|; zero-norm rows
    are flat (cost pinned at 1).
    """
    safe = np.where(xnorm > 0, xnorm, 1.0)
    grad = (g_cos @ yhat - (g_cos * cos).sum(axis=1)[:, None] * xhat) / safe[:, None]
    grad[xnorm == 0] = 0.0
    return grad


def _weight_vjp(grad_w, w, raw, total, starts):
    """Pull ``grad_w`` back through w = normalize(max(r, 0)) to r, per
    last-axis segment ``starts[s]:starts[s + 1]`` with total ``total[..., s]``.

    (grad_w - grad_w . w) / total where raw > 0, the dot taken per segment;
    the uniform fallback (total 0) carries no gradient.
    """
    counts = np.diff(starts)
    dot = np.repeat(_segment_sums(grad_w * w, starts), counts, axis=-1)
    total = np.repeat(total, counts, axis=-1)
    return (grad_w - dot) / np.where(total > 0, total, np.inf) * (raw > 0)


def _member_grads(xs: _Stack, ys: _Stack, pairs: _Pairs, flows, d_x, d_y, upstream,
                  want_x: bool = False):
    """Gradient of sum_pg upstream[p, g] * sim_pg wrt ys's rows (N x C), and
    wrt xs's rows too with ``want_x``: (grad_xs, grad_ys).

    The chain runs through the cosine cost and, on both sides, the
    clamp/normalize weights and the member mean each weight is scored
    against, one stacked product per term for all P x G pairs.
    """
    cx, cy = np.diff(xs.starts), np.diff(ys.starts)
    g_cos = flows * np.repeat(np.repeat(upstream, cx, axis=0), cy, axis=1)
    g_raw_x = _weight_vjp(np.repeat(upstream.T, cx, axis=1) * d_x,
                          pairs.w_x, pairs.raw_x, pairs.tot_x, xs.starts)
    g_raw_y = _weight_vjp(np.repeat(upstream, cy, axis=1) * d_y,
                          pairs.w_y, pairs.raw_y, pairs.tot_y, ys.starts)
    grad_ys = (_cosine_vjp(g_cos.T, pairs.cos.T, ys.unit, ys.norms, xs.unit)
               + np.repeat(g_raw_x @ xs.vectors / cy[:, None], cy, axis=0)
               + g_raw_y.T @ xs.means)
    if not want_x:
        return grad_ys
    grad_xs = (_cosine_vjp(g_cos, pairs.cos, xs.unit, xs.norms, ys.unit)
               + g_raw_x.T @ ys.means
               + np.repeat(g_raw_y @ ys.vectors / cx[:, None], cx, axis=0))
    return grad_xs, grad_ys


def _fused_step(xs: _Stack, ys: _Stack, loss, solver: str, warm: _WarmStarts, keys,
                want_x: bool = False):
    """One forward and backward of every member of xs against every member of ys.

    ``loss`` maps the P x G similarities to (value, d value / d sims);
    ``warm`` and ``keys`` (one per x member) are :func:`_solve_members`'.
    Returns (value, grads): grads is d value / d ys's rows, or with
    ``want_x`` (d / d xs's rows, d / d ys's rows).
    """
    pairs = _Pairs(xs, ys)
    sims, flows, d_x, d_y = _solve_members(pairs, xs, ys, solver, warm, keys)
    value, d_sims = loss(sims)
    return value, _member_grads(xs, ys, pairs, flows, d_x, d_y, d_sims, want_x)


def similarity_node_grads(a: EmbeddingSet, b: EmbeddingSet, solver: str = "simplex"):
    """Similarity with gradients wrt both node matrices.

    :func:`pair_similarity` under cross-reference weighting, bit for bit:
    the fused step's 1 x 1 forward hands its cost and weights to one
    certified solve, whose envelope gradient the fused backward pulls back
    through the cosine cost and the clamp/normalize weights.  Returns
    (similarity, solution, grad_a, grad_b), grad_a = d similarity /
    d a.vectors (M_a x C), likewise b.
    """
    _check_channels(a, b)
    x, y = _Stack(a.vectors), _Stack(b.vectors)
    pairs = _Pairs(x, y)
    sol = solve(TransportProblem(cost=pairs.cost, supply=pairs.w_x[0], demand=pairs.w_y[0]),
                solver)
    m = pairs.cost.shape[0]
    env = envelope_grads(1.0, sol.flows, sol.duals_eq[:m], sol.duals_eq[m:])
    grad_a, grad_b = _member_grads(x, y, pairs, -env.d_cost, env.d_supply[None],
                                   env.d_demand[None], np.ones((1, 1)), want_x=True)
    return float(np.sum((1.0 - pairs.cost) * sol.flows)), sol, grad_a, grad_b


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
