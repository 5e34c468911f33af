"""EMD inputs from embedding sets.

Builds everything the transportation solver needs from two sets of local
embeddings: the cosine ground-cost matrix, cross-reference node weights,
the similarity score, and the extraction strategies that turn a spatial
feature map into a node set (dense, grid-pooled, randomly sampled patches,
and multi-scale pyramids).

Public entry points (:func:`emd_similarity`, :func:`pair_similarity`,
:func:`similarity_node_grads`) certify their solve (:func:`_solve_score`);
batched paths never do for the simplex, which solves each pair's mass
support as solve_simplex does (:func:`_pair_score`).
Every weight, of one pair or of every pair of two stacks, comes from
:func:`_side_weights`; a node's relevance is its own dot product, so a
pair's slice of stacked weights is bit-equal to its own.
:func:`similarity_matrix` and :func:`best_match` share one scan of query
chunks against the references stacked once (:func:`_query_chunks`); only a
solved pair's cost block is its own product, so every score is bit-equal to
:func:`pair_similarity`.
:func:`best_match` orders and prunes the pairs by relaxed bounds from one
stacked forward (:class:`_Pairs`) per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .tensor_io import DenseTensor
from .transport import (SIMPLEX_TOL, TransportProblem, _Forest, _solve_support, check_masses,
                        solve)
from .diff import envelope_grads
from .diff import backward_similarity  # noqa: F401  (kept: perfbench/tracer.py patches it)

# best_match skips a pair whose similarity bound is more than this share of
# the total mass below the best similarity so far.  It must exceed the
# rounding of bound and score and the interior point's objective error.
PRUNE_RTOL = 1e-6

# _query_chunks stacks the queries in consecutive chunks of at most this
# many query node x reference node cells (one query at least), so memory
# does not grow with Q.  best_match's stacked cost and bounds hold ~24 bytes
# of temporaries per cell, so ~6 MiB here; on 400 x 26 sets of 25 x 64 nodes
# (2-vCPU host) a pair's bound cost about the same at 2^16...2^20 cells and
# 1.4-1.6x as much unchunked (6.5M cells).
_BOUND_CELLS = 1 << 18

# A row norm below this has a sum of squares below the smallest normal float.
_SQRT_TINY = np.sqrt(np.finfo(float).tiny)


@dataclass(frozen=True)
class EmbeddingSet:
    """A weighted collection of node vectors sharing one channel dim.

    ``vectors`` is M x C; ``weights`` is length M and nonnegative.  Fresh
    extractions carry unit weights; call :func:`cross_reference_weights`
    (or normalize explicitly) before solving.  ``vectors`` is kept
    C-contiguous (a C-ordered float64 input is not copied), so a set's node
    mean and relevances have the same bits whatever the caller's layout.
    """

    vectors: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        vec = np.ascontiguousarray(self.vectors, dtype=np.float64)
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
        if not (np.isfinite(self.context_enlarge) and self.context_enlarge >= 1):
            raise ValueError(f"context_enlarge must be finite and >= 1, "
                             f"got {self.context_enlarge}")
        object.__setattr__(self, "pyramid_levels", tuple(self.pyramid_levels))


def _check_channels(a: EmbeddingSet, b: EmbeddingSet):
    if a.channels != b.channels:
        raise ValueError(f"channel mismatch: {a.channels} vs {b.channels}")


def _row_norms(mat: np.ndarray) -> np.ndarray:
    """Each row's 2-norm, inf where its sum of squares overflows float64."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(mat, axis=1)


def _unit_rows(mat: np.ndarray):
    """Row-normalize, mapping zero rows to zero (treated as orthogonal).

    A norm that overflows raises ValueError, as its unit row would be zero.
    So does a nonzero row whose norm is below sqrt(smallest normal float):
    its sum of squares is subnormal or has underflowed to 0, so its unit row
    would lose digits or be zero.  Only such small rows are looked at again.
    """
    norms = _row_norms(mat)
    if not np.isfinite(norms).all():
        raise ValueError("node vector norm overflows float64; rescale the vectors")
    small = norms < _SQRT_TINY
    if small.any() and mat[small].any():
        raise ValueError("node vector norm underflows float64; rescale the vectors")
    safe = np.where(norms > 0, norms, 1.0)
    return mat / safe[:, None], norms


def _cosine(uhat: np.ndarray, vhat: np.ndarray):
    """Cosines of two stacks of unit rows, and the cost clip(1 - cos, 0, 2)."""
    cos = uhat @ vhat.T
    return cos, np.clip(1.0 - cos, 0.0, 2.0)


def _relevance(X: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Clamped raw relevance max(x_i . mean, 0) of each row of X (M x C).

    ``means`` is one mean (C, giving M values) or G means (G x C, giving
    G x M).  Each value is its own dot product, a batch of 1 x C by C x 1
    products, so a node's relevance has the same bits whichever rows are
    stacked with it: a member's stacked weights are bit-equal to its pair's
    own.  One matrix product would block its sums by the stack's shape.
    """
    return np.maximum(np.matmul(means[..., None, None, :], X[:, :, None])[..., 0, 0], 0.0)


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


def _solve_score(cost: np.ndarray, supply, demand, solver: str):
    """Certified solve of one block: (sum((1 - c) * flows), solution)."""
    sol = solve(TransportProblem(cost=cost, supply=supply, demand=demand), solver)
    return float(np.sum((1.0 - cost) * sol.flows)), sol


def emd_similarity(a: EmbeddingSet, b: EmbeddingSet, solver: str = "simplex"):
    """Similarity sum((1 - c) * flows) under the sets' current weights.

    Weights must be balanced (equal totals).  Returns (similarity, solution).
    """
    return _solve_score(cost_matrix(a, b), a.weights, b.weights, solver)


def _weights(a: EmbeddingSet, b: EmbeddingSet, weighting: str):
    """Both sets' weights under ``weighting`` (cross_reference | equal | given):
    :func:`_side_weights` of the 1 x 1 stacks, each side against the other."""
    xs, ys = _stack([a]), _stack([b])
    return _side_weights(xs, ys, weighting)[0][0], _side_weights(ys, xs, weighting)[0][0]


def pair_similarity(a: EmbeddingSet, b: EmbeddingSet, weighting: str = "cross_reference",
                    solver: str = "simplex"):
    """Weight both sets (cross_reference | equal | given) and score them on
    their 1 x 1 :class:`_Pairs`, whose cost is :func:`cost_matrix`'s."""
    _check_channels(a, b)
    pairs = _Pairs(_stack([a]), _stack([b]), weighting)
    return _solve_score(pairs.cost, pairs.w_x[0], pairs.w_y[0], solver)


def _stack(sets) -> _Stack:
    """The node sets stacked by rows, one member each, in a buffer of their
    own, with their own weights (for ``given`` weighting).

    Queries and references are stacked apart even when they are one list: a
    block of one buffer times itself would take BLAS's syrk path and round
    differently from :func:`cost_matrix`.
    """
    mats = [s.vectors for s in sets]
    return _Stack(np.concatenate(mats), _starts(mats), np.concatenate([s.weights for s in sets]))


def _pair_score(xs: _Stack, p: int, ys: _Stack, g: int, w_x, w_y, solver: str) -> float:
    """:func:`pair_similarity` of pair (p, g) of a query chunk, bit for bit:
    its weights are slices of the checked ``w_x`` and ``w_y``, its cost its
    own product of the stacks' unit rows with :func:`cost_matrix`'s shapes
    (a block of one stacked product rounds differently).  The simplex solves
    the mass support with no certificate (``transport._solve_support``)."""
    xa, xb, ya, yb = xs.starts[p], xs.starts[p + 1], ys.starts[g], ys.starts[g + 1]
    cost = _cosine(xs.unit[xa:xb], ys.unit[ya:yb])[1]
    supply, demand = w_x[g, xa:xb], w_y[p, ya:yb]
    if solver != "simplex":
        return _solve_score(cost, supply, demand, solver)[0]
    flows = np.zeros(cost.shape)
    _solve_support(cost, supply, demand, flows)
    return float(np.sum((1.0 - cost) * flows))


def _query_chunks(queries, refs):
    """(lo, xs, ys) per consecutive chunk of queries: xs their stack (query lo
    first; at most ``_BOUND_CELLS`` cells against ys, one query at least), ys
    the references', stacked once.  Raises ValueError unless every
    reference, then every query, has the first reference's channels."""
    for r in refs:
        _check_channels(refs[0], r)
    for q in queries:
        _check_channels(q, refs[0])
    ys = _stack(refs)
    lo = rows = 0
    for i, q in enumerate(queries):
        if i > lo and (rows + q.node_count) * ys.vectors.shape[0] > _BOUND_CELLS:
            yield lo, _stack(queries[lo:i]), ys
            lo, rows = i, 0
        rows += q.node_count
    if lo < len(queries):
        yield lo, _stack(queries[lo:]), ys


def similarity_matrix(queries, refs, weighting: str = "cross_reference",
                      solver: str = "simplex", skip_diagonal: bool = False) -> np.ndarray:
    """:func:`pair_similarity` of every query x reference pair, as a Q x R array.

    ``queries`` and ``refs`` are sequences of :class:`EmbeddingSet`.  With
    ``skip_diagonal`` the index-identical pairs (i, i) are not solved and
    hold -inf.  When ``refs`` is ``queries`` (the same sequence object) the
    score is symmetric in the pair, so only the pairs j >= i are solved
    (j > i with ``skip_diagonal``) and each result is copied to (j, i).
    Per chunk of queries (:func:`_query_chunks`), a solved pair's weights
    are slices of the chunk's :func:`_side_weights`, taken without the
    stacked cosine :class:`_Pairs` would add, and its cost is its own block
    (:func:`_pair_score`), so every entry is bit-equal to
    :func:`pair_similarity`'s.  Each chunk's solved pairs have their masses
    checked in one batch, as :class:`TransportProblem` checks one pair,
    before any of them is scored.
    """
    sim = np.full((len(queries), len(refs)), -np.inf)
    if len(refs) == 0:
        return sim
    mirror = queries is refs
    for lo, xs, ys in _query_chunks(queries, refs):
        w_x, w_y = _side_weights(xs, ys, weighting)[0], _side_weights(ys, xs, weighting)[0]
        solved = [(p, j) for p in range(len(xs.starts) - 1)
                  for j in range(lo + p if mirror else 0, len(refs))
                  if not (skip_diagonal and j == lo + p)]
        ps, js = np.array(solved, dtype=np.intp).reshape(-1, 2).T
        check_masses(w_x, w_y, totals=(_segment_sums(w_x, xs.starts)[js, ps].tolist(),
                                       _segment_sums(w_y, ys.starts)[ps, js].tolist()))
        for p, j in solved:
            sim[lo + p, j] = _pair_score(xs, p, ys, j, w_x, w_y, solver)
            if mirror:
                sim[j, lo + p] = sim[lo + p, j]
    return sim


def _relaxed_bounds(xs: _Stack, ys: _Stack, pairs: _Pairs):
    """Upper bounds on every pair's similarity without a solve, and each
    pair's total supply: two P x G arrays, from the stacked forward
    ``pairs`` of xs x ys.

    On a pair's mass support, u_i = min_j c_ij with v = 0 is dual-feasible,
    so the EMD is at least sum_i a_i min_j c_ij, and likewise with the sides
    swapped (the relaxed bound of Kusner et al., ICML 2015); the similarity
    is the total supply minus the EMD.  Cells off a pair's support are +inf
    in its minima and zero-mass lines add 0 to its sums.  The stacked cost
    and sums round ~1e-16 of the mass away from a pair's own, so the bounds
    only order and prune (``PRUNE_RTOL``).
    """
    cost, w_x, w_y = pairs.cost, pairs.w_x, pairs.w_y
    x0, y0 = xs.starts[:-1], ys.starts[:-1]
    row_min = np.minimum.reduceat(
        np.where(np.repeat(w_y > 0, np.diff(xs.starts), axis=0), cost, np.inf), y0, axis=1)
    col_min = np.minimum.reduceat(
        np.where(np.repeat(w_x > 0, np.diff(ys.starts), axis=0).T, cost, np.inf), x0, axis=0)
    supply = np.add.reduceat(w_x, x0, axis=1).T
    emd = np.maximum(np.add.reduceat(w_x.T * row_min, x0, axis=0),
                     np.add.reduceat(w_y * col_min, y0, axis=1))
    return supply - emd, supply


def best_match(queries, refs, weighting: str = "cross_reference", solver: str = "simplex"):
    """Per query, the most similar reference and its exact similarity.

    Equal to the ``np.argmax`` of each row of :func:`similarity_matrix`,
    exact ties to the lowest index, but solves only the pairs that can
    still win.  Per chunk of queries (:func:`_query_chunks`),
    :class:`_Pairs` gives every pair's cost and weights and checks every
    pair's masses, and :func:`_relaxed_bounds` bounds every pair
    without a solve.  Per query, pairs are solved in descending bound
    order, ties by index, until the next bound is more than ``PRUNE_RTOL``
    of the total mass below the best similarity so far.  A solved pair's
    weights are slices of the stacked ones and its cost is its own block
    (:func:`_pair_score`), so every similarity is bit-equal to
    :func:`similarity_matrix`'s.  Returns (indices, similarities), two
    arrays of length Q.
    """
    if len(refs) == 0:
        raise ValueError("best_match needs at least one reference")
    index, best = np.empty(len(queries), dtype=np.intp), np.empty(len(queries))
    for lo, xs, ys in _query_chunks(queries, refs):
        pairs = _Pairs(xs, ys, weighting)
        bounds, supply = _relaxed_bounds(xs, ys, pairs)
        for p in range(len(xs.starts) - 1):
            bound, mass = bounds[p].tolist(), supply[p].tolist()
            best_j, best_sim = -1, -np.inf
            for j in np.argsort(-bounds[p], kind="stable").tolist():
                if bound[j] < best_sim - PRUNE_RTOL * mass[j]:
                    break
                sim = _pair_score(xs, p, ys, j, pairs.w_x, pairs.w_y, solver)
                if sim > best_sim or (sim == best_sim and j < best_j):
                    best_j, best_sim = j, sim
            index[lo + p], best[lo + p] = best_j, best_sim
    return index, best


# ---------------------------------------------------------------------------
# Every member of one stack of node sets against every member of another, and
# the backward chain: similarity -> (cost, weights) -> node matrices.


class _Stack:
    """Node matrices stacked by rows, with their unit rows (zero rows stay
    zero), norms, each member's node mean and, when given, the members'
    own node weights (``given`` weighting; else None).

    Member g is rows ``starts[g]:starts[g + 1]``, one member unless
    ``starts`` splits them; members may differ in node count.  A non-finite
    entry raises ValueError, as in :class:`EmbeddingSet`.
    """

    __slots__ = ("vectors", "starts", "unit", "norms", "means", "weights")

    def __init__(self, vectors: np.ndarray, starts=None, weights=None):
        if not np.all(np.isfinite(vectors)):
            raise ValueError("non-finite node vector")
        self.vectors = vectors
        self.starts = [0, vectors.shape[0]] if starts is None else starts
        self.weights = weights
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
    """Every last-axis segment of raw divided by its sum, an all-zero segment
    falling back to uniform: (weights, segment totals), the totals with one
    entry per segment."""
    counts = np.diff(starts)
    total = _segment_sums(raw, starts)
    per_node = np.repeat(total, counts, axis=-1)
    uniform = np.repeat(1.0 / counts, counts)
    return np.where(per_node > 0, raw / np.where(per_node > 0, per_node, 1.0), uniform), total


def _side_weights(xs: _Stack, ys: _Stack, weighting: str):
    """xs's weights against each member of ys under ``weighting``
    (cross_reference | equal | given): (w, raw, total), w G x M.

    Cross-reference weights are each x member's clamped relevances ``raw``
    (G x M) to a y member's node mean, divided by their per-member totals
    ``total`` (G x P), an all-zero member falling back to uniform; row g of
    member p is bit-equal to the 1 x 1 stacks' (:func:`_relevance` is per
    node).  A relevance or total that overflows float64 raises ValueError,
    as an overflowing norm does in :func:`_unit_rows`.  Equal and given
    weights do not depend on the partner, so their rows repeat and raw and
    total are None.  Call as (ys, xs) for ys's side.
    """
    if weighting == "cross_reference":
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            raw = _relevance(xs.vectors, ys.means)
            w, total = _normalize_segments(raw, xs.starts)
        if not np.isfinite(total).all():  # an inf total would make every weight 0
            raise ValueError("relevance total overflows float64; rescale the vectors")
        return w, raw, total
    if weighting == "equal":
        counts = np.diff(xs.starts)
        own = np.repeat(1.0 / counts, counts)
    elif weighting == "given":
        own = xs.weights
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    return np.tile(own, (len(ys.starts) - 1, 1)), None, None


class _Pairs:
    """Every member p of a stack xs against every member g of a stack ys:
    the one stacked forward.

    ``cos`` and ``cost`` are M x N; pair (p, g) is the block of p's rows and
    g's columns.  ``w_x`` (G x M) holds xs's weights against each y member,
    ``w_y`` (P x N) ys's against each x member, both from
    :func:`_side_weights`; under cross_reference weighting ``raw_x`` /
    ``tot_x`` (G x M, G x P) and ``raw_y`` / ``tot_y`` (P x N, P x G) are
    the relevances and per-member totals the backward needs.  The masses of
    all P x G problems are checked at once, as
    :func:`~emdflow.transport.check_masses` checks one problem.
    """

    __slots__ = ("cos", "cost", "w_x", "raw_x", "tot_x", "w_y", "raw_y", "tot_y")

    def __init__(self, xs: _Stack, ys: _Stack, weighting: str = "cross_reference"):
        self.cos, self.cost = _cosine(xs.unit, ys.unit)
        self.w_x, self.raw_x, self.tot_x = _side_weights(xs, ys, weighting)
        self.w_y, self.raw_y, self.tot_y = _side_weights(ys, xs, weighting)
        check_masses(self.w_x, self.w_y,
                     totals=(_segment_sums(self.w_x, xs.starts).T.ravel().tolist(),
                             _segment_sums(self.w_y, ys.starts).ravel().tolist()))


class _WarmStarts:
    """Each (key, member) pair's last ``transport._solve_support`` result, and
    solve counts; a restart that :func:`_certified_restarts` certifies
    counts as one warm solve with 0 pivots, as the kernel would run it."""

    def __init__(self):
        self.last = {}
        self.solves = self.pivots = self.warm = 0

    def solve(self, key, cost, supply, demand, out):
        result = self.last[key] = _solve_support(cost, supply, demand, out, last=self.last.get(key))
        run = result[0]
        self.solves += 1
        self.pivots += run.pivots
        self.warm += run.warm
        return result


def _certified_restarts(pairs: _Pairs, xs: _Stack, ys: _Stack, warm: _WarmStarts, keys,
                        sims, flows, u, v) -> set:
    """Certify at once the member pairs whose warm restart would end at 0
    pivots, write their results into :func:`_solve_members`' stacks, and
    return them as a set of (p, g).

    Candidates have a ``warm.last`` result over the same kept rows and
    columns, and no earlier pair with their key goes to the kernel.  One
    :class:`~emdflow.transport._Forest` of their kept trees gives every
    restart's potentials and basic flows.  A candidate is certified when
    its basic flows are >= 0 and its kept non-basic cells pass the kernel's
    stop test (reduced cost >= -SIMPLEX_TOL max|kept cost|).  Its flows,
    potentials and similarity (summed over its C-contiguous, row-major kept
    block) are then bit-equal to the kernel's.
    """
    cands, blocked = [], set()
    for p, (xa, xb) in enumerate(zip(xs.starts, xs.starts[1:])):
        for g, (ya, yb) in enumerate(zip(ys.starts, ys.starts[1:])):
            key = (keys[p], g)
            last = warm.last.get(key)
            if last is not None and key not in blocked:
                rows, cols = pairs.w_x[g, xa:xb].nonzero()[0], pairs.w_y[p, ya:yb].nonzero()[0]
                if rows.tobytes() == last[1].tobytes() and cols.tobytes() == last[2].tobytes():
                    cands.append((p, g, key, last[0].tree, xa + rows, ya + cols))
                    continue
            blocked.add(key)
    if not cands:
        return set()
    forest = _Forest([c[3] for c in cands])
    # Nodes: each candidate's kept rows, then its kept columns, as stack lines.
    line = np.concatenate([lines for c in cands for lines in c[4:]])
    m, k = np.array([c[4].size for c in cands]), np.array([c[5].size for c in cands])
    start, size = forest.offsets[:-1], m + k
    pair = np.repeat(np.arange(len(cands)), size)
    member = np.array([c[:2] for c in cands])[pair]  # each node's (p, g)
    supplier = np.arange(line.size) < np.repeat(start + m, size)
    # Cells: each candidate's kept block, row-major.
    count = m * k
    first = np.cumsum(count) - count
    t = np.arange(count.sum()) - np.repeat(first, count)
    row, col = np.divmod(t, np.repeat(k, count))
    row += np.repeat(start, count)
    col += np.repeat(start + m, count)
    cost = pairs.cost[line[row], line[col]]
    nonroot = np.flatnonzero(forest.edge >= 0)
    basic = np.repeat(first, size)[nonroot] + forest.edge[nonroot]
    values = np.zeros(line.size)
    values[nonroot] = cost[basic]
    pot = forest.potentials(values)
    rest = np.empty(line.size)
    rest[supplier] = pairs.w_x[member[supplier, 1], line[supplier]]
    rest[~supplier] = pairs.w_y[member[~supplier, 0], line[~supplier]]
    flow = np.zeros(cost.size)
    flow[basic] = forest.flows(rest)[nonroot]
    red = (cost - pot[row]) - pot[col]
    red[basic] = np.inf
    passed = ((np.minimum.reduceat(red, first)
               >= -SIMPLEX_TOL * np.maximum.reduceat(np.abs(cost), first))
              & (np.minimum.reduceat(flow, first) >= 0.0))
    product = (1.0 - cost) * flow
    done, failed = set(), set()
    for c, ok, a, n in zip(cands, passed.tolist(), first.tolist(), count.tolist()):
        if ok and c[2] not in failed:
            sims[c[:2]] = float(product[a:a + n].sum())
            done.add(c[:2])
        else:
            failed.add(c[2])
    on = np.array([c[:2] in done for c in cands])[pair]
    cells = basic[on[nonroot]]
    flows[line[row[cells]], line[col[cells]]] = flow[cells]
    x, y = on & supplier, on & ~supplier
    u[member[x, 1], line[x]] = pot[x]
    v[member[y, 0], line[y]] = pot[y]
    warm.solves += len(done)
    warm.warm += len(done)
    return done


def _solve_members(pairs: _Pairs, xs: _Stack, ys: _Stack, solver: str, warm: _WarmStarts,
                   keys):
    """Solve every member pair (p, g); return (sims, flows, d_x, d_y).

    ``sims`` is P x G.  ``flows`` (M x N), ``d_x`` (G x M) and ``d_y``
    (P x N) hold each pair's envelope gradient of its similarity, -d_cost,
    d_supply and d_demand, in :class:`_Pairs`' layout: the pairs' flows and
    potentials are written into that layout and
    :func:`~emdflow.diff.envelope_grads` is applied once to the stack.
    The simplex solves each pair's mass support into the stack, restarted
    through ``warm`` from the basis tree that (``keys[p]``, g) last ended on,
    so an x member that appears twice restarts its second visit from its
    first; a zero-mass node gets zero gradients.  The restarts that would
    end at 0 pivots are certified first, all in one stacked tree pass
    (:func:`_certified_restarts`); every other pair runs the kernel, in
    x-member order.  The gradient is gauge-invariant after the weight
    normalization, so the kernel's own potentials serve and no certificate
    is built.  Other solvers go through :func:`solve` on each pair's block.
    Every output is bit-equal to running the kernel on every pair.
    """
    sims = np.empty((len(xs.starts) - 1, len(ys.starts) - 1))
    flows = np.zeros(pairs.cost.shape)
    u, v = np.zeros(pairs.w_x.shape), np.zeros(pairs.w_y.shape)
    done = (_certified_restarts(pairs, xs, ys, warm, keys, sims, flows, u, v)
            if solver == "simplex" else ())
    for p, (xa, xb) in enumerate(zip(xs.starts, xs.starts[1:])):
        for g, (ya, yb) in enumerate(zip(ys.starts, ys.starts[1:])):
            if (p, g) in done:
                continue
            supply, demand = pairs.w_x[g, xa:xb], pairs.w_y[p, ya:yb]
            cost = pairs.cost[xa:xb, ya:yb]
            if solver == "simplex":
                run, rows, cols, cost = warm.solve((keys[p], g), cost, supply, demand,
                                                   flows[xa:xb, ya:yb])
                sims[p, g], pot = float(np.sum((1.0 - cost) * run.flows)), run.pot
            else:
                sims[p, g], sol = _solve_score(cost, supply, demand, solver)
                flows[xa:xb, ya:yb] = sol.flows
                rows, cols, pot = np.arange(xb - xa), np.arange(yb - ya), sol.duals_eq
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
    sim, sol = _solve_score(pairs.cost, pairs.w_x[0], pairs.w_y[0], solver)
    m = pairs.cost.shape[0]
    env = envelope_grads(1.0, sol.flows, sol.duals_eq[:m], sol.duals_eq[m:])
    grad_a, grad_b = _member_grads(x, y, pairs, -env.d_cost, env.d_supply[None],
                                   env.d_demand[None], np.ones((1, 1)), want_x=True)
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
        if lv < 1:
            raise ValueError(f"pyramid levels must be >= 1, got {lv}")
        if lv > min(h, w):
            raise ValueError(f"pyramid level {lv} exceeds spatial extent {h}x{w}")
        parts.append(_grid_nodes(arr, lv, lv, 1.0))
    return EmbeddingSet(vectors=np.concatenate(parts, axis=0))
