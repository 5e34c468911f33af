from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import emdflow
from emdflow import metric, transport
from emdflow.metric import (
    PRUNE_RTOL, WEIGHTINGS, EmbeddingSet, ExtractionConfig, _Pairs, _relaxed_bounds,
    _relevance, _side_weights, _stack, _Stack, _weights, best_match, cost_matrix,
    cross_reference_weights, emd_similarity, extract, extract_pyramid, pair_similarity,
    similarity_matrix, similarity_node_grads,
)
from emdflow.diff import envelope_grads
from emdflow.tensor_io import DenseTensor
from emdflow.transport import solve_oracle, TransportProblem

from conftest import counted_calls


def _sets(rng, ma, mb, c):
    return (EmbeddingSet(rng.standard_normal((ma, c))),
            EmbeddingSet(rng.standard_normal((mb, c))))


def test_cost_identical_orthogonal_antipodal():
    u = EmbeddingSet(np.array([[1.0, 0.0]]))
    assert cost_matrix(u, u)[0, 0] == pytest.approx(0.0, abs=1e-15)
    v = EmbeddingSet(np.array([[0.0, 1.0]]))
    assert cost_matrix(u, v)[0, 0] == pytest.approx(1.0)
    w = EmbeddingSet(np.array([[-1.0, 0.0]]))
    assert cost_matrix(u, w)[0, 0] == pytest.approx(2.0)


def test_cost_range_and_channel_mismatch():
    rng = np.random.default_rng(0)
    a, b = _sets(rng, 4, 5, 3)
    c = cost_matrix(a, b)
    assert c.shape == (4, 5)
    assert np.all((c >= 0) & (c <= 2))
    with pytest.raises(ValueError):
        cost_matrix(a, EmbeddingSet(np.ones((2, 7))))


def test_cost_zero_norm_treated_orthogonal():
    a = EmbeddingSet(np.array([[0.0, 0.0]]))
    b = EmbeddingSet(np.array([[3.0, 4.0]]))
    assert cost_matrix(a, b)[0, 0] == pytest.approx(1.0)


_OVERFLOWING = {
    "cost_matrix": cost_matrix,
    "cross_reference_weights": cross_reference_weights,
    # The set against its own rows reversed, uniform weights: similarity 1.
    "emd_similarity": lambda a, b: emd_similarity(
        a, EmbeddingSet(a.vectors[::-1]), np.full(3, 1 / 3), np.full(3, 1 / 3)),
    "pair_similarity": pair_similarity,
    "similarity_node_grads": similarity_node_grads,
    "similarity_matrix": lambda a, b: similarity_matrix([a], [b]),
    "best_match": lambda a, b: best_match([a], [b]),
}


@pytest.mark.parametrize("entry", sorted(_OVERFLOWING))
def test_overflowing_norms_raise(entry):
    """Node vectors whose norm overflows float64 raise a ValueError naming
    the overflow: an inf norm would make a unit row zero and every cost,
    weight and score built on it silently wrong (a RuntimeWarning is an
    error under pytest, so it must not pass through one either)."""
    a, b = _sets(np.random.default_rng(3), 3, 4, 4)
    huge = EmbeddingSet(1e160 * a.vectors), EmbeddingSet(1e160 * b.vectors)
    with pytest.raises(ValueError, match="overflows"):
        _OVERFLOWING[entry](*huge)


@pytest.mark.parametrize("entry", ["cross_reference_weights", "pair_similarity",
                                   "similarity_node_grads", "similarity_matrix", "best_match"])
def test_overflowing_relevance_totals_raise(entry):
    """Finite norms whose relevance totals overflow raise a ValueError naming
    the overflow, not all-zero weights (and no RuntimeWarning): each node's
    relevance is 4 * 6e153**2 = 1.44e308, so four or three of them overflow."""
    a, b = EmbeddingSet(np.full((4, 4), 6e153)), EmbeddingSet(np.full((3, 4), 6e153))
    with pytest.raises(ValueError, match="relevance total overflows"):
        _OVERFLOWING[entry](a, b)
    wa, wb = cross_reference_weights(EmbeddingSet(np.full((4, 4), 1e153)),
                                     EmbeddingSet(np.full((3, 4), 1e153)))
    assert wa.tolist() == [0.25] * 4 and wb.tolist() == [1 / 3] * 3


def test_weights_orthogonal_fallback_uniform():
    a = EmbeddingSet(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    b = EmbeddingSet(np.array([[0.0, 1.0]]))
    wa, wb = cross_reference_weights(a, b)
    assert np.allclose(wa, [0.5, 0.5])


def test_weights_identical_positive_vectors_uniform():
    a = EmbeddingSet(np.tile([[1.0, 2.0]], (3, 1)))
    wa, wb = cross_reference_weights(a, a)
    assert np.allclose(wa, 1 / 3) and np.allclose(wb, 1 / 3)


def test_weights_linear_in_dot():
    mean_v = np.array([1.0, 0.0])
    a = EmbeddingSet(np.array([2 * mean_v, mean_v]))
    b = EmbeddingSet(np.array([mean_v]))
    wa, _ = cross_reference_weights(a, b)
    assert np.allclose(wa, [2 / 3, 1 / 3])


def test_weights_normalized_and_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a, b = _sets(rng, rng.integers(1, 7), rng.integers(1, 7), 5)
        wa, wb = cross_reference_weights(a, b)
        assert wa.sum() == pytest.approx(1.0, abs=1e-12)
        assert wb.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(wa >= 0) and np.all(wb >= 0)


def test_similarity_single_node_extremes():
    a = EmbeddingSet(np.array([[1.0, 0.0]]))
    sim, _ = emd_similarity(a, a, [1.0], [1.0])
    assert sim == pytest.approx(1.0, abs=1e-12)
    anti = EmbeddingSet(np.array([[-1.0, 0.0]]))
    sim, _ = emd_similarity(a, anti, [1.0], [1.0])
    assert sim == pytest.approx(-1.0, abs=1e-12)


def test_similarity_equals_total_minus_objective():
    rng = np.random.default_rng(2)
    a, b = _sets(rng, 4, 4, 4)
    wa, wb = _weights(a, b, "equal")
    sim, sol = emd_similarity(a, b, wa, wb, solver="oracle")
    p = TransportProblem(cost=cost_matrix(a, b), supply=wa, demand=wb)
    assert sim == pytest.approx(1.0 - solve_oracle(p).objective, abs=1e-8)


def test_similarity_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(40):
        a, b = _sets(rng, rng.integers(2, 6), rng.integers(2, 6), 4)
        s_ab, _ = pair_similarity(a, b)
        s_ba, _ = pair_similarity(b, a)
        assert abs(s_ab - s_ba) < 1e-8


def test_self_similarity_maximality():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b = _sets(rng, 4, 4, 6)
        s_aa, _ = pair_similarity(a, a)
        s_ab, _ = pair_similarity(a, b)
        assert s_aa >= s_ab - 1e-8


def test_similarity_bounds():
    rng = np.random.default_rng(5)
    for _ in range(30):
        a, b = _sets(rng, rng.integers(1, 6), rng.integers(1, 6), 3)
        sim, _ = pair_similarity(a, b)
        assert -1 - 1e-9 <= sim <= 1 + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_property_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    a, b = _sets(rng, 4, 5, 3)
    pi, rho = rng.permutation(4), rng.permutation(5)
    ap = EmbeddingSet(a.vectors[pi])
    bp = EmbeddingSet(b.vectors[rho])
    s1, sol1 = pair_similarity(a, b)
    s2, sol2 = pair_similarity(ap, bp)
    assert abs(s1 - s2) < 1e-10
    assert np.allclose(sol2.flows, sol1.flows[np.ix_(pi, rho)], atol=1e-8)


def _pair_bound(cost: np.ndarray, supply: np.ndarray, demand: np.ndarray) -> float:
    """One pair's relaxed bound from its own forward: the reference for
    :func:`~emdflow.metric._relaxed_bounds`.

    On the mass support, u_i = min_j c_ij with v = 0 is dual-feasible, so
    the EMD is at least sum_i a_i min_j c_ij, and likewise with the sides
    swapped (Kusner et al., ICML 2015).  The similarity is the total mass
    minus the EMD.
    """
    rows, cols = supply > 0, demand > 0
    kept = cost[rows][:, cols]
    return float(supply.sum()) - max(float(supply[rows] @ kept.min(axis=1)),
                                     float(demand[cols] @ kept.min(axis=0)))


def _stacked_bounds(queries, refs, weighting):
    """best_match's bounds and supply totals of every pair."""
    xs, ys = _stack(queries), _stack(refs)
    return _relaxed_bounds(xs, ys, _Pairs(xs, ys, weighting))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6),
       st.sampled_from(["random", "signed_axes", "copy"]),
       st.sampled_from(["cross_reference", "equal"]))
def test_property_similarity_bound_never_below_exact(seed, m, k, nodes, weighting):
    """best_match's stacked relaxed bound is never below the solved
    similarity, and it is the per-pair formula's.

    Random vectors leave zero-mass nodes under the cross-reference ReLU;
    signed axis vectors give tied integer costs 0, 1 and 2; ``copy`` makes
    the reference a copy of the query.
    """
    rng = np.random.default_rng(seed)

    def vectors(n):
        if nodes == "signed_axes":
            return np.eye(3)[rng.integers(0, 3, n)] * rng.choice([-1.0, 1.0], (n, 1))
        return rng.standard_normal((n, 3))

    q = EmbeddingSet(vectors(m))
    r = EmbeddingSet(q.vectors.copy() if nodes == "copy" else vectors(k))
    wa, wb = _weights(q, r, weighting)
    cost = cost_matrix(q, r)
    sim = emd_similarity(q, r, wa, wb)[0]
    bounds, _ = _stacked_bounds([q], [r], weighting)
    assert bounds[0, 0] >= sim - 1e-12 * wa.sum()
    assert _pair_bound(cost, wa, wb) >= sim - 1e-12 * wa.sum()
    assert abs(bounds[0, 0] - _pair_bound(cost, wa, wb)) <= 1e-12 * wa.sum()


def _argmax_rows(sims):
    idx = np.argmax(sims, axis=1)
    return idx, sims[np.arange(len(idx)), idx]


@pytest.mark.parametrize("weighting", ["cross_reference", "equal"])
@pytest.mark.parametrize("solver", ["simplex", "ipm"])
def test_best_match_equals_full_argmax(weighting, solver):
    """Index and similarity bit-equal to the argmax of the full matrix.

    Each reference list holds an identical duplicate and an equal copy of
    one reference, and one query copies a reference, so exact ties occur.
    """
    rng = np.random.default_rng(8)
    for _ in range(6):
        refs = [EmbeddingSet(rng.standard_normal((int(rng.integers(1, 6)), 4)))
                for _ in range(4)]
        refs += [refs[1], EmbeddingSet(refs[2].vectors.copy())]
        queries = [EmbeddingSet(rng.standard_normal((int(rng.integers(1, 6)), 4)))
                   for _ in range(3)] + [refs[2]]
        full = similarity_matrix(queries, refs, weighting=weighting, solver=solver)
        idx, sims = best_match(queries, refs, weighting=weighting, solver=solver)
        want_idx, want_sims = _argmax_rows(full)
        assert idx.tolist() == want_idx.tolist()
        assert sims.tobytes() == want_sims.tobytes()


def test_best_match_exact_tie_with_a_looser_bound_picks_the_lowest_index():
    """Reference 1 has the higher bound and is solved first; both score 0."""
    e1, e2, e3 = np.eye(3)
    query = EmbeddingSet(np.array([e1, -e2]))
    refs = [EmbeddingSet(np.array([e3])), EmbeddingSet(np.array([e1, e2]))]
    bounds = _stacked_bounds([query], refs, "equal")[0][0]
    assert bounds[1] > bounds[0]
    full = similarity_matrix([query], refs, weighting="equal")
    assert full[0, 0] == full[0, 1]
    idx, sims = best_match([query], refs, weighting="equal")
    assert (idx[0], sims[0]) == (0, full[0, 0])


def test_best_match_checks_every_pair():
    """No reference to match is an error, not an empty answer."""
    query = EmbeddingSet(np.random.default_rng(9).standard_normal((3, 4)))
    with pytest.raises(ValueError, match="at least one reference"):
        best_match([query], [])


def test_best_match_of_no_queries_is_two_empty_arrays():
    index, best = best_match([], [EmbeddingSet(np.eye(2))])
    assert index.shape == best.shape == (0,)
    assert index.dtype == np.intp and best.dtype == np.float64


def _forward_sets(rng, edge):
    """Three or four node sets of differing node counts around one direction,
    with the edge case ``edge``.

    At 40 channels BLAS rounds x @ x.T (its syrk path) differently from the
    product of two equal copies, which the forward must not take.  With
    ``orthogonal``, set 1 spans only directions orthogonal to every other
    set's node mean, so its cross-reference relevances are rounding of
    either sign.  With ``fortran``, every other set is stored Fortran-ordered.
    """
    channels = int(rng.choice([4, 40]))
    direction = rng.standard_normal(channels)
    sets = []
    for g in range(int(rng.integers(3, 5))):
        nodes = 1 if edge == "single_node" and g % 2 == 0 else int(rng.integers(2, 6))
        vectors = 0.5 * direction + rng.standard_normal((nodes, channels))
        if edge == "zero_rows":
            vectors[rng.random(nodes) < 0.4] = 0.0
        if edge == "clamped" and g == 1:  # every relevance clamps: uniform fallback
            vectors = -3.0 * np.abs(direction) * np.sign(direction) + 0.1 * vectors
        sets.append(EmbeddingSet(vectors))
    if edge == "orthogonal":  # set 1's relevance to any other set is rounding
        others = np.array([s.vectors.mean(axis=0) for g, s in enumerate(sets) if g != 1])
        span = np.linalg.qr(others.T, mode="complete")[0][:, len(others):]
        vectors = rng.standard_normal((sets[1].node_count, span.shape[1])) @ span.T
        sets[1] = EmbeddingSet(vectors)
    if edge == "fortran":
        sets = [EmbeddingSet(np.asfortranarray(s.vectors)) if g % 2 else s
                for g, s in enumerate(sets)]
    return sets


def _bytes(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), channels=st.sampled_from([1, 3, 8, 64, 65, 130]),
       members=st.lists(st.integers(1, 30), min_size=1, max_size=5),
       mean_count=st.integers(1, 4), log_scale=st.floats(-3, 3))
def test_property_relevance_does_not_depend_on_the_stack(seed, channels, members,
                                                         mean_count, log_scale):
    """_relevance of a stack of node sets against a stack of means is, member
    by member and mean by mean, byte for byte that member's own relevance
    against that mean alone, zero rows included: the stacked forward's
    weights are then every pair's own."""
    rng = np.random.default_rng(seed)
    mats = [10.0 ** log_scale * rng.standard_normal((n, channels)) for n in members]
    for mat in mats:
        mat[rng.random(len(mat)) < 0.2] = 0.0
    means = rng.standard_normal((mean_count, channels)) * 10.0 ** rng.uniform(-3, 3, (mean_count, 1))
    stacked = _relevance(np.concatenate(mats), means)
    assert stacked.shape == (mean_count, sum(members))
    start = 0
    for mat in mats:
        for g in range(mean_count):
            alone = _relevance(mat.copy(), means[g].copy())
            assert _bytes(stacked[g, start:start + len(mat)]) == _bytes(alone)
        start += len(mat)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000),
       weighting=st.sampled_from(["cross_reference", "equal"]),
       solver=st.sampled_from(["simplex", "ipm"]),
       edge=st.sampled_from(["none", "single_node", "zero_rows", "clamped", "orthogonal",
                             "fortran"]))
def test_property_forward_is_bit_equal_to_pair_similarity(seed, weighting, solver, edge):
    """similarity_matrix (mirrored, a distinct list, skip_diagonal) and
    best_match give pair_similarity's similarity byte for byte; so does
    emd_similarity given the pair's weights, flows too (the 1 x 1 _Pairs'
    cost is cost_matrix's), which ``emdflow flows`` relies on."""
    sets = _forward_sets(np.random.default_rng(seed), edge)
    n = len(sets)
    for q in sets:
        for r in sets:
            wa, wb = _weights(q, r, weighting)
            (sim, sol), (ref, ref_sol) = (
                pair_similarity(q, r, weighting, solver),
                emd_similarity(q, r, wa, wb, solver))
            assert _bytes(sim) == _bytes(ref) and sol.flows.tobytes() == ref_sol.flows.tobytes()
    want = np.array([[pair_similarity(q, r, weighting=weighting, solver=solver)[0]
                      for r in sets] for q in sets])
    upper = np.triu_indices(n)
    mirror = similarity_matrix(sets, sets, weighting=weighting, solver=solver)
    assert _bytes(mirror[upper]) == _bytes(want[upper])
    assert _bytes(mirror.T[upper]) == _bytes(want[upper])
    distinct = similarity_matrix(sets, list(sets), weighting=weighting, solver=solver)
    assert _bytes(distinct) == _bytes(want)
    skipped = similarity_matrix(sets, list(sets), weighting=weighting, solver=solver,
                                skip_diagonal=True)
    np.fill_diagonal(want, -np.inf)
    assert _bytes(skipped) == _bytes(want)
    mirror_skipped = similarity_matrix(sets, sets, weighting=weighting, solver=solver,
                                       skip_diagonal=True)
    off = np.triu_indices(n, 1)
    assert _bytes(mirror_skipped[off]) == _bytes(want[off])
    assert np.all(np.diag(mirror_skipped) == -np.inf)
    # best_match never mirrors, even when the references are the queries.
    np.fill_diagonal(want, [pair_similarity(q, q, weighting=weighting, solver=solver)[0]
                            for q in sets])
    for refs in (sets, list(sets)):
        idx, best = best_match(sets, refs, weighting=weighting, solver=solver)
        want_idx, want_best = _argmax_rows(want)
        assert idx.tolist() == want_idx.tolist()
        assert _bytes(best) == _bytes(want_best)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000),
       weighting=st.sampled_from(["cross_reference", "equal"]),
       edge=st.sampled_from(["none", "single_node", "zero_rows", "clamped", "orthogonal"]))
def test_property_stacked_bounds_cover_every_pair(seed, weighting, edge):
    """Every pair's slices of the stacked weights are its own weights byte
    for byte; every stacked bound is at least the pair's similarity, and it
    and the pair's total supply agree with the per-pair formula, to 1e-12
    of the mass, also where a set's relevances are rounding
    (``orthogonal``)."""
    sets = _forward_sets(np.random.default_rng(seed), edge)
    queries = sets[:2]
    bounds, supply = _stacked_bounds(queries, sets, weighting)
    assert bounds.shape == supply.shape == (len(queries), len(sets))
    xs, ys = _stack(queries), _stack(sets)
    pairs = _Pairs(xs, ys, weighting)
    w_x, w_y = pairs.w_x, pairs.w_y
    for p, q in enumerate(queries):
        for g, r in enumerate(sets):
            wa, wb = _weights(q, r, weighting)
            assert _bytes(w_x[g, xs.starts[p]:xs.starts[p + 1]]) == _bytes(wa)
            assert _bytes(w_y[p, ys.starts[g]:ys.starts[g + 1]]) == _bytes(wb)
            mass = float(wa.sum())
            sim = pair_similarity(q, r, weighting=weighting)[0]
            assert bounds[p, g] >= sim - 1e-12 * mass
            assert abs(bounds[p, g] - _pair_bound(cost_matrix(q, r), wa, wb)) <= 1e-12 * mass
            assert abs(supply[p, g] - mass) <= 1e-12 * mass


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), solver=st.sampled_from(["simplex", "ipm"]))
def test_property_near_orthogonal_sets_match_the_argmax(seed, solver):
    """Where a set's cross-reference relevances are rounding of either sign,
    best_match still gives the argmax of pair_similarity byte for byte,
    also without the query itself among the references."""
    sets = _forward_sets(np.random.default_rng(seed), "orthogonal")
    want = np.array([[pair_similarity(q, r, solver=solver)[0] for r in sets] for q in sets])
    for left_out in range(len(sets)):
        keep = [g for g in range(len(sets)) if g != left_out]
        idx, best = best_match(sets, [sets[g] for g in keep], solver=solver)
        want_idx, want_best = _argmax_rows(want[:, keep])
        assert idx.tolist() == want_idx.tolist()
        assert _bytes(best) == _bytes(want_best)


@pytest.mark.parametrize("weighting", ["cross_reference", "equal"])
def test_best_match_one_query_per_chunk_changes_nothing(monkeypatch, weighting):
    """A cell budget of one stacks each query alone: same bytes, same solves."""
    rng = np.random.default_rng(12)
    queries = [EmbeddingSet(rng.standard_normal((int(rng.integers(1, 7)), 5)))
               for _ in range(7)]
    refs = [EmbeddingSet(rng.standard_normal((int(rng.integers(1, 7)), 5)))
            for _ in range(4)]
    stacked = counted_calls(monkeypatch, metric, "_Pairs")
    solves = counted_calls(monkeypatch, transport, "_simplex")
    want = best_match(queries, refs, weighting=weighting)
    assert len(stacked) == 1
    want_solves = len(solves)
    monkeypatch.setattr(metric, "_BOUND_CELLS", 1)
    got = best_match(queries, refs, weighting=weighting)
    assert len(stacked) == 1 + len(queries)
    assert len(solves) == 2 * want_solves
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("case", ["mirrored", "mirrored_skip", "distinct_skip", "fewer_queries"])
def test_similarity_matrix_one_query_per_chunk_changes_nothing(monkeypatch, case):
    """A cell budget of one stacks each query alone: same bytes, same solves,
    with the references mirrored or not and the diagonal skipped or not."""
    rng = np.random.default_rng(13)
    sets = [EmbeddingSet(rng.standard_normal((int(rng.integers(1, 7)), 5))) for _ in range(6)]
    queries, refs, skip = {"mirrored": (sets, sets, False),
                           "mirrored_skip": (sets, sets, True),
                           "distinct_skip": (list(sets), sets, True),
                           "fewer_queries": (sets[:3], sets, False)}[case]
    stacks = counted_calls(monkeypatch, metric, "_stack")
    solves = counted_calls(monkeypatch, transport, "_simplex")
    want = similarity_matrix(queries, refs, skip_diagonal=skip)
    assert len(stacks) == 2
    want_solves = len(solves)
    monkeypatch.setattr(metric, "_BOUND_CELLS", 1)
    got = similarity_matrix(queries, refs, skip_diagonal=skip)
    assert len(stacks) == 2 + 1 + len(queries)
    assert len(solves) == 2 * want_solves
    assert got.tobytes() == want.tobytes()


def _per_pair_best_match(queries, refs, weighting="cross_reference", solver="simplex"):
    """best_match as it was with one bound per pair, each from the pair's own
    exact forward: the reference for the stacked bounds."""
    index, best = [], []
    for q in queries:
        blocks = [(cost_matrix(q, r), *_weights(q, r, weighting)) for r in refs]
        bounds = np.array([_pair_bound(*block) for block in blocks])
        best_j, best_sim = -1, -np.inf
        for j in np.argsort(-bounds, kind="stable"):
            cost, wa, wb = blocks[j]
            if bounds[j] < best_sim - PRUNE_RTOL * float(wa.sum()):
                break
            sim = pair_similarity(q, refs[j], weighting, solver)[0]
            if sim > best_sim or (sim == best_sim and j < best_j):
                best_j, best_sim = int(j), sim
        index.append(best_j)
        best.append(best_sim)
    return np.array(index, dtype=np.intp), np.array(best)


def test_stacked_bounds_solve_what_per_pair_bounds_solved(monkeypatch):
    """On episodes shaped like the benchmark's 1-shot workload (5-way 1-shot,
    5 x 5 x 64 maps, half background), best_match gives the per-pair-bound
    reference's index and similarity bytes with as many kernel runs."""
    col = emdflow.generate(emdflow.SynthSpec(class_count=10, sets_per_class=8, spatial=(5, 5),
                                             channels=64, background_fraction=0.5, seed=21))
    solves = counted_calls(monkeypatch, transport, "_simplex")
    for seed in range(4):
        ep = emdflow.sample_episode(col, 5, 1, 3, seed=seed)
        queries = [q for _, q in ep.query]
        supports = [sets[0] for sets in ep.support_by_class()]
        want = _per_pair_best_match(queries, supports)
        want_solves = len(solves)
        got = best_match(queries, supports)
        assert len(solves) == 2 * want_solves
        assert want_solves < len(queries) * len(supports)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tobytes() == want[1].tobytes()
        solves.clear()


@pytest.mark.parametrize("weighting", ["cross_reference", "equal"])
def test_channel_mismatch_is_named_by_every_entry(weighting):
    """A pair, a reference list whose first member is the odd one and a list
    with a later odd member each raise the mismatch, not a product's error."""
    rng = np.random.default_rng(11)
    three = EmbeddingSet(rng.standard_normal((2, 3)))
    seven = EmbeddingSet(rng.standard_normal((2, 7)))
    with pytest.raises(ValueError, match="channel mismatch: 3 vs 7"):
        pair_similarity(three, seven, weighting=weighting)
    for refs in ([seven], [three, seven]):
        with pytest.raises(ValueError, match="channel mismatch: 3 vs 7"):
            similarity_matrix([three], refs, weighting=weighting)
        with pytest.raises(ValueError, match="channel mismatch: 3 vs 7"):
            best_match([three], refs, weighting=weighting)


def test_node_grads_match_finite_differences():
    """Both solvers' gradients against central differences of the exact
    (simplex) similarity."""
    rng = np.random.default_rng(6)
    eps = 1e-6
    for solver in ["simplex"] * 10 + ["ipm"] * 10:
        U = rng.standard_normal((3, 5)) + 0.4
        V = rng.standard_normal((4, 5)) + 0.4
        sim, sol, ga, gb = similarity_node_grads(EmbeddingSet(U), EmbeddingSet(V), solver=solver)
        # Training differentiates exactly the score inference computes.
        ref_sim, ref_sol = pair_similarity(EmbeddingSet(U), EmbeddingSet(V), solver=solver)
        assert sim == ref_sim
        assert np.array_equal(sol.flows, ref_sol.flows)
        dU, dV = rng.standard_normal(U.shape), rng.standard_normal(V.shape)

        def f(Uq, Vq):
            return pair_similarity(EmbeddingSet(Uq), EmbeddingSet(Vq))[0]

        fd = (f(U + eps * dU, V + eps * dV) - f(U - eps * dU, V - eps * dV)) / (2 * eps)
        pred = float(np.sum(ga * dU) + np.sum(gb * dV))
        assert pred == pytest.approx(fd, rel=1e-3, abs=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_stack_rejects_non_finite_nodes(bad):
    """Every node matrix of the forward and the backward enters through
    _Stack, which rejects what EmbeddingSet rejects, with its message."""
    vectors = np.ones((4, 3))
    vectors[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite node vector"):
        _Stack(vectors, [0, 2, 4])
    with pytest.raises(ValueError, match="non-finite node vector"):
        EmbeddingSet(vectors)


def test_fortran_ordered_vectors_score_as_their_c_copy():
    """EmbeddingSet keeps its vectors C-contiguous (a C-ordered float64 input
    is not copied), so a Fortran-ordered copy of a set has the same node
    mean and scores byte for byte as the set."""
    rng = np.random.default_rng(13)
    for _ in range(40):
        a, b = _sets(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)),
                     int(rng.choice([4, 40])))
        assert EmbeddingSet(a.vectors).vectors is a.vectors
        fa = EmbeddingSet(np.asfortranarray(a.vectors))
        assert fa.vectors.flags.c_contiguous
        assert pair_similarity(fa, b)[0] == pair_similarity(a, b)[0]


# ---------------------------------------------------------------------------
# the fused step's solves: warm restarts certified in one stacked tree pass


def _reference_solve_members(pairs, xs, ys, warm, keys):
    """_solve_members' simplex path before its restarts were certified in
    one stacked pass: every pair, in x-member order, runs the kernel."""
    sims = np.empty((len(xs.starts) - 1, len(ys.starts) - 1))
    flows = np.zeros(pairs.cost.shape)
    u, v = np.zeros(pairs.w_x.shape), np.zeros(pairs.w_y.shape)
    for p, (xa, xb) in enumerate(zip(xs.starts, xs.starts[1:])):
        for g, (ya, yb) in enumerate(zip(ys.starts, ys.starts[1:])):
            run, rows, cols, cost = warm.solve((keys[p], g), pairs.cost[xa:xb, ya:yb],
                                               pairs.w_x[g, xa:xb], pairs.w_y[p, ya:yb],
                                               flows[xa:xb, ya:yb])
            sims[p, g] = float(np.sum((1.0 - cost) * run.flows))
            u[g, xa:xb][rows] = run.pot[:rows.size]
            v[p, ya:yb][cols] = run.pot[rows.size:]
    env = envelope_grads(1.0, flows, u, v)
    return (sims, -env.d_cost, np.where(pairs.w_x > 0, env.d_supply, 0.0),
            np.where(pairs.w_y > 0, env.d_demand, 0.0))


def _member_masses(rng, n, total, integer_mass):
    """Masses of one side of a pair: ReLU-like zeros, and now and then all
    mass on one node (a 1 x k or 1 x 1 kept block)."""
    if rng.random() < 0.25:
        w = np.zeros(n)
        w[rng.integers(n)] = 1.0
    else:
        w = rng.integers(0, 4, n).astype(float) if integer_mass else rng.uniform(0.1, 1.0, n)
        w *= rng.random(n) < 0.7
        w[rng.integers(n)] += 1.0
    if integer_mass:  # exact totals: the flows add up exactly
        return rng.multinomial(total, w / w.sum()).astype(float)
    return w / w.sum()


def _member_iterations(seed, tied, integer_mass, iterations=5):
    """(pairs, xs, ys, keys) of consecutive fused steps, as an SFC fit makes
    them: keys pick x sets from a pool with replacement, every (key, member)
    block keeps its costs and masses but for a step, mostly small, sometimes
    large enough to pivot, and a block's mass support changes now and then.
    The first two steps, and half the later ones, repeat the previous
    step's first key as the last; in half of those steps the two visits
    differ (the repeat meets the costs of the step before, or other costs,
    or the first meets another mass support), so a visit that restarts
    from its step's first may go either way."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(1, 5, int(rng.integers(2, 4))).tolist()
    sizes_y = rng.integers(1, 5, int(rng.integers(1, 4))).tolist()
    total = 12

    def costs(shape):
        return rng.integers(0, 3, shape).astype(float) if tied else rng.uniform(0.0, 2.0, shape)

    def masses(s, g):
        return (_member_masses(rng, pool[s], total, integer_mass),
                _member_masses(rng, sizes_y[g], total, integer_mass))
    blocks = {(s, g): [costs((n, ny)), *masses(s, g)]
              for s, n in enumerate(pool) for g, ny in enumerate(sizes_y)}
    earlier = {key: block[0] for key, block in blocks.items()}
    ys = SimpleNamespace(starts=np.cumsum([0] + sizes_y).tolist())
    keys = [0]
    for it in range(iterations):
        keys = [keys[0]] + rng.integers(0, len(pool), int(rng.integers(1, 4))).tolist()
        repeat = it < 2 or rng.random() < 0.5
        if repeat:
            keys[-1] = keys[0]
        xs = SimpleNamespace(starts=np.cumsum([0] + [pool[s] for s in keys]).tolist())
        cost = np.empty((xs.starts[-1], ys.starts[-1]))
        w_x, w_y = np.zeros((len(sizes_y), cost.shape[0])), np.zeros((len(keys), cost.shape[1]))
        for p, (s, xa, xb) in enumerate(zip(keys, xs.starts, xs.starts[1:])):
            for g, (ya, yb) in enumerate(zip(ys.starts, ys.starts[1:])):
                cost[xa:xb, ya:yb], w_x[g, xa:xb], w_y[p, ya:yb] = blocks[s, g]
        twin = rng.random()
        for g, (ya, yb) in enumerate(zip(ys.starts, ys.starts[1:])):
            if repeat and twin < 0.2:  # the repeat meets the step before's costs
                cost[xs.starts[-2]:, ya:yb] = earlier[keys[0], g]
            elif repeat and twin < 0.35:  # the repeat meets other costs
                cost[xs.starts[-2]:, ya:yb] = costs((pool[keys[0]], yb - ya))
            elif repeat and twin < 0.5:  # the first visit meets another mass support
                w_x[g, :xs.starts[1]], w_y[0, ya:yb] = masses(keys[0], g)
        yield SimpleNamespace(cost=cost, w_x=w_x, w_y=w_y), xs, ys, keys
        earlier = {key: block[0] for key, block in blocks.items()}
        step = rng.choice([1e-9, 1e-3, 0.5])  # 1e-9: near the kernel's pricing tolerance
        for key, block in blocks.items():
            if tied and step > 1e-9:  # redraw a share of the integer costs
                block[0] = np.where(rng.random(block[0].shape) < step, costs(block[0].shape),
                                    block[0])
            else:
                block[0] = block[0] + step * rng.standard_normal(block[0].shape)
            if rng.random() < 0.15:
                block[1:] = masses(*key)
            elif not integer_mass:
                block[1:] = [w * rng.uniform(0.95, 1.05, w.size) for w in block[1:]]
                block[2] *= block[1].sum() / block[2].sum()


def _assert_members_match(stacks, warm, ref):
    got = metric._solve_members(*stacks[:3], "simplex", warm, stacks[3])
    want = _reference_solve_members(*stacks[:3], ref, stacks[3])
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert (warm.solves, warm.pivots, warm.warm) == (ref.solves, ref.pivots, ref.warm)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10_000), tied=st.booleans(), integer_mass=st.booleans())
def test_property_certified_restarts_are_bit_equal_to_the_kernel_loop(seed, tied, integer_mass):
    """Over consecutive steps, _solve_members (certified restarts, then the
    kernel for the rest) equals running the kernel on every pair, byte for
    byte: sims, flows, d_x, d_y, and the solve, pivot and warm counts."""
    warm, ref = metric._WarmStarts(), metric._WarmStarts()
    for stacks in _member_iterations(seed, tied, integer_mass):
        _assert_members_match(stacks, warm, ref)


def test_member_iterations_take_both_paths(monkeypatch):
    """The property test's steps certify restarts, send others to the
    kernel (some of them pivot), and hand the kernel 1 x 1 and 1 x k blocks."""
    runs, kernel = [], transport._simplex

    def record(*args, **kwargs):
        runs.append(kernel(*args, **kwargs))
        return runs[-1]
    monkeypatch.setattr(transport, "_simplex", record)
    certified = 0
    for seed in range(6):
        warm, ref = metric._WarmStarts(), metric._WarmStarts()
        for stacks in _member_iterations(seed, tied=seed % 2 == 0, integer_mass=seed < 3):
            before = warm.solves
            kernel_runs = len(runs)
            metric._solve_members(*stacks[:3], "simplex", warm, stacks[3])
            certified += warm.solves - before - (len(runs) - kernel_runs)
    shapes = {run.flows.shape for run in runs}
    assert certified > 0
    assert any(run.warm and run.pivots > 0 for run in runs)
    assert (1, 1) in shapes and any(m == 1 < k for m, k in shapes)


def test_certified_restart_is_bit_equal_through_sibling_order_and_layout(monkeypatch):
    """A pair certified on its second visit writes what the kernel's restart
    writes.  On its tree supplier 0 hangs three demanders whose balances
    differ by orders of magnitude, so subtracting them in any order but the
    kernel's changes its parent flow; its kept rows skip a zero-mass row,
    and its similarity, summed over the kept block in column-major order,
    would differ in the last bit."""
    rng = np.random.default_rng(6)
    demand = np.array([0.5, 3e-9, 7e-17, 0.2, 0.1])
    supply = np.array([0.5 + 3e-9 + 7e-17 + 0.15, 0.15])
    kept = rng.uniform(1.6, 2.0, (2, 5))  # dear cells, then the optimal tree's cheap ones
    kept.flat[[0, 1, 2, 3, 8, 9]] = rng.uniform(0.0, 0.5, 6)
    pairs = SimpleNamespace(cost=np.insert(kept, 1, 1.0, axis=0),
                            w_x=np.insert(supply, 1, 0.0)[None], w_y=demand[None])
    xs, ys = SimpleNamespace(starts=[0, 3]), SimpleNamespace(starts=[0, 5])
    calls = counted_calls(monkeypatch, transport, "_simplex")
    warm, ref = metric._WarmStarts(), metric._WarmStarts()
    for _ in range(2):
        _assert_members_match((pairs, xs, ys, [0]), warm, ref)
    assert len(calls) == 3 and warm.warm == 1  # the kernel: once here, twice for ref
    tree = warm.last[0, 0][0].tree
    assert sorted(tree.children[0]) == [2, 3, 4]
    flows = metric._solve_members(pairs, xs, ys, "simplex", warm, [0])[1]
    assert flows[0, 3] == supply[0] - demand[2] - demand[1] - demand[0]
    assert flows[0, 3] != supply[0] - demand[0] - demand[1] - demand[2]
    block = (1.0 - kept) * flows[[0, 2]]
    assert np.sum(block) != np.sum(np.asfortranarray(block))


def test_extract_fcn_row_major():
    arr = np.arange(5 * 5 * 2, dtype=float).reshape(5, 5, 2)
    es = extract(DenseTensor.from_array(arr), ExtractionConfig("fcn"))
    assert es.node_count == 25
    assert np.array_equal(es.vectors[7], arr[1, 2])


def test_extract_single_cell_any_strategy():
    arr = np.array([[[3.0, 4.0]]])
    for strat in ("fcn", "grid", "sampling"):
        cfg = ExtractionConfig(strat, grid_rows=1, grid_cols=1, patch_count=2)
        es = extract(DenseTensor.from_array(arr), cfg)
        assert np.allclose(es.vectors, [[3.0, 4.0]])


def test_extract_grid_block_mean():
    arr = np.random.default_rng(7).standard_normal((4, 4, 3))
    cfg = ExtractionConfig("grid", grid_rows=2, grid_cols=2, context_enlarge=1.0)
    es = extract(DenseTensor.from_array(arr), cfg)
    assert es.node_count == 4
    assert np.allclose(es.vectors[0], arr[:2, :2].mean(axis=(0, 1)))
    assert np.allclose(es.vectors[3], arr[2:, 2:].mean(axis=(0, 1)))


def test_extract_grid_context_enlarge_clamps():
    arr = np.random.default_rng(8).standard_normal((4, 4, 2))
    cfg = ExtractionConfig("grid", grid_rows=2, grid_cols=2, context_enlarge=2.0)
    es = extract(DenseTensor.from_array(arr), cfg)
    # the doubled top-left cell clamps to rows/cols 0..2
    assert np.allclose(es.vectors[0], arr[:3, :3].mean(axis=(0, 1)))
    assert np.allclose(es.vectors[3], arr[1:, 1:].mean(axis=(0, 1)))


def test_extract_grid_too_large():
    arr = np.ones((2, 2, 1))
    with pytest.raises(ValueError):
        extract(DenseTensor.from_array(arr), ExtractionConfig("grid", grid_rows=3))


def test_extract_sampling_deterministic_and_inside():
    arr = np.random.default_rng(9).standard_normal((5, 5, 3))
    cfg = ExtractionConfig("sampling", patch_count=8, rng_seed=13)
    e1 = extract(DenseTensor.from_array(arr), cfg)
    e2 = extract(DenseTensor.from_array(arr), cfg)
    assert np.array_equal(e1.vectors, e2.vectors)
    assert e1.node_count == 8
    # patch means stay inside the per-channel value range
    assert np.all(e1.vectors >= arr.min() - 1e-12)
    assert np.all(e1.vectors <= arr.max() + 1e-12)


def test_pyramid_level_counts():
    arr = np.random.default_rng(10).standard_normal((5, 5, 4))
    es = extract_pyramid(DenseTensor.from_array(arr), [5, 2, 1])
    assert es.node_count == 30


def test_pyramid_level_one_is_global_mean():
    arr = np.random.default_rng(11).standard_normal((3, 4, 2))
    es = extract_pyramid(DenseTensor.from_array(arr), [1])
    assert np.allclose(es.vectors[0], arr.mean(axis=(0, 1)))


def test_pyramid_full_level_equals_fcn():
    arr = np.random.default_rng(12).standard_normal((4, 4, 3))
    es = extract_pyramid(DenseTensor.from_array(arr), [4])
    fcn = extract(DenseTensor.from_array(arr), ExtractionConfig("fcn"))
    assert np.allclose(es.vectors, fcn.vectors)


def test_extract_honours_pyramid_levels():
    t = DenseTensor.from_array(np.random.default_rng(15).standard_normal((4, 4, 3)))
    es = extract(t, ExtractionConfig(pyramid_levels=(2, 1)))
    assert np.array_equal(es.vectors, extract_pyramid(t, [2, 1]).vectors)


def test_pyramid_level_exceeds_extent():
    arr = np.ones((3, 3, 1))
    with pytest.raises(ValueError):
        extract_pyramid(DenseTensor.from_array(arr), [4])


@pytest.mark.parametrize("level", [0, -2])
def test_pyramid_level_below_one_is_named_as_such(level):
    arr = np.ones((3, 3, 1))
    with pytest.raises(ValueError, match=f"pyramid levels must be >= 1, got {level}"):
        extract_pyramid(DenseTensor.from_array(arr), [2, level])


@pytest.mark.parametrize("enlarge", [np.inf, np.nan, 0.5])
def test_extraction_config_rejects_enlarge_that_is_not_finite_and_at_least_one(enlarge):
    with pytest.raises(ValueError, match="context_enlarge must be finite and >= 1"):
        ExtractionConfig("grid", context_enlarge=enlarge)
    assert ExtractionConfig("grid", context_enlarge=1.0).context_enlarge == 1.0


def test_cosine_collapse():
    rng = np.random.default_rng(13)
    for _ in range(10):
        fa = rng.standard_normal((4, 4, 6))
        fb = rng.standard_normal((4, 4, 6))
        a = extract_pyramid(DenseTensor.from_array(fa), [1])
        b = extract_pyramid(DenseTensor.from_array(fb), [1])
        sim, _ = pair_similarity(a, b)
        ma, mb = fa.mean(axis=(0, 1)), fb.mean(axis=(0, 1))
        cos = ma @ mb / (np.linalg.norm(ma) * np.linalg.norm(mb))
        assert sim == pytest.approx(cos, abs=1e-10)


def test_global_scaling_invariance():
    rng = np.random.default_rng(14)
    a, b = _sets(rng, 4, 5, 3)
    s1, _ = pair_similarity(a, b)
    for scale in (3.7, 1e150):  # 1e150: norms just short of overflowing float64
        s2, _ = pair_similarity(EmbeddingSet(scale * a.vectors), EmbeddingSet(scale * b.vectors))
        assert s1 == pytest.approx(s2, abs=1e-10)


@pytest.mark.parametrize("entry", sorted(_OVERFLOWING))
def test_underflowing_norms_raise(entry):
    """Node vectors whose sum of squares underflows float64 raise a
    ValueError naming the underflow in every entry of the overflow test: a
    norm of 0 would make a nonzero row read as a zero vector (cost 1,
    relevance 0) and every score 0."""
    a, b = _sets(np.random.default_rng(3), 3, 4, 4)
    tiny = EmbeddingSet(1e-170 * a.vectors), EmbeddingSet(1e-170 * b.vectors)
    with pytest.raises(ValueError, match="node vector norm underflows"):
        _OVERFLOWING[entry](*tiny)


@pytest.mark.parametrize("scales", [(1e-160, 1e-160), (1e-170, 1e-170), (1e-300, 1e-300),
                                    (1e-170, 1.0), (1e-120, 1e-200)])
def test_scales_whose_norms_underflow_raise(scales):
    """Both sets at 1e-160 scored off by 1.4e-3, the others as 0.0, with no
    warning; a norm of a row in range is untouched (next test)."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((4, 8)), rng.standard_normal((5, 8))
    with pytest.raises(ValueError, match="underflows"):
        pair_similarity(EmbeddingSet(scales[0] * a), EmbeddingSet(scales[1] * b))


@pytest.mark.parametrize("scale", [1e-150, 1e-154])
def test_small_scales_with_normal_norms_score_as_scale_one(scale):
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((4, 8)), rng.standard_normal((5, 8))
    want = pair_similarity(EmbeddingSet(a), EmbeddingSet(b))[0]
    got = pair_similarity(EmbeddingSet(scale * a), EmbeddingSet(scale * b))[0]
    assert got == pytest.approx(want, abs=1e-12)


def test_node_grads_of_subnormal_relevance_totals_raise():
    """At 1e-154 the norms are normal and the forward scores as scale one,
    but the relevance totals are subnormal (~2e-309): the weight pull-back
    divides by them and would overflow, so it raises (no RuntimeWarning)."""
    rng = np.random.default_rng(0)
    a, b = 1e-154 * rng.standard_normal((4, 8)), 1e-154 * rng.standard_normal((5, 8))
    with pytest.raises(ValueError, match="relevance total underflows"):
        similarity_node_grads(EmbeddingSet(a), EmbeddingSet(b))


_SCALED = {
    "pair_similarity": lambda a, b: pair_similarity(a, b)[0],
    "similarity_matrix": lambda a, b: similarity_matrix([a], [b])[0, 0],
    "best_match": lambda a, b: best_match([a], [b])[1][0],
    "similarity_node_grads": lambda a, b: similarity_node_grads(a, b)[0],
}


@settings(max_examples=200, deadline=None)
@given(log_s=st.floats(-300, 300), log_t=st.floats(-300, 300),
       entry=st.sampled_from(sorted(_SCALED)))
def test_property_scaled_sets_score_as_scale_one_or_raise(log_s, log_t, entry):
    """The cosine cost and the normalized cross-reference weights do not
    depend on a positive scale of either set, so (s A, t B) scores as (A, B)
    to 1e-12 or raises ValueError (an overflowing or underflowing norm or
    relevance total); a RuntimeWarning is an error under pytest.  Scales in
    1e-100...1e100 keep every norm and relevance normal, so they score."""
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((4, 8)), rng.standard_normal((5, 8))
    want = _SCALED[entry](EmbeddingSet(a), EmbeddingSet(b))
    scaled = EmbeddingSet(10.0 ** log_s * a), EmbeddingSet(10.0 ** log_t * b)
    if max(abs(log_s), abs(log_t)) <= 100:
        assert _SCALED[entry](*scaled) == pytest.approx(want, abs=1e-12)
        return
    try:
        got = _SCALED[entry](*scaled)
    except ValueError:
        return
    assert got == pytest.approx(want, abs=1e-12)


def test_similarity_matrix_checks_a_chunk_s_masses_once():
    """A 15-set gallery of 25-node sets, one query chunk, scored against
    itself with skip_diagonal: the diagonal holds -inf and the solved pairs
    (j > i) are mirrored."""
    col = emdflow.generate(emdflow.SynthSpec(class_count=5, sets_per_class=3, spatial=(5, 5),
                                             channels=64, seed=4))
    sets = [extract(t, ExtractionConfig()) for _, t in col.sets]
    sim = similarity_matrix(sets, sets, skip_diagonal=True)
    assert np.all(np.diag(sim) == -np.inf) and np.array_equal(sim, sim.T)


@pytest.mark.parametrize("kwargs, match", [
    ({"vectors": np.ones(3)}, "vectors must be M x C"),
    ({"vectors": np.ones((0, 3))}, "vectors must be M x C"),
])
def test_embedding_set_rejects(kwargs, match):
    with pytest.raises(ValueError, match=match):
        EmbeddingSet(**kwargs)


@pytest.mark.parametrize("weights_a, weights_b, error, match", [
    ([0.5, 0.5], [1 / 3] * 3, ValueError, "supply/demand lengths"),
    ([0.5, 0.25, 0.25], [1.5, -0.5, 0.0], ValueError, "non-negative"),
    ([0.5, 0.25, 0.25], [np.nan, 0.5, 0.5], ValueError, "must be finite"),
    ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], ValueError, "must be positive"),
    ([0.5, 0.25, 0.25], [1.0, 1.0, 1.0], transport.UnbalancedProblemError, "unbalanced"),
], ids=["length", "negative", "non_finite", "zero_totals", "unbalanced"])
def test_emd_similarity_checks_its_masses(weights_a, weights_b, error, match):
    """emd_similarity's masses pass TransportProblem's checks: one per node,
    finite, >= 0, positive and balanced totals."""
    a, b = _sets(np.random.default_rng(5), 3, 3, 4)
    with pytest.raises(error, match=match):
        emd_similarity(a, b, weights_a, weights_b)


@pytest.mark.parametrize("kwargs, match", [
    ({"strategy": "bogus"}, "unknown strategy"),
    ({"grid_rows": 0}, "grid dimensions and patch_count"),
    ({"grid_cols": 0}, "grid dimensions and patch_count"),
    ({"patch_count": 0}, "grid dimensions and patch_count"),
    ({"patch_scale_range": (0.0, 0.5)}, "patch_scale_range"),
    ({"patch_scale_range": (0.6, 0.5)}, "patch_scale_range"),
    ({"patch_scale_range": (0.5, 1.5)}, "patch_scale_range"),
])
def test_extraction_config_rejects(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ExtractionConfig(**kwargs)


def test_unknown_weighting_is_named():
    a, b = _sets(np.random.default_rng(0), 2, 3, 4)
    with pytest.raises(ValueError, match="unknown weighting 'bogus'"):
        pair_similarity(a, b, weighting="bogus")


def test_given_weighting_is_unknown():
    """The sets' own weights are read only by emd_similarity; every entry
    that takes a weighting rejects ``given`` by name."""
    col = emdflow.generate(emdflow.SynthSpec(class_count=2, sets_per_class=2, spatial=(2, 2),
                                             channels=4, seed=0))
    ep = emdflow.sample_episode(col, 2, 1, 1, seed=0)
    a, b = ep.query[0][1], ep.query[1][1]
    entries = [lambda: pair_similarity(a, b, weighting="given"),
               lambda: similarity_matrix([a], [b], weighting="given"),
               lambda: best_match([a], [b], weighting="given"),
               lambda: emdflow.rank_gallery(ep.query, ep.query, weighting="given"),
               lambda: emdflow.classify_1shot(ep, weighting="given")]
    for entry in entries:
        with pytest.raises(ValueError, match="unknown weighting 'given'"):
            entry()


_NO_PAIRS = {
    "similarity_matrix": similarity_matrix,
    "best_match": best_match,
    "rank_gallery": lambda qs, rs, **kw: emdflow.rank_gallery(
        [(0, q) for q in qs], [(0, r) for r in rs], **kw),
}


@pytest.mark.parametrize("entry", sorted(_NO_PAIRS))
@pytest.mark.parametrize("empty", ["queries", "refs"])
@pytest.mark.parametrize("name, value", [("weighting", "nope"), ("solver", "nope")])
def test_unknown_names_raise_with_nothing_to_score(entry, empty, name, value):
    """An unknown weighting or solver raises also when no pair is scored."""
    one = [EmbeddingSet(np.eye(2))]
    queries, refs = ([], one) if empty == "queries" else (one, [])
    with pytest.raises(ValueError, match=f"unknown {name} 'nope'"):
        _NO_PAIRS[entry](queries, refs, **{name: value})


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000), weighting=st.sampled_from(WEIGHTINGS),
       edge=st.sampled_from(["none", "single_node", "zero_rows", "clamped", "orthogonal"]),
       zero_member=st.booleans(),
       log_scales=st.lists(st.floats(-150, 150), min_size=4, max_size=4))
def test_property_batched_weights_pass_the_mass_checks(seed, weighting, edge, zero_member,
                                                       log_scales):
    """The batched entries check no masses: cross-reference and equal
    weights of every pair of two stacks are finite and >= 0, and each
    pair's slices pass transport.check_masses (positive, balanced totals),
    with zero rows, an all-zero member, all-clamped members (uniform
    fallback) and each set scaled by 1e-150...1e150."""
    sets = [EmbeddingSet(10.0 ** log_s * s.vectors) for log_s, s
            in zip(log_scales, _forward_sets(np.random.default_rng(seed), edge))]
    if zero_member:
        sets[0] = EmbeddingSet(np.zeros_like(sets[0].vectors))
    xs, ys = _stack(sets[:2]), _stack(sets)
    w_x, w_y = _side_weights(xs, ys, weighting)[0], _side_weights(ys, xs, weighting)[0]
    for w in (w_x, w_y):
        assert np.isfinite(w).all() and (w >= 0).all()
    for p in range(len(xs.starts) - 1):
        for g in range(len(ys.starts) - 1):
            transport.check_masses(w_x[g, xs.starts[p]:xs.starts[p + 1]],
                                   w_y[p, ys.starts[g]:ys.starts[g + 1]])


def test_only_certified_solves_check_masses(monkeypatch):
    """pair_similarity and similarity_node_grads check masses once, in their
    certified solve; similarity_matrix and best_match on the simplex check
    none (their weights pass by construction)."""
    a, b, c = (EmbeddingSet(m) for m in np.random.default_rng(13).standard_normal((3, 4, 5)))
    assert not hasattr(metric, "check_masses")  # so every check is counted here
    checks = counted_calls(monkeypatch, transport, "check_masses")
    pair_similarity(a, b)
    assert len(checks) == 1
    similarity_node_grads(a, b)
    assert len(checks) == 2
    checks.clear()
    similarity_matrix([a, b, c], [a, b, c])
    best_match([a, b, c], [a, b, c])
    assert checks == []


@pytest.mark.parametrize("extractor", [lambda m: extract(m, ExtractionConfig()),
                                       lambda m: extract_pyramid(m, [1])])
def test_feature_map_must_be_three_dimensional(extractor):
    with pytest.raises(ValueError, match="feature map must be H x W x C"):
        extractor(np.ones((4, 4)))


def test_pyramid_needs_a_level():
    with pytest.raises(ValueError, match="at least one level"):
        extract_pyramid(np.ones((2, 2, 3)), [])
