import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emdflow.metric import (
    EmbeddingSet, ExtractionConfig, _similarity_bound, _solve_and_score, _Stack, _weights,
    best_match, cost_matrix, cross_reference_weights, emd_similarity, extract,
    extract_pyramid, pair_similarity, similarity_matrix, similarity_node_grads,
    uniform_weights,
)
from emdflow.tensor_io import DenseTensor
from emdflow.transport import solve_oracle, TransportProblem, UnbalancedProblemError


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
    a = EmbeddingSet(np.array([[1.0, 0.0]]), weights=np.array([1.0]))
    sim, _ = emd_similarity(a, a)
    assert sim == pytest.approx(1.0, abs=1e-12)
    anti = EmbeddingSet(np.array([[-1.0, 0.0]]), weights=np.array([1.0]))
    sim, _ = emd_similarity(a, anti)
    assert sim == pytest.approx(-1.0, abs=1e-12)


def test_similarity_equals_total_minus_objective():
    rng = np.random.default_rng(2)
    a, b = _sets(rng, 4, 4, 4)
    wa, wb = uniform_weights(a, b)
    sim, sol = emd_similarity(a.with_weights(wa), b.with_weights(wb), solver="oracle")
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


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6),
       st.sampled_from(["random", "signed_axes", "copy"]),
       st.sampled_from(["cross_reference", "equal", "given"]), st.integers(-12, 12))
def test_property_similarity_bound_never_below_exact(seed, m, k, nodes, weighting, log_mass):
    """The relaxed dual bound is never below the solved similarity.

    Random vectors leave zero-mass nodes under the cross-reference ReLU;
    signed axis vectors give tied integer costs 0, 1 and 2; ``copy`` makes
    the reference a copy of the query; ``given`` weights zero some nodes
    and scale the total mass to 1e-12...1e12.
    """
    rng = np.random.default_rng(seed)

    def vectors(n):
        if nodes == "signed_axes":
            return np.eye(3)[rng.integers(0, 3, n)] * rng.choice([-1.0, 1.0], (n, 1))
        return rng.standard_normal((n, 3))

    def masses(n):
        w = rng.uniform(0.0, 1.0, n) * (rng.random(n) < 0.6)
        w[rng.integers(n)] += 0.5
        return 10.0 ** log_mass * w / w.sum()

    q = EmbeddingSet(vectors(m))
    r = EmbeddingSet(q.vectors.copy() if nodes == "copy" else vectors(k))
    if weighting == "given":
        q, r = q.with_weights(masses(q.node_count)), r.with_weights(masses(r.node_count))
    wa, wb = _weights(q, r, weighting)
    cost = cost_matrix(q, r)
    sim = _solve_and_score(cost, wa, wb, "simplex")[0]
    assert _similarity_bound(cost, wa, wb) >= sim - 1e-12 * wa.sum()


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
    half = np.array([0.5, 0.5])
    query = EmbeddingSet(np.array([e1, -e2]), weights=half)
    refs = [EmbeddingSet(np.array([e3]), weights=np.array([1.0])),
            EmbeddingSet(np.array([e1, e2]), weights=half)]
    bounds = [_similarity_bound(cost_matrix(query, r), half, r.weights) for r in refs]
    assert bounds[1] > bounds[0]
    full = similarity_matrix([query], refs, weighting="given")
    assert full[0, 0] == full[0, 1]
    idx, sims = best_match([query], refs, weighting="given")
    assert (idx[0], sims[0]) == (0, full[0, 0])


def test_best_match_checks_every_pair():
    """A pair pruned by its bound is still rejected as the full matrix rejects it."""
    rng = np.random.default_rng(9)
    query = EmbeddingSet(rng.standard_normal((3, 4)), weights=np.full(3, 1 / 3))
    far = EmbeddingSet(-query.vectors, weights=np.full(3, 2 / 3))
    with pytest.raises(UnbalancedProblemError):
        similarity_matrix([query], [query, far], weighting="given")
    with pytest.raises(UnbalancedProblemError):
        best_match([query], [query, far], weighting="given")
    with pytest.raises(ValueError, match="at least one reference"):
        best_match([query], [])


def _forward_sets(rng, edge):
    """Three or four node sets of differing node counts around one direction,
    with the edge case ``edge`` and given weights that each sum to 1.

    At 40 channels BLAS rounds x @ x.T (its syrk path) differently from the
    product of two equal copies, which the forward must not take.
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
        weights = rng.random(nodes) * (rng.random(nodes) < 0.7)
        weights[rng.integers(nodes)] += 0.5
        sets.append(EmbeddingSet(vectors, weights=weights / weights.sum()))
    return sets


def _bytes(values):
    return np.asarray(values, dtype=np.float64).tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000),
       weighting=st.sampled_from(["cross_reference", "equal", "given"]),
       solver=st.sampled_from(["simplex", "ipm"]),
       edge=st.sampled_from(["none", "single_node", "zero_rows", "clamped"]))
def test_property_forward_is_bit_equal_to_pair_similarity(seed, weighting, solver, edge):
    """similarity_matrix (mirrored, a distinct list, skip_diagonal) and
    best_match give pair_similarity's similarity byte for byte."""
    sets = _forward_sets(np.random.default_rng(seed), edge)
    n = len(sets)
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


def test_skipped_pair_of_a_distinct_list_is_not_mass_checked():
    """With skip_diagonal, a distinct list's (i, i) pairs are neither solved
    nor checked: here they are the unbalanced ones."""
    rng = np.random.default_rng(10)

    def weighted(total):
        return EmbeddingSet(rng.standard_normal((3, 4)), weights=np.full(3, total / 3))

    queries, refs = [weighted(1.0), weighted(2.0)], [weighted(2.0), weighted(1.0)]
    with pytest.raises(UnbalancedProblemError):
        similarity_matrix(queries, refs, weighting="given")
    sim = similarity_matrix(queries, refs, weighting="given", skip_diagonal=True)
    assert np.all(np.diag(sim) == -np.inf)
    assert sim[0, 1] == pair_similarity(queries[0], refs[1], weighting="given")[0]
    assert sim[1, 0] == pair_similarity(queries[1], refs[0], weighting="given")[0]


def test_node_grads_match_finite_differences():
    rng = np.random.default_rng(6)
    eps = 1e-6
    for _ in range(10):
        U = rng.standard_normal((3, 5)) + 0.4
        V = rng.standard_normal((4, 5)) + 0.4
        sim, sol, ga, gb = similarity_node_grads(EmbeddingSet(U), EmbeddingSet(V))
        # Training differentiates exactly the score inference computes.
        ref_sim, ref_sol = pair_similarity(EmbeddingSet(U), EmbeddingSet(V))
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


def test_extract_fcn_row_major():
    arr = np.arange(5 * 5 * 2, dtype=float).reshape(5, 5, 2)
    es = extract(DenseTensor.from_array(arr), ExtractionConfig("fcn"))
    assert es.node_count == 25
    assert np.array_equal(es.vectors[7], arr[1, 2])
    assert np.all(es.weights == 1.0)


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
    s2, _ = pair_similarity(EmbeddingSet(3.7 * a.vectors), EmbeddingSet(3.7 * b.vectors))
    assert s1 == pytest.approx(s2, abs=1e-10)
