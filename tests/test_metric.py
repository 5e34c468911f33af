import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from emdflow.metric import (
    EmbeddingSet, ExtractionConfig, cost_matrix, cross_reference_weights,
    emd_similarity, extract, extract_pyramid, pair_similarity,
    similarity_node_grads, uniform_weights,
)
from emdflow.tensor_io import DenseTensor
from emdflow.transport import solve_oracle, TransportProblem


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
