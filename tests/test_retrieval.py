import numpy as np
import pytest

from emdflow import metric
from emdflow.metric import EmbeddingSet, pair_similarity, similarity_matrix
from emdflow.retrieval import RetrievalRun, metrics, rank_gallery

from conftest import counted_calls


def _run(query_labels, gallery_labels, similarity):
    sim = np.asarray(similarity, dtype=float)
    return RetrievalRun(
        query_labels=np.asarray(query_labels),
        gallery_labels=np.asarray(gallery_labels),
        similarity=sim,
        ranking=np.argsort(-sim, axis=1, kind="stable"),
    )


def test_exact_copy_ranks_first():
    rng = np.random.default_rng(0)
    gallery = [(i % 2, EmbeddingSet(rng.standard_normal((3, 4)))) for i in range(5)]
    query = [(gallery[2][0], gallery[2][1])]
    run = rank_gallery(query, gallery)
    assert run.ranking[0][0] == 2


def test_single_item_gallery():
    rng = np.random.default_rng(1)
    item = (0, EmbeddingSet(rng.standard_normal((2, 3))))
    run = rank_gallery([item], [item], self_match=False)
    assert list(run.ranking[0]) == [0]
    assert metrics(run) == (1.0, 1.0, 1.0)


def test_toy_gallery_matches_brute_force():
    rng = np.random.default_rng(2)
    query = [(0, EmbeddingSet(rng.standard_normal((3, 4))))]
    gallery = [(0, EmbeddingSet(rng.standard_normal((3, 4)))) for _ in range(3)]
    run = rank_gallery(query, gallery)
    sims = [pair_similarity(query[0][1], g)[0] for _, g in gallery]
    assert list(run.ranking[0]) == list(np.argsort(-np.array(sims), kind="stable"))


def test_self_match_excluded():
    rng = np.random.default_rng(3)
    items = [(i % 2, EmbeddingSet(rng.standard_normal((2, 3)))) for i in range(4)]
    run = rank_gallery(items, items)
    for i in range(4):
        assert run.similarity[i, i] == -np.inf
        assert run.ranking[i][-1] == i


def test_perfect_ranking_all_ones():
    run = _run([0, 1], [0, 0, 1, 1],
               [[9, 8, 1, 0], [1, 0, 9, 8]])
    assert metrics(run) == (1.0, 1.0, 1.0)


def test_top1_wrong_everywhere():
    run = _run([0, 1], [0, 1], [[0.1, 0.9], [0.9, 0.1]])
    p1, _, _ = metrics(run)
    assert p1 == 0.0


def test_map_at_r_hand_enumerated():
    # query0 ranked [hit, miss, hit], query1 ranked [hit, hit, miss]; R = 2
    run = _run([0, 0], [0, 1, 0],
               [[3.0, 2.0, 1.0], [3.0, 1.0, 2.0]])
    p1, rp, mapr = metrics(run)
    assert p1 == 1.0
    assert rp == pytest.approx(0.75, abs=1e-12)
    expected = ((0.5 * (1 + 2 / 3)) + (0.5 * (1 + 1))) / 2
    assert mapr == pytest.approx(expected, abs=1e-12)


def test_metrics_in_unit_interval():
    rng = np.random.default_rng(4)
    run = _run(rng.integers(0, 3, 6), rng.integers(0, 3, 12),
               rng.standard_normal((6, 12)))
    try:
        vals = metrics(run)
    except ValueError:
        return  # a query had no same-label item; nothing to check
    for v in vals:
        assert 0.0 <= v <= 1.0


def test_gallery_permutation_invariance():
    rng = np.random.default_rng(5)
    g_labels = rng.integers(0, 2, 8)
    sim = rng.standard_normal((3, 8))
    q_labels = np.array([0, 1, 0])
    base = metrics(_run(q_labels, g_labels, sim))
    perm = rng.permutation(8)
    permuted = metrics(_run(q_labels, g_labels[perm], sim[:, perm]))
    assert np.allclose(base, permuted, atol=1e-12)


def test_swap_improvement_monotone():
    # fixing one query's [miss, hit] prefix into [hit, miss] cannot lower MAP@R
    worse = metrics(_run([0], [1, 0, 0], [[3.0, 2.0, 1.0]]))[2]
    better = metrics(_run([0], [0, 1, 0], [[3.0, 2.0, 1.0]]))[2]
    assert better >= worse


def test_query_without_positives_raises():
    run = _run([0], [1, 1], [[1.0, 0.5]])
    with pytest.raises(ValueError):
        metrics(run)


def test_metrics_reject_a_run_without_queries():
    """No queries is a ValueError, not a division by a query count of zero."""
    run = rank_gallery([], [])
    assert run.similarity.shape == (0, 0)
    with pytest.raises(ValueError, match="at least one query"):
        metrics(run)


def test_ranking_row_validation():
    with pytest.raises(ValueError):
        RetrievalRun(query_labels=np.array([0]), gallery_labels=np.array([0, 0]),
                     similarity=np.ones((1, 2)), ranking=np.array([[0, 0]]))


def _counted_solves(monkeypatch):
    """Record every simplex kernel run of the similarity forward."""
    return counted_calls(monkeypatch, metric, "_simplex")


def test_self_retrieval_solves_each_pair_once(monkeypatch):
    rng = np.random.default_rng(6)
    items = [(i % 2, EmbeddingSet(rng.standard_normal((4, 5)))) for i in range(5)]
    n = len(items)
    calls = _counted_solves(monkeypatch)
    sim = rank_gallery(items, items).similarity
    assert len(calls) == n * (n - 1) // 2
    assert np.all(np.diag(sim) == -np.inf)
    off = ~np.eye(n, dtype=bool)
    assert np.array_equal(sim[off], sim.T[off])
    for i in range(n):
        for j in range(i + 1, n):
            assert sim[i, j] == pair_similarity(items[i][1], items[j][1])[0]


def test_distinct_gallery_list_solves_every_ordered_pair(monkeypatch):
    rng = np.random.default_rng(7)
    items = [(i % 2, EmbeddingSet(rng.standard_normal((3, 4)))) for i in range(4)]
    n = len(items)
    calls = _counted_solves(monkeypatch)
    run = rank_gallery(items, list(items), self_match=True)
    assert len(calls) == n * (n - 1)
    assert np.all(np.diag(run.similarity) == -np.inf)


def test_similarity_matrix_mirror_keeps_the_diagonal(monkeypatch):
    rng = np.random.default_rng(8)
    sets = [EmbeddingSet(rng.standard_normal((3, 4))) for _ in range(4)]
    n = len(sets)
    calls = _counted_solves(monkeypatch)
    sim = similarity_matrix(sets, sets)
    assert len(calls) == n * (n + 1) // 2
    assert np.allclose(np.diag(sim), 1.0, atol=1e-12)
    assert np.array_equal(sim, sim.T)
