import numpy as np
import pytest

from emdflow.fewshot import (
    Episode, InsufficientDataError, classify_1shot, classify_kshot,
    episode_loss_and_grad, fit_sfc, mean_ci95, sample_episode,
    support_cross_entropy, train_projection,
)
from emdflow.metric import EmbeddingSet, ExtractionConfig, similarity_matrix
from emdflow.synth import SynthSpec, generate


SEPARABLE = SynthSpec(class_count=6, sets_per_class=10, spatial=(2, 2),
                      channels=8, cluster_sep=8.0, seed=1)
BACKGROUND = SynthSpec(class_count=6, sets_per_class=10, spatial=(2, 2),
                       channels=8, cluster_sep=6.0, background_fraction=0.25,
                       background_scale=2.0, seed=2)


@pytest.fixture(scope="module")
def separable_col():
    return generate(SEPARABLE)


@pytest.fixture(scope="module")
def background_col():
    return generate(BACKGROUND)


def test_sample_episode_shapes(separable_col):
    ep = sample_episode(separable_col, 5, 1, 3, seed=0)
    assert len(ep.support) == 5
    assert len(ep.query) == 15
    labels = sorted(label for label, _ in ep.support)
    assert labels == [0, 1, 2, 3, 4]


def test_sample_episode_deterministic(separable_col):
    e1 = sample_episode(separable_col, 5, 2, 2, seed=9)
    e2 = sample_episode(separable_col, 5, 2, 2, seed=9)
    for (la, sa), (lb, sb) in zip(e1.support + e1.query, e2.support + e2.query):
        assert la == lb
        assert np.array_equal(sa.vectors, sb.vectors)


def test_sample_episode_exhaustion():
    col = generate(SynthSpec(class_count=3, sets_per_class=4, spatial=(2, 2),
                             channels=4, cluster_sep=3.0, seed=3))
    ep = sample_episode(col, 3, 2, 2, seed=0)
    # every set of every class used exactly once
    seen = sorted(tuple(es.vectors.ravel()) for _, es in ep.support + ep.query)
    assert len(set(seen)) == 12


def test_sample_episode_insufficient(separable_col):
    with pytest.raises(InsufficientDataError):
        sample_episode(separable_col, 7, 1, 1, seed=0)
    with pytest.raises(InsufficientDataError):
        sample_episode(separable_col, 5, 5, 6, seed=0)


@pytest.mark.parametrize("n_way, k_shot, q_per_class", [(0, 1, 1), (3, 0, 1), (3, 1, 0)])
def test_sample_episode_rejects_empty(separable_col, n_way, k_shot, q_per_class):
    with pytest.raises(ValueError, match="q_per_class >= 1"):
        sample_episode(separable_col, n_way, k_shot, q_per_class, seed=0)


@pytest.mark.parametrize("n_way, k_shot, q_per_class", [(0, 1, 1), (2, 0, 1), (2, 1, 0)])
def test_episode_rejects_empty(n_way, k_shot, q_per_class):
    es = EmbeddingSet(np.ones((1, 2)))
    support = tuple((c, es) for c in range(n_way) for _ in range(k_shot))
    query = tuple((c, es) for c in range(n_way) for _ in range(q_per_class))
    with pytest.raises(ValueError, match="q_per_class >= 1"):
        Episode(n_way=n_way, k_shot=k_shot, q_per_class=q_per_class,
                support=support, query=query)


def test_episode_rejects_uneven_classes():
    """Class 1 has no support and two queries, so nn could never predict it."""
    es = EmbeddingSet(np.ones((1, 2)))
    with pytest.raises(ValueError, match="support size mismatch"):
        Episode(n_way=2, k_shot=1, q_per_class=1, support=((0, es), (0, es)),
                query=((0, es), (1, es)))
    with pytest.raises(ValueError, match="query size mismatch"):
        Episode(n_way=2, k_shot=1, q_per_class=1, support=((0, es), (1, es)),
                query=((1, es), (1, es)))


def test_episode_label_validation():
    es = EmbeddingSet(np.ones((1, 2)))
    with pytest.raises(ValueError):
        Episode(n_way=2, k_shot=1, q_per_class=0,
                support=((0, es), (5, es)), query=())


def test_classify_1shot_requires_single_shot(separable_col):
    ep = sample_episode(separable_col, 3, 2, 1, seed=0)
    with pytest.raises(ValueError):
        classify_1shot(ep)


def test_classify_1shot_separable(separable_col):
    accs = [classify_1shot(sample_episode(separable_col, 5, 1, 2, seed=e))[1]
            for e in range(20)]
    assert np.mean(accs) >= 0.99


def test_classify_1shot_query_equals_support(separable_col):
    ep = sample_episode(separable_col, 3, 1, 1, seed=4)
    # replace queries with copies of their class supports
    supports = {label: es for label, es in ep.support}
    ep2 = Episode(n_way=3, k_shot=1, q_per_class=1, support=ep.support,
                  query=tuple((label, supports[label]) for label, _ in ep.query))
    preds, acc = classify_1shot(ep2)
    assert acc == 1.0


def test_k1_reductions_exact(background_col):
    ep = sample_episode(background_col, 5, 1, 2, seed=5)
    preds, acc = classify_1shot(ep)
    for method in ("nn", "fusion", "merge"):
        assert classify_kshot(ep, method) == acc


def test_pruned_kshot_methods_match_full_scoring(background_col):
    """nn, merge and sfc give the accuracy of the argmax over every score."""
    for seed in range(3):
        ep = sample_episode(background_col, 5, 3, 2, seed=seed)
        queries = [q for _, q in ep.query]
        labels = np.array([label for label, _ in ep.query])
        groups = ep.support_by_class()

        def accuracy(sims):
            return np.count_nonzero(np.argmax(sims, axis=1) == labels) / len(labels)

        per_support = similarity_matrix(queries, [es for sets in groups for es in sets])
        merged = [EmbeddingSet(np.concatenate([es.vectors for es in sets])) for sets in groups]
        fitted = fit_sfc(ep, iterations=5)
        protos = [EmbeddingSet(p) for p in fitted.per_class]
        assert classify_kshot(ep, "nn") == accuracy(per_support.reshape(-1, 5, 3).max(axis=2))
        assert classify_kshot(ep, "merge") == accuracy(similarity_matrix(queries, merged))
        assert (classify_kshot(ep, "sfc", sfc_kwargs={"iterations": 5})
                == accuracy(similarity_matrix(queries, protos)))


def test_global_scale_leaves_predictions(separable_col):
    ep = sample_episode(separable_col, 4, 1, 2, seed=6)
    scaled = Episode(
        n_way=4, k_shot=1, q_per_class=2,
        support=tuple((l, EmbeddingSet(2.5 * es.vectors)) for l, es in ep.support),
        query=tuple((l, EmbeddingSet(2.5 * es.vectors)) for l, es in ep.query),
    )
    assert np.array_equal(classify_1shot(ep)[0], classify_1shot(scaled)[0])


def test_sfc_init_law(background_col):
    ep = sample_episode(background_col, 4, 3, 1, seed=7)
    fitted = fit_sfc(ep, iterations=0)
    groups = ep.support_by_class()
    for c in range(4):
        expect = np.mean([es.vectors for es in groups[c]], axis=0)
        assert np.array_equal(fitted.per_class[c], expect)


def test_sfc_init_k1_is_support(background_col):
    ep = sample_episode(background_col, 3, 1, 1, seed=8)
    fitted = fit_sfc(ep, iterations=0)
    for c, sets in enumerate(ep.support_by_class()):
        assert np.array_equal(fitted.per_class[c], sets[0].vectors)


def test_sfc_training_reduces_support_loss(background_col):
    ep = sample_episode(background_col, 4, 3, 2, seed=9)
    init = fit_sfc(ep, iterations=0)
    ce0 = support_cross_entropy(ep, init.per_class)
    fitted = fit_sfc(ep, iterations=40, seed=1)
    ce1 = support_cross_entropy(ep, fitted.per_class)
    assert ce1 < ce0
    assert len(fitted.loss_curve) == 40
    assert all(np.isfinite(v) for v in fitted.loss_curve)


def test_sfc_deterministic(background_col):
    ep = sample_episode(background_col, 3, 2, 1, seed=10)
    f1 = fit_sfc(ep, iterations=10, seed=3)
    f2 = fit_sfc(ep, iterations=10, seed=3)
    for a, b in zip(f1.per_class, f2.per_class):
        assert np.array_equal(a, b)


def test_fusion_equals_nn_for_duplicated_support(separable_col):
    ep = sample_episode(separable_col, 3, 1, 2, seed=11)
    dup = Episode(n_way=3, k_shot=3, q_per_class=2,
                  support=tuple((l, es) for l, es in ep.support for _ in range(3)),
                  query=ep.query)
    assert classify_kshot(dup, "nn") == classify_kshot(dup, "fusion")


def test_prototype_method_separable(separable_col):
    ep = sample_episode(separable_col, 5, 3, 2, seed=12)
    assert classify_kshot(ep, "prototype") >= 0.9


def test_unknown_method(separable_col):
    ep = sample_episode(separable_col, 3, 1, 1, seed=0)
    with pytest.raises(ValueError):
        classify_kshot(ep, "matching_net")


def test_projection_gradient_matches_finite_difference():
    col = generate(SynthSpec(class_count=4, sets_per_class=6, spatial=(2, 2),
                             channels=5, cluster_sep=3.0, seed=13))
    ep = sample_episode(col, 3, 1, 2, seed=2)
    rng = np.random.default_rng(0)
    W = np.eye(5) + 0.05 * rng.standard_normal((5, 5))
    loss, grad = episode_loss_and_grad(W, ep)
    eps = 1e-6
    for i, j in [(0, 0), (2, 4), (4, 1)]:
        Wp, Wm = W.copy(), W.copy()
        Wp[i, j] += eps
        Wm[i, j] -= eps
        fd = (episode_loss_and_grad(Wp, ep)[0] - episode_loss_and_grad(Wm, ep)[0]) / (2 * eps)
        assert grad[i, j] == pytest.approx(fd, rel=1e-3, abs=1e-8)


def test_train_projection_lr_zero_bitwise():
    col = generate(SynthSpec(class_count=5, sets_per_class=5, spatial=(2, 2),
                             channels=6, cluster_sep=4.0, seed=14))
    m0 = train_projection(col, epochs=3, lr=0.0, seed=21)
    m1 = train_projection(col, epochs=0, lr=0.5, seed=21)
    assert np.array_equal(m0.weight, m1.weight)
    assert len(m0.loss_curve) == 3


def test_train_projection_deterministic():
    col = generate(SynthSpec(class_count=5, sets_per_class=5, spatial=(2, 2),
                             channels=6, cluster_sep=4.0, seed=15))
    m0 = train_projection(col, epochs=3, lr=0.05, seed=4)
    m1 = train_projection(col, epochs=3, lr=0.05, seed=4)
    assert np.array_equal(m0.weight, m1.weight)
    assert m0.loss_curve == m1.loss_curve


def test_mean_ci95():
    mean, ci = mean_ci95([0.5, 0.5, 0.5])
    assert mean == 0.5 and ci == 0.0
    vals = [0.0, 1.0, 0.0, 1.0]
    mean, ci = mean_ci95(vals)
    assert mean == 0.5
    assert ci == pytest.approx(1.96 * 0.5 / 2.0)
