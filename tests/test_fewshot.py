from dataclasses import replace

import numpy as np
import pytest

from emdflow import fewshot, metric, transport
from emdflow.fewshot import (
    DivergenceError, Episode, InsufficientDataError, _cross_entropy, classify_1shot,
    classify_kshot, episode_loss_and_grad, fit_sfc, mean_ci95, sample_episode, train_projection,
)
from emdflow.metric import (EmbeddingSet, ExtractionConfig, cross_reference_weights,
                            similarity_matrix, similarity_node_grads)
from emdflow.synth import SynthSpec, generate
from emdflow.tensor_io import LabeledSetCollection

from conftest import counted_calls


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
    assert fitted.n_way == 4
    groups = ep.support_by_class()
    for c in range(4):
        expect = np.mean([es.vectors for es in groups[c]], axis=0)
        assert np.array_equal(fitted.per_class[c], expect)


def test_sfc_init_k1_is_support(background_col):
    ep = sample_episode(background_col, 3, 1, 1, seed=8)
    fitted = fit_sfc(ep, iterations=0)
    for c, sets in enumerate(ep.support_by_class()):
        assert np.array_equal(fitted.per_class[c], sets[0].vectors)


def _support_cross_entropy(ep, protos, temperature=0.1):
    """Mean cross-entropy of the full support set against prototypes."""
    sims = similarity_matrix([es for _, es in ep.support],
                             [EmbeddingSet(vectors=p) for p in protos])
    total = 0.0
    for (label, _), row in zip(ep.support, sims):
        total += _cross_entropy(row[None], [label], temperature)[0]
    return total / len(ep.support)


def test_sfc_training_reduces_support_loss(background_col):
    ep = sample_episode(background_col, 4, 3, 2, seed=9)
    init = fit_sfc(ep, iterations=0)
    ce0 = _support_cross_entropy(ep, init.per_class)
    fitted = fit_sfc(ep, iterations=40, seed=1)
    ce1 = _support_cross_entropy(ep, fitted.per_class)
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


def _global_mean_cosine(ep):
    """Reference for ``prototype``, written out: the cosine of a query's
    global mean and each class's mean of its supports' global means, 0
    where either mean is zero, argmax to the lowest class.  Returns
    (predictions, accuracy)."""
    means = [np.mean([es.vectors.mean(axis=0) for es in sets], axis=0)
             for sets in ep.support_by_class()]

    def score(q, c):
        qm = q.vectors.mean(axis=0)
        denom = np.linalg.norm(qm) * np.linalg.norm(means[c])
        return float(qm @ means[c] / denom) if denom > 0 else 0.0
    preds = np.argmax([[score(q, c) for c in range(ep.n_way)] for _, q in ep.query], axis=1)
    return preds, np.count_nonzero(preds == [label for label, _ in ep.query]) / len(ep.query)


@pytest.mark.parametrize("solver", ["simplex", "ipm"])
def test_prototype_is_the_global_mean_cosine(solver):
    """prototype, the EMD of one-node global-mean sets, keeps the cosine
    rule's answers on every episode (accuracies 0.2-0.7 on these); a query
    whose global mean is zero scores 0 against every class and so goes to
    class 0, its label."""
    col = generate(SynthSpec(class_count=6, sets_per_class=10, spatial=(2, 2), channels=8,
                             cluster_sep=1.5, background_fraction=0.25,
                             background_scale=2.0, seed=2))
    for seed in range(24):
        ep = sample_episode(col, 5, 3, 2, seed=seed)
        assert classify_kshot(ep, "prototype", solver=solver) == _global_mean_cosine(ep)[1]
    ep = sample_episode(col, 5, 3, 2, seed=0)
    label, q = ep.query[0]
    assert label == 0
    # Each node followed by its negation: the running sum returns to 0 exactly.
    zero_mean = EmbeddingSet(np.stack([q.vectors, -q.vectors], axis=1).reshape(-1, q.channels))
    assert not zero_mean.vectors.mean(axis=0).any()
    ep = Episode(n_way=5, k_shot=3, q_per_class=2, support=ep.support,
                 query=((0, zero_mean),) + ep.query[1:])
    preds, acc = _global_mean_cosine(ep)
    assert preds[0] == 0
    assert classify_kshot(ep, "prototype", solver=solver) == acc


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


def test_projection_rejects_non_finite_weight():
    """A weight that projects a node to a non-finite vector is rejected."""
    col = generate(SynthSpec(class_count=4, sets_per_class=6, spatial=(2, 2),
                             channels=5, cluster_sep=3.0, seed=13))
    ep = sample_episode(col, 3, 1, 2, seed=2)
    W = np.eye(5)
    W[1, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite node vector"):
        episode_loss_and_grad(W, ep)


def test_projection_step_rejects_kshot_episodes():
    """The step scores one support per class, so a 2-shot episode raises
    rather than silently dropping every support after each class's first."""
    col = generate(SynthSpec(class_count=4, sets_per_class=6, spatial=(2, 2),
                             channels=5, cluster_sep=3.0, seed=13))
    ep = sample_episode(col, 3, 2, 2, seed=0)
    with pytest.raises(ValueError, match="requires k_shot = 1, got 2"):
        episode_loss_and_grad(np.eye(5), ep)


def test_train_projection_lr_zero_bitwise():
    col = generate(SynthSpec(class_count=5, sets_per_class=5, spatial=(2, 2),
                             channels=6, cluster_sep=4.0, seed=14))
    m0 = train_projection(col, epochs=3, lr=0.0, seed=21)
    m1 = train_projection(col, epochs=0, lr=0.5, seed=21)
    assert np.array_equal(m0.weight, m1.weight)
    assert len(m0.loss_curve) == 3


@pytest.mark.parametrize("out_dim", [0, -1])
def test_train_projection_rejects_out_dim_below_one(out_dim):
    col = generate(SynthSpec(class_count=5, sets_per_class=5, spatial=(2, 2),
                             channels=6, cluster_sep=4.0, seed=14))
    with pytest.raises(ValueError, match=f"out_dim must be >= 1, got {out_dim}"):
        train_projection(col, epochs=1, out_dim=out_dim)
    assert train_projection(col, epochs=0, out_dim=None).weight.shape == (6, 6)
    assert train_projection(col, epochs=0, out_dim=3).weight.shape == (6, 3)


def test_train_projection_deterministic():
    col = generate(SynthSpec(class_count=5, sets_per_class=5, spatial=(2, 2),
                             channels=6, cluster_sep=4.0, seed=15))
    m0 = train_projection(col, epochs=3, lr=0.05, seed=4)
    m1 = train_projection(col, epochs=3, lr=0.05, seed=4)
    assert np.array_equal(m0.weight, m1.weight)
    assert m0.loss_curve == m1.loss_curve
    es = EmbeddingSet(np.arange(12.0).reshape(2, 6))
    assert np.array_equal(m0.apply(es).vectors, es.vectors @ m0.weight)


def test_mean_ci95():
    mean, ci = mean_ci95([0.5, 0.5, 0.5])
    assert mean == 0.5 and ci == 0.0
    vals = [0.0, 1.0, 0.0, 1.0]
    mean, ci = mean_ci95(vals)
    assert mean == 0.5
    assert ci == pytest.approx(1.96 * 0.5 / 2.0)


# ---------------------------------------------------------------------------
# The batched loss against the per-row loop it replaced.


def _row_cross_entropy(sims, label, temperature):
    """Softmax cross-entropy of one row of sims / temperature against
    ``label``: (loss, d loss / d sims)."""
    z = sims / temperature
    e = np.exp(z - z.max())
    probs = e / e.sum()
    d_sims = probs.copy()
    d_sims[label] -= 1.0
    return -float(np.log(max(probs[label], 1e-300))), d_sims / temperature


def _row_loop_cross_entropy(sims, labels, temperature):
    """Each row's _row_cross_entropy against its label, summed in row order."""
    loss, d_sims = 0.0, np.empty_like(sims)
    for p, label in enumerate(labels):
        value, d_sims[p] = _row_cross_entropy(sims[p], label, temperature)
        loss += value
    return loss, d_sims


@pytest.mark.parametrize("rows", [1, 5, 12])
def test_cross_entropy_is_bit_equal_to_row_loop(rows):
    """The batched loss and gradient equal the per-row loop byte for byte,
    also on a row whose label probability underflows to the 1e-300 floor."""
    rng = np.random.default_rng(rows)
    for trial in range(200):
        classes = int(rng.integers(2, 9))
        sims = rng.uniform(-1.0, 1.0, (rows, classes))
        labels = rng.integers(0, classes, rows).tolist()
        temperature = float(rng.choice([0.05, 0.1, 1.0]))
        if trial == 0:  # the label's logit 1000 below the row's best
            sims[-1, labels[-1]], sims[-1, labels[-1] - 1] = -50.0, 50.0
            temperature = 0.1
        loss, d_sims = _cross_entropy(sims, labels, temperature)
        want_loss, want_d = _row_loop_cross_entropy(sims, labels, temperature)
        assert loss == want_loss
        assert d_sims.tobytes() == want_d.tobytes()
        if trial == 0:
            assert _cross_entropy(sims[-1:], labels[-1:], temperature)[0] == -np.log(1e-300)


# ---------------------------------------------------------------------------
# SGD settings that cannot train are rejected before any work.


@pytest.mark.parametrize("kwargs, match", [
    ({"batch_size": 0}, "batch_size"),
    ({"iterations": -1}, "iterations"),
    ({"temperature": -0.1}, "temperature"),
    ({"temperature": 0.0}, "temperature"),
    ({"temperature": np.inf}, "temperature"),
    ({"learning_rate": np.nan}, "learning rate"),
    ({"learning_rate": np.inf}, "learning rate"),
    ({"learning_rate": -0.1}, "learning rate"),
])
def test_fit_sfc_rejects_settings(separable_col, kwargs, match):
    ep = sample_episode(separable_col, 3, 2, 1, seed=0)
    with pytest.raises(ValueError, match=match):
        fit_sfc(ep, **kwargs)
    with pytest.raises(ValueError, match=match):
        classify_kshot(ep, "sfc", sfc_kwargs=kwargs)


@pytest.mark.parametrize("kwargs, match", [
    ({"epochs": -1}, "epochs"),
    ({"temperature": -0.1}, "temperature"),
    ({"temperature": 0.0}, "temperature"),
    ({"temperature": np.nan}, "temperature"),
    ({"lr": np.nan}, "learning rate"),
    ({"lr": -0.05}, "learning rate"),
])
def test_train_projection_rejects_settings(separable_col, kwargs, match):
    with pytest.raises(ValueError, match=match):
        train_projection(separable_col, **{"epochs": 1, **kwargs})


def test_fit_sfc_raises_where_a_step_overflows_the_prototypes(separable_col):
    """A step that leaves a prototype node whose norm overflows float64 is a
    divergence at that iteration, not a fit whose costs read every node as
    zero (every loss then ln n_way)."""
    ep = sample_episode(separable_col, 5, 3, 1, seed=0)
    with pytest.raises(DivergenceError) as info:
        fit_sfc(ep, learning_rate=1e300, iterations=5)
    assert info.value.iteration == 0


def test_train_projection_raises_where_a_step_overflows_the_weight(separable_col):
    with pytest.raises(DivergenceError) as info:
        train_projection(separable_col, epochs=4, lr=1e300)
    assert info.value.iteration == 0


# ---------------------------------------------------------------------------
# The fused SFC step against the per-pair loop it replaced.


def _reference_fit_sfc(ep, learning_rate=0.1, batch_size=5, iterations=100,
                       temperature=0.1, seed=0, solver="simplex"):
    """One similarity_node_grads call per (picked support, class) pair, cold solves."""
    groups = ep.support_by_class()
    protos = [np.mean([es.vectors for es in sets], axis=0) for sets in groups]
    rng = np.random.default_rng(seed)
    support = list(ep.support)
    curve = []
    for _ in range(iterations):
        picks = rng.integers(0, len(support), size=batch_size)
        grads = [np.zeros_like(p) for p in protos]
        batch_loss = 0.0
        for pick in picks:
            label, es = support[pick]
            sims = np.empty(ep.n_way)
            proto_grads = []
            for c, proto in enumerate(protos):
                sim, _, _, g_proto = similarity_node_grads(
                    es, EmbeddingSet(vectors=proto), solver=solver)
                sims[c] = sim
                proto_grads.append(g_proto)
            loss, (d_sims,) = _cross_entropy(sims[None], [label], temperature)
            batch_loss += loss
            for c in range(ep.n_way):
                grads[c] += d_sims[c] * proto_grads[c]
        curve.append(batch_loss / batch_size)
        for c in range(ep.n_way):
            protos[c] -= learning_rate * grads[c] / batch_size
    return protos, curve


def _episode(rng, nodes, offsets, k_shot=3, channels=6, zero_row=False):
    """Class c's sets have nodes[c] rows around offsets[c]; with ``zero_row``
    every set's first row is zero."""
    def item(c):
        vec = offsets[c] + rng.standard_normal((nodes[c], channels))
        if zero_row:
            vec[0] = 0.0
        return c, EmbeddingSet(vec)
    n_way = len(nodes)
    return Episode(n_way=n_way, k_shot=k_shot, q_per_class=1,
                   support=tuple(item(c) for c in range(n_way) for _ in range(k_shot)),
                   query=tuple(item(c) for c in range(n_way)))


def _one_shot(ep):
    """ep with only each class's first support: the projection step is 1-shot."""
    return replace(ep, k_shot=1,
                   support=[(c, sets[0]) for c, sets in enumerate(ep.support_by_class())])


def _sfc_case(name):
    rng = np.random.default_rng(31)
    direction = np.zeros(6)
    direction[0] = 6.0
    spread = [direction * s + rng.uniform(0, 1, 6) for s in (1.0, 0.6, 0.3)]
    if name == "uniform":  # classes 0 and 1 point opposite ways: all relevances clamp to 0
        return _episode(rng, (3, 4), (direction, -direction)), {}
    if name == "zero_rows":
        return _episode(rng, (4, 4, 4), spread, zero_row=True), {}
    if name == "ipm":
        return _episode(rng, (2, 3, 4), spread), {"solver": "ipm", "iterations": 6}
    if name == "batch1":
        return _episode(rng, (3, 5, 4), spread), {"batch_size": 1}
    return _episode(rng, (2, 5, 3), spread), {}  # "sizes": node counts differ by class


@pytest.mark.parametrize("case", ["sizes", "uniform", "zero_rows", "ipm", "batch1"])
def test_fused_sfc_matches_per_pair_loop(case):
    ep, kwargs = _sfc_case(case)
    kwargs = {"iterations": 20, "seed": 2, **kwargs}
    fitted = fit_sfc(ep, **kwargs)
    protos, curve = _reference_fit_sfc(ep, **kwargs)
    assert [p.shape for p in fitted.per_class] == [p.shape for p in protos]
    for got, want in zip(fitted.per_class, protos):
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    assert np.allclose(fitted.loss_curve, curve, rtol=0.0, atol=1e-12)
    if case == "uniform":
        sup = ep.support_by_class()
        wa, wb = cross_reference_weights(sup[0][0], EmbeddingSet(protos[1]))
        assert np.all(wa == wa[0]) and np.all(wb == wb[0])
    if case == "zero_rows":
        assert np.count_nonzero(np.linalg.norm(ep.support[0][1].vectors, axis=1) == 0) == 1


def _per_pick_fit_sfc(ep, learning_rate=0.1, batch_size=5, iterations=100,
                      temperature=0.1, seed=0, solver="simplex"):
    """The per-pick loop the batched fit replaced: one fused step per picked
    support against all prototypes, warm-started per (support, class).
    Returns (prototypes, loss curve, (solves, pivots, warm starts))."""
    groups = ep.support_by_class()
    protos = [np.mean([es.vectors for es in sets], axis=0) for sets in groups]
    starts = metric._starts(protos)
    stacked = np.concatenate(protos)
    rng = np.random.default_rng(seed)
    support = [(label, metric._Stack(es.vectors)) for label, es in ep.support]
    warm, curve = metric._WarmStarts(), []
    for _ in range(iterations):
        picks = rng.integers(0, len(support), size=batch_size)
        ys = metric._Stack(stacked, starts)
        grad, batch_loss = np.zeros_like(stacked), 0.0
        for pick in picks.tolist():
            label, x = support[pick]
            loss, g = metric._fused_step(
                x, ys, lambda sims: _cross_entropy(sims, [label], temperature),
                solver, warm, [pick])
            batch_loss += loss
            grad += g
        curve.append(batch_loss / batch_size)
        stacked -= learning_rate * grad / batch_size
    return np.split(stacked, starts[1:-1]), curve, (warm.solves, warm.pivots, warm.warm)


@pytest.mark.parametrize("case", ["sizes", "uniform", "zero_rows", "ipm", "batch1"])
def test_batched_sfc_matches_per_pick_loop(case):
    """One step per iteration, every pick against every prototype, equals
    one step per pick up to rounding, with the same kernel runs."""
    ep, kwargs = _sfc_case(case)
    kwargs = {"iterations": 20, "seed": 2, **kwargs}
    fitted = fit_sfc(ep, **kwargs)
    protos, curve, counts = _per_pick_fit_sfc(ep, **kwargs)
    for got, want in zip(fitted.per_class, protos, strict=True):
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
    assert np.allclose(fitted.loss_curve, curve, rtol=0.0, atol=1e-12)
    assert (fitted.solves, fitted.pivots, fitted.warm_starts) == counts


def test_support_drawn_twice_restarts_from_its_first_visit(monkeypatch):
    """Seed 2 draws support 2 twice in the first iteration: its second visit
    meets the same prototypes and restarts, warm, from the first's bases."""
    ep, _ = _sfc_case("sizes")
    picks = np.random.default_rng(2).integers(0, len(ep.support), size=5).tolist()
    assert picks[1] == picks[3] and picks.count(picks[1]) == 2
    runs, kernel = [], transport._simplex

    def record(*args, **kwargs):
        runs.append(kernel(*args, **kwargs))
        return runs[-1]
    monkeypatch.setattr(transport, "_simplex", record)
    fitted = fit_sfc(ep, iterations=1, seed=2)
    assert len(runs) == fitted.solves == 5 * ep.n_way
    for c in range(ep.n_way):
        first, second = runs[1 * ep.n_way + c], runs[3 * ep.n_way + c]
        assert not first.warm
        assert second.warm and second.pivots == 0
        assert np.allclose(second.flows, first.flows, rtol=0.0, atol=1e-15)
    assert fitted.warm_starts == ep.n_way


def _reference_episode_loss_and_grad(weight, ep, temperature=0.1, solver="simplex"):
    """One similarity_node_grads call per (query, class) pair."""
    supports = [sets[0] for sets in ep.support_by_class()]
    grad, loss = np.zeros_like(weight), 0.0
    for label, q in ep.query:
        pq = EmbeddingSet(q.vectors @ weight)
        per_class = [similarity_node_grads(pq, EmbeddingSet(s.vectors @ weight), solver=solver)
                     for s in supports]
        q_loss, (d_sims,) = _cross_entropy(np.array([[r[0] for r in per_class]]), [label],
                                           temperature)
        loss += q_loss
        for c, (_, _, g_q, g_s) in enumerate(per_class):
            grad += d_sims[c] * (q.vectors.T @ g_q + supports[c].vectors.T @ g_s)
    return loss / len(ep.query), grad / len(ep.query)


@pytest.mark.parametrize("case", ["sizes", "uniform", "zero_rows", "ipm"])
def test_fused_projection_step_matches_per_pair_loop(case):
    """One fused step per query equals the per-pair loop up to rounding: the
    supports are projected and compared in one stacked product each."""
    ep, kwargs = _sfc_case(case)
    ep = _one_shot(ep)
    solver = kwargs.get("solver", "simplex")
    weight = np.eye(6) + 0.05 * np.random.default_rng(4).standard_normal((6, 6))
    loss, grad = episode_loss_and_grad(weight, ep, solver=solver)
    ref_loss, ref_grad = _reference_episode_loss_and_grad(weight, ep, solver=solver)
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


def test_classify_kshot_rejects_conflicting_sfc_kwargs(separable_col):
    """The fit's solver is classify_kshot's own, and sfc_kwargs serve only sfc."""
    ep = sample_episode(separable_col, 3, 2, 1, seed=0)
    with pytest.raises(ValueError, match="must not set 'solver'"):
        classify_kshot(ep, "sfc", sfc_kwargs={"solver": "ipm", "iterations": 1})
    for method in ("nn", "fusion", "merge", "prototype"):
        with pytest.raises(ValueError, match=f"only to method 'sfc', not '{method}'"):
            classify_kshot(ep, method, sfc_kwargs={"iterations": 1})
    assert classify_kshot(ep, "nn", sfc_kwargs={}) == classify_kshot(ep, "nn")


def test_sfc_counts_its_warm_starts(background_col):
    ep = sample_episode(background_col, 4, 3, 2, seed=9)
    fitted = fit_sfc(ep, iterations=20, seed=1)
    assert fitted.solves == 20 * 5 * 4
    # A (support, class) pair's first visit has no basis to restart from.
    rng = np.random.default_rng(1)
    picked = {int(i) for _ in range(20) for i in rng.integers(0, len(ep.support), size=5)}
    assert 0 < fitted.warm_starts <= fitted.solves - 4 * len(picked)
    assert fitted.pivots < fitted.solves
    assert fit_sfc(ep, iterations=2, solver="ipm").solves == 0


def test_sfc_counts_certified_restarts_as_warm_solves(monkeypatch, background_col):
    """Every solve of the fit is a kernel run or a certified restart; from
    the second iteration on, some restarts skip the kernel.  The trainer's
    step starts cold, so it has nothing to certify and builds no forest."""
    ep = sample_episode(background_col, 4, 3, 2, seed=9)
    calls = counted_calls(monkeypatch, transport, "_simplex")
    steps, certify = [], metric._certified_restarts

    def record(*args):
        done = certify(*args)
        steps.append((len(done), len(calls)))  # before the step's kernel runs
        return done
    monkeypatch.setattr(metric, "_certified_restarts", record)
    fitted = fit_sfc(ep, iterations=3, seed=1)
    certified = [done for done, _ in steps]
    kernel = np.diff([before for _, before in steps] + [len(calls)]).tolist()
    assert len(calls) + sum(certified) == fitted.solves == 3 * 5 * 4
    assert certified[0] == 0 and kernel[0] == 5 * 4
    assert all(runs < 5 * 4 for runs in kernel[1:])
    assert fitted.warm_starts >= sum(certified)

    def refuse(*args):
        raise AssertionError("stacked tree pass on cold solves")
    monkeypatch.setattr(metric, "_Forest", refuse)
    calls.clear()
    steps.clear()
    episode_loss_and_grad(np.eye(ep.support[0][1].channels), _one_shot(ep))
    assert steps == [(0, 0)] and len(calls) == len(ep.query) * ep.n_way


def test_batched_simplex_paths_build_no_transport_problem(monkeypatch, background_col):
    """Only the public entry points certify: with the simplex, the SFC fit,
    the trainer's step and both batched forwards never build a TransportProblem."""
    def refuse(*args, **kwargs):
        raise AssertionError("TransportProblem built")
    ep = sample_episode(background_col, 3, 2, 1, seed=4)
    sets = [es for _, es in ep.support]
    monkeypatch.setattr(metric, "TransportProblem", refuse)
    with pytest.raises(AssertionError, match="TransportProblem built"):
        metric.pair_similarity(sets[0], sets[1])  # the patch is live
    fit_sfc(ep, iterations=3)
    episode_loss_and_grad(np.eye(sets[0].channels), _one_shot(ep))
    metric.similarity_matrix(sets, sets)
    metric.best_match(sets, sets)


def test_kernel_only_ever_sees_the_mass_support(monkeypatch):
    """Every simplex path hands the kernel the mass support alone.  Each set
    of the episode has a zero first row, whose cross-reference weight clamps
    to 0: every kernel call drops it and gets strictly positive supply and
    demand.  Every output stays byte-equal to its reference, but for the
    projection step, whose stacked products keep the existing 1e-12 bound."""
    ep, _ = _sfc_case("zero_rows")
    sets = [es for _, es in ep.support]
    calls = counted_calls(monkeypatch, transport, "_simplex")

    def support_only():
        assert calls
        for cost, supply, demand, *_ in calls:
            assert np.all(supply > 0) and np.all(demand > 0)
            assert cost.shape[0] < sets[0].node_count  # the zero row was dropped
        calls.clear()

    wa, wb = cross_reference_weights(sets[0], sets[1])
    assert wa[0] == wb[0] == 0.0
    p = transport.TransportProblem(cost=metric.cost_matrix(sets[0], sets[1]), supply=wa,
                                   demand=wb)
    sol = transport.solve_simplex(p)
    (cost, supply, demand, *_), = calls
    run = transport._simplex(cost, supply, demand)
    rows, cols = wa > 0, wb > 0
    assert cost.tobytes() == p.cost[rows][:, cols].tobytes()
    assert sol.flows[rows][:, cols].tobytes() == run.flows.tobytes()
    assert not sol.flows[~rows].any() and not sol.flows[:, ~cols].any()
    support_only()

    want = np.array([[metric.pair_similarity(q, r)[0] for r in sets] for q in sets])
    support_only()
    assert similarity_matrix(sets, list(sets)).tobytes() == want.tobytes()
    support_only()
    index, best = metric.best_match(sets, list(sets))
    assert index.tolist() == want.argmax(axis=1).tolist()
    assert best.tobytes() == want.max(axis=1).tobytes()
    support_only()

    kwargs = {"iterations": 10, "seed": 2, "batch_size": 1}
    fitted = fit_sfc(ep, **kwargs)
    support_only()
    protos, curve, counts = _per_pick_fit_sfc(ep, **kwargs)
    support_only()
    assert [p.tobytes() for p in fitted.per_class] == [p.tobytes() for p in protos]
    assert np.array(fitted.loss_curve).tobytes() == np.array(curve).tobytes()
    assert (fitted.solves, fitted.pivots, fitted.warm_starts) == counts

    weight = np.eye(6) + 0.05 * np.random.default_rng(4).standard_normal((6, 6))
    loss, grad = episode_loss_and_grad(weight, _one_shot(ep))
    support_only()
    ref_loss, ref_grad = _reference_episode_loss_and_grad(weight, _one_shot(ep))
    support_only()
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


@pytest.mark.parametrize("label", [-1, 2])
def test_episode_label_out_of_range(label):
    es = EmbeddingSet(np.ones((1, 2)))
    with pytest.raises(ValueError, match=f"label {label} outside \\[0, 2\\)"):
        Episode(n_way=2, k_shot=1, q_per_class=1, support=[(0, es), (label, es)],
                query=[(0, es), (1, es)])


@pytest.mark.parametrize("train", [
    lambda col: fit_sfc(sample_episode(col, 5, 2, 1, seed=0), iterations=3),
    lambda col: train_projection(col, epochs=3),
])
def test_non_finite_step_loss_diverges(separable_col, monkeypatch, train):
    """A step loss that is not finite stops the fit or the trainer at that
    step with DivergenceError."""
    monkeypatch.setattr(fewshot, "_cross_entropy",
                        lambda sims, labels, temperature: (np.nan, np.zeros_like(sims)))
    with pytest.raises(DivergenceError, match="diverged at iteration 0") as info:
        train(separable_col)
    assert info.value.iteration == 0


def test_train_projection_on_an_empty_collection():
    with pytest.raises(InsufficientDataError, match="empty collection"):
        train_projection(LabeledSetCollection(), epochs=1)


def test_mean_ci95_of_nothing_is_nan():
    mean, ci = mean_ci95([])
    assert np.isnan(mean) and np.isnan(ci)
