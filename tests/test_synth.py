import numpy as np
import pytest

from emdflow.synth import SynthSpec, generate


def test_shapes_and_labels():
    spec = SynthSpec(class_count=4, sets_per_class=3, spatial=(2, 3), channels=8, seed=0)
    col = generate(spec)
    assert col.class_count == 4
    assert len(col.sets) == 12
    for label, tensor in col.sets:
        assert tensor.shape == (2, 3, 8)
    assert [len(v) for v in col.by_class().values()] == [3, 3, 3, 3]


def test_deterministic_bitwise():
    spec = SynthSpec(seed=5, background_fraction=0.5, background_scale=2.0)
    c1, c2 = generate(spec), generate(spec)
    for (la, ta), (lb, tb) in zip(c1.sets, c2.sets):
        assert la == lb
        assert np.array_equal(ta.data, tb.data)


def test_seed_changes_data():
    a = generate(SynthSpec(seed=1))
    b = generate(SynthSpec(seed=2))
    assert not np.array_equal(a.sets[0][1].data, b.sets[0][1].data)


def test_class_mean_separation():
    spec = SynthSpec(class_count=5, sets_per_class=50, spatial=(2, 2),
                     channels=16, cluster_sep=6.0, seed=3)
    col = generate(spec)
    means = []
    for cls, tensors in col.by_class().items():
        nodes = np.concatenate([t.as_array().reshape(-1, 16) for t in tensors])
        means.append(nodes.mean(axis=0))
    for i in range(5):
        for j in range(i + 1, 5):
            d = np.linalg.norm(means[i] - means[j])
            assert d == pytest.approx(6.0, rel=0.1)


def test_background_fraction_zero_keeps_unit_noise():
    spec = SynthSpec(class_count=2, sets_per_class=100, spatial=(2, 2),
                     channels=8, cluster_sep=0.0, seed=4)
    col = generate(spec)
    nodes = np.concatenate([t.as_array().reshape(-1, 8) for _, t in col.sets])
    assert nodes.std() == pytest.approx(1.0, rel=0.05)


def test_background_scale_inflates_spread():
    base = SynthSpec(class_count=2, sets_per_class=50, spatial=(2, 2),
                     channels=8, cluster_sep=0.0, seed=5)
    loud = SynthSpec(class_count=2, sets_per_class=50, spatial=(2, 2),
                     channels=8, cluster_sep=0.0, background_fraction=0.5,
                     background_scale=5.0, seed=5)
    s_base = np.concatenate([t.data for _, t in generate(base).sets]).std()
    s_loud = np.concatenate([t.data for _, t in generate(loud).sets]).std()
    assert s_loud > 2 * s_base


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        SynthSpec(background_fraction=1.0)
    with pytest.raises(ValueError):
        SynthSpec(class_count=0)
    with pytest.raises(ValueError):
        SynthSpec(class_count=10, channels=4)
    with pytest.raises(ValueError):
        SynthSpec(spatial=(0, 3))
    for field in ("cluster_sep", "background_scale"):
        for value in (np.nan, np.inf, -np.inf, -1.0):
            with pytest.raises(ValueError, match="must be finite and >= 0"):
                SynthSpec(**{field: value})
