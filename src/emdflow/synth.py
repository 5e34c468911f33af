"""Deterministic synthetic embedding collections.

Each generated set is an H x W x C feature map whose cells mix a class
cluster (mean separated across classes, unit spread) with a shared
background distribution, so class-discriminative nodes coexist with
clutter the weighting mechanism can learn to suppress.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_io import DenseTensor, LabeledSetCollection


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for one synthetic collection."""

    class_count: int = 5
    sets_per_class: int = 20
    spatial: tuple = (3, 3)
    channels: int = 16
    cluster_sep: float = 4.0
    background_fraction: float = 0.0
    background_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.class_count < 1 or self.sets_per_class < 1 or self.channels < 1:
            raise ValueError("counts must be >= 1")
        h, w = self.spatial
        if h < 1 or w < 1:
            raise ValueError("spatial extent must be >= 1 in both axes")
        if not (0 <= self.background_fraction < 1):
            raise ValueError("background_fraction must lie in [0, 1)")
        if not all(np.isfinite(v) and v >= 0 for v in (self.cluster_sep, self.background_scale)):
            raise ValueError("cluster_sep and background_scale must be finite and >= 0")
        if self.channels < self.class_count:
            raise ValueError(
                f"need channels >= class_count for orthogonal class means "
                f"({self.channels} < {self.class_count})"
            )
        object.__setattr__(self, "spatial", (int(h), int(w)))


def generate(spec: SynthSpec) -> LabeledSetCollection:
    """Build the collection described by ``spec``, deterministic under seed.

    Class means are mutually orthogonal with pairwise distance exactly
    ``cluster_sep`` (in units of the unit per-cell spread).  A
    ``background_fraction`` share of each map's cells is drawn instead
    from a zero-mean distribution scaled by ``background_scale`` that is
    identical for every class.
    """
    rng = np.random.default_rng(spec.seed)
    h, w = spec.spatial
    cells = h * w
    # Orthonormal directions scaled so |mu_a - mu_b| = cluster_sep.
    basis, _ = np.linalg.qr(rng.standard_normal((spec.channels, spec.class_count)))
    means = basis.T * (spec.cluster_sep / np.sqrt(2.0))
    n_background = int(round(spec.background_fraction * cells))

    sets = []
    for label in range(spec.class_count):
        for _ in range(spec.sets_per_class):
            flat = means[label] + rng.standard_normal((cells, spec.channels))
            if n_background:
                pos = rng.choice(cells, size=n_background, replace=False)
                flat[pos] = spec.background_scale * rng.standard_normal(
                    (n_background, spec.channels))
            tensor = DenseTensor.from_array(flat.reshape(h, w, spec.channels))
            sets.append((label, tensor))
    return LabeledSetCollection(sets=tuple(sets), class_count=spec.class_count)
