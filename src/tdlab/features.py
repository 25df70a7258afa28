"""Linear feature maps over a finite state space and their weighted geometry.

The stationary distribution supplies a diagonal weight matrix; features
span the approximation subspace; the projection onto that subspace is
orthogonal in the weighted inner product.  The scalar that controls
everything downstream is the feature gain: the largest singular value of
the square-root-weighted feature matrix, equivalently the operator norm
from weight space into the weighted state norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .markov import StationaryDistribution

RANK_RTOL = 1e-10


@dataclass(frozen=True)
class FeatureMap:
    """An s-by-d feature matrix whose row i is the feature vector of state i."""

    Phi: np.ndarray

    @property
    def n_states(self) -> int:
        return self.Phi.shape[0]

    @property
    def n_features(self) -> int:
        return self.Phi.shape[1]


def build_features(Phi: np.ndarray) -> FeatureMap:
    """Validate and wrap a feature matrix.

    Columns must be linearly independent; the rank test is scale-invariant:
    the smallest singular value must exceed ``RANK_RTOL`` times the largest.
    """
    Phi = np.asarray(Phi, dtype=float)
    if Phi.ndim != 2:
        raise ValidationError(f"feature matrix must be 2-D, got shape {Phi.shape}")
    s, d = Phi.shape
    if d < 1 or s < d:
        raise ValidationError(f"need n_states >= n_features >= 1, got shape {Phi.shape}")
    if not np.all(np.isfinite(Phi)):
        raise ValidationError("feature matrix has non-finite entries")
    sv = np.linalg.svd(Phi, compute_uv=False)
    if sv[-1] <= RANK_RTOL * sv[0]:
        raise ValidationError(
            f"feature columns are rank deficient: singular values {sv[0]:.3e} .. {sv[-1]:.3e}"
        )
    return FeatureMap(Phi=Phi)


def feature_gain(features: FeatureMap, stationary: StationaryDistribution) -> float:
    """Largest singular value of the square-root-weighted feature matrix.

    Equals the square root of the largest eigenvalue of the weighted Gram
    matrix, and the maximum over nonzero x of ``||Phi x||_weighted / ||x||``.
    """
    gram = weighted_gram(features, stationary)
    return float(np.sqrt(np.linalg.eigvalsh(gram)[-1]))


def weighted_gram(features: FeatureMap, stationary: StationaryDistribution) -> np.ndarray:
    """The d-by-d weighted Gram matrix of the features."""
    Phi = features.Phi
    return Phi.T @ (stationary.pi[:, None] * Phi)


def scaling_threshold(gamma: float) -> float:
    """The feature-gain level below which the averaged update map contracts."""
    if not 0.0 < gamma < 1.0:
        raise ValidationError(f"discount factor must lie in (0, 1), got {gamma}")
    return math.sqrt(2.0 * (1.0 - gamma)) / (1.0 + gamma)


@dataclass(frozen=True)
class AssumptionReport:
    """Verdict of the feature-scaling check.

    ``satisfied`` is the sharp test (gain strictly below the threshold);
    ``row_condition_satisfied`` is the simpler sufficient test on per-state
    feature norms, which implies the sharp one but not conversely.
    ``rescaling_factor`` is the supremal multiplier that would make a
    failing feature matrix pass.
    """

    feature_gain: float
    threshold: float
    satisfied: bool
    max_row_norm: float
    row_condition_satisfied: bool
    rescaling_factor: float


def check_assumption(
    features: FeatureMap, stationary: StationaryDistribution, gamma: float
) -> AssumptionReport:
    """Run both scaling tests and report the verdict (never raises)."""
    gain = feature_gain(features, stationary)
    threshold = scaling_threshold(gamma)
    max_row = float(np.max(np.linalg.norm(features.Phi, axis=1)))
    return AssumptionReport(
        feature_gain=gain,
        threshold=threshold,
        satisfied=gain < threshold,
        max_row_norm=max_row,
        row_condition_satisfied=max_row < threshold,
        rescaling_factor=threshold / gain if gain > 0 else math.inf,
    )
