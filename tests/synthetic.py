"""Synthetic test data: (image, caption) concept pairs and paired mixtures.

The CLIP-like encoder is dominated by a linear functional of an 8x8
block-mean grid plus a small bounded conv refinement. That makes the
image/caption pair generator constructive: given a caption embedding it can
solve for an image whose encoding lands near it, which is what real CLIP's
shared text-image space provides and what alignment tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from subflow.diffcore.rng import named_stream
from subflow.encoders import _CLIP_GRID, FeatureEncoders, FeatureSet
from subflow.errors import ShapeError


class ConceptPairGenerator:
    """Emits (64x64 image, caption) pairs sharing a latent concept embedding.

    The caption is a single synthetic token; the image is solved from the
    caption's embedding through the encoder's dominant linear path, so
    cosine(encode_text([caption]), encode_clip_like([image])) is high by
    construction.
    """

    def __init__(self, encoders: FeatureEncoders):
        self.enc = encoders
        self._a = encoders._clip_proj.astype(np.float64)
        self._pinv = np.linalg.pinv(self._a)

    def pair(self, index: int) -> tuple[np.ndarray, str]:
        caption = f"concept{index:04d}"
        target = self.enc.encode_text([caption]).vectors[0].astype(np.float64)
        base = np.full(3 * _CLIP_GRID * _CLIP_GRID, 0.5)
        img = _grid_image(base)
        for _ in range(2):
            # aim the linear path at the target, correcting for the bounded
            # refinement term measured on the previous iterate
            residual = (target + self.enc._clip_center
                        - self.enc._clip_refine_vec(img) - self._a @ base)
            delta = self._pinv @ residual
            scale = min(1.0, 0.45 / max(np.abs(delta).max(), 1e-9))
            img = _grid_image(np.clip(base + delta * scale, 0.0, 1.0))
        return img, caption


def _grid_image(grid_flat: np.ndarray) -> np.ndarray:
    grid = grid_flat.reshape(_CLIP_GRID, _CLIP_GRID, 3)
    reps = 64 // _CLIP_GRID
    img = np.repeat(np.repeat(grid, reps, axis=0), reps, axis=1)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


@dataclass
class MixtureSpec:
    means: np.ndarray          # (K, dim)
    covariances: np.ndarray    # (K, dim, dim) SPD
    weights: np.ndarray        # (K,) sums to 1

    def __post_init__(self):
        self.means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        self.covariances = np.asarray(self.covariances, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if abs(self.weights.sum() - 1.0) > 1e-9 or np.any(self.weights < 0):
            raise ShapeError("mixture weights must be non-negative and sum to 1")
        if np.any(np.linalg.eigvalsh(self.covariances) <= 0):
            raise ShapeError("mixture covariances must be SPD")

    @staticmethod
    def isotropic(means, sigma: float, weights=None) -> "MixtureSpec":
        means = np.atleast_2d(np.asarray(means, dtype=np.float64))
        k, dim = means.shape
        covs = np.tile((sigma ** 2) * np.eye(dim), (k, 1, 1))
        return MixtureSpec(means, covs, np.full(k, 1.0 / k) if weights is None else weights)


@dataclass
class PairedDistributionSpec:
    clip_side: MixtureSpec
    vgg_side: MixtureSpec
    seed: int = 0


def sample_paired(spec: PairedDistributionSpec, m: int) -> tuple[FeatureSet, FeatureSet]:
    """Draw m paired rows (clip-side, vgg-side).

    One shared (component, normal) latent goes through both sides, so
    identical side specs give identical rows.
    """
    if m < 1:
        raise ShapeError(f"sample_paired needs m >= 1, got {m}")
    g = named_stream(spec.seed, "paired-sampler")
    comps = g.choice(spec.clip_side.weights.shape[0], size=m, p=spec.clip_side.weights)
    z = g.standard_normal((m, spec.clip_side.means.shape[1]))
    vgg_comps = comps % spec.vgg_side.means.shape[0]
    return (FeatureSet("clip_like", _push(spec.clip_side, comps, z)),
            FeatureSet("vgg_like", _push(spec.vgg_side, vgg_comps, z)))


def _push(side: MixtureSpec, comps: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Rows mean[c] + chol(cov[c]) @ z for each component index c and normal row z."""
    chol = np.linalg.cholesky(side.covariances)[comps]
    return side.means[comps] + np.einsum("mij,mj->mi", chol, z)
