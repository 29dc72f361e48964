"""Per-Gaussian color stylization.

The scene carries a frozen color embedding per Gaussian. Styling is a pure
statistics transfer: embeddings are re-normalized channel-wise (AdaIN) to
match the target style statistics and decoded back to RGB by a small shared
net. Geometry, opacity, and the embeddings themselves never change, so any
two views of a stylized scene differ only by rasterization.

Style statistics live in the embedding dimension. A style-domain vector
(twice that length) yields them by the split convention: first half is the
mean, softplus of the second half is the (floored) standard deviation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .diffcore import Adam, DenseNet, Tensor
from .diffcore import tensor as dt
from .diffcore.rng import named_stream
from .encoders import FeatureEncoders
from .errors import ShapeError
from .rasterizer import TileWeights
from .rasterizer import attribute_weights, render  # noqa: F401  wrapped by perfbench
from .scene import GaussianScene

EPSILON_STD = 1e-6
PROJECTION_WEIGHT = 0.2   # weight of distillation objective (b) against (a)


@dataclass
class StyleStats:
    mu: np.ndarray       # (D,)
    sigma: np.ndarray    # (D,) floored at EPSILON_STD

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float32).reshape(-1)
        self.sigma = np.maximum(np.asarray(self.sigma, dtype=np.float32).reshape(-1),
                                EPSILON_STD)
        if self.mu.shape != self.sigma.shape:
            raise ShapeError(f"style stats mu/sigma shapes differ: "
                             f"{self.mu.shape} vs {self.sigma.shape}")

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


@dataclass
class AdainResult:
    values: np.ndarray            # (N, D)
    degenerate: np.ndarray        # (D,) bool; channels whose content std was ~0


def adain(embeddings: np.ndarray, style: StyleStats) -> AdainResult:
    """Channel-wise renormalization of the embedding population.

    out = sigma_style * (e - mu_content) / sigma_content + mu_style, with the
    content statistics taken over the N rows (population std). Channels with
    zero content spread are flagged and use the epsilon floor instead.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    if e.ndim != 2 or e.shape[0] < 2:
        raise ShapeError(f"adain needs (N>=2, D) embeddings, got {e.shape}")
    if e.shape[1] != style.dim:
        raise ShapeError(f"adain: embedding dim {e.shape[1]} != style dim {style.dim}")
    mu_c = e.mean(axis=0)
    sigma_c = e.std(axis=0)
    degenerate = sigma_c < EPSILON_STD
    sigma_c = np.maximum(sigma_c, EPSILON_STD)
    out = style.sigma.astype(np.float64) * (e - mu_c) / sigma_c + style.mu.astype(np.float64)
    return AdainResult(values=out.astype(np.float32), degenerate=degenerate)


def stats_from_feature(x: np.ndarray) -> StyleStats:
    """Style statistics from one style-domain vector: split into halves, the
    second half through softplus for positivity."""
    vec = np.asarray(x, dtype=np.float64).reshape(-1)
    if vec.size % 2:
        raise ShapeError(f"style-domain vector length {vec.size} must be even to split")
    half = vec.size // 2
    sigma = np.logaddexp(0.0, vec[half:])  # softplus
    return StyleStats(vec[:half], sigma)


class DecoderNet:
    """Shared per-Gaussian decoder: embedding rows -> RGB in [0,1] via sigmoid.
    `forward` is taped for training, `decode` evaluates arrays. `params` are a
    checkpoint's arrays, as `DenseNet` takes them."""

    def __init__(self, embed_dim: int, hidden: tuple[int, ...] = (64,), seed: int = 0,
                 params: Sequence[np.ndarray] | None = None):
        self.net = DenseNet((embed_dim, *hidden, 3), "relu", seed, name="decoder",
                            params=params)

    def parameters(self):
        return self.net.parameters()

    def forward(self, embeddings) -> Tensor:
        return dt.sigmoid(self.net(embeddings))

    def decode(self, embeddings: np.ndarray) -> np.ndarray:
        return dt.sigmoid(self.net.infer(embeddings)).data


@dataclass
class DistillReport:
    reconstruction_mse: float
    projection_mse_first: float
    projection_mse_last: float


def initial_embeddings(colors: np.ndarray, embed_dim: int) -> np.ndarray:
    """Deterministic color-derived init: equal colors give equal embeddings."""
    reps = int(np.ceil(embed_dim / 3))
    tiled = np.tile(np.asarray(colors, dtype=np.float32) - 0.5, (1, reps))
    return np.ascontiguousarray(tiled[:, :embed_dim])


def _projection_target(weights: TileWeights, encoders: FeatureEncoders, proj: np.ndarray):
    """(blocks cut to the well-covered pixels, their target) of one camera,
    or None when it sees nothing: the first encoder tap of its content image
    through `proj`, scaled to unit spread over those pixels."""
    coverage = weights.alpha_mask.reshape(-1)
    covered = coverage > 0.6
    if covered.sum() < 16:
        covered = coverage > 0.0
    if covered.sum() == 0:
        return None
    tap0 = encoders.tap_features(weights.rgb)[0].data      # (C, H, W)
    target = tap0.reshape(tap0.shape[0], -1).T @ proj.T    # (H*W, D)
    scale = max(float(target[covered].std()), 1e-6)
    return weights.select_rows(covered), Tensor(target[covered] / scale)


def distill_embeddings(scene: GaussianScene, views: Iterable[TileWeights],
                       encoders: FeatureEncoders, steps: int = 800,
                       seed: int = 0, lr: float = 5e-3,
                       decoder_hidden: tuple[int, ...] = (64,)):
    """Train per-Gaussian embeddings plus the decoder, then freeze embeddings.

    Two objectives: (a) the decoder reproduces each Gaussian's own color from
    its embedding; (b) rendered embedding maps track a fixed projection of
    the first encoder tap of the rendered content image on well-covered
    pixels, rendered through the frozen weight blocks cut to those rows.
    `views` holds each training camera's `attribute_weights`; it is taken one
    camera at a time and only the cut blocks are kept.
    """
    d = scene.embed_dim
    embed = Tensor(initial_embeddings(scene.colors, d), requires_grad=True)
    decoder = DecoderNet(d, hidden=decoder_hidden, seed=seed)
    colors_t = Tensor(scene.colors)

    proj = named_stream(seed, "distill.tap_proj").standard_normal(
        (d, encoders.tap_widths[0])).astype(np.float32)
    proj /= np.linalg.norm(proj, axis=1, keepdims=True)
    # `map` holds no camera's weights while the next one is made
    cam_data = list(map(lambda weights: _projection_target(weights, encoders, proj), views))
    if not cam_data:
        raise ShapeError("distill_embeddings needs at least one camera")

    opt = Adam([embed] + decoder.parameters(), lr=lr)
    g = named_stream(seed, "distill.cams")
    proj_first = proj_last = float("nan")
    for step in range(steps):
        pick = cam_data[int(g.integers(0, len(cam_data)))]
        loss = dt.mse(decoder.forward(embed), colors_t)
        if pick is not None:
            blocks, target = pick
            loss_b = dt.mse(dt.tile_matmul(blocks, target.data.shape[0], embed), target)
            loss = dt.add(loss, dt.mul(loss_b, PROJECTION_WEIGHT))
            if np.isnan(proj_first):
                proj_first = loss_b.item()
            proj_last = loss_b.item()
        opt.step(loss)

    final_embed = embed.data.copy()
    recon_mse = float(((decoder.decode(final_embed) - scene.colors) ** 2).mean())
    report = DistillReport(reconstruction_mse=recon_mse,
                           projection_mse_first=proj_first,
                           projection_mse_last=proj_last)
    return scene.with_embeddings(final_embed), decoder, report


def stylize_scene(scene: GaussianScene, style: StyleStats,
                  decoder: DecoderNet) -> GaussianScene:
    """Replace colors by decode(adain(embeddings)); geometry is untouched."""
    transferred = adain(scene.embeddings, style)
    colors = decoder.decode(transferred.values)
    return scene.with_colors(colors)
