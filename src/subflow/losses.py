"""Training objective stack for scene stylization.

Rendered views of the stylized scene are produced through the frozen
per-tile compositing weight blocks of each camera (`tile_matmul`), so every
loss below is differentiable with respect to the decoder parameters without
touching the rasterizer:

  content      MSE of deepest encoder-tap features vs the content render
  style        sum over taps of squared channel mean/std gaps to the style
  observation  sum over all taps of squared feature gaps to a 2D-stylized
               prior image of the same view
  suppression  adversarial signal from a shared-weight multi-scale
               discriminator separating the prior from the render

The 2D prior generator is the classic AdaIN pipeline in the pseudo encoder's
feature space, with its decoder pre-trained once per encoder seed by image
reconstruction on procedural textures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diffcore import Adam, Conv2dLayer, Tensor, conv_shapes
from .diffcore import tensor as dt
from .diffcore.rng import named_stream
from .encoders import FeatureEncoders, _chw, procedural_texture
from .errors import ShapeError
from .rasterizer import TileWeights
from .rasterizer import attribute_weights, render  # noqa: F401  wrapped by perfbench
from .scene import GaussianScene
from .transfer import DecoderNet, StyleStats, adain

LOG_CLAMP = 1e-7
GENERATOR_TAP = 1   # AdaIN space of the 2D prior: second tap (half resolution)
DISC_SCALES = 3     # discriminator image scales, each half the previous
DISC_WIDTH = 16     # discriminator hidden channels
DECODER2D_LR = 2e-3  # Adam step of the 2D decoder's reconstruction pre-training


@dataclass(frozen=True)
class LossWeights:
    lambda_style: float = 10.0
    lambda_obs: float = 0.5
    suppression_weight: float = 0.05

    def __post_init__(self):
        vals = (self.lambda_style, self.lambda_obs, self.suppression_weight)
        if any((not np.isfinite(v)) or v < 0 for v in vals):
            raise ShapeError(f"loss weights must be finite and >= 0, got {vals}")

    @property
    def uses_prior(self) -> bool:
        """Whether a term reads the 2D prior image: observation or suppression."""
        return self.lambda_obs > 0 or self.suppression_weight > 0


def _spatial_mean_std(tap: Tensor) -> tuple[Tensor, Tensor]:
    c = tap.data.shape[0]
    flat = dt.reshape(tap, (c, -1))
    mu = dt.tmean(flat, axis=1)
    centered = dt.sub(flat, dt.tmean(flat, axis=1, keepdims=True))
    var = dt.tmean(dt.mul(centered, centered), axis=1)
    return mu, dt.sqrt(dt.add(var, 1e-12))


def content_loss(render_stylized, render_content, encoders: FeatureEncoders) -> Tensor:
    """MSE between deepest-tap features of the two views."""
    a, b = _chw(render_stylized), _chw(render_content)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"content_loss: resolutions differ {a.data.shape} vs {b.data.shape}")
    return dt.mse(encoders.tap_features(a)[-1], encoders.tap_features(b)[-1])


def style_loss(render_stylized, ref_tap_stats: Sequence[tuple[np.ndarray, np.ndarray]],
               encoders: FeatureEncoders) -> Tensor:
    """Sum over taps of squared channel-statistic gaps to the reference."""
    img = _chw(render_stylized)
    taps = encoders.tap_features(img)
    if len(ref_tap_stats) != len(taps):
        raise ShapeError(f"style_loss: reference covers {len(ref_tap_stats)} taps, "
                         f"encoder has {len(taps)}")
    total = None
    for tap, (mu_ref, sigma_ref) in zip(taps, ref_tap_stats):
        mu, sigma = _spatial_mean_std(tap)
        dmu = dt.sub(mu, Tensor(np.asarray(mu_ref, dtype=np.float32)))
        dsig = dt.sub(sigma, Tensor(np.asarray(sigma_ref, dtype=np.float32)))
        term = dt.add(dt.tsum(dt.mul(dmu, dmu)), dt.tsum(dt.mul(dsig, dsig)))
        total = term if total is None else dt.add(total, term)
    return total


def observation_loss(i_g, i_f, encoders: FeatureEncoders) -> Tensor:
    """Sum over all taps of mean squared feature differences."""
    a, b = _chw(i_g), _chw(i_f)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"observation_loss: resolutions differ {a.data.shape} vs {b.data.shape}")
    total = None
    for fa, fb in zip(encoders.tap_features(a), encoders.tap_features(b)):
        term = dt.mse(fa, fb)
        total = term if total is None else dt.add(total, term)
    return total


# -- 2D generator prior -------------------------------------------------------------

class Decoder2D:
    """Upsampling conv decoder from tap-1 feature maps back to an RGB image.
    `params`, arrays of the shapes `Decoder2D.shapes(channels)` (checked by
    the caller, who knows their file), stand in for the Glorot init."""

    def __init__(self, channels: int = 16, seed: int = 0,
                 params: Sequence[np.ndarray] | None = None):
        c1, c2 = (None, None) if params is None else (params[:2], params[2:])
        self.conv1 = Conv2dLayer(channels, channels, k=3, stride=1, padding=1,
                                 seed=seed, name="dec2d.c1", params=c1)
        self.conv2 = Conv2dLayer(channels, 3, k=3, stride=1, padding=1,
                                 seed=seed, name="dec2d.c2", params=c2)

    @staticmethod
    def shapes(channels: int) -> list[tuple[int, ...]]:
        """Parameter shapes of a `Decoder2D` over `channels`, in `parameters()` order."""
        return conv_shapes(channels, channels, 3) + conv_shapes(channels, 3, 3)

    def parameters(self):
        return self.conv1.parameters() + self.conv2.parameters()

    def forward(self, feats: Tensor) -> Tensor:
        h = dt.upsample2x(feats)
        h = dt.relu(self.conv1(h))
        return dt.sigmoid(self.conv2(h))

    def decode(self, feats: np.ndarray) -> np.ndarray:
        out = self.forward(Tensor(feats)).data
        return np.transpose(out, (1, 2, 0))


def train_decoder2d(encoders: FeatureEncoders, corpus: int = 200, steps: int = 2000,
                    seed: int = 0, size: int = 64) -> Decoder2D:
    """Pre-train the 2D decoder by reconstruction on procedural textures."""
    dec = Decoder2D(channels=encoders.tap_widths[GENERATOR_TAP], seed=seed)
    feats = []
    targets = []
    for i in range(corpus):
        img = procedural_texture(seed, i, size=size)
        feats.append(encoders.tap_features(img)[GENERATOR_TAP].data)
        targets.append(np.transpose(img, (2, 0, 1)))
    opt = Adam(dec.parameters(), lr=DECODER2D_LR)
    g = named_stream(seed, "decoder2d.batches")
    for _ in range(steps):
        i = int(g.integers(0, corpus))
        opt.step(dt.mse(dec.forward(Tensor(feats[i])), Tensor(targets[i])))
    return dec


def generator_2d(content_img: np.ndarray, style_stats: tuple[np.ndarray, np.ndarray],
                 encoders: FeatureEncoders, decoder2d: Decoder2D) -> np.ndarray:
    """2D AdaIN prior: re-normalize content tap features to the style image's
    channel (mean, std) at `GENERATOR_TAP`, `style_stats`, and decode.
    Deterministic given the trained decoder."""
    f = encoders.tap_features(content_img)[GENERATOR_TAP].data
    mu_s, sigma_s = style_stats
    c = f.shape[0]
    flat = f.reshape(c, -1).T                       # (HW, C): rows are positions
    moved = adain(flat, StyleStats(mu_s, sigma_s)).values
    f_hat = moved.T.reshape(f.shape)
    return decoder2d.decode(f_hat)


# -- suppression: multi-scale discriminator -----------------------------------------------

class DiscriminatorNet:
    """Shared conv stack scored at several image scales (sigmoid scalars)."""

    def __init__(self, seed: int = 0):
        w = DISC_WIDTH
        self.layers = [
            Conv2dLayer(3, w, k=3, stride=2, padding=1, seed=seed, name="disc.c0"),
            Conv2dLayer(w, w, k=3, stride=2, padding=1, seed=seed, name="disc.c1"),
            Conv2dLayer(w, 1, k=3, stride=1, padding=1, seed=seed, name="disc.c2"),
        ]

    def parameters(self):
        out = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out

    def score_scales(self, image) -> list[Tensor]:
        """One sigmoid scalar per scale, strictly inside (0, 1)."""
        h = _chw(image)
        scores = []
        for s in range(DISC_SCALES):
            f = h
            for i, layer in enumerate(self.layers):
                f = layer(f)
                if i < len(self.layers) - 1:
                    f = dt.relu(f)
            scores.append(dt.sigmoid(dt.tmean(f)))
            if s < DISC_SCALES - 1:
                h = dt.avg_pool2d(h)
        return scores


def suppression_loss(i_g, i_f, disc: DiscriminatorNet) -> tuple[Tensor, Tensor]:
    """(discriminator loss, generator signal) from the prior/render pair.

    disc_loss = -mean_scales[ log eta(I_g) + log(1 - eta(I_f)) ]  (ascent as
    descent). gen_signal = -mean_scales log eta(I_f), the non-saturating form
    that pushes the decoder toward the prior's verdict. Both read one scoring
    of I_f; each optimizer backprops only into its own parameters.
    """
    scores_g = disc.score_scales(i_g)
    scores_f = disc.score_scales(_chw(i_f))

    def clamped_log(t: Tensor) -> Tensor:
        return dt.log(dt.clamp(t, LOG_CLAMP, 1.0 - LOG_CLAMP))

    def neg_mean(terms: list[Tensor]) -> Tensor:
        return dt.mul(dt.tmean(dt.concat([dt.reshape(t, (1,)) for t in terms])), -1.0)

    disc_loss = neg_mean([dt.add(clamped_log(sg), clamped_log(dt.sub(1.0, sf)))
                          for sg, sf in zip(scores_g, scores_f)])
    return disc_loss, neg_mean([clamped_log(sf) for sf in scores_f])


# -- stylization training loop -----------------------------------------------------------------

LOG_COLUMNS = ("step", "content", "style", "obs", "sup_disc", "sup_gen", "total")


def train_stylization(scene: GaussianScene, views: Sequence[TileWeights],
                      style_img: np.ndarray, style: StyleStats, decoder: DecoderNet,
                      encoders: FeatureEncoders, weights: LossWeights,
                      steps: int, decoder2d: Decoder2D | None, seed: int = 0,
                      lr: float = 1e-3):
    """Alternating decoder/discriminator updates on rendered views.

    `views` holds each training camera's frozen weights and content image,
    as `attribute_weights` gives them or a `WeightsFile` reads them back.
    `style` is the AdaIN target of the scene's embeddings (the statistics of
    `style_img`'s aligned feature); the style loss reads `style_img` itself.
    Per step, one camera is drawn; the stylized view is composed through its
    weights from the decoder's current colors. The decoder descends content
    + style, plus the observation term when `weights.lambda_obs > 0` and the
    suppression signal when `weights.suppression_weight > 0`; only in that
    last case is there a discriminator, which then descends its own
    separation loss. A skipped term logs 0, and `decoder2d` (None when
    `weights.uses_prior` is false) renders the 2D prior only for the terms
    that read it. Each row's `total` is content + lambda_style*style +
    lambda_obs*obs.
    Returns (decoder, one dict per step keyed by `LOG_COLUMNS`).
    """
    h, w = views[0].rgb.shape[:2]
    moved = Tensor(adain(scene.embeddings, style).values)
    ref_tap_stats = encoders.tap_stats(style_img)

    cam_data = []
    for tiles in views:
        if tiles.rgb.shape[:2] != (h, w):
            raise ShapeError("training cameras must share one resolution")
        i_g = (generator_2d(tiles.rgb, ref_tap_stats[GENERATOR_TAP], encoders, decoder2d)
               if weights.uses_prior else None)
        cam_data.append((tiles.blocks, tiles.rgb, i_g))

    disc = DiscriminatorNet(seed=seed) if weights.suppression_weight > 0 else None
    opt_dec = Adam(decoder.parameters(), lr=lr)
    opt_disc = Adam(disc.parameters(), lr=lr) if disc is not None else None
    g = named_stream(seed, "styletrain.cams")
    log = []

    for step in range(steps):
        blocks, content_rgb, i_g = cam_data[int(g.integers(0, len(cam_data)))]
        colors = decoder.forward(moved)                       # (N, 3)
        i_f = dt.reshape(dt.transpose(dt.tile_matmul(blocks, h * w, colors)), (3, h, w))

        c_loss = content_loss(i_f, content_rgb, encoders)
        s_loss = style_loss(i_f, ref_tap_stats, encoders)
        row = {"step": step, "content": c_loss.item(), "style": s_loss.item(), "obs": 0.0,
               "sup_disc": 0.0, "sup_gen": 0.0}
        objective = dt.add(c_loss, dt.mul(s_loss, weights.lambda_style))
        if weights.lambda_obs > 0:
            o_loss = observation_loss(i_g, i_f, encoders)
            row["obs"] = o_loss.item()
            objective = dt.add(objective, dt.mul(o_loss, weights.lambda_obs))
        if disc is not None:
            disc_loss, gen_signal = suppression_loss(i_g, i_f, disc)
            row["sup_disc"], row["sup_gen"] = disc_loss.item(), gen_signal.item()
            objective = dt.add(objective, dt.mul(gen_signal, weights.suppression_weight))
        opt_dec.step(objective)
        if disc is not None:
            opt_disc.step(disc_loss)
        row["total"] = (row["content"] + weights.lambda_style * row["style"]
                        + weights.lambda_obs * row["obs"])
        log.append(row)
    return decoder, log
