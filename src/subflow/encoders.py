"""Feature domains: style-statistics (VGG-like), image/text embedding
(CLIP-like), and the FEAT import bridge.

Both pseudo encoders are frozen seeded conv stacks; they stand in for the
heavyweight pretrained networks so the whole pipeline runs in seconds. Real
features computed externally enter through `import_features`.

A domain's layers and projections are built the first time it encodes, and
it is centered on a fixed batch of procedural textures the first time it
calibrates, from the weights at that moment. So a command pays only for the
domains it uses: text needs neither, an image only the CLIP-like ones. The
pipeline's encoders are frozen, so the moment does not matter to it.

The CLIP-like calibration (the center and the text-embedding norm) depends
only on the seed, `clip_dim` and the frozen weights. `train-flow` computes it
and saves it with the pipeline (`clip_center.prms` and the manifest's
`text_norm`); `stylize` and `train-style` read it from there and hand it to
the constructor, so they never calibrate that domain.

The CLIP-like encoder is deliberately dominated by a linear functional of an
8x8 block-mean grid plus a small bounded conv refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import binfile
from .diffcore import Conv2dLayer, Tensor
from .diffcore import tensor as dt
from .diffcore.rng import named_stream
from .errors import NumericsError, ShapeError

FEAT_MAGIC = b"FEAT"
FEAT_VERSION = 1

DOMAINS = ("clip_like", "vgg_like")    # a FEAT file's domain tag is the index here

DEFAULT_CLIP_DIM = 64
DEFAULT_STYLE_DIM = 64

_VGG_WIDTHS = (8, 16, 32, 64)
_CLIP_GRID = 8          # block-mean grid is _CLIP_GRID x _CLIP_GRID x 3
_CLIP_REFINE_SCALE = 0.5


@dataclass
class FeatureSet:
    domain: str
    vectors: np.ndarray              # (M, dim) float32

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float32)
        if self.vectors.ndim != 2 or self.vectors.shape[0] < 1:
            raise ShapeError(f"feature set needs (M>=1, dim) rows, got {self.vectors.shape}")
        if self.domain not in DOMAINS:
            raise ValueError(f"unknown feature domain '{self.domain}'")
        if not np.all(np.isfinite(self.vectors)):
            raise NumericsError("feature set contains non-finite values")

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _hwc(image) -> np.ndarray:
    """`image` as a float32 array, checked to be (H, W, 3)."""
    img = np.asarray(image, dtype=np.float32)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ShapeError(f"encoders expect (H, W, 3) images, got {img.shape}")
    return img


def _chw(image) -> Tensor:
    """`image` as a (C, H, W) Tensor: a Tensor passes as it is, an (H, W, 3)
    array is checked and transposed."""
    if isinstance(image, Tensor):
        return image
    img = _hwc(image)
    if not np.all(np.isfinite(img)):
        raise NumericsError("image contains non-finite pixels")
    return Tensor(np.transpose(img, (2, 0, 1)))


def _rows(raw, images) -> np.ndarray:
    """`raw` of each image in the list `images`, stacked as rows."""
    return np.stack([raw(img) for img in images])


def _frozen(*layers: Conv2dLayer) -> list[Conv2dLayer]:
    for layer in layers:
        for p in layer.parameters():
            p.requires_grad = False
    return list(layers)


def procedural_texture(seed: int, index: int, size: int = 64) -> np.ndarray:
    """Colorful deterministic texture: sum of oriented sinusoids per channel."""
    g = named_stream(seed, f"texture.{index}")
    ys, xs = np.meshgrid(np.linspace(0, 1, size), np.linspace(0, 1, size), indexing="ij")
    img = np.zeros((size, size, 3), dtype=np.float64)
    for c in range(3):
        acc = np.zeros_like(xs)
        for _ in range(3):
            fx, fy = g.uniform(-9, 9, size=2)
            phase = g.uniform(0, 2 * np.pi)
            acc += g.uniform(0.2, 1.0) * np.sin(fx * xs + fy * ys + phase)
        lo, hi = acc.min(), acc.max()
        span = max(hi - lo, 1e-6)
        base, width = g.uniform(0.05, 0.3), g.uniform(0.5, 0.85)
        img[:, :, c] = base + width * (acc - lo) / span
    return np.clip(img, 0.0, 1.0).astype(np.float32)


class FeatureEncoders:
    """Frozen seeded encoders for the three feature domains of the pipeline.

    tap 0 of the style encoder is a 1x1-kernel stride-1 layer, so its pooled
    channel statistics are invariant to pixel permutations; the remaining
    blocks halve resolution with 2x2 valid convolutions, which keeps constant
    images exactly constant at every tap.

    Construction builds nothing. Each domain builds its layers and
    projections on first use (`vgg_layers` and `_vgg_proj`; `_clip_proj`,
    `clip_refine` and `_clip_refine_proj`); text encoding reads none of
    them. The CLIP-like domain (`_clip_center`, `text_norm`) calibrates on
    its first encode, the VGG-like domain (`_vgg_center`) on its first
    `encode_vgg_like`, each from the weights at that moment. `train-flow`
    saves `clip_calibration` with the pipeline; `stylize`, `train-style` and
    `eval-align` pass the saved value back as `clip_calibration=`, which
    stands in for the computed one.
    """

    def __init__(self, seed: int = 0, clip_dim: int = DEFAULT_CLIP_DIM,
                 style_dim: int = DEFAULT_STYLE_DIM,
                 clip_calibration: tuple[np.ndarray, float] | None = None):
        self.seed = seed
        self.clip_dim = clip_dim
        self.style_dim = style_dim
        self.tap_widths = _VGG_WIDTHS
        if clip_calibration is not None:
            self.clip_calibration = clip_calibration

    # -- frozen layers and projections, one domain at a time --------------------------

    @cached_property
    def vgg_layers(self) -> list[Conv2dLayer]:
        w, seed = self.tap_widths, self.seed
        return _frozen(Conv2dLayer(3, w[0], k=1, stride=1, seed=seed, name="vgg.b0"),
                       Conv2dLayer(w[0], w[1], k=2, stride=2, seed=seed, name="vgg.b1"),
                       Conv2dLayer(w[1], w[2], k=2, stride=2, seed=seed, name="vgg.b2"),
                       Conv2dLayer(w[2], w[3], k=2, stride=2, seed=seed, name="vgg.b3"))

    @cached_property
    def _vgg_proj(self) -> np.ndarray:
        stats_dim = 2 * sum(self.tap_widths)
        g = named_stream(self.seed, "vgg.pool_proj")
        return (g.standard_normal((self.style_dim, stats_dim)) / np.sqrt(stats_dim)
                ).astype(np.float32)

    @cached_property
    def _clip_proj(self) -> np.ndarray:
        g = named_stream(self.seed, "clip.block_proj")
        grid_dim = 3 * _CLIP_GRID * _CLIP_GRID
        return (6.0 * g.standard_normal((self.clip_dim, grid_dim)) / np.sqrt(grid_dim)
                ).astype(np.float32)

    @cached_property
    def clip_refine(self) -> list[Conv2dLayer]:
        return _frozen(Conv2dLayer(3, 8, k=2, stride=2, seed=self.seed, name="clip.r0"),
                       Conv2dLayer(8, 16, k=2, stride=2, seed=self.seed, name="clip.r1"))

    @cached_property
    def _clip_refine_proj(self) -> np.ndarray:
        g = named_stream(self.seed, "clip.refine_proj")
        rp = g.standard_normal((self.clip_dim, 16))
        return (_CLIP_REFINE_SCALE * rp / np.linalg.norm(rp, axis=1, keepdims=True)
                ).astype(np.float32)

    # -- calibration on a fixed procedural batch, one domain at a time ---------------

    @cached_property
    def _calibration_images(self) -> list[np.ndarray]:
        return [procedural_texture(self.seed, i) for i in range(16)]

    @cached_property
    def clip_calibration(self) -> tuple[np.ndarray, float]:
        """The CLIP-like center (float32) and the text-embedding norm target."""
        clip_raw = _rows(self._clip_raw, self._calibration_images)
        center = clip_raw.mean(axis=0).astype(np.float32)
        return center, float(np.linalg.norm(clip_raw - center, axis=1).mean())

    @property
    def _clip_center(self) -> np.ndarray:
        return self.clip_calibration[0]

    @property
    def text_norm(self) -> float:
        return self.clip_calibration[1]

    @cached_property
    def _vgg_center(self) -> np.ndarray:
        return _rows(self._vgg_raw, self._calibration_images).mean(axis=0).astype(np.float32)

    # -- style (VGG-like) domain ------------------------------------------------

    def tap_features(self, image) -> list[Tensor]:
        """All tap feature maps (Tensor path; differentiable w.r.t. the image)."""
        h = _chw(image)
        taps = []
        for layer in self.vgg_layers:
            h = dt.relu(layer(h))
            taps.append(h)
        return taps

    def tap_stats(self, image) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-tap channel (mean, population std) over spatial positions."""
        out = []
        for tap in self.tap_features(image):
            flat = tap.data.reshape(tap.data.shape[0], -1).astype(np.float64)
            out.append((flat.mean(axis=1), flat.std(axis=1)))
        return out

    def _vgg_raw(self, image: np.ndarray) -> np.ndarray:
        stats = self.tap_stats(image)
        vec = np.concatenate([np.concatenate([m, s]) for m, s in stats])
        return self._vgg_proj @ vec

    def encode_vgg_like(self, images) -> FeatureSet:
        """Pooled style-statistics vectors of a list of images; one row each."""
        return FeatureSet("vgg_like", _rows(self._vgg_raw, images) - self._vgg_center)

    # -- CLIP-like domain ----------------------------------------------------------

    def _block_grid(self, image: np.ndarray) -> np.ndarray:
        img = _hwc(image)
        h, w = img.shape[:2]
        if h % _CLIP_GRID or w % _CLIP_GRID:
            raise ShapeError(f"image size {h}x{w} must be divisible by {_CLIP_GRID}")
        bh, bw = h // _CLIP_GRID, w // _CLIP_GRID
        return img.reshape(_CLIP_GRID, bh, _CLIP_GRID, bw, 3).mean(axis=(1, 3))

    def _clip_refine_vec(self, image: np.ndarray) -> np.ndarray:
        h = _chw(image)
        for layer in self.clip_refine:
            h = dt.relu(layer(h))
        pooled = h.data.reshape(h.data.shape[0], -1).mean(axis=1)
        return self._clip_refine_proj @ np.tanh(pooled)

    def _clip_raw(self, image: np.ndarray) -> np.ndarray:
        grid = self._block_grid(image).reshape(-1)
        return self._clip_proj @ grid + self._clip_refine_vec(image)

    def encode_clip_like(self, images) -> FeatureSet:
        """Embedding vectors of a list of images; one row each."""
        return FeatureSet("clip_like", _rows(self._clip_raw, images) - self._clip_center)

    # -- text domain ------------------------------------------------------------------

    def token_vector(self, token: str) -> np.ndarray:
        g = named_stream(self.seed, f"text.token.{token}")
        return g.standard_normal(self.clip_dim).astype(np.float32)

    def encode_text(self, tokens: Sequence[str]) -> FeatureSet:
        """Hash-then-embed: mean token vector, renormalized to image-feature scale."""
        if not tokens:
            raise ShapeError("encode_text requires at least one token")
        mean = np.mean([self.token_vector(t) for t in tokens], axis=0)
        norm = np.linalg.norm(mean)
        if norm < 1e-12:
            raise NumericsError("degenerate text embedding")
        row = (mean / norm) * self.text_norm
        return FeatureSet("clip_like", row[None, :])


# -- FEAT import/export ----------------------------------------------------------------------

def export_features(path, fs: FeatureSet) -> None:
    binfile.write(path, [FEAT_MAGIC, (FEAT_VERSION, fs.count, fs.dim),
                         bytes([DOMAINS.index(fs.domain)]), fs.vectors])


def import_features(path) -> FeatureSet:
    r = binfile.Reader(path, FEAT_MAGIC, 3, version=FEAT_VERSION)
    (count, dim), (tag,) = r.header, r.ints(1, "B")
    if tag >= len(DOMAINS):
        r.fail(f"unknown domain tag {tag} at byte 16")
    rows = r.f32((count, dim), count=count, dim=dim)
    r.end()
    return FeatureSet(DOMAINS[tag], rows.astype(np.float32))
