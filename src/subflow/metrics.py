"""Evaluation protocol: paired cosine similarity, Frechet distance between
sets of feature rows, and depth-warp masked RMSE for multi-view consistency."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import rasterizer
from .errors import NumericsError, ShapeError
from .rasterizer import bilinear_sample, warp_map
from .scene import Camera, GaussianScene

MIN_RING = 4        # on fewer ring cameras the long-range pairs repeat short-range ones
METRIC_COLUMNS = ("metric", "range_or_round", "value")


@dataclass
class ConsistencyReport:
    range: str                 # "short" | "long"
    masked_rmse: float
    valid_pixel_fraction: float


def cosine_sim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean row-wise cosine between paired (M, d) rows; zero rows contribute 0."""
    if len(a) != len(b):
        raise ShapeError(f"cosine_sim: row counts differ ({len(a)} vs {len(b)})")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"cosine_sim: dims differ ({a.shape[1]} vs {b.shape[1]})")
    x = a.astype(np.float64)
    y = b.astype(np.float64)
    nx = np.linalg.norm(x, axis=1)
    ny = np.linalg.norm(y, axis=1)
    ok = (nx > 0) & (ny > 0)
    dots = np.zeros(len(a))
    dots[ok] = (x[ok] * y[ok]).sum(axis=1) / (nx[ok] * ny[ok])
    return float(dots.mean())


def fit_gaussian(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean, covariance) of (M, d) rows: the unbiased covariance,
    eigen-floored to symmetric PSD."""
    x = rows.astype(np.float64)
    mean = x.mean(axis=0)
    if x.shape[0] < 2:
        cov = np.zeros((x.shape[1], x.shape[1]))
    else:
        cov = np.cov(x, rowvar=False, ddof=1)
        cov = np.atleast_2d(cov)
    cov = (cov + cov.T) / 2.0
    vals, vecs = np.linalg.eigh(cov)
    cov = (vecs * np.maximum(vals, 0.0)) @ vecs.T
    return mean, (cov + cov.T) / 2.0


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
    return (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T


def frechet_distance(a: np.ndarray, b: np.ndarray) -> float:
    """||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a S_b)^{1/2}), all in float64.

    The cross-covariance square root is taken via the symmetric form
    S_a^{1/2} S_b S_a^{1/2}; eigenvalues below -1e-8 are a numerics error,
    small negatives are floored to zero.
    """
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"frechet_distance: dims differ ({a.shape[1]} vs {b.shape[1]})")
    (mean_a, cov_a), (mean_b, cov_b) = fit_gaussian(a), fit_gaussian(b)
    mean_term = float(((mean_a - mean_b) ** 2).sum())
    ra = _psd_sqrt(cov_a)
    inner = ra @ cov_b @ ra
    vals = np.linalg.eigvalsh((inner + inner.T) / 2.0)
    if np.any(vals < -1e-8):
        raise NumericsError(f"frechet_distance: cross term eigenvalue {vals.min():.3e} < -1e-8")
    cross = np.sqrt(np.maximum(vals, 0.0)).sum()
    trace_term = float(np.trace(cov_a) + np.trace(cov_b) - 2.0 * cross)
    return mean_term + trace_term


def masked_rmse(img_a: np.ndarray, img_b: np.ndarray, correspondences: np.ndarray,
                valid: np.ndarray, range_tag: str = "short") -> ConsistencyReport:
    """RMSE of |img_a(p) - img_b(warp(p))| over valid pixels, bilinear in img_b."""
    if img_a.shape != img_b.shape:
        raise ShapeError(f"masked_rmse: image shapes differ {img_a.shape} vs {img_b.shape}")
    if valid.sum() == 0:
        raise NumericsError("masked_rmse: no valid correspondences")
    u = correspondences[..., 0]
    v = correspondences[..., 1]
    warped = bilinear_sample(img_b.astype(np.float64), u, v, fill=0.0)
    diff = (img_a.astype(np.float64) - warped)[valid]
    rmse = float(np.sqrt((diff ** 2).mean()))
    fraction = float(valid.mean())
    return ConsistencyReport(range=range_tag, masked_rmse=rmse, valid_pixel_fraction=fraction)


def eval_consistency(scene: GaussianScene, cams: Sequence[Camera]) -> list[ConsistencyReport]:
    """Short-range = consecutive ring pairs (cyclic), long-range = half-ring pairs.

    Renders through the `rasterizer.render` attribute, looked up at call time.
    A pair whose views share no covered pixel has no error to measure: that
    is a ShapeError naming the pair, before any RMSE is taken.
    """
    n = len(cams)
    if n < MIN_RING:
        raise ShapeError(f"consistency protocol needs >= {MIN_RING} ring cameras, got {n}")
    renders = [rasterizer.render(scene, cam, features=False) for cam in cams]
    reports = []
    pairs = [("short", i, (i + 1) % n) for i in range(n)]
    pairs += [("long", i, (i + n // 2) % n) for i in range(n // 2)]
    for tag, i, j in pairs:
        coords, valid = warp_map(cams[i], cams[j], renders[i].depth, renders[j].depth)
        if not valid.any():
            raise ShapeError(f"ring views {i} and {j} share no covered pixel")
        reports.append(masked_rmse(renders[i].rgb, renders[j].rgb, coords, valid, tag))
    return reports


def consistency_summary(reports: Sequence[ConsistencyReport]) -> dict[str, float]:
    out = {}
    for tag in ("short", "long"):
        vals = [r.masked_rmse for r in reports if r.range == tag]
        if vals:
            out[tag] = float(np.mean(vals))
    return out


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Write a CSV artifact: a header line, then one line per row, ASCII with
    LF endings. A str or int cell is written as it is, any other number as
    `.9g`. Returns the text written."""
    lines = [",".join(header)]
    lines += [",".join(str(c) if isinstance(c, (str, int)) else f"{c:.9g}" for c in row)
              for row in rows]
    text = "\n".join(lines) + "\n"
    Path(path).write_text(text, encoding="ascii", newline="\n")
    return text
