"""3D Gaussian scenes and pinhole cameras.

A scene is a fixed set of anisotropic Gaussians: position, rotation
(unit quaternion), per-axis scale, opacity, color, and a color embedding
used by the stylization stage. Covariance is kept factorized as
R diag(scale^2) R^T, which is symmetric positive definite by construction.

Scenes are immutable after generation/load; stylization returns new scenes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import binfile
from .diffcore.rng import named_stream
from .errors import FormatError, ShapeError

GSCN_MAGIC = b"GSCN"
GSCN_VERSION = 1
_COLUMNS = (("positions",) * 3 + ("rotations",) * 4 + ("scales",) * 3 + ("opacities",)
            + ("colors",) * 3)          # of a record, before its D embedding values

MIN_EMBED_DIM = 8
MAX_EMBED_DIM = 64
DEFAULT_EMBED_DIM = 32

TOY_SCENE_KINDS = ("lattice", "two_clusters", "textured_slab")

NEAR, FAR = 0.05, 100.0          # view-depth range a camera sees


# -- quaternion helpers -------------------------------------------------------

def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float32)
    return q / np.linalg.norm(q)


def quat_matrices(q) -> np.ndarray:
    """float64 rotation matrices (..., 3, 3) of unit quaternions (..., 4) as (w, x, y, z)."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=np.float64), -1, 0)
    rows = [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def quat_to_matrix(q) -> np.ndarray:
    """float32 rotation matrix of one unit quaternion (w, x, y, z)."""
    return quat_matrices(q).astype(np.float32)


def matrix_to_quat(m: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a rotation matrix."""
    m = np.asarray(m, dtype=np.float64)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2
        q = [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2
        q = [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
    elif m[1, 1] > m[2, 2]:
        s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2
        q = [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
    else:
        s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2
        q = [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
    return quat_normalize(np.array(q))


# -- domain types -------------------------------------------------------------

class GaussianScene:
    """Array-of-structs Gaussian set; all per-Gaussian data as float32 arrays."""

    def __init__(self, positions, rotations, scales, opacities, colors, embeddings):
        self.positions = np.ascontiguousarray(positions, dtype=np.float32)
        self.rotations = np.ascontiguousarray(rotations, dtype=np.float32)
        self.scales = np.ascontiguousarray(scales, dtype=np.float32)
        self.opacities = np.ascontiguousarray(opacities, dtype=np.float32)
        self.colors = np.ascontiguousarray(colors, dtype=np.float32)
        self.embeddings = np.ascontiguousarray(embeddings, dtype=np.float32)
        self.validate()

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.embeddings.shape[1]

    @cached_property
    def covariances(self) -> np.ndarray:
        """(N,3,3) float64 world covariances R diag(s^2) R^T, computed once per
        scene: no code changes a scene's arrays after it is built."""
        r = quat_matrices(self.rotations)
        s2 = self.scales.astype(np.float64) ** 2
        return np.einsum("nij,nj,nkj->nik", r, s2, r)

    def validate(self) -> None:
        n = self.positions.shape[0]
        if n < 1:
            raise ShapeError("scene must contain at least one Gaussian")
        for name in _FIELD_SHAPES:
            _check_field(name, getattr(self, name), n)

    def with_colors(self, colors: np.ndarray) -> "GaussianScene":
        """New scene sharing geometry byte-for-byte, colors replaced."""
        return self._replaced("colors", colors)

    def with_embeddings(self, embeddings: np.ndarray) -> "GaussianScene":
        return self._replaced("embeddings", embeddings)

    def _replaced(self, name: str, values) -> "GaussianScene":
        """A copy with one field replaced; only that field is checked, since the
        others are this valid scene's arrays."""
        values = np.ascontiguousarray(values, dtype=np.float32)
        _check_field(name, values, self.count)
        new = copy.copy(self)
        setattr(new, name, values)
        return new


# per-Gaussian shape of each field; the embeddings' width D is the scene's own
_FIELD_SHAPES = {"positions": (3,), "rotations": (4,), "scales": (3,), "opacities": (),
                 "colors": (3,), "embeddings": None}


def _check_field(name: str, values: np.ndarray, n: int) -> None:
    """One scene field against N Gaussians: its shape, finite values, its range."""
    want = _FIELD_SHAPES[name]
    if want is None:
        if values.ndim != 2 or values.shape[0] != n:
            raise ShapeError(f"embeddings shape {values.shape} does not match N={n}")
    elif values.shape != (n, *want):
        raise ShapeError(f"scene field {name} has shape {values.shape}, expected {(n, *want)}")
    if not np.all(np.isfinite(values)):
        raise ShapeError(f"scene field {name} holds non-finite values")
    if name == "rotations" and np.any(np.abs(np.linalg.norm(values, axis=1) - 1.0) > 1e-5):
        raise ShapeError("rotation quaternions must be unit norm")
    if name == "scales" and np.any(values <= 0):
        raise ShapeError("scales must be strictly positive")
    if name in ("opacities", "colors") and (np.any(values < 0) or np.any(values > 1)):
        raise ShapeError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class Camera:
    position: np.ndarray       # (3,)
    orientation: np.ndarray    # unit quaternion (w,x,y,z), camera-to-world
    focal: float               # pixels
    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ShapeError("camera resolution must be at least 1x1")

    def rotation_camera_to_world(self) -> np.ndarray:
        return quat_to_matrix(self.orientation)

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        """Map (N,3) world points into camera coordinates (+z forward)."""
        r_wc = self.rotation_camera_to_world().T
        return (points - self.position) @ r_wc.T

    def camera_to_world(self, points: np.ndarray) -> np.ndarray:
        r_cw = self.rotation_camera_to_world()
        return points @ r_cw.T + self.position

    @property
    def cx(self) -> float:
        return self.width / 2.0

    @property
    def cy(self) -> float:
        return self.height / 2.0


def look_at_camera(position, target, focal: float, width: int, height: int) -> Camera:
    """Camera at `position` looking at `target` with world +z up (+y for a
    vertical view)."""
    position = np.asarray(position, dtype=np.float64)
    forward = np.asarray(target, dtype=np.float64) - position
    forward = forward / np.linalg.norm(forward)
    up = np.array([0.0, 0.0, 1.0])
    if abs(np.dot(up, forward)) > 0.999:
        up = np.array([0.0, 1.0, 0.0])
    right = np.cross(up, forward)
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    r_cw = np.stack([right, down, forward], axis=1)  # columns: +x right, +y down, +z forward
    return Camera(position=position.astype(np.float32), orientation=matrix_to_quat(r_cw),
                  focal=float(focal), width=int(width), height=int(height))


def camera_ring(center, radius: float, count: int, elevation: float = 0.0,
                focal: float = 70.0, width: int = 64, height: int = 64) -> list[Camera]:
    """Cameras on a ring, all at distance `radius` from `center`, looking at it.

    Consecutive cameras are the short-range view pairs; cameras count/2 apart
    are the long-range pairs. `elevation` lifts the ring onto a cone so the
    cameras view a horizontal surface from above (default 0 keeps the ring
    planar through the center).
    """
    if count < 2:
        raise ShapeError(f"camera ring needs at least 2 cameras, got {count}")
    if radius <= 0:
        raise ShapeError("camera ring radius must be positive")
    center = np.asarray(center, dtype=np.float64)
    cams = []
    for i in range(count):
        theta = 2.0 * np.pi * i / count
        offset = radius * np.array([
            np.cos(theta) * np.cos(elevation),
            np.sin(theta) * np.cos(elevation),
            np.sin(elevation),
        ])
        cams.append(look_at_camera(center + offset, center, focal, width, height))
    return cams


# -- persistence ---------------------------------------------------------------

def save_scene(scene: GaussianScene, path) -> None:
    rec = np.concatenate([
        scene.positions, scene.rotations, scene.scales,
        scene.opacities[:, None], scene.colors, scene.embeddings], axis=1)
    binfile.write(path, [GSCN_MAGIC, (GSCN_VERSION, scene.count, scene.embed_dim), rec])


def load_scene(path) -> GaussianScene:
    r = binfile.Reader(path, GSCN_MAGIC, 3, version=GSCN_VERSION)
    n, d = r.header
    if not (MIN_EMBED_DIM <= d <= MAX_EMBED_DIM):
        r.fail(f"embed dim {d} at byte 12 outside [{MIN_EMBED_DIM}, {MAX_EMBED_DIM}]")
    rec = r.f32((n, len(_COLUMNS) + d), _COLUMNS + ("embeddings",) * d, N=n, D=d)
    r.end()
    opacities = np.clip(rec[:, 10], 0.0, 1.0)  # compositing needs [0, 1]
    try:
        return GaussianScene(
            positions=rec[:, 0:3], rotations=rec[:, 3:7], scales=rec[:, 7:10],
            opacities=opacities, colors=rec[:, 11:14], embeddings=rec[:, 14:])
    except ShapeError as exc:
        raise FormatError(f"{path}: {exc}") from None


# -- toy scene generation --------------------------------------------------------

def _smooth_colors(positions: np.ndarray) -> np.ndarray:
    """Low-frequency procedural color field with >=0.5 range per channel."""
    x, y, z = positions[:, 0], positions[:, 1], positions[:, 2]
    r = 0.5 + 0.45 * np.sin(3.3 * x + 0.7)
    g = 0.5 + 0.45 * np.sin(3.3 * y - 0.4 + 0.9 * z)
    b = 0.5 + 0.45 * np.sin(3.3 * (x + y) * 0.75 + 2.0 * z + 1.3)
    return np.stack([r, g, b], axis=1).astype(np.float32)


def _random_unit_quats(g: np.random.Generator, n: int) -> np.ndarray:
    q = g.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return q.astype(np.float32)


def generate_toy_scene(spec_kind: str, n: int, seed: int,
                       embed_dim: int = DEFAULT_EMBED_DIM) -> GaussianScene:
    """Deterministic desk-scale content scenes standing in for captured data."""
    if n < 1:
        raise ShapeError(f"toy scene needs n >= 1, got {n}")
    if spec_kind not in TOY_SCENE_KINDS:
        raise ValueError(f"unknown toy scene kind '{spec_kind}', choose from {TOY_SCENE_KINDS}")
    if not (MIN_EMBED_DIM <= embed_dim <= MAX_EMBED_DIM):
        raise ShapeError(f"embed_dim {embed_dim} outside [{MIN_EMBED_DIM}, {MAX_EMBED_DIM}]")
    g = named_stream(seed, f"toy-scene.{spec_kind}")

    if spec_kind == "lattice":
        side = int(np.ceil(n ** (1.0 / 3.0)))
        idx = np.arange(side ** 3)[:n]
        iz, iy, ix = idx // (side * side), (idx // side) % side, idx % side
        grid = np.stack([ix, iy, iz], axis=1).astype(np.float64)
        positions = (grid - (side - 1) / 2.0) * 0.45
        positions += g.uniform(-0.03, 0.03, size=positions.shape)
        scales = np.full((n, 3), 0.16) * g.uniform(0.8, 1.2, size=(n, 3))
        rotations = _random_unit_quats(g, n)
        opacities = g.uniform(0.75, 0.95, size=n)
    elif spec_kind == "two_clusters":
        centers = np.array([[-3.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        which = (np.arange(n) % 2)
        positions = centers[which] + g.normal(0.0, 0.5, size=(n, 3))
        scales = np.full((n, 3), 0.14) * g.uniform(0.8, 1.2, size=(n, 3))
        rotations = _random_unit_quats(g, n)
        opacities = g.uniform(0.7, 0.95, size=n)
    else:  # textured_slab
        side = int(np.ceil(np.sqrt(n)))
        idx = np.arange(side * side)[:n]
        iy, ix = idx // side, idx % side
        span = 2.0
        step = span / max(side - 1, 1)
        xy = np.stack([ix, iy], axis=1).astype(np.float64) * step - span / 2.0
        positions = np.concatenate([xy, np.zeros((n, 1))], axis=1)
        s_plane = max(step, 0.05) * 0.75
        scales = np.tile(np.array([s_plane, s_plane, 0.02]), (n, 1))
        rotations = np.tile(np.array([1.0, 0.0, 0.0, 0.0], dtype=np.float32), (n, 1))
        opacities = np.full(n, 0.92)

    colors = np.clip(_smooth_colors(positions), 0.0, 1.0)
    embeddings = np.zeros((n, embed_dim), dtype=np.float32)
    return GaussianScene(positions, rotations, scales, opacities, colors, embeddings)
