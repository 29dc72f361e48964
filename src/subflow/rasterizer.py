"""CPU tile-based splatting of Gaussian scenes.

Projection follows the EWA recipe: the 3D covariance is pushed through the
world-to-camera rotation W and the perspective Jacobian J at the Gaussian
center, cov2d = J W Sigma W^T J^T, plus a 0.3 px^2 low-pass diagonal.

Compositing is front-to-back over view depth:

    alpha_i = min(0.99, opacity_i * exp(-0.5 d^T cov2d^{-1} d))
    w_i     = alpha_i * T_i,   T_i = prod_{j<i} (1 - alpha_j)
    out     = sum_i w_i * attr_i

A splat contributes only inside its 3-sigma ellipse (d^T cov2d^{-1} d <= 9),
which makes binning the depth-sorted splats into 16x16 tiles by their
3-sigma bounding box exact rather than an approximation. A pixel takes no
more contributions once T_i < 1e-4.

One kernel, `_tile_weights`, computes the weights w_i for a tile, CHUNK
splats at a time, as a (chunk x tile pixels) block, pixels last in raster
order. The quadratic form is separable: its dx and dy terms are formed once
per tile column and row and broadcast over the block, the same products
summed in the same order as pixel by pixel. The 0.5 in the exponent is
folded into those terms, as (0.5 a) dx dx, b dx dy and (0.5 c) dy dy:
scaling a normal float by 2^-1 only lowers its exponent, so each term,
and their rounded sum, is exactly half of the unfolded one. T_i is the
exclusive running product of (1 - alpha) seeded with the transmittance
carried out of the previous chunk, taken one splat row at a time (each row
times the row before it, all pixels at once), with w_i zeroed where
T_i < 1e-4. That multiplies the same factors in the same order as a
splat-by-splat loop, and because T only falls, a pixel whose T dropped
under 1e-4 never contributes again; so masking after the fact gives the
loop's weights bit for bit, and a tile stops as soon as every pixel in it
is saturated.

One compositing pass builds, from those weights, only the maps its caller
reads: colors and the D-channel embedding maps as w^T @ attrs (so rendering
any per-Gaussian attribute is linear in it), coverage as the sum of w down
the splats (numpy adds a pixels-last block's rows in order, as a running sum
does), and depth as the view-space z of the splat that first lifts that sum
to 0.5 (+inf where never reached), from a running sum over the pixels that
cross 0.5. `render` builds colors, depth and coverage, and the embedding
maps unless asked not to. `attribute_weights`, the pass gradient-based
training runs once per camera, builds colors and coverage only, and keeps
each tile's weights as one dense float32 block of (tile pixels) x (tile
splats with a nonzero weight), like the per-tile splat lists of 3D Gaussian
Splatting (Kerbl et al. 2023): about 1% of a dense (H*W, N) matrix's
entries. Every map a pass builds has the same bytes in every pass.

Once geometry is frozen, a camera's weights never change. `write_weights`
stores them with the content image in a TWTS file, each block as its tile,
its splat ids, a packed nonzero mask and its nonzero values in the block's
memory order, and `WeightsFile` reads them back with the same bytes and
layout, so a second consumer of the same cameras composites nothing.
"""
from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from . import binfile
from .errors import FormatError, ShapeError
from .scene import FAR, NEAR, Camera, GaussianScene, quat_to_matrix

TILE = 16
CHUNK = 64                       # splats per vectorized compositing step
ALPHA_CLAMP = 0.99
CUTOFF_MAHALANOBIS_SQ = 9.0      # 3-sigma support
MIN_TRANSMITTANCE = 1e-4
LOWPASS = 0.3                    # px^2 added to cov2d diagonal
DEPTH_ALPHA = 0.5
DEPTH_REL_TOL = 0.02             # warp_map occlusion test: relative depth gap

FMAP_MAGIC = b"FMAP"
WEIGHTS_MAGIC = b"TWTS"
WEIGHTS_VERSION = 1
DIGEST_BYTES = 32
_PPM_FIELD = re.compile(rb"(?:\s|#[^\n]*\n)+(\d+)")   # separator or comment lines, then digits


@dataclass
class RenderOutput:
    rgb: np.ndarray          # (H, W, 3)
    features: Optional[np.ndarray]   # (H, W, D), None when not asked for
    depth: np.ndarray        # (H, W), +inf where uncovered
    alpha_mask: np.ndarray   # (H, W) accumulated opacity


def _project_all(scene: GaussianScene, cam: Camera):
    """Vectorized projection; returns arrays for visible splats, depth-sorted."""
    w_rot = quat_to_matrix(cam.orientation).T.astype(np.float64)  # world -> camera
    p_cam = (scene.positions.astype(np.float64) - cam.position.astype(np.float64)) @ w_rot.T
    z = p_cam[:, 2]
    visible = (z >= NEAR) & (z <= FAR)
    idx = np.nonzero(visible)[0]
    p = p_cam[idx]
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    f = cam.focal
    mean2d = np.stack([f * x / z + cam.cx, f * y / z + cam.cy], axis=1)

    jac = np.zeros((idx.size, 2, 3))
    jac[:, 0, 0] = f / z
    jac[:, 0, 2] = -f * x / (z * z)
    jac[:, 1, 1] = f / z
    jac[:, 1, 2] = -f * y / (z * z)
    m = jac @ w_rot
    cov3d = scene.covariances[idx]
    cov2d = np.einsum("nij,njk,nlk->nil", m, cov3d, m)
    cov2d[:, 0, 0] += LOWPASS
    cov2d[:, 1, 1] += LOWPASS

    order = np.argsort(z, kind="stable")
    return idx[order], mean2d[order], cov2d[order], z[order]


def _conics_and_radii(cov2d: np.ndarray):
    a, b, c = cov2d[:, 0, 0], cov2d[:, 0, 1], cov2d[:, 1, 1]
    det = a * c - b * b
    conic = np.stack([c / det, -b / det, a / det], axis=1)  # inverse as (A, B, C)
    mid = 0.5 * (a + c)
    lam_max = mid + np.sqrt(np.maximum(mid * mid - det, 0.0))
    radius = 3.0 * np.sqrt(lam_max)
    return conic, radius


def _tile_weights(xs, ys, means, conics, opac):
    """Yield (chunk, weights) over one tile's depth-sorted splats, CHUNK at a time.

    weights[j, p] = alpha_j(p) * T_j(p) over the tile's pixels p in raster
    order, given its column centres `xs` and row centres `ys`. T_j is the
    transmittance left before splat j: the exclusive running product of
    (1 - alpha) down the splats, seeded with the transmittance carried out of
    the previous chunk. Weights are zero where T_j < MIN_TRANSMITTANCE, and
    the tile stops once every pixel is.

    The power 0.5 ((a dx dx + 2b dx dy) + c dy dy) is built, in place, as
    ((0.5 a) dx dx + b dx dy) + (0.5 c) dy dy from per-column and per-row
    terms: halving a normal float is exact, so the fold keeps every bit.
    Alpha is then made on the same buffer, and zeroed where the power is not
    within the cutoff (NaN included). T is multiplied down the rows of one
    (chunk + 1, pixels) buffer, row j + 1 times row j over all pixels: the
    same products in the same order as `np.multiply.accumulate` along the
    splats, as tile-wide vector multiplies instead of strided chains.
    """
    trans = np.ones(ys.size * xs.size)
    for lo in range(0, opac.size, CHUNK):
        chunk = slice(lo, lo + CHUNK)
        dx = xs - means[chunk, 0, None]
        dy = ys - means[chunk, 1, None]
        a, b, c = conics[chunk].T[:, :, None]
        axx, bx, cyy = 0.5 * a * dx * dx, b * dx, 0.5 * c * dy * dy
        power = bx[:, None] * dy[:, :, None]
        power += axx[:, None]
        power += cyy[:, :, None]
        alpha = power.reshape(len(dx), -1)
        outside = ~(alpha <= 0.5 * CUTOFF_MAHALANOBIS_SQ)
        np.negative(alpha, out=alpha)
        np.exp(alpha, out=alpha)
        alpha *= opac[chunk, None]
        np.minimum(alpha, ALPHA_CLAMP, out=alpha)
        np.copyto(alpha, 0.0, where=outside)
        t = np.empty((alpha.shape[0] + 1, alpha.shape[1]))
        t[0] = trans
        np.subtract(1.0, alpha, out=t[1:])
        for prev, cur in zip(t[:-1], t[1:]):
            np.multiply(prev, cur, cur)
        before = t[:-1]
        wts = np.multiply(alpha, before, out=alpha)
        np.copyto(wts, 0.0, where=~(before >= MIN_TRANSMITTANCE))
        yield chunk, wts
        trans = t[-1]
        if not (trans >= MIN_TRANSMITTANCE).any():
            return


def _tiles(scene: GaussianScene, cam: Camera):
    """Project, depth-sort and bin the visible splats into TILE x TILE tiles.

    Returns (idx, z, tiles): source indices and view depths of the visible
    splats in depth order, and for each tile whose pixels some splat's 3-sigma
    box overlaps, (rows, cols, sel, chunks): the tile's pixel slices, the
    positions into idx of its splats (still depth-sorted), and the
    `_tile_weights` generator over them and the tile's pixel centres.
    """
    h, w = cam.height, cam.width
    idx, mean2d, cov2d, z = _project_all(scene, cam)
    conic, radius = _conics_and_radii(cov2d)
    opac = scene.opacities[idx].astype(np.float64)
    box_lo = mean2d - radius[:, None]
    box_hi = mean2d + radius[:, None]
    inside = ((box_hi >= 0) & (box_lo < (w, h))).all(axis=1)
    x0, y0 = (box_lo // TILE).T
    x1, y1 = (box_hi // TILE).T
    tiles = []
    in_col = [inside & (x0 <= tx) & (tx <= x1) for tx in range((w + TILE - 1) // TILE)]
    for ty in range((h + TILE - 1) // TILE):
        in_row = (y0 <= ty) & (ty <= y1)
        for tx, col in enumerate(in_col):
            sel = np.flatnonzero(col & in_row)
            if sel.size == 0:
                continue
            rows = slice(ty * TILE, min((ty + 1) * TILE, h))
            cols = slice(tx * TILE, min((tx + 1) * TILE, w))
            chunks = _tile_weights(np.arange(cols.start, cols.stop) + 0.5,
                                   np.arange(rows.start, rows.stop) + 0.5,
                                   mean2d[sel], conic[sel], opac[sel])
            tiles.append((rows, cols, sel, chunks))
    return idx, z, tiles


def _composite(scene: GaussianScene, cam: Camera, keep_blocks: bool, features: bool,
               threads: int = 1):
    """((rgb, features, depth, coverage), blocks) of one camera. The embedding
    maps are None unless `features`; with keep_blocks depth is None and the
    blocks are those of TileWeights, else an empty list."""
    if scene.count < 1:
        raise ShapeError("render: scene is empty")
    h, w = cam.height, cam.width
    rgb = np.zeros((h, w, 3), dtype=np.float32)
    feats = np.zeros((h, w, scene.embed_dim), dtype=np.float32) if features else None
    depth = None if keep_blocks else np.full((h, w), np.inf, dtype=np.float32)
    alpha = np.zeros((h, w), dtype=np.float32)

    idx, z, tiles = _tiles(scene, cam)
    # Without features a zero column keeps the product four wide: on a one-pixel
    # tile OpenBLAS's gemv sums a three-column product in another order than a
    # wider one, which moves float64 colors by an ulp (rarely a float32 one).
    extra = scene.embeddings[idx] if features else np.zeros((idx.size, 1), np.float32)
    attrs = np.concatenate([scene.colors[idx], extra], axis=1).astype(np.float64)

    def run_tile(tile):
        rows, cols, sel, chunks = tile
        shape = (rows.stop - rows.start, cols.stop - cols.start)
        out = np.zeros((shape[0] * shape[1], attrs.shape[1]))
        acc = np.zeros(out.shape[0])
        dep = np.full(out.shape[0], np.inf)
        splats, blocks = [], []
        for chunk, wts in chunks:
            s = sel[chunk]
            out += wts.T @ attrs[s]
            stack = np.concatenate([acc[None], wts])
            # numpy sums a lone pixel's column pairwise, so it takes the running sum
            total = np.add.reduce(stack) if acc.size > 1 else np.add.accumulate(stack)[-1]
            if depth is not None:
                crossed = (acc < DEPTH_ALPHA) & (total >= DEPTH_ALPHA)
                if crossed.any():
                    first = np.argmax(np.add.accumulate(stack[:, crossed])[1:] >= DEPTH_ALPHA,
                                      axis=0)
                    dep[crossed] = z[s][first]
            acc = total
            if keep_blocks:
                block = wts.T.astype(np.float32, order="C")
                nonzero = block.any(axis=0)
                splats.append(idx[s[nonzero]])
                blocks.append(block[:, nonzero])
        rgb[rows, cols] = out[:, :3].reshape(*shape, 3)
        if feats is not None:
            feats[rows, cols] = out[:, 3:].reshape(*shape, -1)
        alpha[rows, cols] = acc.reshape(shape)
        if depth is not None:
            depth[rows, cols] = dep.reshape(shape)
        if keep_blocks:
            splats = np.concatenate(splats)
            if splats.size:
                pix = (np.arange(rows.start, rows.stop)[:, None] * w
                       + np.arange(cols.start, cols.stop)).ravel()
                return pix, splats, np.hstack(blocks)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(run_tile, tiles))
    else:
        blocks = [run_tile(tile) for tile in tiles]
    return (rgb, feats, depth, alpha), [b for b in blocks if b is not None]


def render(scene: GaussianScene, cam: Camera, features: bool = True,
           threads: int = 1) -> RenderOutput:
    """Rasterize colors, depth and coverage for one camera, and the embedding
    maps unless `features` is False (then `.features` is None)."""
    return RenderOutput(*_composite(scene, cam, False, features, threads)[0])


@dataclass
class TileWeights:
    """One camera's compositing weights as per-tile (pix, splats, weights)
    blocks, render(attr)[pix] == weights @ attr[splats] in float32, with its
    content image and coverage (equal to render's), the only maps its pass
    builds: no depth and no embedding maps. A block holds a tile's
    flat pixel indices and its splats with a nonzero weight, each once.
    A `WeightsFile` gives back the blocks, in their memory order, and the
    content image that `write_weights` stored, but no coverage: only
    distillation reads it, and distillation composites its own.
    `nbytes`, `size` and `np.count_nonzero` count the blocks, never densified.
    """
    blocks: list
    rgb: np.ndarray          # (H, W, 3)
    alpha_mask: Optional[np.ndarray]   # (H, W); None when read from a weights file

    @property
    def nbytes(self) -> int:
        return sum(pix.nbytes + splats.nbytes + wts.nbytes for pix, splats, wts in self.blocks)

    @property
    def size(self) -> int:
        return sum(wts.size for _, _, wts in self.blocks)

    def __array_function__(self, func, types, args, kwargs):
        if func is not np.count_nonzero or len(args) != 1 or kwargs:
            return NotImplemented
        return sum(int(np.count_nonzero(wts)) for _, _, wts in self.blocks)

    def select_rows(self, mask: np.ndarray) -> list:
        """Blocks cut to the flat pixels where `mask` holds, renumbered to
        count those pixels in raster order."""
        position = np.cumsum(mask) - 1
        return [(position[pix[mask[pix]]], splats, wts[mask[pix]])
                for pix, splats, wts in self.blocks if mask[pix].any()]


def attribute_weights(scene: GaussianScene, cam: Camera) -> TileWeights:
    """The one compositing pass training runs per camera. The weights depend
    only on geometry and opacity, so with those frozen a loss on a rendered
    attribute map is differentiable through `diffcore.tile_matmul`."""
    (rgb, _, _, alpha), blocks = _composite(scene, cam, True, False)
    return TileWeights(blocks, rgb, alpha)


# -- the weights file -------------------------------------------------------------

def geometry_digest(scene: GaussianScene) -> bytes:
    """sha256 over the positions, rotations, scales and opacities: all that
    a camera's compositing weights read of a scene."""
    import hashlib      # here: loading OpenSSL takes ~2 ms, which `render` need not pay
    h = hashlib.sha256()
    for field in (scene.positions, scene.rotations, scene.scales, scene.opacities):
        h.update(np.ascontiguousarray(field, "<f4"))
    return h.digest()


def _tile_pixels(tile: int, h: int, w: int) -> np.ndarray:
    """Flat pixel indices of tile number `tile`, in raster order, as `_composite` makes them."""
    ty, tx = divmod(tile, -(-w // TILE))
    return (np.arange(ty * TILE, min((ty + 1) * TILE, h))[:, None] * w
            + np.arange(tx * TILE, min((tx + 1) * TILE, w))).ravel()


def _camera_parts(weights: TileWeights, w: int) -> list:
    """One camera's content image and block count, then, if it has blocks, a
    (tile, splats, order, nonzero) row per block and all blocks' splat ids,
    nonzero masks and nonzero values. A block's mask and values follow its
    memory order (order 1: column by column): OpenBLAS's float32 GEMM sums in
    another order for another layout, so the layout is kept."""
    rows, splats, masks, values = [], [], [], []
    for pix, ids, wts in weights.blocks:
        fortran = wts.strides != (wts.itemsize * wts.shape[1], wts.itemsize)
        flat = (wts.T if fortran else wts).ravel()
        nonzero = flat != 0
        row, col = divmod(int(pix[0]), w)
        rows += [row // TILE * -(-w // TILE) + col // TILE, ids.size, int(fortran),
                 int(np.count_nonzero(nonzero))]
        splats.append(ids)
        masks.append(nonzero)
        values.append(flat[nonzero])
    parts = [weights.rgb, (len(weights.blocks),)]
    if weights.blocks:
        parts += [tuple(rows), np.concatenate(splats),
                  np.packbits(np.concatenate(masks)).tobytes(), np.concatenate(values)]
    return parts


def write_weights(path, scene: GaussianScene, cams: Sequence[Camera],
                  rig: str) -> Iterator[TileWeights]:
    """Composite each camera in turn, append its `TileWeights` to the TWTS
    file at `path` and yield them; a camera's weights are dropped before the
    next is composited. The header records what the weights depend on: the
    scene's N and `geometry_digest`, and the cameras, as their count, size
    and `rig`, the ASCII text that placed them (the CLI's `camera.*` lines).
    Per camera follow `_camera_parts`. Unless the caller runs the generator
    to its end, the file is removed: a failed composite or a caller that
    stops leaves no file that misses a camera."""
    h, w = cams[0].height, cams[0].width
    if any((cam.height, cam.width) != (h, w) for cam in cams):
        raise ShapeError("a weights file holds cameras of one resolution")
    with open(path, "wb") as fh:
        try:
            binfile.put(fh, [WEIGHTS_MAGIC, (WEIGHTS_VERSION, scene.count, len(cams), h, w),
                             geometry_digest(scene), (len(rig),), rig.encode("ascii")])
            for cam in cams:
                weights = attribute_weights(scene, cam)
                binfile.put(fh, _camera_parts(weights, w))
                yield weights
                del weights
        except BaseException:       # GeneratorExit too: the caller stopped early
            fh.close()
            Path(path).unlink()
            raise


class WeightsFile(binfile.Reader):
    """A TWTS file that `write_weights` wrote. Opening reads the header:
    `count` (the scene's N), `digest`, `cameras`, `height`, `width` and
    `rig`. Iterating decodes one camera's `TileWeights` after the other and
    checks that the file ends with the last camera."""

    def __init__(self, path):
        super().__init__(path, WEIGHTS_MAGIC, 5, version=WEIGHTS_VERSION)
        self.count, self.cameras, self.height, self.width = self.header
        if self.cameras < 1:
            self.fail("holds no camera")
        self.digest = bytes(self.ints(DIGEST_BYTES, "B"))
        self.rig = bytes(self.ints(*self.ints(1), "B")).decode("ascii", "replace")

    def __iter__(self) -> Iterator[TileWeights]:
        h, w = self.height, self.width
        for cam in range(self.cameras):
            rgb = self.f32((h, w, 3), camera=cam, H=h, W=w).astype(np.float32)
            (nblocks,) = self.ints(1)
            yield TileWeights(self._blocks(cam, nblocks) if nblocks else [], rgb, None)
        self.end()

    def _blocks(self, cam: int, nblocks: int) -> list:
        """The `nblocks` blocks of camera `cam`: a (tile, splats, order,
        nonzero) row each, then all their splat ids, masks and values. Every
        check comes before the blocks are made, so that nothing short-lived
        is made between them: training holds the blocks, and such gaps made
        train_wide's peak RSS creep up over its operations (~1 MB more)."""
        h, w = self.height, self.width
        table = np.array(self.ints(4 * nblocks), np.int64).reshape(nblocks, 4)
        tiles, ks, orders, nonzeros = table.T
        if not (tiles[-1] < -(-h // TILE) * -(-w // TILE) and np.all(np.diff(tiles) > 0)
                and ks.min() >= 1 and nonzeros.min() >= 1 and orders.max() <= 1):
            self.fail(f"camera {cam}: block rows (tile, splats, order, nonzero) "
                      f"{table.tolist()} are not increasing tiles of a {h}x{w} view")
        pixels = [_tile_pixels(int(tile), h, w) for tile in tiles]
        sizes = np.array([pix.size for pix in pixels]) * ks
        fields = {"camera": cam, "blocks": nblocks}
        splats = self.u32(int(ks.sum()), self.count, **fields).astype(np.intp)
        keys = np.sort(np.repeat(np.arange(nblocks), ks) * self.count + splats)
        if np.any(keys[1:] == keys[:-1]):       # tile_matmul's vjp adds each splat once
            self.fail(f"camera {cam}: a block repeats a splat ({self._sizes()})")
        mask = self.bits(int(sizes.sum()), int(nonzeros.sum()), **fields)
        counts = np.add.reduceat(mask, np.cumsum(sizes) - sizes, dtype=np.int64)
        if np.any(counts != nonzeros):
            self.fail(f"camera {cam}: the masks set {counts.tolist()} bits, the rows say "
                      f"{nonzeros.tolist()} ({self._sizes()})")
        values = self.f32((int(nonzeros.sum()),), **fields)
        blocks, at, taken, first = [], 0, 0, 0
        for (_, k, fortran, nonzero), pix in zip(table.tolist(), pixels):
            flat = np.zeros(pix.size * k, np.float32)
            flat[mask[at:at + flat.size]] = values[taken:taken + nonzero]
            blocks.append((pix, splats[first:first + k], flat.reshape(k, pix.size).T
                           if fortran else flat.reshape(pix.size, k)))
            at, taken, first = at + flat.size, taken + nonzero, first + k
        return blocks


# -- depth reprojection ---------------------------------------------------------

def bilinear_sample(img: np.ndarray, u: np.ndarray, v: np.ndarray,
                    fill: float = 0.0) -> np.ndarray:
    """Sample img (H,W[,C]) at continuous pixel coords; centers at (i+0.5)."""
    h, w = img.shape[:2]
    x = np.asarray(u, dtype=np.float64) - 0.5
    y = np.asarray(v, dtype=np.float64) - 0.5
    x0 = np.floor(x).astype(int)
    y0 = np.floor(y).astype(int)
    fx = x - x0
    fy = y - y0
    out_shape = x.shape if img.ndim == 2 else (*x.shape, img.shape[2])
    acc = np.zeros(out_shape)
    for dy in (0, 1):
        for dx in (0, 1):
            wgt = (fx if dx else 1 - fx) * (fy if dy else 1 - fy)
            xi = np.clip(x0 + dx, 0, w - 1)
            yi = np.clip(y0 + dy, 0, h - 1)
            val = img[yi, xi]
            if img.ndim == 3:
                wgt = wgt[..., None]
            acc = acc + wgt * val
    acc[(x < -0.5) | (x > w - 0.5) | (y < -0.5) | (y > h - 0.5)] = fill
    return acc


def warp_map(src_cam: Camera, dst_cam: Camera, depth_src: np.ndarray,
             depth_dst: np.ndarray):
    """Pixel correspondences src -> dst through the rendered src depth.

    Each finite-depth src pixel is unprojected at its sample center, moved to
    world space, and reprojected into dst. Pixels are invalid where the src
    depth is +inf, the reprojection leaves the dst frame or frustum, or the
    reprojected depth disagrees with the dst render depth_dst by more than
    DEPTH_REL_TOL relative (occlusion).

    Returns ((H, W, 2) dst pixel coords, (H, W) validity mask).
    """
    h, w = depth_src.shape
    if (h, w) != (src_cam.height, src_cam.width):
        raise ShapeError(f"depth map {depth_src.shape} does not match camera "
                         f"({src_cam.height}, {src_cam.width})")
    gy, gx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    u = gx + 0.5
    v = gy + 0.5
    z = depth_src.astype(np.float64)
    finite = np.isfinite(z)
    zs = np.where(finite, z, 1.0)

    f = src_cam.focal
    x_cam = (u - src_cam.cx) * zs / f
    y_cam = (v - src_cam.cy) * zs / f
    pts_cam = np.stack([x_cam, y_cam, zs], axis=-1).reshape(-1, 3)
    pts_world = src_cam.camera_to_world(pts_cam)
    pts_dst = dst_cam.world_to_camera(pts_world).reshape(h, w, 3)

    zd = pts_dst[..., 2]
    in_front = (zd >= NEAR) & (zd <= FAR)
    zd_safe = np.where(in_front, zd, 1.0)
    ud = dst_cam.focal * pts_dst[..., 0] / zd_safe + dst_cam.cx
    vd = dst_cam.focal * pts_dst[..., 1] / zd_safe + dst_cam.cy
    in_frame = (ud >= 0) & (ud <= dst_cam.width) & (vd >= 0) & (vd <= dst_cam.height)
    sampled = bilinear_sample(np.where(np.isfinite(depth_dst), depth_dst, -1.0),
                              ud, vd, fill=-1.0)
    agree = (sampled > 0) & (np.abs(sampled - zd_safe) <= DEPTH_REL_TOL * zd_safe)
    valid = finite & in_front & in_frame & agree

    coords = np.stack([ud, vd], axis=-1).astype(np.float32)
    return coords, valid


# -- image / feature-map files -----------------------------------------------------

def write_ppm(path, rgb: np.ndarray) -> None:
    """Binary PPM (P6, maxval 255); values round(255*clamp(x,0,1))."""
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ShapeError(f"write_ppm expects (H,W,3), got {rgb.shape}")
    h, w = rgb.shape[:2]
    quant = np.round(255.0 * np.clip(rgb, 0.0, 1.0)).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quant.tobytes())


def read_ppm(path) -> np.ndarray:
    """Binary PPM (P6, maxval <= 255); `#` comments may sit in the header."""
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P6"):
        raise FormatError(f"{path}: not a binary PPM")
    fields, pos = [], 2
    for name in ("width", "height", "maxval"):
        m = _PPM_FIELD.match(raw, pos)
        if m is None:
            raise FormatError(f"{path}: PPM header has no {name}")
        if len(m.group(1)) > 9:     # no payload is that large; int() refuses > 4300 digits
            raise FormatError(f"{path}: PPM {name} has {len(m.group(1))} digits")
        fields.append(int(m.group(1)))
        pos = m.end()
    w, h, maxval = fields
    if w < 1 or h < 1 or not 1 <= maxval <= 255:
        raise FormatError(f"{path}: unsupported PPM size {w}x{h} or maxval {maxval}")
    if not raw[pos:pos + 1].isspace():
        raise FormatError(f"{path}: PPM header does not end in whitespace")
    want = h * w * 3
    if len(raw) - pos - 1 < want:
        raise FormatError(f"{path}: PPM payload has {len(raw) - pos - 1} bytes, "
                          f"expected {want}")
    data = np.frombuffer(raw, dtype=np.uint8, count=want, offset=pos + 1)
    if data.max() > maxval:
        raise FormatError(f"{path}: PPM sample {data.max()} exceeds maxval {maxval}")
    return data.reshape(h, w, 3).astype(np.float32) / maxval


def write_fmap(path, array: np.ndarray) -> None:
    """Raw float map: magic FMAP, u32 H, u32 W, u32 C, f32 LE data."""
    arr = np.asarray(array, dtype=np.float32)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ShapeError(f"write_fmap expects (H,W) or (H,W,C), got {array.shape}")
    binfile.write(path, [FMAP_MAGIC, arr.shape, arr])


def read_fmap(path) -> np.ndarray:
    r = binfile.Reader(path, FMAP_MAGIC, 3)
    h, w, c = r.header
    fmap = r.f32((h, w, c), H=h, W=w, C=c)
    r.end()
    return fmap.astype(np.float32)
