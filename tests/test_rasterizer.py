import hashlib
import weakref

import numpy as np
import pytest

from subflow import diffcore as dc
from subflow import rasterizer as ras
from subflow import scene as sc
from subflow.errors import FormatError, ShapeError

from oracle_render import reference_render


def front_camera(width=64, height=64, focal=60.0, pos=(0.0, 0.0, -4.0)):
    """Camera at `pos` with identity orientation: +z forward, +x right, +y down."""
    return sc.Camera(np.array(pos, dtype=np.float32),
                     np.array([1, 0, 0, 0], dtype=np.float32),
                     focal, width, height)


def one_gaussian_scene(position, scale=0.3, opacity=1.0, color=(1.0, 0.5, 0.25), d=8):
    return sc.GaussianScene(
        np.array([position], dtype=np.float32),
        np.array([[1, 0, 0, 0]], dtype=np.float32),
        np.full((1, 3), scale, dtype=np.float32),
        np.array([opacity], dtype=np.float32),
        np.array([color], dtype=np.float32),
        np.zeros((1, d), dtype=np.float32))


def project_one(scene, cam):
    """(mean2d, cov2d) of a one-Gaussian scene, or None when it is culled."""
    idx, mean2d, cov2d, _ = ras._project_all(scene, cam)
    return None if idx.size == 0 else (mean2d[0], cov2d[0])


def test_on_axis_gaussian_projects_to_image_center():
    cam = front_camera()
    splat = project_one(one_gaussian_scene((0, 0, 1.0)), cam)
    assert splat is not None
    mean2d, _ = splat
    assert mean2d[0] == pytest.approx(cam.cx, abs=1e-4)
    assert mean2d[1] == pytest.approx(cam.cy, abs=1e-4)


def test_on_axis_cov2d_matches_jacobian_formula():
    cam = front_camera(focal=80.0)
    s, z = 0.2, 5.0
    _, cov2d = project_one(one_gaussian_scene((0, 0, 1.0), scale=s), cam)
    want = (cam.focal * s / z) ** 2
    cov = cov2d - ras.LOWPASS * np.eye(2)
    assert cov[0, 0] == pytest.approx(want, rel=1e-4)
    assert cov[1, 1] == pytest.approx(want, rel=1e-4)
    assert abs(cov[0, 1]) < 1e-5 * want


def test_gaussian_behind_camera_is_culled():
    cam = front_camera()
    assert project_one(one_gaussian_scene((0, 0, -6.0)), cam) is None


def test_single_opaque_gaussian_center_pixel_is_alpha_clamped_color():
    cam = front_camera(width=32, height=32, focal=30.0)
    scene = one_gaussian_scene((0, 0, 1.0), scale=40.0, opacity=1.0, color=(0.8, 0.2, 0.6))
    out = ras.render(scene, cam)
    # huge footprint: exp term is ~1 at the center pixel, alpha clamps at 0.99
    assert np.allclose(out.rgb[16, 16], 0.99 * np.array([0.8, 0.2, 0.6]), atol=1e-5)


def test_two_overlapping_gaussians_hand_composite():
    cam = front_camera(width=32, height=32, focal=30.0)
    g1 = one_gaussian_scene((0, 0, 1.0), scale=5.0, opacity=0.6, color=(1.0, 0.0, 0.0))
    g2 = one_gaussian_scene((0, 0, 3.0), scale=5.0, opacity=0.7, color=(0.0, 1.0, 0.0))
    both = sc.GaussianScene(
        np.concatenate([g1.positions, g2.positions]),
        np.concatenate([g1.rotations, g2.rotations]),
        np.concatenate([g1.scales, g2.scales]),
        np.concatenate([g1.opacities, g2.opacities]),
        np.concatenate([g1.colors, g2.colors]),
        np.concatenate([g1.embeddings, g2.embeddings]))
    out = ras.render(both, cam)
    ref_rgb, _, _, _ = reference_render(both, cam)
    assert np.allclose(out.rgb, ref_rgb, atol=1e-6)

    # closed form at the center pixel: alpha1*c1 + alpha2*c2*(1-alpha1),
    # alphas evaluated from the projected conics at the pixel sample point
    import math
    alphas = []
    for scene in (g1, g2):
        mean2d, cov2d = project_one(scene, cam)
        d = np.array([16.5, 16.5]) - mean2d
        m2 = float(d @ np.linalg.inv(cov2d) @ d)
        alphas.append(min(0.99, float(scene.opacities[0]) * math.exp(-0.5 * m2)))
    a1, a2 = alphas
    assert out.rgb[16, 16, 0] == pytest.approx(a1, abs=1e-5)
    assert out.rgb[16, 16, 1] == pytest.approx(a2 * (1 - a1), abs=1e-5)
    assert a1 > 0.5 and a2 > 0.1


def test_features_composite_identically_to_rgb():
    # embeddings = M @ color per Gaussian -> feature map = rgb map @ M^T exactly
    scene = sc.generate_toy_scene("two_clusters", 40, 3, embed_dim=8)
    m = sc.named_stream(5, "linmap").standard_normal((8, 3)).astype(np.float32)
    scene = scene.with_embeddings(scene.colors @ m.T)
    cam = sc.look_at_camera((0, -6, 2.5), (0, 0, 0), 60.0, 48, 48)
    out = ras.render(scene, cam)
    assert np.allclose(out.features, out.rgb @ m.T, atol=1e-5)


def test_tiled_render_matches_scalar_reference():
    scene = sc.generate_toy_scene("lattice", 50, 13, embed_dim=8)
    cam = sc.look_at_camera((0.3, -3.5, 1.2), (0, 0, 0), 55.0, 64, 64)
    out = ras.render(scene, cam)
    ref_rgb, ref_feats, ref_depth, ref_alpha = reference_render(scene, cam)
    assert np.allclose(out.rgb, ref_rgb, atol=1e-6)
    assert np.allclose(out.features, ref_feats, atol=1e-6)
    assert np.allclose(out.alpha_mask, ref_alpha, atol=1e-6)
    both_inf = np.isinf(out.depth) & np.isinf(ref_depth)
    assert np.allclose(np.where(both_inf, 0, out.depth),
                       np.where(both_inf, 0, ref_depth), atol=1e-5)


def test_render_linear_in_embeddings():
    scene = sc.generate_toy_scene("lattice", 30, 21, embed_dim=8)
    rng = sc.named_stream(21, "lin-embed")
    u = rng.standard_normal((30, 8)).astype(np.float32)
    w = rng.standard_normal((30, 8)).astype(np.float32)
    a, b = 0.7, -1.3
    cam = sc.look_at_camera((0, -4, 1), (0, 0, 0), 50.0, 32, 32)
    fu = ras.render(scene.with_embeddings(u), cam).features
    fw = ras.render(scene.with_embeddings(w), cam).features
    fmix = ras.render(scene.with_embeddings((a * u + b * w).astype(np.float32)), cam).features
    assert np.allclose(fmix, a * fu + b * fw, atol=1e-5)


def test_render_invariant_to_gaussian_order():
    scene = sc.generate_toy_scene("two_clusters", 40, 8, embed_dim=8)
    perm = sc.named_stream(8, "perm").permutation(40)
    shuffled = sc.GaussianScene(
        scene.positions[perm], scene.rotations[perm], scene.scales[perm],
        scene.opacities[perm], scene.colors[perm], scene.embeddings[perm])
    cam = sc.look_at_camera((0, -7, 2), (0, 0, 0), 60.0, 48, 48)
    a = ras.render(scene, cam)
    b = ras.render(shuffled, cam)
    assert np.allclose(a.rgb, b.rgb, atol=1e-6)
    assert np.allclose(a.alpha_mask, b.alpha_mask, atol=1e-6)


def test_render_empty_scene_rejected():
    cam = front_camera()
    scene = one_gaussian_scene((0, 0, 1.0))
    scene.positions = np.zeros((0, 3), dtype=np.float32)  # bypass constructor check
    with pytest.raises(ShapeError):
        ras.render(scene, cam)


def tile_product(weights, attrs):
    return dc.tile_matmul(weights.blocks, weights.alpha_mask.size, attrs).data


def test_attribute_weights_reproduce_render():
    scene = sc.generate_toy_scene("textured_slab", 49, 4, embed_dim=8)
    cam = sc.look_at_camera((0, -2.5, 2.5), (0, 0, 0), 45.0, 32, 32)
    weights = ras.attribute_weights(scene, cam)
    out = ras.render(scene, cam)
    rgb_from_weights = tile_product(weights, scene.colors).reshape(32, 32, 3)
    assert np.allclose(rgb_from_weights, out.rgb, atol=1e-5)
    coverage = tile_product(weights, np.ones((scene.count, 1)))
    assert np.allclose(coverage.reshape(32, 32), out.alpha_mask, atol=1e-5)
    # the content image and coverage come from the same compositing pass
    assert np.array_equal(weights.rgb, out.rgb)
    assert np.array_equal(weights.alpha_mask, out.alpha_mask)
    # a render without embedding maps keeps the other maps' bytes
    plain = ras.render(scene, cam, features=False)
    assert plain.features is None
    for got, want in ((plain.rgb, out.rgb), (plain.depth, out.depth),
                      (plain.alpha_mask, out.alpha_mask)):
        assert got.tobytes() == want.tobytes()

    # a denser scene puts more splats in one tile than one compositing chunk
    dense = sc.generate_toy_scene("textured_slab", 600, 4, embed_dim=8)
    _, _, tiles = ras._tiles(dense, cam)
    assert max(sel.size for _, _, sel, _ in tiles) > 2 * ras.CHUNK
    weights = ras.attribute_weights(dense, cam)
    out = ras.render(dense, cam)
    assert np.allclose(tile_product(weights, dense.embeddings).reshape(32, 32, 8), out.features,
                       atol=1e-5)
    assert np.allclose(tile_product(weights, dense.colors).reshape(32, 32, 3), out.rgb, atol=1e-5)


def stacked_scene():
    """Huge on-axis Gaussians one behind another, 0.01 apart in depth, seen by
    a 16x16 camera (one tile). Chunk 1: faint splats keep accumulated opacity
    just under 0.5; the first splat of chunk 2 lifts it over 0.5 and the next
    ones saturate every pixel, so the tile stops inside chunk 2 and never
    composites chunk 3."""
    c = ras.CHUNK
    opac = [0.01] * c + [0.9] + [0.99] * (2 * c)
    n = len(opac)
    rng = sc.named_stream(3, "stack")
    scene = sc.GaussianScene(
        np.stack([np.zeros(n), np.zeros(n), 0.01 * np.arange(n)], axis=1).astype(np.float32),
        np.tile(np.array([1, 0, 0, 0], dtype=np.float32), (n, 1)),
        np.full((n, 3), 40.0, dtype=np.float32),
        np.asarray(opac, dtype=np.float32),
        rng.uniform(0, 1, (n, 3)).astype(np.float32),
        rng.standard_normal((n, 4)).astype(np.float32))
    return scene, front_camera(width=16, height=16, focal=20.0)


def test_kernel_carries_transmittance_and_depth_across_chunks():
    c = ras.CHUNK
    scene, cam = stacked_scene()
    n = scene.count
    (_, _, sel, chunks), = ras._tiles(scene, cam)[2]
    assert sel.size == n > 2 * c
    assert len(list(chunks)) == 2

    out = ras.render(scene, cam)
    ref_rgb, ref_feats, _, ref_alpha = reference_render(scene, cam)
    assert np.allclose(out.rgb, ref_rgb, atol=1e-6)
    assert np.allclose(out.features, ref_feats, atol=1e-6)
    assert np.allclose(out.alpha_mask, ref_alpha, atol=1e-6)
    assert (out.alpha_mask > 1 - ras.MIN_TRANSMITTANCE).all()
    # view depth of splat `c`: camera at z=-4, splat at z = 0.01 * c
    assert np.allclose(out.depth, 4.0 + 0.01 * c, atol=1e-5)


def dense_weights(scene, cam):
    """Reference (H*W, N) float64 matrix: each tile's kernel weights (splats x
    pixels) scattered densely, one chunk at a time."""
    w = cam.width
    dense = np.zeros((cam.height * w, scene.count))
    idx, _, tiles = ras._tiles(scene, cam)
    for rows, cols, sel, chunks in tiles:
        pix = (np.arange(rows.start, rows.stop)[:, None] * w
               + np.arange(cols.start, cols.stop)).ravel()
        for chunk, wts in chunks:
            dense[pix[:, None], idx[sel[chunk]]] = wts.T
    return dense


def _tile_weights_reference(px, py, means, conics, opac):
    """`_tile_weights`' earlier formula: (pixels x chunk) blocks over flat pixel
    centres, the quadratic form per pixel, the running product along a row."""
    trans = np.ones(px.size)
    for lo in range(0, opac.size, ras.CHUNK):
        chunk = slice(lo, lo + ras.CHUNK)
        dx = px[:, None] - means[chunk, 0]
        dy = py[:, None] - means[chunk, 1]
        a, b, c = conics[chunk].T
        power = 0.5 * (a * dx * dx + 2.0 * b * dx * dy + c * dy * dy)
        alpha = np.where(power <= 0.5 * ras.CUTOFF_MAHALANOBIS_SQ,
                         np.minimum(ras.ALPHA_CLAMP, opac[chunk] * np.exp(-power)), 0.0)
        t = np.empty((px.size, alpha.shape[1] + 1))
        t[:, 0] = trans
        np.subtract(1.0, alpha, out=t[:, 1:])
        np.multiply.accumulate(t, axis=1, out=t)
        before = t[:, :-1]
        yield chunk, np.where(before >= ras.MIN_TRANSMITTANCE, alpha * before, 0.0)
        trans = t[:, -1]
        if not (trans >= ras.MIN_TRANSMITTANCE).any():
            return


def _composite_reference(scene, cam):
    """(rgb, features, depth, alpha_mask, blocks, weights) by the compositing
    pass's earlier formulas (`_tile_weights_reference`, coverage and depth from
    one running sum per chunk) over `_tiles`' binning; weights lists every
    chunk's float64 (pixels x chunk) block, tile after tile."""
    h, w = cam.height, cam.width
    rgb = np.zeros((h, w, 3), dtype=np.float32)
    feats = np.zeros((h, w, scene.embed_dim), dtype=np.float32)
    depth = np.full((h, w), np.inf, dtype=np.float32)
    alpha = np.zeros((h, w), dtype=np.float32)
    idx, z, tiles = ras._tiles(scene, cam)
    if tiles:
        _, mean2d, cov2d, _ = ras._project_all(scene, cam)
        conic = ras._conics_and_radii(cov2d)[0]
        opac = scene.opacities[idx].astype(np.float64)
    attrs = np.concatenate([scene.colors[idx], scene.embeddings[idx]], axis=1).astype(np.float64)
    blocks, chunk_weights = [], []
    for rows, cols, sel, _ in tiles:
        gy, gx = np.mgrid[rows, cols]
        chunks = _tile_weights_reference(gx.ravel() + 0.5, gy.ravel() + 0.5,
                                         mean2d[sel], conic[sel], opac[sel])
        shape = (rows.stop - rows.start, cols.stop - cols.start)
        out = np.zeros((shape[0] * shape[1], attrs.shape[1]))
        acc = np.zeros(out.shape[0])
        dep = np.full(out.shape[0], np.inf)
        splats, tile_blocks = [], []
        for chunk, wts in chunks:
            s = sel[chunk]
            chunk_weights.append(wts)
            out += wts @ attrs[s]
            run = np.add.accumulate(np.concatenate([acc[:, None], wts], axis=1), axis=1)
            crossed = (acc < ras.DEPTH_ALPHA) & (run[:, -1] >= ras.DEPTH_ALPHA)
            first = np.argmax(run[crossed, 1:] >= ras.DEPTH_ALPHA, axis=1)
            dep[crossed] = z[s][first]
            acc = run[:, -1]
            block = wts.astype(np.float32)
            nonzero = block.any(axis=0)
            splats.append(idx[s[nonzero]])
            tile_blocks.append(block[:, nonzero])
        rgb[rows, cols] = out[:, :3].reshape(*shape, 3)
        feats[rows, cols] = out[:, 3:].reshape(*shape, scene.embed_dim)
        alpha[rows, cols] = acc.reshape(shape)
        depth[rows, cols] = dep.reshape(shape)
        splats = np.concatenate(splats)
        if splats.size:
            pix = (np.arange(rows.start, rows.stop)[:, None] * w
                   + np.arange(cols.start, cols.stop)).ravel()
            blocks.append((pix, splats, np.hstack(tile_blocks)))
    return rgb, feats, depth, alpha, blocks, chunk_weights


def extreme_scales_scene():
    """Sub-pixel splats (3D scale 1e-4, so cov2d is about the low-pass and its
    conic near the largest there is) interleaved in depth with anisotropic,
    rotated splats that fill the view (conic near zero), over more than two
    chunks of one 16x16 tile; faint enough that the tile never saturates."""
    n = 2 * ras.CHUNK + 10
    rng = sc.named_stream(11, "extreme-scales")
    tiny = np.arange(n) % 2 == 0
    z = rng.uniform(-1.0, 1.0, n)
    xy = rng.uniform(-0.3, 0.3, (n, 2)) * (z + 4.0)[:, None]
    quats = rng.standard_normal((n, 4))
    scales = np.where(tiny[:, None], 1e-4, rng.uniform(5.0, 40.0, (n, 3)))
    opac = np.where(tiny, rng.uniform(0.3, 0.99, n), rng.uniform(0.01, 0.06, n))
    scene = sc.GaussianScene(
        np.column_stack([xy, z]).astype(np.float32),
        (quats / np.linalg.norm(quats, axis=1, keepdims=True)).astype(np.float32),
        scales.astype(np.float32), opac.astype(np.float32),
        rng.uniform(0, 1, (n, 3)).astype(np.float32),
        rng.standard_normal((n, 8)).astype(np.float32))
    return scene, front_camera(width=16, height=16, focal=20.0)


def _case(name):
    if name == "extreme-scales":
        return extreme_scales_scene()
    if name == "slab-600":
        scene = sc.generate_toy_scene("textured_slab", 600, 4, embed_dim=8)
        return scene, sc.look_at_camera((0, -2.5, 2.5), (0, 0, 0), 45.0, 32, 32)
    if name == "saturated-stack":
        return stacked_scene()
    if name.startswith("ring-"):
        # ring-40: 40 = 2 * 16 + 8 gives 8-pixel edge tiles; ring-17 a one-pixel
        # corner tile; ring-3000 one camera at render_large's shapes
        n, side, focal = {"ring-40": (400, 40, 90.0), "ring-17": (400, 17, 40.0),
                          "ring-3000": (3000, 96, 180.0)}[name]
        scene = sc.generate_toy_scene("textured_slab", n, 7, embed_dim=8)
        cams = sc.camera_ring((0, 0, 0), 2.6, 8, elevation=1.2, focal=focal,
                              width=side, height=side)
        return scene, cams[1]
    # a camera that sees nothing: the scene is behind it
    return one_gaussian_scene((0, 0, -6.0)), front_camera()


@pytest.mark.parametrize("name", ["slab-600", "saturated-stack", "blind"])
def test_tile_matmul_matches_dense_weights(name):
    scene, cam = _case(name)
    weights = ras.attribute_weights(scene, cam)
    dense = dense_weights(scene, cam)
    rng = sc.named_stream(5, "tile-matmul")
    x = rng.standard_normal((scene.count, 5)).astype(np.float32)
    g = rng.standard_normal((weights.alpha_mask.size, 5)).astype(np.float32)
    xt = dc.Tensor(x, requires_grad=True)
    out = dc.tile_matmul(weights.blocks, weights.alpha_mask.size, xt)
    assert out.data.dtype == np.float32
    assert np.allclose(out.data, dense @ x, rtol=1e-5, atol=1e-6)
    (gx,) = dc.tsum(dc.mul(out, dc.Tensor(g))).backward([xt])
    assert gx.dtype == np.float32
    assert np.allclose(gx, dense.T @ g, rtol=1e-5, atol=1e-5)

    # one block per tile that has weight; within it every splat column is
    # nonzero and no splat repeats, and no two blocks share a pixel
    pixels = np.concatenate([pix for pix, _, _ in weights.blocks] or [np.zeros(0, int)])
    assert np.unique(pixels).size == pixels.size
    for pix, splats, wts in weights.blocks:
        assert np.unique(splats).size == splats.size
        assert wts.shape == (pix.size, splats.size) and wts.dtype == np.float32
        assert wts.any(axis=0).all()
    nonzero = np.count_nonzero(dense.astype(np.float32))
    assert np.count_nonzero(weights) == nonzero
    assert nonzero <= weights.size <= dense.size
    assert weights.nbytes == sum(p.nbytes + s.nbytes + w.nbytes for p, s, w in weights.blocks)
    if name == "saturated-stack":
        # splats behind the point where every pixel saturated get no weight,
        # so they are not in the block
        (_, splats, _), = weights.blocks
        assert splats.size <= 2 * ras.CHUNK < scene.count
        assert not dense[:, 2 * ras.CHUNK:].any()
    if name == "blind":
        assert weights.blocks == [] and weights.nbytes == 0
        assert not out.data.any() and not gx.any()


@pytest.mark.parametrize("name", ["slab-600", "saturated-stack", "ring-40", "ring-17", "blind",
                                  "ring-3000", "extreme-scales"])
def test_composite_bits_match_reference_kernel(name):
    # the kernel's separable quadratic form, pixels-last weights and coverage
    # summed down the splats compute the same floats as the earlier formulas
    scene, cam = _case(name)
    if name == "ring-17":
        corners = [(rows.start, cols.start) for rows, cols, _, _ in ras._tiles(scene, cam)[2]]
        assert (16, 16) in corners
    if name == "extreme-scales":
        # both ends of the conic range reach the one tile, in more than two chunks
        idx, _, tiles = ras._tiles(scene, cam)
        (_, _, sel, _), = tiles
        assert sel.size == scene.count > 2 * ras.CHUNK
        _, _, cov2d, _ = ras._project_all(scene, cam)
        conic = ras._conics_and_radii(cov2d)[0]
        assert conic[:, 0].max() > 3.0 and conic[:, 0].min() < 1e-3
    out = ras.render(scene, cam)
    weights = ras.attribute_weights(scene, cam)
    *maps, blocks, chunk_weights = _composite_reference(scene, cam)
    kernel = [wts for _, _, _, chunks in ras._tiles(scene, cam)[2] for _, wts in chunks]
    assert len(kernel) == len(chunk_weights)
    for wts, ref_wts in zip(kernel, chunk_weights):
        assert wts.T.tobytes() == ref_wts.tobytes()
    for got, want in zip((out.rgb, out.features, out.depth, out.alpha_mask), maps):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert len(weights.blocks) == len(blocks)
    for (pix, splats, wts), (ref_pix, ref_splats, ref_wts) in zip(weights.blocks, blocks):
        assert pix.tobytes() == ref_pix.tobytes()
        assert splats.tobytes() == ref_splats.tobytes()
        assert wts.shape == ref_wts.shape and wts.strides == ref_wts.strides
        assert wts.tobytes() == ref_wts.tobytes()


def _render_digest(names):
    """sha256 over `render`'s maps and `attribute_weights`' blocks for every
    ring camera of each case's scene, one scene object per case. A render
    without features must give the same rgb, depth and coverage bytes."""
    digest = hashlib.sha256()
    for name in names:
        scene, cam = _case(name)
        cams = sc.camera_ring((0, 0, 0), 2.6, 8, elevation=1.2, focal=cam.focal,
                              width=cam.width, height=cam.height) + [cam]
        for c in cams:
            out = ras.render(scene, c)
            for arr in (out.rgb, out.features, out.depth, out.alpha_mask):
                digest.update(arr.tobytes())
            plain = ras.render(scene, c, features=False)
            assert plain.features is None
            assert (plain.rgb.tobytes(), plain.depth.tobytes(), plain.alpha_mask.tobytes()) \
                == (out.rgb.tobytes(), out.depth.tobytes(), out.alpha_mask.tobytes())
            for pix, splats, wts in ras.attribute_weights(scene, c).blocks:
                digest.update(pix.tobytes() + splats.tobytes() + wts.tobytes())
    return digest.hexdigest()


def test_covariances_once_per_scene_keep_render_bits(monkeypatch):
    # the scene's covariances, computed on first use, give every camera the
    # bits it got when each projection recomputed them
    names = ["slab-600", "saturated-stack", "ring-40", "ring-17", "blind"]
    cached = _render_digest(names)
    scene = sc.generate_toy_scene("textured_slab", 50, 3, embed_dim=8)
    assert scene.covariances is scene.covariances

    def per_projection(scene):
        r = sc.quat_matrices(scene.rotations)
        s2 = scene.scales.astype(np.float64) ** 2
        return np.einsum("nij,nj,nkj->nik", r, s2, r)
    monkeypatch.setattr(sc.GaussianScene, "covariances", property(per_projection))
    assert _render_digest(names) == cached


def test_tile_weights_select_rows_renumbers_pixels():
    scene, cam = _case("slab-600")
    weights = ras.attribute_weights(scene, cam)
    mask = weights.alpha_mask.reshape(-1) > 0.6
    assert 0 < mask.sum() < mask.size
    x = sc.named_stream(6, "select").standard_normal((scene.count, 3)).astype(np.float32)
    picked = dc.tile_matmul(weights.select_rows(mask), int(mask.sum()), x).data
    assert np.allclose(picked, tile_product(weights, x)[mask], rtol=1e-6, atol=1e-7)


def test_attribute_weights_memory_is_block_sparse():
    # the train_wide shape: N=2000 at 96x96, where the dense (H*W, N) float32
    # matrix takes 73.7 MB
    import tracemalloc
    scene = sc.generate_toy_scene("textured_slab", 2000, 11, embed_dim=32)
    cam = sc.camera_ring((0, 0, 0), 2.6, 8, elevation=1.2, focal=180.0,
                         width=96, height=96)[0]
    tracemalloc.start()
    try:
        weights = ras.attribute_weights(scene, cam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 << 20
    assert 0 < weights.nbytes < 10 << 20
    assert 0 < np.count_nonzero(weights) <= weights.size


def _weights_views(name):
    """A scene and cameras of one size for a weights file. "wide" (train_wide's
    shapes) has blocks of both memory orders, "ring-17" a one-pixel tile and
    one-column blocks, "facing-away" (test_transfer's pair) a camera that sees
    nothing, and "blind" a camera that sees nothing before ring cameras that
    see one Gaussian."""
    if name == "wide":
        scene = sc.generate_toy_scene("textured_slab", 2000, 11, embed_dim=8)
        return scene, sc.camera_ring((0, 0, 0), 2.6, 8, elevation=1.2, focal=180.0,
                                     width=96, height=96)[:1]
    if name == "facing-away":
        scene = sc.generate_toy_scene("lattice", 27, 5, embed_dim=8)
        return scene, [sc.look_at_camera((0, -4, 1), (0, -8, 1), 50.0, 32, 32),
                       sc.look_at_camera((0, -4, 1), (0, 0, 0), 50.0, 32, 32)]
    scene, cam = _case(name)
    return scene, [cam] + sc.camera_ring((0, 0, 0), 2.6, 8, elevation=1.2, focal=cam.focal,
                                         width=cam.width, height=cam.height)[:2]


@pytest.mark.parametrize("name", ["wide", "slab-600", "saturated-stack", "ring-40", "ring-17",
                                  "facing-away", "blind"])
def test_weights_file_gives_back_the_blocks(tmp_path, name):
    # what `write_weights` writes reads back as `attribute_weights`' blocks,
    # byte for byte and in the same memory order, with the content image
    scene, cams = _weights_views(name)
    path = tmp_path / "w.twts"
    written = list(ras.write_weights(path, scene, cams, "camera.count = 8\n"))
    weights = ras.WeightsFile(path)
    assert (weights.count, weights.cameras) == (scene.count, len(cams))
    assert (weights.height, weights.width) == (cams[0].height, cams[0].width)
    assert weights.digest == ras.geometry_digest(scene)
    assert weights.rig == "camera.count = 8\n"
    read = list(weights)
    assert len(read) == len(cams)
    layouts = set()
    for cam, made, got in zip(cams, written, read):
        want = ras.attribute_weights(scene, cam)
        assert made.rgb.tobytes() == want.rgb.tobytes()
        assert made.alpha_mask.tobytes() == want.alpha_mask.tobytes()
        assert got.rgb.dtype == np.float32 and got.rgb.tobytes() == want.rgb.tobytes()
        assert got.alpha_mask is None
        assert len(got.blocks) == len(want.blocks)
        for block, ref in zip(got.blocks, want.blocks):
            for a, b in zip(block, ref):
                assert (a.dtype, a.shape, a.strides) == (b.dtype, b.shape, b.strides)
                assert a.tobytes() == b.tobytes()
            layouts.add(block[2].strides == (4 * block[2].shape[1], 4))
    if name == "wide":
        assert layouts == {True, False}       # row-major and column-major blocks
    if name in ("facing-away", "blind"):
        assert read[0].blocks == [] and not read[0].rgb.any()


def test_weights_file_holds_one_camera_at_a_time(tmp_path, monkeypatch):
    # each camera taken composites one camera, and the writer holds no weights
    # of an earlier camera, which its caller has dropped, while it composites
    scene, cams = _weights_views("ring-40")
    composite, refs, alive = ras.attribute_weights, [], []

    def counted(*args):
        alive.append(sum(ref() is not None for ref in refs))
        return composite(*args)

    monkeypatch.setattr(ras, "attribute_weights", counted)
    views = ras.write_weights(tmp_path / "w.twts", scene, cams, "")
    for taken in range(1, len(cams) + 1):
        refs.append(weakref.ref(next(views)))
        assert len(alive) == taken
    assert next(views, None) is None
    assert alive == [0] * len(cams)
    assert len(list(ras.WeightsFile(tmp_path / "w.twts"))) == len(cams)
    with pytest.raises(ShapeError):
        list(ras.write_weights(tmp_path / "x.twts", scene, [cams[0], front_camera(32, 16)], ""))


def test_geometry_digest_reads_only_geometry():
    scene = sc.generate_toy_scene("textured_slab", 50, 3, embed_dim=8)
    digest = ras.geometry_digest(scene)
    assert len(digest) == ras.DIGEST_BYTES
    assert ras.geometry_digest(scene.with_colors(1.0 - scene.colors)) == digest
    assert ras.geometry_digest(scene.with_embeddings(scene.embeddings + 1.0)) == digest
    opacities = scene.opacities.copy()
    opacities[7] *= 0.5
    moved = sc.GaussianScene(scene.positions, scene.rotations, scene.scales, opacities,
                             scene.colors, scene.embeddings)
    assert ras.geometry_digest(moved) != digest


def test_warp_identity_is_identity_on_finite_pixels():
    scene = sc.generate_toy_scene("textured_slab", 64, 6, embed_dim=8)
    cam = sc.look_at_camera((0, -1.5, 3.0), (0, 0, 0), 40.0, 32, 32)
    out = ras.render(scene, cam)
    coords, valid = ras.warp_map(cam, cam, out.depth, out.depth)
    finite = np.isfinite(out.depth)
    assert np.array_equal(valid, finite & valid)
    assert valid.sum() > 100
    gy, gx = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
    assert np.allclose(coords[valid][:, 0], gx[valid] + 0.5, atol=1e-4)
    assert np.allclose(coords[valid][:, 1], gy[valid] + 0.5, atol=1e-4)


def test_warp_pure_translation_gives_uniform_shift():
    # fronto-parallel slab, camera translated along +x: du = -f*dx/z everywhere
    slab_z = 5.0
    cam_a = front_camera(width=32, height=32, focal=50.0, pos=(0, 0, 0))
    cam_b = front_camera(width=32, height=32, focal=50.0, pos=(0.4, 0, 0))
    depth = np.full((32, 32), slab_z, dtype=np.float32)
    coords, valid = ras.warp_map(cam_a, cam_b, depth, depth)     # the slab is at z in both views
    gy, gx = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
    du = coords[..., 0] - (gx + 0.5)
    dv = coords[..., 1] - (gy + 0.5)
    want = -50.0 * 0.4 / slab_z
    assert np.allclose(du[valid], want, atol=1e-4)
    assert np.allclose(dv[valid], 0.0, atol=1e-4)


def test_warp_infinite_depth_invalid():
    cam = front_camera(width=8, height=8)
    depth = np.full((8, 8), np.inf, dtype=np.float32)
    depth[4, 4] = 3.0
    _, valid = ras.warp_map(cam, cam, depth, depth)
    assert valid[4, 4]
    assert valid.sum() == 1


def test_ppm_round_trip(tmp_path):
    rng = sc.named_stream(9, "ppm")
    img = rng.uniform(0, 1, size=(5, 7, 3)).astype(np.float32)
    path = tmp_path / "img.ppm"
    ras.write_ppm(path, img)
    back = ras.read_ppm(path)
    assert back.shape == (5, 7, 3)
    assert np.allclose(back, img, atol=1 / 255.0 + 1e-6)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n7 5\n255\n")


def test_fmap_round_trip(tmp_path):
    rng = sc.named_stream(10, "fmap")
    arr = rng.standard_normal((4, 6, 3)).astype(np.float32)
    path = tmp_path / "d.fmap"
    ras.write_fmap(path, arr)
    assert np.array_equal(ras.read_fmap(path), arr)
    with pytest.raises(FormatError):
        bad = tmp_path / "bad.fmap"
        bad.write_bytes(b"XXXX" + b"\x00" * 12)
        ras.read_fmap(bad)


def test_fmap_short_header_names_file(tmp_path):
    bad = tmp_path / "short.fmap"
    bad.write_bytes(b"FMAP" + b"\x01\x00\x00\x00")
    with pytest.raises(FormatError, match="short.fmap"):
        ras.read_fmap(bad)


def test_ppm_header_comments_are_skipped(tmp_path):
    path = tmp_path / "c.ppm"
    pixels = bytes(range(12))
    path.write_bytes(b"P6\n# CREATOR: an editor\n2 2\n# depth\n255\n" + pixels)
    plain = tmp_path / "p.ppm"
    plain.write_bytes(b"P6\n2 2\n255\n" + pixels)
    assert np.array_equal(ras.read_ppm(path), ras.read_ppm(plain))


@pytest.mark.parametrize("raw", [
    b"P6\n2 2\n# no newline ends this comment",   # unterminated header comment
    b"P6\n2 2",                                     # header cut before maxval
    b"P6\n2 2\n255\n" + bytes(11),                # payload one byte short
    b"P6\n2 2\n7\n" + bytes(range(12)),            # samples above maxval
    b"P6\n" + b"9" * 5000 + b" 2\n255\n" + bytes(12),  # width too long for int()
], ids=["comment", "truncated-header", "short-payload", "sample-above-maxval", "long-width"])
def test_malformed_ppm_names_file(tmp_path, raw):
    path = tmp_path / "bad.ppm"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match="bad.ppm"):
        ras.read_ppm(path)


def test_threaded_render_matches_serial():
    scene = sc.generate_toy_scene("lattice", 40, 17, embed_dim=8)
    cam = sc.look_at_camera((0.5, -4, 1.5), (0, 0, 0), 55.0, 64, 64)
    a = ras.render(scene, cam, threads=1)
    b = ras.render(scene, cam, threads=4)
    assert np.array_equal(a.rgb, b.rgb)
    assert np.array_equal(a.depth, b.depth)
