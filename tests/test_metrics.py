import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subflow import metrics as mt
from subflow import rasterizer as ras
from subflow import scene as sc
from subflow.errors import NumericsError, ShapeError


def fs(rows):
    return np.asarray(rows, dtype=np.float32)


# -- cosine similarity ---------------------------------------------------------

def test_cosine_identical_sets_is_one():
    rows = sc.named_stream(1, "cos").standard_normal((10, 4))
    assert mt.cosine_sim(fs(rows), fs(rows)) == pytest.approx(1.0, abs=1e-6)


def test_cosine_orthogonal_rows_zero():
    a = np.tile([1.0, 0.0], (5, 1))
    b = np.tile([0.0, 2.0], (5, 1))
    assert mt.cosine_sim(fs(a), fs(b)) == pytest.approx(0.0, abs=1e-7)


def test_cosine_negated_is_minus_one():
    rows = sc.named_stream(2, "cos2").standard_normal((7, 3))
    assert mt.cosine_sim(fs(rows), fs(-rows)) == pytest.approx(-1.0, abs=1e-6)


def test_cosine_zero_rows_contribute_zero():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([[1.0, 0.0], [1.0, 1.0]])
    assert mt.cosine_sim(fs(a), fs(b)) == pytest.approx(0.5, abs=1e-6)


def test_cosine_count_mismatch():
    with pytest.raises(ShapeError, match="row counts"):
        mt.cosine_sim(fs(np.ones((2, 2))), fs(np.ones((3, 2))))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 20))
def test_cosine_invariant_to_positive_row_rescaling(seed):
    g = sc.named_stream(seed, "cos-scale")
    rows_a = g.standard_normal((6, 5))
    rows_b = g.standard_normal((6, 5))
    scales = g.uniform(0.1, 10.0, size=(6, 1))
    base = mt.cosine_sim(fs(rows_a), fs(rows_b))
    scaled = mt.cosine_sim(fs(rows_a * scales), fs(rows_b))
    assert scaled == pytest.approx(base, abs=1e-5)


# -- Frechet distance ------------------------------------------------------------

def test_frechet_identical_sets_zero():
    rows = sc.named_stream(3, "fd").standard_normal((64, 6))
    assert mt.frechet_distance(fs(rows), fs(rows)) == pytest.approx(0.0, abs=1e-6)


def test_frechet_mean_shift_closed_form():
    g = sc.named_stream(4, "fd2")
    rows = g.standard_normal((200, 5))
    delta = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
    got = mt.frechet_distance(fs(rows), fs(rows + delta))
    assert got == pytest.approx(float((delta ** 2).sum()), abs=1e-5)


def test_frechet_1d_unequal_variance_closed_form():
    # sample sets built to have unbiased variances exactly 1 and 4, equal means
    a = np.array([[-np.sqrt(0.5)], [np.sqrt(0.5)]])
    b = np.array([[-np.sqrt(2.0)], [np.sqrt(2.0)]])
    got = mt.frechet_distance(fs(a), fs(b))
    assert got == pytest.approx(1.0, abs=1e-5)  # (sigma_a - sigma_b)^2 = (1-2)^2


def test_frechet_symmetric():
    g = sc.named_stream(5, "fd3")
    a, b = g.standard_normal((50, 4)), g.standard_normal((50, 4)) * 2 + 1
    assert mt.frechet_distance(fs(a), fs(b)) == pytest.approx(
        mt.frechet_distance(fs(b), fs(a)), abs=1e-6)


def test_frechet_dim_mismatch():
    with pytest.raises(ShapeError):
        mt.frechet_distance(fs(np.ones((4, 2))), fs(np.ones((4, 3))))


def test_gaussian_fit_is_psd_even_for_tiny_sets():
    _, cov = mt.fit_gaussian(fs(np.ones((1, 3))))
    assert np.all(np.linalg.eigvalsh(cov) >= 0)
    _, cov2 = mt.fit_gaussian(fs(np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])))
    assert np.allclose(cov2, cov2.T)
    assert np.all(np.linalg.eigvalsh(cov2) >= -1e-12)


# -- masked RMSE --------------------------------------------------------------------

def identity_warp(h, w):
    gy, gx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    coords = np.stack([gx + 0.5, gy + 0.5], axis=-1).astype(np.float32)
    return coords, np.ones((h, w), dtype=bool)


def test_masked_rmse_identity_same_image_zero():
    img = sc.named_stream(6, "rmse").uniform(0, 1, size=(8, 8, 3))
    coords, valid = identity_warp(8, 8)
    rep = mt.masked_rmse(img, img, coords, valid)
    assert rep.masked_rmse == pytest.approx(0.0, abs=1e-9)
    assert rep.valid_pixel_fraction == 1.0


def test_masked_rmse_uniform_offset():
    img = sc.named_stream(7, "rmse2").uniform(0.2, 0.6, size=(8, 8, 3))
    coords, valid = identity_warp(8, 8)
    rep = mt.masked_rmse(img + 0.1, img, coords, valid)
    assert rep.masked_rmse == pytest.approx(0.1, abs=1e-6)


def test_masked_rmse_no_valid_pixels():
    img = np.zeros((4, 4, 3))
    coords, valid = identity_warp(4, 4)
    with pytest.raises(NumericsError):
        mt.masked_rmse(img, img, coords, np.zeros((4, 4), dtype=bool))


def test_masked_rmse_translated_slab_render():
    scene = sc.generate_toy_scene("textured_slab", 576, 19, embed_dim=8)
    cam_a = sc.look_at_camera((0.15, 0.0, 3.0), (0.15, 0.0, 0.0), 55.0, 48, 48)
    cam_b = sc.look_at_camera((-0.15, 0.0, 3.0), (-0.15, 0.0, 0.0), 55.0, 48, 48)
    out_a = ras.render(scene, cam_a)
    out_b = ras.render(scene, cam_b)
    coords, valid = ras.warp_map(cam_a, cam_b, out_a.depth, out_b.depth)
    rep = mt.masked_rmse(out_a.rgb, out_b.rgb, coords, valid)
    assert rep.valid_pixel_fraction > 0.5
    assert rep.masked_rmse < 0.02


# -- consistency protocol ----------------------------------------------------------------

def test_eval_consistency_report_count_and_ranges(monkeypatch):
    scene = sc.generate_toy_scene("textured_slab", 400, 23, embed_dim=8)
    cams = sc.camera_ring((0, 0, 0), 3.5, 8, elevation=0.9, focal=55.0,
                          width=48, height=48)
    asked = []
    render = ras.render

    def recorded(*args, **kwargs):
        out = render(*args, **kwargs)
        asked.append(out.features is not None)
        return out
    monkeypatch.setattr(ras, "render", recorded)
    reports = mt.eval_consistency(scene, cams)
    assert asked == [False] * 8     # the protocol reads rgb and depth only
    shorts = [r for r in reports if r.range == "short"]
    longs = [r for r in reports if r.range == "long"]
    assert len(shorts) == 8
    assert len(longs) == 4
    assert len(reports) == 12
    summary = mt.consistency_summary(reports)
    assert summary["short"] < 0.05
    assert summary["short"] <= summary["long"] + 0.05


def test_masked_rmse_invariant_under_shared_rigid_transform():
    def quat_mul(a, b):
        w1, x1, y1, z1 = a
        w2, x2, y2, z2 = b
        return np.array([
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2], dtype=np.float32)

    # lattice positions carry jitter, so no two overlapping splats share an
    # exact view depth; compositing order is then well-defined under the
    # transform (a perfectly coplanar slab has depth ties with no canonical
    # order, and reordering equal-depth splats changes colors legitimately)
    scene = sc.generate_toy_scene("lattice", 144, 29, embed_dim=8)
    cams = sc.camera_ring((0, 0, 0), 3.4, 4, elevation=0.8, focal=60.0, width=32, height=32)

    q_rig = sc.quat_normalize(np.array([0.9, 0.1, -0.2, 0.3]))
    r_rig = sc.quat_to_matrix(q_rig)
    t_rig = np.array([0.5, -1.0, 2.0], dtype=np.float32)

    moved = sc.GaussianScene(
        scene.positions @ r_rig.T + t_rig,
        np.stack([quat_mul(q_rig, q) for q in scene.rotations]),
        scene.scales, scene.opacities, scene.colors, scene.embeddings)
    moved_cams = [sc.Camera(
        position=(c.position @ r_rig.T + t_rig).astype(np.float32),
        orientation=quat_mul(q_rig, c.orientation),
        focal=c.focal, width=c.width, height=c.height)
        for c in cams]

    def report(scn, cs):
        out_a, out_b = ras.render(scn, cs[0]), ras.render(scn, cs[1])
        coords, valid = ras.warp_map(cs[0], cs[1], out_a.depth, out_b.depth)
        return mt.masked_rmse(out_a.rgb, out_b.rgb, coords, valid)

    base = report(scene, cams)
    transformed = report(moved, moved_cams)
    assert transformed.masked_rmse == pytest.approx(base.masked_rmse, abs=2e-4)
    assert transformed.valid_pixel_fraction == pytest.approx(
        base.valid_pixel_fraction, abs=5e-3)


def test_eval_consistency_needs_four_cameras():
    scene = sc.generate_toy_scene("lattice", 8, 1, embed_dim=8)
    cams = sc.camera_ring((0, 0, 0), 3.0, 2)
    with pytest.raises(ShapeError):
        mt.eval_consistency(scene, cams)


def test_metrics_csv_rows(tmp_path):
    text = mt.write_csv(tmp_path / "metrics.csv", mt.METRIC_COLUMNS,
                        [("sim", "round1", 0.5), ("rmse", "short", 0.0213)])
    lines = text.strip().splitlines()
    assert lines[0] == "metric,range_or_round,value"
    assert lines[1] == "sim,round1,0.5"
    assert lines[2] == "rmse,short,0.0213"
