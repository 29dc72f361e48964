import numpy as np
import pytest

from subflow import scene as sc
from subflow.errors import FormatError, ShapeError


def small_scene(n=2, d=8, seed=1):
    return sc.generate_toy_scene("lattice", n, seed, embed_dim=d)


def test_gscn_round_trip_bit_identical(tmp_path):
    scene = small_scene(n=2, d=16, seed=3)
    path = tmp_path / "s.gscn"
    sc.save_scene(scene, path)
    loaded = sc.load_scene(path)
    for field in ("positions", "rotations", "scales", "opacities", "colors", "embeddings"):
        assert np.array_equal(getattr(scene, field), getattr(loaded, field)), field


def test_gscn_truncated_reports_offset(tmp_path):
    scene = small_scene(n=3, d=8)
    path = tmp_path / "s.gscn"
    sc.save_scene(scene, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(FormatError, match=str(len(raw) - 5)):
        sc.load_scene(path)


def test_gscn_bad_magic(tmp_path):
    path = tmp_path / "bad.gscn"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(FormatError, match="magic"):
        sc.load_scene(path)


def test_gscn_header_payload_mismatch(tmp_path):
    # header says D=16 but payload laid out for D=8
    scene = small_scene(n=2, d=8)
    path = tmp_path / "s.gscn"
    sc.save_scene(scene, path)
    raw = bytearray(path.read_bytes())
    import struct
    struct.pack_into("<I", raw, 12, 16)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="D=16"):
        sc.load_scene(path)


def test_toy_scene_deterministic():
    a = sc.generate_toy_scene("lattice", 8, 7)
    b = sc.generate_toy_scene("lattice", 8, 7)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.colors, b.colors)
    assert np.array_equal(a.rotations, b.rotations)


def test_toy_scene_rejects_zero():
    with pytest.raises(ShapeError):
        sc.generate_toy_scene("lattice", 0, 1)


def test_two_clusters_are_separated():
    scene = sc.generate_toy_scene("two_clusters", 100, 5)
    x = scene.positions[:, 0]
    left, right = scene.positions[x < 0], scene.positions[x > 0]
    gap = np.linalg.norm(left.mean(axis=0) - right.mean(axis=0))
    spread = max(left.std(axis=0).max(), right.std(axis=0).max())
    assert gap > 5 * spread


@pytest.mark.parametrize("kind", sc.TOY_SCENE_KINDS)
def test_toy_scene_invariants_and_color_range(kind):
    scene = sc.generate_toy_scene(kind, 64, 11)
    scene.validate()
    rng = scene.colors.max(axis=0) - scene.colors.min(axis=0)
    assert np.all(rng >= 0.5), f"{kind} color range {rng}"


def test_covariance_eigenvalues_equal_scale_squared():
    scene = sc.generate_toy_scene("lattice", 10, 9)
    covs = scene.covariances
    for cov, scale in zip(covs, scene.scales):
        eig = np.sort(np.linalg.eigvalsh(cov))
        want = np.sort(scale.astype(np.float64) ** 2)
        assert np.allclose(eig, want, atol=1e-5)


def test_covariance_is_spd():
    scene = sc.generate_toy_scene("two_clusters", 12, 2)
    for cov in scene.covariances:
        assert np.allclose(cov, cov.T, atol=1e-6)
        assert np.all(np.linalg.eigvalsh(cov) > 0)


def test_quat_matrices_match_per_quaternion_matrices():
    q = sc.generate_toy_scene("lattice", 10, 9).rotations
    stacked = sc.quat_matrices(q)
    assert stacked.shape == (10, 3, 3) and stacked.dtype == np.float64
    for qi, r in zip(q, stacked):
        assert np.array_equal(sc.quat_to_matrix(qi), r.astype(np.float32))
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-6)


@pytest.mark.parametrize("field", ["positions", "rotations", "scales", "opacities",
                                   "colors", "embeddings"])
def test_validate_rejects_non_finite_fields(field):
    scene = small_scene(n=3, d=8)
    arrays = {name: getattr(scene, name).copy() for name in
              ("positions", "rotations", "scales", "opacities", "colors", "embeddings")}
    arrays[field].reshape(-1)[1] = np.nan
    with pytest.raises(ShapeError, match=f"{field} holds non-finite"):
        sc.GaussianScene(**arrays)


def test_gscn_with_nan_position_names_file(tmp_path):
    scene = small_scene(n=2, d=8)
    path = tmp_path / "nan.gscn"
    sc.save_scene(scene, path)
    raw = bytearray(path.read_bytes())
    raw[16:20] = np.float32(np.nan).tobytes()   # first record, position x
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="nan.gscn.*positions"):
        sc.load_scene(path)


def test_camera_ring_count_and_distance():
    cams = sc.camera_ring((0, 0, 0), 4.0, 4)
    assert len(cams) == 4
    for cam in cams:
        assert np.linalg.norm(cam.position) == pytest.approx(4.0, rel=1e-5)


def test_camera_ring_consecutive_separation_90deg():
    cams = sc.camera_ring((0, 0, 0), 2.0, 4)
    a, b = cams[0].position, cams[1].position
    cosang = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
    assert cosang == pytest.approx(0.0, abs=1e-5)


def test_camera_ring_long_range_is_antipodal():
    cams = sc.camera_ring((1.0, -2.0, 0.5), 3.0, 8)
    center = np.array([1.0, -2.0, 0.5])
    a, b = cams[0].position - center, cams[4].position - center
    cosang = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
    assert cosang == pytest.approx(-1.0, abs=1e-5)


def test_camera_ring_rejects_small_count():
    with pytest.raises(ShapeError):
        sc.camera_ring((0, 0, 0), 1.0, 1)


def test_cameras_look_at_center():
    center = np.array([0.5, 0.5, 0.0])
    for cam in sc.camera_ring(center, 3.0, 6, elevation=0.7):
        fwd = cam.rotation_camera_to_world()[:, 2]
        want = center - cam.position
        want = want / np.linalg.norm(want)
        assert np.allclose(fwd, want, atol=1e-5)


def test_camera_validation():
    with pytest.raises(ShapeError):
        sc.Camera(np.zeros(3), np.array([1, 0, 0, 0], dtype=np.float32),
                  50.0, 0, 32)


def test_opacity_clamped_at_load(tmp_path):
    scene = small_scene(n=2, d=8)
    path = tmp_path / "s.gscn"
    sc.save_scene(scene, path)
    raw = bytearray(path.read_bytes())
    import struct
    # opacity of record 0 sits at offset 16 + 10 floats
    struct.pack_into("<f", raw, 16 + 4 * 10, 1.7)
    path.write_bytes(bytes(raw))
    loaded = sc.load_scene(path)
    assert loaded.opacities[0] == pytest.approx(1.0)


@pytest.mark.parametrize("case", ["nan", "above-one", "below-zero", "shape", "embed-nan",
                                  "embed-rows"])
def test_replaced_field_is_checked(case):
    # with_colors and with_embeddings check the array they replace
    scene = small_scene(n=5, d=8)
    colors, embeddings = scene.colors.copy(), scene.embeddings.copy()
    if case == "nan":
        colors[2, 1] = np.nan
    elif case == "above-one":
        colors[0, 0] = 1.5
    elif case == "below-zero":
        colors[4, 2] = -0.1
    elif case == "shape":
        colors = colors[:4]
    elif case == "embed-nan":
        embeddings[3, 5] = np.inf
    else:
        embeddings = embeddings[:, None]
    message = {"nan": "colors holds non-finite", "above-one": r"colors must lie in \[0, 1\]",
               "below-zero": r"colors must lie in \[0, 1\]", "shape": "colors has shape",
               "embed-nan": "embeddings holds non-finite", "embed-rows": "embeddings shape"}[case]
    with pytest.raises(ShapeError, match=message):
        if case.startswith("embed"):
            scene.with_embeddings(embeddings)
        else:
            scene.with_colors(colors)


def test_with_colors_preserves_geometry_bytes():
    scene = small_scene(n=5, d=8)
    new = scene.with_colors(np.full((5, 3), 0.25, dtype=np.float32))
    assert scene.positions.tobytes() == new.positions.tobytes()
    assert scene.rotations.tobytes() == new.rotations.tobytes()
    assert scene.scales.tobytes() == new.scales.tobytes()
    assert scene.opacities.tobytes() == new.opacities.tobytes()
