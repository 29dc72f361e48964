import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subflow import rasterizer as ras
from subflow import scene as sc
from subflow import transfer as tr
from subflow.diffcore import Tensor
from subflow.diffcore.rng import named_stream
from subflow.encoders import FeatureEncoders
from subflow.errors import ShapeError


def _views(scene, cams):
    """What `distill_embeddings` takes: each camera's compositing weights."""
    return [ras.attribute_weights(scene, cam) for cam in cams]


@pytest.fixture(scope="module")
def encoders():
    return FeatureEncoders(seed=0)


@pytest.fixture(scope="module")
def distilled(encoders):
    scene = sc.generate_toy_scene("lattice", 64, 3, embed_dim=16)
    cams = sc.camera_ring((0, 0, 0), 4.5, 3, elevation=0.5, width=48, height=48, focal=50)
    return tr.distill_embeddings(scene, _views(scene, cams), encoders, steps=700, seed=1)


# -- adain -------------------------------------------------------------------

def test_adain_identity_when_style_equals_content():
    g = named_stream(1, "adain-id")
    e = g.standard_normal((50, 8))
    style = tr.StyleStats(e.mean(axis=0), e.std(axis=0))
    out = tr.adain(e, style).values
    assert np.allclose(out, e, atol=1e-5)


def test_adain_hand_column():
    e = np.array([[1.0], [2.0], [3.0]])
    out = tr.adain(e, tr.StyleStats([0.0], [1.0])).values
    want = np.array([-1.2247449, 0.0, 1.2247449])
    assert np.allclose(out[:, 0], want, atol=1e-5)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_adain_moment_identity(seed):
    g = named_stream(seed, "adain-prop")
    n = int(g.integers(2, 60))
    d = int(g.integers(1, 12))
    e = g.standard_normal((n, d)) * g.uniform(0.5, 3.0) + g.uniform(-2, 2)
    mu = g.standard_normal(d)
    sigma = g.uniform(0.1, 2.0, size=d)
    out = tr.adain(e, tr.StyleStats(mu, sigma)).values
    assert np.abs(out.mean(axis=0) - mu).max() < 1e-5
    assert np.abs(out.std(axis=0) - sigma).max() < 1e-5


def test_adain_degenerate_channel_flagged():
    e = np.array([[1.0, 5.0], [1.0, 7.0], [1.0, 6.0]])
    res = tr.adain(e, tr.StyleStats([0.0, 0.0], [1.0, 1.0]))
    assert res.degenerate.tolist() == [True, False]
    assert np.all(np.isfinite(res.values))


def test_adain_requires_two_rows_and_matching_dim():
    with pytest.raises(ShapeError):
        tr.adain(np.ones((1, 4)), tr.StyleStats(np.zeros(4), np.ones(4)))
    with pytest.raises(ShapeError):
        tr.adain(np.ones((3, 4)), tr.StyleStats(np.zeros(5), np.ones(5)))


# -- stats_from_feature ------------------------------------------------------------

def test_stats_from_identical_rows_floors_sigma():
    stats = tr.StyleStats(np.array([1.0, -2.0]), np.zeros(2))
    assert np.allclose(stats.mu, [1.0, -2.0])
    assert np.all(stats.sigma == tr.EPSILON_STD)


def test_stats_from_vector_split_softplus():
    vec = np.concatenate([np.array([3.0, -1.0]), np.zeros(2)])
    stats = tr.stats_from_feature(vec)
    assert np.allclose(stats.mu, [3.0, -1.0])
    assert np.allclose(stats.sigma, np.log(2.0), atol=1e-6)  # softplus(0)=0.6931


def test_stats_from_odd_vector_rejected():
    with pytest.raises(ShapeError, match="even"):
        tr.stats_from_feature(np.zeros(5))


# -- distillation ---------------------------------------------------------------------

def test_distill_reconstruction_target(distilled):
    _, _, report = distilled
    assert report.reconstruction_mse < 1e-3


def test_distill_projection_loss_decreases(distilled):
    _, _, report = distilled
    assert report.projection_mse_last < report.projection_mse_first


def test_distill_keeps_scene_and_varies_embeddings(distilled):
    # the input scene with new embeddings that are not all equal, which is how
    # `cli` tells a distilled scene from a raw one
    ds, _, _ = distilled
    scene = sc.generate_toy_scene("lattice", 64, 3, embed_dim=16)
    for name in ("positions", "rotations", "scales", "opacities", "colors"):
        assert getattr(ds, name).tobytes() == getattr(scene, name).tobytes()
    assert not np.all(ds.embeddings == ds.embeddings[0])


def test_distill_zero_steps_keeps_init(encoders):
    scene = sc.generate_toy_scene("lattice", 27, 5, embed_dim=8)
    cams = [sc.look_at_camera((0, -4, 1), (0, 0, 0), 50.0, 32, 32)]
    ds, _, _ = tr.distill_embeddings(scene, _views(scene, cams), encoders, steps=0, seed=2)
    assert np.array_equal(ds.embeddings, tr.initial_embeddings(scene.colors, 8))


def test_distill_equal_colors_equal_embeddings_recon_only(encoders):
    # symmetric pair of Gaussians with identical colors; the camera faces away from
    # the scene, so objective (b) has no target and only reconstruction trains
    base = sc.generate_toy_scene("lattice", 8, 7, embed_dim=8)
    colors = base.colors.copy()
    colors[1] = colors[0]
    colors[5] = colors[4]
    scene = base.with_colors(colors)
    cams = [sc.look_at_camera((0, -4, 1), (0, -8, 1), 50.0, 32, 32)]
    ds, _, report = tr.distill_embeddings(scene, _views(scene, cams), encoders, steps=150, seed=3)
    assert np.isnan(report.projection_mse_last)
    assert np.array_equal(ds.embeddings[0], ds.embeddings[1])
    assert np.array_equal(ds.embeddings[4], ds.embeddings[5])


def test_distill_camera_that_sees_nothing_has_no_projection_term(encoders):
    scene = sc.generate_toy_scene("lattice", 27, 5, embed_dim=8)
    away = sc.look_at_camera((0, -4, 1), (0, -8, 1), 50.0, 32, 32)   # the scene is behind it
    _, _, blind = tr.distill_embeddings(scene, _views(scene, [away]), encoders, steps=3, seed=2)
    assert np.isnan(blind.projection_mse_first) and np.isnan(blind.projection_mse_last)
    seeing = sc.look_at_camera((0, -4, 1), (0, 0, 0), 50.0, 32, 32)
    _, _, mixed = tr.distill_embeddings(scene, _views(scene, [away, seeing]), encoders,
                                        steps=6, seed=2)
    assert np.isfinite(mixed.projection_mse_last)


def test_distill_requires_cameras(encoders):
    scene = sc.generate_toy_scene("lattice", 8, 1, embed_dim=8)
    with pytest.raises(ShapeError):
        tr.distill_embeddings(scene, [], encoders)


# -- stylize_scene ---------------------------------------------------------------------------

def test_decoder_refuses_rows_of_another_width():
    decoder = tr.DecoderNet(4, hidden=(8,), seed=0)
    with pytest.raises(ShapeError, match="dim"):
        decoder.decode(np.zeros((2, 6), dtype=np.float32))
    with pytest.raises(ShapeError, match="rows of dim 4"):     # one vector is not rows
        decoder.decode(np.zeros(4, dtype=np.float32))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_decode_matches_forward_bits(dtype):
    # scaled rows saturate some float32 colors at 0 and 1; exp overflows to inf at 0
    decoder = tr.DecoderNet(4, hidden=(8,), seed=0)
    rows = (20.0 * named_stream(2, "decode-rows").standard_normal((37, 4))).astype(dtype)
    with np.errstate(over="ignore"):
        want = decoder.forward(Tensor(rows)).data
        got = decoder.decode(rows)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def style_for(dim, seed=9):
    g = named_stream(seed, "style")
    return tr.StyleStats(g.standard_normal(dim), g.uniform(0.3, 1.5, size=dim))


def test_stylize_identity_style_reproduces_colors(distilled):
    ds, decoder, report = distilled
    content_stats = tr.StyleStats(ds.embeddings.mean(axis=0), ds.embeddings.std(axis=0))
    out = tr.stylize_scene(ds, content_stats, decoder)
    err = float(((out.colors - ds.colors) ** 2).mean())
    assert err <= 4.0 * max(report.reconstruction_mse, 1e-5)


def test_stylize_geometry_bytes_identical(distilled):
    ds, decoder, _ = distilled
    out = tr.stylize_scene(ds, style_for(ds.embed_dim), decoder)
    assert out.positions.tobytes() == ds.positions.tobytes()
    assert out.rotations.tobytes() == ds.rotations.tobytes()
    assert out.scales.tobytes() == ds.scales.tobytes()
    assert out.opacities.tobytes() == ds.opacities.tobytes()
    assert np.array_equal(out.embeddings, ds.embeddings)


def test_stylize_idempotent_for_fixed_style(distilled):
    ds, decoder, _ = distilled
    style = style_for(ds.embed_dim, seed=21)
    a = tr.stylize_scene(ds, style, decoder)
    b = tr.stylize_scene(ds, style, decoder)
    assert np.array_equal(a.colors, b.colors)


def test_stylize_output_passes_invariants(distilled):
    ds, decoder, _ = distilled
    out = tr.stylize_scene(ds, style_for(ds.embed_dim, seed=22), decoder)
    out.validate()
    assert np.all(out.colors >= 0) and np.all(out.colors <= 1)
