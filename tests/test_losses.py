import copy

import numpy as np
import pytest

from subflow import losses as ls
from subflow import metrics as mt
from subflow import transfer as tr
from subflow.diffcore import Tensor
from subflow.diffcore.rng import named_stream
from subflow.encoders import procedural_texture
from subflow.errors import ShapeError

from gradcheck import finite_diff_max_rel_error


def rand_img(seed, size=32):
    return named_stream(seed, "loss-img").uniform(0, 1, size=(size, size, 3)).astype(np.float32)


# -- content loss -----------------------------------------------------------------

def test_content_loss_identical_images_zero(session_encoders):
    img = rand_img(1)
    assert ls.content_loss(img, img, session_encoders).item() == pytest.approx(0.0, abs=1e-10)


def test_content_loss_symmetric(session_encoders):
    a, b = rand_img(2), rand_img(3)
    ab = ls.content_loss(a, b, session_encoders).item()
    ba = ls.content_loss(b, a, session_encoders).item()
    assert ab == pytest.approx(ba, rel=1e-6)


def test_content_loss_matches_bruteforce(session_encoders):
    a, b = rand_img(4), rand_img(5)
    got = ls.content_loss(a, b, session_encoders).item()
    fa = session_encoders.tap_features(a)[-1].data
    fb = session_encoders.tap_features(b)[-1].data
    want = float(((fa - fb) ** 2).mean())
    assert got == pytest.approx(want, rel=1e-5)


def test_content_loss_resolution_mismatch(session_encoders):
    with pytest.raises(ShapeError, match="resolution"):
        ls.content_loss(rand_img(6, 32), rand_img(6, 64), session_encoders)


# -- style loss --------------------------------------------------------------------

def test_style_loss_zero_when_stats_match(session_encoders):
    img = rand_img(7)
    ref = session_encoders.tap_stats(img)
    assert ls.style_loss(img, ref, session_encoders).item() == pytest.approx(0.0, abs=1e-8)


def test_style_loss_quadratic_in_mean_gap(session_encoders):
    img = rand_img(8)
    ref = session_encoders.tap_stats(img)
    base = [(m.copy(), s.copy()) for m, s in ref]
    gap = np.zeros_like(base[0][0])
    gap[0] = 0.1
    ref1 = [(base[0][0] + gap, base[0][1])] + base[1:]
    ref2 = [(base[0][0] + 2 * gap, base[0][1])] + base[1:]
    l1 = ls.style_loss(img, ref1, session_encoders).item()
    l2 = ls.style_loss(img, ref2, session_encoders).item()
    assert l2 == pytest.approx(4 * l1, rel=1e-4)


def test_style_loss_matches_bruteforce(session_encoders):
    img, ref_img = rand_img(9), rand_img(10)
    ref = session_encoders.tap_stats(ref_img)
    got = ls.style_loss(img, ref, session_encoders).item()
    want = 0.0
    for (m, s), (mr, sr) in zip(session_encoders.tap_stats(img), ref):
        want += float(((m - mr) ** 2).sum() + ((s - sr) ** 2).sum())
    assert got == pytest.approx(want, rel=1e-4)


def test_style_loss_missing_tap(session_encoders):
    img = rand_img(11)
    ref = session_encoders.tap_stats(img)[:-1]
    with pytest.raises(ShapeError, match="taps"):
        ls.style_loss(img, ref, session_encoders)


# -- 2D generator prior -------------------------------------------------------------

def test_decoder2d_from_params_holds_them():
    fresh = ls.Decoder2D(channels=8, seed=2)
    assert [p.data.shape for p in fresh.parameters()] == ls.Decoder2D.shapes(8)
    rng = named_stream(4, "decoder2d-params")
    arrays = [rng.standard_normal(s).astype(np.float32) for s in ls.Decoder2D.shapes(8)]
    dec = ls.Decoder2D(channels=8, params=arrays)
    assert all(p.data is a and p.requires_grad for p, a in zip(dec.parameters(), arrays))


def test_generator_2d_identity_style_reproduces_content(session_encoders, session_decoder2d):
    content = procedural_texture(31, 0)
    i_g = ls.generator_2d(content, session_encoders.tap_stats(content)[ls.GENERATOR_TAP],
                          session_encoders, session_decoder2d)
    recon = session_decoder2d.decode(
        session_encoders.tap_features(content)[ls.GENERATOR_TAP].data)
    err_gen = float(((i_g - content) ** 2).mean())
    err_rec = float(((recon - content) ** 2).mean())
    assert err_gen <= 1.5 * err_rec + 1e-4


def test_generator_2d_matches_style_tap_stats(session_encoders, session_decoder2d):
    content = procedural_texture(31, 1)
    style = procedural_texture(31, 2)
    style_stats = session_encoders.tap_stats(style)[ls.GENERATOR_TAP]
    i_g = ls.generator_2d(content, style_stats, session_encoders, session_decoder2d)
    got = np.concatenate(session_encoders.tap_stats(i_g)[ls.GENERATOR_TAP])
    want = np.concatenate(style_stats)
    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert rel <= 0.10


def test_generator_2d_deterministic(session_encoders, session_decoder2d):
    a, b = (ls.generator_2d(rand_img(12, 64),
                            session_encoders.tap_stats(rand_img(13, 64))[ls.GENERATOR_TAP],
                            session_encoders, session_decoder2d) for _ in range(2))
    assert np.array_equal(a, b)


# -- observation loss -----------------------------------------------------------------

def test_observation_loss_zero_on_identical(session_encoders):
    img = rand_img(16)
    assert ls.observation_loss(img, img, session_encoders).item() == pytest.approx(0.0, abs=1e-10)


def test_observation_loss_dominates_deepest_tap_content(session_encoders):
    a, b = rand_img(17), rand_img(18)
    obs = ls.observation_loss(a, b, session_encoders).item()
    content = ls.content_loss(a, b, session_encoders).item()
    assert obs >= content


def test_observation_loss_matches_bruteforce(session_encoders):
    a, b = rand_img(19), rand_img(20)
    got = ls.observation_loss(a, b, session_encoders).item()
    want = 0.0
    for fa, fb in zip(session_encoders.tap_features(a), session_encoders.tap_features(b)):
        want += float(((fa.data - fb.data) ** 2).mean())
    assert got == pytest.approx(want, rel=1e-5)


# -- suppression loss ---------------------------------------------------------------------

class StubDisc:
    def __init__(self, g_score, f_score, scales=2):
        self.calls = 0
        self.g_score, self.f_score, self.scales = g_score, f_score, scales

    def score_scales(self, image):
        # first call scores the prior, later calls the render
        self.calls += 1
        val = self.g_score if self.calls == 1 else self.f_score
        return [Tensor(np.array(val, dtype=np.float64)) for _ in range(self.scales)]


def test_suppression_half_scores_closed_form():
    disc = ls.DiscriminatorNet(seed=0)
    for p in disc.parameters():
        p.data = np.zeros_like(p.data)  # conv outputs 0 -> sigmoid exactly 0.5
    img = rand_img(21, 32)
    disc_loss, gen_signal = ls.suppression_loss(img, Tensor(np.transpose(img, (2, 0, 1))), disc)
    assert disc_loss.item() == pytest.approx(-2 * np.log(0.5), abs=1e-6)  # 1.3863
    assert gen_signal.item() == pytest.approx(-np.log(0.5), abs=1e-6)


def test_suppression_perfect_discriminator_limit():
    disc = StubDisc(g_score=1.0, f_score=0.0, scales=3)
    img = rand_img(22, 32)
    disc_loss, _ = ls.suppression_loss(img, img, disc)
    assert 0.0 <= disc_loss.item() < 1e-5  # clamped at the 1e-7 floor


def test_suppression_gen_signal_monotone():
    img = rand_img(23, 32)
    lo = ls.suppression_loss(img, img, StubDisc(0.5, 0.3))[1].item()
    hi = ls.suppression_loss(img, img, StubDisc(0.5, 0.7))[1].item()
    assert hi < lo


# -- weights and bounds ----------------------------------------------------------------------

def test_loss_weights_validate():
    with pytest.raises(ShapeError):
        ls.LossWeights(lambda_style=-1.0)


def test_loss_bounds(session_encoders):
    a, b = rand_img(25), rand_img(26)
    assert ls.content_loss(a, b, session_encoders).item() >= 0.0
    assert ls.style_loss(a, session_encoders.tap_stats(b), session_encoders).item() >= 0.0
    assert ls.observation_loss(a, b, session_encoders).item() >= 0.0
    # suppression terms are bounded below by the log clamp
    floor = -2.0 * np.log(1.0 - ls.LOG_CLAMP)
    disc_loss, gen_signal = ls.suppression_loss(a, a, StubDisc(1.0, 0.0, scales=3))
    assert disc_loss.item() >= floor - 1e-12
    assert gen_signal.item() >= -np.log(1.0 - ls.LOG_CLAMP) - 1e-12


# -- training loop -----------------------------------------------------------------------------------

def test_train_stylization_zero_steps_keeps_decoder(slab_run, session_encoders, session_decoder2d):
    decoder = copy.deepcopy(slab_run["decoder0"])
    before = [p.data.copy() for p in decoder.parameters()]
    dec, log = ls.train_stylization(
        slab_run["distilled"], slab_run["views"], slab_run["style_img"], slab_run["style_stats"],
        decoder, session_encoders, ls.LossWeights(), steps=0, decoder2d=session_decoder2d)
    assert log == []
    for p, b in zip(dec.parameters(), before):
        assert np.array_equal(p.data, b)


def test_train_stylization_ablated_reduces_to_content_style(slab_run, session_encoders,
                                                           session_decoder2d, monkeypatch):
    def no_discriminator(*_, **__):
        raise AssertionError("a zero suppression weight built a discriminator")
    monkeypatch.setattr(ls, "DiscriminatorNet", no_discriminator)
    decoder = copy.deepcopy(slab_run["decoder0"])
    _, log = ls.train_stylization(
        slab_run["distilled"], slab_run["views"], slab_run["style_img"], slab_run["style_stats"],
        decoder, session_encoders, ls.LossWeights(lambda_obs=0.0, suppression_weight=0.0),
        steps=5, decoder2d=session_decoder2d)
    for row in log:
        assert row["obs"] == 0.0
        assert row["sup_disc"] == 0.0
        assert row["sup_gen"] == 0.0


def test_train_stylization_total_decreases(slab_run, session_encoders, session_decoder2d):
    decoder = copy.deepcopy(slab_run["decoder0"])
    _, log = ls.train_stylization(
        slab_run["distilled"], slab_run["views"], slab_run["style_img"], slab_run["style_stats"],
        decoder, session_encoders, ls.LossWeights(), steps=120,
        decoder2d=session_decoder2d, seed=3, lr=2e-3)
    first = np.mean([r["total"] for r in log[:20]])
    last = np.mean([r["total"] for r in log[-20:]])
    assert last < first


def test_train_stylization_log_csv_layout(slab_run, session_encoders, session_decoder2d,
                                          tmp_path):
    decoder = copy.deepcopy(slab_run["decoder0"])
    _, log = ls.train_stylization(
        slab_run["distilled"], slab_run["views"], slab_run["style_img"], slab_run["style_stats"],
        decoder, session_encoders, ls.LossWeights(), steps=3,
        decoder2d=session_decoder2d, seed=3)
    rows = ([r[k] for k in ls.LOG_COLUMNS] for r in log)
    lines = mt.write_csv(tmp_path / "train_log.csv", ls.LOG_COLUMNS, rows).strip().splitlines()
    assert lines[0] == "step,content,style,obs,sup_disc,sup_gen,total"
    assert len(lines) == 4


def _style_log(slab_run, encoders, decoder2d, weights):
    decoder = copy.deepcopy(slab_run["decoder0"])
    _, log = ls.train_stylization(
        slab_run["distilled"], slab_run["views"], slab_run["style_img"], slab_run["style_stats"],
        decoder, encoders, weights, steps=3,
        decoder2d=decoder2d if weights.uses_prior else None, seed=3)
    assert len(log) == 3
    return log


# each row's total = content + lambda_style*style + lambda_obs*obs; the
# suppression signal is logged on its own and is not part of it

def test_total_loss_all_lambdas_zero_is_content(slab_run, session_encoders, session_decoder2d):
    rows = _style_log(slab_run, session_encoders, session_decoder2d,
                      ls.LossWeights(lambda_style=0, lambda_obs=0, suppression_weight=0))
    for r in rows:
        assert r["style"] > 0.0
        assert r["total"] == r["content"]


def test_total_loss_hand_value(slab_run, session_encoders, session_decoder2d):
    rows = _style_log(slab_run, session_encoders, session_decoder2d, ls.LossWeights())
    for r in rows:
        assert r["obs"] > 0.0 and r["sup_gen"] > 0.0
        assert r["total"] == r["content"] + 10.0 * r["style"] + 0.5 * r["obs"]


def test_total_loss_linear_in_each_lambda(slab_run, session_encoders, session_decoder2d):
    for key, part in [("lambda_style", "style"), ("lambda_obs", "obs")]:
        for lam in (1.0, 2.0):
            weights = ls.LossWeights(**{k: (lam if k == key else 0.0) for k in
                                        ("lambda_style", "lambda_obs", "suppression_weight")})
            for r in _style_log(slab_run, session_encoders, session_decoder2d, weights):
                assert r[part] > 0.0
                assert r["total"] == r["content"] + lam * r[part]


def test_train_stylization_scores_each_image_once_per_step(slab_run, session_encoders,
                                                          session_decoder2d, monkeypatch):
    # one discriminator pass over I_g and one over I_f serve both updates
    calls = []
    score_scales = ls.DiscriminatorNet.score_scales

    def counted(self, image):
        calls.append(1)
        return score_scales(self, image)

    monkeypatch.setattr(ls.DiscriminatorNet, "score_scales", counted)
    decoder = copy.deepcopy(slab_run["decoder0"])
    ls.train_stylization(
        slab_run["distilled"], slab_run["views"], slab_run["style_img"], slab_run["style_stats"],
        decoder, session_encoders, ls.LossWeights(), steps=1,
        decoder2d=session_decoder2d, seed=3)
    assert len(calls) == 2


def test_stylized_objective_gradients_match_finite_differences(session_encoders, session_decoder2d):
    # L_stylized w.r.t. decoder parameters on a 4-Gaussian scene
    from subflow import rasterizer as ras
    from subflow import scene as sc
    from subflow.diffcore import tensor as dt

    scene = sc.generate_toy_scene("lattice", 4, 2, embed_dim=8)
    cam = sc.look_at_camera((0, -2.5, 1), (0, 0, 0), 30.0, 16, 16)
    decoder = tr.DecoderNet(8, hidden=(12,), seed=5)
    embed = tr.initial_embeddings(scene.colors, 8)
    tiles = ras.attribute_weights(scene, cam)
    content = tiles.rgb
    style_ref = session_encoders.tap_stats(procedural_texture(3, 7, size=16))
    i_g = rand_img(24, 16)
    weights = ls.LossWeights()

    def loss_fn():
        colors = decoder.forward(Tensor(embed))
        i_f = dt.reshape(dt.transpose(dt.tile_matmul(tiles.blocks, 16 * 16, colors)),
                         (3, 16, 16))
        total = ls.content_loss(i_f, content, session_encoders)
        total = dt.add(total, dt.mul(ls.style_loss(i_f, style_ref, session_encoders),
                                     weights.lambda_style))
        total = dt.add(total, dt.mul(ls.observation_loss(i_g, i_f, session_encoders),
                                     weights.lambda_obs))
        return total

    err = finite_diff_max_rel_error(decoder.parameters(), loss_fn, h=1e-3)
    assert err < 1e-3
