"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
"""

import copy
import math
import subprocess
from pathlib import Path

import numpy as np
import pytest

from subflow import flowalign as fa
from subflow import losses as ls
from subflow import metrics as mt
from subflow import rasterizer as ras
from subflow import scene as sc
from subflow import transfer as tr
from subflow.diffcore import ConvNet, DenseNet, Tensor
from subflow.diffcore import tensor as dt
from subflow.diffcore.rng import named_stream
from subflow.encoders import FeatureEncoders

from gradcheck import finite_diff_check, finite_diff_max_rel_error
from oracle_render import reference_render
from synthetic import MixtureSpec, PairedDistributionSpec, sample_paired


def check(name: str, condition: bool, detail: str) -> None:
    print(f"[{'PASS' if condition else 'FAIL'}] {name}: {detail}")
    assert condition, f"{name}: {detail}"


# -- 1. autodiff gradient checks on every architecture ------------------------------


def _pin_away_from_kinks(net, count, magnitude=0.8, weight_scale=0.3):
    """Central differences are only valid where the relu pattern is locally
    constant; push every preactivation of the first `count` conv layers of
    `net` (those a relu follows) away from 0 by a margin much larger than any
    h-induced shift (mixed signs keep both relu branches active)."""
    for w, b in list(zip(net.weights, net.biases))[:count]:
        signs = np.where(np.arange(b.data.size) % 2 == 0, 1.0, -1.0)
        b.data = (magnitude * signs).astype(np.float32)
        w.data = (weight_scale * w.data).astype(np.float32)


def _conv_stack_preact_margin(net, count, x_chw):
    """The smallest |preactivation| of the first `count` conv layers of `net`."""
    h = Tensor(np.asarray(x_chw, dtype=np.float32))
    margin = np.inf
    for (*_, stride, padding), w, b in list(zip(net.layers, net.weights, net.biases))[:count]:
        h = dt.conv2d(h, w, b, stride=stride, padding=padding)
        margin = min(margin, float(np.abs(h.data).min()))
        h = dt.relu(h)
    return margin


def _dense_preact_margin(net, x):
    h = Tensor(np.asarray(x, dtype=np.float32))
    margin = np.inf
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = dt.add(dt.matmul(h, w), b)
        if i < len(net.weights) - 1:
            margin = min(margin, float(np.abs(h.data).min()))
            h = dt.relu(h)
    return margin


def test_ac01_autodiff_finite_difference_all_architectures():
    worst = {}
    margins = {}

    def pin_dense(net, magnitude=0.8, weight_scale=0.3):
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            w.data = (weight_scale * w.data).astype(np.float32)
            if i < len(net.weights) - 1:
                b.data = (magnitude * np.where(np.arange(b.data.size) % 2 == 0, 1.0, -1.0)
                          ).astype(np.float32)

    mapping = DenseNet((8, 12, 10), "relu", 3, name="mapping")
    pin_dense(mapping)
    x = named_stream(1, "ac1.map").standard_normal((4, 8))
    margins["mapping"] = _dense_preact_margin(mapping, x)
    worst["mapping"] = finite_diff_check(mapping, x, 1e-3)

    # tanh: smooth everywhere
    field = DenseNet(fa.velocity_widths(6, (12, 12)), "tanh", 4, name="velocity")
    xv = named_stream(1, "ac1.vel").standard_normal((4, 6 + fa.TIME_FEATURES))
    worst["velocity"] = finite_diff_check(field, xv, 1e-3)

    dec = DenseNet(tr.decoder_widths(8, (12,)), "relu", 5, name="decoder")
    pin_dense(dec, weight_scale=0.15)
    xd = named_stream(1, "ac1.dec").standard_normal((4, 8))
    margins["decoder"] = _dense_preact_margin(dec, xd)
    worst["decoder"] = finite_diff_max_rel_error(
        dec.parameters(), lambda: dt.tsum(dt.sigmoid(dec(Tensor(xd)))), 1e-3)

    disc = ls.DiscriminatorNet(seed=6)
    _pin_away_from_kinks(disc, 2)
    img = named_stream(1, "ac1.disc").uniform(0, 1, size=(16, 16, 3))
    img_chw = np.transpose(img, (2, 0, 1))
    margins["discriminator"] = _conv_stack_preact_margin(disc, 2, img_chw)

    def disc_loss():
        scores = disc.score_scales(img)
        return dt.tsum(dt.concat([dt.reshape(s, (1,)) for s in scores]))
    worst["discriminator"] = finite_diff_max_rel_error(disc.parameters(), disc_loss, 1e-3)

    enc = FeatureEncoders(seed=7)
    vgg, clip = enc.vgg_net, enc.clip_refine_net
    for p in vgg.parameters() + clip.parameters():      # the encoders are frozen
        p.requires_grad = True
    _pin_away_from_kinks(vgg, 4)        # a relu follows every encoder layer
    _pin_away_from_kinks(clip, 2)
    img8 = named_stream(1, "ac1.enc").uniform(0, 1, size=(8, 8, 3))
    img8_chw = np.transpose(img8, (2, 0, 1))
    margins["encoder_vgg"] = _conv_stack_preact_margin(vgg, 4, img8_chw)
    worst["encoder_vgg"] = finite_diff_max_rel_error(
        vgg.parameters(), lambda: dt.tsum(enc.tap_features(img8)[-1]), 1e-3)

    margins["encoder_clip"] = _conv_stack_preact_margin(clip, 2, img8_chw)
    worst["encoder_clip"] = finite_diff_max_rel_error(
        clip.parameters(),
        lambda: dt.tsum(dt.relu(clip.outputs(Tensor(img8_chw.astype(np.float32)))[-1])), 1e-3)

    dec2d = ConvNet(ls.decoder2d_layers(8), seed=8)
    _pin_away_from_kinks(dec2d, 1, magnitude=1.0, weight_scale=0.08)
    feats = named_stream(1, "ac1.dec2d").standard_normal((8, 6, 6))
    margins["decoder2d"] = _conv_stack_preact_margin(
        dec2d, 1, dt.upsample2x(Tensor(feats.astype(np.float32))).data)
    worst["decoder2d"] = finite_diff_max_rel_error(
        dec2d.parameters(), lambda: dt.tsum(ls.prior_image(dec2d, Tensor(feats))), 1e-3)

    thin = {k: v for k, v in margins.items() if v < 0.03}
    assert not thin, f"gradcheck points sit too close to relu kinks: {thin}"
    bad = {k: v for k, v in worst.items() if v >= 1e-3}
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    check("AC1 autodiff vs finite differences (<1e-3)", not bad, detail)


# -- 2. rasterizer oracle equivalence -------------------------------------------------


def test_ac02_rasterizer_matches_bruteforce_and_is_linear():
    scene = sc.generate_toy_scene("lattice", 50, 13, embed_dim=8)
    cam = sc.look_at_camera((0.3, -3.5, 1.2), (0, 0, 0), 55.0, 64, 64)
    out = ras.render(scene, cam)
    ref_rgb, ref_feats, _, ref_alpha = reference_render(scene, cam)
    err = max(float(np.abs(out.rgb - ref_rgb).max()),
              float(np.abs(out.features - ref_feats).max()),
              float(np.abs(out.alpha_mask - ref_alpha).max()))

    rng = named_stream(13, "ac2.lin")
    u = rng.standard_normal((50, 8)).astype(np.float32)
    w = rng.standard_normal((50, 8)).astype(np.float32)
    a, b = 0.7, -1.3
    fu = ras.render(scene.with_embeddings(u), cam).features
    fw = ras.render(scene.with_embeddings(w), cam).features
    fmix = ras.render(scene.with_embeddings((a * u + b * w).astype(np.float32)), cam).features
    lin_err = float(np.abs(fmix - (a * fu + b * fw)).max())
    check("AC2 tiled render == scalar reference (1e-6), linearity (1e-5)",
          err <= 1e-6 and lin_err <= 1e-5,
          f"oracle err {err:.2e}, linearity err {lin_err:.2e}")


# -- 3. AdaIN moment identity -----------------------------------------------------------


def test_ac03_adain_moment_identity_100_seeds():
    worst = 0.0
    for seed in range(100):
        g = named_stream(seed, "ac3")
        n = int(g.integers(2, 80))
        d = int(g.integers(1, 48))
        e = g.standard_normal((n, d)) * g.uniform(0.2, 4.0) + g.uniform(-3, 3)
        mu = g.standard_normal(d)
        sigma = g.uniform(0.05, 2.5, size=d)
        out = tr.adain(e, tr.StyleStats(mu, sigma)).values
        worst = max(worst,
                    float(np.abs(out.mean(axis=0) - mu).max()),
                    float(np.abs(out.std(axis=0) - sigma).max()))
    check("AC3 adain moment identity over 100 seeded inputs (1e-5)",
          worst < 1e-5, f"worst moment error {worst:.2e}")


# -- 4. flow oracles -------------------------------------------------------------------------


def test_ac04a_point_mass_constant_drift_endpoint():
    a = np.array([0.5, -1.0, 2.0])
    b = np.array([2.5, 1.0, -1.0])
    cfg = fa.FlowConfig(train_steps=600, batch_size=64, seed=5)
    field, _ = fa.train_velocity(np.tile(a, (64, 1)).astype(np.float32),
                                 np.tile(b, (64, 1)).astype(np.float32), cfg)
    end = fa.euler_integrate(fa.drift(field, np.float64), a[None], cfg.euler_steps)
    rel = float(np.abs(end - b).max() / np.abs(b - a).max())
    check("AC4a point-mass endpoint within 2%", rel <= 0.02, f"relative miss {rel:.4f}")


def test_ac04b_1d_gaussian_monotone_transport():
    g = named_stream(0, "1d-task")
    x0 = np.sort(g.normal(0, 1, size=512))[:, None]
    x1 = np.sort(g.normal(5, 1, size=512))[:, None]
    cfg = fa.FlowConfig(train_steps=1500, batch_size=256, seed=6)
    field, _ = fa.train_velocity(x0.astype(np.float32), x1.astype(np.float32), cfg)
    ends = fa.euler_integrate(fa.drift(field, np.float64), x0, cfg.euler_steps)
    mean, std = float(ends.mean()), float(ends.std())
    check("AC4b 1D N(0,1)->N(5,1): mean 5+-0.2, std 1+-0.2",
          abs(mean - 5) <= 0.2 and abs(std - 1) <= 0.2,
          f"endpoint mean {mean:.3f}, std {std:.3f} (oracle map x -> x+5)")


def test_ac04c_euler_order_of_convergence():
    errs = []
    for steps in (8, 16, 32, 64):
        end = fa.euler_integrate(lambda x, t: x, np.array([1.0]), steps)[0]
        errs.append(abs(end - math.e))
    ratios = [c / f for c, f in zip(errs, errs[1:])]
    ok = all(1.6 <= r <= 2.4 for r in ratios)
    check("AC4c doubling H halves endpoint error (+-20%) on v(x)=x", ok,
          "halving ratios " + ", ".join(f"{r:.3f}" for r in ratios))


# -- 5. subdivisive segmentation trend -----------------------------------------------------------


def test_ac05_flow_segmentation_trend_default_config():
    dim = 16
    g = named_stream(123, "ac5.means")
    means = (np.array([[1.0] * dim, [-0.8] * dim, [0.2] * dim]) * 4.0
             + g.normal(0, 4.0 / 3.0, (3, dim)))
    spec = PairedDistributionSpec(
        MixtureSpec.isotropic(means, sigma=1.2, weights=[0.4, 0.35, 0.25]),
        MixtureSpec.isotropic([np.linspace(-2, 2, dim)], sigma=1.0), seed=21)
    clip, vgg = (side.vectors for side in sample_paired(spec, 1024))
    cfg = fa.FlowConfig(seed=5)  # defaults: H=8, r=3
    # synthetic rows: no encoder calibrated them, and training never reads the calibration
    _, reports, _ = fa.run_subdivisive_flow(clip, vgg, cfg, (np.zeros(dim, np.float32), 1.0))

    fids = [reports[0].fid_before] + [r.fid_after for r in reports]
    sims = [reports[0].sim_before] + [r.sim_after for r in reports]
    fid_monotone = all(r.fid_after <= r.fid_before + 1e-3 for r in reports)
    sim_monotone = all(r.sim_after >= r.sim_before - 1e-3 for r in reports)
    final_ok = reports[-1].fid_after < 0.25 * reports[0].fid_before
    check("AC5 r=3 segmentation: FID non-increasing, final < 25% of mapped baseline, "
          "SIM non-decreasing",
          fid_monotone and sim_monotone and final_ok,
          "FID " + "->".join(f"{v:.4f}" for v in fids)
          + "; SIM " + "->".join(f"{v:.4f}" for v in sims))


# -- 6. FID closed forms ------------------------------------------------------------------------------


def test_ac06_frechet_closed_forms():
    rows = named_stream(3, "ac6").standard_normal((64, 6)).astype(np.float32)
    same = mt.frechet_distance(rows, rows)

    base = named_stream(4, "ac6b").standard_normal((200, 5))
    delta = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
    shift = mt.frechet_distance(base.astype(np.float32), (base + delta).astype(np.float32))
    shift_err = abs(shift - float((delta ** 2).sum()))

    a = np.array([[-np.sqrt(0.5)], [np.sqrt(0.5)]])
    b = np.array([[-np.sqrt(2.0)], [np.sqrt(2.0)]])
    var_case = mt.frechet_distance(a.astype(np.float32), b.astype(np.float32))
    var_err = abs(var_case - 1.0)

    check("AC6 FID closed forms: identical<1e-6, mean shift (1e-5), 1D variance (1e-5)",
          same < 1e-6 and shift_err < 1e-5 and var_err < 1e-5,
          f"identical {same:.2e}, shift err {shift_err:.2e}, 1D err {var_err:.2e}")


# -- 7. geometry immutability over every toy scene ------------------------------------------------------


def test_ac07_geometry_bytes_immutable_across_all_toy_scenes(session_encoders):
    failures = []
    view = {"lattice": ((0, -4, 2), 45.0), "two_clusters": ((0, -10, 2), 28.0),
            "textured_slab": ((0, -1.5, 3), 40.0)}
    for kind in sc.TOY_SCENE_KINDS:
        scene = sc.generate_toy_scene(kind, 48, 31, embed_dim=16)
        pos, focal = view[kind]
        cams = [sc.look_at_camera(pos, (0, 0, 0), focal, 32, 32)]
        views = [ras.attribute_weights(scene, cam) for cam in cams]
        distilled, decoder, _ = tr.distill_embeddings(scene, views, session_encoders,
                                                      steps=60, seed=2)
        g = named_stream(5, f"ac7.{kind}")
        style = tr.StyleStats(g.standard_normal(16), g.uniform(0.3, 1.5, size=16))
        styled = tr.stylize_scene(distilled, style, decoder)
        for field in ("positions", "rotations", "scales", "opacities"):
            if getattr(distilled, field).tobytes() != getattr(styled, field).tobytes():
                failures.append(f"{kind}.{field}")
    check("AC7 stylization leaves geometry bytes identical on every toy scene",
          not failures, "checked lattice, two_clusters, textured_slab"
          + (f"; violated: {failures}" if failures else ""))


# -- 8 & 9. consistency protocol and loss ablation on the standard run -----------------------------------


@pytest.fixture(scope="module")
def styled_runs(slab_run, session_encoders, session_decoder2d):
    """Full and ablated stylization training with identical seeds."""
    runs = {}
    for name, weights in (("full", ls.LossWeights()),
                          ("ablated", ls.LossWeights(lambda_obs=0.0, suppression_weight=0.0))):
        decoder = copy.deepcopy(slab_run["decoder0"])
        decoder, log = ls.train_stylization(
            slab_run["distilled"], slab_run["views"], slab_run["style_img"],
            slab_run["style_stats"], decoder, session_encoders, weights,
            steps=250, decoder2d=session_decoder2d, seed=3, lr=2e-3)
        styled = tr.stylize_scene(slab_run["distilled"], slab_run["style_stats"], decoder)
        summary = mt.consistency_summary(
            mt.eval_consistency(styled, slab_run["cams"]))
        runs[name] = {
            "style_first": float(np.mean([r["style"] for r in log[:10]])),
            "style_final": float(np.mean([r["style"] for r in log[-10:]])),
            "total_first": float(np.mean([r["total"] for r in log[:20]])),
            "total_final": float(np.mean([r["total"] for r in log[-20:]])),
            "short_rmse": summary["short"],
        }
    return runs


def test_ac08_consistency_protocol(slab_run, styled_runs):
    content_summary = mt.consistency_summary(
        mt.eval_consistency(slab_run["distilled"], slab_run["cams"]))
    content_short = content_summary["short"]
    styled_short = styled_runs["full"]["short_rmse"]
    ok = (styled_short <= content_short + 0.02
          and styled_short < 0.05 and content_short < 0.05)
    check("AC8 short-range masked RMSE: stylized <= content + 0.02, both < 0.05", ok,
          f"content {content_short:.4f}, stylized {styled_short:.4f}")


def test_ac09_loss_ablation_direction(styled_runs):
    full, ablated = styled_runs["full"], styled_runs["ablated"]
    # style slack: five points of the run's initial style scale; a x1.05 slack
    # on converged near-zero losses would only compare optimizer noise
    style_bound = ablated["style_final"] + 0.05 * max(full["style_first"],
                                                      ablated["style_first"])
    style_ok = full["style_final"] <= style_bound
    rmse_ok = full["short_rmse"] <= ablated["short_rmse"] + 0.01
    halved = full["style_final"] < 0.5 * full["style_first"]
    decreased = full["total_final"] < full["total_first"]
    check("AC9 ablation: full style <= ablated + 5% of scale, RMSE(full) <= RMSE(ablated)+0.01",
          style_ok and rmse_ok and halved and decreased,
          f"style full {full['style_final']:.4f} vs bound {style_bound:.4f} "
          f"(init {full['style_first']:.4f}); RMSE full {full['short_rmse']:.4f} "
          f"vs ablated {ablated['short_rmse']:.4f}")


# -- 10. end-to-end determinism --------------------------------------------------------------------------------


AC10_CFG = """\
seed = 0
scene.n = 100
camera.width = 32
camera.height = 32
flow.train_steps = 200
flow.mapping_steps = 200
flow.rounds = 2
flow.corpus = 16
distill.steps = 150
style.steps = 20
gen2d.corpus = 16
gen2d.steps = 120
"""


def test_ac10_pipeline_script_byte_identical(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(AC10_CFG)
    script = Path(__file__).resolve().parent.parent / "scripts" / "pipeline.sh"
    for out in ("a", "b"):
        proc = subprocess.run(["sh", str(script), str(cfg), str(tmp_path / out)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    compared = []
    mismatched = []
    for rel in sorted(p.relative_to(tmp_path / "a")
                      for p in (tmp_path / "a").rglob("*") if p.is_file()):
        if rel.suffix not in (".csv", ".ppm"):
            continue
        compared.append(str(rel))
        if (tmp_path / "a" / rel).read_bytes() != (tmp_path / "b" / rel).read_bytes():
            mismatched.append(str(rel))
    check("AC10 two pipeline executions produce byte-identical CSVs and PPMs",
          bool(compared) and not mismatched,
          f"{len(compared)} files compared" + (f"; mismatched: {mismatched}" if mismatched else ""))
