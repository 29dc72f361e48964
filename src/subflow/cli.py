"""Command-line front end.

Commands cover the whole pipeline: gen-scene, embed, train-flow,
train-style, stylize, render, eval-align, eval-consistency, dump-config.
Artifacts are binary scene/feature/checkpoint files plus CSVs and PPMs;
exit codes: 0 success, 2 validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import flowalign as fa
from . import losses as ls
from . import metrics as mt
from . import rasterizer as ras
from . import runtime
from . import scene as sc
from . import transfer as tr
from .diffcore import ConvNet, DenseNet, conv_shapes, dense_shapes
from .diffcore.checkpoint import load_params, save_params
from .encoders import (_CLIP_GRID, FeatureEncoders, FeatureSet, export_features,
                       import_features, procedural_texture)
from .errors import NumericsError, ShapeError, SubflowError


class CliError(SubflowError):
    """Invalid invocation or inputs; maps to exit code 2."""


def _refuse_empty(args, *flags: str) -> None:
    """Refuse each of the optional path `flags` given as "", which reads as absent."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_"), None) == "":
            raise CliError(f"{flag} is empty")


def _load_config(args) -> dict:
    cfg = (cfgmod.load_config(args.config) if args.config
           else cfgmod.read_key_values("", cfgmod.SCHEMA, "defaults"))
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def _encoders(cfg, pipe: fa.FlowPipeline | None = None) -> FeatureEncoders:
    """The config's encoders. Given the pipeline they serve, they take its
    CLIP-like calibration instead of computing it."""
    return FeatureEncoders(seed=cfg["seed"], clip_dim=cfg["clip_dim"],
                           style_dim=cfg["style_dim"],
                           clip_calibration=pipe.clip_calibration if pipe else None)


def _config_key(args, key: str) -> str:
    """Where the config's `key` was set, for messages."""
    if key == "seed" and args.seed is not None:
        return "--seed"
    return f"{args.config or 'the default config'} ('{key}')"


def _manifest(args) -> str:
    return os.path.join(args.pipeline, "manifest.txt")      # cheaper than a Path per request


def _agree(path, field: str, value, other: str, want) -> None:
    """Refuse the input at `path` unless its `field` is the `want` that
    `other`, another input, needs."""
    if value != want:
        raise CliError(f"{path}: '{field}' is {value}, but {other} needs {want}")


def _load_pipeline(args, cfg) -> fa.FlowPipeline:
    """The `--pipeline`. Its mapping and its CLIP-like calibration belong to
    the encoders it was trained with, so the config must name the same
    encoder `seed` and `clip_dim` as its manifest."""
    pipe = fa.FlowPipeline.load(_require(args.pipeline, "pipeline"))
    for key, trained in (("seed", pipe.cfg.seed), ("clip_dim", pipe.clip_dim)):
        _agree(_manifest(args), key, trained, _config_key(args, key), cfg[key])
    return pipe


def _ring(cfg) -> list[sc.Camera]:
    return sc.camera_ring((0.0, 0.0, 0.0), cfg["camera.radius"], cfg["camera.count"],
                          elevation=cfg["camera.elevation"], focal=cfg["camera.focal"],
                          width=cfg["camera.width"], height=cfg["camera.height"])


def _training_cams(cfg) -> list[sc.Camera]:
    """The first half of the ring: the views `embed` and `train-style` fit."""
    cams = _ring(cfg)
    return cams[:max(1, len(cams) // 2)]


# The keys that place the ring, so the training cameras. A weights file
# records them as `key = value` lines; each must be read back.
_RIG_SCHEMA = {key: (convert, cfgmod.REQUIRED) for key, (convert, _) in cfgmod.SCHEMA.items()
               if key.startswith("camera.")}


def _weights_path(scene) -> Path:
    """The training cameras' weights file that `embed` writes next to its
    distilled scene at `scene` and `train-style` reads from there."""
    return Path(f"{scene}.twts")


def _training_views(args, cfg, scene: sc.GaussianScene) -> list[ras.TileWeights]:
    """The training cameras' weights, read from next to `--scene`. They must
    have been composited over the scene's geometry and for the config's
    cameras: the file names the `camera.*` values `embed` ran with."""
    path = _weights_path(args.scene)
    if not path.exists():
        raise CliError(f"weights file not found: {path}; `embed` writes it next to "
                       "the distilled scene")
    with ras.WeightsFile(path) as weights:
        if (weights.count, weights.digest) != (scene.count, ras.geometry_digest(scene)):
            raise CliError(f"{path}: made for other geometry than {args.scene}; `embed` "
                           "writes the weights with the distilled scene")
        made = cfgmod.read_key_values(weights.rig, _RIG_SCHEMA, str(path))
        for key, value in made.items():
            _agree(path, key, value, _config_key(args, key), cfg[key])
        return list(weights)


def _flow_cfg(cfg) -> fa.FlowConfig:
    return fa.FlowConfig(
        euler_steps=cfg["flow.euler_steps"], rounds=cfg["flow.rounds"],
        train_steps=cfg["flow.train_steps"], batch_size=cfg["flow.batch_size"],
        learning_rate=cfg["flow.learning_rate"], seed=cfg["seed"],
        mapping_steps=cfg["flow.mapping_steps"])


def _weights(cfg) -> ls.LossWeights:
    return ls.LossWeights(lambda_style=cfg["weights.style"], lambda_obs=cfg["weights.obs"],
                          suppression_weight=cfg["weights.suppression"])


def _require(path, kind: str) -> Path:
    if str(path) == "":     # Path("") is ".", which exists
        raise CliError(f"{kind} path is empty")
    p = Path(path)
    if not p.exists():
        raise CliError(f"{kind} file not found: {p}")
    return p


def _output(path, flag: str, kind: str = "file") -> Path:
    """The `flag` output, made ready before any work. A "file" gets its
    directory made and replaces an earlier file. A "dir" must be new or empty:
    files of an earlier run would not belong to this one. A "reused" dir may
    hold files (train-style finds its 2D decoder there)."""
    out = Path(path)
    try:
        out.stat()          # `mkdir` and `is_dir` read a symlink loop as "not a directory"
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise CliError(f"{flag} {out}: {exc.strerror}") from None
    try:
        (out.parent if kind == "file" else out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(f"{flag} {out}: cannot make {exc.filename}: {exc.strerror}") from None
    if kind == "file" and out.is_dir():
        raise CliError(f"{flag} {out}: is a directory")
    if kind == "dir" and any(out.iterdir()):
        raise CliError(f"{flag} {out}: directory is not empty")
    return out


def _read_image(path, kind: str) -> np.ndarray:
    """A PPM reference whose sides the clip-like encoder's block grid divides."""
    path = _require(path, kind)
    img = ras.read_ppm(path)
    h, w = img.shape[:2]
    if h % _CLIP_GRID or w % _CLIP_GRID:
        raise CliError(f"{path}: image size {h}x{w} must be divisible by {_CLIP_GRID}")
    return img


def _read_rows(path, flag: str, domain: str) -> FeatureSet:
    """The FEAT file `flag` names, which must hold `domain` rows."""
    fs = import_features(_require(path, flag))
    _agree(path, "domain", fs.domain, flag, domain)
    return fs


def _paired_features(args, cfg, encoders) -> tuple[FeatureSet, FeatureSet]:
    """Clip- and style-domain rows: the `--feat-clip`/`--feat-vgg` pair, else
    the procedural style corpus as `encoders` encode it."""
    if args.feat_clip or args.feat_vgg:
        if not (args.feat_clip and args.feat_vgg):
            raise CliError("--feat-clip and --feat-vgg must be given together")
        clip = _read_rows(args.feat_clip, "--feat-clip", "clip_like")
        vgg = _read_rows(args.feat_vgg, "--feat-vgg", "vgg_like")
        _agree(args.feat_vgg, "count", vgg.count, args.feat_clip, clip.count)
        return clip, vgg
    size = cfg["camera.width"]
    corpus = [procedural_texture(cfg["seed"], i, size=size) for i in range(cfg["flow.corpus"])]
    return encoders.encode_clip_like(corpus), encoders.encode_vgg_like(corpus)


def _load_distilled(path) -> sc.GaussianScene:
    """A scene written by `embed`. A raw scene's embeddings are all equal, so
    its decoded colors would be one flat color; it is rejected instead."""
    scene = sc.load_scene(_require(path, "scene"))
    if scene.count < 2:
        raise CliError(f"{path}: N={scene.count}, but stylization needs at least 2 Gaussians: "
                       "AdaIN takes channel statistics over them")
    if np.all(scene.embeddings == scene.embeddings[0]):
        raise CliError(f"{path}: every Gaussian has the same embedding; "
                       "run `embed` on the scene first")
    return scene


def _load_decoder(path, cfg) -> DenseNet:
    """The decoder checkpoint at `path`, whose shapes the config's `embed_dim`
    and `distill.hidden` set."""
    widths = tr.decoder_widths(cfg["embed_dim"], (cfg["distill.hidden"],))
    arrays = load_params(_require(path, "decoder checkpoint"), dense_shapes(widths), "config")
    return DenseNet(widths, "relu", params=arrays)


def _load_styling(args, cfg) -> tuple[sc.GaussianScene, DenseNet, fa.FlowPipeline]:
    """The distilled scene, its decoder and the pipeline that styles it. The
    decoder reads `embed_dim` channels, which must be the scene's embedding
    width. An aligned style row splits into a mean and a spread per embedding
    channel, so the pipeline's `style_dim` must be twice that width."""
    scene = _load_distilled(args.scene)
    decoder = _load_decoder(args.decoder, cfg)
    pipe = _load_pipeline(args, cfg)
    d = scene.embed_dim
    _agree(_manifest(args), "style_dim", pipe.style_dim,
           f"{args.scene} (embeddings of dim {d})", 2 * d)
    _agree(args.decoder, "embed_dim", cfg["embed_dim"], args.scene, d)
    return scene, decoder, pipe


def _style_image(args, cfg) -> np.ndarray:
    if args.style_image:
        return _read_image(args.style_image, "style image")
    return procedural_texture(cfg["seed"] + 7, 100, size=cfg["camera.width"])


def _style_stats(pipe: fa.FlowPipeline, fs: FeatureSet) -> tr.StyleStats:
    """AdaIN target of a reference's clip-domain rows: the mean of their aligned rows."""
    return tr.stats_from_feature(pipe.align(fs.vectors).mean(axis=0))


def _decoder2d(cfg, encoders, out_dir: Path) -> ConvNet:
    """Train (or reload) the 2D generator decoder for this encoder seed."""
    ck = out_dir / f"decoder2d_seed{cfg['seed']}.prms"
    if ck.exists():
        layers = ls.decoder2d_layers(encoders.tap_widths[ls.GENERATOR_TAP])
        return ConvNet(layers, params=load_params(ck, conv_shapes(layers), "2D decoder"))
    dec = ls.train_decoder2d(encoders, corpus=cfg["gen2d.corpus"], steps=cfg["gen2d.steps"],
                             seed=cfg["seed"], size=cfg["camera.width"])
    save_params(ck, dec.parameters())
    return dec


# -- commands ------------------------------------------------------------------


def cmd_dump_config(args, cfg) -> int:
    sys.stdout.write(cfgmod.dump(cfg))
    return 0


def cmd_gen_scene(args, cfg) -> int:
    out = _output(args.out, "--out")
    scene = sc.generate_toy_scene(cfg["scene.kind"], cfg["scene.n"], cfg["scene.seed"],
                                  embed_dim=cfg["embed_dim"])
    sc.save_scene(scene, out)
    print(f"wrote {args.out} ({scene.count} gaussians, D={scene.embed_dim})")
    return 0


def cmd_embed(args, cfg) -> int:
    scene = sc.load_scene(_require(args.scene, "scene"))
    out_scene = _output(args.out_scene, "--out-scene")      # `resolve` fails on a symlink loop
    out_decoder = _output(args.out_decoder, "--out-decoder")
    weights = _output(_weights_path(out_scene), "--out-scene")
    decoder_file = out_decoder.resolve()
    if out_scene.resolve() == decoder_file:
        raise CliError(f"--out-scene and --out-decoder are one file: {args.out_scene}")
    if weights.resolve() == decoder_file:
        raise CliError(f"--out-decoder {args.out_decoder} is the weights file that embed "
                       f"writes next to --out-scene {args.out_scene}")
    encoders = _encoders(cfg)
    rig = cfgmod.dump({key: cfg[key] for key in _RIG_SCHEMA})
    views = ras.write_weights(weights, scene, _training_cams(cfg), rig)
    distilled, decoder, report = tr.distill_embeddings(
        scene, views, encoders, steps=cfg["distill.steps"],
        seed=cfg["seed"], lr=cfg["distill.learning_rate"],
        decoder_hidden=(cfg["distill.hidden"],))
    sc.save_scene(distilled, out_scene)
    save_params(out_decoder, decoder.parameters())
    print(f"distilled {args.scene}: reconstruction mse {report.reconstruction_mse:.3e}, "
          f"projection {report.projection_mse_first:.4f} -> {report.projection_mse_last:.4f}")
    return 0


def cmd_train_flow(args, cfg) -> int:
    encoders = _encoders(cfg)
    clip_fs, vgg_fs = _paired_features(args, cfg, encoders)
    if args.feat_clip:      # the pipeline saves the config's encoders' calibration
        _agree(args.feat_clip, "dim", clip_fs.dim, _config_key(args, "clip_dim"), cfg["clip_dim"])
    out = _output(args.out, "--out", "dir")       # a bad --out fails before training
    aligned, reports, pipe = fa.run_subdivisive_flow(clip_fs.vectors, vgg_fs.vectors,
                                                     _flow_cfg(cfg), encoders.clip_calibration)
    pipe.save(out)
    mt.write_csv(out / "rounds.csv", fa.ROUND_COLUMNS, map(astuple, reports))
    export_features(out / "aligned.feat", FeatureSet("vgg_like", aligned))
    for r in reports:
        print(f"round {r.round_index}: SIM {r.sim_before:.4f}->{r.sim_after:.4f} "
              f"FID {r.fid_before:.4f}->{r.fid_after:.4f}")
    print(f"wrote pipeline to {out}")
    return 0


def cmd_train_style(args, cfg) -> int:
    scene, decoder, pipe = _load_styling(args, cfg)
    views = _training_views(args, cfg, scene)
    encoders = _encoders(cfg, pipe)
    style_img = _style_image(args, cfg)
    weights = _weights(cfg)
    out = _output(args.out, "--out", "reused")
    dec2d = _decoder2d(cfg, encoders, out) if weights.uses_prior else None
    style = _style_stats(pipe, encoders.encode_clip_like([style_img]))
    decoder, log = ls.train_stylization(
        scene, views, style_img, style, decoder, encoders,
        weights, steps=cfg["style.steps"], decoder2d=dec2d, seed=cfg["seed"],
        lr=cfg["style.learning_rate"])
    save_params(out / "decoder.prms", decoder.parameters())
    mt.write_csv(out / "train_log.csv", ls.LOG_COLUMNS,
                 ([r[k] for k in ls.LOG_COLUMNS] for r in log))
    last = log[-1] if log else {"total": float("nan")}
    print(f"trained decoder for {cfg['style.steps']} steps; final total {last['total']:.4f}")
    return 0


def cmd_stylize(args, cfg) -> int:
    sources = [s for s in (args.image, args.text, args.feat) if s is not None]
    if len(sources) != 1:
        raise CliError("stylize needs exactly one of --image, --text, --feat")
    if args.text is not None and not args.text.split():
        raise CliError(f"--text {args.text!r} holds no words")
    _refuse_empty(args, "--image", "--feat")
    scene, decoder, pipe = _load_styling(args, cfg)
    out = _output(args.out, "--out")
    if args.image is not None:
        fs = _encoders(cfg, pipe).encode_clip_like([_read_image(args.image, "reference image")])
    elif args.text is not None:
        fs = _encoders(cfg, pipe).encode_text(args.text.split())
    else:
        fs = _read_rows(args.feat, "--feat", "clip_like")
        _agree(args.feat, "dim", fs.dim, f"{_manifest(args)} ('clip_dim')", pipe.clip_dim)
    styled = tr.stylize_scene(scene, _style_stats(pipe, fs), decoder)
    sc.save_scene(styled, out)
    print(f"wrote stylized scene to {args.out}")
    return 0


def cmd_render(args, cfg) -> int:
    scene = sc.load_scene(_require(args.scene, "scene"))
    out = _output(args.out, "--out", "dir")
    cams = _ring(cfg)
    for i, cam in enumerate(cams):
        res = ras.render(scene, cam, features=args.features)
        ras.write_ppm(out / f"view_{i:02d}.ppm", res.rgb)
        if args.depth:
            ras.write_fmap(out / f"depth_{i:02d}.fmap", np.where(
                np.isfinite(res.depth), res.depth, -1.0))
        if args.features:
            ras.write_fmap(out / f"features_{i:02d}.fmap", res.features)
    print(f"rendered {len(cams)} views to {out}")
    return 0


def cmd_eval_align(args, cfg) -> int:
    if args.feat_clip or args.feat_vgg:     # rows from any encoder: the seed does not matter
        pipe = fa.FlowPipeline.load(_require(args.pipeline, "pipeline"))
    else:       # the corpus is encoded at the config's widths
        pipe = _load_pipeline(args, cfg)
        _agree(_manifest(args), "style_dim", pipe.style_dim,
               _config_key(args, "style_dim"), cfg["style_dim"])
    out = _output(args.out, "--out")
    # the corpus path encodes with the pipeline's own calibration; the FEAT path encodes nothing
    clip_fs, vgg_fs = _paired_features(args, cfg, _encoders(cfg, pipe))
    if args.feat_clip:
        for path, fs, key in ((args.feat_clip, clip_fs, "clip_dim"),
                              (args.feat_vgg, vgg_fs, "style_dim")):
            _agree(path, "dim", fs.dim, f"{_manifest(args)} ('{key}')", getattr(pipe, key))
    rows = []
    for k, (stage, _) in enumerate(pipe.trajectory(clip_fs.vectors)):
        sim, fid = fa.score(stage, vgg_fs.vectors)
        tag = f"round{k}" if k else "mapped"
        rows += [("sim", tag, sim), ("fid", tag, fid)]
    sys.stdout.write(mt.write_csv(out, mt.METRIC_COLUMNS, rows))
    return 0


def cmd_eval_consistency(args, cfg) -> int:
    if cfg["camera.count"] < mt.MIN_RING:      # a bound of its own: render needs only 2
        raise CliError(f"{args.config}: 'camera.count' is {cfg['camera.count']}, but "
                       f"eval-consistency needs at least {mt.MIN_RING}")
    scene = sc.load_scene(_require(args.scene, "scene"))
    out = _output(args.out, "--out")
    cams = _ring(cfg)
    try:
        reports = mt.eval_consistency(scene, cams)
    except ShapeError as exc:       # the ring's size is checked above: two views miss each other
        keys = ", ".join(cfgmod.dump({key: cfg[key] for key in _RIG_SCHEMA}).splitlines())
        raise CliError(f"--scene {args.scene}: {exc} under the ring that "
                       f"{args.config or 'the default config'} places ({keys})") from None
    summary = mt.consistency_summary(reports)
    rows = [("masked_rmse", tag, val) for tag, val in summary.items()]
    rows += [("valid_fraction", r.range, r.valid_pixel_fraction) for r in reports]
    sys.stdout.write(mt.write_csv(out, mt.METRIC_COLUMNS, rows))
    return 0


# -- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="subflow",
                                     description="Stylize 3D Gaussian scenes from "
                                                 "image or text references.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, text, *required):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--seed", type=int)
        for flag in required:
            p.add_argument(flag, required=True)
        p.set_defaults(fn=fn)
        return p

    command("dump-config", cmd_dump_config, "print the effective configuration")
    command("gen-scene", cmd_gen_scene, "generate a toy scene (GSCN)", "--out")
    command("embed", cmd_embed, "distill per-Gaussian embeddings and the decoder",
            "--scene", "--out-scene", "--out-decoder")
    p = command("train-flow", cmd_train_flow, "train the alignment pipeline", "--out")
    p.add_argument("--feat-clip", help="FEAT file of externally computed clip-domain rows")
    p.add_argument("--feat-vgg", help="FEAT file of externally computed style-domain rows")
    p = command("train-style", cmd_train_style, "train the stylization decoder on a style")
    p.add_argument("--scene", required=True, help="distilled GSCN from `embed`")
    p.add_argument("--decoder", required=True, help="decoder PRMS from `embed`")
    p.add_argument("--pipeline", required=True, help="pipeline dir from `train-flow`")
    p.add_argument("--style-image", help="style reference (binary PPM)")
    p.add_argument("--out", required=True)
    p = command("stylize", cmd_stylize, "stylize a distilled scene",
                "--scene", "--decoder", "--pipeline")
    p.add_argument("--image", help="style reference image (PPM)")
    p.add_argument("--text", help="style reference text")
    p.add_argument("--feat", help="style reference features (FEAT, clip domain)")
    p.add_argument("--out", required=True)
    p = command("render", cmd_render, "render ring views to PPM", "--scene", "--out")
    p.add_argument("--depth", action="store_true", help="also dump FMAP depth maps")
    p.add_argument("--features", action="store_true", help="also dump FMAP embedding maps")
    p = command("eval-align", cmd_eval_align, "per-round SIM/FID of a trained pipeline",
                "--pipeline", "--out")
    p.add_argument("--feat-clip")
    p.add_argument("--feat-vgg")
    command("eval-consistency", cmd_eval_consistency, "short/long-range masked RMSE",
            "--scene", "--out")
    return parser


# One parser serves every call in the process: `parse_args` returns a new
# namespace and leaves the parser as it was.
_PARSER = build_parser()


def main(argv=None) -> int:
    runtime.set_allocator_policy()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # numpy's warnings would only precede the NumericsError a finite check raises
        with np.errstate(all="ignore"):
            _refuse_empty(args, "--config", "--style-image", "--feat-clip", "--feat-vgg")
            return args.fn(args, _load_config(args))
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (SubflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:     # a view or a scene too large for this machine
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
