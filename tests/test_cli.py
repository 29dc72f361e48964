import argparse
import csv
import ctypes
import importlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subflow import cli
from subflow import config as cfgmod
from subflow import rasterizer as ras
from subflow import runtime
from subflow import scene as sc
from subflow.diffcore import load_params
from subflow.diffcore.rng import named_stream
from subflow.errors import FormatError

SMALL_CFG = """\
seed = 0
scene.n = 100
camera.width = 32
camera.height = 32
camera.count = 8
flow.train_steps = 200
flow.mapping_steps = 200
flow.rounds = 2
flow.corpus = 16
distill.steps = 200
style.steps = 25
gen2d.corpus = 20
gen2d.steps = 150
"""


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return path


def run(*argv):
    return cli.main([str(a) for a in argv])


def _child_env(**extra):
    """This process's environment for a child Python that imports this subflow."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_dump_config_round_trips_byte_identical(capsys):
    assert run("dump-config") == 0
    dumped = capsys.readouterr().out
    reparsed = cfgmod.read_key_values(dumped, cfgmod.SCHEMA, "config")
    assert cfgmod.dump(reparsed) == dumped


def test_config_rejects_unknown_key():
    with pytest.raises(FormatError, match="unknown"):
        cfgmod.read_key_values("nonsense.key = 3\n", cfgmod.SCHEMA, "config")


def test_config_override_precedence(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("seed = 5\n")
    assert run("dump-config", "--config", path, "--seed", "9") == 0
    out = capsys.readouterr().out
    assert "seed = 9" in out.splitlines()[0]


def test_gen_scene_writes_loadable_gscn(tmp_path, small_cfg):
    out = tmp_path / "s.gscn"
    assert run("gen-scene", "--config", small_cfg, "--out", out) == 0
    scene = sc.load_scene(out)
    assert scene.count == 100


def test_stylize_mutually_exclusive_sources(tmp_path, small_cfg):
    rc = run("stylize", "--config", small_cfg, "--scene", tmp_path / "s.gscn",
             "--decoder", tmp_path / "d.prms", "--pipeline", tmp_path / "p",
             "--image", "a.ppm", "--text", "words", "--out", tmp_path / "o.gscn")
    assert rc == 2


def test_stylize_requires_some_source(tmp_path, small_cfg):
    rc = run("stylize", "--config", small_cfg, "--scene", tmp_path / "s.gscn",
             "--decoder", tmp_path / "d.prms", "--pipeline", tmp_path / "p",
             "--out", tmp_path / "o.gscn")
    assert rc == 2


def test_missing_input_file_exits_2(tmp_path, small_cfg):
    rc = run("embed", "--config", small_cfg, "--scene", tmp_path / "missing.gscn",
             "--out-scene", tmp_path / "d.gscn", "--out-decoder", tmp_path / "d.prms")
    assert rc == 2


def test_empty_input_path_names_its_kind(tmp_path, small_cfg, capsys):
    # Path("") is ".", which exists; an empty path is refused, not read as a directory
    rc = run("embed", "--config", small_cfg, "--scene", "",
             "--out-scene", tmp_path / "d.gscn", "--out-decoder", tmp_path / "d.prms")
    assert rc == 2
    assert "scene path is empty" in capsys.readouterr().err


_STYLE_INPUTS = ("--scene", "s.gscn", "--decoder", "d.prms", "--pipeline", "pipe")


@pytest.mark.parametrize("argv, flag", [
    (["dump-config", "--config", ""], "--config"),
    (["gen-scene", "--config", "", "--out", "s.gscn"], "--config"),
    (["train-style", "--config", "", *_STYLE_INPUTS, "--out", "styled"], "--config"),
    (["train-style", *_STYLE_INPUTS, "--style-image", "", "--out", "styled"], "--style-image"),
    (["train-flow", "--feat-clip", "", "--feat-vgg", "v.feat", "--out", "pipe"], "--feat-clip"),
    (["train-flow", "--feat-clip", "c.feat", "--feat-vgg", "", "--out", "pipe"], "--feat-vgg"),
    (["eval-align", "--pipeline", "pipe", "--feat-clip", "", "--out", "m.csv"], "--feat-clip"),
    (["eval-align", "--pipeline", "pipe", "--feat-vgg", "", "--out", "m.csv"], "--feat-vgg"),
], ids=["dump-config", "gen-scene", "train-style-config", "style-image",
        "train-flow-clip", "train-flow-vgg", "eval-align-clip", "eval-align-vgg"])
def test_empty_optional_path_flag_is_refused(tmp_path, capsys, monkeypatch, argv, flag):
    # an empty optional path is refused by name before the config is read,
    # not taken as the flag left out
    def load_config(args):
        raise AssertionError("read the config")
    monkeypatch.setattr(cli, "_load_config", load_config)
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    assert f"{flag} is empty" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_bad_config_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    for line, key in (("whatever = 3", "whatever"), ("scene.kind = blob", "scene.kind"),
                      ("embed_dim = 65", "embed_dim")):      # GSCN holds at most 64
        bad.write_text(line + "\n")
        assert run("dump-config", "--config", bad) == 2
        err = capsys.readouterr().err
        assert f"{bad} line 1" in err and f"'{key}'" in err


@pytest.fixture(scope="module")
def pipeline_artifacts(tmp_path_factory):
    """Run the full command pipeline once into a shared directory."""
    root = tmp_path_factory.mktemp("cli-pipe")
    cfg = root / "small.cfg"
    cfg.write_text(SMALL_CFG)
    steps = [
        ("gen-scene", "--config", cfg, "--out", root / "s.gscn"),
        ("embed", "--config", cfg, "--scene", root / "s.gscn",
         "--out-scene", root / "sd.gscn", "--out-decoder", root / "dec.prms"),
        ("train-flow", "--config", cfg, "--out", root / "pipe"),
        ("train-style", "--config", cfg, "--scene", root / "sd.gscn",
         "--decoder", root / "dec.prms", "--pipeline", root / "pipe",
         "--out", root / "styled"),
        ("stylize", "--config", cfg, "--scene", root / "sd.gscn",
         "--decoder", root / "styled" / "decoder.prms", "--pipeline", root / "pipe",
         "--text", "molten copper sunset", "--out", root / "stylized.gscn"),
        ("render", "--config", cfg, "--scene", root / "stylized.gscn",
         "--out", root / "views", "--depth"),
        ("eval-align", "--config", cfg, "--pipeline", root / "pipe",
         "--out", root / "align.csv"),
        ("eval-consistency", "--config", cfg, "--scene", root / "stylized.gscn",
         "--out", root / "cons.csv"),
    ]
    for argv in steps:
        assert run(*argv) == 0, argv[0]
    return root


def test_pipeline_produces_all_artifacts(pipeline_artifacts):
    root = pipeline_artifacts
    for rel in ("s.gscn", "sd.gscn", "dec.prms", "pipe/manifest.txt", "pipe/rounds.csv",
                "pipe/mapping.prms", "pipe/velocity_1.prms", "stylized.gscn",
                "views/view_00.ppm", "views/depth_00.fmap", "align.csv", "cons.csv"):
        assert (root / rel).exists(), rel
    # train-style writes its decoder and log; the 2D prior is cached beside them
    assert sorted(p.name for p in (root / "styled").iterdir()) == [
        "decoder.prms", "decoder2d_seed0.prms", "train_log.csv"]


def test_train_style_zero_weights_switch_terms_off(pipeline_artifacts, tmp_path, monkeypatch):
    # weights.obs = 0 and weights.suppression = 0 skip both terms: no discriminator
    # is built, no 2D prior is trained, loaded or run, and the skipped log columns read 0
    from subflow import losses as ls
    root = pipeline_artifacts
    cfg = tmp_path / "ablated.cfg"
    cfg.write_text(SMALL_CFG + "weights.obs = 0\nweights.suppression = 0\n")
    out = tmp_path / "styled"
    calls = []
    monkeypatch.setattr(cli, "_decoder2d", lambda *a: calls.append("_decoder2d"))
    monkeypatch.setattr(ls, "generator_2d", lambda *a: calls.append("generator_2d"))
    monkeypatch.setattr(ls, "DiscriminatorNet", lambda **_: calls.append("DiscriminatorNet"))
    assert run("train-style", "--config", cfg, "--scene", root / "sd.gscn",
               "--decoder", root / "dec.prms", "--pipeline", root / "pipe", "--out", out) == 0
    assert calls == []
    assert sorted(p.name for p in out.iterdir()) == ["decoder.prms", "train_log.csv"]
    with open(out / "train_log.csv", newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 25
    for row in rows:
        assert float(row["obs"]) == float(row["sup_disc"]) == float(row["sup_gen"]) == 0.0
        assert float(row["style"]) > 0.0


def test_csv_artifacts_share_one_form(pipeline_artifacts, tmp_path, capsys):
    # every CSV is ASCII with LF line ends under its module's column tuple,
    # and the eval commands print the text they write
    root = pipeline_artifacts
    for rel, module, columns in (("pipe/rounds.csv", "flowalign", "ROUND_COLUMNS"),
                                 ("styled/train_log.csv", "losses", "LOG_COLUMNS"),
                                 ("align.csv", "metrics", "METRIC_COLUMNS"),
                                 ("cons.csv", "metrics", "METRIC_COLUMNS")):
        data = (root / rel).read_bytes()
        assert data.isascii() and b"\r" not in data and data.endswith(b"\n"), rel
        header = getattr(importlib.import_module(f"subflow.{module}"), columns)
        assert data.decode("ascii").split("\n", 1)[0] == ",".join(header), rel
    for command, source in (("eval-align", ("--pipeline", root / "pipe")),
                            ("eval-consistency", ("--scene", root / "stylized.gscn"))):
        out = tmp_path / f"{command}.csv"
        capsys.readouterr()
        assert run(command, "--config", root / "small.cfg", *source, "--out", out) == 0
        assert capsys.readouterr().out == out.read_text(encoding="ascii"), command


def test_pipeline_stylize_changed_colors_not_geometry(pipeline_artifacts):
    root = pipeline_artifacts
    base = sc.load_scene(root / "sd.gscn")
    styled = sc.load_scene(root / "stylized.gscn")
    assert base.positions.tobytes() == styled.positions.tobytes()
    assert base.rotations.tobytes() == styled.rotations.tobytes()
    assert not np.array_equal(base.colors, styled.colors)


def test_pipeline_render_views_match_library(pipeline_artifacts):
    root = pipeline_artifacts
    scene = sc.load_scene(root / "stylized.gscn")
    cams = sc.camera_ring((0, 0, 0), 2.6, 8, elevation=1.2, focal=90.0, width=32, height=32)
    want = ras.render(scene, cams[0]).rgb
    got = ras.read_ppm(root / "views" / "view_00.ppm")
    assert np.abs(got - np.clip(want, 0, 1)).max() <= 1 / 255.0 + 1e-6


def test_pipeline_csvs_have_expected_headers(pipeline_artifacts):
    root = pipeline_artifacts
    assert (root / "pipe" / "rounds.csv").read_text().splitlines()[0] == \
        "round,velocity_loss,sim_before,sim_after,fid_before,fid_after,displacement"
    assert (root / "align.csv").read_text().splitlines()[0] == "metric,range_or_round,value"
    assert (root / "styled" / "train_log.csv").read_text().splitlines()[0] == \
        "step,content,style,obs,sup_disc,sup_gen,total"


def test_eval_align_on_the_corpus_reproduces_rounds_csv(pipeline_artifacts):
    # eval-align scores the trajectory train-flow scored, from the same float32
    # rows, so each of its cells is rounds.csv's text
    root = pipeline_artifacts
    with open(root / "pipe" / "rounds.csv", newline="", encoding="ascii") as fh:
        rounds = list(csv.DictReader(fh))
    with open(root / "align.csv", newline="", encoding="ascii") as fh:
        align = {(r["metric"], r["range_or_round"]): r["value"] for r in csv.DictReader(fh)}
    want = {("sim", "mapped"): rounds[0]["sim_before"], ("fid", "mapped"): rounds[0]["fid_before"]}
    for r in rounds:
        for metric in ("sim", "fid"):
            want[(metric, f"round{r['round']}")] = r[f"{metric}_after"]
    assert len(rounds) == 2
    assert align == want


def test_feat_driven_stylize(pipeline_artifacts, tmp_path):
    from subflow.encoders import FeatureEncoders, export_features, procedural_texture
    root = pipeline_artifacts
    enc = FeatureEncoders(seed=0)
    fs = enc.encode_clip_like([procedural_texture(3, i, size=32) for i in range(4)])
    feat = tmp_path / "ref.feat"
    export_features(feat, fs)
    cfg = root / "small.cfg"
    out = tmp_path / "via_feat.gscn"
    rc = run("stylize", "--config", cfg, "--scene", root / "sd.gscn",
             "--decoder", root / "styled" / "decoder.prms", "--pipeline", root / "pipe",
             "--feat", feat, "--out", out)
    assert rc == 0
    sc.load_scene(out).validate()


def test_train_flow_from_feat_files(pipeline_artifacts, tmp_path):
    from subflow.encoders import FeatureEncoders, export_features, procedural_texture
    root = pipeline_artifacts
    enc = FeatureEncoders(seed=0)
    imgs = [procedural_texture(9, i, size=32) for i in range(12)]
    export_features(tmp_path / "c.feat", enc.encode_clip_like(imgs))
    export_features(tmp_path / "v.feat", enc.encode_vgg_like(imgs))
    out = tmp_path / "pipe_feat"
    rc = run("train-flow", "--config", root / "small.cfg", "--out", out,
             "--feat-clip", tmp_path / "c.feat", "--feat-vgg", tmp_path / "v.feat")
    assert rc == 0
    assert (out / "rounds.csv").exists()
    assert (out / "velocity_2.prms").exists()


def test_train_flow_feat_flags_must_pair(pipeline_artifacts, tmp_path):
    root = pipeline_artifacts
    rc = run("train-flow", "--config", root / "small.cfg", "--out", tmp_path / "p",
             "--feat-clip", tmp_path / "only.feat")
    assert rc == 2


def test_numeric_failure_exits_3(pipeline_artifacts, tmp_path):
    # poisoned decoder checkpoint: huge parameters surface as a numerics error
    from subflow.diffcore import load_params, save_params
    root = pipeline_artifacts
    arrays = load_params(root / "styled" / "decoder.prms")
    arrays[0] = np.full_like(arrays[0], 3e38)   # finite, but the first matmul overflows
    bad = tmp_path / "bad_decoder.prms"
    save_params(bad, arrays)
    with np.errstate(over="ignore"):
        rc = run("stylize", "--config", root / "small.cfg", "--scene", root / "sd.gscn",
                 "--decoder", bad, "--pipeline", root / "pipe",
                 "--text", "anything", "--out", tmp_path / "o.gscn")
    assert rc == 3


def test_numeric_failure_prints_one_line(pipeline_artifacts, tmp_path):
    # the console process, where numpy's overflow warning would reach stderr
    # ahead of the message; the out dir holds the 2D prior, so none is trained
    from subflow.diffcore import save_params
    root = pipeline_artifacts
    arrays = load_params(root / "dec.prms")
    arrays[0] = np.full_like(arrays[0], 3e38)
    bad = tmp_path / "bad_decoder.prms"
    save_params(bad, arrays)
    out = tmp_path / "styled"
    out.mkdir()
    prior = "decoder2d_seed0.prms"
    (out / prior).write_bytes((root / "styled" / prior).read_bytes())
    proc = subprocess.run(
        [sys.executable, "-m", "subflow.cli", "train-style", "--config", str(root / "small.cfg"),
         "--scene", str(root / "sd.gscn"), "--decoder", str(bad), "--pipeline",
         str(root / "pipe"), "--out", str(out)], env=_child_env(), capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numeric failure: "), proc.stderr


def test_decoder_that_does_not_fit_config_names_file(pipeline_artifacts, tmp_path, capsys):
    # the decoder was trained with distill.hidden = 64 (the default)
    root = pipeline_artifacts
    cfg = tmp_path / "hidden32.cfg"
    cfg.write_text(SMALL_CFG + "distill.hidden = 32\n")
    decoder = root / "styled" / "decoder.prms"
    rc = run("stylize", "--config", cfg, "--scene", root / "sd.gscn", "--decoder", decoder,
             "--pipeline", root / "pipe", "--text", "anything", "--out", tmp_path / "o.gscn")
    assert rc == 2
    assert str(decoder) in capsys.readouterr().err
    assert not (tmp_path / "o.gscn").exists()


# Glorot inits per command: a checkpoint's net is built from its arrays, and
# each encoder domain builds its layers on first use, so stylize draws only
# the CLIP-like domain's 2 conv layers, for an image. embed draws the 4
# VGG-like layers and the 2 of the decoder it trains; train-style the 2
# CLIP-like and 4 VGG-like layers and the discriminator's 3, and none for the
# 2D decoder it reloads
GLOROT_DRAWS = {"stylize-feat": 0, "stylize-text": 0, "stylize-image": 2, "train-style": 9,
                "embed": 6}


@pytest.mark.parametrize("command, textures, taps", [
    ("stylize-feat", 0, 0), ("stylize-text", 0, 0), ("stylize-image", 0, 0),
    ("train-style", 0, None), ("embed", 0, 4)])
def test_commands_calibrate_only_the_domains_they_use(pipeline_artifacts, tmp_path, monkeypatch,
                                                      command, textures, taps):
    # calibrating a domain encodes the 16 procedural textures (the VGG-like
    # domain through `tap_features`); embed taps only its 4 training cameras.
    # stylize and train-style take the CLIP-like calibration from the pipeline;
    # train-style's own training taps are not counted (None). `inits` counts
    # `glorot_uniform` draws (GLOROT_DRAWS)
    from subflow import encoders as enc
    from subflow.diffcore import nets
    calls = {"textures": 0, "taps": 0, "inits": 0}
    texture, tap_features = enc.procedural_texture, enc.FeatureEncoders.tap_features
    glorot = nets.glorot_uniform

    def counted_texture(*args, **kwargs):
        calls["textures"] += 1
        return texture(*args, **kwargs)

    def counted_taps(self, image):
        calls["taps"] += 1
        return tap_features(self, image)

    def counted_glorot(*args, **kwargs):
        calls["inits"] += 1
        return glorot(*args, **kwargs)

    monkeypatch.setattr(enc, "procedural_texture", counted_texture)
    monkeypatch.setattr(enc.FeatureEncoders, "tap_features", counted_taps)
    monkeypatch.setattr(nets, "glorot_uniform", counted_glorot)
    root = pipeline_artifacts
    if command == "embed":
        cfg = tmp_path / "short.cfg"
        cfg.write_text(SMALL_CFG.replace("distill.steps = 200", "distill.steps = 2"))
        argv = ["embed", "--config", cfg, "--scene", root / "s.gscn",
                "--out-scene", tmp_path / "sd.gscn", "--out-decoder", tmp_path / "dec.prms"]
    elif command == "train-style":
        cfg = tmp_path / "short.cfg"
        cfg.write_text(SMALL_CFG.replace("style.steps = 25", "style.steps = 1"))
        out = tmp_path / "styled"
        out.mkdir()
        dec2d = "decoder2d_seed0.prms"      # reused, as train-style finds it in --out
        (out / dec2d).write_bytes((root / "styled" / dec2d).read_bytes())
        argv = ["train-style", "--config", cfg, "--scene", root / "sd.gscn",
                "--decoder", root / "dec.prms", "--pipeline", root / "pipe", "--out", out]
    else:
        ref = tmp_path / "ref"
        if command == "stylize-feat":
            ref.write_bytes(_feat_bytes(named_stream(5, "calibration").standard_normal((2, 64)), 0))
            source = ["--feat", ref]
        elif command == "stylize-image":
            ras.write_ppm(ref, np.full((32, 32, 3), 0.4))
            source = ["--image", ref]
        else:
            source = ["--text", "molten glass"]
        argv = ["stylize", "--config", root / "small.cfg", "--scene", root / "sd.gscn",
                "--decoder", root / "styled" / "decoder.prms", "--pipeline", root / "pipe",
                *source, "--out", tmp_path / "o.gscn"]
    assert run(*argv) == 0
    if taps is None:
        calls["taps"] = None
    assert calls == {"textures": textures, "taps": taps, "inits": GLOROT_DRAWS[command]}


def _stylize_argv(root):
    return ["stylize", "--config", root / "small.cfg", "--scene", root / "sd.gscn",
            "--decoder", root / "styled" / "decoder.prms", "--pipeline", root / "pipe"]


def test_stylize_builds_no_parser(pipeline_artifacts, tmp_path, monkeypatch):
    # the CLI parses every argv with the one parser it built on import
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted_add_argument(self, *args, **kwargs):
        added.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted_add_argument)
    ref = tmp_path / "ref.feat"
    ref.write_bytes(_feat_bytes(named_stream(5, "calibration").standard_normal((2, 64)), 0))
    assert run(*_stylize_argv(pipeline_artifacts), "--feat", ref, "--out", tmp_path / "o.gscn") == 0
    assert added == []


def test_stylize_validates_the_scene_once(pipeline_artifacts, tmp_path, monkeypatch):
    # the loaded scene is checked in full; the stylized one only for its new colors
    calls = []
    validate = sc.GaussianScene.validate

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(sc.GaussianScene, "validate", counted)
    out = tmp_path / "o.gscn"
    assert run(*_stylize_argv(pipeline_artifacts), "--text", "molten copper sunset",
               "--out", out) == 0
    assert len(calls) == 1
    assert sc.load_scene(out).colors.tobytes() == \
        sc.load_scene(pipeline_artifacts / "stylized.gscn").colors.tobytes()


def test_calls_in_one_process_share_no_state(pipeline_artifacts, tmp_path):
    root = pipeline_artifacts
    render = ["render", "--config", root / "small.cfg", "--scene", root / "stylized.gscn"]
    assert run(*render, "--depth", "--out", tmp_path / "deep") == 0
    assert run(*render, "--out", tmp_path / "flat") == 0
    assert list((tmp_path / "deep").glob("depth_*.fmap"))
    assert not list((tmp_path / "flat").glob("depth_*.fmap"))

    ref = tmp_path / "ref.ppm"
    ras.write_ppm(ref, np.full((32, 32, 3), 0.4))
    stylize = [str(a) for a in _stylize_argv(root)]
    assert run(*stylize, "--image", ref, "--out", tmp_path / "image.gscn") == 0
    assert run(*stylize, "--text", "molten glass", "--out", tmp_path / "text.gscn") == 0
    fresh = subprocess.run([sys.executable, "-m", "subflow.cli", *stylize, "--text",
                            "molten glass", "--out", str(tmp_path / "fresh.gscn")],
                           env=_child_env(), capture_output=True, text=True)
    assert fresh.returncode == 0, fresh.stderr
    assert (tmp_path / "text.gscn").read_bytes() == (tmp_path / "fresh.gscn").read_bytes()

    for _ in range(2):
        assert run("--help") == 0
        assert run("render", "--no-such-flag") == 2


def test_bytes_do_not_depend_on_blas_threads(tmp_path):
    # at N=600 two OpenBLAS threads sum the distill decoder's float32 GEMMs in
    # another order than one does; the package pins one thread on import
    cfg = tmp_path / "n600.cfg"
    cfg.write_text("scene.n = 600\ndistill.steps = 5\n")
    chain = ("import sys\nfrom subflow import cli\n"
             "sys.exit(cli.main(['gen-scene', '--config', sys.argv[1], '--out', 's.gscn'])\n"
             "         or cli.main(['embed', '--config', sys.argv[1], '--scene', 's.gscn',\n"
             "                      '--out-scene', 'd.gscn', '--out-decoder', 'd.prms']))\n")
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        proc = subprocess.run([sys.executable, "-c", chain, str(cfg)], cwd=out,
                              env=_child_env(OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(trees[0]) == ["d.gscn", "d.gscn.twts", "d.prms", "s.gscn"]
    assert [name for name in trees[0] if trees[0][name] != trees[1][name]] == []


@pytest.mark.skipif(sys.platform != "linux" or getattr(ctypes.CDLL(None), "mallinfo2", None)
                    is None, reason="the allocator policy is glibc's")
def test_cli_main_keeps_a_48_mib_buffer_on_the_heap():
    # glibc grows its own mmap threshold to 32 MiB at most, so it mmaps 48 MiB
    # until cli.main's policy sets the threshold to runtime.MMAP_THRESHOLD
    probe = (
        "import ctypes\nfrom subflow import cli, runtime\nlibc = ctypes.CDLL(None)\n"
        "class Info(ctypes.Structure):\n"
        "    _fields_ = [(name, ctypes.c_size_t) for name in ('arena', 'ordblks', 'smblks',\n"
        "        'hblks', 'hblkhd', 'usmblks', 'fsmblks', 'uordblks', 'fordblks', 'keepcost')]\n"
        "libc.mallinfo2.restype = Info\n"
        "libc.malloc.argtypes, libc.malloc.restype = [ctypes.c_size_t], ctypes.c_void_p\n"
        "libc.free.argtypes = [ctypes.c_void_p]\n"
        "def mmapped(size):\n"
        "    block = libc.malloc(size)\n"
        "    held = libc.mallinfo2().hblkhd\n"
        "    libc.free(block)\n"
        "    return held >= size\n"
        "before = mmapped(48 << 20)\n"
        "cli.main(['dump-config'])\n"
        "print(before, mmapped(48 << 20), runtime.set_allocator_policy())\n")
    assert 48 << 20 < runtime.MMAP_THRESHOLD
    proc = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True False True"


@pytest.mark.parametrize("source, message", [
    (["--text", "a", "--feat", ""], "exactly one of --image, --text, --feat"),
    (["--text", ""], "--text '' holds no words"),
    (["--text", "   "], "--text '   ' holds no words"),
    (["--image", ""], "--image is empty"),
    (["--feat", ""], "--feat is empty"),
], ids=["text-and-empty-feat", "empty-text", "blank-text", "empty-image", "empty-feat"])
def test_stylize_empty_source_flag_is_given(pipeline_artifacts, tmp_path, capsys, monkeypatch,
                                            source, message):
    # a flag given an empty value still counts as given, and an empty one is
    # refused by name before the scene, decoder or pipeline is loaded
    def load_styling(args, cfg):
        raise AssertionError("loaded the styling inputs")
    monkeypatch.setattr(cli, "_load_styling", load_styling)
    assert run(*_stylize_argv(pipeline_artifacts), *source, "--out", tmp_path / "o.gscn") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o.gscn").exists()


def test_train_style_misshaped_decoder2d_names_file(pipeline_artifacts, tmp_path, capsys):
    # a prior over other tap widths, left in --out, is refused before training
    from subflow.diffcore import save_params
    from subflow.losses import Decoder2D
    root = pipeline_artifacts
    out = tmp_path / "styled"
    out.mkdir()
    bad = out / "decoder2d_seed0.prms"
    save_params(bad, Decoder2D(channels=5).parameters())
    assert run("train-style", "--config", root / "small.cfg", "--scene", root / "sd.gscn",
               "--decoder", root / "dec.prms", "--pipeline", root / "pipe", "--out", out) == 2
    assert str(bad) in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [bad.name]


@pytest.mark.parametrize("source", ["corpus", "feat"])
def test_train_flow_persists_clip_calibration(pipeline_artifacts, tmp_path, source):
    # the saved center and text_norm are the seed's freshly computed ones, bit for bit
    from subflow import flowalign as fa
    from subflow.encoders import FeatureEncoders, export_features, procedural_texture
    root = pipeline_artifacts
    if source == "corpus":
        pipe, seed = root / "pipe", 0
    else:
        other = FeatureEncoders(seed=9)      # the rows may come from any encoder
        imgs = [procedural_texture(9, i, size=32) for i in range(12)]
        export_features(tmp_path / "c.feat", other.encode_clip_like(imgs))
        export_features(tmp_path / "v.feat", other.encode_vgg_like(imgs))
        pipe, seed = tmp_path / "pipe", 3
        assert run("train-flow", "--config", root / "small.cfg", "--seed", seed, "--out", pipe,
                   "--feat-clip", tmp_path / "c.feat", "--feat-vgg", tmp_path / "v.feat") == 0
    center, text_norm = fa.FlowPipeline.load(pipe).clip_calibration
    want_center, want_norm = FeatureEncoders(seed=seed).clip_calibration
    assert center.dtype == want_center.dtype and center.tobytes() == want_center.tobytes()
    assert text_norm == want_norm
    assert f"text_norm={want_norm!r}\n" in (pipe / "manifest.txt").read_text()


def test_eval_align_encodes_corpus_with_pipeline_calibration(pipeline_artifacts, tmp_path,
                                                              monkeypatch):
    # the corpus's 16 rows are the only CLIP-like encodes: the 16 calibration
    # images are not encoded again, the pipeline holds their calibration
    from subflow import encoders as enc
    calls = []
    clip_raw = enc.FeatureEncoders._clip_raw

    def counted(self, image):
        calls.append(image.shape)
        return clip_raw(self, image)

    monkeypatch.setattr(enc.FeatureEncoders, "_clip_raw", counted)
    root = pipeline_artifacts
    assert run("eval-align", "--config", root / "small.cfg", "--pipeline", root / "pipe",
               "--out", tmp_path / "align.csv") == 0
    assert len(calls) == 16       # flow.corpus


@pytest.mark.parametrize("key", ["seed", "clip_dim"])
@pytest.mark.parametrize("command", ["stylize-text", "stylize-image", "stylize-feat",
                                     "train-style", "eval-align"])
def test_encoder_identity_must_match_manifest(pipeline_artifacts, tmp_path, capsys, command,
                                              key):
    # the pipeline was trained with seed 0 and clip_dim 64: another seed's or
    # width's encoders would feed its mapping rows it was never fit to
    root = pipeline_artifacts
    cfg = tmp_path / "other.cfg"
    cfg.write_text(SMALL_CFG + ("clip_dim = 32\n" if key == "clip_dim" else ""))
    seed = ["--seed", 2] if key == "seed" else []
    common = ["--config", cfg, *seed, "--scene", root / "sd.gscn", "--pipeline", root / "pipe",
              "--out", tmp_path / "out"]
    if command == "train-style":
        argv = ["train-style", *common, "--decoder", root / "dec.prms"]
    elif command == "eval-align":
        argv = ["eval-align", "--config", cfg, *seed, "--pipeline", root / "pipe",
                "--out", tmp_path / "out"]
    else:
        ref = tmp_path / "ref"
        if command == "stylize-feat":
            ref.write_bytes(_feat_bytes(named_stream(5, "identity").standard_normal((2, 64)), 0))
            source = ["--feat", ref]
        elif command == "stylize-image":
            ras.write_ppm(ref, np.full((32, 32, 3), 0.4))
            source = ["--image", ref]
        else:
            source = ["--text", "molten glass"]
        argv = ["stylize", *common, "--decoder", root / "styled" / "decoder.prms", *source]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert str(root / "pipe" / "manifest.txt") in err and f"'{key}'" in err, err
    assert not (tmp_path / "out").exists()


def test_render_features_flag(pipeline_artifacts, tmp_path):
    root = pipeline_artifacts
    out = tmp_path / "feat_views"
    argv = ("render", "--config", root / "small.cfg", "--scene", root / "stylized.gscn")
    assert run(*argv, "--out", out, "--features") == 0
    fmap = ras.read_fmap(out / "features_00.fmap")
    assert fmap.shape == (32, 32, 32)
    scene = sc.load_scene(root / "stylized.gscn")
    cams = sc.camera_ring((0, 0, 0), 2.6, 8, elevation=1.2, focal=90.0, width=32, height=32)
    assert fmap.tobytes() == ras.render(scene, cams[0]).features.tobytes()
    # without the flag render composites no embedding maps, and its views keep their bytes
    assert run(*argv, "--out", tmp_path / "plain") == 0
    assert not list((tmp_path / "plain").glob("features_*.fmap"))
    for view in sorted(out.glob("view_*.ppm")):
        assert (tmp_path / "plain" / view.name).read_bytes() == view.read_bytes()


def test_stylize_malformed_ppm_exits_2(pipeline_artifacts, tmp_path, capsys):
    root = pipeline_artifacts
    bad = tmp_path / "cut.ppm"
    bad.write_bytes(b"P6\n32 32\n255\n" + bytes(100))
    rc = run("stylize", "--config", root / "small.cfg", "--scene", root / "sd.gscn",
             "--decoder", root / "styled" / "decoder.prms", "--pipeline", root / "pipe",
             "--image", bad, "--out", tmp_path / "o.gscn")
    assert rc == 2
    assert "cut.ppm" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["out", "threads"])
def test_config_out_key_is_rejected(key):
    with pytest.raises(FormatError, match=f"unknown key '{key}'"):
        cfgmod.read_key_values(f"{key} = 1\n", cfgmod.SCHEMA, "config")


@pytest.mark.parametrize("case", ["dump-config", "eval-align", "name-too-long", "symlink-loop",
                                  "embed-out-scene-loop", "embed-out-decoder-loop",
                                  "embed-weights-loop"])
def test_os_path_error_exits_2(tmp_path, capsys, monkeypatch, case):
    # a directory where a file is expected, a file where a directory is, a
    # file name longer than the file system allows, a loop of two symlinks
    # (at one of embed's three outputs: the weights go to <out-scene>.twts)
    if case == "dump-config":
        path = tmp_path / "cfg_dir"
        path.mkdir()
        argv = ("dump-config", "--config", path)
    elif case == "eval-align":
        path = tmp_path / "s.gscn"
        path.write_bytes(b"GSCN")
        argv = ("eval-align", "--pipeline", path, "--out", tmp_path / "align.csv")
    else:
        path = tmp_path / ("x" * 300 + ".gscn")
        if case.endswith("loop"):
            path = tmp_path / ("sd.gscn.twts" if "weights" in case else "loop_a")
            path.symlink_to(tmp_path / "loop_b")
            (tmp_path / "loop_b").symlink_to(path)
        argv = ("gen-scene", "--out", path)
        if case.startswith("embed"):        # refused before any work
            def work(*_, **__):
                raise AssertionError("embed worked toward an output on a symlink loop")

            monkeypatch.setattr(cli.ras, "write_weights", work)
            monkeypatch.setattr(cli.tr, "distill_embeddings", work)
            scene = tmp_path / "s.gscn"
            sc.save_scene(sc.generate_toy_scene("lattice", 6, 1, embed_dim=8), scene)
            out_scene, out_decoder = tmp_path / "sd.gscn", tmp_path / "dec.prms"
            if "scene" in case:
                out_scene = path
            elif "decoder" in case:
                out_decoder = path
            argv = ("embed", "--scene", scene, "--out-scene", out_scene,
                    "--out-decoder", out_decoder)
    assert run(*argv) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["render", "train-flow", "train-style", "gen-scene"])
def test_out_over_existing_file_exits_2(pipeline_artifacts, tmp_path, capsys, command):
    # each command makes its output directory, which a file already holds
    root = pipeline_artifacts
    blocker = tmp_path / "taken"
    blocker.write_bytes(b"not a directory")
    cfg = tmp_path / "quick.cfg"
    cfg.write_text(SMALL_CFG.replace("steps = 200", "steps = 0"))     # train-flow trains first
    argv = {
        "render": ("render", "--scene", root / "stylized.gscn", "--out", blocker),
        "train-flow": ("train-flow", "--out", blocker),
        "train-style": ("train-style", "--scene", root / "sd.gscn", "--decoder",
                        root / "dec.prms", "--pipeline", root / "pipe", "--out", blocker),
        "gen-scene": ("gen-scene", "--out", blocker / "x.gscn"),
    }[command]
    assert run(*argv, "--config", cfg) == 2
    assert str(blocker) in capsys.readouterr().err
    assert blocker.read_bytes() == b"not a directory"


def test_train_flow_checks_out_before_training(small_cfg, tmp_path, capsys, monkeypatch):
    def train(*_):
        raise AssertionError("train-flow trained before checking --out")

    monkeypatch.setattr(cli.fa, "run_subdivisive_flow", train)
    blocker = tmp_path / "taken"
    blocker.write_bytes(b"not a directory")
    assert run("train-flow", "--config", small_cfg, "--out", blocker) == 2
    assert str(blocker) in capsys.readouterr().err
    assert blocker.read_bytes() == b"not a directory"


@pytest.mark.parametrize("command", ["train-flow", "render"])
def test_train_flow_refuses_a_used_out(small_cfg, tmp_path, capsys, monkeypatch, command):
    # a file left by an earlier, larger run would sit beside the new output: a
    # field of a run with more rounds, a view of a larger ring
    def work(*_):
        raise AssertionError(f"{command} worked into a used --out")

    out = tmp_path / "used"
    out.mkdir()
    if command == "train-flow":
        monkeypatch.setattr(cli.fa, "run_subdivisive_flow", work)
        stale, argv = "velocity_3.prms", []
    else:
        assert run("gen-scene", "--config", small_cfg, "--out", tmp_path / "s.gscn") == 0
        monkeypatch.setattr(cli.ras, "render", work)
        stale, argv = "view_09.ppm", ["--scene", tmp_path / "s.gscn", "--depth"]
    (out / stale).write_bytes(b"stale")
    assert run(command, "--config", small_cfg, "--out", out, *argv) == 2
    assert f"--out {out}" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [stale]


def test_embed_makes_both_output_directories(tmp_path):
    # both outputs are made ready before distilling, the decoder's too
    cfg = tmp_path / "quick.cfg"
    cfg.write_text(SMALL_CFG.replace("distill.steps = 200", "distill.steps = 2"))
    assert run("gen-scene", "--config", cfg, "--out", tmp_path / "s.gscn") == 0
    out_scene, out_decoder = tmp_path / "a" / "sd.gscn", tmp_path / "b" / "dec.prms"
    assert run("embed", "--config", cfg, "--scene", tmp_path / "s.gscn",
               "--out-scene", out_scene, "--out-decoder", out_decoder) == 0
    assert sc.load_scene(out_scene).embed_dim == 32
    assert [a.shape for a in load_params(out_decoder)] == [(32, 64), (64,), (64, 3), (3,)]


def test_embed_refuses_one_path_for_both_outputs(small_cfg, tmp_path, capsys, monkeypatch):
    # the decoder would overwrite the distilled scene; refused before distilling
    def distill(*_, **__):
        raise AssertionError("embed distilled into one path for both outputs")

    monkeypatch.setattr(cli.tr, "distill_embeddings", distill)
    assert run("gen-scene", "--config", small_cfg, "--out", tmp_path / "s.gscn") == 0
    (tmp_path / "out").mkdir()
    assert run("embed", "--config", small_cfg, "--scene", tmp_path / "s.gscn",
               "--out-scene", tmp_path / "out" / "same",
               "--out-decoder", tmp_path / "out" / ".." / "out" / "same") == 2
    assert "--out-scene and --out-decoder" in capsys.readouterr().err
    assert not list((tmp_path / "out").iterdir())


def test_embed_refuses_the_weights_path_for_the_decoder(small_cfg, tmp_path, capsys,
                                                        monkeypatch):
    # embed writes the training cameras' weights to <out-scene>.twts
    def distill(*_, **__):
        raise AssertionError("embed distilled into the weights file's path")

    monkeypatch.setattr(cli.tr, "distill_embeddings", distill)
    assert run("gen-scene", "--config", small_cfg, "--out", tmp_path / "s.gscn") == 0
    out = tmp_path / "out"
    out.mkdir()
    capsys.readouterr()
    assert run("embed", "--config", small_cfg, "--scene", tmp_path / "s.gscn",
               "--out-scene", out / "sd.gscn", "--out-decoder", out / "sd.gscn.twts") == 2
    err = capsys.readouterr().err
    assert f"--out-decoder {out / 'sd.gscn.twts'}" in err
    assert f"--out-scene {out / 'sd.gscn'}" in err
    assert not list(out.iterdir())


def test_embed_weights_depend_only_on_geometry_and_cameras(pipeline_artifacts, tmp_path):
    # a rerun with other distillation steps writes the same weights bytes,
    # and they are the training cameras' `attribute_weights`
    root = pipeline_artifacts
    cfg = tmp_path / "short.cfg"
    cfg.write_text(SMALL_CFG.replace("distill.steps = 200", "distill.steps = 2"))
    assert run("embed", "--config", cfg, "--scene", root / "s.gscn",
               "--out-scene", tmp_path / "sd.gscn", "--out-decoder", tmp_path / "dec.prms") == 0
    written = (tmp_path / "sd.gscn.twts").read_bytes()
    assert written == (root / "sd.gscn.twts").read_bytes()
    scene = sc.load_scene(root / "sd.gscn")
    cams = cli._training_cams(cfgmod.load_config(cfg))
    views = list(ras.WeightsFile(root / "sd.gscn.twts"))
    assert len(views) == len(cams) == 4
    for cam, view in zip(cams, views):
        want = ras.attribute_weights(scene, cam)
        assert view.rgb.tobytes() == want.rgb.tobytes()
        assert [tuple(a.tobytes() for a in block) for block in view.blocks] \
            == [tuple(a.tobytes() for a in block) for block in want.blocks]


def test_train_style_composites_nothing(pipeline_artifacts, tmp_path, monkeypatch):
    # the weights embed wrote replace the compositing pass, with the same bytes
    def composite(*_, **__):
        raise AssertionError("train-style composited a view")

    root = pipeline_artifacts
    monkeypatch.setattr(ras, "_composite", composite)
    out = tmp_path / "styled"
    out.mkdir()
    dec2d = "decoder2d_seed0.prms"
    (out / dec2d).write_bytes((root / "styled" / dec2d).read_bytes())
    assert run("train-style", "--config", root / "small.cfg", "--scene", root / "sd.gscn",
               "--decoder", root / "dec.prms", "--pipeline", root / "pipe", "--out", out) == 0
    for name in ("decoder.prms", "train_log.csv"):
        assert (out / name).read_bytes() == (root / "styled" / name).read_bytes(), name


def _styling_copy(root, tmp_path):
    """train-style's argv over a copy of the distilled scene without its weights file."""
    scene = tmp_path / "sd.gscn"
    scene.write_bytes((root / "sd.gscn").read_bytes())
    return scene, ["train-style", "--scene", scene, "--decoder", root / "dec.prms",
                   "--pipeline", root / "pipe", "--out", tmp_path / "out"]


def test_train_style_needs_the_weights_file(pipeline_artifacts, tmp_path, capsys):
    root = pipeline_artifacts
    scene, argv = _styling_copy(root, tmp_path)
    assert run(*argv, "--config", root / "small.cfg") == 2
    err = capsys.readouterr().err
    assert f"weights file not found: {scene}.twts" in err and "`embed` writes it" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("other", ["scene.kind = lattice", "scene.n = 120"])
def test_train_style_refuses_weights_of_other_geometry(pipeline_artifacts, tmp_path, capsys,
                                                       other):
    # the weights of another scene, of the same embedding width, beside this
    # one; `scene.seed` would not do, the slab draws nothing from it
    root = pipeline_artifacts
    cfg = tmp_path / "other.cfg"
    cfg.write_text(SMALL_CFG.replace("distill.steps = 200", "distill.steps = 2") + other + "\n")
    assert run("gen-scene", "--config", cfg, "--out", tmp_path / "o.gscn") == 0
    assert run("embed", "--config", cfg, "--scene", tmp_path / "o.gscn", "--out-scene",
               tmp_path / "od.gscn", "--out-decoder", tmp_path / "odec.prms") == 0
    scene, argv = _styling_copy(root, tmp_path)
    weights = tmp_path / "sd.gscn.twts"
    weights.write_bytes((tmp_path / "od.gscn.twts").read_bytes())
    capsys.readouterr()
    assert run(*argv, "--config", root / "small.cfg") == 2
    err = capsys.readouterr().err
    assert f"{weights}: made for other geometry than {scene}" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("camera.focal", "60.0"), ("camera.radius", "3.0"),
                                        ("camera.elevation", "0.8"), ("camera.count", "6")])
def test_train_style_refuses_cameras_other_than_embeds(pipeline_artifacts, tmp_path, capsys,
                                                       key, value):
    # embed composited the config's training cameras; another ring's would
    # pair its content images with weights of other views
    root = pipeline_artifacts
    cfg = tmp_path / "cams.cfg"
    cfg.write_text(SMALL_CFG + f"{key} = {value}\n")
    argv = ["train-style", "--config", cfg, "--scene", root / "sd.gscn", "--decoder",
            root / "dec.prms", "--pipeline", root / "pipe", "--out", tmp_path / "out"]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert f"{root / 'sd.gscn.twts'}: '{key}' is" in err and f"{cfg} ('{key}')" in err, err
    assert not (tmp_path / "out").exists()


def test_train_style_broken_weights_file_exits_2(pipeline_artifacts, tmp_path, capsys):
    root = pipeline_artifacts
    scene, argv = _styling_copy(root, tmp_path)
    weights = tmp_path / "sd.gscn.twts"
    weights.write_bytes((root / "sd.gscn.twts").read_bytes()[:-8])
    assert run(*argv, "--config", root / "small.cfg") == 2
    assert f"{weights}: payload ends" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_consistency_names_a_ring_too_small(tmp_path, capsys):
    # camera.count = 3 passes the config's bound of 2, which render and
    # training need; the check comes before the scene is read
    path = tmp_path / "ring3.cfg"
    path.write_text(SMALL_CFG.replace("camera.count = 8", "camera.count = 3"))
    out = tmp_path / "cons.csv"
    assert run("eval-consistency", "--config", path, "--scene", tmp_path / "missing.gscn",
               "--out", out) == 2
    err = capsys.readouterr().err
    assert f"{path}: 'camera.count' is 3" in err, err
    assert not out.exists()


def test_eval_consistency_names_a_ring_whose_views_share_no_pixel(tmp_path, capsys):
    # from 500 units away the lattice covers a few pixels of each view, and no
    # two views cover the same point: there is no error to measure
    path = tmp_path / "far.cfg"
    path.write_text("scene.kind = lattice\nscene.n = 8\ncamera.radius = 500\n")
    scene, out = tmp_path / "s.gscn", tmp_path / "cons.csv"
    assert run("gen-scene", "--config", path, "--out", scene) == 0
    capsys.readouterr()
    assert run("eval-consistency", "--config", path, "--scene", scene, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"--scene {scene}" in err and str(path) in err, err
    assert "share no covered pixel" in err and "camera.radius = 500.0" in err, err
    for key in cfgmod.SCHEMA:
        assert (f"{key} = " in err) == key.startswith("camera."), (key, err)
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--feat-clip", "--feat-vgg"])
def test_eval_align_feat_flags_must_pair(pipeline_artifacts, tmp_path, capsys, flag):
    root = pipeline_artifacts
    rc = run("eval-align", "--config", root / "small.cfg", "--pipeline", root / "pipe",
             "--out", tmp_path / "align.csv", flag, root / "pipe" / "aligned.feat")
    assert rc == 2
    assert "--feat-clip and --feat-vgg" in capsys.readouterr().err
    assert not (tmp_path / "align.csv").exists()


@pytest.mark.parametrize("command", ["train-style", "stylize"])
def test_raw_scene_is_rejected(pipeline_artifacts, tmp_path, capsys, command):
    # a gen-scene GSCN has equal embeddings: stylizing it would paint one color
    root = pipeline_artifacts
    argv = [command, "--config", root / "small.cfg", "--scene", root / "s.gscn",
            "--pipeline", root / "pipe", "--out", tmp_path / "out"]
    if command == "train-style":
        argv += ["--decoder", root / "dec.prms"]
    else:
        argv += ["--decoder", root / "styled" / "decoder.prms", "--text", "anything"]
    assert run(*argv) == 2
    assert str(root / "s.gscn") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train-style", "stylize"])
def test_one_gaussian_scene_is_refused(pipeline_artifacts, tmp_path, capsys, command):
    # `embed` runs on one Gaussian, but AdaIN needs statistics over several
    root = pipeline_artifacts
    cfg = tmp_path / "one.cfg"
    cfg.write_text(SMALL_CFG + "scene.n = 1\ndistill.steps = 5\n")
    scene = tmp_path / "sd.gscn"
    assert run("gen-scene", "--config", cfg, "--out", tmp_path / "s.gscn") == 0
    assert run("embed", "--config", cfg, "--scene", tmp_path / "s.gscn", "--out-scene", scene,
               "--out-decoder", tmp_path / "dec.prms") == 0
    argv = [command, "--config", cfg, "--scene", scene, "--pipeline", root / "pipe",
            "--out", tmp_path / "out"]
    if command == "train-style":
        argv += ["--decoder", tmp_path / "dec.prms"]
    else:
        argv += ["--decoder", root / "styled" / "decoder.prms", "--text", "anything"]
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert f"{scene}: N=1" in err and "at least 2 Gaussians" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["drop", "garble"])
def test_stylize_broken_manifest_exits_2(pipeline_artifacts, tmp_path, capsys, mode):
    root = pipeline_artifacts
    pipe = tmp_path / "pipe"
    pipe.mkdir()
    for f in (root / "pipe").iterdir():
        (pipe / f.name).write_bytes(f.read_bytes())
    lines = (pipe / "manifest.txt").read_text().splitlines()
    lines = [ln for ln in lines if not ln.startswith("euler_steps=")] if mode == "drop" \
        else [ln.replace("euler_steps=", "euler_steps=x") for ln in lines]
    (pipe / "manifest.txt").write_text("\n".join(lines) + "\n")
    rc = run("stylize", "--config", root / "small.cfg", "--scene", root / "sd.gscn",
             "--decoder", root / "styled" / "decoder.prms", "--pipeline", pipe,
             "--text", "anything", "--out", tmp_path / "o.gscn")
    err = capsys.readouterr().err
    assert rc == 2
    assert "manifest.txt" in err and "'euler_steps'" in err
    assert not (tmp_path / "o.gscn").exists()


@pytest.mark.parametrize("case", ["center-missing", "center-shape", "norm-missing", "norm-0",
                                  "norm-nan", "norm-inf"])
def test_stylize_broken_calibration_exits_2(pipeline_artifacts, tmp_path, capsys, case):
    # no fallback recomputes a calibration the pipeline lacks
    from subflow.diffcore import save_params
    root = pipeline_artifacts
    pipe = tmp_path / "pipe"
    pipe.mkdir()
    for f in (root / "pipe").iterdir():
        (pipe / f.name).write_bytes(f.read_bytes())
    lines = (pipe / "manifest.txt").read_text().splitlines()
    if case == "center-missing":
        (pipe / "clip_center.prms").unlink()
    elif case == "center-shape":
        save_params(pipe / "clip_center.prms", [np.zeros((1, 64), dtype=np.float32)])
    elif case == "norm-missing":
        lines = [ln for ln in lines if not ln.startswith("text_norm=")]
    else:
        value = case.removeprefix("norm-")
        lines = [f"text_norm={value}" if ln.startswith("text_norm=") else ln for ln in lines]
    (pipe / "manifest.txt").write_text("\n".join(lines) + "\n")
    rc = run("stylize", "--config", root / "small.cfg", "--scene", root / "sd.gscn",
             "--decoder", root / "styled" / "decoder.prms", "--pipeline", pipe,
             "--text", "anything", "--out", tmp_path / "o.gscn")
    err = capsys.readouterr().err
    assert rc == 2
    named = [str(pipe / "manifest.txt"), "'text_norm'"] if case.startswith("norm") \
        else [str(pipe / "clip_center.prms")]
    assert all(part in err for part in named), err
    assert not (tmp_path / "o.gscn").exists()


def _feat_bytes(rows, tag):
    rows = np.asarray(rows, dtype="<f4")
    return b"FEAT" + struct.pack("<IIIB", 1, *rows.shape, tag) + rows.tobytes()


@pytest.mark.parametrize("case", ["stylize-feat-nan", "stylize-feat-dim0", "train-flow-clip-nan",
                                  "train-flow-vgg-nan", "stylize-decoder-nan"])
def test_bad_payload_names_file(pipeline_artifacts, tmp_path, capsys, case):
    from subflow.diffcore import load_params, save_params
    from subflow.encoders import import_features
    root = pipeline_artifacts
    rows = import_features(root / "pipe" / "aligned.feat").vectors
    nan_rows = rows.copy()
    nan_rows[1, 3] = np.nan
    bad = tmp_path / "bad.feat"
    stylize = ["stylize", "--config", root / "small.cfg", "--scene", root / "sd.gscn",
               "--pipeline", root / "pipe", "--out", tmp_path / "out"]
    decoder = root / "styled" / "decoder.prms"
    if case == "stylize-feat-nan":
        bad.write_bytes(_feat_bytes(nan_rows, 0))
        argv = stylize + ["--decoder", decoder, "--feat", bad]
    elif case == "stylize-feat-dim0":
        bad.write_bytes(_feat_bytes(np.zeros((1, 0)), 0))
        argv = stylize + ["--decoder", decoder, "--feat", bad]
    elif case.startswith("train-flow"):
        good = tmp_path / "good.feat"
        clip_nan = case == "train-flow-clip-nan"
        bad.write_bytes(_feat_bytes(nan_rows, 0 if clip_nan else 1))
        good.write_bytes(_feat_bytes(rows, 1 if clip_nan else 0))
        clip, vgg = (bad, good) if clip_nan else (good, bad)
        argv = ["train-flow", "--config", root / "small.cfg", "--out", tmp_path / "out",
                "--feat-clip", clip, "--feat-vgg", vgg]
    else:
        arrays = load_params(decoder)
        arrays[2][0] = np.nan
        bad = tmp_path / "bad.prms"
        save_params(bad, arrays)
        argv = stylize + ["--decoder", bad, "--text", "anything"]
    assert run(*argv) == 2
    assert str(bad) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["stylize-image", "train-style-image", "stylize-feat-dim",
                                  "train-flow-rows", "eval-align-rows", "train-flow-swapped",
                                  "eval-align-swapped", "train-flow-clip-dim",
                                  "eval-align-clip-dim", "eval-align-vgg-dim",
                                  "train-style-style-dim", "stylize-style-dim",
                                  "train-style-embed-dim", "stylize-embed-dim",
                                  "eval-align-style-dim"])
def test_input_that_does_not_fit_names_file(pipeline_artifacts, tmp_path, capsys, monkeypatch,
                                            case):
    # each input parses, but its size or domain does not fit its flag, the
    # encoder, the decoder or the pipeline
    root = pipeline_artifacts
    config = root / "small.cfg"
    rows = named_stream(3, "unfit").standard_normal((4, 64))
    styled = ["--scene", root / "sd.gscn", "--pipeline", root / "pipe"]
    if case == "stylize-image":
        named = [tmp_path / "small.ppm"]
        argv = ["stylize", "--image", named[0],
                "--decoder", root / "styled" / "decoder.prms"] + styled
    elif case == "train-style-image":
        named = [tmp_path / "small.ppm"]
        argv = ["train-style", "--style-image", named[0], "--decoder", root / "dec.prms"] + styled
    elif case == "stylize-feat-dim":
        named = [tmp_path / "narrow.feat"]
        named[0].write_bytes(_feat_bytes(rows[:, :32], 0))
        argv = ["stylize", "--feat", named[0],
                "--decoder", root / "styled" / "decoder.prms"] + styled
    elif case == "eval-align-style-dim":
        # the config's style_dim of 32 against the pipeline's 64, refused
        # before the corpus is encoded
        config = tmp_path / "narrow.cfg"
        config.write_text(SMALL_CFG + "style_dim = 32\n")
        named = [config, root / "pipe" / "manifest.txt", "'style_dim'"]
        monkeypatch.setattr(cli, "procedural_texture", lambda *a, **k: pytest.fail("encoded"))
        argv = ["eval-align", "--pipeline", root / "pipe"]
    elif case.endswith("style-dim"):
        # a D=64 scene against the pipeline's style_dim of 64, which fits D=32
        named = [tmp_path / "wide.gscn", root / "pipe" / "manifest.txt", "'style_dim'"]
        scene = sc.load_scene(root / "sd.gscn")
        sc.save_scene(scene.with_embeddings(np.tile(scene.embeddings, (1, 2))), named[0])
        if case.startswith("train-style"):
            argv = ["train-style", "--decoder", root / "dec.prms"]
        else:
            argv = ["stylize", "--decoder", root / "styled" / "decoder.prms", "--text", "wide"]
        argv += ["--scene", named[0], "--pipeline", root / "pipe"]
    elif case.endswith("embed-dim"):
        # the D=32 scene against a decoder that reads embed_dim = 64 channels
        config = tmp_path / "wide.cfg"
        config.write_text(SMALL_CFG + "embed_dim = 64\n")
        from subflow.diffcore import save_params
        from subflow.transfer import DecoderNet
        named = [root / "sd.gscn", tmp_path / "dec64.prms", "'embed_dim'"]
        save_params(named[1], DecoderNet(64, hidden=(64,), seed=0).parameters())
        argv = ["stylize", "--text", "wide"] if case.startswith("stylize") else ["train-style"]
        argv += ["--decoder", named[1]] + styled
    else:
        command = "train-flow" if case.startswith("train-flow") else "eval-align"
        kind = case.removeprefix(command + "-")
        clip, vgg = tmp_path / "clip.feat", tmp_path / "vgg.feat"
        clip_rows, clip_tag, vgg_rows, vgg_tag = rows, 0, rows, 1
        named = [clip]
        if kind == "rows":
            clip_rows, named = rows[:3], [clip, vgg]
        elif kind == "swapped":
            clip_tag, vgg_tag = 1, 0
        elif kind == "clip-dim":
            clip_rows = rows[:, :32]
        else:
            vgg_rows, named = rows[:, :32], [vgg]
        clip.write_bytes(_feat_bytes(clip_rows, clip_tag))
        vgg.write_bytes(_feat_bytes(vgg_rows, vgg_tag))
        argv = [command, "--feat-clip", clip, "--feat-vgg", vgg]
        if command == "eval-align":
            argv += ["--pipeline", root / "pipe"]
    if case.endswith("image"):
        ras.write_ppm(named[0], np.full((30, 30, 3), 0.5))
    assert run(*argv, "--config", config, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert all(str(path) in err for path in named), err
    assert not (tmp_path / "out").exists()


# every bounded key at a value below its bound, and the camera sides off the
# CLIP-like block grid; the confirmed failures run the command that used to
# crash, write garbage or fail without naming the config
@pytest.mark.parametrize("key, value, command", [
    ("embed_dim", 7, "dump-config"), ("clip_dim", 0, "dump-config"),
    ("style_dim", 0, "dump-config"), ("scene.n", 0, "gen-scene"),
    ("camera.count", 1, "dump-config"), ("camera.radius", 0, "dump-config"),
    ("camera.focal", -1, "dump-config"), ("camera.width", 0, "dump-config"),
    ("camera.height", 0, "dump-config"), ("flow.euler_steps", 0, "dump-config"),
    ("flow.rounds", 0, "dump-config"), ("flow.train_steps", -1, "train-flow"),
    ("flow.batch_size", 0, "dump-config"), ("flow.learning_rate", 0, "dump-config"),
    ("flow.mapping_steps", -1, "dump-config"), ("flow.corpus", 0, "train-flow"),
    ("distill.steps", -1, "dump-config"), ("distill.learning_rate", "nan", "dump-config"),
    ("distill.hidden", 0, "dump-config"), ("style.steps", -2, "train-style"),
    ("style.learning_rate", "inf", "dump-config"), ("weights.style", -1, "dump-config"),
    ("weights.obs", "nan", "dump-config"), ("weights.suppression", -1, "dump-config"),
    ("gen2d.corpus", 0, "train-style"), ("gen2d.steps", -1, "dump-config"),
    ("camera.width", 30, "train-flow"), ("camera.height", 30, "dump-config"),
])
def test_config_value_below_bound_exits_2(tmp_path, capsys, key, value, command):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CFG + f"{key} = {value}\n")
    out = tmp_path / "out"
    argv = {"dump-config": [],
            "gen-scene": ["--out", out],
            "train-flow": ["--out", out],
            "train-style": ["--scene", tmp_path / "sd.gscn", "--decoder", tmp_path / "d.prms",
                            "--pipeline", tmp_path / "pipe", "--out", out]}[command]
    assert run(command, "--config", path, *argv) == 2
    captured = capsys.readouterr()
    line = SMALL_CFG.count("\n") + 1
    assert f"{path} line {line}:" in captured.err and f"'{key}'" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_elevation_exits_2(small_cfg, tmp_path, capsys, value):
    # a non-finite elevation puts every ring camera at a non-finite position
    assert run("gen-scene", "--config", small_cfg, "--out", tmp_path / "s.gscn") == 0
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CFG + f"camera.elevation = {value}\n")
    out = tmp_path / "views"
    capsys.readouterr()
    assert run("render", "--config", path, "--scene", tmp_path / "s.gscn", "--out", out) == 2
    err = capsys.readouterr().err
    line = SMALL_CFG.count("\n") + 1
    assert f"{path} line {line}:" in err and "'camera.elevation'" in err, err
    assert not out.exists()
