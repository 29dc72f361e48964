"""The four benchmark workloads, each a closed loop with one client.

A workload builds its inputs once per set-up (`build`, run in a child
process so imports are timed too), then issues one operation after another
through `cli.main` in-process: the next command starts when the previous one
has returned. Every operation checks its outputs after its commands are
timed; a failed check raises `OpFailed`, and the operation is counted as
failed and never timed as a sample. All four use the `textured_slab` scene.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import signal
import time
from pathlib import Path

import numpy as np

from subflow import cli, config, rasterizer, scene
from subflow.diffcore.checkpoint import save_params
from subflow.diffcore.rng import named_stream
from subflow.encoders import FeatureEncoders, FeatureSet, export_features, procedural_texture
from subflow.losses import train_decoder2d

# Desk scale (the config defaults: N=400, 48x48, 8-camera ring, 4 used for
# training) with step counts scaled down so one chain takes a few seconds.
DESK = {
    "scene.kind": "textured_slab",
    "distill.steps": 60,
    "flow.mapping_steps": 200,
    "flow.train_steps": 200,
    "gen2d.corpus": 16,
    "gen2d.steps": 120,
    "style.steps": 20,
}
# 96x96 views; focal 180 keeps the ring framing of the 48x48 / focal 90 default.
WIDE_VIEW = {"camera.width": 96, "camera.height": 96, "camera.focal": 180.0}
SAMPLE_PERIOD_S = 0.02
KERNEL_ITERATIONS = 20
KERNEL_NOMINAL_S = 0.0002   # calibrated times are scaled to this micro-kernel time
GSCN_HEADER = 16
GSCN_GEOMETRY = 11      # pos[3], quat[4], scale[3], opacity per record
GSCN_COLOR_END = 14     # then color[3]; embeddings follow


class OpFailed(Exception):
    """An operation whose command failed or whose outputs are wrong."""


def run_cli(argv: list) -> float:
    """Wall seconds of one `subflow` command run in-process."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise OpFailed(f"subflow {argv[0]} exited with code {code}")
    return elapsed


class SpeedSampler:
    """The host's speed while commands run.

    The host shares its cores with other tenants, and its speed swings by up
    to 1.7x within seconds. While started, a timer interrupts every
    `SAMPLE_PERIOD_S` to time a fixed micro-kernel of small numpy ops, which
    touches no subflow code. A command's speed factor is the micro-kernel's
    nominal time over its mean time in the samples taken while the command
    ran (the latest sample, for a command shorter than one period).
    """

    def __init__(self):
        self.samples: list = []
        self._matrix = np.full((32, 32), 0.01)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame):
        a = self._matrix
        start = time.perf_counter()
        for _ in range(KERNEL_ITERATIONS):
            a = np.tanh(a @ a.T + 0.01)
        self.samples.append(time.perf_counter() - start)

    def snapshot(self, count: int = 10) -> None:
        """Take `count` samples now, for work too short for the timer."""
        for _ in range(count):
            self._tick(None, None)

    def mark(self) -> int:
        return len(self.samples)

    def spent(self, mark: int) -> float:
        """Seconds the samples since `mark` took from the command they interrupted."""
        return sum(self.samples[mark:])

    def factor(self, mark: int) -> float:
        taken = self.samples[mark:] or self.samples[-1:]
        return KERNEL_NOMINAL_S * len(taken) / sum(taken) if taken else 1.0


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def check_same_tree(ref: dict, root: Path) -> None:
    got = tree_bytes(root)
    if got.keys() != ref.keys():
        raise OpFailed(f"{root.name}: files differ from the reference: "
                       f"{sorted(got.keys() ^ ref.keys())}")
    diff = [k for k in ref if got[k] != ref[k]]
    if diff:
        raise OpFailed(f"{root.name}: not byte-identical to the reference: {diff}")


def check_train_log(path: Path) -> None:
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise OpFailed(f"{path}: no training rows")
    for row in rows:
        if not all(math.isfinite(float(v)) for v in row.values()):
            raise OpFailed(f"{path}: non-finite row {row}")


def check_rounds(path: Path) -> None:
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise OpFailed(f"{path}: no rounds")
    for row in rows:
        if float(row["fid_after"]) > float(row["fid_before"]):
            raise OpFailed(f"{path}: FID rose in round {row['round']}: "
                           f"{row['fid_before']} -> {row['fid_after']}")


class Workload:
    name = ""
    config: dict = {}
    # (name, stage or "op", statistic, unit) of the per-stage numbers reported
    stages: tuple = ()
    cycle = 1           # operations per traced block (whole rotations of inputs)
    warm_up = True      # operation 0 is an untimed reference; else it is timed too

    def values(self, seed: int) -> dict:
        return {"seed": seed, "scene.seed": seed, **self.config}

    def build(self, work: Path, seed: int) -> None:
        """Write the config and every input artifact under `work`."""
        work.mkdir(parents=True)
        text = "".join(f"{k} = {v}\n" for k, v in self.values(seed).items())
        (work / "run.cfg").write_text(text, encoding="ascii")

    def start(self, work: Path, seed: int) -> None:
        self.work = work
        self.cfg = ["--config", str(work / "run.cfg")]
        self.reference = None
        self.times: dict = {}
        self.calibrated: dict = {}
        self.sampler = None     # a started SpeedSampler while calibrated times are wanted

    def run(self, stage: str, argv: list) -> None:
        """Time one command as `stage`, raw and at the reference host speed."""
        if not self.sampler:
            self.times[stage] = run_cli(argv)
            return
        mark = self.sampler.mark()
        seconds = run_cli(argv) - self.sampler.spent(mark)
        self.times[stage] = seconds
        self.calibrated[stage] = seconds * self.sampler.factor(mark)

    def op(self, i: int) -> None:
        """Run operation `i`, timing its commands with `run`. The first
        operation that passes its checks is the reference later ones must equal."""
        raise NotImplementedError

    def probes(self) -> dict:
        """Per-layer numbers the traced run measures outside the spans."""
        return {}


class TrainDesk(Workload):
    name = "train_desk"
    config = DESK
    stages = (("train_s", "op", "p50", "s"), ("gen_scene_s", "gen_scene", "p50", "s"),
              ("embed_s", "embed", "p50", "s"), ("train_flow_s", "train_flow", "p50", "s"),
              ("train_style_s", "train_style", "p50", "s"))

    def op(self, i):
        out = self.work / f"op{i}"
        out.mkdir()
        c = self.cfg
        self.run("gen_scene", ["gen-scene", *c, "--out", str(out / "scene.gscn")])
        self.run("embed", ["embed", *c, "--scene", str(out / "scene.gscn"),
                           "--out-scene", str(out / "distilled.gscn"),
                           "--out-decoder", str(out / "decoder.prms")])
        self.run("train_flow", ["train-flow", *c, "--out", str(out / "pipe")])
        # a fresh output directory, so the 2D decoder is pre-trained cold
        self.run("train_style", ["train-style", *c, "--scene", str(out / "distilled.gscn"),
                                 "--decoder", str(out / "decoder.prms"),
                                 "--pipeline", str(out / "pipe"), "--out", str(out / "styled")])
        check_rounds(out / "pipe" / "rounds.csv")
        check_train_log(out / "styled" / "train_log.csv")
        if self.reference is None:
            self.reference = tree_bytes(out)
        else:
            check_same_tree(self.reference, out)
            shutil.rmtree(out)


class TrainWide(Workload):
    name = "train_wide"
    config = {**DESK, **WIDE_VIEW, "scene.n": 2000, "distill.steps": 10, "style.steps": 5,
              "flow.mapping_steps": 100, "flow.train_steps": 100,
              "gen2d.corpus": 8, "gen2d.steps": 40}
    stages = (("train_s", "op", "p50", "s"), ("embed_s", "embed", "p50", "s"),
              ("train_style_s", "train_style", "p50", "s"))
    warm_up = False     # a chain takes half the window; its first one runs warm enough

    def build(self, work, seed):
        super().build(work, seed)
        c = ["--config", str(work / "run.cfg")]
        run_cli(["gen-scene", *c, "--out", str(work / "scene.gscn")])
        run_cli(["train-flow", *c, "--out", str(work / "pipe")])
        cfg = config.load_config(work / "run.cfg")
        encoders = FeatureEncoders(seed=cfg["seed"], clip_dim=cfg["clip_dim"],
                                   style_dim=cfg["style_dim"])
        dec2d = train_decoder2d(encoders, corpus=cfg["gen2d.corpus"], steps=cfg["gen2d.steps"],
                                seed=cfg["seed"], size=cfg["camera.width"])
        # train-style reuses a 2D decoder it finds under this name in its --out
        save_params(work / f"decoder2d_seed{seed}.prms", dec2d.parameters())

    def start(self, work, seed):
        super().start(work, seed)
        self.dec2d = work / f"decoder2d_seed{seed}.prms"
        self.dec2d_bytes = self.dec2d.read_bytes()

    def op(self, i):
        out = self.work / f"op{i}"
        (out / "styled").mkdir(parents=True)
        shutil.copy(self.dec2d, out / "styled")
        c = self.cfg
        self.run("embed", ["embed", *c, "--scene", str(self.work / "scene.gscn"),
                           "--out-scene", str(out / "distilled.gscn"),
                           "--out-decoder", str(out / "decoder.prms")])
        self.run("train_style", ["train-style", *c, "--scene", str(out / "distilled.gscn"),
                                 "--decoder", str(out / "decoder.prms"),
                                 "--pipeline", str(self.work / "pipe"),
                                 "--out", str(out / "styled")])
        check_train_log(out / "styled" / "train_log.csv")
        dec2d = sorted((out / "styled").glob("decoder2d*"))
        if dec2d != [out / "styled" / self.dec2d.name] or dec2d[0].read_bytes() != self.dec2d_bytes:
            raise OpFailed(f"train-style did not reuse the pre-built 2D decoder: {dec2d}")
        if self.reference is None:
            self.reference = tree_bytes(out)
        else:
            check_same_tree(self.reference, out)
            shutil.rmtree(out)


class RenderLarge(Workload):
    name = "render_large"
    config = {"scene.kind": "textured_slab", "scene.n": 3000, **WIDE_VIEW}
    stages = (("render_ring_s", "render_ring", "p50", "s"),
              ("consistency_s", "consistency", "p50", "s"))

    def build(self, work, seed):
        super().build(work, seed)
        run_cli(["gen-scene", "--config", str(work / "run.cfg"), "--out", str(work / "scene.gscn")])

    def op(self, i):
        out = self.work / f"op{i}"
        out.mkdir()
        c = [*self.cfg, "--scene", str(self.work / "scene.gscn")]
        self.run("render_ring", ["render", *c, "--out", str(out / "views"), "--depth"])
        self.run("consistency", ["eval-consistency", *c, "--out", str(out / "consistency.csv")])
        if self.reference is None:
            self.check_reference(out)
            self.reference = tree_bytes(out)
        else:
            check_same_tree(self.reference, out)
            shutil.rmtree(out)

    def probes(self):
        """Ring render time with threads=2 over threads=1, same views, untraced."""
        gs = scene.load_scene(self.work / "scene.gscn")
        spent = {1: 0.0, 2: 0.0}
        for order in ((1, 2), (2, 1)):
            for threads in order:
                start = time.perf_counter()
                for cam in self.ring():
                    rasterizer.render(gs, cam, threads=threads)
                spent[threads] += time.perf_counter() - start
        return {"rasterizer.render.threads2_ratio": spent[2] / spent[1]}

    def ring(self) -> list:
        cfg = config.load_config(self.work / "run.cfg")
        return scene.camera_ring((0.0, 0.0, 0.0), cfg["camera.radius"], cfg["camera.count"],
                                 elevation=cfg["camera.elevation"], focal=cfg["camera.focal"],
                                 width=cfg["camera.width"], height=cfg["camera.height"])

    def check_reference(self, out: Path) -> None:
        with open(out / "consistency.csv", newline="", encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
        fractions = [float(r["value"]) for r in rows if r["metric"] == "valid_fraction"]
        rmse = [float(r["value"]) for r in rows if r["metric"] == "masked_rmse"]
        if not fractions or min(fractions) <= 0 or not all(map(math.isfinite, rmse)):
            raise OpFailed(f"consistency: valid fractions {fractions}, rmse {rmse}")
        depths = sorted((out / "views").glob("depth_*.fmap"))
        if len(depths) != len(sorted((out / "views").glob("view_*.ppm"))) or not depths:
            raise OpFailed("render: depth maps and views do not pair up")
        if not all(np.isfinite(rasterizer.read_fmap(p)).all() for p in depths):
            raise OpFailed("render: non-finite depth map")
        # the float image behind view 0 lies in [0, 1] and is what the CLI wrote
        rgb = rasterizer.render(scene.load_scene(self.work / "scene.gscn"), self.ring()[0]).rgb
        if not (np.isfinite(rgb).all() and rgb.min() >= 0.0 and rgb.max() <= 1.0):
            raise OpFailed(f"render: rgb outside [0, 1]: {rgb.min()} .. {rgb.max()}")
        rasterizer.write_ppm(self.work / "view0.ppm", rgb)
        if (self.work / "view0.ppm").read_bytes() != (out / "views" / "view_00.ppm").read_bytes():
            raise OpFailed("render: view_00.ppm differs from the library render")


TEXT_WORDS = ("molten", "copper", "sunset", "ink", "wash", "glacier", "neon", "moss",
              "charcoal", "pastel", "storm", "velvet", "amber", "cobalt", "rust", "dawn")
REFS_PER_KIND = 3


class Restyle(Workload):
    name = "restyle"
    config = {**DESK, "distill.steps": 30, "flow.mapping_steps": 100, "flow.train_steps": 100,
              "gen2d.corpus": 8, "gen2d.steps": 40, "style.steps": 4}
    stages = (("stylize_ms_p50", "stylize", "p50", "ms"), ("stylize_ms_p90", "stylize", "p90", "ms"))
    cycle = 3 * REFS_PER_KIND

    def build(self, work, seed):
        super().build(work, seed)
        c = ["--config", str(work / "run.cfg")]
        run_cli(["gen-scene", *c, "--out", str(work / "scene.gscn")])
        run_cli(["embed", *c, "--scene", str(work / "scene.gscn"),
                 "--out-scene", str(work / "distilled.gscn"),
                 "--out-decoder", str(work / "decoder.prms")])
        run_cli(["train-flow", *c, "--out", str(work / "pipe")])
        run_cli(["train-style", *c, "--scene", str(work / "distilled.gscn"),
                 "--decoder", str(work / "decoder.prms"), "--pipeline", str(work / "pipe"),
                 "--out", str(work / "styled")])
        cfg = config.load_config(work / "run.cfg")
        size = cfg["camera.width"]
        encoders = FeatureEncoders(seed=cfg["seed"], clip_dim=cfg["clip_dim"],
                                   style_dim=cfg["style_dim"])
        for j in range(REFS_PER_KIND):
            rasterizer.write_ppm(work / f"ref{j}.ppm", procedural_texture(seed, 500 + j, size))
            rows = encoders.encode_clip_like(
                [procedural_texture(seed, 600 + 4 * j + r, size) for r in range(4)])
            export_features(work / f"ref{j}.feat", FeatureSet("clip_like", rows.vectors))

    def start(self, work, seed):
        super().start(work, seed)
        words = named_stream(seed, "perfbench.restyle.text")
        texts = [" ".join(words.choice(TEXT_WORDS, size=3)) for _ in range(REFS_PER_KIND)]
        self.requests = []
        for j in range(REFS_PER_KIND):
            self.requests += [("--text", texts[j]), ("--image", str(work / f"ref{j}.ppm")),
                              ("--feat", str(work / f"ref{j}.feat"))]
        self.input = (work / "distilled.gscn").read_bytes()
        self.first: dict = {}
        (work / "out").mkdir()

    def op(self, i):
        k = i % len(self.requests)
        out = self.work / "out" / f"req{k}.gscn"
        self.run("stylize", [
            "stylize", *self.cfg, "--scene", str(self.work / "distilled.gscn"),
            "--decoder", str(self.work / "styled" / "decoder.prms"),
            "--pipeline", str(self.work / "pipe"), *self.requests[k], "--out", str(out)])
        got = out.read_bytes()
        self.check_geometry(got)
        if self.first.setdefault(k, got) != got:
            raise OpFailed(f"request {self.requests[k]}: output differs from its first response")

    def check_geometry(self, got: bytes) -> None:
        if len(got) != len(self.input) or got[:GSCN_HEADER] != self.input[:GSCN_HEADER]:
            raise OpFailed("stylize: output header or size differs from the input scene")
        n = int.from_bytes(self.input[8:12], "little")
        a = np.frombuffer(self.input, dtype="<f4", offset=GSCN_HEADER).reshape(n, -1)
        b = np.frombuffer(got, dtype="<f4", offset=GSCN_HEADER).reshape(n, -1)
        keep = np.r_[0:GSCN_GEOMETRY, GSCN_COLOR_END:a.shape[1]]
        if a[:, keep].tobytes() != b[:, keep].tobytes():
            raise OpFailed("stylize: geometry or embedding bytes changed")
        colors = b[:, GSCN_GEOMETRY:GSCN_COLOR_END]
        if not (np.isfinite(colors).all() and colors.min() >= 0.0 and colors.max() <= 1.0):
            raise OpFailed("stylize: colors outside [0, 1]")


WORKLOADS = {w.name: w for w in (TrainDesk, TrainWide, RenderLarge, Restyle)}
