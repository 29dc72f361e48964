"""In-memory span tracer wrapped around subflow's public functions.

The wrappers live here, in the benchmark, not in the package: `install`
replaces each listed function (at its defining module and at every module
that re-binds it by `from ... import`) with a wrapper that records a span,
and `uninstall` puts the originals back. Spans are kept in memory with their
parent ids and written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

from subflow import cli, encoders, flowalign, losses, metrics, rasterizer, scene, transfer
from subflow.diffcore import checkpoint, optim, tensor


def _sites():
    """(owner, attribute, span name) for every wrapped call site."""
    enc = encoders.FeatureEncoders
    sites = [
        (tensor.Tensor, "backward", "diffcore.backward"),
        (tensor, "conv2d", "diffcore.conv2d"),
        (tensor, "matmul", "diffcore.matmul"),
        (optim.Adam, "step", "diffcore.adam"),
        (enc, "__init__", "encoders.init"),   # covers cli.FeatureEncoders too
        (enc, "tap_features", "encoders.tap_features"),
        (enc, "encode_clip_like", "encoders.encode"),
        (enc, "encode_vgg_like", "encoders.encode"),
        (enc, "encode_text", "encoders.encode"),
        (flowalign, "train_mapping", "flowalign.train_mapping"),
        (flowalign, "train_velocity", "flowalign.train_velocity"),
        (flowalign, "euler_integrate", "flowalign.euler_integrate"),
        (flowalign.FlowPipeline, "load", "flowalign.pipeline_load"),
        (transfer, "distill_embeddings", "transfer.distill_embeddings"),
        (transfer, "stylize_scene", "transfer.stylize_scene"),
        (losses, "train_decoder2d", "losses.train_decoder2d"),
        (losses, "train_stylization", "losses.train_stylization"),
        (losses, "content_loss", "losses.content_loss"),
        (losses, "style_loss", "losses.style_loss"),
        (losses, "observation_loss", "losses.observation_loss"),
        (losses, "suppression_loss", "losses.suppression_loss"),
        (losses, "generator_2d", "losses.generator_2d"),
        (losses.DiscriminatorNet, "score_scales", "losses.score_scales"),
        (metrics, "eval_consistency", "metrics.eval_consistency"),
        (scene, "load_scene", "scene.load_scene"),
        (scene, "save_scene", "scene.save_scene"),
    ]
    rebound = {
        "load_params": ("diffcore.load_params", (checkpoint, cli, flowalign)),
        "render": ("rasterizer.render", (rasterizer, losses, transfer)),
        "attribute_weights": ("rasterizer.attribute_weights", (rasterizer, losses, transfer)),
        "warp_map": ("rasterizer.warp_map", (rasterizer, metrics)),
        "frechet_distance": ("metrics.frechet_distance", (metrics, flowalign)),
        "write_ppm": ("rasterizer.io", (rasterizer,)),
        "read_ppm": ("rasterizer.io", (rasterizer,)),
        "write_fmap": ("rasterizer.io", (rasterizer,)),
        "read_fmap": ("rasterizer.io", (rasterizer,)),
    }
    for attr, (name, owners) in rebound.items():
        sites += [(owner, attr, name) for owner in owners]
    return sites


class Tracer:
    """Records spans `[id, parent, op, name, start, end]` while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.weight_bytes = 0
        self.weight_entries = 0
        self.weight_nonzero = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for owner, attr, name in _sites():
            orig = vars(owner)[attr]
            static = isinstance(orig, staticmethod)
            fn = orig.__func__ if static else orig
            hook = self._count_weights if name == "rasterizer.attribute_weights" else None
            wrapped = self._wrap(fn, name, hook)
            setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
            self._saved.append((owner, attr, orig))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _wrap(self, fn, name, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, self.op, name, clock(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_weights(self, weights) -> None:
        self.weight_bytes += weights.nbytes
        self.weight_entries += weights.size
        self.weight_nonzero += int(np.count_nonzero(weights))

    def write(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start", "end")
        with open(path, "w", encoding="ascii") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


class SpanStats:
    """Per-name aggregates of a finished trace: calls, self and total time."""

    def __init__(self, spans):
        child_time = [0.0] * len(spans)
        self.children: dict[int, list] = {}
        for sid, parent, _op, _name, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
                self.children.setdefault(parent, []).append(spans[sid])
        self.spans = spans
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.durations: dict[str, list] = {}
        for sid, _parent, _op, name, start, end in spans:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + (end - start) - child_time[sid]
            self.total_s[name] = self.total_s.get(name, 0.0) + (end - start)
            self.durations.setdefault(name, []).append(end - start)

    def loop_time(self, name: str, setup_children: set) -> float:
        """Time of `name` spans after their last direct child from `setup_children`.

        The training functions first render and precompute per-camera data
        and then run their step loop, so this is the step loop's time.
        """
        total = 0.0
        for sid, _parent, _op, span_name, start, end in self.spans:
            if span_name != name:
                continue
            kids = [k for k in self.children.get(sid, []) if k[3] in setup_children]
            total += end - max([k[5] for k in kids], default=start)
        return total


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 where the layer was not exercised (den == 0)."""
    return num / den if den else 0.0


def _p90(values: list) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def layer_metrics(names, stats: SpanStats, tracer: Tracer, ops: int, cfg, extra: dict) -> dict:
    """Value of each per-layer metric in `names`.

    `<span>.calls`, `<span>.steps` and `<span>.self_s` are per operation of
    the workload; the other names are derived below. A layer the workload
    never reaches reads 0.
    """
    calls, total_s = stats.calls, stats.total_s
    style_steps = calls.get("losses.train_stylization", 0) * cfg["style.steps"]
    distill_steps = calls.get("transfer.distill_embeddings", 0) * cfg["distill.steps"]
    velocity_steps = calls.get("flowalign.train_velocity", 0) * cfg["flow.train_steps"]
    renders = stats.durations.get("rasterizer.render", [])
    setup_children = {"rasterizer.render", "rasterizer.attribute_weights",
                      "encoders.tap_features", "losses.generator_2d"}
    derived = {
        "rasterizer.render.ms_p50": 1000.0 * statistics.median(renders) if renders else 0.0,
        "rasterizer.render.ms_p90": 1000.0 * _p90(renders),
        "rasterizer.render.threads2_ratio": 0.0,    # measured by render_large's probe
        "rasterizer.attribute_weights.bytes":
            _ratio(tracer.weight_bytes, calls.get("rasterizer.attribute_weights", 0)),
        "rasterizer.attribute_weights.nonzero_frac":
            _ratio(tracer.weight_nonzero, tracer.weight_entries),
        "flowalign.velocity_steps_per_s":
            _ratio(velocity_steps, total_s.get("flowalign.train_velocity", 0.0)),
        "transfer.distill_step_ms": 1000.0 * _ratio(
            stats.loop_time("transfer.distill_embeddings", setup_children), distill_steps),
        "losses.style_step_ms": 1000.0 * _ratio(
            stats.loop_time("losses.train_stylization", setup_children), style_steps),
        "losses.suppression_loss.calls_per_step":
            _ratio(calls.get("losses.suppression_loss", 0), style_steps),
        "losses.score_scales.calls_per_step":
            _ratio(calls.get("losses.score_scales", 0), style_steps),
        **extra,
    }
    out = {}
    for name in names:
        span, _, kind = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif kind in ("calls", "steps"):
            out[name] = calls.get(span, 0) / ops
        elif kind == "self_s":
            out[name] = stats.self_s.get(span, 0.0) / ops
        else:
            raise KeyError(f"no rule computes per-layer metric '{name}'")
    return out
