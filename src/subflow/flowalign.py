"""Cross-domain feature alignment.

The baseline is an MSE-trained mapping net from the image/text embedding
domain into the style domain. On top of it, a time-conditioned velocity
field is regressed onto linear interpolants between paired (mapped, style)
rows and integrated with Euler steps, so the endpoints of the learned ODE
land on the style distribution:

    X_t = (1 - t) X_start + t X_target,   target drift = X_target - X_start
    min_v  E_t E_pairs || v(X_t, t) - (X_target - X_start) ||^2
    X_{i+1} = X_i + v(X_i, i/H) / H,      i = 0..H-1

Alignment runs in rounds: each round re-regresses a fresh field using the
previous round's endpoints as the new start, progressively straightening
the transport. Per-round SIM/FID reports track the refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .config import _COUNT, _POSITIVE, _STEPS, REQUIRED, read_key_value_file
from .diffcore import Adam, DenseNet, Tensor, dense_shapes
from .diffcore import tensor as dt
from .diffcore.checkpoint import load_params, save_params
from .diffcore.rng import named_stream
from .errors import FormatError, NumericsError, ShapeError
from .metrics import cosine_sim, frechet_distance

TIME_FEATURES = 8  # four sin/cos pairs
_FREQUENCIES = np.pi * (2.0 ** np.arange(TIME_FEATURES // 2))


def _widths(text: str) -> tuple[int, ...]:
    return tuple(_COUNT(w) for w in text.split(",")) if text else ()


# `FlowPipeline.save` writes every key; the FlowConfig fields keep their names.
# `text_norm` is float64, so it goes here as an exact repr, not into a PRMS file.
MANIFEST_SCHEMA = {key: (typ, REQUIRED) for key, typ in (
    ("clip_dim", _COUNT), ("style_dim", _COUNT), ("euler_steps", _COUNT), ("rounds", _COUNT),
    ("train_steps", _STEPS), ("batch_size", _COUNT), ("learning_rate", _POSITIVE),
    ("seed", int), ("velocity_hidden", _widths), ("mapping_hidden", _widths),
    ("mapping_steps", _STEPS), ("text_norm", _POSITIVE))}
CLIP_CENTER_FILE = "clip_center.prms"


@dataclass(frozen=True)
class FlowConfig:
    euler_steps: int = 8          # H; step size 1/H
    rounds: int = 3               # alignment rounds, fresh field each
    train_steps: int = 3000       # Adam steps per round
    batch_size: int = 256
    learning_rate: float = 1e-3
    seed: int = 0
    velocity_hidden: tuple[int, ...] = (64, 64)
    mapping_hidden: tuple[int, ...] = (96,)
    mapping_steps: int = 2000


ROUND_COLUMNS = ("round", "velocity_loss", "sim_before", "sim_after", "fid_before", "fid_after",
                 "displacement")


@dataclass
class FlowRoundReport:                  # fields in ROUND_COLUMNS order
    round_index: int
    velocity_loss: float                # the field's loss at its last training step
    sim_before: float
    sim_after: float
    fid_before: float
    fid_after: float
    displacement: float


def time_embedding(t: np.ndarray) -> np.ndarray:
    """Fourier features of t in [0,1]: sin/cos at frequencies pi * 2^k, in
    float32 so that float32 rows make a float32 velocity graph."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    ang = t[:, None] * _FREQUENCIES
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1).astype(np.float32)


def interpolate(x0: np.ndarray, x1: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Linear interpolant rows: exactly x0 at t=0 and exactly x1 at t=1."""
    t = np.asarray(t, dtype=np.float64)[:, None]
    return (1.0 - t) * x0 + t * x1


def mapping_widths(clip_dim: int, hidden: tuple[int, ...], style_dim: int) -> tuple[int, ...]:
    """Widths of the mapping, a ReLU `DenseNet` from clip-domain to style-domain rows."""
    return (clip_dim, *hidden, style_dim)


def velocity_widths(style_dim: int, hidden: tuple[int, ...]) -> tuple[int, ...]:
    """Widths of a velocity field, a tanh `DenseNet` from `velocity_rows` to a drift."""
    return (style_dim + TIME_FEATURES, *hidden, style_dim)


def velocity_rows(x_rows: np.ndarray, t_rows: np.ndarray) -> np.ndarray:
    """A field's input: the rows with the time features of `t_rows` appended."""
    return np.concatenate([x_rows, time_embedding(t_rows)], axis=1)


def drift(field: DenseNet, dtype) -> Callable[[np.ndarray, float], np.ndarray]:
    """The field's drift v(x, t) on rows of `dtype`, through its weights cast
    to `dtype` once, now (`DenseNet.evaluator`): weights rebound later need a
    new drift."""
    net = field.evaluator(dtype)
    return lambda x_rows, t: net(velocity_rows(x_rows, np.full(x_rows.shape[0], float(t))))


def _check_paired(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if len(a) != len(b):
        raise ShapeError(f"{op}: paired sets must have equal rows ({len(a)} vs {len(b)})")


def train_mapping(clip: np.ndarray, vgg: np.ndarray, cfg: FlowConfig) -> DenseNet:
    """Fit the baseline domain map, a ReLU `DenseNet`, by Adam on mean
    squared error over paired (M, d) rows."""
    _check_paired(clip, vgg, "train_mapping")
    net = DenseNet(mapping_widths(clip.shape[1], cfg.mapping_hidden, vgg.shape[1]), "relu",
                   cfg.seed, name="mapping")
    opt = Adam(net.parameters(), lr=cfg.learning_rate)
    g = named_stream(cfg.seed, "mapping.batches")
    x_all = clip.astype(np.float32)
    y_all = vgg.astype(np.float32)
    m = len(clip)
    for _ in range(cfg.mapping_steps):
        idx = g.integers(0, m, size=min(cfg.batch_size, m))
        opt.step(dt.mse(net(Tensor(x_all[idx])), Tensor(y_all[idx])))
    return net


def train_velocity(start: np.ndarray, target: np.ndarray, cfg: FlowConfig,
                   round_index: int = 1) -> tuple[DenseNet, float]:
    """Regress a fresh field's drift on interpolants of the paired rows.
    Returns the field and its loss at the last step (NaN after no step)."""
    _check_paired(start, target, "train_velocity")
    dim = start.shape[1]
    if dim != target.shape[1]:
        raise ShapeError(f"train_velocity: dims differ ({dim} vs {target.shape[1]})")
    field = DenseNet(velocity_widths(dim, cfg.velocity_hidden), "tanh", cfg.seed + round_index,
                     name=f"velocity.r{round_index}")
    opt = Adam(field.parameters(), lr=cfg.learning_rate)
    g = named_stream(cfg.seed, f"velocity.batches.r{round_index}")
    x0 = start.astype(np.float64)
    x1 = target.astype(np.float64)
    drift_all = x1 - x0
    m = len(start)
    loss = Tensor(float("nan"))           # what no step reports
    for _ in range(cfg.train_steps):
        idx = g.integers(0, m, size=min(cfg.batch_size, m))
        t = g.uniform(0.0, 1.0, size=idx.size)
        xt = interpolate(x0[idx], x1[idx], t)
        loss = dt.mse(field(Tensor(velocity_rows(xt.astype(np.float32), t))),
                      Tensor(drift_all[idx].astype(np.float32)))
        opt.step(loss)
    return field, loss.item()


def euler_integrate(v: Callable[[np.ndarray, float], np.ndarray], x0: np.ndarray,
                    steps: int) -> np.ndarray:
    """The rows x0 after `steps` forward Euler steps of size 1/steps of the
    drift v(x, t), as float64 rows. A non-finite state names the offending step."""
    if steps < 1:
        raise ShapeError(f"euler_integrate needs steps >= 1, got {steps}")
    x = np.asarray(x0, dtype=np.float64)
    dt_step = 1.0 / steps
    for i in range(steps):
        velocity = np.asarray(v(x, i * dt_step), dtype=np.float64)
        x = x + velocity * dt_step
        if not np.isfinite(x).all():
            raise NumericsError(f"euler_integrate: non-finite state at step {i + 1}")
    return x


def score(rows: np.ndarray, vgg: np.ndarray) -> tuple[float, float]:
    """SIM and FID of a trajectory stage's float32 rows against the style rows `vgg`."""
    return cosine_sim(rows, vgg), frechet_distance(rows, vgg)


def _read_params(path, want: list[tuple[int, ...]]) -> list[np.ndarray]:
    """The arrays of the pipeline's PRMS file at `path`, which must have the
    shapes `want`. The nets are built from the checked arrays, so a
    manifest's dims never size an allocation."""
    try:
        return load_params(path, want, "manifest")
    except FileNotFoundError:
        raise FormatError(f"{path}: missing from the pipeline directory") from None


class FlowPipeline:
    """Trained mapping plus one velocity field per round, over rows.

    `clip_calibration` is the CLIP-like center and text norm of the encoders
    whose rows the mapping was fit to (`FeatureEncoders.clip_calibration`);
    it is saved with the nets and read back by `load`.
    """

    def __init__(self, mapping: DenseNet, fields: list[DenseNet], cfg: FlowConfig,
                 clip_calibration: tuple[np.ndarray, float]):
        self.mapping = mapping
        self.fields = fields
        self.cfg = cfg
        self.clip_calibration = clip_calibration
        self.clip_dim = mapping.in_width
        self.style_dim = mapping.weights[-1].data.shape[1]

    def trajectory(self, rows: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield each stage as (its float32 rows, the stage): the mapped rows,
        then each round's Euler endpoints, which are float64.

        The float32 rows are what the stage is scored on and what the next
        round starts from, as that round's training does. `self.fields` is
        read as the rounds go, so a field appended during iteration is the
        next round.
        """
        cur = self.mapping.infer(np.asarray(rows, dtype=np.float32))
        yield cur, cur
        for field in self.fields:
            # the Euler state is float64: each integration casts the weights once
            end = euler_integrate(drift(field, np.float64), cur, self.cfg.euler_steps)
            cur = end.astype(np.float32)
            yield cur, end

    def align(self, rows: np.ndarray) -> np.ndarray:
        """Map embedding-domain rows into the style domain (float32 rows)."""
        *_, (last, _) = self.trajectory(rows)
        return last

    def save(self, out_dir) -> None:
        center, text_norm = self.clip_calibration
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_params(out / "mapping.prms", self.mapping.parameters())
        for i, field in enumerate(self.fields, start=1):
            save_params(out / f"velocity_{i}.prms", field.parameters())
        save_params(out / CLIP_CENTER_FILE, [center])
        values = {"clip_dim": self.clip_dim, "style_dim": self.style_dim,
                  "rounds": len(self.fields), "text_norm": text_norm}
        lines = []
        for key in MANIFEST_SCHEMA:
            v = values[key] if key in values else getattr(self.cfg, key)
            lines.append(f"{key}={','.join(map(str, v)) if isinstance(v, tuple) else v}")
        (out / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="ascii")

    @staticmethod
    def load(in_dir) -> "FlowPipeline":
        src = Path(in_dir)
        kv = read_key_value_file(src / "manifest.txt", MANIFEST_SCHEMA)
        clip_dim, style_dim = kv.pop("clip_dim"), kv.pop("style_dim")
        text_norm = kv.pop("text_norm")
        cfg = FlowConfig(**kv)

        def net(name: str, widths: tuple[int, ...], activation: str) -> DenseNet:
            return DenseNet(widths, activation,
                            params=_read_params(src / name, dense_shapes(widths)))
        mapping = net("mapping.prms", mapping_widths(clip_dim, cfg.mapping_hidden, style_dim),
                      "relu")
        fields = [net(f"velocity_{i}.prms", velocity_widths(style_dim, cfg.velocity_hidden), "tanh")
                  for i in range(1, cfg.rounds + 1)]
        (center,) = _read_params(src / CLIP_CENTER_FILE, [(clip_dim,)])
        return FlowPipeline(mapping, fields, cfg, (center, text_norm))


def run_subdivisive_flow(clip: np.ndarray, vgg: np.ndarray, cfg: FlowConfig,
                         clip_calibration: tuple[np.ndarray, float]):
    """Full multi-round alignment on paired (M, d) rows.

    Returns (aligned endpoints as float32 rows, per-round reports, pipeline).
    Each round's field is trained on the rows the pipeline's trajectory
    starts that round from, then the trajectory advances through it. The
    pipeline carries `clip_calibration`, that of the encoders of `clip`'s
    rows, so it can be saved as it is returned.
    """
    pipe = FlowPipeline(train_mapping(clip, vgg, cfg), [], cfg, clip_calibration)
    stages = pipe.trajectory(clip)
    start, _ = next(stages)
    sim, fid = score(start, vgg)
    reports: list[FlowRoundReport] = []
    for k in range(1, cfg.rounds + 1):
        field, velocity_loss = train_velocity(start, vgg, cfg, round_index=k)
        pipe.fields.append(field)
        end, endpoints = next(stages)
        sim_after, fid_after = score(end, vgg)
        reports.append(FlowRoundReport(
            round_index=k, velocity_loss=velocity_loss, sim_before=sim, sim_after=sim_after,
            fid_before=fid, fid_after=fid_after,
            displacement=float(np.linalg.norm(endpoints - start, axis=1).mean()),
        ))
        start, sim, fid = end, sim_after, fid_after
    return start, reports, pipe

