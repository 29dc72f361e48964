"""Run configuration: a flat key=value schema shared by all CLI commands.

Every key is declared below with its type and default; unknown keys are
rejected. `dump()` emits a canonical text form that parses back to the same
config byte-for-byte. `read_key_values` is the one `key = value` reader; the
flow pipeline's manifest goes through it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .errors import FormatError

_SCENE_KINDS = ("lattice", "two_clusters", "textured_slab")

REQUIRED = object()  # schema default of a key that must appear in the text

# key -> (type, default); declaration order is the dump order
SCHEMA: dict[str, tuple[type, object]] = {
    "seed": (int, 0),
    "embed_dim": (int, 32),
    "clip_dim": (int, 64),
    "style_dim": (int, 64),
    "scene.kind": (str, "textured_slab"),
    "scene.n": (int, 400),
    "scene.seed": (int, 11),
    "camera.count": (int, 8),
    "camera.radius": (float, 2.6),
    "camera.elevation": (float, 1.2),
    "camera.focal": (float, 90.0),
    "camera.width": (int, 48),
    "camera.height": (int, 48),
    "flow.euler_steps": (int, 8),
    "flow.rounds": (int, 3),
    "flow.train_steps": (int, 3000),
    "flow.batch_size": (int, 256),
    "flow.learning_rate": (float, 1e-3),
    "flow.mapping_steps": (int, 2000),
    "flow.corpus": (int, 48),
    "distill.steps": (int, 600),
    "distill.learning_rate": (float, 5e-3),
    "distill.hidden": (int, 64),
    "style.steps": (int, 250),
    "style.learning_rate": (float, 2e-3),
    "weights.style": (float, 10.0),
    "weights.obs": (float, 0.5),
    "weights.flow": (float, 1.0),
    "weights.suppression": (float, 0.05),
    "gen2d.corpus": (int, 200),
    "gen2d.steps": (int, 2000),
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {k: default for k, (_, default) in SCHEMA.items()}
        for key, val in self.values.items():
            if key not in SCHEMA:
                raise FormatError(f"unknown config key '{key}'")
            merged[key] = SCHEMA[key][0](val)
        if merged["scene.kind"] not in _SCENE_KINDS:
            raise FormatError(f"scene.kind must be one of {_SCENE_KINDS}, "
                              f"got '{merged['scene.kind']}'")
        self.values = merged

    def __getitem__(self, key: str):
        if key not in SCHEMA:
            raise FormatError(f"unknown config key '{key}'")
        return self.values[key]

    def with_overrides(self, **overrides) -> "RunConfig":
        vals = dict(self.values)
        for key, val in overrides.items():
            if val is not None:
                vals[key] = val
        return RunConfig(vals)

    def dump(self) -> str:
        lines = []
        for key, (typ, _) in SCHEMA.items():
            val = self.values[key]
            text = repr(float(val)) if typ is float else str(val)
            lines.append(f"{key} = {text}")
        return "\n".join(lines) + "\n"


def read_key_values(text: str, schema: dict[str, tuple[Callable, object]],
                    source: str) -> dict:
    """Values of `key = value` lines checked against `schema` (key -> (type, default)).

    `#` starts a comment and blank lines are skipped. Keys the text leaves
    out take their default. Errors raise `FormatError` naming `source` and
    the key: a line without `=`, an unknown key, a value the type rejects,
    and a missing key whose default is `REQUIRED`.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{source} line {lineno}: expected key = value, got '{raw}'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in schema:
            raise FormatError(f"{source} line {lineno}: unknown key '{key}'")
        try:
            values[key] = schema[key][0](val)
        except ValueError as exc:
            raise FormatError(f"{source} line {lineno}: bad value for '{key}': {val}") from exc
    for key, (_, default) in schema.items():
        if key not in values:
            if default is REQUIRED:
                raise FormatError(f"{source}: missing key '{key}'")
            values[key] = default
    return values


def read_key_value_file(path, schema: dict[str, tuple[Callable, object]]) -> dict:
    """`read_key_values` over a UTF-8 text file; errors name the file."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return read_key_values(text, schema, str(path))


def parse_config(text: str) -> RunConfig:
    return RunConfig(read_key_values(text, SCHEMA, "config"))


def load_config(path) -> RunConfig:
    return RunConfig(read_key_value_file(path, SCHEMA))
