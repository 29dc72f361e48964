"""Run configuration: a flat key=value schema shared by all CLI commands.

Every key is declared below with its type, its bound and its default.
`read_key_values` is the one `key = value` reader and the one check: it
converts every value, rejects unknown keys and values out of bounds, and
fills defaults; the flow pipeline's manifest goes through it too. `dump()`
emits a canonical text form that parses back to the same config
byte-for-byte.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable

from .encoders import _CLIP_GRID
from .errors import FormatError
from .scene import MAX_EMBED_DIM, MIN_EMBED_DIM, TOY_SCENE_KINDS

REQUIRED = object()  # schema default of a key that must appear in the text


def _bounded(typ: type, lo, hi=math.inf, strict: bool = False) -> Callable[[object], object]:
    """Converter to a finite `typ` in [`lo`, `hi`] (in (`lo`, `hi`] if `strict`)."""
    def convert(text):
        val = typ(text)
        if not (math.isfinite(val) and lo <= val <= hi) or (strict and val == lo):
            raise ValueError(f"must be finite, in {'(' if strict else '['}{lo}, {hi}]")
        return val
    return convert


def _multiple_of(step: int) -> Callable[[str], int]:
    """Converter to a positive int that `step` divides."""
    at_least_step = _bounded(int, step)

    def convert(text):
        val = at_least_step(text)
        if val % step:
            raise ValueError(f"must be a multiple of {step}")
        return val
    return convert


def _one_of(choices: tuple[str, ...]) -> Callable[[str], str]:
    """Converter accepting only the strings in `choices`."""
    def convert(text):
        if text not in choices:
            raise ValueError(f"must be one of {choices}")
        return text
    return convert


_COUNT, _STEPS = _bounded(int, 1), _bounded(int, 0)
_WEIGHT, _POSITIVE = _bounded(float, 0.0), _bounded(float, 0.0, strict=True)

# key -> (converter, default); declaration order is the dump order. Each lower
# bound is the least value the key's consumer can run with; GSCN caps embed_dim.
SCHEMA: dict[str, tuple[Callable, object]] = {
    "seed": (int, 0),
    "embed_dim": (_bounded(int, MIN_EMBED_DIM, MAX_EMBED_DIM), 32),
    "clip_dim": (_COUNT, 64),
    "style_dim": (_COUNT, 64),
    "scene.kind": (_one_of(TOY_SCENE_KINDS), "textured_slab"),
    "scene.n": (_COUNT, 400),
    "scene.seed": (int, 11),
    "camera.count": (_bounded(int, 2), 8),          # a ring has view pairs
    "camera.radius": (_POSITIVE, 2.6),
    "camera.elevation": (_bounded(float, -math.inf), 1.2),
    "camera.focal": (_POSITIVE, 90.0),
    "camera.width": (_multiple_of(_CLIP_GRID), 48),     # the CLIP-like block grid
    "camera.height": (_multiple_of(_CLIP_GRID), 48),    # divides every view
    "flow.euler_steps": (_COUNT, 8),
    "flow.rounds": (_COUNT, 3),
    "flow.train_steps": (_STEPS, 3000),
    "flow.batch_size": (_COUNT, 256),
    "flow.learning_rate": (_POSITIVE, 1e-3),
    "flow.mapping_steps": (_STEPS, 2000),
    "flow.corpus": (_COUNT, 48),
    "distill.steps": (_STEPS, 600),
    "distill.learning_rate": (_POSITIVE, 5e-3),
    "distill.hidden": (_COUNT, 64),
    "style.steps": (_STEPS, 250),
    "style.learning_rate": (_POSITIVE, 2e-3),
    "weights.style": (_WEIGHT, 10.0),
    "weights.obs": (_WEIGHT, 0.5),
    "weights.suppression": (_WEIGHT, 0.05),
    "gen2d.corpus": (_COUNT, 200),
    "gen2d.steps": (_STEPS, 2000),
}


def dump(values: dict) -> str:
    """`key = value` lines of a config dict, as `read_key_values` returns it."""
    return "".join(f"{key} = {val}\n" for key, val in values.items())


def read_key_values(text: str, schema: dict[str, tuple[Callable, object]],
                    source: str) -> dict:
    """Values of `key = value` lines checked against `schema` (key -> (converter, default)).

    `#` starts a comment and blank lines are skipped. Keys the text leaves
    out take their default; the result holds every key in schema order.
    Errors raise `FormatError` naming `source` and the key: a line without
    `=`, an unknown key, a value the converter rejects, and a missing key
    whose default is `REQUIRED`.
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
            raise FormatError(
                f"{source} line {lineno}: bad value for '{key}': {val} ({exc})") from None
    for key, (_, default) in schema.items():
        if key not in values and default is REQUIRED:
            raise FormatError(f"{source}: missing key '{key}'")
    return {key: values.get(key, default) for key, (_, default) in schema.items()}


def read_key_value_file(path, schema: dict[str, tuple[Callable, object]]) -> dict:
    """`read_key_values` over a UTF-8 text file; errors name the file."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return read_key_values(text, schema, str(path))


def load_config(path) -> dict:
    return read_key_value_file(path, SCHEMA)
