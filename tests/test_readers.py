"""Every artifact reader returns a valid object or raises FormatError.

Each property starts from a valid file and truncates it, flips bytes in it,
or overwrites one header field (a little-endian u32 in the binary formats,
one value's text in the text formats).
"""

import re
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from subflow import config as cfgmod
from subflow import flowalign as fa
from subflow import rasterizer as ras
from subflow import scene as sc
from subflow.diffcore import DenseNet, load_params, save_params
from subflow.encoders import FeatureSet, export_features, import_features
from subflow.errors import FormatError


def _mutated(valid: bytes, field):
    """Truncations of `valid`, up to four byte flips in it, and `field`."""
    flips = st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(1, 255)),
                     min_size=1, max_size=4)

    def flip(pairs):
        out = bytearray(valid)
        for i, mask in pairs:
            out[i] ^= mask
        return bytes(out)
    return st.one_of(st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
                     flips.map(flip), field)


def _binary(valid: bytes, offsets):
    """Mutations of a binary file whose header holds u32 fields at `offsets`."""
    def put(pair):
        off, val = pair
        return valid[:off] + struct.pack("<I", val) + valid[off + 4:]
    return _mutated(valid, st.tuples(st.sampled_from(offsets),
                                     st.integers(0, 2 ** 32 - 1)).map(put))


def _text(valid: bytes, spans):
    """Mutations of a text file whose field values sit at `spans`."""
    value = st.one_of(st.integers().map(str), st.text(max_size=12)).map(str.encode)

    def put(pair):
        (lo, hi), val = pair
        return valid[:lo] + val + valid[hi:]
    return _mutated(valid, st.tuples(st.sampled_from(spans), value).map(put))


def _values(text: bytes):
    """Spans of the values of `key = value` lines."""
    return [m.span(1) for m in re.finditer(rb"=[ ]*([^\n]*)", text)]


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Directory of valid files, one per format, plus a saved flow pipeline."""
    root = tmp_path_factory.mktemp("readers")
    sc.save_scene(sc.generate_toy_scene("lattice", 6, 1, embed_dim=8), root / "v.gscn")
    save_params(root / "v.prms", DenseNet((3, 4, 2), seed=1).parameters())
    rows = np.arange(12, dtype=np.float32).reshape(3, 4) / 7.0
    export_features(root / "v.feat", FeatureSet("clip_like", rows))
    ras.write_fmap(root / "v.fmap", np.linspace(-1.0, 1.0, 12).reshape(3, 2, 2))
    ras.write_ppm(root / "v.ppm", np.linspace(0.0, 1.0, 36).reshape(4, 3, 3))
    (root / "v.cfg").write_text("seed = 3\nscene.n = 100\ncamera.focal = 60.0\n"
                                "flow.rounds = 2\nweights.obs = 0.25\n")
    x = np.linspace(-1.0, 1.0, 24, dtype=np.float32).reshape(8, 3)
    cfg = fa.FlowConfig(rounds=2, train_steps=2, batch_size=4, mapping_steps=2, seed=4,
                        velocity_hidden=(5,), mapping_hidden=(4,))
    _, _, pipe = fa.run_subdivisive_flow(x, x + 1.0, cfg, (x.mean(axis=0), 0.75))
    pipe.save(root / "pipe")
    list(ras.write_weights(root / "v.twts", *_twts_views(), "camera.count = 8\n"))
    return root


def _twts_views():
    """A scene and three 16x16 cameras: one sees it, one looks away, one sees it."""
    scene = sc.generate_toy_scene("lattice", 6, 1, embed_dim=8)
    return scene, [sc.look_at_camera((0, -4, 1), (0, 0, 0), 30.0, 16, 16),
                   sc.look_at_camera((0, -4, 1), (0, -8, 1), 30.0, 16, 16),
                   sc.look_at_camera((-3, -3, 1), (0, 0, 0), 20.0, 16, 16)]


def _read(reader, path, data: bytes):
    """`reader(path)` after writing `data` there, or None on FormatError."""
    path.write_bytes(data)
    try:
        return reader(path)
    except FormatError:
        return None


# the four formats of one container: reader, file, byte offset of the
# version (FMAP has none), of the first dim, of the first value; and the
# header fields a size error names (of the last block)
CONTAINERS = {
    "gscn": (sc.load_scene, "v.gscn", 4, 8, 16, "N=6, D=8"),
    "feat": (import_features, "v.feat", 4, 8, 17, "count=3, dim=4"),
    "prms": (load_params, "v.prms", 4, 16, 24, "tensor=3, dims=(2,)"),
    "fmap": (ras.read_fmap, "v.fmap", None, 4, 16, "H=3, W=2, C=2"),
}
BROKEN = ["magic", "short-header", "version", "zero-dim", "short-payload", "long-payload", "nan"]


@pytest.mark.parametrize("fmt, case", [(f, c) for f in CONTAINERS for c in BROKEN
                                       if not (f == "fmap" and c == "version")])
def test_container_readers_share_their_rules(valid, tmp_path, fmt, case):
    reader, name, version, dim, payload, fields = CONTAINERS[fmt]
    raw = (valid / name).read_bytes()
    put = lambda off, value: raw[:off] + value + raw[off + len(value):]
    blob = {"magic": lambda: b"XXXX" + raw[4:],
            "short-header": lambda: raw[:8],
            "version": lambda: put(version, struct.pack("<I", 2)),
            "zero-dim": lambda: put(dim, struct.pack("<I", 0))[:payload],     # and no values
            "short-payload": lambda: raw[:-4],
            "long-payload": lambda: raw + bytes(4),
            "nan": lambda: put(payload, np.float32(np.nan).tobytes())}[case]()
    path = tmp_path / f"broken.{fmt}"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as err:
        reader(path)
    assert str(err.value).startswith(f"{path}: ")
    if case.endswith("payload"):
        assert fields in str(err.value)


def _twts_first_block(raw: bytes) -> int:
    """Byte offset of the first camera's first block row (tile, splats, order,
    nonzero) in a TWTS file whose first camera sees something. With one block,
    as in a 16x16 view, its splat ids follow the row."""
    _, _, h, w = struct.unpack_from("<4I", raw, 8)        # N, cameras, H, W
    (rig,) = struct.unpack_from("<I", raw, 24 + 32)       # after the geometry digest
    return 60 + rig + 4 * h * w * 3 + 4                   # after the content image, block count


@pytest.mark.parametrize("case", ["magic", "truncated", "splat-id", "mask-count", "trailing",
                                  "tile-order", "repeated-splat", "no-camera"])
def test_weights_reader_names_the_file(valid, tmp_path, case):
    raw = (valid / "v.twts").read_bytes()
    block = _twts_first_block(raw)
    _, splats, _, nonzero, first = struct.unpack_from("<5I", raw, block)
    put = lambda off, value: raw[:off] + struct.pack("<I", value) + raw[off + 4:]
    blob, message = {
        "magic": (b"XXXX" + raw[4:], "bad magic"),
        "truncated": (raw[:block + 40], "payload ends"),
        "splat-id": (put(block + 16 + 4 * (splats - 1), 6), "index 6"),       # N=6
        "mask-count": (put(block + 12, nonzero + 1), f"sets {nonzero} bits"),
        "trailing": (raw + bytes(4), "payload ends"),
        "tile-order": (put(block, 4), "not increasing tiles"),               # one 16x16 tile
        "repeated-splat": (put(block + 16 + 4 * (splats - 1), first), "repeats a splat"),
        "no-camera": (put(12, 0), "no camera"),
    }[case]
    path = tmp_path / "broken.twts"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as err:
        list(ras.WeightsFile(path))
    assert str(err.value).startswith(f"{path}: ") and message in str(err.value), err.value


def test_weights_reader_checks_each_blocks_mask(tmp_path):
    # a row's nonzero count must match its own block's mask, not only the sum
    scene = sc.generate_toy_scene("textured_slab", 200, 2, embed_dim=8)
    cam = sc.look_at_camera((0, -2.5, 2.5), (0, 0, 0), 45.0, 32, 32)
    path = tmp_path / "w.twts"
    list(ras.write_weights(path, scene, [cam], ""))
    raw = bytearray(path.read_bytes())
    rows = 60 + 4 * 32 * 32 * 3 + 4
    assert struct.unpack_from("<I", raw, rows - 4)[0] > 1
    for off, step in ((rows + 12, 1), (rows + 16 + 12, -1)):      # first two rows' nonzero
        struct.pack_into("<I", raw, off, struct.unpack_from("<I", raw, off)[0] + step)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="the masks set"):
        list(ras.WeightsFile(path))


@given(st.data())
def test_weights_file_property(valid, data):
    raw = (valid / "v.twts").read_bytes()
    blob = data.draw(_binary(raw, [8, 12, 16, 20, 56, _twts_first_block(raw),
                                   _twts_first_block(raw) + 4, _twts_first_block(raw) + 12]))
    views = _read(lambda path: list(ras.WeightsFile(path)), valid / "x.twts", blob)
    if views is not None:
        count, _, h, w = struct.unpack_from("<4I", blob, 8)
        for view in views:
            assert view.rgb.shape == (h, w, 3) and np.all(np.isfinite(view.rgb))
            pixels = np.concatenate([pix for pix, _, _ in view.blocks] or [np.zeros(0, int)])
            assert np.unique(pixels).size == pixels.size and np.all(pixels < h * w)
            for pix, splats, wts in view.blocks:
                assert wts.shape == (pix.size, splats.size) and np.all(splats < count)
                assert np.unique(splats).size == splats.size
                assert np.all(np.isfinite(wts))


@given(st.data())
def test_load_scene_property(valid, data):
    blob = data.draw(_binary((valid / "v.gscn").read_bytes(), [4, 8, 12]))
    scene = _read(sc.load_scene, valid / "x.gscn", blob)
    if scene is not None:
        scene.validate()


@given(st.data())
def test_load_params_property(valid, data):
    blob = data.draw(_binary((valid / "v.prms").read_bytes(), [4, 8, 12, 16, 20]))
    arrays = _read(load_params, valid / "x.prms", blob)
    if arrays is not None:
        for a in arrays:
            assert a.dtype == np.float32 and a.size >= 1 and np.all(np.isfinite(a))


@given(st.data())
def test_import_features_property(valid, data):
    blob = data.draw(_binary((valid / "v.feat").read_bytes(), [4, 8, 12]))
    fs = _read(import_features, valid / "x.feat", blob)
    if fs is not None:
        assert fs.count >= 1 and fs.dim >= 1 and np.all(np.isfinite(fs.vectors))


@given(st.data())
def test_read_fmap_property(valid, data):
    blob = data.draw(_binary((valid / "v.fmap").read_bytes(), [4, 8, 12]))
    fmap = _read(ras.read_fmap, valid / "x.fmap", blob)
    if fmap is not None:
        assert fmap.dtype == np.float32 and fmap.shape == struct.unpack_from("<III", blob, 4)


@given(st.data())
def test_read_ppm_property(valid, data):
    raw = (valid / "v.ppm").read_bytes()
    header = raw[:len(b"P6\n3 4\n255\n")]
    fields = [m.span() for m in re.finditer(rb"\d+", header)][1:]   # width, height, maxval
    blob = data.draw(_text(raw, fields))
    img = _read(ras.read_ppm, valid / "x.ppm", blob)
    if img is not None:
        assert img.ndim == 3 and img.shape[2] == 3
        assert img.dtype == np.float32 and np.all((img >= 0) & (img <= 1))


@given(st.data())
def test_load_config_property(valid, data):
    raw = (valid / "v.cfg").read_bytes()
    cfg = _read(cfgmod.load_config, valid / "x.cfg", data.draw(_text(raw, _values(raw))))
    if cfg is not None:
        reparsed = cfgmod.read_key_values(cfgmod.dump(cfg), cfgmod.SCHEMA, "config")
        assert cfgmod.dump(reparsed) == cfgmod.dump(cfg)


@given(st.data())
def test_pipeline_load_property(valid, data):
    pipe_dir = valid / "x_pipe"
    if not pipe_dir.exists():
        shutil.copytree(valid / "pipe", pipe_dir)
    raw = (valid / "pipe" / "manifest.txt").read_bytes()
    blob = data.draw(_text(raw, _values(raw)))
    pipe = _read(lambda path: fa.FlowPipeline.load(path.parent), pipe_dir / "manifest.txt", blob)
    if pipe is not None:
        assert len(pipe.fields) == pipe.cfg.rounds
        assert np.isfinite(pipe.clip_calibration[1]) and pipe.clip_calibration[1] > 0
