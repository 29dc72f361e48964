import numpy as np
import pytest

from subflow import encoders as enc
from subflow.diffcore.rng import named_stream
from subflow.errors import FormatError, NumericsError, ShapeError

from synthetic import ConceptPairGenerator, MixtureSpec, PairedDistributionSpec, sample_paired


@pytest.fixture(scope="module")
def encoders():
    return enc.FeatureEncoders(seed=0)


def test_encoding_is_deterministic(encoders):
    img = enc.procedural_texture(3, 0)
    a = encoders.encode_clip_like([img]).vectors
    b = encoders.encode_clip_like([img]).vectors
    assert np.array_equal(a, b)
    va = encoders.encode_vgg_like([img]).vectors
    vb = encoders.encode_vgg_like([img]).vectors
    assert np.array_equal(va, vb)


def test_constant_image_has_zero_tap_stds(encoders):
    const = np.full((64, 64, 3), 0.37, dtype=np.float32)
    for _, std in encoders.tap_stats(const):
        assert np.all(std == 0.0)


def test_tap0_pooled_mean_invariant_to_pixel_permutation(encoders):
    g = named_stream(5, "perm-img")
    img = g.uniform(0, 1, size=(64, 64, 3)).astype(np.float32)
    perm = g.permutation(64 * 64)
    img2 = img.reshape(-1, 3)[perm].reshape(64, 64, 3)
    mean_a, _ = encoders.tap_stats(img)[0]
    mean_b, _ = encoders.tap_stats(img2)[0]
    assert np.allclose(mean_a, mean_b, atol=1e-6)


@pytest.mark.parametrize("encode", ["encode_clip_like", "encode_vgg_like"])
def test_list_encodes_as_one_image_lists_do(encoders, encode):
    imgs = [enc.procedural_texture(4, i) for i in range(3)]
    rows = getattr(encoders, encode)(imgs).vectors
    assert rows.shape[0] == len(imgs)
    for row, img in zip(rows, imgs):
        assert getattr(encoders, encode)([img]).vectors[0].tobytes() == row.tobytes()


@pytest.mark.parametrize("encode", ["encode_clip_like", "encode_vgg_like"])
def test_bare_image_fails_as_a_wrong_shape(encoders, encode):
    # the encoders take a list: a bare image's rows are not images
    with pytest.raises(ShapeError, match=r"expect \(H, W, 3\) images, got \(64, 3\)"):
        getattr(encoders, encode)(enc.procedural_texture(0, 1))


def test_nonfinite_image_rejected(encoders):
    img = np.full((64, 64, 3), np.nan, dtype=np.float32)
    with pytest.raises(NumericsError):
        encoders.encode_vgg_like([img])


def test_vgg_exposes_at_least_two_taps(encoders):
    img = enc.procedural_texture(3, 1)
    stats = encoders.tap_stats(img)
    assert len(stats) >= 2
    for mean, std in stats:
        assert mean.shape == std.shape


def test_text_encoding_deterministic_and_duplicate_invariant(encoders):
    a = encoders.encode_text(["fire"]).vectors
    b = encoders.encode_text(["fire"]).vectors
    c = encoders.encode_text(["fire", "fire"]).vectors
    assert np.array_equal(a, b)
    assert np.allclose(a, c, atol=1e-6)


def test_text_encoding_rejects_empty(encoders):
    with pytest.raises(ShapeError):
        encoders.encode_text([])


def test_text_dim_and_norm_match_clip_space(encoders):
    row = encoders.encode_text(["molten", "glass"]).vectors[0]
    assert row.shape == (encoders.clip_dim,)
    assert np.linalg.norm(row) == pytest.approx(encoders.text_norm, rel=1e-5)


def test_concept_pairs_text_image_cosine(encoders):
    gen = ConceptPairGenerator(encoders)
    cosines = []
    for i in range(100):
        img, caption = gen.pair(i)
        u = encoders.encode_text([caption]).vectors[0]
        v = encoders.encode_clip_like([img]).vectors[0]
        cosines.append(float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v))))
    assert min(cosines) >= 0.8
    assert float(np.mean(cosines)) >= 0.95


def test_domain_separation_on_default_seeds(encoders):
    imgs = [enc.procedural_texture(100, i) for i in range(50)]
    clip = encoders.encode_clip_like(imgs).vectors
    vgg = encoders.encode_vgg_like(imgs).vectors
    cos = np.sum(clip * vgg, axis=1) / (
        np.linalg.norm(clip, axis=1) * np.linalg.norm(vgg, axis=1))
    assert abs(float(cos.mean())) < 0.2


@pytest.mark.parametrize("seed, clip_first", [(0, True), (7, False)])
def test_lazy_calibration_matches_eager_reference(seed, clip_first):
    encoders = enc.FeatureEncoders(seed=seed)
    img = enc.procedural_texture(seed, 99)
    touches = [lambda: encoders.encode_text(["dusk"]), lambda: encoders.encode_vgg_like([img])]
    for touch in (touches if clip_first else touches[::-1]):
        touch()
    # the calibration as computed eagerly at construction before it was lazy
    calib = [enc.procedural_texture(seed, i) for i in range(16)]
    clip_raw = np.stack([encoders._clip_raw(c) for c in calib])
    vgg_raw = np.stack([encoders._vgg_raw(c) for c in calib])
    clip_center = clip_raw.mean(axis=0).astype(np.float32)
    assert np.array_equal(encoders._clip_center, clip_center)
    assert np.array_equal(encoders._vgg_center, vgg_raw.mean(axis=0).astype(np.float32))
    assert encoders.text_norm == float(np.linalg.norm(clip_raw - clip_center, axis=1).mean())


def test_sample_paired_single_component_moments():
    dim = 4
    spec = PairedDistributionSpec(
        MixtureSpec.isotropic([[1.0, -2.0, 0.5, 3.0]], sigma=1.0),
        MixtureSpec.isotropic([[0.0, 0.0, 0.0, 0.0]], sigma=2.0), seed=7)
    clip, vgg = sample_paired(spec, 10000)
    bound_c = 5.0 * 1.0 / np.sqrt(10000)
    bound_v = 5.0 * 2.0 / np.sqrt(10000)
    assert np.all(np.abs(clip.vectors.mean(axis=0) - [1.0, -2.0, 0.5, 3.0]) < bound_c)
    assert np.all(np.abs(vgg.vectors.mean(axis=0)) < bound_v)
    assert np.allclose(clip.vectors.std(axis=0), 1.0, atol=0.05)
    assert np.allclose(vgg.vectors.std(axis=0), 2.0, atol=0.1)


def test_sample_paired_identical_sides_index_pairing_equal_rows():
    side = MixtureSpec.isotropic([[0.0, 1.0], [2.0, -1.0]], sigma=0.7)
    spec = PairedDistributionSpec(side, side, seed=3)
    clip, vgg = sample_paired(spec, 64)
    assert np.allclose(clip.vectors, vgg.vectors, atol=1e-6)


def test_sample_paired_component_occupancy():
    side = MixtureSpec.isotropic([[-10.0, 0.0], [10.0, 0.0]], sigma=0.5,
                                     weights=[0.5, 0.5])
    spec = PairedDistributionSpec(side, side, seed=11)
    clip, _ = sample_paired(spec, 10000)
    # the means sit 20 sigma apart, so a row's side of x = 0 names its component
    count0 = int((clip.vectors[:, 0] < 0).sum())
    assert abs(count0 - 5000) <= 300   # binomial 5 sigma ~ 250


def test_sample_paired_rejects_zero():
    side = MixtureSpec.isotropic([[0.0]], sigma=1.0)
    spec = PairedDistributionSpec(side, side)
    with pytest.raises(ShapeError):
        sample_paired(spec, 0)


def test_mixture_spec_validation():
    with pytest.raises(ShapeError, match="weights"):
        MixtureSpec(np.zeros((2, 3)), np.tile(np.eye(3), (2, 1, 1)), [0.7, 0.7])
    with pytest.raises(ShapeError, match="SPD"):
        MixtureSpec(np.zeros((1, 2)), -np.eye(2)[None], [1.0])


def test_feat_round_trip(tmp_path, encoders):
    imgs = [enc.procedural_texture(4, i) for i in range(3)]
    fs = encoders.encode_clip_like(imgs)
    path = tmp_path / "f.feat"
    enc.export_features(path, fs)
    back = enc.import_features(path)
    assert back.domain == "clip_like"
    assert np.array_equal(back.vectors, fs.vectors)


@pytest.mark.parametrize("domain", enc.DOMAINS)
def test_feat_round_trips_every_domain(tmp_path, domain):
    rows = named_stream(5, "feat-domains").standard_normal((3, 5)).astype(np.float32)
    path = tmp_path / "f.feat"
    enc.export_features(path, enc.FeatureSet(domain, rows))
    assert path.read_bytes()[16] == {"clip_like": 0, "vgg_like": 1}[domain]    # the tag byte
    back = enc.import_features(path)
    assert back.domain == domain
    assert back.vectors.tobytes() == rows.tobytes()


def test_feat_unknown_domain_tag_names_its_byte(tmp_path):
    import struct
    path = tmp_path / "t.feat"
    path.write_bytes(enc.FEAT_MAGIC + struct.pack("<IIIB", 1, 1, 2, len(enc.DOMAINS))
                     + np.zeros(2, dtype="<f4").tobytes())
    with pytest.raises(FormatError, match=f"unknown domain tag {len(enc.DOMAINS)} at byte 16"):
        enc.import_features(path)


def test_feat_header_payload_mismatch(tmp_path):
    fs = enc.FeatureSet("vgg_like", np.ones((2, 4), dtype=np.float32))
    path = tmp_path / "f.feat"
    enc.export_features(path, fs)
    raw = bytearray(path.read_bytes())
    import struct
    struct.pack_into("<I", raw, 12, 8)  # claim dim=8
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="dim=8"):
        enc.import_features(path)


def test_feat_zero_count_rejected(tmp_path):
    import struct
    path = tmp_path / "z.feat"
    path.write_bytes(enc.FEAT_MAGIC + struct.pack("<III", 1, 0, 4) + struct.pack("<B", 0))
    with pytest.raises(FormatError, match="count"):
        enc.import_features(path)


def test_feat_bad_magic(tmp_path):
    path = tmp_path / "bad.feat"
    path.write_bytes(b"NOPE" + b"\x00" * 13)
    with pytest.raises(FormatError, match="magic"):
        enc.import_features(path)
