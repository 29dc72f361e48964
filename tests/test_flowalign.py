from dataclasses import astuple

import numpy as np
import pytest

from subflow import flowalign as fa
from subflow import metrics as mt
from subflow.diffcore import Adam, DenseNet, Tensor
from subflow.diffcore import tensor as dt
from subflow.diffcore.rng import named_stream
from subflow.errors import FormatError, NumericsError, ShapeError

from synthetic import ConceptPairGenerator, MixtureSpec, PairedDistributionSpec, sample_paired


def fs(rows):
    return np.asarray(rows, dtype=np.float32)


def calibration(dim):
    """A CLIP-like calibration for rows of `dim`, as `train-flow` passes its
    encoders' to the pipeline; the norm has no short decimal form."""
    return np.linspace(-1.0, 1.0, dim, dtype=np.float32), 1.0 / 3.0 + 0.1


def velocity_field(dim, hidden, seed):
    return DenseNet(fa.velocity_widths(dim, hidden), "tanh", seed, name="velocity")


def identity_mapping(dim):
    m = DenseNet((dim, dim), "relu", 0, name="mapping")
    m.weights[0].data = np.eye(dim, dtype=np.float32)
    m.biases[0].data = np.zeros(dim, dtype=np.float32)
    return m


# -- euler integration ------------------------------------------------------------

def test_euler_zero_field_constant_trajectory():
    end = fa.euler_integrate(lambda x, t: np.zeros_like(x), np.array([1.0, -2.0]), 10)
    assert end.shape == (2,)
    assert np.array_equal(end, [1.0, -2.0])


@pytest.mark.parametrize("steps", [1, 5, 8])
def test_euler_constant_field_exact_for_any_step_count(steps):
    k = np.array([0.5, -1.5, 2.0])
    end = fa.euler_integrate(lambda x, t: np.tile(k, (x.shape[0], 1)),
                             np.array([[1.0, 1.0, 1.0]]), steps)
    assert np.allclose(end, 1.0 + k, atol=1e-12)


def test_euler_linear_field_compound_growth():
    end = fa.euler_integrate(lambda x, t: x, np.array([1.0]), 100)
    assert end[0] == pytest.approx((1 + 1 / 100) ** 100, rel=1e-9)
    assert end[0] == pytest.approx(2.7048, abs=1e-3)


def test_euler_first_order_convergence_on_linear_field():
    import math
    errs = []
    for steps in (8, 16, 32):
        end = fa.euler_integrate(lambda x, t: x, np.array([1.0]), steps)[0]
        errs.append(abs(end - math.e))
    for coarse, fine in zip(errs, errs[1:]):
        ratio = coarse / fine
        assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2


def test_euler_nonfinite_names_step():
    def blow_up(x, t):
        return np.full_like(x, np.inf) if t >= 0.5 else np.zeros_like(x)
    with pytest.raises(NumericsError, match="step 3"):
        fa.euler_integrate(blow_up, np.array([0.0]), 4)


def test_euler_rejects_zero_steps():
    with pytest.raises(ShapeError):
        fa.euler_integrate(lambda x, t: x, np.array([0.0]), 0)


def _taped_euler(field, x0, steps):
    """Euler steps of `field` through its taped forward: the reference bits."""
    x = np.asarray(x0, dtype=np.float64)
    for i in range(steps):
        t = np.full(len(x), i * (1.0 / steps))
        x = x + field(Tensor(fa.velocity_rows(x, t))).data * (1.0 / steps)
    return x


@pytest.mark.parametrize("rows", [1, 37])
def test_integrating_a_field_matches_its_taped_forward_bits(rows):
    field = velocity_field(6, (64, 64), 3)
    x0 = 2.0 * named_stream(rows, "euler-rows").standard_normal((rows, 6))
    want = _taped_euler(field, x0, 8)
    assert fa.euler_integrate(fa.drift(field, np.float64), x0, 8).tobytes() == want.tobytes()
    # the pipeline's path: the mapped float32 rows, then the field's endpoints
    pipe = fa.FlowPipeline(identity_mapping(6), [field], fa.FlowConfig(rounds=1), calibration(6))
    (mapped, _), (_, end) = pipe.trajectory(x0)
    assert end.tobytes() == _taped_euler(field, mapped, 8).tobytes()


def test_a_rebound_field_integrates_with_its_new_weights():
    field = velocity_field(4, (8,), 5)
    pipe = fa.FlowPipeline(identity_mapping(4), [field], fa.FlowConfig(rounds=1), calibration(4))
    x = np.abs(named_stream(9, "rebind-rows").standard_normal((3, 4))).astype(np.float32)
    before = [pipe.align(x), fa.euler_integrate(fa.drift(field, np.float64), x, 8)]
    for p in field.parameters():
        p.data = p.data * np.float32(1.5) + np.float32(0.25)
    want = _taped_euler(field, x, 8)
    after = [pipe.align(x), fa.euler_integrate(fa.drift(field, np.float64), x, 8)]
    for got, old, ref in zip(after, before, (want.astype(np.float32), want)):
        assert got.tobytes() == ref.tobytes() != old.tobytes()


def test_interpolation_endpoints_exact():
    g = named_stream(3, "interp")
    x0 = g.standard_normal((16, 5))
    x1 = g.standard_normal((16, 5))
    assert np.array_equal(fa.interpolate(x0, x1, np.zeros(16)), x0)
    assert np.array_equal(fa.interpolate(x0, x1, np.ones(16)), x1)


def test_time_embedding_distinguishes_endpoints():
    e0, e1 = fa.time_embedding([0.0, 1.0])
    assert np.linalg.norm(e0 - e1) > 0.5


# -- mapping ------------------------------------------------------------------------

def test_train_mapping_recovers_affine_target():
    g = named_stream(7, "affine-task")
    a = g.standard_normal((4, 4))
    b = g.standard_normal(4)
    x = g.standard_normal((512, 4))
    y = x @ a.T + b
    cfg = fa.FlowConfig(mapping_hidden=(), mapping_steps=2000, learning_rate=1e-2, seed=1)
    net = fa.train_mapping(fs(x), fs(y), cfg)
    x_held = g.standard_normal((256, 4))
    pred = net.infer(x_held.astype(np.float32))
    mse = float(((pred - (x_held @ a.T + b)) ** 2).mean())
    assert mse < 1e-3


def test_train_mapping_identity_task():
    g = named_stream(8, "identity-task")
    x = g.standard_normal((512, 6))
    cfg = fa.FlowConfig(mapping_hidden=(), mapping_steps=2500, learning_rate=1e-2, seed=2)
    net = fa.train_mapping(fs(x), fs(x), cfg)
    x_held = g.standard_normal((256, 6)).astype(np.float32)
    mse = float(((net.infer(x_held) - x_held) ** 2).mean())
    assert mse < 1e-4


def test_train_mapping_zero_steps_leaves_init():
    g = named_stream(9, "zero-steps")
    x = g.standard_normal((32, 4)).astype(np.float32)
    cfg = fa.FlowConfig(mapping_steps=0, seed=3)
    net = fa.train_mapping(fs(x), fs(x), cfg)
    fresh = DenseNet((4, *cfg.mapping_hidden, 4), "relu", 3, name="mapping")
    for a, b in zip(net.parameters(), fresh.parameters()):
        assert np.array_equal(a.data, b.data)


def test_train_mapping_row_mismatch():
    cfg = fa.FlowConfig()
    with pytest.raises(ShapeError, match="equal rows"):
        fa.train_mapping(fs(np.ones((3, 2))), fs(np.ones((4, 2))), cfg)


# -- velocity field ----------------------------------------------------------------------

def test_velocity_zero_drift_task():
    g = named_stream(11, "zero-drift")
    rows = g.standard_normal((256, 6))
    cfg = fa.FlowConfig(train_steps=800, batch_size=128, seed=4)
    field, _ = fa.train_velocity(fs(rows), fs(rows), cfg)
    t_eval = named_stream(11, "zero-drift-eval").uniform(0, 1, size=256)
    speeds = np.linalg.norm(field.infer(fa.velocity_rows(fs(rows), t_eval)), axis=1)
    assert speeds.mean() < 0.05 * rows.std() * np.sqrt(rows.shape[1])


def test_velocity_training_step_is_float32(monkeypatch):
    # float32 rows and the float32 time embedding keep every op of a
    # velocity training step, the loss included, in float32
    seen = []
    make = dt._make

    def recording(op, data, *pairs):
        seen.append((op, data.dtype))
        return make(op, data, *pairs)
    monkeypatch.setattr(dt, "_make", recording)
    rows = named_stream(12, "f32-step").standard_normal((32, 6))
    cfg = fa.FlowConfig(train_steps=1, batch_size=16, seed=4)
    fa.train_velocity(fs(rows), fs(rows + 1.0), cfg)
    assert len(seen) > 5
    assert all(dtype == np.float32 for _, dtype in seen), seen


def test_velocity_point_mass_constant_drift():
    a = np.array([0.5, -1.0, 2.0])
    b = np.array([2.5, 1.0, -1.0])
    cfg = fa.FlowConfig(train_steps=600, batch_size=64, seed=5)
    field, _ = fa.train_velocity(fs(np.tile(a, (64, 1))),
                                 fs(np.tile(b, (64, 1))), cfg)
    end = fa.euler_integrate(fa.drift(field, np.float64), a[None], cfg.euler_steps)
    assert np.abs(end - b).max() <= 0.02 * np.abs(b - a).max()


def test_velocity_1d_monotone_transport():
    g = named_stream(0, "1d-task")
    x0 = np.sort(g.normal(0, 1, size=512))[:, None]
    x1 = np.sort(g.normal(5, 1, size=512))[:, None]
    cfg = fa.FlowConfig(train_steps=1500, batch_size=256, seed=6)
    field, _ = fa.train_velocity(fs(x0), fs(x1), cfg)
    ends = fa.euler_integrate(fa.drift(field, np.float64), x0, cfg.euler_steps)
    assert ends.mean() == pytest.approx(5.0, abs=0.2)
    assert ends.std() == pytest.approx(1.0, abs=0.2)


def test_velocity_dim_mismatch():
    cfg = fa.FlowConfig()
    with pytest.raises(ShapeError, match="dims differ"):
        fa.train_velocity(fs(np.ones((4, 2))), fs(np.ones((4, 3))), cfg)


# -- both trainers against the tape loop -----------------------------------------------------

def _tape_fit(net, batches, steps, lr):
    """Adam on the tape's mean squared error of `net` over `steps` batches
    drawn by `batches()`: the loop both flow trainers must equal bit for bit.
    Returns the net and the last step's loss (NaN after no step)."""
    opt = Adam(net.parameters(), lr=lr)
    last = float("nan")
    for _ in range(steps):
        x, y = batches()
        loss = dt.mse(net(Tensor(x)), Tensor(y))
        opt.step(loss)
        last = loss.item()
    return net, last


def _same_params(a, b):
    return [(p.data.dtype, p.data.tobytes()) for p in a.parameters()] == \
        [(p.data.dtype, p.data.tobytes()) for p in b.parameters()]


@pytest.mark.parametrize("steps", [0, 6])
@pytest.mark.parametrize("batch_size", [5, 20], ids=["batch<rows", "batch>rows"])
@pytest.mark.parametrize("style_dim", [3, 1], ids=["dim3", "one-column"])
@pytest.mark.parametrize("hidden", [(7,), (6, 5)], ids=["one-hidden", "two-hidden"])
def test_flow_trainers_equal_the_tape_loop(hidden, style_dim, batch_size, steps):
    rows, clip_dim, k = 12, 4, 2
    g = named_stream(23, "tape-loop-rows")
    clip = g.standard_normal((rows, clip_dim)).astype(np.float32)
    start = g.standard_normal((rows, style_dim)).astype(np.float32)
    target = (2.0 * g.standard_normal((rows, style_dim)) + 1.0).astype(np.float32)
    cfg = fa.FlowConfig(train_steps=steps, mapping_steps=steps, batch_size=batch_size,
                        learning_rate=1e-2, seed=5, velocity_hidden=hidden, mapping_hidden=hidden)
    n = min(batch_size, rows)

    mapping_draws = named_stream(cfg.seed, "mapping.batches")

    def mapping_batch():
        idx = mapping_draws.integers(0, rows, size=n)
        return clip[idx], target[idx]
    want, _ = _tape_fit(DenseNet((clip_dim, *hidden, style_dim), "relu", cfg.seed, name="mapping"),
                        mapping_batch, steps, cfg.learning_rate)
    assert _same_params(fa.train_mapping(clip, target, cfg), want)

    x0, x1 = start.astype(np.float64), target.astype(np.float64)
    velocity_draws = named_stream(cfg.seed, f"velocity.batches.r{k}")

    def velocity_batch():
        idx = velocity_draws.integers(0, rows, size=n)
        t = velocity_draws.uniform(0.0, 1.0, size=n)
        xt = (1.0 - t[:, None]) * x0[idx] + t[:, None] * x1[idx]
        return (fa.velocity_rows(xt.astype(np.float32), t),
                (x1 - x0)[idx].astype(np.float32))
    fresh = DenseNet(fa.velocity_widths(style_dim, hidden), "tanh", cfg.seed + k,
                     name=f"velocity.r{k}")
    want, want_loss = _tape_fit(fresh, velocity_batch, steps, cfg.learning_rate)
    field, loss = fa.train_velocity(start, target, cfg, round_index=k)
    assert _same_params(field, want)
    if steps:
        assert loss == want_loss
    else:                               # the Glorot init is kept, and no step has a loss
        assert np.isnan(loss) and np.isnan(want_loss)


# -- multi-round flow ------------------------------------------------------------------------

def test_single_round_degenerates_to_one_velocity_fit(monkeypatch):
    monkeypatch.setattr(fa, "train_mapping", lambda *_: identity_mapping(4))
    g = named_stream(13, "r1-task")
    x = g.standard_normal((128, 4))
    y = x + 2.0
    cfg = fa.FlowConfig(rounds=1, train_steps=500, batch_size=64, seed=7)
    aligned, reports, pipe = fa.run_subdivisive_flow(fs(x), fs(y), cfg, calibration(4))
    assert len(reports) == 1
    assert len(pipe.fields) == 1
    field, _ = fa.train_velocity(fs(x), fs(y), cfg, round_index=1)
    direct = fa.euler_integrate(fa.drift(field, np.float64), fs(x), cfg.euler_steps)
    assert np.allclose(aligned, direct, atol=1e-5)


def test_already_aligned_inputs_nothing_to_move(monkeypatch):
    monkeypatch.setattr(fa, "train_mapping", lambda *_: identity_mapping(5))
    g = named_stream(14, "aligned-task")
    rows = g.standard_normal((256, 5)).astype(np.float32)
    cfg = fa.FlowConfig(rounds=3, train_steps=600, batch_size=128, seed=8)
    _, reports, _ = fa.run_subdivisive_flow(rows, rows, cfg, calibration(5))
    scale = float(rows.std())
    for r in reports:
        assert r.fid_after < 0.01 * rows.shape[1] * scale ** 2
        assert r.displacement < 0.05 * scale * np.sqrt(rows.shape[1])
        assert r.sim_after > 0.99


def test_mixture_to_gaussian_fid_decreases():
    means = np.array([[3.0, 3.0, -2.0], [-3.0, 0.0, 2.0], [0.0, -3.0, 0.0]])
    spec = PairedDistributionSpec(
        MixtureSpec.isotropic(means, sigma=0.6, weights=[0.4, 0.35, 0.25]),
        MixtureSpec.isotropic([[0.5, -0.5, 1.0]], sigma=1.0), seed=15)
    clip, vgg = (side.vectors for side in sample_paired(spec, 512))
    cfg = fa.FlowConfig(rounds=3, train_steps=1200, batch_size=256,
                        mapping_steps=1200, seed=9)
    _, reports, _ = fa.run_subdivisive_flow(clip, vgg, cfg, calibration(3))
    for r in reports:
        assert r.fid_after <= r.fid_before + 1e-3
    assert reports[-1].fid_after < 0.25 * reports[0].fid_before


def test_flow_reports_deterministic():
    g = named_stream(16, "det-task")
    x = g.standard_normal((128, 3)).astype(np.float32)
    y = (x * 0.5 + 1.0).astype(np.float32)
    cfg = fa.FlowConfig(rounds=2, train_steps=300, batch_size=64, mapping_steps=200, seed=10)

    def run():
        _, reports, _ = fa.run_subdivisive_flow(fs(x), fs(y), cfg,
                                                calibration(3))
        return [(r.sim_after, r.fid_after, r.displacement) for r in reports]

    assert run() == run()


# -- inference path --------------------------------------------------------------------------------

def test_align_feature_identity_pipeline_close_to_input(monkeypatch):
    monkeypatch.setattr(fa, "train_mapping", lambda *_: identity_mapping(4))
    g = named_stream(17, "align-task")
    rows = g.standard_normal((256, 4)).astype(np.float32) * 2.0
    cfg = fa.FlowConfig(rounds=2, train_steps=800, batch_size=128, seed=11)
    _, _, pipe = fa.run_subdivisive_flow(
        fs(rows), fs(rows), cfg, calibration(4))
    x = rows[0]
    out = pipe.align(x[None])[0]
    assert np.linalg.norm(out - x) < 0.05 * np.linalg.norm(x) + 0.05 * rows.std()


def test_aligned_text_and_image_features_stay_close(slab_run, session_encoders):
    # captions and their constructed images share a latent; after alignment
    # through the trained pipeline the pair should still point the same way
    gen = ConceptPairGenerator(session_encoders)
    pipe = slab_run["pipe"]
    cosines = []
    for i in range(100):
        img, caption = gen.pair(i)
        a = pipe.align(session_encoders.encode_text([caption]).vectors)[0]
        b = pipe.align(session_encoders.encode_clip_like([img]).vectors)[0]
        cosines.append(float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b))))
    assert float(np.mean(cosines)) >= 0.8
    assert min(cosines) >= 0.8


def test_align_feature_dim_mismatch():
    m = identity_mapping(4)
    pipe = fa.FlowPipeline(m, [velocity_field(4, (8,), 0)], fa.FlowConfig(rounds=1),
                           calibration(4))
    with pytest.raises(ShapeError, match="dim"):
        pipe.align(np.zeros((2, 6)))
    with pytest.raises(ShapeError, match="rows of dim 4"):     # one vector is not rows
        pipe.align(np.zeros(4))


def test_pipeline_save_load_round_trip(tmp_path):
    g = named_stream(18, "ckpt-task")
    x = g.standard_normal((64, 3)).astype(np.float32)
    y = (x + 1.5).astype(np.float32)
    cfg = fa.FlowConfig(rounds=2, train_steps=200, batch_size=64, mapping_steps=100, seed=12)
    _, _, pipe = fa.run_subdivisive_flow(fs(x), fs(y), cfg,
                                         calibration(3))
    pipe.save(tmp_path / "pipe")
    back = fa.FlowPipeline.load(tmp_path / "pipe")
    probe = g.standard_normal((5, 3)).astype(np.float32)
    assert np.allclose(pipe.align(probe), back.align(probe), atol=1e-6)
    # the calibration comes back bit for bit: f32 PRMS center, exact-repr norm
    (center, norm), (center_back, norm_back) = pipe.clip_calibration, back.clip_calibration
    assert center_back.dtype == np.float32 and center_back.tobytes() == center.tobytes()
    assert norm_back == norm


def test_pipeline_saves_as_flow_returns_it(tmp_path):
    # the calibration goes in with the rows; nothing is set between training and save
    x = named_stream(22, "save-task").standard_normal((32, 3)).astype(np.float32)
    y = np.concatenate([x, x[:, :2] - 1.0], axis=1)
    cfg = fa.FlowConfig(rounds=1, train_steps=5, batch_size=16, mapping_steps=5, seed=16)
    _, _, pipe = fa.run_subdivisive_flow(fs(x), fs(y), cfg,
                                         calibration(3))
    pipe.save(tmp_path / "pipe")
    back = fa.FlowPipeline.load(tmp_path / "pipe")
    assert (back.clip_dim, back.style_dim) == (pipe.clip_dim, pipe.style_dim) == (3, 5)
    (center, norm), (center_back, norm_back) = calibration(3), back.clip_calibration
    assert center_back.tobytes() == center.tobytes() and norm_back == norm


def test_align_reproduces_training_endpoints():
    # every round restarts from float32 rows in training; align must too
    g = named_stream(19, "repro-task")
    x = g.standard_normal((96, 3)).astype(np.float32)
    y = (np.tanh(x) * 2.0 + 0.5).astype(np.float32)
    cfg = fa.FlowConfig(rounds=3, train_steps=150, batch_size=64, mapping_steps=100, seed=13)
    aligned, _, pipe = fa.run_subdivisive_flow(x, y, cfg, calibration(3))
    out = pipe.align(x)
    assert out.dtype == aligned.dtype == np.float32
    assert out.tobytes() == aligned.tobytes()
    # one row takes another matmul kernel than the batch: equal only to rounding
    assert np.allclose(pipe.align(x[7][None])[0], aligned[7],
                       rtol=1e-5, atol=1e-6)


def test_trajectory_yields_mapped_rows_then_each_round():
    g = named_stream(20, "traj-task")
    x = g.standard_normal((32, 3)).astype(np.float32)
    cfg = fa.FlowConfig(rounds=2, train_steps=50, batch_size=32, mapping_steps=50, seed=14)
    _, reports, pipe = fa.run_subdivisive_flow(fs(x), fs(x + 1.0), cfg,
                                               calibration(3))
    stages = list(pipe.trajectory(x))
    assert len(stages) == 3
    mapped = pipe.mapping.infer(x)
    assert all(a.tobytes() == mapped.tobytes() for a in stages[0])
    for field, (start, _), (end_rows, end) in zip(pipe.fields, stages, stages[1:]):
        want = fa.euler_integrate(fa.drift(field, np.float64), start, cfg.euler_steps)
        assert end.dtype == np.float64 and end.tobytes() == want.tobytes()
        assert end_rows.tobytes() == want.astype(np.float32).tobytes()
    for k, (report, (start, _)) in enumerate(zip(reports, stages), start=1):
        _, loss = fa.train_velocity(fs(start), fs(x + 1.0), cfg, k)
        assert report.velocity_loss == loss


@pytest.fixture(scope="module")
def saved_pipeline(tmp_path_factory):
    g = named_stream(21, "manifest-task")
    x = g.standard_normal((32, 3)).astype(np.float32)
    cfg = fa.FlowConfig(rounds=2, train_steps=20, batch_size=16, mapping_steps=20, seed=15)
    _, _, pipe = fa.run_subdivisive_flow(fs(x), fs(x + 1.0), cfg,
                                         calibration(3))
    root = tmp_path_factory.mktemp("manifest") / "pipe"
    pipe.save(root)
    return root


def _broken_copy(src, dst, edit):
    dst.mkdir()
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    lines = (src / "manifest.txt").read_text().splitlines()
    (dst / "manifest.txt").write_text("\n".join(edit(lines)) + "\n")
    return dst


@pytest.mark.parametrize("mode", ["drop", "garble"])
@pytest.mark.parametrize("key", list(fa.MANIFEST_SCHEMA))
def test_broken_manifest_names_file_and_key(saved_pipeline, tmp_path, key, mode):
    def edit(lines):
        if mode == "drop":
            return [ln for ln in lines if ln.partition("=")[0] != key]
        return [f"{key}=garbled!" if ln.partition("=")[0] == key else ln for ln in lines]

    bad = _broken_copy(saved_pipeline, tmp_path / "pipe", edit)
    with pytest.raises(FormatError) as info:
        fa.FlowPipeline.load(bad)
    assert "manifest.txt" in str(info.value) and f"'{key}'" in str(info.value)


def test_manifest_with_flow_loss_is_refused(saved_pipeline, tmp_path):
    # the manifest no longer records the last field's loss (rounds.csv has
    # each round's); a pipeline written with it must be retrained
    bad = _broken_copy(saved_pipeline, tmp_path / "pipe", lambda lines: lines + ["flow_loss=0.5"])
    with pytest.raises(FormatError) as info:
        fa.FlowPipeline.load(bad)
    assert "manifest.txt" in str(info.value) and "'flow_loss'" in str(info.value)


@pytest.mark.parametrize("case", ["missing", "wide", "two", "norm-0", "norm-nan", "norm-inf"])
def test_broken_calibration_names_file_and_key(saved_pipeline, tmp_path, case):
    # the center must be one (clip_dim,) tensor; text_norm positive and finite
    from subflow.diffcore import save_params
    value = case.removeprefix("norm-") if case.startswith("norm-") else None
    where = {"missing": "clip_center.prms: missing", "wide": "clip_center.prms: tensor shapes",
             "two": "clip_center.prms: tensor shapes"}.get(case, "manifest.txt.*'text_norm'")
    edit = lambda lines: [f"text_norm={value}" if value and ln.startswith("text_norm=") else ln
                          for ln in lines]
    bad = _broken_copy(saved_pipeline, tmp_path / "pipe", edit)
    center = bad / "clip_center.prms"
    if case == "missing":
        center.unlink()
    elif case == "wide":
        save_params(center, [np.zeros(4, dtype=np.float32)])
    elif case == "two":
        save_params(center, [np.zeros(3, dtype=np.float32)] * 2)
    with pytest.raises(FormatError, match=where):
        fa.FlowPipeline.load(bad)


def test_manifest_round_trips_byte_identical(saved_pipeline, tmp_path):
    fa.FlowPipeline.load(saved_pipeline).save(tmp_path / "again")
    for name in ("manifest.txt", "mapping.prms", "velocity_1.prms", "velocity_2.prms",
                 "clip_center.prms"):
        assert (tmp_path / "again" / name).read_bytes() == (saved_pipeline / name).read_bytes()


@pytest.mark.parametrize("line, where", [("rounds=0", "manifest.txt.*rounds"),
                                         ("batch_size=0", "manifest.txt.*batch_size"),
                                         ("learning_rate=0", "manifest.txt.*learning_rate"),
                                         ("clip_dim=5", "mapping.prms.*shape")]
                         + [(f"{key}={value}", f"manifest.txt.*'{key}'")   # positive, none empty
                            for key in ("velocity_hidden", "mapping_hidden")
                            for value in ("-5", "0", "64,,64")])
def test_manifest_inconsistent_value_names_file(saved_pipeline, tmp_path, line, where):
    key = line.partition("=")[0]
    edit = lambda lines: [line if ln.partition("=")[0] == key else ln for ln in lines]
    bad = _broken_copy(saved_pipeline, tmp_path / "pipe", edit)
    with pytest.raises(FormatError, match=where):
        fa.FlowPipeline.load(bad)


def test_reports_csv_layout(tmp_path):
    reports = [fa.FlowRoundReport(1, 0.25, 0.1, 0.2, 3.0, 2.0, 0.5)]
    path = tmp_path / "rounds.csv"
    mt.write_csv(path, fa.ROUND_COLUMNS, map(astuple, reports))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "round,velocity_loss,sim_before,sim_after,fid_before,fid_after,displacement"
    assert lines[1].startswith("1,0.25,0.1,0.2,3,2,0.5")
