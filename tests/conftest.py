import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# every tier-1 run draws the same examples; no example is timed
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")


def pytest_configure(config):
    # the allocator policy `cli.main` sets, set once for the whole session, so
    # a trainer test runs under it whichever test ran first; it never touches values
    from subflow import runtime
    runtime.set_allocator_policy()


@pytest.fixture(scope="session")
def session_encoders():
    from subflow.encoders import FeatureEncoders
    return FeatureEncoders(seed=0)


@pytest.fixture(scope="session")
def session_decoder2d(session_encoders):
    from subflow.losses import train_decoder2d
    return train_decoder2d(session_encoders, corpus=120, steps=1200, seed=0)


@pytest.fixture(scope="session")
def slab_run(session_encoders):
    """The standard seeded toy run shared by loss and acceptance tests:
    a textured slab under a full-coverage elevated ring, distilled embeddings,
    and a flow pipeline trained on a procedural style corpus."""
    from subflow import flowalign as fa
    from subflow import rasterizer as ras
    from subflow import scene as sc
    from subflow import transfer as tr
    from subflow.encoders import procedural_texture

    enc = session_encoders
    scene = sc.generate_toy_scene("textured_slab", 400, 11, embed_dim=32)
    cams = sc.camera_ring((0, 0, 0), 2.6, 8, elevation=1.2, focal=90.0,
                          width=48, height=48)
    # distillation changes only embeddings: these are the distilled scene's weights too
    views = [ras.attribute_weights(scene, cam) for cam in cams[:4]]
    distilled, decoder0, distill_report = tr.distill_embeddings(
        scene, views, enc, steps=600, seed=1)

    style_imgs = [procedural_texture(7, i) for i in range(48)]
    cfg = fa.FlowConfig(rounds=2, train_steps=900, mapping_steps=900,
                        batch_size=128, seed=2)
    _, flow_reports, pipe = fa.run_subdivisive_flow(
        enc.encode_clip_like(style_imgs).vectors, enc.encode_vgg_like(style_imgs).vectors, cfg,
        enc.clip_calibration)

    style_img = procedural_texture(7, 100)
    style_stats = tr.stats_from_feature(
        pipe.align(enc.encode_clip_like([style_img]).vectors)[0])
    return {
        "scene": scene, "cams": cams, "views": views, "distilled": distilled,
        "decoder0": decoder0, "distill_report": distill_report,
        "pipe": pipe, "flow_reports": flow_reports,
        "style_img": style_img, "style_stats": style_stats,
    }
