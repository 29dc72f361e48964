"""The configs that scripts/same_bytes.sh runs scripts/pipeline.sh at: each
parses under the config schema and is the run it is named after."""

import sys
from pathlib import Path

from subflow import config as cfgmod

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402
from test_acceptance import AC10_CFG  # noqa: E402


def _parse(text: str) -> dict:
    return cfgmod.read_key_values(text, cfgmod.SCHEMA, "config")


def test_same_bytes_configs_parse_and_match_their_runs():
    configs = {p.stem: cfgmod.load_config(p) for p in (ROOT / "scripts" / "configs").glob("*.cfg")}
    assert sorted(configs) == ["ac10", "desk", "desk_nosup", "wide"]
    assert configs["ac10"] == _parse(AC10_CFG)
    for name, workload, seed in (("desk", "train_desk", 1), ("wide", "train_wide", 2)):
        values = WORKLOADS[workload]().values(seed)
        assert configs[name] == _parse("".join(f"{k} = {v}\n" for k, v in values.items()))
    assert configs["desk_nosup"] == {**configs["desk"], "weights.suppression": 0.0}
