"""Golden trace hashes: the bundled scenarios' traces, byte for byte.

A change that is only faster or smaller must leave every trace
byte-identical. Each scenario runs at seed 0 with noise off and on, and
the sha256 of the full trace (the bytes `write_trace` would write) must
match the pinned value. The scenario is parsed under a fixed path so the
header does not depend on where the repository is checked out.

A change that alters trace bytes on purpose is a behaviour change: it
updates these hashes and says so in CHANGES.md. Running this file with
`PYTHONPATH=src:tests python tests/test_golden_traces.py` prints the
current hashes in the form of the table below.
"""

from __future__ import annotations

import hashlib

import pytest

from conftest import BUNDLED
from gridmind.agent import data_root, run_scenario, scripted_planner_factory
from gridmind.config import EngineConfig
from gridmind.world import parse_scenario

GOLDEN = {
    # (scenario, noise): sha256 of the trace
    ("arrange", False): "b10ad04f1efb707acef015084776564ba88153251c083ab90c94600c39462a1f",
    ("arrange", True): "3f921420a92298fdb1ddddb51e8abed8d7bccf1220293bbe6ac800adaf2e4f5d",
    ("crossing", False): "e5464dc6f8c23efa860b712bec3d369092340c244463228b650c7bc35a0cc99a",
    ("crossing", True): "1c2d6a2a948f023ed00a6f486a11ec99378b144d7a38fe2dc17585d46a19bddf",
    ("driving_salience", False): "df313cce4d096f9441d5c2a47b7765b7ed44bad2c4c49a8d50bee9bfa6540094",
    ("driving_salience", True): "98bbba2d19a5a29da1c8ad8a7537b135d193fce741315c66b4ff297c948a4aab",
    ("fetch_close", False): "0f8115f8c67c7d84fa890466ba7b235ffd243a3b928a19b1ed59ef2f840bdfc0",
    ("fetch_close", True): "3c7aae59c4f09939011c1c9baefb0f7abd4ceae61671075ef0f848b05c56ec2a",
    ("hotcoffee", False): "f6c5ddf7ddebcd20b32f86eb1be2e5c3e77f49cfd195fafc1f0204af64ebc303",
    ("hotcoffee", True): "93176b10f955871795a8915edd77302e94bc431816b9bf890bd5aadf55aec6b6",
    ("knockover", False): "b79751767644590363a03686360e2551c48cdcf95a9c450200dc5640340edf03",
    ("knockover", True): "583e466cc2a4a2aee23ed9de40613ee8b5091e4a80fdd8d60541781aa61a8df4",
    ("pickup_fail", False): "3fb7dda30fed0ac55b1856892c63a814d8d1ddfd23176fb4a284f0a7ab40b1cf",
    ("pickup_fail", True): "cc5e87153e319e14aa8ce8222882e80fbf0302e13c72e0e1bf702d34ef63cc29",
    ("teleport_fault", False): "93c90746a97de6380d1e7d63754aae32baf5129c940dff86040609c2c06aafb5",
    ("teleport_fault", True): "febdfe737cc8a050451057b59256263abd023126d5571f4d80d74a750d83c3c2",
    ("vase_room", False): "fee8ef73aa46943d84274f629c558ee2dc39d74f4bff0fc4bc208e25ce232440",
    ("vase_room", True): "43d9ca1d2e63e96b4704ba0b9c0a86e371235151e153cb88bb8d952f168efe85",
    ("waterleak", False): "927539eab07e60b7bff94539e4117d7697c34261234ecc97cbcf9a6638291642",
    ("waterleak", True): "8619f24dd650311b51eeb4f9e0f89ed9845d6b7ad7ae36caa5e5b568b25ceb91",
}


def trace_sha256(name: str, noise: bool) -> str:
    text = data_root().joinpath("scenarios", f"{name}.scn").read_text(encoding="utf-8")
    scenario = parse_scenario(text, f"scenarios/{name}.scn")
    config = EngineConfig()
    if scenario.config_overrides:
        config = config.with_overrides(dict(scenario.config_overrides))
    result = run_scenario(
        scenario, config, seed=0, planner_factory=scripted_planner_factory,
        noise=noise, scenario_text=text,
    )
    data = "".join(line + "\n" for line in result.lines).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("noise", [False, True], ids=["quiet", "noisy"])
@pytest.mark.parametrize("name", BUNDLED)
def test_trace_bytes_match_golden_hash(name, noise):
    assert trace_sha256(name, noise) == GOLDEN[(name, noise)]


if __name__ == "__main__":
    for name in BUNDLED:
        for noise in (False, True):
            print(f'    ("{name}", {noise}): "{trace_sha256(name, noise)}",')
