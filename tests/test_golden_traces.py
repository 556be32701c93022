"""Golden trace hashes: the bundled scenarios' traces, byte for byte.

A change that is only faster or smaller must leave every trace
byte-identical. Each scenario runs at seed 0 with noise off and on, and
the sha256 of the full trace (the bytes `write_trace` would write) must
match the pinned value. The scenario is parsed under a fixed path so the
header does not depend on where the repository is checked out.

The same scenarios also run with the asserted facts in `ASSERTED`
appended. No bundled scenario asserts a fact, so these traces are the
ones that pin how asserted facts join the unified graph: the lines reach
every dimension, one collides with a perceived fact, and they fire both
the knockover-spill and the edible-in-kitchen rules.

The generated crowded and traffic scenes (perfbench's workload
generators, at workload seeds 1-3) are pinned too. They are the only
golden traces with enough free entities and movers for perception's and
collision's cell buckets to replace the full pair scan, so they pin the
bucketed paths byte for byte.

Each bundled scenario's semantic LTM snapshot, the file `gridmind run
--ltm-save` writes, is pinned as well: working memory reaches the trace
only through its size, plans and what it consolidates into LTM, so the
snapshot pins what consolidation kept.

Every line of every golden trace is also checked to be what
`oracles.reference_dumps`, the encoder as first written, makes of the
record it encodes.

A change that alters trace bytes on purpose is a behaviour change: it
updates these hashes and says so in CHANGES.md. Running this file with
`PYTHONPATH=src:tests python tests/test_golden_traces.py` prints the
current hashes in the form of the tables below.
"""

from __future__ import annotations

import hashlib
import importlib.util
from functools import cache
from pathlib import Path

import pytest

from conftest import BUNDLED
from gridmind import canonical
from gridmind.agent import data_root, run_scenario, scripted_planner_factory
from gridmind.config import EngineConfig
from gridmind.world import parse_scenario
from oracles import reference_dumps

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


ASSERTED = """\
fact robot1 has_state moving 0.4
fact robot1 LeftOf zz9 0.5
fact zz9 Before zz8 0.7
fact zz9 CollisionRisk robot1 0.3
fact zz9 isa cup
fact zz9 Contains zz7
fact zz9 has_state knocked_over 0.8
fact zz7 located_in kitchen 0.6
fact zz7 has_state edible 0.9
"""

GOLDEN_ASSERTED = {
    # (scenario, noise): sha256 of the trace with ASSERTED appended
    ("arrange", False): "95afcc4746b881ca187fb2ad0f0e2b16a684218d8e26acee4aeb0d66c4ea7fcf",
    ("arrange", True): "b334b31f8ae53daf6c873330318e9089cb31eb431f0c59682e85322b6c526f99",
    ("crossing", False): "4ea60e6a754491adc5fafffbb9809f0f401365dc7eca4a6cceb51489bd23a748",
    ("crossing", True): "976c449444996fe4901a4b682336656fb30f14759d52701db5c40105ecdacb22",
    ("driving_salience", False): "170d666384fba2504667095d7d1ae04e573aa819443744b1681d2c6bbc920034",
    ("driving_salience", True): "20aaef4b9b3c1348e745bc91fde5566ad974402a39452a0e1ae39978302c4745",
    ("fetch_close", False): "504aaf204e9e81e4fa241da006bf9588c0108b7d3c72c581d23ae90c98aac6ea",
    ("fetch_close", True): "eb9b0ae67f33f0e52705d0c8193ec2ea324ce21cfbe257e4c9a31538034758cc",
    ("hotcoffee", False): "9e98b077def3285c6d5c9b427f3a27d198f884b99b01baab15b02e1e57e87f25",
    ("hotcoffee", True): "6915fecb84c2689430c27c3e36eb6bb0f1705a054bd875c31781d0a09bcdb737",
    ("knockover", False): "0286d4108fed3a7be756fce4eec5d41f9e65890863cc44b5c25553ac8408e0ff",
    ("knockover", True): "6389d6b43f32d83afb9b507f968561996203ac5626a45d497e415fcad940868d",
    ("pickup_fail", False): "a3b745ec73e94d8db4a5d07e53b388617acdc3ed165445248bef655d79afc417",
    ("pickup_fail", True): "a2f49fa7b5ed0901507ce985b0581a6de0fb8ef612a33e807c635a20046436b9",
    ("teleport_fault", False): "7ef0d21c6c03d17d1db35784d062b9ca5ee1a553fa9302b811796d39d90eecfd",
    ("teleport_fault", True): "7bbefd9c474b446fc6f4ce4fbf91d4611161ab39c1a773bbc86c98369e275f1a",
    ("vase_room", False): "4ab8ea163910e22c64128ae93b34c5ddcab90ea6f01611ce672b1ab89c16a8e9",
    ("vase_room", True): "221efbf4d8c637386ce7abb26615391afdc62665e7908b1706808a6a587fc737",
    ("waterleak", False): "b6ca7ccf86aa15f35e631a2f4c6d4605ec6283e58e90c5baaaf0d6ddd351481f",
    ("waterleak", True): "0a668609dc65b9576aa50a30259cd25cbbbd2dfff1314562582bcd82c593c6d9",
}


GOLDEN_GENERATED = {
    # (workload, workload seed, noise): sha256 of the trace, run at that seed
    ("crowded", 1, False): "83d2090b11394072f3cb5d6fd8e884674eb675e7a53627737a3f42b04437f7f9",
    ("crowded", 1, True): "25b2b8fbdc1e7c0e9c0264dbb296990dcad0656107090f7fbb42d7fd335f441f",
    ("crowded", 2, False): "a8862eaa8fa59bcfbf3619cb8b49e472f8dea015cbd7ebd8a9d1d23b019b6d53",
    ("crowded", 2, True): "685965874b3b51551dc975b27abcd884819bd6099f9704cf20ac42cafda6ffe1",
    ("crowded", 3, False): "b866200a08f35a7d3204351f00da7378abdae69f54c5a71a19129155088070e9",
    ("crowded", 3, True): "75ce1930c9ccb3948a55454f49aa6273814b78d85ce7b4c2ae7b89bfe1ca782f",
    ("traffic", 1, False): "908ef42e51982182809987118852157ccba705d00978b2856e622d5fa539949f",
    ("traffic", 1, True): "c87b7fbba1f4535db3c1a766a259cdff5018b39a85036a0069fc76b7aa7a1615",
    ("traffic", 2, False): "a92e51c6dd9b7973c47e7fef22a6814bcb8ef8bfef07466e68fcf4e10aca7b5a",
    ("traffic", 2, True): "258985bfce8186720ed24d001af9cec1e1e60009fc5f0fcd97b3f1f90c92ef5a",
    ("traffic", 3, False): "5d2573cc5c2be5d8a5e731a4dd4748fcb94bdd9fd5e55bc1e816d69580fb0a20",
    ("traffic", 3, True): "4a165d28dcf5ecd54c03e7115b7d0eff7087dbc0befd0c67c10a2b9ad9fc47eb",
}

GOLDEN_LTM = {
    # (scenario, noise): sha256 of the semantic LTM snapshot `--ltm-save` writes
    ("arrange", False): "3083bc76c63af2d435a7e37c6c28fde577b0e400482832e1725bd6c3684b866a",
    ("arrange", True): "519c67764d379669bc057da7d9ab780a14ee81a0cef17cadd9ae03408be57853",
    ("crossing", False): "8625c7beb2fca7540902806f071e3b8512c017be008e267c1cef5ec70175aeaf",
    ("crossing", True): "956fc1a82d1e896180c132157ac96d7bd50cc425b736071e4acdcaa3a69f6cf7",
    ("driving_salience", False): "3895f5dd7cb83810257d9680b6fa7f131549bae5f8bc7cbd8d5a9e8fcc4c7141",
    ("driving_salience", True): "7dcfa40d8a510b4ac385da406f7b2be830309ba4c110d5a34d1cadfa8cd7e303",
    ("fetch_close", False): "4b9be6567007b154177a04e98443d4ab83b911c157bcb88eb79524d9eee78c9c",
    ("fetch_close", True): "d2abf4858068e97bf3dcf7cf47ebd63084e28a7734d83ba20a12f7eae5859871",
    ("hotcoffee", False): "33319f676ba677dae6b0b043624461acec85e805b30ff6780e6debed596e0180",
    ("hotcoffee", True): "2988391c04402c53e764c7338b49ae0b839df650c322e7bb2bbe630bb9faca35",
    ("knockover", False): "7d98d1a784583d2e76b8194301011688216dffb5ddf30f38f3d0f39aaa7fb5ee",
    ("knockover", True): "f99a82c0cb1697a35a50e6e8aaf76dd03182e9dbe5d29d653eca97b184725ad9",
    ("pickup_fail", False): "5117bc2e3d8d1259e82cd26e76551ce156f614d9fcd5a050b0972a3cf41c79c1",
    ("pickup_fail", True): "6a284dc1a56861e4705b2a5877349c60365626ac442441aee5e031d8983f9200",
    ("teleport_fault", False): "0d889af6fe7c02a72447c3e2d8d463310e80a1932f84b204150a4ab782b49a12",
    ("teleport_fault", True): "7337452aba4f59a44c6b29a4d27bce4aa31f35dc6ab37a95e98af7832452155f",
    ("vase_room", False): "c003db783246a46e83b31f8b5365d00096ebd76e17979e52cc0601499879df9b",
    ("vase_room", True): "91f8643019a3210bda2c8d47c3a068d367d26cb53fb6fc6ce4fa21ff34d44a06",
    ("waterleak", False): "f812d33f273ea34ed6f088a70fa64e3dff9e3eaed9d438f74acdda98a914d07a",
    ("waterleak", True): "93a39dee266c2544a7e77a59c4eb557e32fc39a92ccb3958105da1cf76f0d3ef",
}

GENERATED = [(kind, seed) for kind in ("crowded", "traffic") for seed in (1, 2, 3)]
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@cache
def _workloads():
    """perfbench's seeded scenario generators, loaded from their file."""
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(text: str, path: str, seed: int, noise: bool):
    scenario = parse_scenario(text, path)
    config = EngineConfig()
    if scenario.config_overrides:
        config = config.with_overrides(dict(scenario.config_overrides))
    return run_scenario(
        scenario, config, seed=seed, planner_factory=scripted_planner_factory,
        noise=noise, scenario_text=text,
    )


def _sha256(lines: list[str]) -> str:
    """sha256 of the lines as `write_trace` and `--ltm-save` write them."""
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _bundled_run(name: str, noise: bool, extra: str = ""):
    text = data_root().joinpath("scenarios", f"{name}.scn").read_text(encoding="utf-8") + extra
    return _run(text, f"scenarios/{name}.scn", 0, noise)


def trace_sha256(name: str, noise: bool, extra: str = "") -> str:
    return _sha256(_bundled_run(name, noise, extra).lines)


def ltm_sha256(name: str, noise: bool) -> str:
    return _sha256(_bundled_run(name, noise).runtime.ltm.semantic.to_lines())


def _generated_run(kind: str, seed: int, noise: bool):
    text = getattr(_workloads(), f"{kind}_text")(seed)
    return _run(text, f"generated/{kind}-{seed}.scn", seed, noise)


def generated_trace_sha256(kind: str, seed: int, noise: bool) -> str:
    return _sha256(_generated_run(kind, seed, noise).lines)


@pytest.mark.parametrize("noise", [False, True], ids=["quiet", "noisy"])
@pytest.mark.parametrize("name", BUNDLED)
def test_trace_bytes_match_golden_hash(name, noise):
    assert trace_sha256(name, noise) == GOLDEN[(name, noise)]


@pytest.mark.parametrize("noise", [False, True], ids=["quiet", "noisy"])
@pytest.mark.parametrize("name", BUNDLED)
def test_trace_with_asserted_facts_matches_golden_hash(name, noise):
    assert trace_sha256(name, noise, ASSERTED) == GOLDEN_ASSERTED[(name, noise)]


@pytest.mark.parametrize("noise", [False, True], ids=["quiet", "noisy"])
@pytest.mark.parametrize("kind, seed", GENERATED)
def test_generated_trace_matches_golden_hash(kind, seed, noise):
    assert generated_trace_sha256(kind, seed, noise) == GOLDEN_GENERATED[(kind, seed, noise)]


@pytest.mark.parametrize("noise", [False, True], ids=["quiet", "noisy"])
@pytest.mark.parametrize("name", BUNDLED)
def test_ltm_snapshot_matches_golden_hash(name, noise):
    assert ltm_sha256(name, noise) == GOLDEN_LTM[(name, noise)]


GOLDEN_RUNS = [
    *(("plain", key) for key in GOLDEN),
    *(("asserted", key) for key in GOLDEN_ASSERTED),
    *(("generated", key) for key in GOLDEN_GENERATED),
]


@pytest.mark.parametrize(
    "table, key", GOLDEN_RUNS, ids=["-".join(map(str, (t, *k))) for t, k in GOLDEN_RUNS]
)
def test_every_golden_trace_line_is_the_reference_encoding_of_its_record(monkeypatch, table, key):
    encoded = []  # (text, reference text) of each value the run encodes
    dumps = canonical.dumps

    def recording(value):
        text = dumps(value)
        encoded.append((text, reference_dumps(value)))
        return text

    monkeypatch.setattr(canonical, "dumps", recording)
    if table == "generated":
        result = _generated_run(*key)
    else:
        result = _bundled_run(*key, ASSERTED if table == "asserted" else "")
    assert all(text == reference for text, reference in encoded)
    # each line is one of the encoded texts, in order
    texts = iter(text for text, _ in encoded)
    assert all(any(line == text for text in texts) for line in result.lines)


if __name__ == "__main__":
    for table, extra in (("GOLDEN", ""), ("GOLDEN_ASSERTED", ASSERTED)):
        print(f"{table}:")
        for name in BUNDLED:
            for noise in (False, True):
                print(f'    ("{name}", {noise}): "{trace_sha256(name, noise, extra)}",')
    print("GOLDEN_LTM:")
    for name in BUNDLED:
        for noise in (False, True):
            print(f'    ("{name}", {noise}): "{ltm_sha256(name, noise)}",')
    print("GOLDEN_GENERATED:")
    for kind, seed in GENERATED:
        for noise in (False, True):
            print(f'    ("{kind}", {seed}, {noise}): "{generated_trace_sha256(kind, seed, noise)}",')
