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
golden traces with enough free entities and movers for perception's
column sweep and collision's cell buckets to replace the full pair scan,
so they pin those paths byte for byte.

Each bundled scenario's semantic LTM snapshot, the file `gridmind run
--ltm-save` writes, is pinned as well: working memory reaches the trace
only through its size, plans and what it consolidates into LTM, so the
snapshot pins what consolidation kept.

No bundled run retrieves from LTM, so one small scene is pinned for it:
run once, then run again with its semantic LTM as the seed, the run
`gridmind run --ltm-load` makes. The seeded run's trace and its
`--ltm-save` snapshot are pinned; it is the one golden run in which
working memory holds facts at their LTM ticks, not at the tick that took
them.

Every line of every golden trace is also checked to be what
`oracles.reference_dumps`, the encoder as first written, makes of the
record it encodes.

A change that alters trace bytes on purpose is a behaviour change: it
updates these hashes and says so in CHANGES.md. Running this file with
`PYTHONPATH=src:tests python tests/test_golden_traces.py` prints the
current hashes in the form of the tables below.
"""

from __future__ import annotations

import dataclasses
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
    ("arrange", False): "04d70f5fb17721b3724055e6beee6db0faf968a0d2dbe610ab6ae43bbeb1ece1",
    ("arrange", True): "5a1d428be612b5beeb8b471438c9bdaf246c9410487f696b9db99153fc8f5d12",
    ("crossing", False): "e263de6a93cecae42b8cdd96d52df39a400450615d44f5b6fb7d3bb80957c888",
    ("crossing", True): "8216af2b285790bceb2741c10bf6572b7dfeb43beb41a25abf23c518590d5a7a",
    ("driving_salience", False): "017b9f1719e897186deb2e31fbff2fe898167c82b93f7c39ad64eeae8e9c42a1",
    ("driving_salience", True): "7e3106b4a0c1afae57ac4ae68f6589743f5f71e19a059b9ea70057ba2b65ba8d",
    ("fetch_close", False): "6127b851b71597f2f8d9fa7d78937b420f809739767609a1e36029b66db73fa5",
    ("fetch_close", True): "272bf62f8fc968de1ed64fea2fcc5c5c6729437828446049a01922140f0bdf33",
    ("hotcoffee", False): "150d00fcb36552febed59edf2d47848cbbea448944c542fb535c17e3e7d087f8",
    ("hotcoffee", True): "4430d557f8dfb8fc676f4a0288061bb1e0979f6981fc4b17d79105e14ac3accb",
    ("knockover", False): "0a806184110e91053583c8401cacdab8f4fe76100a06627605f671c049dc4c5a",
    ("knockover", True): "a591f125c157725f846b380e854aec892ddbe2f52eaec0b57918af703868fd04",
    ("pickup_fail", False): "09dd8e91c60d429329c0e6e0f0f09be0e85f26d4012b2e738bfc8dc87dcf2050",
    ("pickup_fail", True): "b4addf57f4785308a5df908649c5dbac65dc015abbb2be29be2441698dde4c0e",
    ("teleport_fault", False): "0cecd3afb8e8751d081ed32f871dfc5346ff16a7d6fc73ccdb5d3f783fc6561a",
    ("teleport_fault", True): "25cdb02ff40e76aa35fa6c6613b50f22717e02e7001923b7e20b348ff3a0148d",
    ("vase_room", False): "387cbf61fb3d8e884260e52350e373accd75ce39e067c9dbc4032ffed4cba0d3",
    ("vase_room", True): "64d99530ba4bef7043191f7cdefe8e6f6b20c73fb452fc17c0a5e51e5f04be41",
    ("waterleak", False): "9d6a803bb3d8a7189a0652774cfc5814c312565e684ab53d0186949a83595efe",
    ("waterleak", True): "52a012f3d3f46c65b535f2395fe5aea1ba4366c4a7b3d41eee6be8f4169855d5",
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
    ("arrange", False): "efc5108087b134eb5f5848f9ddd282813e16ca01dea6deda714422885d8de747",
    ("arrange", True): "6d897afc49a5dd259fee802256907c48beb4d54ed3e5be9e1a069000912ab10c",
    ("crossing", False): "2ec51a927ee2a7f8875f7882897d7b9018960584b98258747e37aac8397bee3c",
    ("crossing", True): "71ddbac7739881e532632f263cb39cd8b295453664242dc09d9073764f8abf77",
    ("driving_salience", False): "353fed5cd19e32e0a74adfc5b81d31635def99b6752960e3b0312a875be23524",
    ("driving_salience", True): "90b7a3903d255fd1ad67a696352e0b0030c02c1417f2094a4988931c35f981cd",
    ("fetch_close", False): "358f966fe0b35c1cbe46c79bccedaf05535764297c07dbbe334dbe85e7689ebb",
    ("fetch_close", True): "2ec7d8f0479b9e1b19022d8eb415162646c53a1f9413ca9385217257f9e47128",
    ("hotcoffee", False): "eca223156783f269f91776282831ce461a42bd436f2cbd5a59d04912e45305c1",
    ("hotcoffee", True): "5d7936244c436a312ccc4cf7a97eb8c27df5bafa1d0d6c2f69dfc13f104487bb",
    ("knockover", False): "8e1f8e5f97f92a615237bd0b0f379e202b9a99f3d6e34b1911127ed73492708c",
    ("knockover", True): "4c5394e85bd402903801db0eb3cf1ee5996c031f9d9ccce4d2c43d4e91687673",
    ("pickup_fail", False): "299c62192553c7d5030d5fc70f6cd97aa8b24a1e0caf1c192c045d5d4dfb99ce",
    ("pickup_fail", True): "4496761d2becd52d942fd759faec43017594fae699d7710b6c500df17752c8d2",
    ("teleport_fault", False): "bd40da243cb1ba3e16e62934a4879bb43ff93f500a842fcd4fac965f2dac93a1",
    ("teleport_fault", True): "523262b3402944cfc9b2851742ab145851a4f3cf566d9d20d5d948f74f0a0b3a",
    ("vase_room", False): "5a8c336653b8128b8ea0180b917c42bfc7856227ca7cf307e68a8628dfbdd419",
    ("vase_room", True): "c6fdbeb4bb23ab3ccfb6fe4e1404f5cbe881e58be96445716b3efd9699d7810f",
    ("waterleak", False): "0539611a854b6ea4d86796037b9d418ff920f1219b0670f3c68a1105eee39989",
    ("waterleak", True): "e4052737886e26348dafbae01a26dfe5d8126f86cb74390523a12871a3ea96c2",
}


GOLDEN_GENERATED = {
    # (workload, workload seed, noise): sha256 of the trace, run at that seed
    ("crowded", 1, False): "d4a3a90b037fe5ffbde6e6a8e4551dac4b41edf70bd00d94bc6ffbe03bb68b24",
    ("crowded", 1, True): "0195eb030d696ce54689a86617028610b8fc1697fdfd462f3acb82b51f6f31e7",
    ("crowded", 2, False): "dd9b1579fa421c23d257ab4468e62b58c6a792132d3bc2f170bd9afdc4a46012",
    ("crowded", 2, True): "3ef409b002e6047cc5e025fcc12f7f8e1d3f74591af0639ca2c50fd699c4451b",
    ("crowded", 3, False): "0bdabea9fe264ad533b8575f87bf8eb9dda7af9caf06fbb9dc020d698f3e8206",
    ("crowded", 3, True): "526cde3a4fc60a6ff2ed50eda5d93c4683f48ebfaf351081416c26fd66fc1e6d",
    ("traffic", 1, False): "948a90a40b66cf57c83a711342a065429ee74887d172b120ebe2967c6fea5da7",
    ("traffic", 1, True): "8fba766a5b1009c1d6a208f1c16c85740045e4f0cddb269b3e58ce8d6a7508db",
    ("traffic", 2, False): "2fefd40b1502234c144fb39d700a1ac0fd92d127ca9464dba34df7ab028ff064",
    ("traffic", 2, True): "42ad60f7cc77aec8c284241e0dcb13f59765e9e8fefb03d9fc461449ccf7c889",
    ("traffic", 3, False): "d1db24dfab84b6fa290f0de33b9718491a0d446710c59b167d092ad1661ba3ab",
    ("traffic", 3, True): "04001e74b4c8b1335840f83643b368bd737528c794b8182d7f432e51f6db68c7",
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

# the scene whose LTM-seeded run retrieves from LTM (see above)
RECALL = """\
grid 12 8
region room 0 0 11 7
agent robot1 0 7
entity lamp1 11 0 category=lamp
at 1 set lamp1 powered
at 2 clear lamp1 powered
task navigate target=lamp1
config stale_ttl 2
"""

GOLDEN_RECALL = {
    # sha256 of the LTM-seeded run's trace and of its `--ltm-save` snapshot
    "trace": "ef47b2a8408362c2def9b4f78624aadd783f12d85011e36005f8d6a39bbfa9b9",
    "ltm": "fa471926e39d4870ab034e84946de2c7115a474cffeac89181259b082fa36a19",
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


def _run(text: str, path: str, seed: int, noise: bool, ltm_lines: list[str] | None = None):
    scenario = parse_scenario(text, path)
    config = EngineConfig()
    if scenario.config_overrides:
        config = config.with_overrides(dict(scenario.config_overrides))
    return run_scenario(
        scenario, config, seed=seed, planner_factory=scripted_planner_factory,
        noise=noise, scenario_text=text, ltm_lines=ltm_lines,
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


@cache
def _recall_runs():
    """The recall scene's first run and the run seeded with its LTM."""
    first = _run(RECALL, "scenarios/lamp_recall.scn", 0, False)
    seed = first.runtime.ltm.semantic.to_lines()
    return first, _run(RECALL, "scenarios/lamp_recall.scn", 0, False, ltm_lines=seed)


def recall_sha256() -> dict[str, str]:
    seeded = _recall_runs()[1]
    return {"trace": _sha256(seeded.lines), "ltm": _sha256(seeded.runtime.ltm.semantic.to_lines())}


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


def test_ltm_seeded_trace_and_snapshot_match_golden_hash():
    assert recall_sha256() == GOLDEN_RECALL


def test_facts_retrieved_from_ltm_keep_their_ltm_ticks_and_origin():
    first, seeded = _recall_runs()
    assert any('"RetrieveFromLTM"' in line for line in seeded.lines)
    retrieved = [f for f in seeded.runtime.wm.snapshot_facts() if f.origin == "retrieved"]
    assert [(f.subject, f.relation, f.tick) for f in retrieved] == [
        ("robot1", "at", tick) for tick in (10, 6, 7, 8, 9)
    ]
    # each is its seed fact, at its LTM tick, re-tagged
    for fact in retrieved:
        held = first.runtime.ltm.semantic.lookup(fact.key())
        assert fact == dataclasses.replace(held, origin="retrieved")


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
    print(f"GOLDEN_RECALL: {recall_sha256()}")
    print("GOLDEN_GENERATED:")
    for kind, seed in GENERATED:
        for noise in (False, True):
            print(f'    ("{kind}", {seed}, {noise}): "{generated_trace_sha256(kind, seed, noise)}",')
