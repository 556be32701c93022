from __future__ import annotations

import shlex
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gridmind.agent import RuleData, data_root, run_scenario, scripted_planner_factory
from gridmind.config import EngineConfig
from gridmind.perceive import TemporalWindow, extract_temporal
from gridmind.world import load_scenario, parse_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def scenario_path(name: str) -> str:
    return str(data_root().joinpath("scenarios", f"{name}.scn"))


def run_bundled(name: str, seed: int = 0, hazards: bool = True, noise: bool = False,
                config: EngineConfig | None = None):
    path = scenario_path(name)
    scenario = load_scenario(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    cfg = config or EngineConfig()
    if scenario.config_overrides:
        cfg = cfg.with_overrides(dict(scenario.config_overrides))
    return run_scenario(
        scenario,
        cfg,
        seed=seed,
        planner_factory=scripted_planner_factory,
        noise=noise,
        hazards_enabled=hazards,
        scenario_text=text,
    )


def run_generated(name: str, seed: int = 1, noise: bool = False):
    """A run of the benchmark's generated `crowded` or `traffic` scenario;
    the caller puts PERFBENCH on sys.path (`monkeypatch.syspath_prepend`)."""
    import workloads  # perfbench's seeded scenario generators

    text = {"crowded": workloads.crowded_text, "traffic": workloads.traffic_text}[name](seed)
    scenario = parse_scenario(text)
    config = EngineConfig().with_overrides(dict(scenario.config_overrides))
    return run_scenario(
        scenario, config, seed=seed, planner_factory=scripted_planner_factory, noise=noise,
        scenario_text=text,
    )


def temporal_features(window):
    """The temporal features of a non-empty list of consecutive-tick
    observations: each fed in turn to a fresh `TemporalWindow` as long as
    the list, so the last call's events span the whole list."""
    carried = TemporalWindow(len(window))
    for obs in window:
        features = extract_temporal(carried, obs)
    return features


def episode_rows(rows, episode):
    """The tick rows of an episode's steps, those with start_tick < tick <=
    end_tick; `episode` is a `memory.Episode` or its summary record."""
    if isinstance(episode, dict):
        start, end = episode["start_tick"], episode["end_tick"]
    else:
        start, end = episode.start_tick, episode.end_tick
    return [row for row in rows if start < row["tick"] <= end]


BUNDLED = [
    "arrange",
    "crossing",
    "driving_salience",
    "fetch_close",
    "hotcoffee",
    "knockover",
    "pickup_fail",
    "teleport_fault",
    "vase_room",
    "waterleak",
]


@pytest.fixture(scope="session")
def rule_data() -> RuleData:
    return RuleData.load_default()


def stub_planner_spec(mode: str) -> str:
    """The `--planner` value that runs tests/stub_planner.py in `mode`."""
    return "cmd:" + shlex.join([sys.executable, str(Path(__file__).parent / "stub_planner.py"), mode])


@pytest.fixture(scope="session")
def external_trace(tmp_path_factory) -> bytes:
    """The fetch_close trace recorded with the stub planner's fetch plan."""
    from gridmind.cli import main

    path = tmp_path_factory.mktemp("external") / "external.trace"
    assert main(["run", scenario_path("fetch_close"), "--trace", str(path),
                 "--planner", stub_planner_spec("fetch")]) == 0
    return path.read_bytes()
