"""The complete perception-cognition-action loop, one tick at a time.

Each tick: the world steps, an observation is taken, the three perception
pathways run, features bind under the current attention weights, and the
perceived temporal, spatial and conceptual facts are aggregated into one
unified graph, which also takes the scenario's asserted facts. This is
the tick's only graph. The reasoning engines extend
that graph in place (dependency chaining, concept inference, spatial
composition, collision facts); contradictions are then detected on it,
and hazards are assessed over it. Metacognition monitors and regulates,
and working memory is refreshed. The decision cycle plans between ticks,
executes one step per tick, and replans on failure or on a TriggerReplan
directive.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cache
from importlib import resources
from itertools import combinations
from types import MappingProxyType

from . import canonical, cells, cognition, decide, metacog, perceive, reason
from .canonical import InputError
from .cognition import UnifiedCognition, aggregate, assess_hazards
from .config import EngineConfig
from .decide import Plan, PlannerError, PlannerQuery, TaskInstruction
from .kb import Atom, Fact, Rule, graph_from_lines
from .memory import Episode, LongTermMemory, WorkingMemory, consolidate, ltm_retrieve, retrieve_episodes
from .metacog import Anomaly, Directive, TickState
from .reason import EventSequenceModel
from .rulefmt import (
    parse_composition,
    parse_exclusions,
    parse_hazard_rules,
    parse_lexicon,
    parse_rules,
)
from .world import Action, ActionResult, Scenario, WorldState


def data_root():
    return resources.files("gridmind").joinpath("data")


@dataclass(frozen=True, eq=False)
class RuleData:
    """The engine's declarative knowledge, loaded from the data files.

    Immutable: each field is held as a tuple, the lexicon as a read-only
    mapping, so the one packaged instance can be shared by every run.
    Compared and hashed by identity.
    """

    dependency_rules: tuple[Rule, ...] = ()
    concept_rules: tuple[Rule, ...] = ()
    hazard_rules: tuple[Rule, ...] = ()
    composition: tuple[Rule, ...] = ()  # one rule per table entry
    exclusions: tuple[tuple[str, str], ...] = ()
    lexicon: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("dependency_rules", "concept_rules", "hazard_rules", "composition", "exclusions"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "lexicon", MappingProxyType(dict(self.lexicon)))

    @classmethod
    @cache
    def load_default(cls) -> RuleData:
        """The packaged rules, read and parsed once per process."""
        root = data_root()
        return cls(
            dependency_rules=parse_rules(root.joinpath("rules_dependency.txt").read_text()),
            concept_rules=parse_rules(root.joinpath("rules_concept.txt").read_text()),
            hazard_rules=parse_hazard_rules(root.joinpath("rules_hazard.txt").read_text()),
            composition=parse_composition(root.joinpath("composition.txt").read_text()),
            exclusions=parse_exclusions(root.joinpath("exclusions.txt").read_text()),
            lexicon=parse_lexicon(root.joinpath("affordances.txt").read_text()),
        )


@dataclass
class TickOutcome:
    result: ActionResult | None
    replan: bool


class AgentRuntime:
    """Holds all agent state and advances it one tick per action."""

    def __init__(
        self,
        scenario: Scenario,
        config: EngineConfig,
        seed: int = 0,
        noise: bool = False,
        hazards_enabled: bool = True,
        data: RuleData | None = None,
    ) -> None:
        self.scenario = scenario
        self.config = config
        self.hazards_enabled = hazards_enabled
        self.data = data or RuleData.load_default()
        self.world = WorldState(scenario, seed=seed, noise=noise)
        self.wm = WorkingMemory(capacity=config.wm_capacity, decay=config.wm_decay)
        self.ltm = LongTermMemory()
        self.weights = metacog.normalize_weights(
            config.weights(), config.weight_min, config.weight_max
        )
        self.seq_model = EventSequenceModel(order=config.markov_order)
        self.stream: list[str] = []
        self.window: list[perceive.Observation] = []
        self.task: TaskInstruction | None = None
        self.prediction_confidence = 1.0
        self.last_event_prediction: tuple[str, float] | None = None
        self.last_position_predictions: dict[str, tuple[int, int]] = {}
        self.rows: list[dict[str, object]] = []
        self.cycle_anomalies: list[Anomaly] = []
        self.last_hazards: list[Fact] = []
        self.unified: UnifiedCognition | None = None

    # -- plumbing for decide.execute -----------------------------------------

    def ticks_left(self) -> bool:
        return self.world.tick < self.config.max_ticks

    def bootstrap(self) -> TickOutcome:
        """Tick 0: perceive the initial world before any action."""
        return self._pipeline(action=None, result=None)

    def refresh_focus(self) -> None:
        """Pull current facts about task-referenced entities into WM.

        Runs at the start of every decision cycle so planning sees the
        task's objects even when a previous task never attended to them.
        """
        if self.task is None or self.unified is None:
            return
        refs = self._task_refs()
        tick = self.world.tick
        for fact in self.unified.graph.facts():
            if fact.subject in refs or (isinstance(fact.obj, str) and fact.obj in refs):
                self.wm.insert(fact, salience=1.0, tick=tick)

    def tick(self, action: Action) -> TickOutcome:
        return self._pipeline(action=action, result=self.world.step(action))

    # -- the pipeline ---------------------------------------------------------

    def _task_refs(self) -> frozenset[str]:
        if self.task is None:
            return frozenset({self.world.agent})
        return self.task.task_refs

    def _pipeline(self, action: Action | None, result: ActionResult | None) -> TickOutcome:
        cfg = self.config
        tick = self.world.tick
        obs = self.world.observe()
        self.window.append(obs)
        if len(self.window) > cfg.window_size:
            self.window = self.window[-cfg.window_size :]

        ft = perceive.extract_temporal(self.window)
        fs = perceive.extract_spatial(obs, self.world.agent)
        fc = perceive.extract_conceptual(obs, self.data.lexicon)
        bound = perceive.attend_and_bind(
            ft,
            fs,
            fc,
            self.weights,
            task_refs=self._task_refs(),
            threshold=cfg.attention_threshold,
        )
        t_facts, s_facts, c_facts, facts_by_entity = perceive.build_dimension_graphs(
            obs, ft, fs, fc, near_distance=cfg.near_distance
        )
        unified = aggregate(t_facts, s_facts, c_facts)
        graph = unified.graph
        for fact in self.scenario.facts:
            graph.insert(fact.at_tick(tick))

        # reasoning extends the unified graph in place
        dep_derived = reason.apply_dependency_rules(
            graph, self.data.dependency_rules, cfg.chain_max_iterations
        )
        concept_derived = reason.infer_concepts(
            graph, self.data.concept_rules, cfg.chain_max_iterations
        )
        spatial_derived = reason.compose_spatial(graph, self.data.composition)

        trajectories = self._predict_trajectories(obs)
        collision_facts = self._collision_facts(trajectories, tick)
        for fact in collision_facts:
            graph.insert(fact)
        unified.contradictions = cognition.detect_contradictions(graph, self.data.exclusions)

        observed_kinds = tuple(
            e.kind for e in sorted(ft.starting_at(tick), key=lambda e: (e.entity, e.kind))
        )
        # train on the new kinds with the k kinds before them as context
        self.stream.extend(observed_kinds)
        reason.train_sequence_model(
            self.seq_model, self.stream[-(len(observed_kinds) + self.seq_model.order) :]
        )

        hazards = (
            assess_hazards(unified, self.data.hazard_rules, cfg.chain_max_iterations)
            if self.hazards_enabled
            else []
        )
        self.unified = unified
        self.last_hazards = hazards

        state = TickState(
            tick=tick,
            predicted_event=self.last_event_prediction,
            observed_events=observed_kinds,
            predicted_positions=self.last_position_predictions,
            observed_positions={e: obs.readings[e].position for e in obs.entities()},
            contradictions=unified.contradictions,
            action_failure=(
                (action.name if action else "action", result.reason or "failed")
                if result is not None and result.failed
                else None
            ),
            instability=bool(result and "instability" in result.flags),
            action_name=action.name if action else None,
            stale_keys=self._stale_keys(tick),
        )
        anomalies = metacog.monitor(state, cfg)
        directives, self.weights = metacog.regulate(anomalies, self.weights, cfg)
        replan = self._apply_directives(directives, tick)
        self.cycle_anomalies.extend(anomalies)

        new_facts = sorted(
            dep_derived + concept_derived + spatial_derived + collision_facts + hazards,
            key=lambda f: f.key(),
        )
        self._refresh_memory(bound, facts_by_entity, new_facts, hazards, tick)
        self._store_predictions(obs, trajectories)

        self.rows.append(
            self._trace_row(tick, obs, bound, new_facts, anomalies, directives, action, result)
        )
        return TickOutcome(result=result, replan=replan)

    def _predict_trajectories(self, obs: perceive.Observation) -> dict[str, reason.Trajectory]:
        """Constant-velocity trajectories for entities currently moving."""
        if len(self.window) < 2:
            return {}
        prev = self.window[-2]
        bounds = (self.world.width, self.world.height)
        trajectories: dict[str, reason.Trajectory] = {}
        for entity in obs.entities():
            reading = obs.readings[entity]
            if "moving" not in reading.visible_flags():
                continue
            history = []
            if entity in prev.readings:
                history.append((prev.tick, prev.readings[entity].position))
            history.append((obs.tick, reading.position))
            trajectories[entity] = reason.predict_trajectory(
                entity, history, self.config.trajectory_horizon, bounds
            )
        return trajectories

    def _collision_facts(
        self, trajectories: dict[str, reason.Trajectory], tick: int
    ) -> list[Fact]:
        """CollisionRisk(a, b) for each pair of movers, a before b by name,
        whose predicted paths come within collision_epsilon.

        Only pairs with predicted cells in one tick's same or neighbouring
        ceil(epsilon)-wide cells can: a pair closer than epsilon is closer
        than that on each axis. While there are no more pairs than the
        cells one neighbourhood touches, every pair is tested.
        """
        names = sorted(trajectories)
        n = len(names)
        if n < 2:
            return []
        epsilon = self.config.collision_epsilon
        if n * (n - 1) // 2 <= cells.NEIGHBOURHOOD:
            pairs = combinations(range(n), 2)
        else:
            points = (
                (i, t, x, y)
                for i, name in enumerate(names)
                for t, (x, y) in trajectories[name].positions.items()
            )
            pairs = sorted(cells.close_pairs(points, math.ceil(epsilon)))
        facts = []
        for i, j in pairs:
            a, b = names[i], names[j]
            if reason.detect_collision(trajectories[a], trajectories[b], epsilon).risks:
                facts.append(Fact(a, "CollisionRisk", b, 1.0, tick, "derived"))
        return facts

    def _store_predictions(
        self, obs: perceive.Observation, trajectories: dict[str, reason.Trajectory]
    ) -> None:
        self.last_event_prediction = None
        if len(self.stream) >= self.seq_model.order and self.seq_model.kinds:
            prediction = reason.predict_next(self.seq_model, self.stream)
            if not prediction.uninformed:
                kind, prob = prediction.top()
                self.last_event_prediction = (kind, prob * self.prediction_confidence)
        self.last_position_predictions = {}
        next_tick = obs.tick + 1
        for entity, trajectory in sorted(trajectories.items()):
            if trajectory.low_confidence:
                continue
            if next_tick in trajectory.positions:
                self.last_position_predictions[entity] = trajectory.positions[next_tick]

    def _stale_keys(self, tick: int) -> tuple[str, ...]:
        refs = self._task_refs()
        stale = []
        for item in self.wm.items():
            fact = item.fact
            if tick - item.touched > self.config.stale_ttl and (
                fact.subject in refs or (isinstance(fact.obj, str) and fact.obj in refs)
            ):
                stale.append("|".join(fact.key()))
        return tuple(stale)

    def _apply_directives(self, directives: list[Directive], tick: int) -> bool:
        replan = False
        for directive in directives:
            if directive.kind == "TriggerReplan":
                replan = True
            elif directive.kind == "DecayPredictionConfidence" and directive.factor:
                self.prediction_confidence *= directive.factor
            elif directive.kind == "RetrieveFromLTM" and directive.pattern:
                relation, subject, obj = directive.pattern
                pattern = Atom(relation=relation, subject=subject, obj=obj)
                for fact in ltm_retrieve(self.ltm, pattern, self.config.ltm_retrieve_k):
                    retrieved = replace(fact, origin="retrieved")
                    self.wm.insert(retrieved, salience=fact.confidence, tick=tick)
        return replan

    def _refresh_memory(
        self,
        bound: list[perceive.BoundObject],
        facts_by_entity: dict[str, list[Fact]],
        new_facts: list[Fact],
        hazards: list[Fact],
        tick: int,
    ) -> None:
        insert = self.wm.insert
        for bo in bound:
            if bo.below_threshold:
                continue
            salience = min(1.0, max(0.0, bo.score))
            for fact in facts_by_entity.get(bo.entity, ()):
                insert(fact, salience, tick)
        hazard_keys = {f.key() for f in hazards}
        for fact in new_facts:
            if fact.key() not in hazard_keys:
                insert(fact, min(1.0, fact.confidence), tick)
        for fact in hazards:
            insert(fact, 1.0, tick)

    def _trace_row(
        self,
        tick: int,
        obs: perceive.Observation,
        bound: list[perceive.BoundObject],
        new_facts: list[Fact],
        anomalies: list[Anomaly],
        directives: list[Directive],
        action: Action | None,
        result: ActionResult | None,
    ) -> dict[str, object]:
        digest = hashlib.sha256(obs.digest_text().encode("utf-8")).hexdigest()[:16]
        return {
            "record": "tick",
            "tick": tick,
            "obs": digest,
            "bound": len(bound),
            "top": [[b.entity, b.score] for b in bound[:5]],
            "new_facts": [f.to_array() for f in new_facts],
            "anomalies": [a.to_record() for a in anomalies],
            "directives": [d.to_record() for d in directives],
            "weights": dict(self.weights),
            "action": action.to_record() if action else None,
            "result": result.to_record() if result else None,
            "wm": len(self.wm),
        }


@dataclass
class TaskRun:
    task: TaskInstruction
    outcome: str
    episodes: list[Episode]


@dataclass
class RunResult:
    outcome: str  # success | aborted
    exit_code: int
    lines: list[str]
    task_runs: list[TaskRun]
    runtime: AgentRuntime


def run_task(runtime: AgentRuntime, task: TaskInstruction, planner) -> TaskRun:
    """Decision cycles for one task, bounded by the replan limit."""
    cfg = runtime.config
    runtime.task = task
    episodes: list[Episode] = []
    outcome = "aborted"
    for cycle in range(cfg.replan_limit):
        last_cycle = cycle == cfg.replan_limit - 1
        runtime.cycle_anomalies = []
        runtime.refresh_focus()
        start_tick = runtime.world.tick
        query = decide.formulate_query(
            runtime.wm,
            task,
            runtime.last_hazards,
            retrieve_episodes(runtime.ltm, task.kind, cfg.episode_k),
        )
        plan_records: list[dict[str, object]] = []
        results: list[ActionResult] = []
        try:
            plan = planner(query)
            plan_records = plan.to_records()
            results, status = decide.execute(plan, runtime, task)
        except PlannerError as exc:
            anomaly = Anomaly(
                kind="ActionFailure",
                tick=runtime.world.tick,
                payload=(exc.code, exc.detail[:120]),
                severity=cfg.severity_action_failure,
            )
            directives, runtime.weights = metacog.regulate(
                [anomaly], runtime.weights, cfg
            )
            runtime.cycle_anomalies.append(anomaly)
            status = "planner_failed"
        if status == "success":
            cycle_outcome = "success"
        elif status == "out_of_ticks" or last_cycle:
            cycle_outcome = "aborted"
        else:
            cycle_outcome = "failure"
        episode = Episode(
            task_kind=task.kind,
            task_params=dict(task.params),
            plan_steps=plan_records,
            results=[r.to_record() for r in results],
            anomalies=[a.to_record() for a in runtime.cycle_anomalies],
            outcome=cycle_outcome,
            start_tick=start_tick,
            end_tick=runtime.world.tick,
        )
        consolidate(runtime.ltm, runtime.wm, episode, cfg.consolidate_threshold)
        episodes.append(episode)
        if cycle_outcome in ("success", "aborted"):
            outcome = cycle_outcome
            break
    return TaskRun(task=task, outcome=outcome, episodes=episodes)


def run_scenario(
    scenario: Scenario,
    config: EngineConfig,
    seed: int,
    planner_factory,
    noise: bool = False,
    hazards_enabled: bool = True,
    planner_name: str = "scripted",
    scenario_text: str | None = None,
    data: RuleData | None = None,
    ltm_lines: list[str] | None = None,
) -> RunResult:
    """Execute every task in the scenario and assemble the full trace.

    `ltm_lines` (canonical fact lines) seed the semantic LTM; this is
    their only parser, and a malformed line is an InputError.
    """
    tasks = [decide.interpret_task(spec, scenario) for spec in scenario.tasks]
    runtime = AgentRuntime(
        scenario,
        config,
        seed=seed,
        noise=noise,
        hazards_enabled=hazards_enabled,
        data=data,
    )
    if ltm_lines is not None:
        try:
            runtime.ltm.semantic = graph_from_lines(ltm_lines)
        except ValueError as exc:
            raise InputError(f"malformed LTM snapshot: {exc}") from exc
    planner = planner_factory(runtime)
    header: dict[str, object] = {
        "record": "header",
        "version": 1,
        "scenario": scenario.path or "<inline>",
        "scenario_sha256": hashlib.sha256(
            (scenario_text or "").encode("utf-8")
        ).hexdigest(),
        "seed": seed,
        "noise": noise,
        "hazards_enabled": hazards_enabled,
        "planner": planner_name,
        "config": config.to_echo(),
    }
    if ltm_lines is not None:
        # the seed as canonical fact lines, so a replay starts from it too
        header["ltm"] = runtime.ltm.semantic.to_lines()
    lines = [canonical.dumps(header)]
    if tasks:
        runtime.task = tasks[0]
    runtime.bootstrap()
    task_runs: list[TaskRun] = []
    overall = "success"
    for task in tasks:
        task_run = run_task(runtime, task, planner)
        task_runs.append(task_run)
        if task_run.outcome != "success":
            overall = "aborted"
            break
    for row in runtime.rows:
        lines.append(canonical.dumps(row))
    final_goal = all(t.task.goal_satisfied(runtime.world) for t in task_runs) if task_runs else None
    summary: dict[str, object] = {
        "record": "summary",
        "outcome": overall,
        "ticks": runtime.world.tick,
        "goal": final_goal,
        "episodes": [e.summary() for run in task_runs for e in run.episodes],
    }
    lines.append(canonical.dumps(summary))
    return RunResult(
        outcome=overall,
        exit_code=0 if overall == "success" else 2,
        lines=lines,
        task_runs=task_runs,
        runtime=runtime,
    )


def scripted_planner_factory(runtime: AgentRuntime):
    def plan(query: PlannerQuery) -> Plan:
        return decide.plan_scripted(query)

    return plan
