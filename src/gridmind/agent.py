"""The complete perception-cognition-action loop, one tick at a time.

Each tick: the world steps, an observation is taken, the three perception
pathways run, features bind under the current attention weights, and the
perceived temporal, spatial and conceptual facts are aggregated into one
unified graph, which also takes the scenario's asserted facts. This is
the tick's only graph. The reasoning engines extend
that graph in place (dependency chaining, concept inference, spatial
composition, collision facts); contradictions are then detected on it,
and hazards are assessed over it. Inside the graph a fact keeps the tick
it was built or became derivable at; the tick dates a fact at the
current tick only where it records it: working memory dates a fact it
takes at the tick, and the trace row's new facts and the hazards the
planner reads are dated copies (`_dated`). Metacognition
monitors and regulates, and working memory is refreshed. `run_task` runs
the decision cycles: each plans between ticks, executes one step per
tick, and ends in success, failure (the next cycle replans) or abort.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, replace
from functools import cache
from importlib import resources
from itertools import combinations
from types import MappingProxyType

from . import canonical, cells, cognition, decide, metacog, perceive, reason
from .canonical import InputError
from .cognition import UnifiedCognition, aggregate, assess_hazards
from .config import EngineConfig
from .decide import PlannerError, PlannerQuery, PlanStep, TaskInstruction
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


def _dated(facts: Iterable[Fact], tick: int) -> list[Fact]:
    """`facts` dated `tick`, for the trace row and the planner's hazards:
    in the tick's graph a fact keeps the tick it was made or derivable at,
    which may be earlier. A fact already dated `tick` is itself, any other
    an `at_tick` copy. Working memory takes no copy: it is handed the
    tick as the date of the facts it takes."""
    return [fact if fact.tick == tick else fact.at_tick(tick) for fact in facts]


def _about(fact: Fact, refs: frozenset[str]) -> bool:
    """Whether the fact's subject, or its symbol object, is one of `refs`."""
    return fact.subject in refs or (isinstance(fact.obj, str) and fact.obj in refs)


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
        self.temporal = perceive.TemporalWindow(config.window_size)
        self.task: TaskInstruction | None = None
        self.prediction_confidence = 1.0
        self.last_event_prediction: tuple[str, float] | None = None
        self.last_position_predictions: dict[str, tuple[int, int]] = {}
        self.rows: list[dict[str, object]] = []
        self.last_hazards: list[Fact] = []
        self.unified: UnifiedCognition | None = None

    def bootstrap(self) -> None:
        """Tick 0: perceive the initial world before any action."""
        self._pipeline(action=None, result=None)

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
            if _about(fact, refs):
                self.wm.insert(fact, salience=1.0, tick=tick, date=tick)

    def tick(self, action: Action) -> tuple[ActionResult, bool]:
        """One plan step: its result, and whether a directive asks for a replan."""
        result = self.world.step(action)
        return result, self._pipeline(action=action, result=result)

    # -- the pipeline ---------------------------------------------------------

    def _task_refs(self) -> frozenset[str]:
        if self.task is None:
            return frozenset({self.world.agent})
        return self.task.task_refs

    def _pipeline(self, action: Action | None, result: ActionResult | None) -> bool:
        cfg = self.config
        tick = self.world.tick
        obs = self.world.observe()
        previous = self.temporal.last  # before extract_temporal moves it on
        ft = perceive.extract_temporal(self.temporal, obs)
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
            obs, ft, fc, near_distance=cfg.near_distance
        )
        unified = aggregate(t_facts, s_facts, c_facts)
        graph = unified.graph
        for fact in self.scenario.facts:
            graph.insert(fact)

        # reasoning extends the unified graph in place
        dep_derived = reason.apply_dependency_rules(
            graph, self.data.dependency_rules, cfg.chain_max_iterations
        )
        concept_derived = reason.infer_concepts(
            graph, self.data.concept_rules, cfg.chain_max_iterations
        )
        spatial_derived = reason.compose_spatial(
            graph, self.data.composition, cfg.chain_max_iterations
        )

        trajectories = self._predict_trajectories(previous, obs)
        collision_facts = self._collision_facts(trajectories, tick)
        for fact in collision_facts:
            graph.insert(fact)
        unified.contradictions = cognition.detect_contradictions(graph, self.data.exclusions)

        # ft's events come in (start, entity, kind) order and trajectories
        # are keyed in sorted obs.entities() order, so both are read as they come
        observed_kinds = tuple(e.kind for e in ft.starting_at(tick))
        # train on the new kinds with the k kinds before them as context;
        # training and prediction read no further back, so keep only k
        order = self.seq_model.order
        self.stream.extend(observed_kinds)
        reason.train_sequence_model(self.seq_model, self.stream[-(len(observed_kinds) + order) :])
        del self.stream[:-order]

        hazards = (
            _dated(assess_hazards(unified, self.data.hazard_rules, cfg.chain_max_iterations), tick)
            if self.hazards_enabled
            else []
        )
        self.unified = unified
        self.last_hazards = hazards

        state = TickState(
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

        new_facts = sorted(
            _dated(dep_derived + concept_derived + spatial_derived, tick) + collision_facts + hazards,
            key=lambda f: f.key(),
        )
        self._refresh_memory(bound, facts_by_entity, new_facts, hazards, tick)
        self._store_predictions(obs, trajectories)

        self.rows.append(
            self._trace_row(tick, obs, bound, new_facts, anomalies, directives, action, result)
        )
        return replan

    def _predict_trajectories(
        self, previous: perceive.Observation | None, obs: perceive.Observation
    ) -> dict[str, reason.Trajectory]:
        """Constant-velocity trajectories for entities currently moving,
        from their cells in `previous`, the observation one tick before."""
        if previous is None:
            return {}
        horizon = self.config.trajectory_horizon
        bounds = (self.world.width, self.world.height)
        trajectories: dict[str, reason.Trajectory] = {}
        for entity in obs.entities():
            reading = obs.readings[entity]
            if "moving" not in reading.visible_flags():
                continue
            trajectories[entity] = reason.predict_trajectory(
                entity, obs.tick, previous.readings[entity].position, reading.position,
                horizon, bounds,
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
        names = list(trajectories)
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
            if reason.detect_collision(trajectories[a], trajectories[b], epsilon):
                facts.append(Fact(a, "CollisionRisk", b, 1.0, tick, "derived"))
        return facts

    def _store_predictions(
        self, obs: perceive.Observation, trajectories: dict[str, reason.Trajectory]
    ) -> None:
        self.last_event_prediction = None
        # every kind in the stream was trained on, so the model has support
        if len(self.stream) >= self.seq_model.order:
            prediction = reason.predict_next(self.seq_model, self.stream)
            if not prediction.uninformed:
                kind, prob = prediction.top()
                self.last_event_prediction = (kind, prob * self.prediction_confidence)
        next_tick = obs.tick + 1
        self.last_position_predictions = {
            entity: trajectory.positions[next_tick]
            for entity, trajectory in trajectories.items()
        }

    def _stale_keys(self, tick: int) -> tuple[str, ...]:
        """The keys, in key order, of WM items about a task ref that went
        untouched for more than stale_ttl ticks."""
        refs = self._task_refs()
        ttl = self.config.stale_ttl
        stale = []
        for item in self.wm:
            if tick - item.touched > ttl:
                # the held fact, at whatever tick: key, subject and object
                # do not depend on it
                if _about(item.held, refs):
                    stale.append(item.held.key())
        stale.sort()
        return tuple("|".join(key) for key in stale)

    def _apply_directives(self, directives: list[Directive], tick: int) -> bool:
        replan = False
        for directive in directives:
            if directive.kind == "TriggerReplan":
                replan = True
            elif directive.kind == "DecayPredictionConfidence":
                self.prediction_confidence *= directive.factor
            elif directive.kind == "RetrieveFromLTM":
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
                insert(fact, salience, tick, tick)
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


# the trace format `run_scenario` writes and `trace.replay` reads
TRACE_VERSION = 2


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
    """Decision cycles for one task, bounded by the replan limit.

    A cycle succeeds once the goal holds, after a step or when its plan
    runs out. A failed step, a TriggerReplan directive, a plan run out
    short of the goal or a planner error fails it, and the next cycle
    replans; on the last cycle, or once the tick budget is spent, it aborts.
    A planner error is kept as the episode's `planner_error`.
    """
    cfg = runtime.config
    runtime.task = task
    episodes: list[Episode] = []
    for cycle in range(cfg.replan_limit):
        runtime.refresh_focus()
        start_tick = runtime.world.tick
        query = decide.formulate_query(
            runtime.wm,
            task,
            runtime.last_hazards,
            retrieve_episodes(runtime.ltm, task.kind, cfg.episode_k),
        )
        plan_records: list[dict[str, object]] = []
        planner_error: tuple[str, str] | None = None
        outcome = "failure"
        try:
            plan = planner(query)
        except PlannerError as exc:
            planner_error = (exc.code, exc.detail[:120])
            anomaly = Anomaly("ActionFailure", planner_error, cfg.severity_action_failure)
            # the directives go unused, but the renormalized weights are kept
            _, runtime.weights = metacog.regulate([anomaly], runtime.weights, cfg)
        else:
            plan_records = [step.to_record() for step in plan]
            for step in plan:
                if runtime.world.tick >= cfg.max_ticks:
                    outcome = "aborted"
                    break
                result, replan = runtime.tick(step.action)
                if task.goal_satisfied(runtime.world) or result.failed or replan:
                    break
            if outcome == "failure" and task.goal_satisfied(runtime.world):
                outcome = "success"
        if outcome == "failure" and cycle == cfg.replan_limit - 1:
            outcome = "aborted"
        episode = Episode(
            task_kind=task.kind,
            task_params=dict(task.params),
            plan_steps=plan_records,
            planner_error=planner_error,
            outcome=outcome,
            start_tick=start_tick,
            end_tick=runtime.world.tick,
        )
        consolidate(runtime.ltm, runtime.wm, episode, cfg.consolidate_threshold)
        episodes.append(episode)
        if outcome != "failure":
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
        "version": TRACE_VERSION,
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
    def plan(query: PlannerQuery) -> list[PlanStep]:
        return decide.plan_scripted(query)

    return plan
