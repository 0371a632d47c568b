"""The four workloads and the layer wrappers the traced run installs.

Every workload is a closed loop driven from here: the benchmark calls
into the program, waits for its answer, and only then makes the next
call.  A run repeats whole *rounds* of the same operations; round ``r``
of seed ``s`` draws its inputs from ``round_seed(s, r)``.

- ``pipeline``: one offline pass at reduced scale -- the Table-1 corpus
  over all 25 runs, ``MonitorlessModel.fit`` with the paper's default
  pipeline, then Table 5/6/8 scoring.
- ``loop``: the lifecycle drift scenario, one ``run_until(t + 1)`` per
  tick, through the drift alarm, the retrain and the promotion.
- ``fleet``: ``FleetShardRunner`` start/tick/finish over plain and
  chaos TeaStore cells, as one fleet shard runs them.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.simulation import ClusterSimulation
from repro.core.features.pipeline import (
    MonitorlessPipeline,
    PipelineConfig,
    PipelineStream,
)
from repro.core.labeling import KneedleLabeler
from repro.core.model import MonitorlessModel
from repro.datasets import experiments, generate
from repro.datasets.configs import run_by_id
from repro.fleet.features import FleetPipelineStream
from repro.fleet.orchestrator import (
    FleetShardRunner,
    default_fleet_workloads,
    make_fleet_specs,
)
from repro.fleet.policy import FleetPolicy
from repro.fleet.telemetry import FleetTelemetryStream
from repro.lifecycle import registry as lifecycle_registry
from repro.lifecycle.manager import LifecycleManager
from repro.lifecycle.retrain import Retrainer
from repro.lifecycle.scenario import DriftScenarioConfig, DriftScenarioRunner
from repro.ml.forest import RandomForestClassifier
from repro.orchestrator.autoscaler import Autoscaler
from repro.orchestrator.policies import MonitorlessPolicy, ThresholdPolicy
from repro.telemetry.agent import TelemetryAgent
from repro.telemetry.stream import InstanceTelemetryStream

import checks

_clock = time.perf_counter

#: Pipeline scale: Table-1 run length, calibration ramp, evaluation
#: scenario length and forest size.  The feature filter's per-run
#: forests dominate the fit whatever the run length.
CORPUS_SECONDS = 40
CALIBRATION_SECONDS = 100
SCENARIO_SECONDS = 700
PIPELINE_TREES = 15
#: The pipeline trains on the Table-1 corpus and forest seed of
#: `repro train`; the benchmark's seed drives the scored scenarios.
#: Which features the first filter keeps depends on the corpus seed,
#: and with them the width of the interaction matrix and the fit's
#: peak memory (480-620 MB across seeds), which would swamp a memory
#: change made by the program.
TRAINING_SEED = 0
#: Fleet shape: plain and chaos cells in one shard, ticks per round.
#: Plain cells take the batched fast telemetry path; chaos cells wrap
#: their agents, take the per-stream compat path (about four times the
#: cost of a plain cell) and demote rows to their threshold secondary.
#: The split gives the two paths about equal shares of a round (0.25-
#: 0.29 compat, 0.31-0.33 fast), so the one throughput metric sees a
#: slowdown of either path about alike: a path with share s that
#: becomes k times slower lowers it by 1 - 1 / (1 + s (k - 1)).
PLAIN_CELLS = 120
CHAOS_CELLS = 18
FLEET_TICKS = 30
#: The loop replays the repository's seeded drift scenario: its
#: simulation, telemetry and retrain noise keep the scenario's own
#: seed, and the benchmark's seed drives the arrivals, the scenario's
#: stepped plateau with this relative per-tick jitter.  Seeding the
#: scenario itself flips about three seeds in ten between two regimes
#: (9 or 21 scale-outs, one or two retrains), which halves or doubles
#: a round's work; jittered arrivals keep the seeded regime.
ARRIVAL_JITTER = 0.01


def round_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


@dataclass
class Round:
    """One round's timings and work, as the closed loop saw them, and
    ``check``, which checks its outputs and returns the failures."""

    seconds: float = 0.0
    operations: int = 0
    container_ticks: int = 0
    op_seconds: list = field(default_factory=list)
    phases: dict = field(default_factory=dict)
    check: object = None
    failures: list = field(default_factory=list)
    #: The process's peak resident set after the round and its checks.
    rss_mb: float = 0.0


def _timed(tracer, call, *args, **kwargs):
    """Run one operation inside the measured part; (result, seconds)."""
    with tracer.timed():
        started = _clock()
        result = call(*args, **kwargs)
        elapsed = _clock() - started
    return result, elapsed


def serving_model(temporal_windows=(1, 5, 15)) -> MonitorlessModel:
    """The small serving model of the loop and the fleet: six Table-1
    runs, fixed seeds, 15 trees.  It is set-up, not input: every run
    trains the same one."""
    runs = [run_by_id(i) for i in (1, 2, 7, 9, 12, 24)]
    corpus = generate.build_training_corpus(
        duration=80, calibration_duration=100, seed=3, runs=runs
    )
    model = MonitorlessModel(
        pipeline_config=PipelineConfig(temporal_windows=temporal_windows),
        classifier_params={"n_estimators": 15},
        random_state=0,
    )
    return model.fit(corpus.X, corpus.meta, corpus.y, corpus.groups)


def _live_containers(simulation, application) -> int:
    return sum(len(replicas) for replicas in
               simulation.deployments[application].instances.values())


class Pipeline:
    name = "pipeline"

    def setup(self):
        return None

    def prepare(self, fixture, seed, scratch):
        # A fresh process starts with an empty calibration-ramp cache,
        # as `repro train` does; every round starts the same way.
        generate.clear_calibration_cache()
        return seed

    def run_round(self, fixture, seed, tracer) -> Round:
        out = Round()

        def corpus():
            before = generate.calibration_cache_info()
            with tracer.span("datasets.corpus_s"):
                built = generate.build_training_corpus(
                    duration=CORPUS_SECONDS,
                    calibration_duration=CALIBRATION_SECONDS,
                    seed=TRAINING_SEED,
                )
            after = generate.calibration_cache_info()
            tracer.count("datasets.calibration_hits", after["hits"] - before["hits"])
            tracer.count("datasets.calibration_misses",
                         after["misses"] - before["misses"])
            return built

        def fit(built):
            model = MonitorlessModel(
                classifier_params={"n_estimators": PIPELINE_TREES},
                random_state=TRAINING_SEED,
            )
            return model.fit(built.X, built.meta, built.y, built.groups)

        def scenario(factory):
            with tracer.span("datasets.scenario_s"):
                return factory(duration=SCENARIO_SECONDS, seed=seed)

        built, corpus_s = _timed(tracer, corpus)
        model, fit_s = _timed(tracer, fit, built)
        elgg, elgg_s = _timed(tracer, scenario, experiments.elgg_scenario)
        (tea, sock), multi_s = _timed(tracer, scenario,
                                      experiments.multitenant_scenario)
        sock_window = experiments.sockshop_windows(SCENARIO_SECONDS)
        scored = [
            _timed(tracer, experiments.evaluate_detectors, target, model,
                   window=window)
            for target, window in ((elgg, None), (tea, None),
                                   (sock, sock_window))
        ]
        out.op_seconds = [corpus_s, fit_s, elgg_s, multi_s] + [s for _, s in scored]
        out.seconds = sum(out.op_seconds)
        out.operations = len(out.op_seconds)
        out.phases = {"train_s": corpus_s + fit_s,
                      "score_s": elgg_s + multi_s + sum(s for _, s in scored)}
        scored_rows = sum(len(s.containers()) * SCENARIO_SECONDS
                          for s in (elgg, tea, sock))
        out.container_ticks = int(built.X.shape[0]) + scored_rows

        def check():
            features = model.transform(built.X, built.meta, built.groups)
            rng = np.random.default_rng(seed)
            return (checks.check_forest(model, features, rng)
                    + checks.check_corpus_labels(built)
                    + checks.check_elgg(elgg, scored[0][0]))

        out.check = check
        return out


class Loop:
    name = "loop"

    def setup(self):
        # The scenario's detector and retrain knobs are tuned for the
        # short-window champion.
        return serving_model(temporal_windows=(1, 5))

    def prepare(self, model, seed, scratch):
        # Set-up builds round 0 three times; each build starts from an
        # empty registry, as a fresh deployment does.
        registry = scratch / f"registry-{seed}"
        shutil.rmtree(registry, ignore_errors=True)
        runner = DriftScenarioRunner(model, registry, DriftScenarioConfig())
        rng = np.random.default_rng(seed)
        runner.workload = runner.workload * (
            1.0 + ARRIVAL_JITTER * rng.standard_normal(runner.workload.size)
        )
        return runner

    def run_round(self, model, runner, tracer) -> Round:
        out = Round()
        simulation = runner.orchestrator.simulation
        for _ in range(runner.config.duration):
            out.container_ticks += _live_containers(simulation, "teastore")
            _, seconds = _timed(tracer, runner.run_until, runner.t + 1)
            out.op_seconds.append(seconds)
        result, seconds = _timed(tracer, runner.finish)
        out.seconds = sum(out.op_seconds) + seconds
        out.operations = len(out.op_seconds)
        retrains = sum(e["event"] == "retrain" for e in result.history)
        tracer.count("orchestrator.scale_outs", result.scale_outs)
        tracer.count("lifecycle.retrains", retrains)
        tracer.count("lifecycle.promotions",
                     sum(e["event"] == "promote" for e in result.history))
        out.phases = {"violations": result.violations,
                      "scale_outs": result.scale_outs,
                      "retrains": retrains,
                      "promotion_tick": result.promotion_tick}
        out.check = lambda: checks.check_drift_loop(runner, result)
        return out


class Fleet:
    name = "fleet"

    def setup(self):
        return serving_model()

    def prepare(self, model, seed, scratch):
        specs = (make_fleet_specs(PLAIN_CELLS, base_seed=seed)
                 + make_fleet_specs(CHAOS_CELLS, base_seed=seed,
                                    kind="teastore-chaos", prefix="chaos"))
        workloads = default_fleet_workloads(len(specs), FLEET_TICKS, seed=seed)
        return specs, workloads, FleetShardRunner(0, specs, model)

    def run_round(self, model, prepared, tracer) -> Round:
        specs, workloads, runner = prepared
        out = Round()
        _, start_s = _timed(tracer, runner.start)
        for t in range(FLEET_TICKS):
            out.container_ticks += sum(
                _live_containers(cell.simulation, cell.application)
                for cell in runner.cells
            )
            _, seconds = _timed(tracer, runner.tick, workloads[:, t])
            out.op_seconds.append(seconds)
        result, finish_s = _timed(tracer, runner.finish)
        out.seconds = start_s + sum(out.op_seconds) + finish_s
        out.operations = len(out.op_seconds)
        counters = result.counters
        tracer.count("orchestrator.scale_outs",
                     sum(cell.total_scale_outs for cell in result.cells.values()))
        tracer.count("reliability.demotions", counters["demotions"])
        tracer.count("reliability.failsafe_ticks", counters["failsafe_ticks"])
        out.phases = {"decisions": sum(len(d) for d in result.decisions),
                      "demotions": counters["demotions"]}
        out.check = lambda: checks.check_fleet(
            specs, model, workloads, result,
            rows=(0, PLAIN_CELLS // 2, PLAIN_CELLS,
                  PLAIN_CELLS + CHAOS_CELLS // 2),
        )
        return out


WORKLOADS = {workload.name: workload for workload in (Pipeline(), Loop(), Fleet())}


# ---------------------------------------------------------------------------
# Layer wrappers (traced run only)
# ---------------------------------------------------------------------------
def _count_rows(name):
    def counter(tracer, result, args):
        tracer.count(name, np.shape(result)[0])
    return counter


def _count_forest(tracer, forest, args):
    tracer.count("ml.trees", len(forest.estimators_))
    tracer.count("ml.tree_nodes",
                 sum(tree.tree_feature_.size for tree in forest.estimators_))


def _count_predict(tracer, result, args):
    tracer.count("ml.predict_rows", np.shape(args[1])[0])


def _count_sessions(tracer, result, args):
    tracer.count("datasets.sessions")


def _count_emitted(tracer, emitted, args):
    fast = int(np.count_nonzero(args[0].fast_mask[emitted]))
    tracer.count("fleet.rows_fast", fast)
    tracer.count("fleet.rows_compat", emitted.size - fast)


def _count_steps(tracer, result, args):
    tracer.count("cluster.steps")


LAYERS = [
    # owner, attribute, booked as, counter
    (generate, "generate_session", "datasets.corpus_s", _count_sessions),
    (ClusterSimulation, "step", "cluster.step_s", _count_steps),
    (TelemetryAgent, "instance_matrix", "telemetry.matrix_s",
     _count_rows("telemetry.matrix_rows")),
    (InstanceTelemetryStream, "emit", "telemetry.stream_s", None),
    (KneedleLabeler, "fit", "core.labeling_s", None),
    (MonitorlessPipeline, "fit_transform", "core.features_fit_s", None),
    (MonitorlessPipeline, "transform", "core.features_transform_s", None),
    (PipelineStream, "push", "core.features_transform_s", None),
    (experiments, "tune_threshold_baseline", "core.thresholds_s", None),
    (RandomForestClassifier, "fit", "ml.forest_fit_s", _count_forest),
    (RandomForestClassifier, "predict_proba", "ml.predict_s", _count_predict),
    (MonitorlessPolicy, "saturated_services", "orchestrator.policy_s", None),
    (Autoscaler, "act", "orchestrator.autoscaler_s", None),
    (LifecycleManager, "observe", "lifecycle.observe_s", None),
    (LifecycleManager, "step", "lifecycle.step_s", None),
    (Retrainer, "retrain", "lifecycle.retrain_s", None),
    (lifecycle_registry.ModelRegistry, "register", "lifecycle.registry_s", None),
    (lifecycle_registry.ModelRegistry, "transition", "lifecycle.registry_s", None),
    (lifecycle_registry.ModelRegistry, "load", "lifecycle.registry_s", None),
    (lifecycle_registry, "model_fingerprint", "lifecycle.fingerprint_s", None),
    (FleetTelemetryStream, "advance_round", "fleet.telemetry_s", _count_emitted),
    (FleetPipelineStream, "push_rows", "fleet.features_s", None),
    (FleetPolicy, "saturated_services", "fleet.policy_s", None),
    (ThresholdPolicy, "instance_saturated", "reliability.secondary_s", None),
]


def install_layers(tracer) -> None:
    for owner, attr, name, counter in LAYERS:
        tracer.wrap(owner, attr, name, counter)
