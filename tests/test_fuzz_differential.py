"""Differential fuzzing of the two execution backends.

Random well-formed programs (the generator from ``test_fuzz``) must
produce byte-identical outputs, iteration marks and error logs on the
tree-walking interpreter and the closure-compiling runner — in strict
mode, in crash-avoidance mode, and under fault injection (site numbering
must agree for injections to land identically).  Injection trials on
the production path, which resume from the reference run's loop
boundaries, must record exactly what the tree-walker's full runs do.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.apps import DIST_APP_NAMES
from repro.runtime import ErrorInjector, Interpreter, RuntimeOptions
from repro.runtime.campaign import trial_record
from repro.runtime.compiler import CompiledRunner
from repro.runtime.devices import IterationKeyedDevice
from repro.runtime.stabilization import StabilizationExperiment
from tests.conftest import analyze
from tests.test_fuzz import programs


def device():
    return IterationKeyedDevice(lambda n, i, k: (i * 13 + k) % 17, iterations=6)


def observe(backend, info, injector=None):
    engine = backend(
        info,
        device(),
        options=RuntimeOptions(ignore_errors=True),
        injector=injector,
    )
    engine.run()
    return engine.sink.values, engine.iteration_marks, engine.error_log


class TestBackendEquivalence:
    @given(programs(annotated=False))
    @settings(max_examples=80, deadline=None)
    def test_clean_outputs_identical(self, source):
        info = analyze(source)
        assert observe(Interpreter, info) == observe(CompiledRunner, info)

    @given(programs(annotated=False))
    @settings(max_examples=50, deadline=None)
    def test_injected_outputs_identical(self, source):
        info = analyze(source)
        results = []
        injectors = []
        for backend in (Interpreter, CompiledRunner):
            injector = ErrorInjector(target_step=11, seed=3, burst=2)
            injectors.append(injector)
            results.append(observe(backend, info, injector))
        assert results[0] == results[1]
        # the injectable-site numbering agrees exactly
        assert injectors[0].step == injectors[1].step
        assert injectors[0].injected_at == injectors[1].injected_at


class TestInjectedTrials:
    @given(programs(annotated=False))
    @settings(max_examples=40, deadline=None)
    def test_trial_records_identical(self, source):
        production = StabilizationExperiment(
            analyze(source), device, step_budget_factor=64
        )
        oracle = replace(production, engine=Interpreter)
        total = production.total_steps()
        for site in range(0, total, max(1, total // 4)):
            for burst in (1, 3):
                assert trial_record(
                    "fuzzed", production.trial_at(site, seed=site, burst=burst)
                ) == trial_record(
                    "fuzzed", oracle.trial_at(site, seed=site, burst=burst)
                ), (site, burst)


class TestDistributedBackendEquivalence:
    """The fabric runs each node activation on an unchanged single-node
    backend; a whole multi-node simulation must therefore be
    backend-independent down to the per-node state digests."""

    @pytest.mark.parametrize("app", DIST_APP_NAMES)
    def test_clean_fabric_digests_identical(self, app):
        from repro.dist import dist_app_experiment

        results = []
        for engine in (Interpreter, CompiledRunner):
            experiment = dist_app_experiment(app, engine=engine)
            sim = experiment.reference()
            results.append((
                sim.trajectory,
                [sim.node_digest(i) for i in range(experiment.nodes)],
            ))
        assert results[0] == results[1]

    @pytest.mark.parametrize("app", DIST_APP_NAMES)
    def test_injected_fabric_trials_identical(self, app):
        from repro.dist import dist_app_experiment
        from repro.runtime.campaign import trial_record

        records = []
        for engine in (Interpreter, CompiledRunner):
            experiment = dist_app_experiment(app, engine=engine)
            site = experiment.total_steps() // 2
            records.append(
                trial_record(app, experiment.trial_at(site, seed=2))
            )
        assert records[0] == records[1]
