"""Fabric and single-node trials share one lifecycle: per outcome, the
same ``trial.*`` events at the same levels and one ``trial`` span with
the same counters.  A fabric trial's events and span also name the app
and the node."""

from __future__ import annotations

import pytest

from repro.apps import resolve_experiment
from repro.dist import dist_app_experiment
from repro.obs import RingBufferSink, Tracer, installed_tracer
from repro.obs.events import EventBuffer, EventLog, installed_event_log
from repro.runtime.campaign import verdict_of

#: Per outcome: a wind_sensor site, then a fabric app, topology, site and
#: burst with that verdict.  None is a site past the end; timeouts run
#: under a 50-step budget.
CASES = {
    "masked": (0, "herman_bit", None, 7, 1),
    "recovered": (6, "herman_bit", None, 5, 1),
    "diverged": (570, "gradient_field", "grid:6x6", 107, 3),
    "not-injected": (None, "herman_bit", None, None, 1),
    "timeout": (6, "herman_bit", None, 5, 1),
}


def observe(experiment, site, burst=1):
    """The trial, its ``trial.*`` events and its root spans."""
    if site is None:
        site = experiment.total_steps() + 5
    # room for every activation's runtime.iteration event
    buffer, ring = EventBuffer(capacity=10_000), RingBufferSink()
    with installed_event_log(EventLog(level="debug", sinks=(buffer,))), \
            installed_tracer(Tracer(sinks=[ring])):
        trial = experiment.trial_at(site, seed=0, burst=burst)
    events = [r for r in buffer.records if r["name"].startswith("trial.")]
    return trial, events, ring.roots


@pytest.mark.parametrize("verdict", sorted(CASES))
def test_fabric_trials_report_like_single_node_trials(verdict):
    single_site, app, topology, site, burst = CASES[verdict]
    budget = {"step_budget": 50} if verdict == "timeout" else {}
    single, single_events, (single_span,) = observe(
        resolve_experiment("wind_sensor", **budget), single_site
    )
    trial, events, spans = observe(
        dist_app_experiment(app, topology=topology, **budget), site, burst
    )
    assert verdict_of(single) == verdict_of(trial) == verdict
    assert [(e["name"], e["level"]) for e in events] == [
        (e["name"], e["level"]) for e in single_events
    ]
    assert all(
        (e["attrs"]["app"], e["attrs"]["node"]) == (app, trial.node)
        for e in events
    )
    (span,) = spans
    assert span.name == single_span.name == "trial"
    assert (span.attrs["app"], span.attrs["node"]) == (app, trial.node)
    assert span.counters.keys() == single_span.counters.keys() == (
        {"steps"} if verdict == "timeout" else {"steps", "ignored_errors"}
    )
