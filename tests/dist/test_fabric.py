"""The fabric itself: schedulers, coins, determinism, composite sites."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.dist import (
    SCHEDULER_NAMES,
    coin_bit,
    dist_app_experiment,
    make_scheduler,
)
from repro.dist.scheduler import SchedulerError
from repro.runtime import Interpreter


class TestSchedulers:
    def test_unknown_rejected(self):
        with pytest.raises(SchedulerError):
            make_scheduler("chaotic")

    def test_only_synchronous_double_buffers(self):
        for name in SCHEDULER_NAMES:
            assert make_scheduler(name).synchronous == (name == "synchronous")

    def test_sweeps_are_in_node_order(self):
        for name in ("synchronous", "round-robin"):
            assert make_scheduler(name).order(3, 5) == [0, 1, 2, 3, 4]

    def test_random_is_a_permutation_depending_only_on_round_and_seed(self):
        sched = make_scheduler("random", seed=9)
        again = make_scheduler("random", seed=9)
        orders = [sched.order(r, 6) for r in range(20)]
        assert [again.order(r, 6) for r in range(20)] == orders
        for order in orders:
            assert sorted(order) == list(range(6))
        assert len({tuple(o) for o in orders}) > 1  # actually shuffles
        assert make_scheduler("random", seed=10).order(0, 6) != orders[0] or \
            make_scheduler("random", seed=10).order(1, 6) != orders[1]

    def test_biased_daemon_starves_high_ids(self):
        sched = make_scheduler("biased", seed=0)
        draws = [n for r in range(200) for n in sched.order(r, 5)]
        assert all(0 <= n < 5 for n in draws)
        assert draws.count(0) > 3 * draws.count(4)


class TestCoin:
    def test_deterministic(self):
        assert coin_bit(0, 7, 3) == coin_bit(0, 7, 3)

    def test_bits_are_balanced_and_uncorrelated_across_rounds(self):
        """The regression that motivates SHA-256 here: a CRC32 LSB over
        near-identical keys is linearly correlated, which makes Herman
        tokens march in lockstep and never annihilate."""
        bits = [coin_bit(0, r, n) for r in range(100) for n in range(5)]
        ones = sum(bits)
        assert 180 < ones < 320
        # per-round coin vectors must not collapse to a couple of
        # patterns (the CRC32 failure mode produced exactly two)
        patterns = {
            tuple(coin_bit(0, r, n) for n in range(5)) for r in range(100)
        }
        assert len(patterns) > 10


class TestSimulationDeterminism:
    def test_same_experiment_same_trajectory(self):
        a = dist_app_experiment("gradient_field")
        b = dist_app_experiment("gradient_field")
        ra, rb = a.reference(), b.reference()
        assert ra.trajectory == rb.trajectory
        assert ra.steps == rb.steps
        assert [ra.node_digest(i) for i in range(a.nodes)] == \
            [rb.node_digest(i) for i in range(b.nodes)]

    def test_trajectory_has_one_committed_state_per_round(self):
        experiment = dist_app_experiment("herman_bit")
        reference = experiment.reference()
        assert len(reference.trajectory) == experiment.horizon()
        assert all(
            len(states) == experiment.nodes
            for states in reference.trajectory
        )

    def test_node_trace_matches_trajectory_column(self):
        experiment = dist_app_experiment("dijkstra_ring")
        reference = experiment.reference()
        trace = reference.node_trace(2)
        assert trace == [states[2] for states in reference.trajectory]


class TestCompositeSites:
    def test_total_is_the_sum_of_per_node_counts(self):
        experiment = dist_app_experiment("herman_bit")
        counts = experiment.node_site_counts()
        assert len(counts) == experiment.nodes
        assert all(c > 0 for c in counts)
        assert experiment.total_steps() == sum(counts)

    def test_site_location_round_trips(self):
        experiment = dist_app_experiment("gradient_channel")
        total = experiment.total_steps()
        for site in (0, 1, total // 3, total // 2, total - 1):
            node, local = experiment.site_location(site)
            assert 0 <= node < experiment.nodes
            assert experiment.site_of(node, local) == site

    def test_out_of_range_site_reports_not_injected(self):
        experiment = dist_app_experiment("herman_bit")
        trial = experiment.trial_at(experiment.total_steps() + 10, seed=0)
        assert trial.injection_iteration is None
        assert trial.corrupted_output is False
        assert trial.diverged is False

    def test_trials_record_the_target_node(self):
        experiment = dist_app_experiment("herman_bit")
        site = experiment.total_steps() - 1
        node, _ = experiment.site_location(site)
        trial = experiment.trial_at(site, seed=3)
        assert trial.node == node
        assert trial.node_divergence is not None
        assert len(trial.node_divergence[0]) == experiment.nodes
        assert trial.node_digests is not None
        assert len(trial.node_digests) == experiment.nodes

    def test_an_oracle_made_after_a_trial_runs_its_own_reference(self):
        experiment = dist_app_experiment("herman_bit", step_budget_factor=64)
        experiment.trial_at(5, seed=0)
        oracle = replace(experiment, engine=Interpreter)
        assert oracle.reference() is not experiment.reference()
        assert oracle.reference() == experiment.reference()
        assert oracle.node_site_counts() is not experiment.node_site_counts()
        assert oracle.node_site_counts() == experiment.node_site_counts()
