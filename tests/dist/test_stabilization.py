"""Acceptance: every distributed app stabilizes.

Two layers: *state-level* sweeps drive the fabric straight from
corrupted committed states (exhaustive where the state space allows —
all 2^5 Herman configurations, every single-node corruption of the
converged Dijkstra/gradient/channel states), and *campaign-level*
sweeps run the ordinary fault-injection driver over composite sites and
assert no diverged or timeout verdicts."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.apps import DIST_APP_NAMES
from repro.dist import dist_app_experiment
from repro.runtime.campaign import CampaignConfig, CampaignRunner, verdict_of


def _legit(experiment, states, reference_states) -> bool:
    spec = experiment.spec
    return spec.legitimate(
        list(states),
        list(reference_states),
        experiment.topology,
        spec.params(experiment.topology),
    )


class TestHermanExhaustive:
    @pytest.mark.parametrize("app", ["herman_bit", "herman_pass"])
    def test_every_initial_configuration_converges_to_one_token(self, app):
        """Truly exhaustive at N=5: all 2^5 bit vectors.  Legitimacy
        (exactly one token on the odd ring) must be reached and must be
        absorbing."""
        experiment = dist_app_experiment(app)
        window = experiment.horizon()
        for bits in itertools.product((0, 1), repeat=experiment.nodes):
            initial = [(b,) for b in bits]
            sim = experiment.simulate(window, initial=initial)
            legit = [_legit(experiment, s, s) for s in sim.trajectory]
            assert legit[-1], f"{app} failed to converge from {bits}"
            first = legit.index(True)
            assert all(legit[first:]), (
                f"{app}: legitimacy not absorbing from {bits}"
            )


class TestInvisibleHermanFaults:
    """Burst-1 sites whose fault never changes a node state, whatever
    the seed.  The reference ring starts from all-zero bits, five
    tokens, so its first round is illegitimate; a round counts against
    a trial only when its states also differ from the reference's."""

    SITES = {
        "herman_bit": (0, 3, 110, 219, 222, 329, 332, 439, 442),
        "herman_pass": (1, 4, 114, 116, 231, 234, 343, 346, 456, 459),
    }

    @pytest.mark.parametrize("app", sorted(SITES))
    def test_a_fault_that_changes_no_state_is_masked(self, app):
        experiment = dist_app_experiment(app)
        for site in self.SITES[app]:
            for seed in (0, 7):
                trial = experiment.trial_at(site, seed=seed)
                assert trial.injection_iteration is not None
                assert not any(trial.divergence)
                assert verdict_of(trial) == "masked", (app, site, seed)
                assert trial.corrupted_output is False
                assert trial.recovery_samples is None
                assert trial.recovery_iterations is None
                assert trial.convergence is None


class TestDijkstraRing:
    def test_every_single_node_corruption_regains_single_privilege(self):
        experiment = dist_app_experiment("dijkstra_ring")
        k = experiment.spec.params(experiment.topology)["k"]
        base = experiment.reference().trajectory[-1]
        assert _legit(experiment, base, base)
        for node in range(experiment.nodes):
            for value in range(k):
                if (value,) == base[node]:
                    continue
                initial = list(base)
                initial[node] = (value,)
                sim = experiment.simulate(
                    experiment.recovery_window,
                    initial=initial,
                    start_round=experiment.rounds,
                )
                legit = [_legit(experiment, s, s) for s in sim.trajectory]
                assert legit[-1], (
                    f"node {node} corrupted to {value} never re-stabilized"
                )
                first = legit.index(True)
                assert all(legit[first:])

    def test_arbitrary_states_regain_single_privilege(self):
        experiment = dist_app_experiment("dijkstra_ring")
        rng = random.Random(0)
        for _ in range(20):
            initial = [
                (rng.randrange(0, 9999),) for _ in range(experiment.nodes)
            ]
            sim = experiment.simulate(
                experiment.recovery_window, initial=initial
            )
            assert _legit(experiment, sim.trajectory[-1], sim.trajectory[-1])


class TestGradientBound:
    def test_single_fault_heals_within_diameter_plus_one_rounds(self):
        """The documented convergence bound: a converged hop-count field
        with one corrupted node returns to the exact fixed point within
        diameter + 1 synchronous rounds, for every node and a corrupt
        alphabet spanning false-low, false-high, and clamp extremes."""
        experiment = dist_app_experiment("gradient_field")
        topo = experiment.topology
        fixed = experiment.reference().trajectory[-1]
        bound = topo.diameter + 1
        for node in range(topo.nodes):
            for value in (0, 1, 3, 9998):
                if (value,) == fixed[node]:
                    continue
                initial = list(fixed)
                initial[node] = (value,)
                sim = experiment.simulate(
                    bound + 3,
                    initial=initial,
                    start_round=experiment.rounds,
                )
                healed = [
                    i for i, states in enumerate(sim.trajectory)
                    if tuple(states) == tuple(fixed)
                ]
                assert healed, f"node {node} <- {value} never healed"
                rounds_to_heal = healed[0] + 1
                assert rounds_to_heal <= bound, (
                    f"node {node} <- {value}: {rounds_to_heal} rounds "
                    f"> diameter+1 = {bound}"
                )
                assert all(
                    tuple(s) == tuple(fixed)
                    for s in sim.trajectory[healed[0]:]
                ), "healing must be permanent"


class TestChannelCompositionality:
    def test_every_single_node_corruption_recovers(self):
        """The composed three-gradient channel re-stabilizes from a
        corruption of any node's full composite state."""
        experiment = dist_app_experiment("gradient_channel")
        fixed = experiment.reference().trajectory[-1]
        for node in range(experiment.nodes):
            for value in ((0, 0, 0), (9998, 9998, 9998), (1, 2, 0), (7, 0, 5)):
                if value == fixed[node]:
                    continue
                initial = list(fixed)
                initial[node] = value
                sim = experiment.simulate(
                    experiment.recovery_window,
                    initial=initial,
                    start_round=experiment.rounds,
                )
                assert tuple(sim.trajectory[-1]) == tuple(fixed), (
                    f"channel stuck after corrupting node {node} to {value}"
                )


class TestCampaignSweeps:
    @pytest.mark.parametrize("app", DIST_APP_NAMES)
    def test_thinned_exhaustive_sweep_has_no_diverged_verdicts(
        self, app, tmp_path
    ):
        """The campaign driver itself, over composite (node x site)
        corruption sites evenly thinned across the space: every node is
        hit, nothing diverges, nothing times out."""
        config = CampaignConfig(
            apps=(app,),
            mode="exhaustive",
            max_sites=20,
            seed=3,
            shard_size=10,
            step_budget_factor=64,
        )
        runner = CampaignRunner(
            config=config, checkpoint_path=tmp_path / "ck.json"
        )
        report = runner.run()
        assert report["complete"] is True
        (entry,) = report["apps"]
        assert entry["diverged"] == 0
        assert entry["timeout"] == 0
        assert entry["injected"] > 0
        import json

        manifest = json.loads((tmp_path / "ck.json").read_text())
        nodes_hit = {
            trial.get("node")
            for shard in manifest["shards"].values()
            for trial in shard.get("trials", [])
        }
        experiment = dist_app_experiment(app)
        assert nodes_hit == set(range(experiment.nodes))
