"""repro.chaos — deterministic infrastructure fault injection.

The execution substrate's analogue of
:class:`~repro.runtime.injection.ErrorInjector`: a seeded injector
whose fault plan is a pure function of ``(seed, fault, site, key)``,
threaded through the pool, the campaign manifest path, the daemon
client/server, and the disk cache behind a zero-cost
:class:`NullChaosInjector` default.  ``repro chaos`` runs a campaign or
batch under injection and asserts the **convergence oracle**: chaotic
statistics must be identical to fault-free ones.  See
``docs/ROBUSTNESS.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "injector": (
        "FAULTS", "WORKER_FAULTS", "ChaosConfig", "ChaosError",
        "ChaosInjector", "NullChaosInjector", "chaos_recovery", "get_chaos",
        "installed_chaos", "parse_faults", "set_chaos",
    ),
    "oracle": (
        "CHAOS_SCHEMA", "replay_worker_faults", "run_batch_oracle",
        "run_campaign_oracle",
    ),
})
