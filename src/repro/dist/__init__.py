"""repro.dist — distributed self-stabilization on a simulated fabric.

N pure-sjava program instances (one per node) execute on the unchanged
single-node backends; a message-passing fabric with pluggable topologies
(ring, line, grid) and schedulers (synchronous, round-robin, random,
adversarially biased) delivers each node's view of its neighborhood
through the ordinary DeviceBus.  Composite corruption sites (node x
local site) make the whole fabric sweepable by the existing campaign
machinery.  See docs/DISTRIBUTED.md.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "harness": (
        "DistAppSpec", "DistExperiment", "NodeView", "SimResult", "coin_bit",
    ),
    "registry": ("DIST_APP_NAMES", "dist_app_experiment", "dist_app_spec"),
    "scheduler": ("SCHEDULER_NAMES", "Scheduler", "make_scheduler"),
    "topology": (
        "TOPOLOGY_KINDS", "Topology", "TopologyError", "make_topology",
    ),
})
