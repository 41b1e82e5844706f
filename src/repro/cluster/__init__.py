"""Multi-host consolidation and cluster management (experiment E8).

Models a fleet of physical hosts running many VMs:

* :mod:`repro.cluster.host` -- host/VM specifications, the capacity
  ledger that live hosts and the coordinator's barrier copies share,
  and placements;
* :mod:`repro.cluster.placement` -- first-fit / best-fit / worst-fit
  vector bin packing (memory is a hard constraint, CPU oversubscribes)
  and a consolidation planner (first-fit decreasing);
* :mod:`repro.cluster.interference` -- per-host performance under CPU
  oversubscription: proportional-share throughput and queueing-style
  latency inflation, the source of the E8 knee at the consolidation
  ratio where demand crosses capacity;
* :mod:`repro.cluster.power` -- host power/energy/cost model and the
  consolidation-savings report;
* :mod:`repro.cluster.balancer` -- threshold-driven load balancing via
  live migrations costed by :mod:`repro.migration.model` over a shared
  management link;
* :mod:`repro.cluster.resilience` -- the failure-domain-aware control
  plane (experiment E10): anti-affinity/N+1-constrained placement and
  the detect→evacuate→re-place→verify loop that survives cascading
  host crashes under continuous fault injection;
* :mod:`repro.cluster.coordinator` -- the scale-out path: hosts
  partitioned into shards with private clocks/RNGs/registries that
  advance concurrently between epoch barriers, where a coordinator
  runs the global decisions and per-shard manifests merge
  byte-reproducibly (experiment E8s).
"""

from repro.cluster.host import HostSpec, VMSpec, Host, HostSummary, Placement
from repro.cluster.coordinator import (
    ClusterSimConfig,
    ClusterSimReport,
    ShardState,
    run_sharded_cluster,
)
from repro.cluster.placement import (
    AdmissionError,
    ConstraintSet,
    EvacuationConfig,
    PlacementPolicy,
    RELAX_ORDER,
    FailoverReport,
    failover,
    first_fit,
    best_fit,
    worst_fit,
    place,
    plan_consolidation,
    reservation_satisfied,
)
from repro.cluster.resilience import ResilienceController, ResilienceReport
from repro.cluster.interference import host_performance, HostPerformance
from repro.cluster.power import PowerModel, ConsolidationSavings, consolidation_savings
from repro.cluster.balancer import (
    LoadBalancer,
    BalanceReport,
    RebalanceMove,
    plan_rebalance,
)
from repro.cluster.workgen import (
    DEFAULT_CATALOGUE,
    VMClass,
    fleet_summary,
    generate_fleet,
)

__all__ = [
    "HostSpec",
    "VMSpec",
    "Host",
    "HostSummary",
    "Placement",
    "ClusterSimConfig",
    "ClusterSimReport",
    "ShardState",
    "run_sharded_cluster",
    "AdmissionError",
    "ConstraintSet",
    "EvacuationConfig",
    "PlacementPolicy",
    "RELAX_ORDER",
    "FailoverReport",
    "ResilienceController",
    "ResilienceReport",
    "reservation_satisfied",
    "failover",
    "first_fit",
    "best_fit",
    "worst_fit",
    "place",
    "plan_consolidation",
    "host_performance",
    "HostPerformance",
    "PowerModel",
    "ConsolidationSavings",
    "consolidation_savings",
    "LoadBalancer",
    "BalanceReport",
    "RebalanceMove",
    "plan_rebalance",
    "VMClass",
    "DEFAULT_CATALOGUE",
    "generate_fleet",
    "fleet_summary",
]
