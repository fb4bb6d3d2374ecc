//! # hypersafe-core
//!
//! The paper's primary contribution: **safety levels** and **reliable
//! unicasting** in faulty hypercubes (Wu, ICPP'95 / IEEE TC Feb'97).
//!
//! * [`safety`] — Definition 1 and the unique fixed point (Theorem 1).
//! * [`gs`] — the distributed `GLOBAL_STATUS` protocol, synchronous (one
//!   lock-step node for `Q_n`, generalized hypercubes and EGS) and
//!   asynchronous, executed message-by-message on `hypersafe-simkit`.
//! * [`navigation`] + [`unicast`] — the optimal/suboptimal unicasting
//!   algorithm with the `C1`/`C2`/`C3` source feasibility check.
//! * [`unicast_distributed`] — the same algorithm as per-node actors
//!   exchanging real messages: one actor for `Q_n` and generalized
//!   hypercubes; [`run_unicast_lossy`] and [`run_gs_reliable`] run the
//!   protocols over lossy channels via `hypersafe-simkit`'s reliable
//!   delivery layer.
//! * Event-driven runners: [`run_gs_async`], [`run_gs_reliable`],
//!   [`run_unicast`], [`run_gh_unicast`], [`run_unicast_lossy`],
//!   [`run_broadcast`] and [`run_delta_gs`], one per protocol. Each
//!   takes the protocol's own parameters plus a
//!   [`hypersafe_simkit::RunOptions`] (scheduler, channel, event
//!   budget, kill plan, and whether to observe, trace or check) and
//!   returns its result with the engine's
//!   [`hypersafe_simkit::RunReport`].
//! * [`egs`] — the §4.1 extension to faulty links (`N1`/`N2` views).
//! * [`gh_safety`] + [`gh_unicast`] — the §4.2 extension to
//!   generalized hypercubes.
//! * [`properties`] — the spec: Theorems 1–4 and Properties 1–2, each
//!   written once as a predicate. The runners' checked mode (engine
//!   invariants), the DST post-run checkers and the model checker
//!   ([`mc`]) are thin adapters over it.
//! * [`maintenance`] — the §2.2 demand-driven / periodic /
//!   state-change-driven update strategies.
//!
//! ## Quickstart
//!
//! ```
//! use hypersafe_topology::{Hypercube, FaultSet, FaultConfig, NodeId};
//! use hypersafe_core::{SafetyMap, route, Decision};
//!
//! // The paper's Fig. 1: a 4-cube with four faulty nodes.
//! let cube = Hypercube::new(4);
//! let faults = FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]);
//! let cfg = FaultConfig::with_node_faults(cube, faults);
//!
//! // Safety levels (Definition 1 / Theorem 1 fixed point).
//! let map = SafetyMap::compute(&cfg);
//! assert_eq!(map.level(NodeId::from_binary("1110").unwrap()), 4);
//!
//! // Route the paper's first worked unicast: 1110 → 0001, H = 4.
//! let res = route(&cfg, &map,
//!     NodeId::from_binary("1110").unwrap(),
//!     NodeId::from_binary("0001").unwrap());
//! assert!(matches!(res.decision, Decision::Optimal { .. }));
//! assert!(res.delivered);
//! assert!(res.path.unwrap().is_optimal());
//! ```
#![warn(missing_docs)]

pub mod broadcast;
pub mod broadcast_distributed;
pub mod diagnosis;
pub mod egs;
pub mod exact;
pub mod gh_safety;
pub mod gh_unicast;
pub mod gs;
pub mod level_store;
pub mod maintenance;
pub mod mc;
pub mod multicast;
pub mod multipath;
pub mod navigation;
pub mod properties;
pub mod reroute;
pub mod route_batch;
pub mod safety;
pub mod safety_delta;
pub mod safety_vector;
pub mod service;
pub mod unicast;
pub mod unicast_distributed;

pub use broadcast::{broadcast, gh_broadcast, BroadcastResult};
pub use broadcast_distributed::{run_broadcast, BcastMsg, BcastNode};
pub use diagnosis::{detect, DetectionResult, DetectorParams, Heartbeat};
pub use egs::{route_egs, route_egs_traced, run_egs, ExtendedSafetyMap};
pub use exact::{tightness, ExactReach, TightnessSummary};
pub use gh_safety::{run_gh_gs, run_gh_gs_checked, GhSafetyMap};
pub use gh_unicast::{gh_route, gh_source_decision, GhRouteResult};
pub use gs::{
    run_gs, run_gs_async, run_gs_reliable, GsAsyncRun, GsLevelsDescend, GsLossyRun, GsRun,
};
pub use level_store::{LevelStore, NeighborLevels, PlaneView};
pub use maintenance::{replay, MaintenanceReport, Strategy, Timeline, TimelineEvent};
pub use mc::{gs_engine_projections, mc_delta_gs, mc_gs, mc_unicast_arq};
pub use multicast::{multicast, MulticastResult};
pub use multipath::{
    check_disjoint_delivery, outcome_of, route_disjoint, route_disjoint_many,
    route_disjoint_ranked, DisjointPath, MultiOutcome, MultipathResult, PathKind,
};
pub use navigation::NavVector;
pub use properties::{
    check_exactly_once, check_gh_theorem4_soundness, check_gs_convergence, check_level_corridor,
    check_levels_converged, check_lossy_outcome, check_never_fails_under_n_faults, check_property1,
    check_property2, check_theorem2, check_theorem2_at, check_theorem3, check_theorem4_soundness,
    check_unicast_optimality, Violation,
};
pub use reroute::{route_dynamic, DynamicOutcome, DynamicRun, FaultEvent};
pub use route_batch::{route_light, route_many, route_many_seq, route_many_tb, BatchOutcome};
pub use safety::{level_from_sorted, level_from_unsorted, Level, SafetyMap};
pub use safety_delta::{
    run_delta_gs, ChurnEvent, DeltaGsDirected, DeltaGsNode, DeltaGsRun, DeltaStats,
};
pub use safety_vector::{vector_dominates_level, SafetyVectorMap};
pub use service::{SafetyService, SafetyState};
pub use unicast::{
    intermediate_dim, intermediate_dim_tb, route, route_tb, route_traced, route_traced_tb,
    source_decision, source_decision_tb, Condition, Decision, RouteResult, TieBreak,
};
pub use unicast_distributed::{
    run_gh_unicast, run_unicast, run_unicast_lossy, ArqSingleDelivery, DistributedRun,
    LossyOutcome, LossyRun, UnicastMsg, UnicastNode,
};
