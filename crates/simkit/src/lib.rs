//! # hypersafe-simkit
//!
//! Message-passing simulation substrate: a lock-step synchronous round
//! engine (the execution model of the paper's `GLOBAL_STATUS`
//! algorithm) and a deterministic discrete-event engine (for the
//! asynchronous and maintenance-mode variants), plus statistics and
//! tracing.
//!
//! Both engines are generic over per-node state machines and the
//! [`network::Network`] topology they run over — binary cubes with
//! node and link faults ([`network::HypercubeNet`]) and generalized
//! hypercubes with node faults ([`network::GhNet`]) share one lock-step
//! engine ([`network::SyncEngine`]), one event engine, one actor trait,
//! and one reliability layer. The network is the engines' only source
//! of fault knowledge, and they enforce the paper's system model:
//! fault-stop nodes (faulty nodes neither run nor send), neighbor-only
//! communication, and silent loss across faulty links.
//!
//! The event engine and the routing service ([`service`]) share one
//! crate-private event queue: a timing wheel of per-tick buckets over a
//! sorted run of far-off events, popping in exact `(time, key, seq)`
//! order, where the key is the [`sim::Scheduler`]'s same-tick tiebreak.
//!
//! Beyond the paper's reliable-link assumption, [`channel`] models
//! noisy links (seeded deterministic loss / jitter / duplication) and
//! [`reliable`] recovers exactly-once in-order delivery on top of them
//! (sequence numbers, cumulative ACKs, exponential-backoff
//! retransmission) — the substrate for the loss-robustness experiments.
//!
//! [`obs`] layers structured observability over the event engine: a
//! per-node / per-dimension metrics registry with fixed-memory
//! quantile histograms, a bounded flight-recorder trace sink, and
//! JSON/CSV snapshot export — all zero-allocation no-ops unless a
//! registry is installed.
//!
//! [`service`] turns the routing stack into a long-lived resilient
//! service: immutable epoch snapshots behind an `RwLock<Arc<_>>` with
//! an atomic epoch counter ([`service::EpochHandle`]), an
//! explicit request lifecycle with deadlines / bounded retries /
//! cancellation / admission control, and a graceful-degradation
//! ladder — all deterministic under the DST scheduler.
//!
//! [`sim`] adds deterministic simulation testing on top: a pluggable
//! [`sim::Scheduler`] (seeded adversarial reordering, latency
//! stretching, loss/duplication bursts), an [`sim::Invariant`] hook
//! checked at every quiescent point, and a delta-debugging shrinker
//! that reduces failing injection lists to minimal reproducers.

#![warn(missing_docs)]

pub mod channel;
pub mod event;
pub mod mc;
pub mod network;
pub mod obs;
mod queue;
pub mod reliable;
pub mod service;
pub mod sim;
pub mod stats;
pub mod trace;

pub use channel::{ChannelModel, LinkFate};
pub use event::{Actor, Ctx, EventEngine, RunOptions, RunReport, Time, TimerTag};
pub use mc::{
    engine_projection, explore, parse_artifact_path, projection_hash, render_artifact, replay,
    McCheck, McConfig, McHasher, McReplay, McReport, McSnapshot, McViolation, StateHash,
};
pub use network::{GhNet, HypercubeNet, Network, SyncEngine, SyncNode};
pub use obs::{
    parse_json, validate_json, DimStat, FlightRecorder, JsonValue, Metrics, MetricsSnapshot,
    NodeStat, QuantileHist, Quantiles, SnapshotTotals,
};
pub use reliable::{
    RelCtx, Reliable, ReliableActor, ReliableConfig, ReliableEndpoint, ReliableMsg,
};
pub use service::{
    AttemptOutcome, AttemptVerdict, DegradeReason, DeliveryRung, Epoch, EpochHandle, Injection,
    RedundantOutcome, RejectReason, ReqId, ReqState, RouteProvider, RoutingService, ServiceConfig,
    ServiceStats, Terminal,
};
pub use sim::{
    shrink_injections, AdversarialScheduler, FifoScheduler, Invariant, InvariantViolation,
    Scheduler,
};
pub use stats::{EventStats, SyncStats};
pub use trace::{Severity, Trace, TraceEvent, TraceKind, TraceSink};
