//! Resilient routing service: epoch snapshots, a request lifecycle
//! state machine, and a graceful-degradation ladder under fault churn.
//!
//! The paper's router assumes a quiescent fault set; a long-lived
//! service must keep answering route queries *while* faults churn.
//! This module supplies the topology-agnostic machinery:
//!
//! * [`EpochHandle`] — a publication cell for immutable [`Epoch`]
//!   snapshots: an `RwLock<Arc<Epoch>>` held only for a pointer clone
//!   or swap, plus an atomic epoch counter that tells a reader holding
//!   a snapshot whether it is still current. Readers never observe a
//!   torn value; a single writer clones the current snapshot, applies a
//!   delta, and publishes the next epoch atomically.
//! * [`RoutingService`] — a deterministic discrete-event loop driving
//!   the explicit request state machine `Pending → Routing →
//!   {Delivered, Degraded, Rejected, TimedOut}` with per-request
//!   deadlines, bounded retries with exponential backoff + seeded
//!   jitter, cancellation, and admission control (a bounded in-flight
//!   window with a load-shed counter). Same-tick event order is
//!   delegated to the DST [`Scheduler`], so whole service runs are
//!   seed-replayable and shrinkable exactly like engine runs.
//! * [`RouteProvider`] — the seam between the generic lifecycle and
//!   the concrete safety-level routing stack (implemented in
//!   `hypersafe-core`, which layers `safety_delta::apply_fault` /
//!   `apply_recover` and the reroute machinery behind it).
//!
//! ## The degradation ladder
//!
//! One route attempt resolves to a rung, best first:
//!
//! 1. **Optimal** — the snapshot admits an optimal path and the walk
//!    survives the live fault set.
//! 2. **Suboptimal** — the snapshot only admits a suboptimal path
//!    (delivered, length ≤ `H + 2`).
//! 3. **Detour** — the snapshot refuses, but a dynamic reroute against
//!    the live fault set still delivers.
//! 4. **Retry** — the walk hit a node that died after the snapshot was
//!    taken (`Stale`): back off and re-route against a fresher epoch,
//!    up to [`ServiceConfig::retry_limit`] attempts.
//! 5. **Typed rejection** — `Unreachable` after the retry budget,
//!    `SourceFaulty` / `DestinationFaulty` immediately, `Overloaded`
//!    at admission, `Cancelled` on request.
//!
//! Requests that exhaust their deadline terminate `TimedOut` exactly
//! one tick after the deadline (the deadline event itself), never
//! later — the lifecycle proptests pin this.

use crate::channel::{mix, uniform_inclusive};
use crate::event::Time;
use crate::obs::QuantileHist;
use crate::queue::EventQueue;
use crate::sim::Scheduler;
use hypersafe_topology::NodeId;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

// ---------------------------------------------------------------------------
// Epoch snapshots
// ---------------------------------------------------------------------------

/// An immutable published generation: the epoch number and the value.
#[derive(Debug)]
pub struct Epoch<T> {
    /// Monotone generation counter, starting at 0 for the initial value.
    pub epoch: u64,
    /// The snapshot payload (e.g. a `(FaultConfig, SafetyMap)` pair).
    pub data: T,
}

/// A publication cell for immutable [`Epoch`] snapshots: readers
/// [`EpochHandle::load`] the latest `Arc<Epoch<T>>`; one writer at a
/// time [`EpochHandle::publish`]es the next generation.
///
/// The latest snapshot sits behind a `RwLock`, held only to clone or
/// swap the `Arc`, so a reader waits at most for a pointer swap and can
/// never observe a torn value: every observation is an `Arc` of an
/// immutable allocation. Next to it, [`EpochHandle::epoch`] is one
/// atomic load of the latest epoch number, so a reader that keeps the
/// `Arc` it loaded last can tell whether it is still current without
/// touching the lock or the reference count.
///
/// No `unsafe`, no dependencies beyond `std::sync`.
pub struct EpochHandle<T> {
    current: RwLock<Arc<Epoch<T>>>,
    /// Epoch number of `current`, stored after each swap.
    published: AtomicU64,
    /// Serializes writers, so [`EpochHandle::update`] derives each
    /// generation from the one it replaces.
    writer: Mutex<()>,
}

impl<T> EpochHandle<T> {
    /// A handle whose epoch 0 is `initial`.
    pub fn new(initial: T) -> Self {
        EpochHandle {
            current: RwLock::new(Arc::new(Epoch {
                epoch: 0,
                data: initial,
            })),
            published: AtomicU64::new(0),
            writer: Mutex::new(()),
        }
    }

    /// The latest published snapshot.
    pub fn load(&self) -> Arc<Epoch<T>> {
        Arc::clone(&self.current.read().expect("epoch lock"))
    }

    /// Epoch number of the latest published snapshot: one atomic load.
    /// A snapshot [`load`](Self::load)ed after it returns `e` has an
    /// epoch of at least `e`.
    pub fn epoch(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    /// Publishes `data` as the next generation and returns its epoch
    /// number. Concurrent writers serialize; readers keep loading the
    /// previous generation until the swap.
    pub fn publish(&self, data: T) -> u64 {
        let _writer = self.writer.lock().expect("writer lock");
        self.install(data)
    }

    /// Clone-apply-publish in one step: reads the current snapshot,
    /// derives the next value, publishes it. The read and publish are
    /// atomic with respect to other writers, and readers are not held
    /// up while `f` runs.
    pub fn update(&self, f: impl FnOnce(&Epoch<T>) -> T) -> u64 {
        let _writer = self.writer.lock().expect("writer lock");
        let data = f(&self.load());
        self.install(data)
    }

    /// Swaps in the next generation; the caller holds the writer lock.
    fn install(&self, data: T) -> u64 {
        let mut current = self.current.write().expect("epoch lock");
        let e = current.epoch + 1;
        *current = Arc::new(Epoch { epoch: e, data });
        self.published.store(e, Ordering::Release);
        e
    }
}

// ---------------------------------------------------------------------------
// Request lifecycle types
// ---------------------------------------------------------------------------

/// Request identifier: position in the injection load order.
pub type ReqId = u64;

/// Which ladder rung a successful attempt landed on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryRung {
    /// Snapshot admitted an optimal (Hamming-length) path.
    Optimal,
    /// Snapshot admitted only a suboptimal path.
    Suboptimal,
    /// Snapshot refused; a dynamic reroute against the live fault set
    /// delivered anyway.
    Detour,
}

/// Why a delivered request is reported `Degraded` instead of
/// `Delivered`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DegradeReason {
    /// Delivered on the suboptimal rung (path ≤ `H + 2`).
    Suboptimal,
    /// Delivered by detouring via the live-state reroute machinery.
    Detour,
    /// Delivered only after one or more stale-snapshot retries.
    StaleRetry {
        /// Retries spent before the successful attempt.
        attempts: u32,
    },
}

/// Why a request was rejected. Every reason is typed so callers can
/// distinguish load shedding from topology and from cancellation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Admission control: the in-flight window was full at submit time.
    Overloaded,
    /// The caller cancelled before a terminal state was reached.
    Cancelled,
    /// The source node is faulty in the live fault set.
    SourceFaulty,
    /// The destination node is faulty in the live fault set.
    DestinationFaulty,
    /// No feasible route after the full retry ladder.
    Unreachable {
        /// Attempts spent (initial + retries).
        attempts: u32,
    },
}

/// Terminal state of one request — exactly one is ever assigned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Terminal {
    /// Delivered on the optimal rung, first attempt.
    Delivered {
        /// Hops walked.
        hops: u32,
    },
    /// Delivered, but on a lower rung of the ladder.
    Degraded {
        /// Which rung / why.
        reason: DegradeReason,
        /// Hops walked by the successful attempt.
        hops: u32,
    },
    /// Not delivered, with a typed reason.
    Rejected {
        /// Why the service refused.
        reason: RejectReason,
    },
    /// The per-request deadline elapsed before any attempt succeeded.
    TimedOut,
}

/// Lifecycle state machine of one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqState {
    /// Submitted, not yet admitted.
    Pending,
    /// Admitted; attempt(s) in flight.
    Routing {
        /// Retries consumed so far.
        attempts: u32,
    },
    /// Finished; the terminal state is final and unique.
    Done(Terminal),
}

/// Verdict of one route attempt, produced by the [`RouteProvider`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttemptVerdict {
    /// Delivered on the given rung.
    Delivered {
        /// Rung the attempt landed on.
        rung: DeliveryRung,
        /// Hops walked.
        hops: u32,
    },
    /// The snapshot's plan crossed a node that is faulty in the live
    /// fault set — the snapshot is stale; retry against a fresher one.
    Stale,
    /// No feasible route even via detour against the live state.
    Unreachable,
    /// The source is faulty in the live fault set.
    SourceFaulty,
    /// The destination is faulty in the live fault set.
    DestinationFaulty,
}

/// One attempt: which epoch's snapshot planned it, and how it ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttemptOutcome {
    /// Epoch of the snapshot the plan was issued against.
    pub epoch: u64,
    /// How the attempt resolved.
    pub verdict: AttemptVerdict,
}

/// One *redundant* attempt: the message was fanned across up to `k`
/// node-disjoint paths, and `delivered_paths` of them survived the
/// live fault set. Produced by [`RouteProvider::attempt_redundant`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RedundantOutcome {
    /// Epoch of the snapshot the fan was planned against.
    pub epoch: u64,
    /// Disjoint paths that delivered (0 = the request failed).
    pub delivered_paths: u32,
    /// Hops of the shortest delivered copy (first-copy latency);
    /// 0 when nothing delivered.
    pub best_hops: u32,
    /// Hops summed over all delivered copies (message overhead).
    pub total_hops: u32,
}

/// The seam between the generic lifecycle engine and a concrete
/// routing stack. `hypersafe-core` implements this over
/// `SafetyMap` snapshots maintained by `safety_delta`.
pub trait RouteProvider {
    /// One route attempt `s → d` against the current snapshot,
    /// validated against the live fault set.
    fn attempt(&mut self, s: NodeId, d: NodeId) -> AttemptOutcome;

    /// One *redundant* attempt: plan up to `k` node-disjoint paths on
    /// the snapshot, validate each against the live fault set, and
    /// report how many copies got through. The default degrades
    /// gracefully to a single [`RouteProvider::attempt`] — providers
    /// with a real multi-path planner (e.g. `hypersafe-core`'s
    /// `route_disjoint`) override this.
    fn attempt_redundant(&mut self, s: NodeId, d: NodeId, k: u8) -> RedundantOutcome {
        let _ = k;
        let out = self.attempt(s, d);
        match out.verdict {
            AttemptVerdict::Delivered { hops, .. } => RedundantOutcome {
                epoch: out.epoch,
                delivered_paths: 1,
                best_hops: hops,
                total_hops: hops,
            },
            _ => RedundantOutcome {
                epoch: out.epoch,
                delivered_paths: 0,
                best_hops: 0,
                total_hops: 0,
            },
        }
    }

    /// Applies a churn event to the *live* fault set immediately and
    /// queues the corresponding epoch delta for publication. Returns
    /// `false` for no-ops (faulting a faulty node, recovering a
    /// healthy one) — the event is then dropped.
    fn apply_churn(&mut self, node: NodeId, fault: bool) -> bool;

    /// Publishes the oldest queued epoch delta (the writer side of the
    /// snapshot store). Returns the new epoch number, or `None` if
    /// nothing was pending.
    fn publish_next(&mut self) -> Option<u64>;

    /// Epoch number of the latest published snapshot.
    fn current_epoch(&self) -> u64;

    /// Consistency check run at quiescent points (after each epoch
    /// publication and at end of run). `Err` aborts nothing but is
    /// recorded as an invariant violation.
    fn check_invariants(&mut self) -> Result<(), String> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Service configuration and statistics
// ---------------------------------------------------------------------------

/// Tuning knobs for the request lifecycle.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Admission window: submits beyond this many in-flight requests
    /// are shed with [`RejectReason::Overloaded`].
    pub max_in_flight: usize,
    /// Retries after the first attempt before
    /// [`RejectReason::Unreachable`].
    pub retry_limit: u32,
    /// First backoff delay; doubles per retry. 0 retries in the same
    /// tick (`retry_limit` still bounds the retries).
    pub backoff_base: Time,
    /// Backoff saturation.
    pub backoff_cap: Time,
    /// Maximum extra seeded jitter added to each backoff delay.
    pub jitter_max: Time,
    /// Seed for the deterministic retry jitter.
    pub jitter_seed: u64,
    /// Delay between a churn event hitting the live fault set and the
    /// corresponding epoch publication (the safety-level
    /// restabilization window; staleness is real inside it).
    pub publish_lag: Time,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_in_flight: 64,
            retry_limit: 3,
            backoff_base: 2,
            backoff_cap: 16,
            jitter_max: 2,
            jitter_seed: 0x5EED_0F5E_51CE,
            publish_lag: 4,
        }
    }
}

/// Ladder-rung and lifecycle counters plus per-rung latency
/// histograms. All latencies are virtual ticks from submit to the
/// terminal transition.
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Delivered on the optimal rung, first attempt.
    pub delivered_optimal: u64,
    /// Delivered suboptimally, first attempt.
    pub degraded_suboptimal: u64,
    /// Delivered via live-state detour, first attempt.
    pub degraded_detour: u64,
    /// Delivered after ≥ 1 stale-snapshot retry.
    pub degraded_retry: u64,
    /// Shed at admission.
    pub rejected_overloaded: u64,
    /// Cancelled by the caller.
    pub rejected_cancelled: u64,
    /// Source faulty at attempt time.
    pub rejected_source_faulty: u64,
    /// Destination faulty at attempt time.
    pub rejected_destination_faulty: u64,
    /// Retry ladder exhausted.
    pub rejected_unreachable: u64,
    /// Deadline elapsed.
    pub timed_out: u64,
    /// Retry attempts scheduled (across all requests).
    pub retries: u64,
    /// Cancel events that arrived after a terminal state (no-ops).
    pub cancels_ignored: u64,
    /// Churn events applied to the live fault set.
    pub churn_applied: u64,
    /// Churn events dropped as no-ops.
    pub churn_skipped: u64,
    /// Epochs published by the writer.
    pub epochs_published: u64,
    /// Terminal transitions performed — must equal the number of
    /// requests at end of run (each request terminates exactly once).
    pub terminal_transitions: u64,
    /// High-water mark of the in-flight window.
    pub max_in_flight_seen: usize,
    /// Invariant violations recorded at quiescent points.
    pub invariant_violations: u64,
    /// Latency histogram per successful rung.
    pub lat_optimal: QuantileHist,
    /// Latency histogram, suboptimal rung.
    pub lat_suboptimal: QuantileHist,
    /// Latency histogram, detour rung.
    pub lat_detour: QuantileHist,
    /// Latency histogram, retry rung.
    pub lat_retry: QuantileHist,
    /// Latency histogram over rejected requests.
    pub lat_rejected: QuantileHist,
    /// Latency histogram over timed-out requests.
    pub lat_timed_out: QuantileHist,
}

impl ServiceStats {
    /// Total requests that reached a terminal state.
    pub fn terminals(&self) -> u64 {
        self.delivered_optimal
            + self.degraded_suboptimal
            + self.degraded_detour
            + self.degraded_retry
            + self.rejected_overloaded
            + self.rejected_cancelled
            + self.rejected_source_faulty
            + self.rejected_destination_faulty
            + self.rejected_unreachable
            + self.timed_out
    }

    /// Requests that were actually delivered (any rung).
    pub fn delivered(&self) -> u64 {
        self.delivered_optimal
            + self.degraded_suboptimal
            + self.degraded_detour
            + self.degraded_retry
    }

    /// Deterministic text rendering — the replay-equality artifact for
    /// the byte-identical soak tests.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let q = |h: &QuantileHist| {
            let q = h.quantiles();
            format!(
                "n={} p50={} p95={} p99={} max={}",
                h.total(),
                q.p50,
                q.p95,
                q.p99,
                q.max
            )
        };
        let _ = writeln!(
            s,
            "optimal {} [{}]",
            self.delivered_optimal,
            q(&self.lat_optimal)
        );
        let _ = writeln!(
            s,
            "suboptimal {} [{}]",
            self.degraded_suboptimal,
            q(&self.lat_suboptimal)
        );
        let _ = writeln!(
            s,
            "detour {} [{}]",
            self.degraded_detour,
            q(&self.lat_detour)
        );
        let _ = writeln!(s, "retry {} [{}]", self.degraded_retry, q(&self.lat_retry));
        let _ = writeln!(
            s,
            "rejected overloaded={} cancelled={} source={} dest={} unreachable={} [{}]",
            self.rejected_overloaded,
            self.rejected_cancelled,
            self.rejected_source_faulty,
            self.rejected_destination_faulty,
            self.rejected_unreachable,
            q(&self.lat_rejected),
        );
        let _ = writeln!(
            s,
            "timed_out {} [{}]",
            self.timed_out,
            q(&self.lat_timed_out)
        );
        let _ = writeln!(
            s,
            "retries={} cancels_ignored={} churn_applied={} churn_skipped={} epochs={} \
             terminals={} max_in_flight={} violations={}",
            self.retries,
            self.cancels_ignored,
            self.churn_applied,
            self.churn_skipped,
            self.epochs_published,
            self.terminal_transitions,
            self.max_in_flight_seen,
            self.invariant_violations,
        );
        s
    }
}

// ---------------------------------------------------------------------------
// The deterministic service event loop
// ---------------------------------------------------------------------------

/// One externally-injected event for a service run. Loaded up front via
/// [`RoutingService::load`]; request ids are assigned in list order so
/// a workload generator can reference its own submits in `Cancel`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Injection {
    /// Submit a route request at `at` with a relative deadline.
    Submit {
        /// Arrival time.
        at: Time,
        /// Source node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Ticks from submit to the deadline; an absolute deadline past
        /// `Time::MAX` saturates, and the request never times out.
        deadline: Time,
    },
    /// Fault (`fault = true`) or recover a node at `at`.
    Churn {
        /// Event time.
        at: Time,
        /// The node.
        node: NodeId,
        /// `true` = fault, `false` = recover.
        fault: bool,
    },
    /// Cancel request `req` (the id of the `req`-th `Submit` in the
    /// injection list) at `at`. Idempotent: cancelling a terminal
    /// request is a no-op.
    Cancel {
        /// Event time.
        at: Time,
        /// Target request id.
        req: ReqId,
    },
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    Submit(ReqId),
    Attempt(ReqId),
    Deadline(ReqId),
    Churn { node: NodeId, fault: bool },
    Publish,
    Cancel(ReqId),
}

#[derive(Clone, Debug)]
struct Request {
    src: NodeId,
    dst: NodeId,
    submit: Time,
    /// Absolute deadline; terminal no later than `deadline + 1`.
    deadline: Time,
    phase: Phase,
    /// Epoch of the last attempt's snapshot.
    epoch: u64,
}

// Requests are the service's largest table: keep one in a cache line.
const _: () = assert!(std::mem::size_of::<Request>() <= 64);

/// A request's [`ReqState`] plus what only that state needs.
#[derive(Clone, Copy, Debug)]
enum Phase {
    Pending,
    Routing {
        attempts: u32,
        /// Order key drawn at admission for the `Deadline` event, which
        /// is queued only once the first attempt leaves the request
        /// routing.
        deadline_key: u64,
    },
    Done {
        terminal: Terminal,
        /// Time of the terminal transition.
        at: Time,
    },
}

impl Phase {
    fn state(self) -> ReqState {
        match self {
            Phase::Pending => ReqState::Pending,
            Phase::Routing { attempts, .. } => ReqState::Routing { attempts },
            Phase::Done { terminal, .. } => ReqState::Done(terminal),
        }
    }
}

/// The resilient routing service: a deterministic discrete-event loop
/// over a [`RouteProvider`]. Construct, [`RoutingService::load`] an
/// injection list, then [`RoutingService::run`]; everything is a pure
/// function of `(provider, config, scheduler, injections)`.
pub struct RoutingService<P: RouteProvider> {
    provider: P,
    cfg: ServiceConfig,
    sched: Box<dyn Scheduler>,
    queue: EventQueue<Ev>,
    requests: Vec<Request>,
    now: Time,
    /// The latest `deadline + 1` of an admitted request: the end of the
    /// run, had every deadline been queued.
    latest_due: Time,
    seq: u64,
    in_flight: usize,
    stats: ServiceStats,
    /// First few invariant-violation details, for reports.
    violations: Vec<String>,
}

impl<P: RouteProvider> RoutingService<P> {
    /// A service over `provider` with FIFO same-tick ordering.
    pub fn new(provider: P, cfg: ServiceConfig) -> Self {
        Self::with_scheduler(provider, cfg, Box::new(crate::sim::FifoScheduler))
    }

    /// A service whose same-tick event order is decided by `sched` —
    /// plug in an [`crate::sim::AdversarialScheduler`] for DST runs.
    pub fn with_scheduler(provider: P, cfg: ServiceConfig, sched: Box<dyn Scheduler>) -> Self {
        RoutingService {
            provider,
            cfg,
            sched,
            queue: EventQueue::default(),
            requests: Vec::new(),
            now: 0,
            latest_due: 0,
            seq: 0,
            in_flight: 0,
            stats: ServiceStats::default(),
            violations: Vec::new(),
        }
    }

    /// Registers the workload. Submits are assigned consecutive
    /// [`ReqId`]s in list order (what `Injection::Cancel` refers to).
    pub fn load(&mut self, injections: &[Injection]) {
        self.queue.reserve(injections.len());
        self.requests.reserve(injections.len());
        for inj in injections {
            match *inj {
                Injection::Submit {
                    at,
                    src,
                    dst,
                    deadline,
                } => {
                    let id = self.requests.len() as ReqId;
                    self.requests.push(Request {
                        src,
                        dst,
                        submit: at,
                        deadline: at.saturating_add(deadline),
                        phase: Phase::Pending,
                        epoch: 0,
                    });
                    self.push(at, Ev::Submit(id), dst.raw());
                }
                Injection::Churn { at, node, fault } => {
                    self.push(at, Ev::Churn { node, fault }, node.raw());
                }
                Injection::Cancel { at, req } => {
                    self.push(at, Ev::Cancel(req), req);
                }
            }
        }
    }

    /// Queues `ev` at `at`, or at the clock if `at` is earlier.
    fn push(&mut self, at: Time, ev: Ev, dst_hint: u64) {
        let (seq, key) = self.draw(dst_hint);
        // Between runs the clock can be ahead of the queue's last pop
        // (see `run`). A later `load` then queues its past events at the
        // clock, as it did when every deadline was queued.
        self.queue.push(at.max(self.now), key, seq, ev);
    }

    /// The next event's `seq` and its order key.
    fn draw(&mut self, dst_hint: u64) -> (u64, u64) {
        let seq = self.seq;
        self.seq += 1;
        (seq, self.sched.order_key(seq, dst_hint))
    }

    /// Runs the loop to quiescence (event queue empty) and returns the
    /// number of events dispatched. A final invariant check is recorded
    /// before returning. [`now`](Self::now) is then the time of the last
    /// event or, if later, the latest `deadline + 1` of an admitted
    /// request: where the run would have ended had every deadline been
    /// queued.
    pub fn run(&mut self) -> u64 {
        let mut processed = 0u64;
        while let Some((at, seq, ev)) = self.queue.pop() {
            self.now = at;
            self.dispatch(seq, ev);
            processed += 1;
        }
        self.now = self.now.max(self.latest_due);
        self.check_invariants();
        processed
    }

    fn dispatch(&mut self, seq: u64, ev: Ev) {
        match ev {
            Ev::Submit(id) => self.on_submit(id),
            Ev::Attempt(id) => self.on_attempt(id, seq),
            Ev::Deadline(id) => {
                if !matches!(self.requests[id as usize].phase, Phase::Done { .. }) {
                    self.finish(id, Terminal::TimedOut);
                }
            }
            Ev::Cancel(id) => self.on_cancel(id),
            Ev::Churn { node, fault } => {
                if self.provider.apply_churn(node, fault) {
                    self.stats.churn_applied += 1;
                    self.push(
                        self.now.saturating_add(self.cfg.publish_lag),
                        Ev::Publish,
                        node.raw(),
                    );
                } else {
                    self.stats.churn_skipped += 1;
                }
            }
            Ev::Publish => {
                if self.provider.publish_next().is_some() {
                    self.stats.epochs_published += 1;
                    self.check_invariants();
                }
            }
        }
    }

    fn on_submit(&mut self, id: ReqId) {
        let r = &self.requests[id as usize];
        if matches!(r.phase, Phase::Done { .. }) {
            // A same-tick cancel was ordered ahead of this submit by
            // the scheduler: the request is already terminal
            // (Cancelled) and must not be admitted.
            return;
        }
        debug_assert!(matches!(r.phase, Phase::Pending), "submit processed once");
        if self.in_flight >= self.cfg.max_in_flight {
            self.finish(
                id,
                Terminal::Rejected {
                    reason: RejectReason::Overloaded,
                },
            );
            return;
        }
        let (dst, deadline) = (r.dst, r.deadline);
        self.in_flight += 1;
        self.stats.max_in_flight_seen = self.stats.max_in_flight_seen.max(self.in_flight);
        self.push(self.now, Ev::Attempt(id), dst.raw());
        // The deadline event is the unique TimedOut source: it fires
        // one tick after the deadline, so no request is ever terminal
        // later than deadline + 1. Its `seq` (the first attempt's + 1)
        // and key are drawn now, but it is queued only if the first
        // attempt leaves the request routing (`on_attempt`): most
        // requests end on that attempt and would pop it as a no-op.
        let (seq, deadline_key) = self.draw(dst.raw());
        let due = deadline.saturating_add(1);
        if due <= self.now {
            // A submit at `Time::MAX`, or one loaded past its deadline:
            // the deadline shares the first attempt's tick, where the
            // keys alone order the two, so it is queued now.
            self.queue.push(due, deadline_key, seq, Ev::Deadline(id));
        }
        self.latest_due = self.latest_due.max(due);
        self.requests[id as usize].phase = Phase::Routing {
            attempts: 0,
            deadline_key,
        };
    }

    /// One attempt; `seq` is the `Attempt` event's.
    fn on_attempt(&mut self, id: ReqId, seq: u64) {
        let (src, dst, deadline, attempts, deadline_key) = {
            let r = &self.requests[id as usize];
            let Phase::Routing {
                attempts,
                deadline_key,
            } = r.phase
            else {
                return; // terminal (timed out / cancelled) — stale event
            };
            if self.now > r.deadline {
                // A retry landed past the deadline but before the
                // deadline event in the same tick order: time out now
                // (still ≤ deadline + 1).
                self.finish(id, Terminal::TimedOut);
                return;
            }
            (r.src, r.dst, r.deadline, attempts, deadline_key)
        };
        let out = self.provider.attempt(src, dst);
        self.requests[id as usize].epoch = out.epoch;
        match out.verdict {
            AttemptVerdict::Delivered { rung, hops } => {
                let t = if attempts > 0 {
                    Terminal::Degraded {
                        reason: DegradeReason::StaleRetry { attempts },
                        hops,
                    }
                } else {
                    match rung {
                        DeliveryRung::Optimal => Terminal::Delivered { hops },
                        DeliveryRung::Suboptimal => Terminal::Degraded {
                            reason: DegradeReason::Suboptimal,
                            hops,
                        },
                        DeliveryRung::Detour => Terminal::Degraded {
                            reason: DegradeReason::Detour,
                            hops,
                        },
                    }
                };
                self.finish(id, t);
            }
            AttemptVerdict::SourceFaulty => {
                self.finish(
                    id,
                    Terminal::Rejected {
                        reason: RejectReason::SourceFaulty,
                    },
                );
            }
            AttemptVerdict::DestinationFaulty => {
                self.finish(
                    id,
                    Terminal::Rejected {
                        reason: RejectReason::DestinationFaulty,
                    },
                );
            }
            AttemptVerdict::Stale | AttemptVerdict::Unreachable => {
                let attempts = attempts + 1;
                if attempts > self.cfg.retry_limit {
                    self.finish(
                        id,
                        Terminal::Rejected {
                            reason: RejectReason::Unreachable { attempts },
                        },
                    );
                    return;
                }
                self.requests[id as usize].phase = Phase::Routing {
                    attempts,
                    deadline_key,
                };
                let due = deadline.saturating_add(1);
                if attempts == 1 && due > self.now {
                    // The first attempt ran in the submit's tick, so
                    // the deadline is still ahead and not yet queued.
                    // It goes in with the `(time, key, seq)` it would
                    // have had at admission, so every event still pops
                    // in the same order.
                    self.queue
                        .push(due, deadline_key, seq + 1, Ev::Deadline(id));
                }
                self.stats.retries += 1;
                let delay = self.backoff(id, attempts);
                self.push(self.now.saturating_add(delay), Ev::Attempt(id), dst.raw());
            }
        }
    }

    /// Exponential backoff with deterministic seeded jitter:
    /// `min(base · 2^(k−1), cap) + jitter(seed, id, k)`.
    fn backoff(&self, id: ReqId, attempt: u32) -> Time {
        let exp = self
            .cfg
            .backoff_base
            .saturating_mul(1u64.checked_shl(attempt - 1).unwrap_or(u64::MAX))
            .min(self.cfg.backoff_cap);
        let jitter = if self.cfg.jitter_max == 0 {
            0
        } else {
            uniform_inclusive(
                mix(self
                    .cfg
                    .jitter_seed
                    .wrapping_add(id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    .wrapping_add(u64::from(attempt))),
                self.cfg.jitter_max,
            )
        };
        exp.saturating_add(jitter)
    }

    fn on_cancel(&mut self, id: ReqId) {
        let Some(r) = self.requests.get(id as usize) else {
            self.stats.cancels_ignored += 1; // cancel for a never-submitted id
            return;
        };
        match r.phase {
            Phase::Done { .. } => self.stats.cancels_ignored += 1,
            Phase::Pending | Phase::Routing { .. } => {
                self.finish(
                    id,
                    Terminal::Rejected {
                        reason: RejectReason::Cancelled,
                    },
                );
            }
        }
    }

    fn finish(&mut self, id: ReqId, t: Terminal) {
        let r = &mut self.requests[id as usize];
        debug_assert!(
            !matches!(r.phase, Phase::Done { .. }),
            "terminal transition happens exactly once"
        );
        if matches!(r.phase, Phase::Routing { .. }) {
            self.in_flight -= 1;
        }
        r.phase = Phase::Done {
            terminal: t,
            at: self.now,
        };
        let lat = self.now - r.submit;
        self.stats.terminal_transitions += 1;
        match t {
            Terminal::Delivered { .. } => {
                self.stats.delivered_optimal += 1;
                self.stats.lat_optimal.record(lat);
            }
            Terminal::Degraded { reason, .. } => match reason {
                DegradeReason::Suboptimal => {
                    self.stats.degraded_suboptimal += 1;
                    self.stats.lat_suboptimal.record(lat);
                }
                DegradeReason::Detour => {
                    self.stats.degraded_detour += 1;
                    self.stats.lat_detour.record(lat);
                }
                DegradeReason::StaleRetry { .. } => {
                    self.stats.degraded_retry += 1;
                    self.stats.lat_retry.record(lat);
                }
            },
            Terminal::Rejected { reason } => {
                match reason {
                    RejectReason::Overloaded => self.stats.rejected_overloaded += 1,
                    RejectReason::Cancelled => self.stats.rejected_cancelled += 1,
                    RejectReason::SourceFaulty => self.stats.rejected_source_faulty += 1,
                    RejectReason::DestinationFaulty => self.stats.rejected_destination_faulty += 1,
                    RejectReason::Unreachable { .. } => self.stats.rejected_unreachable += 1,
                }
                self.stats.lat_rejected.record(lat);
            }
            Terminal::TimedOut => {
                self.stats.timed_out += 1;
                self.stats.lat_timed_out.record(lat);
            }
        }
    }

    fn check_invariants(&mut self) {
        if let Err(detail) = self.provider.check_invariants() {
            self.stats.invariant_violations += 1;
            if self.violations.len() < 16 {
                self.violations.push(format!("t={}: {detail}", self.now));
            }
        }
    }

    /// Lifecycle state of request `id`.
    pub fn state(&self, id: ReqId) -> Option<ReqState> {
        self.requests.get(id as usize).map(|r| r.phase.state())
    }

    /// `(state, submit, absolute deadline, terminal time, epoch of last
    /// attempt)` for every request, in id order. The terminal time of a
    /// request not yet terminal reads 0.
    pub fn request_records(&self) -> impl Iterator<Item = (ReqState, Time, Time, Time, u64)> + '_ {
        self.requests.iter().map(|r| {
            let done_at = match r.phase {
                Phase::Done { at, .. } => at,
                _ => 0,
            };
            (r.phase.state(), r.submit, r.deadline, done_at, r.epoch)
        })
    }

    /// Number of loaded requests.
    pub fn num_requests(&self) -> usize {
        self.requests.len()
    }

    /// Counters and per-rung latency histograms.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// First few recorded invariant-violation details.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Virtual time of the event being dispatched, or after
    /// [`run`](Self::run) the end of the run: the last event's time or,
    /// if later, the latest `deadline + 1` of an admitted request.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The provider, for post-run inspection.
    pub fn provider(&self) -> &P {
        &self.provider
    }

    /// Mutable provider access (e.g. to drain test archives).
    pub fn provider_mut(&mut self) -> &mut P {
        &mut self.provider
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::thread;

    // -- EpochHandle ------------------------------------------------------

    /// A payload whose two halves must agree — any torn observation
    /// would show `a != b`.
    #[derive(Clone, Debug)]
    struct Pair {
        a: u64,
        b: u64,
    }

    #[test]
    fn epoch_handle_publishes_monotonically() {
        let h = EpochHandle::new(Pair { a: 0, b: 0 });
        assert_eq!(h.load().epoch, 0);
        for k in 1..100 {
            let e = h.publish(Pair { a: k, b: k });
            assert_eq!(e, k);
            assert_eq!(h.epoch(), k);
            let snap = h.load();
            assert_eq!(snap.epoch, k);
            assert_eq!(snap.data.a, k);
        }
    }

    #[test]
    fn epoch_update_derives_from_parent() {
        let h = EpochHandle::new(Pair { a: 1, b: 1 });
        for _ in 0..20 {
            h.update(|p| Pair {
                a: p.data.a * 2,
                b: p.data.b * 2,
            });
        }
        let snap = h.load();
        assert_eq!(snap.epoch, 20);
        assert_eq!(snap.data.a, 1 << 20);
        assert_eq!(snap.data.a, snap.data.b);
    }

    /// The torn-read test: readers hammer `load` while a writer
    /// publishes thousands of generations. Every observation must be
    /// internally consistent (`a == b == epoch`), per-reader epochs
    /// must be monotone, and a load is never older than the counter
    /// read before it.
    #[test]
    fn concurrent_readers_never_observe_torn_or_regressing_snapshots() {
        let h = Arc::new(EpochHandle::new(Pair { a: 0, b: 0 }));
        let stop = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let h = Arc::clone(&h);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut last = 0u64;
                    let mut seen = 0u64;
                    loop {
                        let floor = h.epoch();
                        let snap = h.load();
                        assert!(snap.epoch >= floor, "load older than the counter");
                        assert_eq!(snap.data.a, snap.data.b, "torn snapshot");
                        assert_eq!(snap.data.a, snap.epoch, "payload from another epoch");
                        assert!(snap.epoch >= last, "epoch regressed");
                        last = snap.epoch;
                        seen += 1;
                        if stop.load(Ordering::Relaxed) != 0 {
                            break;
                        }
                    }
                    seen
                })
            })
            .collect();
        for k in 1..=5_000u64 {
            h.publish(Pair { a: k, b: k });
        }
        stop.store(1, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().expect("reader panicked") > 0);
        }
        assert_eq!(h.load().epoch, 5_000);
    }

    // -- RoutingService over a scripted provider --------------------------

    /// A provider that replays a scripted verdict sequence and counts
    /// publications — lets the lifecycle be tested without a topology.
    struct Scripted {
        verdicts: Vec<AttemptVerdict>,
        next: usize,
        epoch: u64,
        pending: u64,
        live_faults: Vec<NodeId>,
    }

    impl Scripted {
        fn new(verdicts: Vec<AttemptVerdict>) -> Self {
            Scripted {
                verdicts,
                next: 0,
                epoch: 0,
                pending: 0,
                live_faults: Vec::new(),
            }
        }
    }

    impl RouteProvider for Scripted {
        fn attempt(&mut self, _s: NodeId, _d: NodeId) -> AttemptOutcome {
            let v = self
                .verdicts
                .get(self.next)
                .copied()
                .unwrap_or(AttemptVerdict::Unreachable);
            self.next += 1;
            AttemptOutcome {
                epoch: self.epoch,
                verdict: v,
            }
        }
        fn apply_churn(&mut self, node: NodeId, fault: bool) -> bool {
            if fault == self.live_faults.contains(&node) {
                return false;
            }
            if fault {
                self.live_faults.push(node);
            } else {
                self.live_faults.retain(|&a| a != node);
            }
            self.pending += 1;
            true
        }
        fn publish_next(&mut self) -> Option<u64> {
            if self.pending == 0 {
                return None;
            }
            self.pending -= 1;
            self.epoch += 1;
            Some(self.epoch)
        }
        fn current_epoch(&self) -> u64 {
            self.epoch
        }
    }

    #[test]
    fn default_attempt_redundant_degrades_to_single_path() {
        let mut p = Scripted::new(vec![
            AttemptVerdict::Delivered {
                rung: DeliveryRung::Optimal,
                hops: 3,
            },
            AttemptVerdict::Unreachable,
        ]);
        let out = p.attempt_redundant(NodeId::new(0), NodeId::new(7), 4);
        assert_eq!(out.delivered_paths, 1, "one copy: the single attempt");
        assert_eq!(out.best_hops, 3);
        assert_eq!(out.total_hops, 3);
        let out = p.attempt_redundant(NodeId::new(0), NodeId::new(7), 4);
        assert_eq!(out.delivered_paths, 0);
        assert_eq!(out.total_hops, 0);
    }

    fn one_submit(deadline: Time) -> Vec<Injection> {
        vec![Injection::Submit {
            at: 0,
            src: NodeId::new(0),
            dst: NodeId::new(1),
            deadline,
        }]
    }

    #[test]
    fn optimal_first_attempt_is_delivered() {
        let p = Scripted::new(vec![AttemptVerdict::Delivered {
            rung: DeliveryRung::Optimal,
            hops: 3,
        }]);
        let mut svc = RoutingService::new(p, ServiceConfig::default());
        svc.load(&one_submit(100));
        svc.run();
        assert_eq!(
            svc.state(0),
            Some(ReqState::Done(Terminal::Delivered { hops: 3 }))
        );
        assert_eq!(svc.stats().delivered_optimal, 1);
        assert_eq!(svc.stats().terminals(), 1);
    }

    #[test]
    fn stale_then_delivered_lands_on_retry_rung() {
        let p = Scripted::new(vec![
            AttemptVerdict::Stale,
            AttemptVerdict::Delivered {
                rung: DeliveryRung::Optimal,
                hops: 4,
            },
        ]);
        let mut svc = RoutingService::new(p, ServiceConfig::default());
        svc.load(&one_submit(100));
        svc.run();
        assert_eq!(
            svc.state(0),
            Some(ReqState::Done(Terminal::Degraded {
                reason: DegradeReason::StaleRetry { attempts: 1 },
                hops: 4
            }))
        );
        assert_eq!(svc.stats().degraded_retry, 1);
        assert_eq!(svc.stats().retries, 1);
    }

    #[test]
    fn retry_ladder_exhausts_into_typed_unreachable() {
        let cfg = ServiceConfig {
            retry_limit: 2,
            ..Default::default()
        };
        let p = Scripted::new(vec![AttemptVerdict::Unreachable; 8]);
        let mut svc = RoutingService::new(p, cfg);
        svc.load(&one_submit(1_000));
        svc.run();
        assert_eq!(
            svc.state(0),
            Some(ReqState::Done(Terminal::Rejected {
                reason: RejectReason::Unreachable { attempts: 3 }
            }))
        );
        assert_eq!(svc.stats().rejected_unreachable, 1);
    }

    #[test]
    fn deadline_fires_exactly_one_tick_late_at_most() {
        // Endless staleness + a tight deadline: the deadline event at
        // deadline+1 must be the terminal transition.
        let cfg = ServiceConfig {
            retry_limit: 100,
            ..Default::default()
        };
        let p = Scripted::new(vec![AttemptVerdict::Stale; 256]);
        let mut svc = RoutingService::new(p, cfg);
        svc.load(&one_submit(10));
        svc.run();
        let (state, submit, deadline, done_at, _) = svc.request_records().next().unwrap();
        assert_eq!(state, ReqState::Done(Terminal::TimedOut));
        assert_eq!(submit, 0);
        assert!(
            done_at <= deadline + 1,
            "terminal at {done_at}, deadline {deadline}"
        );
    }

    #[test]
    fn deadline_past_time_max_never_times_out() {
        let cfg = ServiceConfig {
            retry_limit: 2,
            ..Default::default()
        };
        let mut svc = RoutingService::new(Scripted::new(vec![AttemptVerdict::Stale; 8]), cfg);
        svc.load(&[Injection::Submit {
            at: 5,
            src: NodeId::new(0),
            dst: NodeId::new(1),
            deadline: Time::MAX,
        }]);
        svc.run();
        assert_eq!(
            svc.state(0),
            Some(ReqState::Done(Terminal::Rejected {
                reason: RejectReason::Unreachable { attempts: 3 }
            }))
        );
        let (_, submit, deadline, done_at, _) = svc.request_records().next().unwrap();
        assert_eq!((submit, deadline), (5, Time::MAX));
        assert!(done_at > submit, "the retries ran");
        let huge = ServiceConfig {
            backoff_base: Time::MAX,
            backoff_cap: Time::MAX,
            jitter_max: 3,
            ..Default::default()
        };
        let svc = RoutingService::new(Scripted::new(vec![]), huge);
        assert_eq!(svc.backoff(1, 1), Time::MAX, "backoff saturates");
    }

    #[test]
    fn zero_backoff_base_retries_in_the_same_tick() {
        let cfg = ServiceConfig {
            backoff_base: 0,
            jitter_max: 0,
            retry_limit: 2,
            ..Default::default()
        };
        let mut svc = RoutingService::new(Scripted::new(vec![AttemptVerdict::Stale; 8]), cfg);
        svc.load(&one_submit(100));
        svc.run();
        assert_eq!(
            svc.state(0),
            Some(ReqState::Done(Terminal::Rejected {
                reason: RejectReason::Unreachable { attempts: 3 }
            }))
        );
        assert_eq!(svc.stats().retries, 2);
        let (_, _, _, done_at, _) = svc.request_records().next().unwrap();
        assert_eq!(done_at, 0, "every retry ran at the submit tick");
    }

    /// Delivers every request with an even destination on its first
    /// attempt and answers `Stale` for the rest.
    struct EvenDelivers(Scripted);

    impl RouteProvider for EvenDelivers {
        fn attempt(&mut self, _s: NodeId, d: NodeId) -> AttemptOutcome {
            let verdict = if d.raw().is_multiple_of(2) {
                AttemptVerdict::Delivered {
                    rung: DeliveryRung::Optimal,
                    hops: 1,
                }
            } else {
                AttemptVerdict::Stale
            };
            AttemptOutcome { epoch: 0, verdict }
        }
        fn apply_churn(&mut self, node: NodeId, fault: bool) -> bool {
            self.0.apply_churn(node, fault)
        }
        fn publish_next(&mut self) -> Option<u64> {
            self.0.publish_next()
        }
        fn current_epoch(&self) -> u64 {
            self.0.current_epoch()
        }
    }

    #[test]
    fn order_key_is_drawn_once_per_push() {
        let seqs = std::rc::Rc::default();
        let mut svc = RoutingService::with_scheduler(
            EvenDelivers(Scripted::new(vec![])),
            ServiceConfig::default(),
            Box::new(crate::sim::Recording(std::rc::Rc::clone(&seqs))),
        );
        let mut inj: Vec<Injection> = (0..20)
            .map(|k| Injection::Submit {
                at: k % 6,
                src: NodeId::new(0),
                dst: NodeId::new(k % 3),
                deadline: 10 + k * 20,
            })
            .collect();
        inj.push(Injection::Churn {
            at: 3,
            node: NodeId::new(4),
            fault: true,
        });
        inj.push(Injection::Cancel { at: 2, req: 7 });
        svc.load(&inj);
        let processed = svc.run();
        // Keys are drawn once per event, queued or not, in `seq` order.
        let draws = seqs.borrow().len() as u64;
        assert_eq!(*seqs.borrow(), (0..draws).collect::<Vec<_>>());
        // Each request delivered on its first attempt never queued its
        // deadline; every other event popped exactly once.
        let elided = (0..20).filter(|k| k % 3 != 1).count() as u64;
        assert_eq!(svc.stats().delivered_optimal, elided);
        assert_eq!(processed, draws - elided);
    }

    #[test]
    fn a_run_ends_at_the_last_deadline_even_when_it_was_not_queued() {
        let delivered = AttemptVerdict::Delivered {
            rung: DeliveryRung::Optimal,
            hops: 2,
        };
        let p = Scripted::new(vec![delivered; 2]);
        let mut svc = RoutingService::new(p, ServiceConfig::default());
        svc.load(&one_submit(10));
        assert_eq!(svc.run(), 2, "a Submit and an Attempt: no Deadline");
        let (_, _, _, done_at, _) = svc.request_records().next().unwrap();
        assert_eq!(done_at, 0);
        assert_eq!(svc.now(), 11, "deadline 10, + 1");
        // A later load queues from there, as if the deadline had popped.
        svc.load(&[Injection::Submit {
            at: 5,
            src: NodeId::new(0),
            dst: NodeId::new(1),
            deadline: 100,
        }]);
        svc.run();
        let (_, submit, _, done_at, _) = svc.request_records().nth(1).unwrap();
        assert_eq!((submit, done_at), (5, 11));
        assert_eq!(svc.now(), 106);
    }

    #[test]
    fn a_submit_at_time_max_races_its_deadline_in_its_own_tick() {
        // `deadline + 1` saturates onto the submit's tick, so the keys
        // decide whether the deadline or the first attempt pops first:
        // the deadline is queued at admission, not on a retry.
        let delivered = AttemptVerdict::Delivered {
            rung: DeliveryRung::Optimal,
            hops: 1,
        };
        let mut seen = (false, false);
        for seed in 0..32 {
            let mut svc = RoutingService::with_scheduler(
                Scripted::new(vec![delivered]),
                ServiceConfig::default(),
                Box::new(crate::sim::AdversarialScheduler::permute(seed)),
            );
            svc.load(&[Injection::Submit {
                at: Time::MAX,
                src: NodeId::new(0),
                dst: NodeId::new(1),
                deadline: 0,
            }]);
            assert_eq!(svc.run(), 3, "Submit, Attempt, Deadline");
            match svc.state(0) {
                Some(ReqState::Done(Terminal::TimedOut)) => seen.0 = true,
                Some(ReqState::Done(Terminal::Delivered { .. })) => seen.1 = true,
                other => panic!("seed {seed}: {other:?}"),
            }
        }
        assert_eq!(seen, (true, true), "both orders occur");
    }

    #[test]
    fn a_retry_in_the_deadline_tick_times_out_exactly_once() {
        // The first backoff is exactly 11 ticks, so the retry and the
        // deadline (queued by the first retry) share tick 11, where the
        // adversary's keys decide which pops first.
        let cfg = ServiceConfig {
            backoff_base: 11,
            jitter_max: 0,
            retry_limit: 8,
            ..Default::default()
        };
        for seed in 0..32 {
            let mut svc = RoutingService::with_scheduler(
                Scripted::new(vec![AttemptVerdict::Stale; 8]),
                cfg,
                Box::new(crate::sim::AdversarialScheduler::permute(seed)),
            );
            svc.load(&one_submit(10));
            assert_eq!(svc.run(), 4, "Submit, Attempt, retry, Deadline");
            let (state, _, deadline, done_at, _) = svc.request_records().next().unwrap();
            assert_eq!(state, ReqState::Done(Terminal::TimedOut), "seed {seed}");
            assert_eq!((deadline, done_at), (10, 11), "seed {seed}");
            assert_eq!(svc.stats().timed_out, 1, "seed {seed}");
            assert_eq!(svc.stats().terminal_transitions, 1, "seed {seed}");
            assert_eq!(svc.stats().retries, 1, "seed {seed}");
        }
    }

    #[test]
    fn admission_control_sheds_beyond_the_window() {
        let cfg = ServiceConfig {
            max_in_flight: 2,
            retry_limit: 50,
            ..Default::default()
        };
        // All requests stall (stale forever) so the window stays full.
        let p = Scripted::new(vec![AttemptVerdict::Stale; 1024]);
        let mut svc = RoutingService::new(p, cfg);
        let injections: Vec<Injection> = (0..5)
            .map(|_| Injection::Submit {
                at: 0,
                src: NodeId::new(0),
                dst: NodeId::new(1),
                deadline: 6,
            })
            .collect();
        svc.load(&injections);
        svc.run();
        assert_eq!(
            svc.stats().rejected_overloaded,
            3,
            "window of 2 sheds 3 of 5"
        );
        assert_eq!(svc.stats().max_in_flight_seen, 2);
        assert_eq!(svc.stats().terminals(), 5, "shed and stalled all terminate");
    }

    #[test]
    fn cancellation_is_idempotent() {
        let cfg = ServiceConfig {
            retry_limit: 100,
            ..Default::default()
        };
        let p = Scripted::new(vec![AttemptVerdict::Stale; 256]);
        let mut svc = RoutingService::new(p, cfg);
        let mut inj = one_submit(50);
        inj.push(Injection::Cancel { at: 5, req: 0 });
        inj.push(Injection::Cancel { at: 6, req: 0 });
        inj.push(Injection::Cancel { at: 7, req: 99 });
        svc.load(&inj);
        svc.run();
        assert_eq!(
            svc.state(0),
            Some(ReqState::Done(Terminal::Rejected {
                reason: RejectReason::Cancelled
            }))
        );
        assert_eq!(svc.stats().rejected_cancelled, 1);
        assert_eq!(svc.stats().cancels_ignored, 2, "second cancel + unknown id");
        assert_eq!(svc.stats().terminal_transitions, 1);
    }

    #[test]
    fn churn_publishes_after_the_lag_and_no_ops_are_skipped() {
        let cfg = ServiceConfig {
            publish_lag: 3,
            ..Default::default()
        };
        let p = Scripted::new(vec![]);
        let mut svc = RoutingService::new(p, cfg);
        svc.load(&[
            Injection::Churn {
                at: 0,
                node: NodeId::new(5),
                fault: true,
            },
            Injection::Churn {
                at: 1,
                node: NodeId::new(5),
                fault: true,
            }, // no-op
            Injection::Churn {
                at: 2,
                node: NodeId::new(5),
                fault: false,
            },
        ]);
        svc.run();
        assert_eq!(svc.stats().churn_applied, 2);
        assert_eq!(svc.stats().churn_skipped, 1);
        assert_eq!(svc.stats().epochs_published, 2);
        assert_eq!(svc.provider().current_epoch(), 2);
        assert_eq!(svc.now(), 2 + 3, "last publish at churn time + lag");
    }

    #[test]
    fn backoff_is_exponential_capped_and_jitter_is_deterministic() {
        let cfg = ServiceConfig {
            backoff_base: 2,
            backoff_cap: 16,
            jitter_max: 3,
            jitter_seed: 42,
            ..Default::default()
        };
        let svc = RoutingService::new(Scripted::new(vec![]), cfg);
        let svc2 = RoutingService::new(Scripted::new(vec![]), cfg);
        let mut prev_exp = 0;
        for attempt in 1..=8u32 {
            let d1 = svc.backoff(7, attempt);
            let d2 = svc2.backoff(7, attempt);
            assert_eq!(d1, d2, "jitter is a pure function of (seed, id, attempt)");
            let exp = (2u64 << (attempt - 1).min(62)).min(16);
            assert!(
                d1 >= exp && d1 <= exp + 3,
                "attempt {attempt}: {d1} vs exp {exp}"
            );
            assert!(exp >= prev_exp, "monotone until the cap");
            prev_exp = exp;
        }
        assert_ne!(
            svc.backoff(1, 2) + svc.backoff(2, 2) + svc.backoff(3, 2),
            3 * svc.backoff(1, 2),
            "different ids draw different jitter (seed 42)"
        );
    }

    #[test]
    fn replay_is_byte_identical_under_an_adversarial_scheduler() {
        let run = |seed: u64| {
            let verdicts = [
                AttemptVerdict::Stale,
                AttemptVerdict::Delivered {
                    rung: DeliveryRung::Optimal,
                    hops: 2,
                },
                AttemptVerdict::Delivered {
                    rung: DeliveryRung::Suboptimal,
                    hops: 5,
                },
                AttemptVerdict::Unreachable,
                AttemptVerdict::Delivered {
                    rung: DeliveryRung::Detour,
                    hops: 7,
                },
            ];
            let p = Scripted::new(verdicts.repeat(20));
            let mut svc = RoutingService::with_scheduler(
                p,
                ServiceConfig::default(),
                Box::new(crate::sim::AdversarialScheduler::permute(seed)),
            );
            let inj: Vec<Injection> = (0..40)
                .flat_map(|k| {
                    vec![
                        Injection::Submit {
                            at: k % 7,
                            src: NodeId::new(k % 8),
                            dst: NodeId::new((k + 1) % 8),
                            deadline: 20,
                        },
                        Injection::Churn {
                            at: k % 5,
                            node: NodeId::new(k % 4),
                            fault: k % 2 == 0,
                        },
                    ]
                })
                .collect();
            svc.load(&inj);
            svc.run();
            svc.stats().render()
        };
        assert_eq!(run(0xD57), run(0xD57), "same seed, same bytes");
        assert_ne!(run(1), run(2), "the adversary actually reorders");
    }
}
