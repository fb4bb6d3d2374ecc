//! `svc-churn` and `svc-quiet`: E26's open-loop mix through
//! `RoutingService<SafetyService>` on Q12 with the FIFO scheduler.
//!
//! A run holds several independent request streams. One round replays
//! one stream on a freshly built service; a pass is a round of every
//! stream. The run is timed from outside, through the [`Timed`]
//! wrapper, which forwards every provider call to `SafetyService`
//! unchanged and cuts `RoutingService::run` into segments at the end of
//! each call.

use crate::stats::{fnv1a, ns, BestOf};
use crate::trace::{Kind, Tracer};
use crate::Phase;
use hypersafe_core::SafetyService;
use hypersafe_simkit::service::{
    AttemptOutcome, DegradeReason, Injection, RejectReason, ReqState, RouteProvider,
    RoutingService, ServiceConfig, Terminal,
};
use hypersafe_topology::{FaultConfig, Hypercube, NodeId};
use hypersafe_workloads::{open_loop_mix, OpenLoop};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

pub const DIM: u8 = 12;
/// Route requests per stream. A round this size keeps the service's
/// working set (requests, event heap, Q12 map) well inside the 2 MiB
/// private L2 of the reference host, so a run measures the service
/// rather than how busy the shared L3 is.
pub const REQUESTS: u64 = 2_000;
/// Independent streams per run: one stream's churn count is binomial,
/// so several are needed to keep a run's work steady across seeds.
pub const STREAMS: usize = 8;

/// The generated workload.
pub struct Prepared {
    cube: Hypercube,
    cfg: ServiceConfig,
    pub streams: Vec<Stream>,
}

/// One request stream and the outcome of its unwrapped warm-up run.
pub struct Stream {
    pub injections: Vec<Injection>,
    reference: Outcome,
}

/// What one round must reproduce exactly.
#[derive(PartialEq, Eq)]
struct Outcome {
    render: String,
    checksum: u64,
    delivered: u64,
    cancelled: u64,
}

/// E26's mix: churn 0.05 (0 for svc-quiet), live-fault cap n − 1,
/// 1% cancels, admission window 48.
pub fn prepare(seed: u64, churn: bool) -> Result<Prepared, String> {
    let cube = Hypercube::new(DIM);
    let wl = OpenLoop {
        requests: REQUESTS,
        churn_prob: if churn { 0.05 } else { 0.0 },
        max_live_faults: DIM as usize - 1,
        ..OpenLoop::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ ((DIM as u64) << 40));
    let cfg = ServiceConfig {
        max_in_flight: 48,
        ..ServiceConfig::default()
    };
    let streams = (0..STREAMS)
        .map(|_| draw_stream(cube, cfg, &wl, &mut rng))
        .collect::<Result<_, String>>()?;
    Ok(Prepared { cube, cfg, streams })
}

/// Streams drawn for one kept stream, at most.
const DRAWS: usize = 64;

/// Draws streams until one fails no request: its unwrapped run delivers
/// every request the client does not cancel. Now and then churn faults
/// the endpoint of a request in flight and the service rejects it; a
/// stream with such a request would make the number of failed requests
/// in a run grow with the number of passes the host allows. The seed
/// alone decides which streams are kept.
fn draw_stream(
    cube: Hypercube,
    cfg: ServiceConfig,
    wl: &OpenLoop,
    rng: &mut ChaCha8Rng,
) -> Result<Stream, String> {
    for _ in 0..DRAWS {
        let injections = open_loop_mix(cube, wl, rng);
        // The warm-up run, unwrapped: every measured round goes
        // through the timing wrapper and must render byte-identically.
        let mut svc = build(cube, cfg, &injections, SafetyService::new);
        svc.run();
        let reference = outcome(&svc)?;
        if reference.delivered + reference.cancelled == svc.num_requests() as u64 {
            return Ok(Stream {
                injections,
                reference,
            });
        }
    }
    Err(format!("{DRAWS} streams drawn, each failing a request"))
}

/// The system under test, built from the generated inputs: the
/// provider, the service, and the loaded injection list.
fn build<P: RouteProvider>(
    cube: Hypercube,
    cfg: ServiceConfig,
    injections: &[Injection],
    provider: impl FnOnce(FaultConfig) -> P,
) -> RoutingService<P> {
    let mut svc = RoutingService::new(provider(FaultConfig::fault_free(cube)), cfg);
    svc.load(injections);
    svc
}

/// One unit of the system under test, unwrapped: stream `i`'s loaded
/// service.
pub fn build_stream(p: &Prepared, i: usize) -> RoutingService<SafetyService> {
    build(p.cube, p.cfg, &p.streams[i].injections, SafetyService::new)
}

/// Timing state the wrapper carries from round to round. Every round of
/// a stream makes the same calls in the same order, so the k-th attempt
/// of a stream is one work unit, and so is the k-th segment of its run:
/// the event loop's work since the previous provider call returned,
/// plus the call. A stream's segments add up to its whole
/// `RoutingService::run`. Epochs are pooled over all rounds of a traced
/// phase; an untraced phase keeps none, so its memory does not grow with
/// the number of passes a run makes.
#[derive(Default)]
struct Probe {
    /// Per stream, per attempt.
    attempts: Vec<BestOf>,
    /// Per stream, per run segment.
    segments: Vec<BestOf>,
    /// Each epoch's wall-clock in ns, when tracing.
    epochs: Vec<u64>,
    /// The stream being replayed and its attempts so far this round.
    stream: usize,
    attempt_k: usize,
    /// The current segment: its index this round and its start.
    segment_k: usize,
    segment_start: Option<Instant>,
    publish_start: Option<Instant>,
    tracer: Option<Tracer>,
}

impl Probe {
    /// Ends the current run segment at `end` and starts the next.
    fn cut(&mut self, end: Instant) {
        let start = self.segment_start.replace(end).expect("segment started");
        self.segments[self.stream].record(self.segment_k, end - start);
        self.segment_k += 1;
    }
}

/// A `RouteProvider` that forwards every call to `SafetyService` and
/// times it: each attempt, the epoch from `publish_next` to the
/// `check_invariants` the service makes right after it, and a run
/// segment ending with each call. With a tracer it also records a span
/// per call.
struct Timed<'a> {
    inner: SafetyService,
    probe: &'a mut Probe,
}

impl Timed<'_> {
    fn span<T>(&mut self, kind: Kind, f: impl FnOnce(&mut SafetyService) -> T) -> T {
        match self.probe.tracer.as_mut() {
            Some(t) => {
                t.enter(kind);
                let out = f(&mut self.inner);
                self.probe.tracer.as_mut().expect("tracer").exit();
                out
            }
            None => f(&mut self.inner),
        }
    }
}

impl RouteProvider for Timed<'_> {
    fn attempt(&mut self, s: NodeId, d: NodeId) -> AttemptOutcome {
        let t = Instant::now();
        let out = self.span(Kind::Attempt, |p| p.attempt(s, d));
        let end = Instant::now();
        self.probe.attempts[self.probe.stream].record(self.probe.attempt_k, end - t);
        self.probe.attempt_k += 1;
        self.probe.cut(end);
        out
    }

    fn apply_churn(&mut self, node: NodeId, fault: bool) -> bool {
        let out = self.span(Kind::Churn, |p| p.apply_churn(node, fault));
        self.probe.cut(Instant::now());
        out
    }

    fn publish_next(&mut self) -> Option<u64> {
        let t = Instant::now();
        let out = self.span(Kind::Publish, |p| p.publish_next());
        self.probe.publish_start = out.map(|_| t);
        self.probe.cut(Instant::now());
        out
    }

    fn current_epoch(&self) -> u64 {
        self.inner.current_epoch()
    }

    fn check_invariants(&mut self) -> Result<(), String> {
        let out = self.span(Kind::Check, |p| p.check_invariants());
        let end = Instant::now();
        if let Some(t) = self.probe.publish_start.take() {
            if self.probe.tracer.is_some() {
                self.probe.epochs.push(ns(end - t));
            }
        }
        self.probe.cut(end);
        out
    }
}

/// E26's encoding of a terminal state, folded into the checksum.
fn terminal_word(t: Terminal) -> u64 {
    match t {
        Terminal::Delivered { hops } => 0x01 << 32 | hops as u64,
        Terminal::Degraded { reason, hops } => {
            let r = match reason {
                DegradeReason::Suboptimal => 0x02u64,
                DegradeReason::Detour => 0x03,
                DegradeReason::StaleRetry { attempts } => 0x04 | (attempts as u64) << 8,
            };
            r << 32 | hops as u64
        }
        Terminal::Rejected { reason } => {
            let r = match reason {
                RejectReason::Overloaded => 1u64,
                RejectReason::Cancelled => 2,
                RejectReason::SourceFaulty => 3,
                RejectReason::DestinationFaulty => 4,
                RejectReason::Unreachable { attempts } => 5 | (attempts as u64) << 8,
            };
            0x05 << 32 | r
        }
        Terminal::TimedOut => 0x06 << 32,
    }
}

/// The correctness gate for one finished round: every request reached
/// exactly one terminal state, none later than one tick past its
/// deadline, and no invariant check failed.
fn outcome<P: RouteProvider>(svc: &RoutingService<P>) -> Result<Outcome, String> {
    let s = svc.stats();
    let requests = svc.num_requests() as u64;
    if s.terminal_transitions != requests || s.terminals() != requests {
        return Err(format!(
            "{} terminal transitions for {requests} requests",
            s.terminal_transitions
        ));
    }
    if s.invariant_violations != 0 {
        return Err(format!(
            "{} invariant violations: {:?}",
            s.invariant_violations,
            svc.violations()
        ));
    }
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    for (state, _submit, deadline, done_at, epoch) in svc.request_records() {
        let ReqState::Done(t) = state else {
            return Err("a request never reached a terminal state".into());
        };
        if done_at > deadline + 1 {
            return Err(format!("terminal at {done_at}, deadline {deadline}"));
        }
        checksum = fnv1a(checksum, terminal_word(t));
        checksum = fnv1a(checksum, done_at ^ epoch.rotate_left(32));
    }
    Ok(Outcome {
        render: s.render(),
        checksum,
        delivered: s.delivered(),
        cancelled: s.rejected_cancelled,
    })
}

/// Passes until `budget` has elapsed (at least one), calling `between`
/// after every pass. Each round must reproduce its stream's unwrapped
/// run exactly. Throughput is the requests of a pass over the sum of
/// every run segment's fastest wall-clock.
pub fn measure(
    p: &Prepared,
    budget: Duration,
    tracer: Option<Tracer>,
    between: &mut dyn FnMut(),
) -> Result<Phase, String> {
    let start = Instant::now();
    let mut probe = Probe {
        attempts: (0..STREAMS).map(|_| BestOf::default()).collect(),
        segments: (0..STREAMS).map(|_| BestOf::default()).collect(),
        tracer,
        ..Probe::default()
    };
    let mut phase = Phase::default();
    loop {
        let (mut events, mut detours, mut cells, mut checksum) = (0, 0, 0, 0);
        for (i, stream) in p.streams.iter().enumerate() {
            if let Some(t) = probe.tracer.as_mut() {
                t.enter(Kind::Harness);
            }
            probe.stream = i;
            probe.attempt_k = 0;
            probe.segment_k = 0;
            let mut svc = build(p.cube, p.cfg, &stream.injections, |cfg| Timed {
                inner: SafetyService::new(cfg),
                probe: &mut probe,
            });
            let timer = &mut svc.provider_mut().probe;
            if let Some(t) = timer.tracer.as_mut() {
                t.enter(Kind::ServiceRun);
            }
            timer.segment_start = Some(Instant::now());
            events += svc.run();
            let timer = &mut svc.provider_mut().probe;
            timer.cut(Instant::now());
            if let Some(t) = timer.tracer.as_mut() {
                t.exit();
            }
            let out = outcome(&svc)?;
            if out != stream.reference {
                return Err(format!(
                    "timed round diverged from the unwrapped run:\n{}--- vs ---\n{}",
                    out.render, stream.reference.render
                ));
            }
            let requests = svc.num_requests() as u64;
            phase.attempted += requests;
            phase.delivered += out.delivered;
            phase.failed += requests - out.delivered - out.cancelled;
            checksum = fnv1a(checksum, out.checksum);
            detours += svc.provider().inner.detours();
            cells += svc.provider().inner.cells_changed();
            drop(svc);
            if let Some(t) = probe.tracer.as_mut() {
                t.exit();
            }
        }
        // Per-pass counts: every pass replays the same streams.
        let requests = (STREAMS as u64 * REQUESTS) as f64;
        phase.counters = vec![
            ("events_per_req", events as f64 / requests),
            ("detours", detours as f64),
            ("cells_changed", cells as f64),
        ];
        phase.checksum = checksum;
        phase.passes += 1;
        between();
        if start.elapsed() >= budget {
            break;
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    let run_s: f64 = probe.segments.iter().map(BestOf::total_s).sum();
    phase.rps = (STREAMS as u64 * REQUESTS) as f64 / run_s;
    phase.lat = probe
        .attempts
        .into_iter()
        .flat_map(BestOf::into_values)
        .collect();
    phase.epochs = probe.epochs;
    phase.tracer = probe.tracer;
    Ok(phase)
}
