//! In-memory span recorder for the traced run.
//!
//! A span is opened before a call into a layer's public function and
//! closed after it returns. Spans nest through a stack, so each span
//! knows its parent and how much of its interval its children covered;
//! its self time is its duration minus that. Every span's duration is
//! kept per kind for the whole run, and the first [`RAW_CAP`] spans are
//! kept verbatim and written out when the benchmark ends.

use crate::stats::total_s;
use std::fmt::Write as _;
use std::time::Instant;

/// The span kinds the benchmark records, one per layer boundary it
/// times from outside.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Harness work in a traced phase: building the system, checking
    /// outputs, bookkeeping between calls.
    Harness,
    /// `RoutingService::run`; its self time is the event loop itself.
    ServiceRun,
    /// `RouteProvider::attempt` on `SafetyService`.
    Attempt,
    /// `RouteProvider::apply_churn`.
    Churn,
    /// `RouteProvider::publish_next`.
    Publish,
    /// `RouteProvider::check_invariants`.
    Check,
    /// One batch through `route_many_seq`.
    RouteBatch,
    /// A `route_disjoint` call that the fan answered alone.
    Fan,
    /// A `route_disjoint` call that ran max-flow augmentation.
    Augment,
}

pub const KINDS: [Kind; 9] = [
    Kind::Harness,
    Kind::ServiceRun,
    Kind::Attempt,
    Kind::Churn,
    Kind::Publish,
    Kind::Check,
    Kind::RouteBatch,
    Kind::Fan,
    Kind::Augment,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Harness => "bench.harness",
            Kind::ServiceRun => "simkit.service.run",
            Kind::Attempt => "core.service.attempt",
            Kind::Churn => "core.service.apply_churn",
            Kind::Publish => "core.service.publish_next",
            Kind::Check => "core.service.check_invariants",
            Kind::RouteBatch => "core.route_batch.route_many_seq",
            Kind::Fan => "core.multipath.route_disjoint.fan",
            Kind::Augment => "core.multipath.route_disjoint.augment",
        }
    }
}

/// Raw spans kept verbatim per run; aggregates cover every span.
const RAW_CAP: usize = 1 << 16;

struct Open {
    id: u32,
    parent: u32,
    kind: Kind,
    start: Instant,
    child_ns: u64,
}

/// One closed span, as written to the span file.
struct Span {
    id: u32,
    parent: u32,
    kind: Kind,
    start_ns: u64,
    dur_ns: u64,
    self_ns: u64,
}

/// Every span of one kind.
#[derive(Default)]
pub struct Agg {
    /// Each span's duration in ns.
    pub dur: Vec<u64>,
    pub self_ns: u64,
}

impl Agg {
    pub fn total_s(&self) -> f64 {
        total_s(&self.dur)
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }
}

pub struct Tracer {
    origin: Instant,
    stack: Vec<Open>,
    next_id: u32,
    aggs: Vec<Agg>,
    raw: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            stack: Vec::with_capacity(8),
            next_id: 1,
            aggs: KINDS.iter().map(|_| Agg::default()).collect(),
            raw: Vec::with_capacity(RAW_CAP),
        }
    }

    pub fn enter(&mut self, kind: Kind) {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let parent = self.stack.last().map_or(0, |o| o.id);
        self.stack.push(Open {
            id,
            parent,
            kind,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Closes the innermost span under the kind it was opened with.
    pub fn exit(&mut self) {
        let kind = self.stack.last().expect("exit without enter").kind;
        self.exit_as(kind);
    }

    /// Closes the innermost span, filing it under `kind` (for calls whose
    /// kind is known only from their result).
    pub fn exit_as(&mut self, kind: Kind) {
        let end = Instant::now();
        let open = self.stack.pop().expect("exit without enter");
        let dur_ns = (end - open.start).as_nanos() as u64;
        let self_ns = dur_ns.saturating_sub(open.child_ns);
        if let Some(p) = self.stack.last_mut() {
            p.child_ns += dur_ns;
        }
        let agg = &mut self.aggs[kind as usize];
        agg.dur.push(dur_ns);
        agg.self_ns += self_ns;
        if self.raw.len() < RAW_CAP {
            self.raw.push(Span {
                id: open.id,
                parent: open.parent,
                kind,
                start_ns: (open.start - self.origin).as_nanos() as u64,
                dur_ns,
                self_ns,
            });
        }
    }

    pub fn agg(&self, kind: Kind) -> &Agg {
        &self.aggs[kind as usize]
    }

    /// Sum of the self times of every layer span, harness spans left
    /// out, in seconds: the part of a phase the layer spans account for.
    pub fn layer_self_s(&self) -> f64 {
        KINDS
            .iter()
            .filter(|&&k| k != Kind::Harness)
            .map(|&k| self.agg(k).self_s())
            .sum()
    }

    /// Tab-separated raw spans under a `# phase` header line.
    pub fn write_raw(&self, phase: &str, out: &mut String) {
        let _ = writeln!(out, "# phase {phase}");
        for s in &self.raw {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.parent,
                s.kind.name(),
                s.start_ns,
                s.dur_ns,
                s.self_ns
            );
        }
    }
}
