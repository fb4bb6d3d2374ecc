//! `obs` — structured observability for the event engine.
//!
//! The flat [`crate::stats::EventStats`] answers *how many* messages a
//! run cost; this module answers *where* and *how long*: per-node and
//! per-dimension counters, fixed-memory latency/hop/round histograms
//! with quantile readout, a bounded flight recorder for post-mortem
//! trace dumps, and a serializable [`MetricsSnapshot`] the experiment
//! harness exports next to its CSVs.
//!
//! Design constraints, in order:
//!
//! 1. **Zero perturbation.** Observability must never change what the
//!    engine computes: every hook is read-only with respect to
//!    protocol state, and the engine goldens
//!    (`tests/goldens/engine_goldens.txt`) are recorded with hooks
//!    compiled in — byte-identical whether a [`Metrics`] is installed
//!    or not.
//! 2. **Zero allocation when disabled.** An engine without an
//!    installed registry pays one `Option` discriminant test per hook
//!    site and allocates nothing.
//! 3. **Fixed memory when enabled.** All histograms are log-linear
//!    with a fixed bucket array ([`QuantileHist`]); the flight
//!    recorder is a ring buffer that keeps the *last* `cap` events of
//!    arbitrarily long runs. Nothing in the hot path grows with run
//!    length.

use crate::trace::{Severity, TraceEvent, TraceKind, TraceSink};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Linear region of [`QuantileHist`]: values `0..LINEAR` are counted
/// exactly, one bucket per value.
const LINEAR: u64 = 64;
/// Sub-buckets per power-of-two range above the linear region; bounds
/// the relative quantile error at `1/SUBBUCKETS` (12.5%).
const SUBBUCKETS: u64 = 8;
/// Total bucket count: 64 linear + 8 per octave for octaves 6..=63.
const BUCKETS: usize = (LINEAR + (64 - 6) * SUBBUCKETS) as usize;

/// A fixed-memory log-linear histogram over `u64` observations with
/// quantile readout, the workspace's one histogram: values below 64
/// are counted exactly, larger values land in one of 8 sub-buckets per
/// power-of-two range, so any tick count fits in ~4 KiB with ≤ 12.5%
/// relative quantile error (the maximum is tracked exactly).
#[derive(Clone, Debug)]
pub struct QuantileHist {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for QuantileHist {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < LINEAR {
        v as usize
    } else {
        // Octave k = floor(log2 v) ≥ 6; sub-bucket from the next 3
        // bits below the leading one.
        let k = 63 - v.leading_zeros() as u64;
        let sub = (v >> (k - 3)) & (SUBBUCKETS - 1);
        (LINEAR + (k - 6) * SUBBUCKETS + sub) as usize
    }
}

/// Upper bound of the values a bucket covers (the quantile
/// representative reported for it).
fn bucket_upper(i: usize) -> u64 {
    let i = i as u64;
    if i < LINEAR {
        i
    } else {
        let k = 6 + (i - LINEAR) / SUBBUCKETS;
        let sub = (i - LINEAR) % SUBBUCKETS;
        // Bucket covers [2^k + sub·2^(k-3), 2^k + (sub+1)·2^(k-3)).
        (1u64 << k) + (sub + 1).saturating_mul(1u64 << (k - 3)) - 1
    }
}

impl QuantileHist {
    /// An empty histogram (~4 KiB, allocated once).
    pub fn new() -> Self {
        QuantileHist {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Exact maximum observed, 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at quantile `q ∈ [0, 1]`: exact below 64, bucket
    /// upper bound (≤ 12.5% high) above; the top quantile is clamped
    /// to the exact maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// The standard readout: p50 / p95 / p99 / max.
    pub fn quantiles(&self) -> Quantiles {
        Quantiles {
            count: self.total,
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            max: self.max,
        }
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &QuantileHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Summary quantiles of one histogram, as exported in snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Quantiles {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (≤ 12.5% high above 63).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

/// Per-node counters (indexed by raw node id).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStat {
    /// Messages this node handed to the transport.
    pub sent: u64,
    /// Messages delivered to this node.
    pub delivered: u64,
    /// This node's sends dropped at a faulty destination/link, plus
    /// messages dropped on delivery because this node was dead.
    pub dropped: u64,
    /// This node's sends eaten by channel noise.
    pub lost: u64,
    /// Timer events fired on this node.
    pub timers: u64,
    /// Retransmissions performed by this node's ARQ endpoint.
    pub retransmits: u64,
    /// Acknowledgements sent by this node's ARQ endpoint.
    pub acks: u64,
    /// Whether the node was fault-stopped mid-run.
    pub killed: bool,
}

/// Per-dimension (port) counters, aggregated over all nodes — on a
/// binary cube, port ≡ dimension, so this is per-dimension link load.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DimStat {
    /// Messages sent out of this port.
    pub sent: u64,
    /// Messages delivered that arrived through this port (receiver
    /// side).
    pub delivered: u64,
    /// Sends out of this port eaten by channel noise.
    pub lost: u64,
    /// Duplicate copies the channel injected on this port.
    pub duplicated: u64,
    /// ARQ retransmissions on this port.
    pub retransmits: u64,
}

/// The metrics registry: installed into an
/// [`crate::event::EventEngine`] by [`crate::event::RunOptions::observe`],
/// filled by the engine / channel / ARQ hooks, handed back in
/// [`crate::event::RunReport::metrics`] and read via
/// [`Metrics::snapshot`]. Protocol runners additionally record
/// end-to-end observations ([`Metrics::record_hops`],
/// [`Metrics::record_rounds`]).
#[derive(Clone, Debug)]
pub struct Metrics {
    nodes: Vec<NodeStat>,
    dims: Vec<DimStat>,
    /// Per-delivery transit time (delivery tick − send tick): base
    /// latency + jitter + queueing, one observation per delivered
    /// copy. Recorded by the engine.
    pub latency: QuantileHist,
    /// End-to-end hop counts. Recorded by protocol runners (e.g. the
    /// unicast trail length).
    pub hops: QuantileHist,
    /// Convergence observations: synchronous rounds or quiescence
    /// ticks, whichever the recording runner documents. Recorded by
    /// protocol runners.
    pub rounds: QuantileHist,
    /// Channel fate decisions drawn ([`crate::channel::ChannelModel::decisions`]),
    /// folded in when the engine releases the registry.
    pub channel_decisions: u64,
}

impl Metrics {
    /// A registry sized for `num_nodes` nodes of maximum degree
    /// `max_degree`. (An observed engine sizes this from its
    /// network.)
    pub fn new(num_nodes: usize, max_degree: usize) -> Self {
        Metrics {
            nodes: vec![NodeStat::default(); num_nodes],
            dims: vec![DimStat::default(); max_degree],
            latency: QuantileHist::new(),
            hops: QuantileHist::new(),
            rounds: QuantileHist::new(),
            channel_decisions: 0,
        }
    }

    /// Per-node counters, indexed by raw node id.
    pub fn nodes(&self) -> &[NodeStat] {
        &self.nodes
    }

    /// Per-dimension counters, indexed by port number.
    pub fn dims(&self) -> &[DimStat] {
        &self.dims
    }

    // -- engine hooks (crate-public so the hot path can inline them) --

    #[inline]
    pub(crate) fn on_send(&mut self, src: u64, port: usize) {
        self.nodes[src as usize].sent += 1;
        self.dims[port].sent += 1;
    }

    #[inline]
    pub(crate) fn on_fault_drop(&mut self, src: u64) {
        self.nodes[src as usize].dropped += 1;
    }

    #[inline]
    pub(crate) fn on_lost(&mut self, src: u64, port: usize) {
        self.nodes[src as usize].lost += 1;
        self.dims[port].lost += 1;
    }

    #[inline]
    pub(crate) fn on_duplicated(&mut self, port: usize) {
        self.dims[port].duplicated += 1;
    }

    #[inline]
    pub(crate) fn on_delivered(&mut self, dst: u64, port: Option<usize>, transit: u64) {
        self.nodes[dst as usize].delivered += 1;
        if let Some(p) = port {
            self.dims[p].delivered += 1;
        }
        self.latency.record(transit);
    }

    #[inline]
    pub(crate) fn on_dead_drop(&mut self, dst: u64) {
        self.nodes[dst as usize].dropped += 1;
    }

    #[inline]
    pub(crate) fn on_timer(&mut self, dst: u64) {
        self.nodes[dst as usize].timers += 1;
    }

    #[inline]
    pub(crate) fn on_kill(&mut self, dst: u64) {
        self.nodes[dst as usize].killed = true;
    }

    #[inline]
    pub(crate) fn on_arq(&mut self, node: u64, retransmits: u64, acks: u64, retx_ports: &[usize]) {
        let n = &mut self.nodes[node as usize];
        n.retransmits += retransmits;
        n.acks += acks;
        for &p in retx_ports {
            if let Some(d) = self.dims.get_mut(p) {
                d.retransmits += 1;
            }
        }
    }

    // -- protocol-level recording --

    /// Records one end-to-end hop-count observation.
    pub fn record_hops(&mut self, hops: u64) {
        self.hops.record(hops);
    }

    /// Records one convergence observation (rounds or ticks — the
    /// recording runner documents which).
    pub fn record_rounds(&mut self, rounds: u64) {
        self.rounds.record(rounds);
    }

    /// Folds `other` into this registry (cross-trial aggregation).
    /// Counter vectors grow to the larger size; `killed` flags OR.
    pub fn merge(&mut self, other: &Metrics) {
        if other.nodes.len() > self.nodes.len() {
            self.nodes.resize(other.nodes.len(), NodeStat::default());
        }
        if other.dims.len() > self.dims.len() {
            self.dims.resize(other.dims.len(), DimStat::default());
        }
        for (a, b) in self.nodes.iter_mut().zip(other.nodes.iter()) {
            a.sent += b.sent;
            a.delivered += b.delivered;
            a.dropped += b.dropped;
            a.lost += b.lost;
            a.timers += b.timers;
            a.retransmits += b.retransmits;
            a.acks += b.acks;
            a.killed |= b.killed;
        }
        for (a, b) in self.dims.iter_mut().zip(other.dims.iter()) {
            a.sent += b.sent;
            a.delivered += b.delivered;
            a.lost += b.lost;
            a.duplicated += b.duplicated;
            a.retransmits += b.retransmits;
        }
        self.latency.merge(&other.latency);
        self.hops.merge(&other.hops);
        self.rounds.merge(&other.rounds);
        self.channel_decisions += other.channel_decisions;
    }

    /// Freezes the registry into an exportable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut totals = SnapshotTotals::default();
        for n in &self.nodes {
            totals.sends += n.sent;
            totals.delivered += n.delivered;
            totals.dropped += n.dropped;
            totals.lost += n.lost;
            totals.timers += n.timers;
            totals.retransmitted += n.retransmits;
            totals.acked += n.acks;
            totals.killed += n.killed as u64;
        }
        for d in &self.dims {
            totals.duplicated += d.duplicated;
        }
        MetricsSnapshot {
            totals,
            per_node: self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, &s)| (i as u64, s))
                .collect(),
            per_dim: self
                .dims
                .iter()
                .enumerate()
                .map(|(i, &s)| (i as u8, s))
                .collect(),
            latency: self.latency.quantiles(),
            hops: self.hops.quantiles(),
            rounds: self.rounds.quantiles(),
            channel_decisions: self.channel_decisions,
        }
    }
}

/// Workspace-wide totals of a snapshot (the per-run view
/// [`crate::stats::EventStats`] gives, recomputed from the per-node
/// rows so the two accountings can be cross-checked).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct SnapshotTotals {
    pub sends: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub lost: u64,
    pub duplicated: u64,
    pub retransmitted: u64,
    pub acked: u64,
    pub timers: u64,
    pub killed: u64,
}

/// A frozen, serializable view of one [`Metrics`] registry.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Aggregate counters.
    pub totals: SnapshotTotals,
    /// `(node id, counters)`, every node of the network.
    pub per_node: Vec<(u64, NodeStat)>,
    /// `(dimension, counters)`, every port index.
    pub per_dim: Vec<(u8, DimStat)>,
    /// Per-delivery transit-time quantiles.
    pub latency: Quantiles,
    /// End-to-end hop-count quantiles.
    pub hops: Quantiles,
    /// Convergence (rounds/ticks) quantiles.
    pub rounds: Quantiles,
    /// Channel fate decisions drawn.
    pub channel_decisions: u64,
}

fn json_quantiles(out: &mut String, q: &Quantiles) {
    let _ = write!(
        out,
        "{{\"count\":{},\"mean\":{:.4},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
        q.count, q.mean, q.p50, q.p95, q.p99, q.max
    );
}

impl MetricsSnapshot {
    /// Renders the snapshot as a single deterministic JSON object
    /// (fixed key order; no external serializer). The shape is pinned
    /// by `tests/goldens/obs_schema.json`.
    pub fn to_json(&self) -> String {
        let t = &self.totals;
        let mut out = String::with_capacity(1024 + 96 * self.per_node.len());
        let _ = write!(
            out,
            "{{\"schema\":\"hypersafe.obs.v1\",\"totals\":{{\"sends\":{},\"delivered\":{},\
             \"dropped\":{},\"lost\":{},\"duplicated\":{},\"retransmitted\":{},\"acked\":{},\
             \"timers\":{},\"killed\":{}}}",
            t.sends,
            t.delivered,
            t.dropped,
            t.lost,
            t.duplicated,
            t.retransmitted,
            t.acked,
            t.timers,
            t.killed
        );
        out.push_str(",\"latency\":");
        json_quantiles(&mut out, &self.latency);
        out.push_str(",\"hops\":");
        json_quantiles(&mut out, &self.hops);
        out.push_str(",\"rounds\":");
        json_quantiles(&mut out, &self.rounds);
        let _ = write!(out, ",\"channel_decisions\":{}", self.channel_decisions);
        out.push_str(",\"per_dim\":[");
        for (i, (dim, d)) in self.per_dim.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"dim\":{dim},\"sent\":{},\"delivered\":{},\"lost\":{},\"duplicated\":{},\
                 \"retransmits\":{}}}",
                d.sent, d.delivered, d.lost, d.duplicated, d.retransmits
            );
        }
        out.push_str("],\"per_node\":[");
        for (i, (node, n)) in self.per_node.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"node\":{node},\"sent\":{},\"delivered\":{},\"dropped\":{},\"lost\":{},\
                 \"timers\":{},\"retransmits\":{},\"acks\":{},\"killed\":{}}}",
                n.sent, n.delivered, n.dropped, n.lost, n.timers, n.retransmits, n.acks, n.killed
            );
        }
        out.push_str("]}");
        out
    }

    /// Renders the snapshot as a tall CSV (`scope,index,field,value`),
    /// one row per counter — trivially joinable/diffable.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("scope,index,field,value\n");
        let t = &self.totals;
        for (k, v) in [
            ("sends", t.sends),
            ("delivered", t.delivered),
            ("dropped", t.dropped),
            ("lost", t.lost),
            ("duplicated", t.duplicated),
            ("retransmitted", t.retransmitted),
            ("acked", t.acked),
            ("timers", t.timers),
            ("killed", t.killed),
            ("channel_decisions", self.channel_decisions),
        ] {
            let _ = writeln!(out, "total,,{k},{v}");
        }
        for (name, q) in [
            ("latency", &self.latency),
            ("hops", &self.hops),
            ("rounds", &self.rounds),
        ] {
            let _ = writeln!(out, "hist,{name},count,{}", q.count);
            let _ = writeln!(out, "hist,{name},mean,{:.4}", q.mean);
            let _ = writeln!(out, "hist,{name},p50,{}", q.p50);
            let _ = writeln!(out, "hist,{name},p95,{}", q.p95);
            let _ = writeln!(out, "hist,{name},p99,{}", q.p99);
            let _ = writeln!(out, "hist,{name},max,{}", q.max);
        }
        for (dim, d) in &self.per_dim {
            let _ = writeln!(out, "dim,{dim},sent,{}", d.sent);
            let _ = writeln!(out, "dim,{dim},delivered,{}", d.delivered);
            let _ = writeln!(out, "dim,{dim},lost,{}", d.lost);
            let _ = writeln!(out, "dim,{dim},duplicated,{}", d.duplicated);
            let _ = writeln!(out, "dim,{dim},retransmits,{}", d.retransmits);
        }
        for (node, n) in &self.per_node {
            let _ = writeln!(out, "node,{node},sent,{}", n.sent);
            let _ = writeln!(out, "node,{node},delivered,{}", n.delivered);
            let _ = writeln!(out, "node,{node},dropped,{}", n.dropped);
            let _ = writeln!(out, "node,{node},lost,{}", n.lost);
            let _ = writeln!(out, "node,{node},timers,{}", n.timers);
            let _ = writeln!(out, "node,{node},retransmits,{}", n.retransmits);
            let _ = writeln!(out, "node,{node},acks,{}", n.acks);
            let _ = writeln!(out, "node,{node},killed,{}", n.killed as u8);
        }
        out
    }
}

/// A bounded ring-buffer [`TraceSink`]: keeps the *last* `cap` events
/// that pass its kind/severity filter, so week-long DST or churn runs
/// can dump a post-mortem window instead of growing an unbounded
/// [`crate::trace::Trace`]. Events arriving while full evict the
/// oldest; [`FlightRecorder::evicted`] reports how many scrolled off.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    cap: usize,
    buf: VecDeque<TraceEvent>,
    min_severity: Severity,
    kinds: [bool; 3],
    seen: u64,
    evicted: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last `cap` events of every kind and
    /// severity (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            cap: cap.max(1),
            buf: VecDeque::with_capacity(cap.clamp(1, 4096)),
            min_severity: Severity::Debug,
            kinds: [true; 3],
            seen: 0,
            evicted: 0,
        }
    }

    /// Drops events below `min` before they enter the ring.
    pub fn with_min_severity(mut self, min: Severity) -> Self {
        self.min_severity = min;
        self
    }

    /// Keeps only events whose [`TraceKind`] is in `kinds`.
    pub fn with_kinds(mut self, kinds: &[TraceKind]) -> Self {
        self.kinds = [false; 3];
        for k in kinds {
            self.kinds[*k as usize] = true;
        }
        self
    }

    /// Events admitted by the filter since construction (retained or
    /// since evicted).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Admitted events that scrolled off the ring.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The retained window, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Renders the retained window one event per line, prefixed with a
    /// header stating what scrolled off.
    pub fn dump(&self) -> String {
        let mut out = format!(
            "-- flight recorder: last {} of {} events ({} evicted) --\n",
            self.buf.len(),
            self.seen,
            self.evicted
        );
        for ev in &self.buf {
            let _ = writeln!(out, "{ev}");
        }
        out
    }
}

impl TraceSink for FlightRecorder {
    fn record(&mut self, ev: TraceEvent) {
        if ev.severity() < self.min_severity || !self.kinds[ev.kind() as usize] {
            return;
        }
        self.seen += 1;
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(ev);
    }

    fn into_flight_recorder(self: Box<Self>) -> Option<FlightRecorder> {
        Some(*self)
    }
}

/// A minimal JSON value — just enough to validate exported snapshots
/// against the checked-in schema without an external parser.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// The schema type-name of this value (`"number"`, `"string"`,
    /// `"bool"`, `"array"`, `"object"`, `"null"`).
    pub fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::Num(_) => "number",
            JsonValue::Str(_) => "string",
            JsonValue::Arr(_) => "array",
            JsonValue::Obj(_) => "object",
        }
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Parses a JSON document (strict enough for the snapshots this module
/// emits; escapes are kept verbatim).
pub fn parse_json(s: &str) -> Result<JsonValue, String> {
    let b = s.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && (b[*pos] as char).is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut m = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(m));
            }
            loop {
                skip_ws(b, pos);
                let JsonValue::Str(k) = parse_value(b, pos)? else {
                    return Err(format!("object key must be a string at byte {pos}"));
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                m.push((k, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(m));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut a = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(a));
            }
            loop {
                a.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(a));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let start = *pos;
            while *pos < b.len() && b[*pos] != b'"' {
                if b[*pos] == b'\\' {
                    *pos += 1;
                }
                *pos += 1;
            }
            if *pos >= b.len() {
                return Err("unterminated string".into());
            }
            let s = String::from_utf8_lossy(&b[start..*pos]).into_owned();
            *pos += 1;
            Ok(JsonValue::Str(s))
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(JsonValue::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(JsonValue::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(JsonValue::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
                .map(JsonValue::Num)
                .ok_or_else(|| format!("invalid number at byte {start}"))
        }
    }
}

/// Validates `json` against a schema document: the schema is itself
/// JSON mirroring the expected shape, where every leaf is the string
/// name of the required type (`"number"`, `"string"`, `"bool"`),
/// objects require exactly their listed keys, and a one-element schema
/// array types every element of the instance array. Returns the first
/// mismatch as `Err`.
pub fn validate_json(json: &str, schema: &str) -> Result<(), String> {
    let doc = parse_json(json).map_err(|e| format!("document: {e}"))?;
    let sch = parse_json(schema).map_err(|e| format!("schema: {e}"))?;
    validate_value(&doc, &sch, "$")
}

fn validate_value(doc: &JsonValue, sch: &JsonValue, path: &str) -> Result<(), String> {
    match sch {
        JsonValue::Str(want) => {
            let got = doc.type_name();
            if got == want {
                Ok(())
            } else {
                Err(format!("{path}: expected {want}, got {got}"))
            }
        }
        JsonValue::Obj(fields) => {
            let JsonValue::Obj(m) = doc else {
                return Err(format!("{path}: expected object, got {}", doc.type_name()));
            };
            for (k, sub) in fields {
                let Some(v) = doc.get(k) else {
                    return Err(format!("{path}.{k}: missing"));
                };
                validate_value(v, sub, &format!("{path}.{k}"))?;
            }
            for (k, _) in m {
                if fields.iter().all(|(f, _)| f != k) {
                    return Err(format!("{path}.{k}: unexpected key"));
                }
            }
            Ok(())
        }
        JsonValue::Arr(elem) => {
            let JsonValue::Arr(items) = doc else {
                return Err(format!("{path}: expected array, got {}", doc.type_name()));
            };
            let Some(proto) = elem.first() else {
                return Ok(());
            };
            for (i, v) in items.iter().enumerate() {
                validate_value(v, proto, &format!("{path}[{i}]"))?;
            }
            Ok(())
        }
        _ => Err(format!("{path}: schema leaves must be type-name strings")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_topology::NodeId;

    #[test]
    fn hist_is_exact_in_the_linear_region() {
        let mut h = QuantileHist::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.total(), 64);
        assert_eq!(h.quantile(0.5), 31);
        assert_eq!(h.quantile(1.0), 63);
        assert_eq!(h.max(), 63);
        assert!((h.mean() - 31.5).abs() < 1e-9);
    }

    #[test]
    fn hist_quantile_error_is_bounded_above_linear() {
        let mut h = QuantileHist::new();
        for v in [100u64, 1_000, 10_000, 1_000_000, u64::MAX / 2] {
            h.record(v);
            let q = h.quantiles();
            assert_eq!(q.max, v, "max is exact");
        }
        // Every recorded value's bucket upper bound is within 12.5%.
        for v in [100u64, 1_000, 10_000, 1_000_000] {
            let ub = bucket_upper(bucket_of(v));
            assert!(ub >= v, "upper bound covers the value");
            assert!(ub as f64 <= v as f64 * 1.125 + 1.0, "{v} → {ub}");
        }
    }

    #[test]
    fn hist_bucket_roundtrip_is_monotone() {
        let mut prev = 0usize;
        for k in 0..200u64 {
            let v = k * k * k + k; // strictly increasing sample
            let b = bucket_of(v);
            assert!(b >= prev, "bucket index must not decrease: {v}");
            assert!(bucket_upper(b) >= v);
            prev = b;
        }
        assert!(bucket_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn hist_merge_matches_combined_recording() {
        let (mut a, mut b, mut c) = (
            QuantileHist::new(),
            QuantileHist::new(),
            QuantileHist::new(),
        );
        for v in 0..100u64 {
            a.record(v * 7);
            c.record(v * 7);
        }
        for v in 0..50u64 {
            b.record(v * 131);
            c.record(v * 131);
        }
        a.merge(&b);
        assert_eq!(a.total(), c.total());
        assert_eq!(a.max(), c.max());
        for q in [0.1, 0.5, 0.95, 0.99] {
            assert_eq!(a.quantile(q), c.quantile(q));
        }
    }

    #[test]
    fn empty_hist_reads_zero() {
        let h = QuantileHist::new();
        let q = h.quantiles();
        assert_eq!((q.count, q.p50, q.p99, q.max), (0, 0, 0, 0));
        assert_eq!(q.mean, 0.0);
    }

    #[test]
    fn metrics_snapshot_totals_sum_per_node_rows() {
        let mut m = Metrics::new(4, 2);
        m.on_send(0, 1);
        m.on_send(0, 0);
        m.on_delivered(1, Some(1), 3);
        m.on_lost(0, 0);
        m.on_timer(2);
        m.on_kill(3);
        m.record_hops(2);
        let s = m.snapshot();
        assert_eq!(s.totals.sends, 2);
        assert_eq!(s.totals.delivered, 1);
        assert_eq!(s.totals.lost, 1);
        assert_eq!(s.totals.timers, 1);
        assert_eq!(s.totals.killed, 1);
        assert_eq!(s.per_node.len(), 4);
        assert_eq!(s.per_dim.len(), 2);
        assert_eq!(s.hops.count, 1);
        assert_eq!(s.latency.max, 3);
    }

    #[test]
    fn metrics_merge_adds_counters() {
        let mut a = Metrics::new(2, 1);
        let mut b = Metrics::new(2, 1);
        a.on_send(0, 0);
        b.on_send(0, 0);
        b.on_kill(1);
        a.merge(&b);
        let s = a.snapshot();
        assert_eq!(s.totals.sends, 2);
        assert_eq!(s.totals.killed, 1);
    }

    #[test]
    fn snapshot_json_roundtrips_through_the_parser() {
        let mut m = Metrics::new(3, 2);
        m.on_send(1, 0);
        m.on_delivered(0, Some(0), 5);
        m.record_rounds(4);
        let json = m.snapshot().to_json();
        let v = parse_json(&json).expect("snapshot JSON parses");
        assert_eq!(
            v.get("schema"),
            Some(&JsonValue::Str("hypersafe.obs.v1".into()))
        );
        let Some(JsonValue::Arr(nodes)) = v.get("per_node") else {
            panic!("per_node array");
        };
        assert_eq!(nodes.len(), 3);
        assert_eq!(
            v.get("totals").and_then(|t| t.get("sends")),
            Some(&JsonValue::Num(1.0))
        );
    }

    #[test]
    fn snapshot_csv_is_tall_and_complete() {
        let mut m = Metrics::new(2, 1);
        m.on_send(0, 0);
        let csv = m.snapshot().to_csv();
        assert!(csv.starts_with("scope,index,field,value\n"));
        assert!(csv.contains("total,,sends,1\n"));
        assert!(csv.contains("hist,latency,p99,0\n"));
        assert!(csv.contains("node,0,sent,1\n"));
        assert!(csv.contains("dim,0,sent,1\n"));
    }

    #[test]
    fn validator_accepts_matching_and_rejects_drift() {
        let schema = r#"{"a":"number","b":[{"x":"number"}],"c":"string"}"#;
        assert!(validate_json(r#"{"a":1,"b":[{"x":2},{"x":3}],"c":"hi"}"#, schema).is_ok());
        // Missing key.
        assert!(validate_json(r#"{"a":1,"b":[],"c":"hi","d":0}"#, schema)
            .unwrap_err()
            .contains("unexpected key"));
        let err = validate_json(r#"{"a":1,"b":[{"x":"no"}],"c":"hi"}"#, schema).unwrap_err();
        assert!(err.contains("$.b[0].x"), "{err}");
        assert!(validate_json(r#"{"a":1,"c":"hi"}"#, schema)
            .unwrap_err()
            .contains("missing"));
    }

    #[test]
    fn flight_recorder_keeps_the_last_n() {
        let mut fr = FlightRecorder::new(3);
        for k in 0..10u64 {
            fr.record(TraceEvent::Hop {
                from: NodeId::new(k),
                to: NodeId::new(k + 1),
                dim: Some(0),
                word: k,
            });
        }
        assert_eq!(fr.seen(), 10);
        assert_eq!(fr.evicted(), 7);
        let words: Vec<u64> = fr
            .events()
            .map(|e| match e {
                TraceEvent::Hop { word, .. } => *word,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(words, vec![7, 8, 9], "the last three survive, in order");
        assert!(fr.dump().contains("last 3 of 10 events (7 evicted)"));
    }

    #[test]
    fn flight_recorder_filters_by_kind_and_severity() {
        let mut fr = FlightRecorder::new(8)
            .with_kinds(&[TraceKind::Note])
            .with_min_severity(Severity::Info);
        fr.record(TraceEvent::Hop {
            from: NodeId::ZERO,
            to: NodeId::new(1),
            dim: Some(0),
            word: 0,
        });
        fr.record(TraceEvent::Note("kept".into()));
        assert_eq!(fr.seen(), 1, "hops are filtered out");
        assert!(matches!(fr.events().next(), Some(TraceEvent::Note(s)) if s == "kept"));
    }
}
