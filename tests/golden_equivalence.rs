//! Golden equivalence harness for the engine unification refactor.
//!
//! Records the observable outcomes of every distributed entry point —
//! safety maps, unicast decisions and trails, broadcast coverage,
//! detector views, congestion summaries, and stats counters — across
//! `n ∈ {4, 6, 8}`, fault densities `{0, n, 2n}`, link-fault mixes,
//! and loss rates `{0%, 5%, 20%}`. The recorded file
//! (`tests/goldens/engine_goldens.txt`) was generated against the
//! pre-refactor twin engines; the unified engine must reproduce it
//! byte-for-byte. Later sections are appended, never interleaved: the
//! delta-GS actor protocol, then the centralized §3 hop walk (the full,
//! light and batched routers and the routing service's attempt, under
//! every tie-break policy), recorded before the three walks were
//! merged into one, then the observed reliable GS and lossy unicast
//! runs (each metrics snapshot's JSON checksum and totals), recorded
//! before the event-driven runners were folded into one per protocol,
//! then whole routing-service runs (each run's request records, stats,
//! violations and end time) under FIFO and adversarial same-tick
//! orders, recorded before the loop stopped queueing the deadlines of
//! requests that finish on their first attempt.
//!
//! Regenerate (only when intentionally changing observable behavior):
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test --test golden_equivalence
//! ```

use hypersafe::experiments::congestion_exp::{run_burst, simulate_burst};
use hypersafe::safety::unicast_distributed::{
    run_gh_unicast, run_unicast, run_unicast_lossy, LossyOutcome,
};
use hypersafe::safety::{
    detect, route_light, route_many_tb, route_tb, run_broadcast, run_delta_gs, run_gh_gs, run_gs,
    run_gs_async, run_gs_reliable, BatchOutcome, ChurnEvent, Decision, DetectorParams, GhSafetyMap,
    SafetyMap, SafetyService, TieBreak,
};
use hypersafe::simkit::{
    AdversarialScheduler, AttemptOutcome, AttemptVerdict, ChannelModel, EventStats, FifoScheduler,
    Metrics, ReliableConfig, RouteProvider, RoutingService, RunOptions, Scheduler, ServiceConfig,
    SyncStats,
};
use hypersafe::topology::{FaultConfig, GeneralizedHypercube, GhNode, Hypercube, NodeId, Topology};
use hypersafe::workloads::{open_loop_mix, random_pair, uniform_faults, OpenLoop, Sweep};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write as _;

/// SplitMix64: deterministic pair sampling without threading an RNG
/// through the harness.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One deterministic fault instance per (n, m), drawn from the same
/// seeded sweep machinery the experiments use.
fn node_fault_cfg(n: u8, m: usize) -> FaultConfig {
    let cube = Hypercube::new(n);
    let seed = 0x601D ^ ((n as u64) << 8) ^ m as u64;
    Sweep::new(1, seed)
        .run_seq(|_, rng| FaultConfig::with_node_faults(cube, uniform_faults(cube, m, rng)))
        .pop()
        .expect("one instance")
}

/// Deterministic link-fault injection by fixed stride, so before/after
/// comparisons see identical instances.
fn add_link_faults(mut cfg: FaultConfig, count: usize) -> FaultConfig {
    let cube = cfg.cube();
    let nodes = cube.num_nodes();
    let n = cube.dim() as u64;
    let mut inserted = 0usize;
    let mut k = 0u64;
    while inserted < count {
        let a = NodeId::new((k.wrapping_mul(0x9E37_79B9)) % nodes);
        let b = a.neighbor((k % n) as u8);
        if cfg.link_faults_mut().insert(a, b) {
            inserted += 1;
        }
        k += 1;
    }
    cfg
}

/// Deterministic healthy (s, d) pairs, s != d.
fn sample_pairs(cfg: &FaultConfig, count: usize, salt: u64) -> Vec<(NodeId, NodeId)> {
    let healthy: Vec<NodeId> = cfg.healthy_nodes().collect();
    let mut state = 0xD1CE ^ salt;
    let mut pairs = Vec::new();
    while pairs.len() < count {
        let s = healthy[(splitmix64(&mut state) % healthy.len() as u64) as usize];
        let d = healthy[(splitmix64(&mut state) % healthy.len() as u64) as usize];
        if s != d {
            pairs.push((s, d));
        }
    }
    pairs
}

fn fmt_sync_stats(s: &SyncStats) -> String {
    format!(
        "rounds_run={} active={} msgs={} changes={}",
        s.rounds_run, s.active_rounds, s.messages, s.state_changes
    )
}

fn fmt_event_stats(s: &EventStats) -> String {
    format!(
        "delivered={} dropped={} lost={} dup={} retx={} acked={} timers={} end={}",
        s.delivered,
        s.dropped,
        s.lost,
        s.duplicated,
        s.retransmitted,
        s.acked,
        s.timers,
        s.end_time
    )
}

fn fmt_levels(levels: &[u8]) -> String {
    let mut s = String::with_capacity(levels.len() * 2);
    for &l in levels {
        let _ = write!(s, "{l:x}");
    }
    s
}

fn fmt_trail(trail: &Option<Vec<NodeId>>) -> String {
    match trail {
        None => "-".to_string(),
        Some(t) => fmt_nodes(t),
    }
}

fn fmt_nodes(nodes: &[NodeId]) -> String {
    nodes
        .iter()
        .map(|a| a.raw().to_string())
        .collect::<Vec<_>>()
        .join(">")
}

fn fmt_lossy_outcome(o: &LossyOutcome) -> String {
    match o {
        LossyOutcome::Delivered { retransmits, delay } => {
            format!("Delivered(retx={retransmits},delay={delay})")
        }
        LossyOutcome::TimedOut => "TimedOut".to_string(),
        LossyOutcome::AbortedAt(a) => format!("AbortedAt({})", a.raw()),
        LossyOutcome::HolderFailed(a) => format!("HolderFailed({})", a.raw()),
    }
}

const LOSS_RATES: [(u64, f64); 3] = [(0, 0.0), (5, 0.05), (20, 0.20)];
const MAX_EVENTS: u64 = 2_000_000;

/// A FIFO run over `channel` with the goldens' event budget, observed
/// or not.
fn lossy(channel: ChannelModel, observe: bool) -> RunOptions {
    RunOptions {
        channel: Some(channel),
        max_events: MAX_EVENTS,
        observe,
        ..RunOptions::default()
    }
}

/// Records every observable outcome for one cube fault instance.
fn record_cube_scenario(out: &mut Vec<String>, tag: &str, cfg: &FaultConfig) {
    let n = cfg.cube().dim();

    // Synchronous GS (SyncEngine).
    let sync = run_gs(cfg);
    out.push(format!(
        "{tag} gs_sync levels={} rounds={} {}",
        fmt_levels(&sync.map.to_vec()),
        sync.map.rounds(),
        fmt_sync_stats(&sync.stats)
    ));
    if cfg.link_faults().is_empty() {
        let central = SafetyMap::compute(cfg);
        assert_eq!(
            sync.map.store(),
            central.store(),
            "{tag}: distributed GS must match the centralized fixed point"
        );
    }

    // Asynchronous event-driven GS (EventEngine).
    let (arun, _) = run_gs_async(cfg, 3, RunOptions::default());
    out.push(format!(
        "{tag} gs_async levels={} {}",
        fmt_levels(&arun.map.to_vec()),
        fmt_event_stats(&arun.stats)
    ));

    // GS over lossy channels with the reliable ARQ layer.
    for (pct, loss) in LOSS_RATES {
        let channel = ChannelModel::new(0xC4A_u64 ^ ((n as u64) << 16) ^ pct)
            .with_loss(loss)
            .with_jitter(2);
        let (run, _) = run_gs_reliable(cfg, ReliableConfig::default(), 1, lossy(channel, false));
        out.push(format!(
            "{tag} gs_reliable loss={pct} levels={} quiescent={} abandoned={} {}",
            fmt_levels(&run.map.to_vec()),
            run.quiescent,
            run.links_abandoned,
            fmt_event_stats(&run.stats)
        ));
    }

    // Unicast: lossless distributed protocol + lossy reliable variant.
    let map = sync.map.clone();
    for (i, &(s, d)) in sample_pairs(cfg, 4, n as u64).iter().enumerate() {
        let (run, _) = run_unicast(cfg, &map, s, d, 2, RunOptions::default());
        out.push(format!(
            "{tag} unicast[{i}] {}->{} decision={:?} trail={} arrival={:?} msgs={}",
            s.raw(),
            d.raw(),
            run.decision,
            fmt_trail(&run.trail),
            run.arrival_time,
            run.messages
        ));
        for (pct, loss) in LOSS_RATES {
            let channel = ChannelModel::new(0xF00D ^ ((i as u64) << 24) ^ pct)
                .with_loss(loss)
                .with_jitter(1);
            let rcfg = ReliableConfig::default();
            let (run, _) = run_unicast_lossy(cfg, &map, s, d, 2, rcfg, lossy(channel, false));
            out.push(format!(
                "{tag} unicast_lossy[{i}] loss={pct} outcome={} trail={} dupes={} {}",
                fmt_lossy_outcome(&run.outcome),
                fmt_trail(&run.trail),
                run.duplicate_deliveries,
                fmt_event_stats(&run.stats)
            ));
        }
    }

    // Broadcast from the first healthy node.
    if let Some(source) = cfg.healthy_nodes().next() {
        let b = run_broadcast(cfg, &map, source, 2, RunOptions::default()).0;
        out.push(format!(
            "{tag} broadcast src={} coverage={} msgs={} steps={} relay={:?}",
            source.raw(),
            b.coverage(),
            b.messages,
            b.steps,
            b.relayed_via.map(|a| a.raw())
        ));
    }

    // Heartbeat fault detection.
    let det = detect(cfg, DetectorParams::default());
    let (fneg, fpos) = det.accuracy(cfg);
    out.push(format!(
        "{tag} detect msgs={} duration={} fneg={fneg} fpos={fpos}",
        det.messages, det.duration
    ));

    // Congestion: a burst of queued unicasts over the event engine.
    let pairs = sample_pairs(cfg, 6, 0xB00 ^ n as u64);
    let burst = simulate_burst(cfg, &map, &pairs, TieBreak::LowestDim);
    out.push(format!(
        "{tag} burst delivered={} mean={:.4} max={} slowdown={:.4}",
        burst.delivered, burst.mean_latency, burst.max_latency, burst.slowdown
    ));
}

/// Records the generalized-hypercube protocol trio on one instance.
fn record_gh_scenario(
    out: &mut Vec<String>,
    tag: &str,
    gh: &GeneralizedHypercube,
    faults: &hypersafe::topology::FaultSet,
) {
    let (map, stats) = run_gh_gs(gh, faults);
    out.push(format!(
        "{tag} gh_gs levels={} {}",
        fmt_levels(&map.to_vec()),
        fmt_sync_stats(&stats)
    ));
    let central = GhSafetyMap::compute(gh, faults);
    assert_eq!(
        map.store(),
        central.store(),
        "{tag}: distributed GH GS must match the centralized fixed point"
    );

    let healthy: Vec<u64> = (0..gh.num_nodes())
        .filter(|&a| !faults.contains(NodeId::new(a)))
        .collect();
    let mut state = 0x6E ^ gh.num_nodes();
    for i in 0..4usize {
        let s = healthy[(splitmix64(&mut state) % healthy.len() as u64) as usize];
        let mut d = s;
        while d == s {
            d = healthy[(splitmix64(&mut state) % healthy.len() as u64) as usize];
        }
        let opts = RunOptions::default();
        let run = run_gh_unicast(gh, &map, faults, GhNode(s), GhNode(d), 2, opts).0;
        let trail = match &run.trail {
            None => "-".to_string(),
            Some(t) => t
                .iter()
                .map(|a| a.raw().to_string())
                .collect::<Vec<_>>()
                .join(">"),
        };
        // GH lines name the decision's variant only: they were recorded
        // before a GH decision carried its condition and first dimension.
        let decision = format!("{:?}", run.decision);
        let variant = decision.split(' ').next().unwrap_or_default();
        out.push(format!(
            "{tag} gh_unicast[{i}] {s}->{d} decision={variant} trail={trail} msgs={}",
            run.messages
        ));
    }
}

/// Records the delta-GS actor protocol on one instance: one fresh
/// fault and (when the instance has faults) one recovery, each applied
/// incrementally from the instance's fixed point. The centralized
/// worklist engine must land on the same map, and its cost accounting
/// is part of the recording.
fn record_delta_scenario(out: &mut Vec<String>, tag: &str, cfg: &FaultConfig) {
    let map = SafetyMap::compute(cfg);
    let mut state = 0xDE17A ^ ((cfg.cube().dim() as u64) << 8) ^ cfg.node_faults().len() as u64;

    let healthy: Vec<NodeId> = cfg.healthy_nodes().collect();
    let v = healthy[(splitmix64(&mut state) % healthy.len() as u64) as usize];
    let mut cfg2 = cfg.clone();
    cfg2.node_faults_mut().insert(v);
    let (run, _) = run_delta_gs(&cfg2, &map, ChurnEvent::Fault(v), 2, RunOptions::default());
    let mut central = map.clone();
    let stats = central.apply_fault(&cfg2, v);
    assert_eq!(
        central.store(),
        run.map.store(),
        "{tag}: delta-GS must match the centralized incremental update"
    );
    out.push(format!(
        "{tag} delta_fault v={} levels={} touched={} changed={} waves={} saved={} {}",
        v.raw(),
        fmt_levels(&run.map.to_vec()),
        stats.cells_touched,
        stats.cells_changed,
        stats.waves,
        stats.rounds_saved,
        fmt_event_stats(&run.stats)
    ));

    if let Some(r) = cfg.node_faults().iter().next() {
        let mut cfg2 = cfg.clone();
        cfg2.node_faults_mut().remove(r);
        let (run, _) = run_delta_gs(
            &cfg2,
            &map,
            ChurnEvent::Recover(r),
            2,
            RunOptions::default(),
        );
        let mut central = map.clone();
        let stats = central.apply_recover(&cfg2, r);
        assert_eq!(
            central.store(),
            run.map.store(),
            "{tag}: delta-GS recovery must match the centralized incremental update"
        );
        out.push(format!(
            "{tag} delta_recover v={} levels={} touched={} changed={} waves={} saved={} {}",
            r.raw(),
            fmt_levels(&run.map.to_vec()),
            stats.cells_touched,
            stats.cells_changed,
            stats.waves,
            stats.rounds_saved,
            fmt_event_stats(&run.stats)
        ));
    }
}

/// One batched outcome as `<decision class><hops><d|u>`, e.g. `O4d`.
fn fmt_batch(o: &BatchOutcome) -> String {
    let class = match o.decision {
        Decision::Optimal { .. } => 'O',
        Decision::Suboptimal { .. } => 'S',
        Decision::Failure => 'F',
        Decision::AlreadyThere => 'A',
    };
    let fate = if o.delivered { 'd' } else { 'u' };
    format!("{class}{}{fate}", o.hops)
}

const WALK_POLICIES: [TieBreak; 3] = [
    TieBreak::LowestDim,
    TieBreak::HighestDim,
    TieBreak::Hashed { salt: 0x5A17 },
];

/// Records the centralized §3 hop walk on one instance, under every
/// tie-break policy: the full router's decision, path and delivery,
/// the light router's outcome, the batched router over all the pairs,
/// and (node faults only) a quiet routing service's verdict and trail.
///
/// Besides sampled healthy pairs, the pair list holds `s == d`, a
/// faulty destination and a faulty source (when the instance has
/// faults), and both directions of every faulty link between healthy
/// nodes, which is the only way to reach the walk's link-cut exit.
fn record_walk_scenario(out: &mut Vec<String>, tag: &str, cfg: &FaultConfig) {
    let n = cfg.cube().dim();
    let map = run_gs(cfg).map;
    let mut pairs = sample_pairs(cfg, 12, 0x3A1C ^ n as u64);
    let h = cfg.healthy_nodes().next().expect("a healthy node");
    pairs.push((h, h));
    if let Some(f) = cfg.node_faults().iter().next() {
        pairs.push((h, f));
        pairs.push((f, h));
    }
    for (a, b) in cfg.link_faults().iter() {
        if !cfg.node_faulty(a) && !cfg.node_faulty(b) {
            pairs.push((a, b));
            pairs.push((b, a));
        }
    }
    let node_faults_only = cfg.link_faults().is_empty();
    for (k, tb) in WALK_POLICIES.into_iter().enumerate() {
        let mut svc = node_faults_only.then(|| SafetyService::with_tiebreak(cfg.clone(), tb));
        for &(s, d) in &pairs {
            let head = format!("{tag} tb{k} {}->{}", s.raw(), d.raw());
            let full = route_tb(cfg, &map, s, d, tb);
            let path = full
                .path
                .as_ref()
                .map_or("-".to_string(), |p| fmt_nodes(p.nodes()));
            out.push(format!(
                "{head} route decision={:?} path={path} delivered={}",
                full.decision, full.delivered
            ));
            let light = route_light(cfg, &map, s, d, tb);
            out.push(format!("{head} light={}", fmt_batch(&light)));
            if let Some(svc) = svc.as_mut() {
                let mut trail = Vec::new();
                let got = svc.attempt_traced(s, d, &mut trail);
                out.push(format!(
                    "{head} service epoch={} verdict={:?} trail={}",
                    got.epoch,
                    got.verdict,
                    fmt_nodes(&trail)
                ));
            }
        }
        let many = route_many_tb(cfg, &map, &pairs, tb);
        let many: Vec<String> = many.iter().map(fmt_batch).collect();
        out.push(format!("{tag} tb{k} many={}", many.join(",")));
    }
}

/// One metrics registry as the FNV-1a checksum of its snapshot JSON
/// plus the snapshot's totals, histogram counts and channel draws.
fn fmt_metrics(m: &Metrics) -> String {
    let snap = m.snapshot();
    let json = snap.to_json();
    let fnv = json.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    });
    let t = &snap.totals;
    format!(
        "json={fnv:016x} sends={} delivered={} dropped={} lost={} dup={} retx={} acked={} \
         timers={} killed={} latency={} hops={} rounds={} decisions={}",
        t.sends,
        t.delivered,
        t.dropped,
        t.lost,
        t.duplicated,
        t.retransmitted,
        t.acked,
        t.timers,
        t.killed,
        snap.latency.count,
        snap.hops.count,
        snap.rounds.count,
        snap.channel_decisions
    )
}

/// Records the observed reliable GS and lossy unicast runs on one
/// instance, with the same channels and pairs as the unobserved lines
/// of [`record_cube_scenario`]: the run itself and what its metrics
/// registry saw, from the actors' first `on_start` sends on.
fn record_obs_scenario(out: &mut Vec<String>, tag: &str, cfg: &FaultConfig) {
    let n = cfg.cube().dim();
    for (pct, loss) in LOSS_RATES {
        let channel = ChannelModel::new(0xC4A_u64 ^ ((n as u64) << 16) ^ pct)
            .with_loss(loss)
            .with_jitter(2);
        let (run, report) =
            run_gs_reliable(cfg, ReliableConfig::default(), 1, lossy(channel, true));
        let m = report.metrics.expect("observed");
        out.push(format!(
            "{tag} gs_reliable loss={pct} levels={} quiescent={} {} {}",
            fmt_levels(&run.map.to_vec()),
            run.quiescent,
            fmt_event_stats(&run.stats),
            fmt_metrics(&m)
        ));
    }
    let map = run_gs(cfg).map;
    for (i, &(s, d)) in sample_pairs(cfg, 4, n as u64).iter().enumerate() {
        for (pct, loss) in LOSS_RATES {
            let channel = ChannelModel::new(0xF00D ^ ((i as u64) << 24) ^ pct)
                .with_loss(loss)
                .with_jitter(1);
            let rcfg = ReliableConfig::default();
            let (run, report) = run_unicast_lossy(cfg, &map, s, d, 2, rcfg, lossy(channel, true));
            let m = report.metrics.expect("observed");
            out.push(format!(
                "{tag} unicast_lossy[{i}] loss={pct} outcome={} trail={} {} {}",
                fmt_lossy_outcome(&run.outcome),
                fmt_trail(&run.trail),
                fmt_event_stats(&run.stats),
                fmt_metrics(&m)
            ));
        }
    }
}

/// Forwards churn and publication to `SafetyService` but answers every
/// attempt `Stale`, so every admitted request retries and has its
/// deadline queued.
struct AlwaysStale(SafetyService);

impl RouteProvider for AlwaysStale {
    fn attempt(&mut self, _s: NodeId, _d: NodeId) -> AttemptOutcome {
        AttemptOutcome {
            epoch: self.0.current_epoch(),
            verdict: AttemptVerdict::Stale,
        }
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
    fn check_invariants(&mut self) -> Result<(), String> {
        self.0.check_invariants()
    }
}

/// FIFO, then three adversarial same-tick orders.
fn service_schedulers() -> [(String, Box<dyn Scheduler>); 4] {
    let adv = |seed: u64| -> (String, Box<dyn Scheduler>) {
        (
            format!("adv{seed:x}"),
            Box::new(AdversarialScheduler::permute(seed)),
        )
    };
    [
        ("fifo".to_string(), Box::new(FifoScheduler)),
        adv(0x5E1),
        adv(0x5E2),
        adv(0x5E3),
    ]
}

/// Records whole routing-service runs over E26's open-loop mix on one
/// cube: one line per scheduler with the FNV-1a checksum of the request
/// records, the rendered stats, the violations and the end time.
fn record_service_scenario<P: RouteProvider>(
    out: &mut Vec<String>,
    tag: &str,
    n: u8,
    churn_pct: u64,
    cfg: ServiceConfig,
    provider: impl Fn(FaultConfig) -> P,
) {
    let cube = Hypercube::new(n);
    let wl = OpenLoop {
        requests: 300,
        churn_prob: churn_pct as f64 / 100.0,
        max_live_faults: usize::from(n - 1),
        cancel_prob: 0.05,
        ..OpenLoop::default()
    };
    let seed = 0x5E4_71CE ^ (u64::from(n) << 8) ^ churn_pct;
    let injections = open_loop_mix(cube, &wl, &mut ChaCha8Rng::seed_from_u64(seed));
    for (name, sched) in service_schedulers() {
        let mut svc =
            RoutingService::with_scheduler(provider(FaultConfig::fault_free(cube)), cfg, sched);
        svc.load(&injections);
        svc.run();
        let records = format!("{:?}", svc.request_records().collect::<Vec<_>>());
        let fnv = records.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        });
        out.push(format!(
            "{tag} {name} records={fnv:016x} n={} now={} violations={:?} stats={}",
            svc.num_requests(),
            svc.now(),
            svc.violations(),
            svc.stats().render().trim_end().replace('\n', "; ")
        ));
    }
}

fn collect_goldens() -> Vec<String> {
    let mut out = Vec::new();
    for n in [4u8, 6, 8] {
        for m in [0usize, n as usize, 2 * n as usize] {
            let cfg = node_fault_cfg(n, m);
            record_cube_scenario(&mut out, &format!("n{n}/m{m}"), &cfg);
        }
        // Mixed node + link faults (centralized comparison skipped
        // inside — the fixed point there is distributed-only).
        let cfg = add_link_faults(node_fault_cfg(n, n as usize / 2), n as usize);
        record_cube_scenario(&mut out, &format!("n{n}/links{n}"), &cfg);
    }

    // GH instances: the paper's Fig. 5 cube and a flat two-dimensional
    // one exercising radix > 2 cliques.
    let gh = GeneralizedHypercube::from_product(&[2, 3, 2]);
    let f = gh.fault_set_from_strs(&["011", "100", "111", "121"]);
    record_gh_scenario(&mut out, "gh232", &gh, &f);
    let gh2 = GeneralizedHypercube::from_product(&[3, 4]);
    let f2 = gh2.fault_set_from_strs(&["00", "12", "23"]);
    record_gh_scenario(&mut out, "gh34", &gh2, &f2);

    // Delta-GS incremental updates (appended after the original
    // matrix so the pre-existing golden lines keep their positions).
    for n in [4u8, 6, 8] {
        for m in [0usize, n as usize, 2 * n as usize] {
            let cfg = node_fault_cfg(n, m);
            record_delta_scenario(&mut out, &format!("delta/n{n}/m{m}"), &cfg);
        }
    }

    // The centralized hop walk, appended after the delta-GS section
    // for the same reason.
    for n in [4u8, 6, 8] {
        for m in [0usize, n as usize, 2 * n as usize] {
            let cfg = node_fault_cfg(n, m);
            record_walk_scenario(&mut out, &format!("walk/n{n}/m{m}"), &cfg);
        }
        let cfg = add_link_faults(node_fault_cfg(n, n as usize / 2), n as usize);
        record_walk_scenario(&mut out, &format!("walk/n{n}/links{n}"), &cfg);
    }

    // Observed reliable runs, appended after the walk section.
    for n in [4u8, 6, 8] {
        for m in [0usize, n as usize, 2 * n as usize] {
            let cfg = node_fault_cfg(n, m);
            record_obs_scenario(&mut out, &format!("obs/n{n}/m{m}"), &cfg);
        }
        let cfg = add_link_faults(node_fault_cfg(n, n as usize / 2), n as usize);
        record_obs_scenario(&mut out, &format!("obs/n{n}/links{n}"), &cfg);
    }

    // Routing-service runs, appended after the observed runs.
    for n in 4u8..=8 {
        for pct in [0, 5, 20] {
            let tag = format!("service/n{n}/churn{pct}");
            let cfg = ServiceConfig::default();
            record_service_scenario(&mut out, &tag, n, pct, cfg, SafetyService::new);
        }
        // Every attempt stale: every admitted request queues its
        // deadline, and a long retry budget lets many of them fire.
        let cfg = ServiceConfig {
            retry_limit: 8,
            ..ServiceConfig::default()
        };
        let stale = |f| AlwaysStale(SafetyService::new(f));
        record_service_scenario(&mut out, &format!("service/n{n}/stale"), n, 5, cfg, stale);
    }
    out
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/engine_goldens.txt")
}

#[test]
fn engine_outcomes_match_pre_refactor_goldens() {
    let got = collect_goldens();
    let path = golden_path();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir goldens");
        std::fs::write(&path, got.join("\n") + "\n").expect("write goldens");
        return;
    }
    let want_raw = std::fs::read_to_string(&path)
        .expect("goldens missing — run with GOLDEN_REGEN=1 to record");
    let want: Vec<&str> = want_raw.lines().collect();
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(
            g,
            w,
            "golden mismatch at line {} — engine behavior diverged from the \
             pre-refactor recording",
            i + 1
        );
    }
    assert_eq!(
        got.len(),
        want.len(),
        "golden line count changed ({} recorded, {} produced)",
        want.len(),
        got.len()
    );
}

/// E21's queueing forwarder applies the same §3 rule as `route_tb`:
/// its burst delivers exactly the jobs `route_tb` delivers, under both
/// of E21's policies (`Hashed` salted by the job id), on every golden
/// cube scenario and on random Q7 bursts dense enough to hold Failure
/// and C3 pairs.
#[test]
fn burst_delivers_exactly_what_route_delivers() {
    let mut cases = Vec::new();
    for n in [4u8, 6, 8] {
        for m in [0usize, n as usize, 2 * n as usize] {
            cases.push((format!("n{n}/m{m}"), node_fault_cfg(n, m)));
        }
        let cfg = add_link_faults(node_fault_cfg(n, n as usize / 2), n as usize);
        cases.push((format!("n{n}/links{n}"), cfg));
    }
    let cube = Hypercube::new(7);
    for m in [7usize, 16, 28] {
        let cfg = Sweep::new(1, 0xE21 ^ m as u64)
            .run_seq(|_, rng| FaultConfig::with_node_faults(cube, uniform_faults(cube, m, rng)))
            .pop()
            .expect("one instance");
        cases.push((format!("q7/m{m}"), cfg));
    }
    let (mut failures, mut detours) = (0, 0);
    for (tag, cfg) in &cases {
        // The golden scenarios route on the lock-step GS map (link
        // faults included); the Q7 bursts are larger.
        let map = run_gs(cfg).map;
        let n = cfg.cube().dim() as u64;
        let pairs = if tag.starts_with("q7") {
            let mut rng = Sweep::new(1, n).trial_rng(0);
            (0..256).map(|_| random_pair(cfg, &mut rng)).collect()
        } else {
            sample_pairs(cfg, 6, 0xB00 ^ n)
        };
        for tb in [TieBreak::LowestDim, TieBreak::Hashed { salt: 0 }] {
            let want: Vec<bool> = pairs
                .iter()
                .enumerate()
                .map(|(i, &(s, d))| {
                    let tb = match tb {
                        TieBreak::Hashed { .. } => TieBreak::Hashed { salt: i as u64 },
                        other => other,
                    };
                    route_tb(cfg, &map, s, d, tb).delivered
                })
                .collect();
            let mut got = vec![false; pairs.len()];
            for (job, _, _) in run_burst(cfg, &map, &pairs, tb) {
                got[job as usize] = true;
            }
            assert_eq!(got, want, "{tag} {tb:?}");
        }
        for &(s, d) in &pairs {
            match route_tb(cfg, &map, s, d, TieBreak::LowestDim).decision {
                Decision::Failure => failures += 1,
                Decision::Suboptimal { .. } => detours += 1,
                _ => {}
            }
        }
    }
    assert!(
        failures > 0 && detours > 0,
        "{failures} Failure and {detours} C3 pairs"
    );
}
