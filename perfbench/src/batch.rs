//! `batch-route`: batches of random healthy pairs routed against one
//! safety map on Q20 with uniform faults — the query path alone.
//!
//! The timed call is `route_many_seq`, the one-thread path of the batch
//! API (`route_many` at `RAYON_NUM_THREADS=1` is this loop). Timed at
//! two threads, the same workload moved by 15–27% between runs of one
//! build on the reference host, because each batch waits for whichever
//! of the two vCPUs is slowed by other load on the host; so the
//! executor is checked on every batch here (its output must equal
//! `route_many_seq`) and timed by the traced run's direct replays
//! (`t2_speedup`, `call_us`).
//!
//! A run holds two independent fault configurations, so one placement
//! does not set the run's figures alone. Pairs are stored compactly and
//! copied into a reused buffer before each timed call, so the call
//! touches its map and 16 KiB of pairs, not a stream through 8 MiB.

use crate::stats::{fnv1a, median, ns, BestOf};
use crate::trace::{Kind, Tracer};
use crate::Phase;
use hypersafe_core::{route_many, route_many_seq, BatchOutcome, Decision, SafetyMap};
use hypersafe_topology::{FaultConfig, Hypercube, NodeId};
use hypersafe_workloads::{random_pair, uniform_faults};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

pub const DIM: u8 = 20;
/// Uniform node faults per configuration, 0.4% of the nodes. At this
/// density every placement tried (20 of them) needs three Jacobi rounds,
/// so the set-up time does not swing with the seed; at 0.2% a placement
/// needs two or three, which moved a map's build time by half.
pub const FAULTS: usize = 4_096;
/// Pairs per batch (the latency unit).
pub const BATCH: usize = 1_024;
/// Independent fault configurations per run.
pub const CONFIGS: usize = 2;
/// Distinct batches, routed in turn, a run of consecutive batches per
/// configuration so its map stays in cache between calls. One pass over
/// them is a round.
pub const BATCHES: usize = 1_024;

/// The generated inputs. The system under test, one safety map per
/// configuration, is built from them by [`build_maps`].
pub struct Prepared {
    pub cfgs: Vec<FaultConfig>,
    /// Every batch's pairs, batch after batch, as raw addresses.
    pairs: Vec<[u32; 2]>,
    /// Digest of each batch's outcomes, which every timed call must
    /// reproduce.
    digests: Vec<u64>,
    /// Over all batches' outcomes: hops walked, and source decisions
    /// that were suboptimal or failures.
    pub hops: u64,
    pub suboptimal: u64,
    pub failures: u64,
}

/// Generates the workload and checks, on every batch, that the
/// executor's two-thread `route_many` equals `route_many_seq`.
pub fn prepare(seed: u64) -> Result<Prepared, String> {
    let cube = Hypercube::new(DIM);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ ((DIM as u64) << 40));
    let cfgs: Vec<FaultConfig> = (0..CONFIGS)
        .map(|_| FaultConfig::with_node_faults(cube, uniform_faults(cube, FAULTS, &mut rng)))
        .collect();
    let pairs = (0..BATCHES * BATCH)
        .map(|k| {
            let (s, d) = random_pair(&cfgs[k / BATCH / (BATCHES / CONFIGS)], &mut rng);
            [s.raw() as u32, d.raw() as u32]
        })
        .collect();
    let mut p = Prepared {
        cfgs,
        pairs,
        digests: Vec::with_capacity(BATCHES),
        hops: 0,
        suboptimal: 0,
        failures: 0,
    };
    let maps = build_maps(&p);
    let mut batch = Vec::with_capacity(BATCH);
    for i in 0..BATCHES {
        p.batch(i, &mut batch);
        let (cfg, map) = p.system(&maps, i);
        let seq = route_many_seq(cfg, map, &batch);
        if route_many(cfg, map, &batch) != seq {
            return Err(format!("route_many batch {i} differs from route_many_seq"));
        }
        for o in &seq {
            p.hops += u64::from(o.hops);
            p.suboptimal += u64::from(matches!(o.decision, Decision::Suboptimal { .. }));
            p.failures += u64::from(matches!(o.decision, Decision::Failure));
        }
        p.digests.push(digest(&seq));
    }
    Ok(p)
}

/// Order-sensitive digest of a batch's outcomes.
fn digest(outs: &[BatchOutcome]) -> u64 {
    outs.iter().fold(0xcbf2_9ce4_8422_2325, |h, o| {
        let decision = match o.decision {
            Decision::Optimal {
                condition,
                first_dim,
            } => 1 << 16 | (condition as u64) << 8 | u64::from(first_dim),
            Decision::Suboptimal { first_dim } => 2 << 16 | u64::from(first_dim),
            Decision::AlreadyThere => 3 << 16,
            Decision::Failure => 4 << 16,
        };
        fnv1a(
            h,
            decision << 40 | u64::from(o.delivered) << 32 | u64::from(o.hops),
        )
    })
}

impl Prepared {
    /// Copies batch `i`'s pairs into `out`.
    pub fn batch(&self, i: usize, out: &mut Vec<(NodeId, NodeId)>) {
        out.clear();
        let pairs = &self.pairs[i * BATCH..(i + 1) * BATCH];
        out.extend(
            pairs
                .iter()
                .map(|&[s, d]| (NodeId::new(s.into()), NodeId::new(d.into()))),
        );
    }

    /// The configuration and map, out of `maps`, batch `i` is routed on.
    pub fn system<'a>(
        &'a self,
        maps: &'a [SafetyMap],
        i: usize,
    ) -> (&'a FaultConfig, &'a SafetyMap) {
        let c = i / (BATCHES / CONFIGS);
        (&self.cfgs[c], &maps[c])
    }
}

/// One build of the system under test: every configuration's map.
pub fn build_maps(p: &Prepared) -> Vec<SafetyMap> {
    p.cfgs.iter().map(SafetyMap::compute).collect()
}

/// Builds the maps, then routes the batches in turn until `budget` has
/// elapsed, checking each output's digest outside the timed call and
/// calling `between` after every pass.
pub fn measure(
    p: &Prepared,
    budget: Duration,
    mut tracer: Option<Tracer>,
    between: &mut dyn FnMut(),
) -> Result<Phase, String> {
    let maps = build_maps(p);
    let mut phase = Phase::default();
    let mut b = Vec::with_capacity(BATCH);
    let mut best = BestOf::default();
    let start = Instant::now();
    loop {
        if let Some(t) = tracer.as_mut() {
            t.enter(Kind::Harness);
        }
        for i in 0..BATCHES {
            p.batch(i, &mut b);
            let (cfg, map) = p.system(&maps, i);
            if let Some(t) = tracer.as_mut() {
                t.enter(Kind::RouteBatch);
            }
            let t = Instant::now();
            let out = route_many_seq(cfg, map, &b);
            best.record(i, t.elapsed());
            if let Some(t) = tracer.as_mut() {
                t.exit();
            }
            if digest(&out) != p.digests[i] {
                return Err(format!("batch {i} differs from its first routing"));
            }
            phase.delivered += out.iter().filter(|o| o.delivered).count() as u64;
        }
        phase.passes += 1;
        phase.attempted += (BATCHES * BATCH) as u64;
        if let Some(t) = tracer.as_mut() {
            t.exit();
        }
        between();
        if start.elapsed() >= budget {
            break;
        }
    }
    phase.failed = phase.attempted - phase.delivered;
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.rps = (BATCHES * BATCH) as f64 / best.total_s();
    phase.lat = best.into_values();
    phase.tracer = tracer;
    Ok(phase)
}

/// `rayon.route_many.t2_speedup`: `route_many_seq` (the one-thread
/// path) over `route_many` on the same batches, alternating, as a ratio
/// of median per-batch times.
pub fn t2_speedup(p: &Prepared, maps: &[SafetyMap], passes: usize) -> (f64, usize) {
    let (mut seq, mut par) = (Vec::new(), Vec::new());
    let mut b = Vec::with_capacity(BATCH);
    for _ in 0..passes {
        for i in 0..BATCHES {
            p.batch(i, &mut b);
            let (cfg, map) = p.system(maps, i);
            let t = Instant::now();
            black_box(route_many_seq(cfg, map, &b));
            seq.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            black_box(route_many(cfg, map, &b));
            par.push(t.elapsed().as_secs_f64());
        }
    }
    (median(&seq) / median(&par), seq.len())
}

/// Per-route `route_light` times in ns, on one thread over the first
/// batches.
pub fn route_light_ns(p: &Prepared, maps: &[SafetyMap], batches: usize) -> Vec<u64> {
    use hypersafe_core::{route_light, TieBreak};
    let mut times = Vec::with_capacity(batches * BATCH);
    let mut b = Vec::with_capacity(BATCH);
    for i in 0..batches {
        p.batch(i, &mut b);
        let (cfg, map) = p.system(maps, i);
        for &(s, d) in &b {
            let t = Instant::now();
            black_box(route_light(cfg, map, s, d, TieBreak::LowestDim));
            times.push(ns(t.elapsed()));
        }
    }
    times
}
