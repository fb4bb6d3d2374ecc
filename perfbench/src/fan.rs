//! `fan-dense`: `route_disjoint` with k = n on Q12 with n − 1 uniform
//! faults, one call at a time on one thread.
//!
//! The run cycles over several independent fault configurations so one
//! run's tail is not set by a single fault placement.

use crate::stats::BestOf;
use crate::trace::{Kind, Tracer};
use crate::Phase;
use hypersafe_core::{check_disjoint_delivery, route_disjoint, SafetyMap};
use hypersafe_topology::{FaultConfig, Hypercube, NodeId};
use hypersafe_workloads::{random_pair, uniform_faults};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

pub const DIM: u8 = 12;
pub const K: u8 = DIM;
/// Independent fault configurations per run.
pub const CONFIGS: usize = 64;
/// Healthy pairs routed per configuration; one pass over all of them is
/// a round.
pub const PAIRS: usize = 256;

/// The generated inputs. The system under test, one safety map per
/// configuration, is built from them by [`build_maps`].
pub struct Prepared {
    pub cfgs: Vec<FaultConfig>,
    pub pairs: Vec<Vec<(NodeId, NodeId)>>,
}

pub fn prepare(seed: u64) -> Prepared {
    let cube = Hypercube::new(DIM);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ ((DIM as u64) << 40) ^ 0xFA7);
    let cfgs: Vec<FaultConfig> = (0..CONFIGS)
        .map(|_| {
            FaultConfig::with_node_faults(cube, uniform_faults(cube, DIM as usize - 1, &mut rng))
        })
        .collect();
    let pairs = cfgs
        .iter()
        .map(|cfg| (0..PAIRS).map(|_| random_pair(cfg, &mut rng)).collect())
        .collect();
    Prepared { cfgs, pairs }
}

/// One build of the system under test: every configuration's map.
pub fn build_maps(p: &Prepared) -> Vec<SafetyMap> {
    p.cfgs.iter().map(SafetyMap::compute).collect()
}

/// Builds the maps, then passes over every configuration's pairs until
/// `budget` has elapsed, calling `between` after every pass. Each result
/// is checked with `check_disjoint_delivery` after its call is timed;
/// with n − 1 faults the cube stays connected, so every healthy pair
/// must get at least one path.
pub fn measure(
    p: &Prepared,
    budget: Duration,
    mut tracer: Option<Tracer>,
    between: &mut dyn FnMut(),
) -> Result<Phase, String> {
    let maps = build_maps(p);
    let mut phase = Phase::default();
    let (mut augments, mut paths) = (0u64, 0u64);
    let mut best = BestOf::default();
    let start = Instant::now();
    loop {
        if let Some(t) = tracer.as_mut() {
            t.enter(Kind::Harness);
        }
        let systems = p.cfgs.iter().zip(&maps).zip(&p.pairs);
        for (c, ((cfg, map), pairs)) in systems.enumerate() {
            for (j, &(s, d)) in pairs.iter().enumerate() {
                if let Some(t) = tracer.as_mut() {
                    t.enter(Kind::Fan);
                }
                let t = Instant::now();
                let res = route_disjoint(cfg, map, s, d, K);
                best.record(c * PAIRS + j, t.elapsed());
                if let Some(t) = tracer.as_mut() {
                    t.exit_as(if res.rerouted {
                        Kind::Augment
                    } else {
                        Kind::Fan
                    });
                }
                check_disjoint_delivery(cfg, s, d, &res).map_err(|e| format!("{s} -> {d}: {e}"))?;
                if res.delivered() == 0 {
                    return Err(format!("{s} -> {d}: no path with {} faults", DIM - 1));
                }
                phase.delivered += 1;
                augments += u64::from(res.rerouted);
                paths += res.delivered() as u64;
            }
        }
        phase.passes += 1;
        phase.attempted += (CONFIGS * PAIRS) as u64;
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
    phase.rps = (CONFIGS * PAIRS) as f64 / best.total_s();
    phase.lat = best.into_values();
    phase.tracer = tracer;
    phase.counters = vec![
        ("reroute_share", augments as f64 / phase.attempted as f64),
        ("paths_per_req", paths as f64 / phase.attempted as f64),
    ];
    Ok(phase)
}
