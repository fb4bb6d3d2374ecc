//! Batched unicast routing — the query-side throughput path.
//!
//! [`crate::route`] materializes a [`hypersafe_topology::Path`] per
//! call, which is the right interface for inspecting one route but
//! wasteful when a workload asks for millions of routing *decisions*
//! against one safety map. [`route_light`] runs the same §3 walk with
//! a no-op hop sink, so no path is built, and [`route_many`]
//! fans a batch of source/destination pairs over the vendored rayon's
//! `for_each_chunk_pair` — workers write straight into one
//! preallocated output vector, order-preserving and deterministic, so
//! the result is bitwise-identical at any `RAYON_NUM_THREADS` (CI
//! diffs 1 vs 4 threads on every push).

use crate::safety::SafetyMap;
pub use crate::unicast::BatchOutcome;
use crate::unicast::{walk, Decision, TieBreak};
use hypersafe_topology::{FaultConfig, NodeId};

/// Routes one unicast exactly like [`crate::route_tb`] but returns the
/// compact [`BatchOutcome`] instead of materializing the path. Both
/// run the one §3 walk, this one with the no-op hop sink, so they
/// agree decision-for-decision, hop-for-hop by construction.
pub fn route_light(
    cfg: &FaultConfig,
    map: &SafetyMap,
    s: NodeId,
    d: NodeId,
    tb: TieBreak,
) -> BatchOutcome {
    walk(cfg, map, s, d, tb, &mut ())
}

/// Routes every `(source, destination)` pair against one safety map,
/// in parallel, preserving input order. Deterministic at any thread
/// count: chunks are contiguous and results are concatenated in chunk
/// order, and each route is a pure function of `(cfg, map, pair)`.
///
/// # Examples
///
/// ```
/// use hypersafe_topology::{Hypercube, FaultSet, FaultConfig, NodeId};
/// use hypersafe_core::{route_many, route_many_seq, SafetyMap};
///
/// let cube = Hypercube::new(4);
/// let faults = FaultSet::from_binary_strs(cube, &["0011", "0100"]);
/// let cfg = FaultConfig::with_node_faults(cube, faults);
/// let map = SafetyMap::compute(&cfg);
/// let pairs: Vec<_> = cfg
///     .healthy_nodes()
///     .flat_map(|s| cfg.healthy_nodes().map(move |d| (s, d)))
///     .collect();
/// let out = route_many(&cfg, &map, &pairs);
/// assert_eq!(out.len(), pairs.len());
/// assert_eq!(out, route_many_seq(&cfg, &map, &pairs));
/// assert!(out.iter().all(|o| o.delivered));
/// ```
pub fn route_many(
    cfg: &FaultConfig,
    map: &SafetyMap,
    pairs: &[(NodeId, NodeId)],
) -> Vec<BatchOutcome> {
    route_many_tb(cfg, map, pairs, TieBreak::LowestDim)
}

/// [`route_many`] with an explicit tie-break policy.
pub fn route_many_tb(
    cfg: &FaultConfig,
    map: &SafetyMap,
    pairs: &[(NodeId, NodeId)],
    tb: TieBreak,
) -> Vec<BatchOutcome> {
    if pairs.is_empty() {
        return Vec::new();
    }
    // A one-thread pool (RAYON_NUM_THREADS=1) gains nothing from the
    // fan-out — route straight into the result and skip even the
    // prealloc fill, so the fallback is byte-for-byte the sequential
    // loop.
    if rayon::num_threads() <= 1 {
        return pairs
            .iter()
            .map(|&(s, d)| route_light(cfg, map, s, d, tb))
            .collect();
    }
    // Workers write straight into one preallocated output — no
    // per-chunk result vectors, no concatenation copy. One contiguous
    // chunk per worker keeps the fork/join overhead at a handful of
    // spawns per call.
    const FILLER: BatchOutcome = BatchOutcome {
        decision: Decision::Failure,
        hops: 0,
        delivered: false,
    };
    let mut out = vec![FILLER; pairs.len()];
    let chunk = pairs.len().div_ceil(rayon::num_threads()).max(1);
    rayon::for_each_chunk_pair(pairs, &mut out, chunk, |ins, outs| {
        // Walk the packed level store once up front so the chunk's
        // first routes pay sequential-prefetch misses, not random ones.
        map.store().warm();
        for (o, &(s, d)) in outs.iter_mut().zip(ins) {
            *o = route_light(cfg, map, s, d, tb);
        }
    });
    out
}

/// The sequential loop [`route_many`] is benchmarked against (also the
/// honest baseline for the ≥2× batched-throughput acceptance bar).
pub fn route_many_seq(
    cfg: &FaultConfig,
    map: &SafetyMap,
    pairs: &[(NodeId, NodeId)],
) -> Vec<BatchOutcome> {
    pairs
        .iter()
        .map(|&(s, d)| route_light(cfg, map, s, d, TieBreak::LowestDim))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::SafetyService;
    use crate::unicast::route_tb;
    use hypersafe_simkit::service::{AttemptVerdict, DeliveryRung};
    use hypersafe_topology::{FaultSet, Hypercube};

    fn fig1() -> (FaultConfig, SafetyMap) {
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]),
        );
        let map = SafetyMap::compute(&cfg);
        (cfg, map)
    }

    #[test]
    fn light_route_matches_full_route_all_pairs_all_policies() {
        let (cfg, map) = fig1();
        let policies = [
            TieBreak::LowestDim,
            TieBreak::HighestDim,
            TieBreak::Hashed { salt: 7 },
        ];
        for tb in policies {
            // A quiet service plans on the same map and judges against
            // the same fault set.
            let mut svc = SafetyService::with_tiebreak(cfg.clone(), tb);
            let mut trail = Vec::new();
            for s in cfg.cube().nodes() {
                for d in cfg.cube().nodes() {
                    let full = route_tb(&cfg, &map, s, d, tb);
                    let light = route_light(&cfg, &map, s, d, tb);
                    assert_eq!(light.decision, full.decision, "{s} → {d} {tb:?}");
                    assert_eq!(light.delivered, full.delivered, "{s} → {d} {tb:?}");
                    let full_hops = full.path.as_ref().map_or(0, |p| p.len());
                    assert_eq!(light.hops, full_hops, "{s} → {d} {tb:?}");

                    if cfg.node_faulty(s) || cfg.node_faulty(d) {
                        continue;
                    }
                    let verdict = svc.attempt_traced(s, d, &mut trail).verdict;
                    let Some(path) = &full.path else {
                        // Source-side Failure ↔ the detour rung.
                        assert_eq!(full.decision, Decision::Failure, "{s} → {d} {tb:?}");
                        assert!(
                            matches!(
                                verdict,
                                AttemptVerdict::Unreachable
                                    | AttemptVerdict::Delivered {
                                        rung: DeliveryRung::Detour,
                                        ..
                                    }
                            ),
                            "{s} → {d} {tb:?}: {verdict:?}"
                        );
                        assert!(trail.is_empty(), "{s} → {d} {tb:?}");
                        continue;
                    };
                    let rung = match full.decision {
                        Decision::Suboptimal { .. } => DeliveryRung::Suboptimal,
                        _ => DeliveryRung::Optimal,
                    };
                    assert!(full.delivered, "{s} → {d} {tb:?}");
                    assert_eq!(
                        verdict,
                        AttemptVerdict::Delivered {
                            rung,
                            hops: path.len()
                        },
                        "{s} → {d} {tb:?}"
                    );
                    let walked: &[NodeId] = if path.is_empty() { &[] } else { path.nodes() };
                    assert_eq!(trail, walked, "{s} → {d} {tb:?}");
                }
            }
        }
    }

    #[test]
    fn route_many_preserves_order_and_matches_seq() {
        let (cfg, map) = fig1();
        let pairs: Vec<_> = cfg
            .cube()
            .nodes()
            .flat_map(|s| cfg.cube().nodes().map(move |d| (s, d)))
            .collect();
        let par = route_many(&cfg, &map, &pairs);
        let seq = route_many_seq(&cfg, &map, &pairs);
        assert_eq!(par, seq);
        assert_eq!(par.len(), pairs.len());
        // Spot-check positional alignment against the scalar router.
        for (i, &(s, d)) in pairs.iter().enumerate().step_by(17) {
            assert_eq!(par[i], route_light(&cfg, &map, s, d, TieBreak::LowestDim));
        }
    }

    #[test]
    fn route_many_handles_degenerate_batches() {
        let (cfg, map) = fig1();
        assert!(route_many(&cfg, &map, &[]).is_empty());
        let one = route_many(&cfg, &map, &[(NodeId::new(0), NodeId::new(0))]);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].decision, Decision::AlreadyThere);
    }
}
