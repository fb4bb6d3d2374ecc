//! The safety-level [`RouteProvider`]: epoch-snapshot routing over a
//! churning fault set.
//!
//! [`SafetyService`] is the concrete seam between the paper's routing
//! stack and the generic lifecycle engine in
//! [`hypersafe_simkit::service`]:
//!
//! * Readers route against an immutable [`SafetyState`] snapshot (a
//!   `(FaultConfig, SafetyMap)` pair) obtained from an
//!   [`EpochHandle`] and kept until the handle's epoch counter moves,
//!   so an attempt costs one atomic load to find its snapshot; they
//!   never observe a torn map.
//! * The writer side queues each churn event and, after the service's
//!   publication lag (modelling the safety-level restabilization
//!   window), derives the next epoch by cloning the current snapshot
//!   and applying [`SafetyMap::apply_fault`] /
//!   [`SafetyMap::apply_recover`] — the incremental delta path, not a
//!   full recompute.
//! * Each attempt runs the one §3 walk of [`crate::unicast`] (the
//!   walk behind [`crate::route`]), *planned* on the snapshot map and
//!   *judged* hop by hop against the live fault set. A live-faulty
//!   node on the planned walk means the snapshot is stale →
//!   [`AttemptVerdict::Stale`], and the lifecycle engine retries
//!   against a fresher epoch. A snapshot `Failure` falls through to
//!   the detour rung: [`crate::reroute::route_dynamic`] against the
//!   live fault set.
//!
//! The epoch invariant checked after every publication: the published
//! map is the exact Definition-1 fixed point of the published config,
//! and the published fault set equals the live one once the pending
//! queue drains. The first check is the full word-parallel scan
//! ([`SafetyMap::check_fixed_point`]); each later one
//! ([`SafetyMap::check_fixed_point_since`]) evaluates only the nodes
//! whose level or fault bit differs from the last epoch that passed,
//! plus their neighbors. Definition 1 is local, so every other node
//! has the inputs and level it had in a verified fixed point and
//! passes; the lowest failing candidate is therefore the node the full
//! scan reports first. The verified epoch advances only on a pass, so
//! a corrupt epoch keeps failing, even under later correct deltas,
//! until a clean one is published.

use crate::multipath::route_disjoint;
use crate::reroute::{route_dynamic, DynamicOutcome};
use crate::safety::SafetyMap;
use crate::unicast::{walk, Decision, HopSink, TieBreak};
use hypersafe_simkit::service::{
    AttemptOutcome, AttemptVerdict, DeliveryRung, Epoch, EpochHandle, RedundantOutcome,
    RouteProvider,
};
use hypersafe_topology::{FaultConfig, Hypercube, NodeId};
use std::collections::VecDeque;
use std::sync::Arc;

/// One immutable snapshot generation: the fault configuration and the
/// safety map that is its Definition-1 fixed point.
#[derive(Clone, Debug)]
pub struct SafetyState {
    /// Fault set the snapshot was computed against.
    pub cfg: FaultConfig,
    /// The fixed-point safety map of `cfg`.
    pub map: SafetyMap,
}

/// Safety-level routing behind epoch snapshots — the concrete
/// [`RouteProvider`] driven by
/// [`hypersafe_simkit::service::RoutingService`].
pub struct SafetyService {
    epochs: EpochHandle<SafetyState>,
    /// The snapshot loaded last; reloaded when the handle's epoch
    /// counter moves past it.
    current: Arc<Epoch<SafetyState>>,
    /// Ground truth: updated immediately on churn, ahead of the
    /// published epoch by up to the publication lag.
    live: FaultConfig,
    /// Churn deltas applied to `live` but not yet published, FIFO.
    pending: VecDeque<(NodeId, bool)>,
    tb: TieBreak,
    /// Attempts answered, per verdict class (provider-side view).
    attempts: u64,
    /// Detour-rung reroutes computed (each runs a live-state GS).
    detours: u64,
    /// Accumulated delta-maintenance cost across publications.
    cells_changed: u64,
    /// Test hook: archive of every published snapshot (epoch order).
    archive: Option<Vec<Arc<Epoch<SafetyState>>>>,
    /// The last snapshot whose map passed the fixed-point check; later
    /// checks examine only what differs from it.
    verified: Option<Arc<Epoch<SafetyState>>>,
}

impl SafetyService {
    /// A service over `cfg` with the default (paper) tie-break. Epoch
    /// 0 is the full fixed-point computation; all later epochs are
    /// incremental deltas.
    ///
    /// # Panics
    ///
    /// If `cfg` holds a faulty link: the churn deltas handle node
    /// faults only.
    pub fn new(cfg: FaultConfig) -> Self {
        Self::with_tiebreak(cfg, TieBreak::LowestDim)
    }

    /// [`SafetyService::new`] with an explicit tie-break policy.
    ///
    /// # Panics
    ///
    /// If `cfg` holds a faulty link.
    pub fn with_tiebreak(cfg: FaultConfig, tb: TieBreak) -> Self {
        assert!(cfg.link_faults().is_empty(), "node faults only");
        let map = SafetyMap::compute(&cfg);
        let epochs = EpochHandle::new(SafetyState {
            cfg: cfg.clone(),
            map,
        });
        SafetyService {
            current: epochs.load(),
            epochs,
            live: cfg,
            pending: VecDeque::new(),
            tb,
            attempts: 0,
            detours: 0,
            cells_changed: 0,
            archive: None,
            verified: None,
        }
    }

    /// Enables the snapshot archive (tests: re-validate every issued
    /// route against the exact snapshot that planned it).
    pub fn with_archive(mut self) -> Self {
        self.archive = Some(vec![self.epochs.load()]);
        self
    }

    /// Archived snapshots in epoch order (index = epoch number), if
    /// [`SafetyService::with_archive`] was enabled.
    pub fn archived(&self) -> Option<&[Arc<Epoch<SafetyState>>]> {
        self.archive.as_deref()
    }

    /// The live (ground-truth) fault configuration.
    pub fn live_cfg(&self) -> &FaultConfig {
        &self.live
    }

    /// The current published snapshot.
    pub fn snapshot(&self) -> Arc<Epoch<SafetyState>> {
        self.epochs.load()
    }

    /// The current published snapshot, kept between calls: one atomic
    /// load of the epoch counter while no epoch was published since the
    /// last reload, including epochs published through
    /// [`SafetyService::epochs`].
    fn refresh(&mut self) -> &Epoch<SafetyState> {
        if self.epochs.epoch() != self.current.epoch {
            self.current = self.epochs.load();
        }
        &self.current
    }

    /// Read access to the epoch store itself (e.g. to share with
    /// concurrent readers in tests).
    pub fn epochs(&self) -> &EpochHandle<SafetyState> {
        &self.epochs
    }

    /// Route attempts answered so far.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Detour-rung reroutes computed so far.
    pub fn detours(&self) -> u64 {
        self.detours
    }

    /// Total safety-map cells changed by incremental publications.
    pub fn cells_changed(&self) -> u64 {
        self.cells_changed
    }

    /// Churn deltas applied to the live set but not yet published.
    pub fn pending_publications(&self) -> usize {
        self.pending.len()
    }

    /// Plans `s → d` on the snapshot map and judges each hop against
    /// the live fault set, with [`walk`], calling `sink` once per hop.
    ///
    /// The endpoints are live-healthy when the walk starts, and the
    /// live set has no link faults, so an undelivered walk entered a
    /// node that died after the snapshot, or hit a dead end that
    /// Theorem 2 rules out on a consistent snapshot. Either way the
    /// snapshot is stale: retry against a fresher epoch.
    fn attempt_with<S: HopSink<Hypercube>>(
        &mut self,
        s: NodeId,
        d: NodeId,
        sink: &mut S,
    ) -> AttemptOutcome {
        self.attempts += 1;
        let epoch = self.refresh().epoch;
        let verdict = if self.live.node_faulty(s) {
            AttemptVerdict::SourceFaulty
        } else if self.live.node_faulty(d) {
            AttemptVerdict::DestinationFaulty
        } else {
            let out = walk(&self.live, &self.current.data.map, s, d, self.tb, sink);
            match out.decision {
                Decision::Failure => self.detour(s, d),
                _ if !out.delivered => AttemptVerdict::Stale,
                Decision::Suboptimal { .. } => AttemptVerdict::Delivered {
                    rung: DeliveryRung::Suboptimal,
                    hops: out.hops,
                },
                _ => AttemptVerdict::Delivered {
                    rung: DeliveryRung::Optimal,
                    hops: out.hops,
                },
            }
        };
        AttemptOutcome { epoch, verdict }
    }

    /// The detour rung: the snapshot refuses (`Failure`), but the live
    /// fault set — which may already contain recoveries the snapshot
    /// has not seen — might still admit a route via the dynamic
    /// reroute machinery (fresh map + per-hop re-decisions).
    fn detour(&mut self, s: NodeId, d: NodeId) -> AttemptVerdict {
        self.detours += 1;
        let run = route_dynamic(self.live.cube(), self.live.node_faults(), &[], s, d);
        match run.outcome {
            DynamicOutcome::Delivered => AttemptVerdict::Delivered {
                rung: DeliveryRung::Detour,
                hops: run.path.len(),
            },
            _ => AttemptVerdict::Unreachable,
        }
    }

    /// [`RouteProvider::attempt`], but also records the walked trail
    /// into `trail` (cleared first) — the hook the route-validity
    /// proptests use. A delivered trail runs from `s` to `d`; a `Stale`
    /// one ends at the node found dead, or at the dead end. The trail
    /// is empty when no hop was walked.
    pub fn attempt_traced(
        &mut self,
        s: NodeId,
        d: NodeId,
        trail: &mut Vec<NodeId>,
    ) -> AttemptOutcome {
        trail.clear();
        self.attempt_with(s, d, trail)
    }
}

impl RouteProvider for SafetyService {
    fn attempt(&mut self, s: NodeId, d: NodeId) -> AttemptOutcome {
        self.attempt_with(s, d, &mut ())
    }

    /// Redundant attempt: plan up to `k` node-disjoint paths on the
    /// snapshot ([`route_disjoint`]), then validate every planned path
    /// hop-by-hop against the *live* fault set — a copy whose path
    /// crossed a node that died since the snapshot is simply lost, the
    /// surviving copies still count. This is the E26 service's
    /// redundancy request seam: one call, up to `k` independent
    /// chances, no retry round-trip for single-fault losses.
    fn attempt_redundant(&mut self, s: NodeId, d: NodeId, k: u8) -> RedundantOutcome {
        self.attempts += 1;
        self.refresh();
        let snap = &self.current;
        if self.live.node_faulty(s) || self.live.node_faulty(d) {
            return RedundantOutcome {
                epoch: snap.epoch,
                delivered_paths: 0,
                best_hops: 0,
                total_hops: 0,
            };
        }
        let planned = route_disjoint(&snap.data.cfg, &snap.data.map, s, d, k);
        let mut delivered_paths = 0u32;
        let mut best_hops = u32::MAX;
        let mut total_hops = 0u32;
        for p in &planned.paths {
            // Interior nodes and links must survive in the live set;
            // the endpoints were checked above.
            if p.path.traversable(&self.live, true) {
                delivered_paths += 1;
                best_hops = best_hops.min(p.path.len());
                total_hops += p.path.len();
            }
        }
        RedundantOutcome {
            epoch: snap.epoch,
            delivered_paths,
            best_hops: if delivered_paths == 0 { 0 } else { best_hops },
            total_hops,
        }
    }

    fn apply_churn(&mut self, node: NodeId, fault: bool) -> bool {
        if fault == self.live.node_faulty(node) {
            return false; // faulting the faulty / recovering the healthy
        }
        if fault {
            self.live.node_faults_mut().insert(node);
        } else {
            self.live.node_faults_mut().remove(node);
        }
        self.pending.push_back((node, fault));
        true
    }

    fn publish_next(&mut self) -> Option<u64> {
        let (node, fault) = self.pending.pop_front()?;
        let mut changed = 0u64;
        let epoch = self.epochs.update(|parent| {
            let mut cfg = parent.data.cfg.clone();
            let mut map = parent.data.map.clone();
            let stats = if fault {
                cfg.node_faults_mut().insert(node);
                map.apply_fault(&cfg, node)
            } else {
                cfg.node_faults_mut().remove(node);
                map.apply_recover(&cfg, node)
            };
            changed = stats.cells_changed;
            SafetyState { cfg, map }
        });
        self.cells_changed += changed;
        if let Some(arch) = self.archive.as_mut() {
            arch.push(self.epochs.load());
        }
        Some(epoch)
    }

    fn current_epoch(&self) -> u64 {
        self.epochs.epoch()
    }

    fn check_invariants(&mut self) -> Result<(), String> {
        self.refresh();
        let snap = &self.current;
        let violation = match &self.verified {
            Some(v) => {
                snap.data
                    .map
                    .check_fixed_point_since(&snap.data.cfg, &v.data.map, &v.data.cfg)
            }
            None => snap.data.map.check_fixed_point(&snap.data.cfg),
        };
        if let Some(node) = violation {
            return Err(format!(
                "epoch {}: published map is not the fixed point of its config at node {node}",
                snap.epoch
            ));
        }
        self.verified = Some(Arc::clone(snap));
        if self.pending.is_empty() && self.live.node_faults() != snap.data.cfg.node_faults() {
            // Quiescent writer: the published epoch must have caught
            // up with the live fault set exactly.
            let live: Vec<NodeId> = self.live.node_faults().iter().collect();
            let snap_faults: Vec<NodeId> = snap.data.cfg.node_faults().iter().collect();
            return Err(format!(
                "epoch {}: published faults {:?} diverge from live {:?} with no pending delta",
                snap.epoch, snap_faults, live
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypersafe_topology::{FaultSet, Hypercube};

    fn fig1_service() -> SafetyService {
        let cube = Hypercube::new(4);
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]),
        );
        SafetyService::new(cfg)
    }

    #[test]
    fn epoch_zero_is_the_full_fixed_point() {
        let mut svc = fig1_service();
        assert_eq!(svc.current_epoch(), 0);
        assert!(svc.check_invariants().is_ok());
        let snap = svc.snapshot();
        assert_eq!(
            snap.data.map.level(NodeId::from_binary("1110").unwrap()),
            4,
            "the paper's fig. 1 level"
        );
    }

    #[test]
    fn optimal_route_on_a_quiet_service() {
        let mut svc = fig1_service();
        let s = NodeId::from_binary("1110").unwrap();
        let d = NodeId::from_binary("0001").unwrap();
        let out = svc.attempt(s, d);
        assert_eq!(out.epoch, 0);
        assert_eq!(
            out.verdict,
            AttemptVerdict::Delivered {
                rung: DeliveryRung::Optimal,
                hops: 4
            }
        );
    }

    #[test]
    fn churn_is_live_immediately_but_published_after_the_delta() {
        let mut svc = fig1_service();
        let a = NodeId::from_binary("1111").unwrap();
        assert!(svc.apply_churn(a, true));
        assert!(!svc.apply_churn(a, true), "double fault is a no-op");
        assert!(svc.live_cfg().node_faulty(a));
        assert!(!svc.snapshot().data.cfg.node_faulty(a), "not yet published");
        assert_eq!(svc.pending_publications(), 1);
        assert_eq!(svc.publish_next(), Some(1));
        assert!(svc.snapshot().data.cfg.node_faulty(a));
        assert!(svc.check_invariants().is_ok(), "delta kept the fixed point");
        assert_eq!(svc.publish_next(), None);
    }

    #[test]
    fn stale_snapshot_yields_stale_then_fresh_epoch_delivers() {
        // A roomy 5-cube: killing one intermediate leaves plenty of
        // optimal alternatives for the fresh epoch to re-plan onto.
        let cube = Hypercube::new(5);
        let mut svc = SafetyService::new(FaultConfig::fault_free(cube));
        let s = NodeId::from_binary("00000").unwrap();
        let d = NodeId::from_binary("11111").unwrap();
        // Record the snapshot plan, then kill its first intermediate.
        let mut trail = Vec::new();
        let out = svc.attempt_traced(s, d, &mut trail);
        assert!(matches!(out.verdict, AttemptVerdict::Delivered { .. }));
        let first_hop = trail[1];
        assert!(svc.apply_churn(first_hop, true));
        // Live set knows; the snapshot does not — the same plan now
        // reports staleness.
        let out = svc.attempt(s, d);
        assert_eq!(out.verdict, AttemptVerdict::Stale);
        assert_eq!(out.epoch, 0);
        // Publish the delta: the fresher epoch routes around it.
        svc.publish_next();
        let out = svc.attempt(s, d);
        assert_eq!(out.epoch, 1);
        assert!(
            matches!(out.verdict, AttemptVerdict::Delivered { .. }),
            "fresh epoch re-plans: {:?}",
            out.verdict
        );
    }

    #[test]
    fn faulty_endpoints_are_typed_rejections() {
        let mut svc = fig1_service();
        let faulty = NodeId::from_binary("0011").unwrap();
        let healthy = NodeId::from_binary("0000").unwrap();
        assert_eq!(
            svc.attempt(faulty, healthy).verdict,
            AttemptVerdict::SourceFaulty
        );
        assert_eq!(
            svc.attempt(healthy, faulty).verdict,
            AttemptVerdict::DestinationFaulty
        );
    }

    #[test]
    fn recovery_pending_publication_enables_the_detour_rung() {
        // Isolate node 0000 in a 3-cube: fault all three neighbors.
        let cube = Hypercube::new(3);
        let cfg = FaultConfig::with_node_faults(
            cube,
            FaultSet::from_binary_strs(cube, &["001", "010", "100"]),
        );
        let mut svc = SafetyService::new(cfg);
        let s = NodeId::from_binary("000").unwrap();
        let d = NodeId::from_binary("111").unwrap();
        assert_eq!(
            svc.attempt(s, d).verdict,
            AttemptVerdict::Unreachable,
            "fully isolated: even the detour rung fails"
        );
        // Recover 001 in the live set; the snapshot still refuses, but
        // the detour (live-state reroute) now delivers.
        assert!(svc.apply_churn(NodeId::from_binary("001").unwrap(), false));
        let out = svc.attempt(s, d);
        assert_eq!(
            out.verdict,
            AttemptVerdict::Delivered {
                rung: DeliveryRung::Detour,
                hops: 3
            },
            "live recovery reachable via detour before publication"
        );
        assert_eq!(svc.detours(), 2);
    }

    #[test]
    fn redundant_attempt_fans_and_survives_post_snapshot_churn() {
        let cube = Hypercube::new(4);
        let mut svc = SafetyService::new(FaultConfig::fault_free(cube));
        let s = NodeId::from_binary("0000").unwrap();
        let d = NodeId::from_binary("0011").unwrap();
        // Quiet fault-free service: the full fan of n copies delivers.
        let out = svc.attempt_redundant(s, d, 4);
        assert_eq!(out.epoch, 0);
        assert_eq!(out.delivered_paths, 4);
        assert_eq!(out.best_hops, 2);
        assert_eq!(out.total_hops, 2 + 2 + 4 + 4, "2 optimal + 2 detours");
        // Kill one planned intermediate after the snapshot: exactly one
        // copy is lost, the rest still deliver — no Stale round-trip.
        assert!(svc.apply_churn(NodeId::from_binary("0001").unwrap(), true));
        let out = svc.attempt_redundant(s, d, 4);
        assert_eq!(out.epoch, 0, "still planning on the stale snapshot");
        assert_eq!(out.delivered_paths, 3);
        // k = 1 degrades to a single safest copy.
        let single = svc.attempt_redundant(s, d, 1);
        assert!(single.delivered_paths <= 1);
        // Faulty endpoints deliver nothing.
        let dead = NodeId::from_binary("0001").unwrap();
        assert_eq!(svc.attempt_redundant(dead, d, 4).delivered_paths, 0);
        assert_eq!(svc.attempt_redundant(s, dead, 4).delivered_paths, 0);
    }

    #[test]
    fn archive_records_every_epoch_in_order() {
        let mut svc = fig1_service().with_archive();
        for (k, bits) in ["1111", "0000"].iter().enumerate() {
            let a = NodeId::from_binary(bits).unwrap();
            svc.apply_churn(a, true);
            assert_eq!(svc.publish_next(), Some(k as u64 + 1));
        }
        let arch = svc.archived().unwrap();
        assert_eq!(arch.len(), 3, "epoch 0 + two publications");
        for (k, e) in arch.iter().enumerate() {
            assert_eq!(e.epoch, k as u64);
            assert!(e.data.map.check_fixed_point(&e.data.cfg).is_none());
        }
    }
}
