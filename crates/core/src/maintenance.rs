//! Safety-level maintenance strategies (paper §2.2).
//!
//! The paper lists three ways to keep safety information up to date as
//! faults occur and recover:
//!
//! 1. **Demand-driven** — GS runs only when a unicast discovers an
//!    inaccurate neighbor level.
//! 2. **Periodic** — nodes exchange safety information every `T` ticks
//!    regardless of activity ("does not adapt the activity to the
//!    failure rate": exchanges are wasted while the system is stable).
//! 3. **State-change-driven** — a node initiates GS whenever it detects
//!    a neighbor failing or recovering.
//!
//! This module replays a *fault timeline* (fault/recovery events plus
//! unicast requests at virtual times) under each strategy and accounts
//! for the messages spent and the unicasts that executed with stale
//! levels — the E10 ablation of DESIGN.md.

use crate::gs::run_gs;
use crate::safety::SafetyMap;
use crate::safety_delta::{run_delta_gs, ChurnEvent};
use crate::unicast::{route, Decision};
use hypersafe_simkit::RunOptions;
use hypersafe_topology::{FaultConfig, Hypercube, NodeId};

/// One entry of a maintenance scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimelineEvent {
    /// Node becomes faulty at this instant.
    Fault(NodeId),
    /// Node recovers at this instant.
    Recover(NodeId),
    /// A unicast request `s → d` is issued.
    Unicast(NodeId, NodeId),
}

/// A timed scenario: events must be given in nondecreasing time order.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    events: Vec<(u64, TimelineEvent)>,
}

impl Timeline {
    /// Empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event at time `t` (must be ≥ the last event's time).
    pub fn push(&mut self, t: u64, ev: TimelineEvent) -> &mut Self {
        if let Some(&(last, _)) = self.events.last() {
            assert!(t >= last, "events must be time-ordered");
        }
        self.events.push((t, ev));
        self
    }

    /// The events in order.
    pub fn events(&self) -> &[(u64, TimelineEvent)] {
        &self.events
    }

    /// Total duration (time of the last event).
    pub fn duration(&self) -> u64 {
        self.events.last().map_or(0, |&(t, _)| t)
    }
}

/// Which maintenance policy to replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Refresh only when a unicast is about to run on stale state.
    DemandDriven,
    /// Refresh every `period` ticks.
    Periodic {
        /// Refresh interval in virtual-time ticks.
        period: u64,
    },
    /// Refresh immediately on every fault/recovery event.
    StateChangeDriven,
    /// Like [`Strategy::StateChangeDriven`], but each event runs the
    /// *delta-GS* protocol ([`run_delta_gs`]) instead of a full GS
    /// flood: only nodes whose level changed re-broadcast, so the
    /// message bill is O(affected region) per event instead of
    /// O(n·2ⁿ). Always fresh, like state-change-driven.
    Incremental,
}

/// Cost/quality accounting of one replay.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Full GS executions performed.
    pub gs_runs: u64,
    /// Safety-exchange messages spent across all GS executions.
    pub gs_messages: u64,
    /// Unicasts issued.
    pub unicasts: u64,
    /// Unicasts that ran on levels matching the true current fault
    /// state.
    pub fresh_unicasts: u64,
    /// Unicasts that ran on stale levels (the map predates the latest
    /// fault/recovery event).
    pub stale_unicasts: u64,
    /// Unicasts that were delivered.
    pub delivered: u64,
    /// Unicasts that failed or were lost.
    pub failed: u64,
    /// Local level re-evaluations performed by the incremental engine
    /// (0 under the full-recompute strategies; compare against
    /// `gs_runs · 2ⁿ`-scale work).
    pub cells_touched: u64,
}

/// Replays `timeline` on an initially fault-free `cube` under
/// `strategy` and returns the accounting.
pub fn replay(cube: Hypercube, timeline: &Timeline, strategy: Strategy) -> MaintenanceReport {
    let mut cfg = FaultConfig::fault_free(cube);
    let mut report = MaintenanceReport::default();

    // Current believed safety map and whether it reflects cfg.
    let mut map = SafetyMap::compute(&cfg);
    let mut fresh = true;
    let mut next_periodic = match strategy {
        Strategy::Periodic { period } => {
            assert!(period > 0, "period must be positive");
            period
        }
        _ => u64::MAX,
    };

    let refresh = |cfg: &FaultConfig, map: &mut SafetyMap, report: &mut MaintenanceReport| {
        let run = run_gs(cfg.cube(), cfg);
        report.gs_runs += 1;
        report.gs_messages += run.stats.messages;
        *map = run.map;
    };

    // Incremental maintenance: run the delta-GS protocol for the
    // event (honest distributed message bill), fold the event into the
    // believed map with the centralized worklist engine, and
    // cross-check the two — exactness is part of the contract.
    let incremental =
        |cfg: &FaultConfig, map: &mut SafetyMap, report: &mut MaintenanceReport, ev: ChurnEvent| {
            let (run, _) = run_delta_gs(cfg, map, ev, 1, RunOptions::default());
            let stats = match ev {
                ChurnEvent::Fault(a) => map.apply_fault(cfg, a),
                ChurnEvent::Recover(a) => map.apply_recover(cfg, a),
            };
            debug_assert_eq!(
                map.store(),
                run.map.store(),
                "delta-GS diverged from the centralized incremental update"
            );
            report.gs_runs += 1;
            report.gs_messages += run.stats.delivered + run.stats.dropped;
            report.cells_touched += stats.cells_touched;
        };

    for &(t, ev) in timeline.events() {
        // Periodic refreshes that elapsed before this event.
        while t >= next_periodic {
            refresh(&cfg, &mut map, &mut report);
            fresh = true;
            next_periodic += match strategy {
                Strategy::Periodic { period } => period,
                _ => unreachable!(),
            };
        }
        match ev {
            TimelineEvent::Fault(a) => {
                let changed = cfg.node_faults_mut().insert(a);
                fresh = false;
                match strategy {
                    Strategy::StateChangeDriven => {
                        refresh(&cfg, &mut map, &mut report);
                        fresh = true;
                    }
                    Strategy::Incremental => {
                        if changed {
                            incremental(&cfg, &mut map, &mut report, ChurnEvent::Fault(a));
                        }
                        fresh = true;
                    }
                    _ => {}
                }
            }
            TimelineEvent::Recover(a) => {
                let changed = cfg.node_faults_mut().remove(a);
                fresh = false;
                match strategy {
                    Strategy::StateChangeDriven => {
                        refresh(&cfg, &mut map, &mut report);
                        fresh = true;
                    }
                    Strategy::Incremental => {
                        if changed {
                            incremental(&cfg, &mut map, &mut report, ChurnEvent::Recover(a));
                        }
                        fresh = true;
                    }
                    _ => {}
                }
            }
            TimelineEvent::Unicast(s, d) => {
                report.unicasts += 1;
                if strategy == Strategy::DemandDriven && !fresh {
                    // The source compares its neighbors' true status
                    // with its cached levels, detects the mismatch and
                    // triggers GS before routing (§2.2 item 1).
                    refresh(&cfg, &mut map, &mut report);
                    fresh = true;
                }
                if fresh {
                    report.fresh_unicasts += 1;
                } else {
                    report.stale_unicasts += 1;
                }
                if cfg.node_faulty(s) || cfg.node_faulty(d) {
                    report.failed += 1;
                    continue;
                }
                let res = route(&cfg, &map, s, d);
                if res.delivered && !matches!(res.decision, Decision::Failure) {
                    report.delivered += 1;
                } else {
                    report.failed += 1;
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> NodeId {
        NodeId::from_binary(s).unwrap()
    }

    fn sample_timeline() -> Timeline {
        let mut t = Timeline::new();
        t.push(10, TimelineEvent::Fault(n("0011")))
            .push(20, TimelineEvent::Unicast(n("1110"), n("0001")))
            .push(30, TimelineEvent::Fault(n("0100")))
            .push(40, TimelineEvent::Unicast(n("0001"), n("1100")))
            .push(50, TimelineEvent::Recover(n("0011")))
            .push(60, TimelineEvent::Unicast(n("0000"), n("1111")));
        t
    }

    #[test]
    fn state_change_driven_is_always_fresh() {
        let r = replay(
            Hypercube::new(4),
            &sample_timeline(),
            Strategy::StateChangeDriven,
        );
        assert_eq!(r.gs_runs, 3, "one GS per fault/recovery");
        assert_eq!(r.stale_unicasts, 0);
        assert_eq!(r.unicasts, 3);
        assert_eq!(r.delivered, 3);
    }

    #[test]
    fn demand_driven_refreshes_lazily() {
        let r = replay(
            Hypercube::new(4),
            &sample_timeline(),
            Strategy::DemandDriven,
        );
        // Refresh happens at each unicast that follows a change: 3 of them.
        assert_eq!(r.gs_runs, 3);
        assert_eq!(r.stale_unicasts, 0);
        assert_eq!(r.delivered, 3);
    }

    #[test]
    fn periodic_wastes_or_staleness_depending_on_period() {
        // Tight period: many runs, everything fresh at unicast time only
        // if a tick landed between change and use.
        let tight = replay(
            Hypercube::new(4),
            &sample_timeline(),
            Strategy::Periodic { period: 5 },
        );
        assert!(
            tight.gs_runs >= 10,
            "60 ticks / 5 = 12-ish runs, got {}",
            tight.gs_runs
        );
        // Loose period: cheap but stale.
        let loose = replay(
            Hypercube::new(4),
            &sample_timeline(),
            Strategy::Periodic { period: 1000 },
        );
        assert_eq!(loose.gs_runs, 0);
        assert_eq!(loose.stale_unicasts, 3);
    }

    #[test]
    fn stale_routing_can_still_deliver_but_is_flagged() {
        // One fault, then a unicast whose stale map believes the cube is
        // fault-free: path may cross the new fault and be lost.
        let mut t = Timeline::new();
        t.push(1, TimelineEvent::Fault(n("0001")))
            .push(2, TimelineEvent::Unicast(n("0000"), n("0011")));
        let r = replay(Hypercube::new(4), &t, Strategy::Periodic { period: 1000 });
        assert_eq!(r.stale_unicasts, 1);
        // The stale map routes 0000 → 0001 → 0011 straight into the new
        // fault: the unicast is lost.
        assert_eq!(r.failed, 1);
    }

    #[test]
    fn simultaneous_fault_and_unicast_same_tick() {
        // A fault and a unicast land at the same instant. `push` order
        // breaks the tie: whichever entry comes first in the timeline
        // happens first at that tick.
        let mut fault_first = Timeline::new();
        fault_first
            .push(5, TimelineEvent::Fault(n("0001")))
            .push(5, TimelineEvent::Unicast(n("0000"), n("0011")));

        // Demand-driven: the source detects the mismatch at the same
        // tick and refreshes before routing — fresh and delivered.
        let r = replay(Hypercube::new(4), &fault_first, Strategy::DemandDriven);
        assert_eq!(r.gs_runs, 1);
        assert_eq!((r.fresh_unicasts, r.stale_unicasts), (1, 0));
        assert_eq!(r.delivered, 1, "fresh map routes around 0001");

        // A lazy policy has no chance to refresh between the two events
        // of the tick: the unicast runs stale, straight into the fault.
        let r = replay(
            Hypercube::new(4),
            &fault_first,
            Strategy::Periodic { period: 1000 },
        );
        assert_eq!((r.fresh_unicasts, r.stale_unicasts), (0, 1));
        assert_eq!(r.failed, 1);

        // Reversed push order at the same tick: the unicast precedes
        // the fault, so even the lazy policy delivers on a fresh map.
        let mut unicast_first = Timeline::new();
        unicast_first
            .push(5, TimelineEvent::Unicast(n("0000"), n("0011")))
            .push(5, TimelineEvent::Fault(n("0001")));
        let r = replay(
            Hypercube::new(4),
            &unicast_first,
            Strategy::Periodic { period: 1000 },
        );
        assert_eq!((r.fresh_unicasts, r.stale_unicasts), (1, 0));
        assert_eq!(r.delivered, 1);
    }

    #[test]
    fn incremental_is_fresh_and_cheaper_than_state_change_driven() {
        let t = sample_timeline();
        let full = replay(Hypercube::new(4), &t, Strategy::StateChangeDriven);
        let inc = replay(Hypercube::new(4), &t, Strategy::Incremental);
        // Same freshness and routing quality...
        assert_eq!(inc.stale_unicasts, 0);
        assert_eq!(inc.unicasts, full.unicasts);
        assert_eq!(inc.delivered, full.delivered);
        assert_eq!(inc.gs_runs, full.gs_runs, "one update per change event");
        // ...but each update only bills the affected region.
        assert!(
            inc.gs_messages < full.gs_messages,
            "incremental {} ≥ full {}",
            inc.gs_messages,
            full.gs_messages
        );
        assert!(inc.cells_touched > 0);
        assert_eq!(full.cells_touched, 0);
    }

    #[test]
    fn incremental_tolerates_noop_events() {
        // Faulting a node twice / recovering a healthy node are no-ops
        // and must not trip the exactness preconditions.
        let mut t = Timeline::new();
        t.push(1, TimelineEvent::Fault(n("0001")))
            .push(2, TimelineEvent::Fault(n("0001")))
            .push(3, TimelineEvent::Recover(n("0010")))
            .push(4, TimelineEvent::Unicast(n("0000"), n("1111")));
        let r = replay(Hypercube::new(4), &t, Strategy::Incremental);
        assert_eq!(r.gs_runs, 1, "only the genuine transition is billed");
        assert_eq!(r.stale_unicasts, 0);
        assert_eq!(r.delivered, 1);
    }

    #[test]
    #[should_panic]
    fn timeline_rejects_time_travel() {
        let mut t = Timeline::new();
        t.push(5, TimelineEvent::Fault(n("0001")));
        t.push(4, TimelineEvent::Fault(n("0010")));
    }
}
