//! Fault-injection races under adversarial scheduling: a node dies
//! while the message that needs it is already in flight. Two windows
//! matter most — the **final hop** (destination dies as the last data
//! message races toward it) and an **in-flight ARQ retransmit** (the
//! next-hop holder dies between a loss and the retransmission that
//! would have recovered it). Every race must preserve exactly-once
//! delivery and trail validity; only *whether* delivery happens may
//! change. The same scenarios are cross-checked against the
//! hop-granular [`route_dynamic`] taxonomy (`reroute.rs`) and the
//! maintenance-strategy replay (`maintenance.rs`).

use hypersafe::safety::properties::{check_gs_convergence, check_lossy_outcome};
use hypersafe::safety::reroute::{route_dynamic, DynamicOutcome, FaultEvent};
use hypersafe::safety::{
    replay, route, run_gs_async, run_unicast_lossy, LossyOutcome, LossyRun, SafetyMap, Strategy,
    Timeline, TimelineEvent,
};
use hypersafe::simkit::{
    AdversarialScheduler, ChannelModel, InvariantViolation, ReliableConfig, RunOptions, RunReport,
    Scheduler,
};
use hypersafe::topology::{FaultConfig, FaultSet, Hypercube, NodeId};

fn fig1() -> (FaultConfig, SafetyMap) {
    let cube = Hypercube::new(4);
    let cfg = FaultConfig::with_node_faults(
        cube,
        FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]),
    );
    let map = SafetyMap::compute(&cfg);
    (cfg, map)
}

fn n(s: &str) -> NodeId {
    NodeId::from_binary(s).unwrap()
}

/// Options for a checked run under `sched`.
fn checked(sched: impl Scheduler + 'static) -> RunOptions {
    RunOptions {
        sched: Box::new(sched),
        max_events: 1_000_000,
        check: true,
        ..RunOptions::default()
    }
}

fn ok<R>((run, report): (R, RunReport)) -> Result<R, InvariantViolation> {
    report.violation.map_or(Ok(run), Err)
}

/// One checked reliable unicast `s → d` on the Fig. 1 map.
fn unicast(s: NodeId, d: NodeId, opts: RunOptions) -> Result<LossyRun, InvariantViolation> {
    let (cfg, map) = fig1();
    ok(run_unicast_lossy(
        &cfg,
        &map,
        s,
        d,
        1,
        ReliableConfig::default(),
        opts,
    ))
}

/// Kill the destination at every instant across the delivery window.
/// Early kills must fail the handoff, late kills must not matter, and
/// nothing in between may ever break exactly-once or trail validity.
#[test]
fn fault_racing_the_final_hop() {
    let (cfg, _) = fig1();
    let (s, d) = (n("1110"), n("0001"));
    let mut delivered = 0u32;
    let mut failed = 0u32;
    for t in 0..=20u64 {
        for seed in [3u64, 0xD57] {
            let opts = RunOptions {
                kills: vec![(d, t)],
                ..checked(AdversarialScheduler::permute(seed).with_stretch(2))
            };
            let run =
                unicast(s, d, opts).unwrap_or_else(|v| panic!("kill d at t={t} seed={seed}: {v}"));
            check_lossy_outcome(&cfg, s, d, &run, 1)
                .unwrap_or_else(|v| panic!("kill d at t={t} seed={seed}: {v:?}"));
            match run.outcome {
                LossyOutcome::Delivered { .. } => delivered += 1,
                _ => failed += 1,
            }
        }
    }
    // The sweep must actually straddle the race window: some kills land
    // before the final hop commits, some after.
    assert!(delivered > 0, "no kill time was late enough to miss");
    assert!(failed > 0, "no kill time was early enough to hit");
}

/// Heavy loss forces retransmissions; kill the first-hop holder at
/// every instant across the retransmit window. The ARQ layer must
/// never double-deliver no matter where in the handshake the holder
/// dies, and the message must die with the holder — never vanish into
/// a half-completed handoff that later "recovers" a second copy.
#[test]
fn fault_racing_an_inflight_retransmit() {
    let (cfg, map) = fig1();
    let (s, d) = (n("1110"), n("0001"));
    let first_hop = {
        let res = route(&cfg, &map, s, d);
        res.path.expect("fig. 1 pair is feasible").nodes()[1]
    };
    let mut delivered = 0u32;
    let mut holder_failed = 0u32;
    for t in 0..=25u64 {
        let opts = RunOptions {
            // 30% loss: the first data message is frequently lost, so
            // kills land between retransmission attempts.
            channel: Some(ChannelModel::lossy(0xACE ^ t, 0.3)),
            kills: vec![(first_hop, t)],
            ..checked(AdversarialScheduler::from_seed(t))
        };
        let run = unicast(s, d, opts).unwrap_or_else(|v| panic!("kill {first_hop} at t={t}: {v}"));
        check_lossy_outcome(&cfg, s, d, &run, 1)
            .unwrap_or_else(|v| panic!("kill {first_hop} at t={t}: {v:?}"));
        match run.outcome {
            LossyOutcome::Delivered { .. } => delivered += 1,
            LossyOutcome::HolderFailed(h) => {
                assert_eq!(h, first_hop, "died at the killed holder, not elsewhere");
                holder_failed += 1;
            }
            other => panic!("kill {first_hop} at t={t}: unexpected outcome {other:?}"),
        }
    }
    assert!(delivered > 0, "some kill must land after the hop cleared");
    assert!(holder_failed > 0, "some kill must land inside the window");
}

/// The hop-granular reroute taxonomy agrees with the event-level one:
/// a destination that dies before the last hop is `DestinationFailed`,
/// a holder that dies with the message is `HolderFailed`, and a death
/// after delivery changes nothing.
#[test]
fn reroute_taxonomy_matches_the_race_outcomes() {
    let (cfg, map) = fig1();
    let (s, d) = (n("1110"), n("0001"));
    let h = s.distance(d);
    let path = route(&cfg, &map, s, d)
        .path
        .expect("feasible")
        .nodes()
        .to_vec();

    // Destination dies mid-flight (before hop H completes).
    let early = route_dynamic(
        cfg.cube(),
        cfg.node_faults(),
        &[FaultEvent {
            after_hop: 1,
            node: d,
        }],
        s,
        d,
    );
    assert_eq!(early.outcome, DynamicOutcome::DestinationFailed);

    // An intermediate holder dies exactly when it holds the message.
    let mid = route_dynamic(
        cfg.cube(),
        cfg.node_faults(),
        &[FaultEvent {
            after_hop: 1,
            node: path[1],
        }],
        s,
        d,
    );
    assert_eq!(mid.outcome, DynamicOutcome::HolderFailed(path[1]));

    // A death after the walk completed is invisible.
    let late = route_dynamic(
        cfg.cube(),
        cfg.node_faults(),
        &[FaultEvent {
            after_hop: h + 1,
            node: path[1],
        }],
        s,
        d,
    );
    assert_eq!(late.outcome, DynamicOutcome::Delivered);
}

/// After a mid-run kill, the *survivors'* GS protocol must
/// re-stabilize to the new fixed point even under an adversarial
/// schedule — the state-change-driven maintenance loop depends on it.
#[test]
fn gs_restabilizes_after_a_kill_under_adversarial_schedules() {
    let (cfg, _) = fig1();
    let victim = n("1111");
    let mut faults = cfg.node_faults().clone();
    faults.insert(victim);
    let cfg2 = FaultConfig::with_node_faults(cfg.cube(), faults);
    for seed in [0u64, 7, 0xD57] {
        let opts = checked(AdversarialScheduler::permute(seed).with_stretch(4));
        let run = ok(run_gs_async(&cfg2, 1, opts)).unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        check_gs_convergence(&cfg2, &run).unwrap_or_else(|v| panic!("seed {seed}: {v:?}"));
    }
}

/// Maintenance tie-in: with faults landing between unicasts, the
/// state-change-driven strategy keeps every unicast on fresh levels,
/// while demand-driven refreshes lazily but never routes stale.
#[test]
fn maintenance_strategies_absorb_the_same_fault_race() {
    let cube = Hypercube::new(4);
    let mut tl = Timeline::new();
    tl.push(0, TimelineEvent::Unicast(n("1110"), n("0001")));
    tl.push(5, TimelineEvent::Fault(n("1111")));
    tl.push(6, TimelineEvent::Unicast(n("1110"), n("0001")));
    tl.push(9, TimelineEvent::Fault(n("0101")));
    tl.push(12, TimelineEvent::Unicast(n("0111"), n("1000")));
    for strategy in [Strategy::StateChangeDriven, Strategy::DemandDriven] {
        let rep = replay(cube, &tl, strategy);
        assert_eq!(rep.unicasts, 3);
        assert_eq!(
            rep.stale_unicasts, 0,
            "{strategy:?} let a unicast run on stale levels"
        );
    }
}
