//! The recording settings of [`RunOptions`] are passive. For each of
//! the seven event-driven runners, on random faulty `Q_3`–`Q_6` and
//! generalized hypercubes under FIFO order and under seeded
//! reorder/stretch adversaries, turning `observe`, `trace` and `check`
//! on, alone and together, must leave every result field unchanged:
//! statistics, levels, outcome, trail, arrival time, coverage,
//! `quiescent` and `monotone`, plus the driver's processed count and
//! drained flag. Each setting must also deliver what it asks for: a
//! registry, a trace, and no violation on a correct protocol. The same
//! holds for the asynchronous GS runs from either start cut by an event
//! budget below their full run's count: a cut run is not a convergence
//! failure. A GH unicast's trail under any of these schedules is the
//! centralized `route`'s.

use std::fmt::Debug;

use hypersafe_core::{
    route, run_broadcast, run_delta_gs, run_gs_async, run_gs_reliable, run_unicast,
    run_unicast_lossy, ChurnEvent, GsAsyncRun, SafetyMap,
};
use hypersafe_simkit::{
    AdversarialScheduler, ChannelModel, FifoScheduler, ReliableConfig, RunOptions, RunReport,
    Scheduler,
};
use hypersafe_topology::{
    FaultConfig, FaultSet, GeneralizedHypercube, GhNode, Hypercube, NodeId, Topology,
};
use proptest::prelude::*;

/// FIFO, or a reorder/stretch adversary seeded with `seed`.
fn sched(fifo: bool, seed: u64) -> Box<dyn Scheduler> {
    if fifo {
        Box::new(FifoScheduler)
    } else {
        Box::new(AdversarialScheduler::permute(seed).with_stretch(1 + seed % 5))
    }
}

/// Runs `run` with every combination of `observe`, `trace` and `check`
/// on top of `base` and checks each against the plain run.
fn assert_passive<R, K: PartialEq + Debug>(
    name: &str,
    base: impl Fn() -> RunOptions,
    run: impl Fn(RunOptions) -> (R, RunReport),
    key: impl Fn(&R) -> K,
) -> Result<(), TestCaseError> {
    let (plain, plain_report) = run(base());
    let want = (key(&plain), plain_report.processed, plain_report.drained);
    for flags in 1u8..8 {
        let (observe, trace, check) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
        let (got, report) = run(RunOptions {
            observe,
            trace,
            check,
            ..base()
        });
        let settings = format!("{name} observe={observe} trace={trace} check={check}");
        prop_assert!(
            report.violation.is_none(),
            "{}: {:?}",
            settings,
            report.violation
        );
        prop_assert_eq!(report.metrics.is_some(), observe, "{}", settings);
        prop_assert_eq!(report.trace.is_some(), trace, "{}", settings);
        prop_assert_eq!(
            (key(&got), report.processed, report.drained),
            want,
            "{}",
            settings
        );
    }
    Ok(())
}

/// `run` cut by an event budget below its full run's count under
/// `base`, drawn from `seed`: the cut must not drain, and checking it
/// must report no violation (a cut is not a convergence failure) and
/// leave every field equal to the unchecked cut's. A run with no event
/// to cut passes.
fn assert_cut_passive<R, K: PartialEq + Debug>(
    name: &str,
    base: impl Fn() -> RunOptions,
    run: impl Fn(RunOptions) -> (R, RunReport),
    key: impl Fn(&R) -> K,
    seed: u64,
) -> Result<(), TestCaseError> {
    let full = run(base()).1.processed;
    if full == 0 {
        return Ok(());
    }
    let budget = seed % full;
    let cut = || RunOptions {
        max_events: budget,
        ..base()
    };
    let name = format!("{name} cut at {budget} of {full} events");
    prop_assert!(!run(cut()).1.drained, "{}", name);
    assert_passive(&name, cut, run, key)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn observe_trace_and_check_leave_every_runner_unchanged(
        n in 3u8..=6,
        picks in proptest::collection::btree_set(0u64..64, 0..6),
        pair in (any::<u64>(), any::<u64>()),
        fifo in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let cube = Hypercube::new(n);
        let faults =
            FaultSet::from_nodes(cube, picks.iter().map(|&a| NodeId::new(a % (1 << n))));
        let cfg = FaultConfig::with_node_faults(cube, faults);
        let map = SafetyMap::compute(&cfg);
        let healthy: Vec<NodeId> = cfg.healthy_nodes().collect();
        let s = healthy[(pair.0 % healthy.len() as u64) as usize];
        let d = healthy[(pair.1 % healthy.len() as u64) as usize];
        let rcfg = ReliableConfig::default();
        let plain = || RunOptions {
            sched: sched(fifo, seed),
            ..RunOptions::default()
        };
        let lossy = || RunOptions {
            sched: sched(fifo, seed),
            channel: Some(ChannelModel::lossy(seed ^ 0x1055, 0.1).with_jitter(2)),
            max_events: 1_000_000,
            ..RunOptions::default()
        };

        let gs_key = |r: &GsAsyncRun| (r.map.to_vec(), r.stats.clone(), r.monotone);
        assert_passive("run_gs_async", plain, |opts| run_gs_async(&cfg, 2, opts), gs_key)?;
        assert_cut_passive("run_gs_async", plain, |opts| run_gs_async(&cfg, 2, opts), gs_key, seed)?;
        assert_passive(
            "run_gs_reliable",
            lossy,
            |opts| run_gs_reliable(&cfg, rcfg, 1, opts),
            |r| (r.map.to_vec(), r.stats.clone(), r.quiescent, r.links_abandoned),
        )?;
        assert_passive(
            "run_unicast",
            plain,
            |opts| run_unicast(&cfg, &map, s, d, 1, opts),
            |r| (r.decision, r.trail.clone(), r.arrival_time, r.messages),
        )?;
        assert_passive(
            "run_unicast_lossy",
            lossy,
            |opts| run_unicast_lossy(&cfg, &map, s, d, 1, rcfg, opts),
            |r| {
                let (outcome, trail) = (r.outcome.clone(), r.trail.clone());
                (outcome, r.decision, trail, r.stats.clone(), r.duplicate_deliveries)
            },
        )?;

        assert_passive(
            "run_broadcast",
            plain,
            |opts| run_broadcast(&cfg, &map, s, 1, opts),
            |r| {
                let received: Vec<bool> = cube.nodes().map(|a| r.received(a)).collect();
                (received, r.messages, r.steps, r.relayed_via)
            },
        )?;

        // One churn event at a node drawn from the pair's first seed: a
        // recovery if it is faulty, else a fault.
        let v = NodeId::new(pair.0 % (1 << n));
        let mut after = cfg.clone();
        let event = if cfg.node_faulty(v) {
            after.node_faults_mut().remove(v);
            ChurnEvent::Recover(v)
        } else {
            after.node_faults_mut().insert(v);
            ChurnEvent::Fault(v)
        };
        let delta = |opts| run_delta_gs(&after, &map, event, 1, opts);
        assert_passive("run_delta_gs", plain, delta, gs_key)?;
        assert_cut_passive("run_delta_gs", plain, delta, gs_key, seed)?;
    }

    #[test]
    fn observe_trace_and_check_leave_gh_unicast_unchanged(
        radices in proptest::collection::vec(2u16..=4, 1..=4),
        faults in proptest::collection::vec(any::<u64>(), 0..8),
        pair in (any::<u64>(), any::<u64>()),
        fifo in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let gh = GeneralizedHypercube::new(&radices);
        let mut set = gh.fault_set();
        for &f in &faults {
            set.insert(NodeId::new(f % gh.num_nodes()));
        }
        let healthy: Vec<GhNode> =
            gh.nodes().filter(|a| !set.contains(NodeId::new(a.raw()))).collect();
        prop_assume!(!healthy.is_empty());
        let map = SafetyMap::compute_in(&gh, &set);
        let s = healthy[(pair.0 % healthy.len() as u64) as usize];
        let d = healthy[(pair.1 % healthy.len() as u64) as usize];
        let plain = || RunOptions {
            sched: sched(fifo, seed),
            ..RunOptions::default()
        };
        let run = |opts| run_unicast(&set, &map, s, d, 1, opts);
        assert_passive(
            "run_unicast (GH)",
            plain,
            run,
            |r| (r.decision, r.trail.clone(), r.arrival_time, r.messages),
        )?;
        let central = route(&set, &map, s, d);
        let want = central.path.filter(|_| central.delivered).map(|p| p.nodes().to_vec());
        prop_assert_eq!(run(plain()).0.trail, want);
    }
}
