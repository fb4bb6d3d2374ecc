//! The recording settings of [`RunOptions`] are passive. For each of
//! the five event-driven runners, on random faulty `Q_3`–`Q_6` under
//! FIFO order and under seeded reorder/stretch adversaries, turning
//! `observe`, `trace` and `check` on, alone and together, must leave
//! every result field unchanged: statistics, levels, outcome, trail,
//! `quiescent` and `monotone`, plus the driver's processed count and
//! drained flag. Each setting must also deliver what it asks for: a
//! registry, a trace, and no violation on a correct protocol.

use std::fmt::Debug;

use hypersafe_core::{
    run_delta_gs, run_gs_async, run_gs_reliable, run_unicast, run_unicast_lossy, ChurnEvent,
    SafetyMap,
};
use hypersafe_simkit::{
    AdversarialScheduler, ChannelModel, FifoScheduler, ReliableConfig, RunOptions, RunReport,
    Scheduler,
};
use hypersafe_topology::{FaultConfig, FaultSet, Hypercube, NodeId};
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

        assert_passive(
            "run_gs_async",
            plain,
            |opts| run_gs_async(&cfg, 2, opts),
            |r| (r.map.to_vec(), r.stats.clone(), r.monotone),
        )?;
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
        assert_passive(
            "run_delta_gs",
            plain,
            |opts| run_delta_gs(&after, &map, event, 1, opts),
            |r| (r.map.to_vec(), r.stats.clone(), r.monotone),
        )?;
    }
}
