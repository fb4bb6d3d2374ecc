//! End-to-end lifecycle proptests for the resilient routing service:
//! every request reaches exactly one terminal state, deadlines are
//! honored within the documented +1 tick, cancellation is idempotent,
//! seeded runs replay byte-identically under the adversarial
//! scheduler, and — the epoch-snapshot contract — every route planned
//! at epoch `k` is valid against archived snapshot `k`.
//!
//! When a property fails here, proptest persists the shrunk case to
//! `tests/service_lifecycle.proptest-regressions`; genuinely hard
//! service schedules worth pinning forever belong in
//! `tests/corpus/dst_hard_seeds.txt` next to the DST corpus.

use hypersafe::safety::{SafetyService, SafetyState};
use hypersafe::simkit::{
    AdversarialScheduler, AttemptOutcome, AttemptVerdict, DeliveryRung, Epoch, Injection,
    RejectReason, ReqState, RouteProvider, RoutingService, ServiceConfig, Terminal,
};
use hypersafe::topology::{FaultConfig, Hypercube, NodeId};
use hypersafe::workloads::{open_loop_mix, OpenLoop};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Generates the standard soak mix and runs it to completion under an
/// adversarial (seed-permuted) schedule.
fn soak(seed: u64, n: u8, requests: u64, churn_prob: f64) -> RoutingService<SafetyService> {
    let cube = Hypercube::new(n);
    let wl = OpenLoop {
        requests,
        churn_prob,
        max_live_faults: usize::from(n - 1),
        cancel_prob: 0.05,
        ..OpenLoop::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let injections = open_loop_mix(cube, &wl, &mut rng);
    let provider = SafetyService::new(FaultConfig::fault_free(cube));
    let mut svc = RoutingService::with_scheduler(
        provider,
        ServiceConfig::default(),
        Box::new(AdversarialScheduler::permute(seed)),
    );
    svc.load(&injections);
    svc.run();
    svc
}

/// Full observable outcome of a run, for byte-identity comparisons.
fn fingerprint<P: RouteProvider>(svc: &RoutingService<P>) -> String {
    let records: Vec<_> = svc.request_records().collect();
    format!(
        "{records:?}|{}|{:?}|{}",
        svc.stats().render(),
        svc.violations(),
        svc.now()
    )
}

/// Forwards churn and publication to `SafetyService` but answers every
/// attempt `Stale`, so each request retries until its retry budget or
/// its deadline ends it.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Liveness + uniqueness: every submitted request ends in exactly
    /// one terminal state, and the run reports no invariant
    /// violations.
    #[test]
    fn every_request_reaches_exactly_one_terminal(
        seed in any::<u64>(),
        n in 4u8..=6,
    ) {
        let svc = soak(seed, n, 300, 0.15);
        prop_assert_eq!(svc.violations(), &[] as &[String]);
        prop_assert_eq!(svc.stats().invariant_violations, 0);
        let mut terminals = 0u64;
        for (state, _, _, _, _) in svc.request_records() {
            prop_assert!(
                matches!(state, ReqState::Done(_)),
                "request left non-terminal: {state:?}"
            );
            terminals += 1;
        }
        prop_assert_eq!(terminals, svc.num_requests() as u64);
        // The per-rung counters partition the requests: each request
        // was counted on exactly one rung.
        prop_assert_eq!(svc.stats().terminals(), terminals);
    }

    /// The same contract past the event queue's window: deadlines up
    /// to 1,000 ticks and backoffs up to 512 put Deadline and retry
    /// events far ahead, so they wait outside the window and migrate
    /// into it later, under a permuted schedule with every attempt
    /// stale.
    #[test]
    fn far_deadlines_and_backoffs_reach_exactly_one_terminal(
        seed in any::<u64>(),
        n in 4u8..=6,
        deadline_max in 16u64..=1_000,
        backoff_base in 0u64..=8,
        backoff_cap in 1u64..=512,
        retry_limit in 0u32..=12,
    ) {
        let cube = Hypercube::new(n);
        let wl = OpenLoop {
            requests: 200,
            churn_prob: 0.15,
            max_live_faults: usize::from(n - 1),
            cancel_prob: 0.05,
            deadline_max,
            ..OpenLoop::default()
        };
        let cfg = ServiceConfig {
            retry_limit,
            backoff_base,
            backoff_cap,
            ..ServiceConfig::default()
        };
        let run = || {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let injections = open_loop_mix(cube, &wl, &mut rng);
            let provider = AlwaysStale(SafetyService::new(FaultConfig::fault_free(cube)));
            let mut svc = RoutingService::with_scheduler(
                provider,
                cfg,
                Box::new(AdversarialScheduler::permute(seed)),
            );
            svc.load(&injections);
            svc.run();
            svc
        };
        let svc = run();
        prop_assert_eq!(svc.violations(), &[] as &[String]);
        for (state, submit, deadline, done_at, _) in svc.request_records() {
            prop_assert!(
                matches!(state, ReqState::Done(_)),
                "request left non-terminal: {state:?}"
            );
            prop_assert!(
                done_at <= deadline + 1,
                "terminal at {done_at} past deadline {deadline} (+1): {state:?}"
            );
            prop_assert!(done_at >= submit, "terminal precedes submission");
        }
        prop_assert_eq!(svc.stats().terminal_transitions, svc.num_requests() as u64);
        prop_assert_eq!(svc.stats().terminals(), svc.num_requests() as u64);
        prop_assert_eq!(fingerprint(&svc), fingerprint(&run()));
    }

    /// Deadlines are honored within the documented +1 tick: the
    /// Deadline event at `deadline + 1` is the only TimedOut source,
    /// and nothing outlives it.
    #[test]
    fn deadlines_hold_within_one_tick(
        seed in any::<u64>(),
        n in 4u8..=6,
    ) {
        let svc = soak(seed, n, 300, 0.15);
        for (state, submit, deadline, done_at, _) in svc.request_records() {
            prop_assert!(
                done_at <= deadline + 1,
                "terminal at {done_at} past deadline {deadline} (+1): {state:?}"
            );
            prop_assert!(done_at >= submit, "terminal precedes submission");
        }
    }

    /// Cancellation is idempotent: duplicating every cancel (and
    /// re-cancelling after the deadline) changes no observable
    /// outcome.
    #[test]
    fn cancel_is_idempotent(
        seed in any::<u64>(),
        n in 4u8..=6,
    ) {
        let cube = Hypercube::new(n);
        let wl = OpenLoop {
            requests: 200,
            churn_prob: 0.1,
            max_live_faults: usize::from(n - 1),
            cancel_prob: 0.25,
            ..OpenLoop::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let base = open_loop_mix(cube, &wl, &mut rng);
        // Doubled: every cancel twice at its tick, plus a late
        // re-cancel long after the request must be terminal.
        let mut doubled = Vec::with_capacity(base.len() * 2);
        for inj in &base {
            doubled.push(*inj);
            if let Injection::Cancel { at, req } = *inj {
                doubled.push(Injection::Cancel { at, req });
                doubled.push(Injection::Cancel { at: at + 10_000, req });
            }
        }
        // FIFO schedule: the duplicated events must be pure no-ops.
        // (Under the adversarial scheduler the extra events would
        // consume permutation draws and legitimately reshuffle
        // same-tick order — that perturbs schedules, not outcomes.)
        let run = |injections: &[Injection]| {
            let provider = SafetyService::new(FaultConfig::fault_free(cube));
            let mut svc = RoutingService::new(provider, ServiceConfig::default());
            svc.load(injections);
            svc.run();
            let records: Vec<_> = svc.request_records().collect();
            format!("{records:?}")
        };
        prop_assert_eq!(run(&base), run(&doubled));
    }

    /// Determinism: the same seed replays the whole run — every
    /// record, counter, and the final clock — byte-identically, even
    /// under the adversarial same-tick permutation.
    #[test]
    fn seeded_replay_is_byte_identical(
        seed in any::<u64>(),
        n in 4u8..=6,
    ) {
        let a = fingerprint(&soak(seed, n, 250, 0.2));
        let b = fingerprint(&soak(seed, n, 250, 0.2));
        prop_assert_eq!(a, b);
    }

    /// The epoch-snapshot contract: a route planned at epoch `k` is a
    /// valid walk of snapshot `k` — consecutive trail nodes adjacent,
    /// every hop healthy *in that snapshot*, ending at the
    /// destination in exactly `hops` steps. (Staleness against the
    /// live set is allowed — that is what the retry rung is for — but
    /// the plan itself must never contradict the map that issued it.)
    #[test]
    fn routes_issued_at_epoch_k_are_valid_against_snapshot_k(
        seed in any::<u64>(),
        n in 4u8..=6,
        ops in proptest::collection::vec(any::<u64>(), 20..=60),
    ) {
        let cube = Hypercube::new(n);
        let mut provider =
            SafetyService::new(FaultConfig::fault_free(cube)).with_archive();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let wl = OpenLoop {
            requests: ops.len() as u64,
            churn_prob: 0.3,
            max_live_faults: usize::from(n - 1),
            ..OpenLoop::default()
        };
        let injections = open_loop_mix(cube, &wl, &mut rng);
        let mut trail = Vec::new();
        let mut planned = 0u64;
        for (inj, &op) in injections.iter().zip(&ops) {
            match *inj {
                Injection::Churn { node, fault, .. } => {
                    hypersafe::simkit::service::RouteProvider::apply_churn(
                        &mut provider, node, fault,
                    );
                }
                Injection::Submit { src, dst, .. } => {
                    let out = provider.attempt_traced(src, dst, &mut trail);
                    if let AttemptVerdict::Delivered { rung, hops } = out.verdict {
                        if rung == DeliveryRung::Detour {
                            continue; // planned on the live set, not a snapshot
                        }
                        let archive = provider.archived().expect("archive enabled");
                        let snap: &Arc<Epoch<SafetyState>> = &archive[out.epoch as usize];
                        prop_assert_eq!(snap.epoch, out.epoch);
                        if hops == 0 {
                            continue; // AlreadyThere records no trail
                        }
                        planned += 1;
                        prop_assert_eq!(trail.len() as u32, hops + 1);
                        prop_assert_eq!(*trail.first().unwrap(), src);
                        prop_assert_eq!(*trail.last().unwrap(), dst);
                        for w in trail.windows(2) {
                            prop_assert_eq!(
                                (w[0].raw() ^ w[1].raw()).count_ones(), 1,
                                "trail hops a non-edge: {:?}", trail
                            );
                        }
                        // Interior nodes are the map's own choices and
                        // must be healthy in the snapshot that planned
                        // them. Endpoints are exempt: a recovered-live
                        // source/destination may still be faulty in a
                        // lagging snapshot (§ the retry rung), and the
                        // algorithm never consults their own levels.
                        for &node in &trail[1..trail.len() - 1] {
                            prop_assert!(
                                !snap.data.cfg.node_faulty(node),
                                "epoch {} planned through its own fault {node}",
                                out.epoch
                            );
                        }
                    }
                }
                Injection::Cancel { .. } => {}
            }
            // Interleave publications off the op stream, so attempts
            // run against a mix of current and lagging epochs.
            if op.is_multiple_of(3) {
                hypersafe::simkit::service::RouteProvider::publish_next(&mut provider);
            }
        }
        // The generator keeps endpoints healthy and faults < n, so
        // snapshot-planned deliveries dominate; make sure the
        // property actually exercised trails.
        prop_assert!(planned > 0, "no snapshot-planned route was checked");
    }
}

/// Not a proptest: the rejected-request taxonomy stays closed — every
/// rejection carries one of the five typed reasons and the stats
/// counters agree with the records.
#[test]
fn typed_rejections_partition_the_stats() {
    let svc = soak(0xC0FFEE, 5, 400, 0.25);
    let mut by_reason = [0u64; 5];
    for (state, _, _, _, _) in svc.request_records() {
        if let ReqState::Done(Terminal::Rejected { reason }) = state {
            let slot = match reason {
                RejectReason::Overloaded => 0,
                RejectReason::Cancelled => 1,
                RejectReason::SourceFaulty => 2,
                RejectReason::DestinationFaulty => 3,
                RejectReason::Unreachable { .. } => 4,
            };
            by_reason[slot] += 1;
        }
    }
    let s = svc.stats();
    assert_eq!(
        by_reason,
        [
            s.rejected_overloaded,
            s.rejected_cancelled,
            s.rejected_source_faulty,
            s.rejected_destination_faulty,
            s.rejected_unreachable,
        ]
    );
}

/// Replays the archived service hard seeds from the shared corpus
/// (`service <n> <seed>` lines in `tests/corpus/dst_hard_seeds.txt`).
/// Each one produces an adversarial schedule that orders a same-tick
/// `Cancel` ahead of its own `Submit` — the schedule class that once
/// double-admitted a cancelled request and double-counted its terminal
/// rung. The full terminal/deadline contract must hold on every entry.
#[test]
fn corpus_service_hard_seeds_stay_green() {
    let corpus = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/corpus/dst_hard_seeds.txt"
    ))
    .expect("corpus file");
    let mut replayed = 0u32;
    for line in corpus.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix("service ") else {
            continue;
        };
        let mut it = rest.split_whitespace();
        let n: u8 = it.next().unwrap().parse().expect("corpus dim");
        let seed = it.next().unwrap();
        let seed = u64::from_str_radix(seed.trim_start_matches("0x"), 16).expect("corpus seed");
        let svc = soak(seed, n, 300, 0.15);
        assert_eq!(svc.violations(), &[] as &[String], "service {n} {seed:#x}");
        assert_eq!(
            svc.stats().terminals(),
            svc.num_requests() as u64,
            "service {n} {seed:#x}: rung counters must partition the requests"
        );
        for (state, submit, deadline, done_at, _) in svc.request_records() {
            assert!(matches!(state, ReqState::Done(_)), "service {n} {seed:#x}");
            assert!(done_at <= deadline + 1 && done_at >= submit);
        }
        replayed += 1;
    }
    assert!(replayed >= 6, "corpus lost its service entries");
}
