//! E26 — resilient-service churn soak (`repro service`): drive an
//! open-loop mixed workload (route requests interleaved with
//! fault/recovery churn) through the epoch-snapshot routing service
//! ([`hypersafe_core::SafetyService`] under
//! [`hypersafe_simkit::service::RoutingService`]), checking the
//! published fixed point at every quiescent point and verifying that
//! every request lands in exactly one terminal state no later than one
//! tick past its deadline.
//!
//! Exports per-rung ladder counts + latency p50/p95/p99 to
//! `service.csv`, a deterministic quantile summary to
//! `BENCH_service.json`, and a `hypersafe.obs.v1` metrics snapshot to
//! `service_obs.json` / `.csv`. Every number is a count or a virtual
//! tick — never wall-clock — so the whole export is byte-identical
//! across `RAYON_NUM_THREADS` settings and across reruns of the same
//! seed (CI's replay gate).

use crate::gate::{export, fnv1a, write, GateRun, FNV_OFFSET};
use crate::table::Report;
use hypersafe_core::SafetyService;
use hypersafe_simkit::service::{DegradeReason, ReqState, RoutingService, ServiceConfig, Terminal};
use hypersafe_simkit::{Metrics, QuantileHist};
use hypersafe_topology::{FaultConfig, Hypercube};
use hypersafe_workloads::{open_loop_mix, OpenLoop};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;

/// Parameters for the service soak.
#[derive(Clone, Debug)]
pub struct ServiceParams {
    /// Cube dimensions to soak.
    pub dims: Vec<u8>,
    /// Route requests per dimension.
    pub requests: u64,
    /// Probability of a churn event between consecutive arrivals.
    pub churn_prob: f64,
    /// Master seed.
    pub seed: u64,
    /// Lifecycle knobs (admission window, retries, backoff, lag).
    pub service: ServiceConfig,
    /// Where the exports land.
    pub out_dir: PathBuf,
}

impl Default for ServiceParams {
    fn default() -> Self {
        ServiceParams {
            dims: vec![8, 10, 12],
            requests: 100_000,
            churn_prob: 0.05,
            seed: 0x05E5_71CE,
            service: ServiceConfig {
                max_in_flight: 48,
                ..ServiceConfig::default()
            },
            out_dir: PathBuf::from("results"),
        }
    }
}

fn terminal_word(t: Terminal) -> u64 {
    match t {
        Terminal::Delivered { hops } => 0x01 << 32 | hops as u64,
        Terminal::Degraded { reason, hops } => {
            let r = match reason {
                DegradeReason::Suboptimal => 0x02u64,
                DegradeReason::Detour => 0x03,
                DegradeReason::StaleRetry { attempts } => 0x04 | (attempts as u64) << 8,
            };
            r << 32 | hops as u64
        }
        Terminal::Rejected { reason } => {
            use hypersafe_simkit::service::RejectReason::*;
            let r = match reason {
                Overloaded => 1u64,
                Cancelled => 2,
                SourceFaulty => 3,
                DestinationFaulty => 4,
                Unreachable { attempts } => 5 | (attempts as u64) << 8,
            };
            0x05 << 32 | r
        }
        Terminal::TimedOut => 0x06 << 32,
    }
}

struct DimOutcome {
    stats: hypersafe_simkit::service::ServiceStats,
    checksum: u64,
    unterminated: u64,
    deadline_overruns: u64,
    detours: u64,
    cells_changed: u64,
    end_time: u64,
    violations: Vec<String>,
    /// Per-request terminal data for the obs snapshot.
    hops: QuantileHist,
    attempts_hist: QuantileHist,
}

fn soak_dim(p: &ServiceParams, n: u8) -> DimOutcome {
    let cube = Hypercube::new(n);
    let wl = OpenLoop {
        requests: p.requests,
        churn_prob: p.churn_prob,
        max_live_faults: (n as usize).saturating_sub(1).max(1),
        ..OpenLoop::default()
    };
    let mut rng = ChaCha8Rng::seed_from_u64(p.seed ^ ((n as u64) << 40));
    let injections = open_loop_mix(cube, &wl, &mut rng);

    let provider = SafetyService::new(FaultConfig::fault_free(cube));
    let mut svc = RoutingService::new(provider, p.service);
    svc.load(&injections);
    svc.run();

    let mut checksum = FNV_OFFSET;
    let mut unterminated = 0u64;
    let mut deadline_overruns = 0u64;
    let mut hops = QuantileHist::new();
    let mut attempts_hist = QuantileHist::new();
    for (state, _submit, deadline, done_at, epoch) in svc.request_records() {
        match state {
            ReqState::Done(t) => {
                if done_at > deadline + 1 {
                    deadline_overruns += 1;
                }
                checksum = fnv1a(checksum, terminal_word(t));
                checksum = fnv1a(checksum, done_at ^ epoch.rotate_left(32));
                match t {
                    Terminal::Delivered { hops: h } | Terminal::Degraded { hops: h, .. } => {
                        hops.record(h as u64);
                        if let Terminal::Degraded {
                            reason: DegradeReason::StaleRetry { attempts },
                            ..
                        } = t
                        {
                            attempts_hist.record(attempts as u64 + 1);
                        } else {
                            attempts_hist.record(1);
                        }
                    }
                    _ => {}
                }
            }
            _ => unterminated += 1,
        }
    }
    DimOutcome {
        stats: svc.stats().clone(),
        checksum,
        unterminated,
        deadline_overruns,
        detours: svc.provider().detours(),
        cells_changed: svc.provider().cells_changed(),
        end_time: svc.now(),
        violations: svc.violations().to_vec(),
        hops,
        attempts_hist,
    }
}

fn q_cells(h: &QuantileHist) -> [String; 4] {
    let q = h.quantiles();
    [
        q.p50.to_string(),
        q.p95.to_string(),
        q.p99.to_string(),
        q.max.to_string(),
    ]
}

/// Runs the soak; writes `service.csv`, `BENCH_service.json`, and the
/// obs snapshot pair into `p.out_dir`. Any invariant violation,
/// unterminated request or deadline overrun is a failure.
pub fn run(p: &ServiceParams) -> GateRun {
    let mut rep = Report::new(
        "service",
        format!(
            "resilient-service churn soak: {} open-loop requests per dimension, \
             churn_prob {}, publish_lag {}",
            p.requests, p.churn_prob, p.service.publish_lag
        ),
        &["n", "rung", "count", "p50", "p95", "p99", "max", "detail"],
    );
    let mut failed = 0u64;
    let mut bench = String::from("{\n  \"results\": [\n");
    let mut bench_rows: Vec<String> = Vec::new();
    let mut obs = Metrics::new(0, 0);

    for &n in &p.dims {
        let o = soak_dim(p, n);
        let s = &o.stats;
        failed += s.invariant_violations + o.unterminated + o.deadline_overruns;

        let rungs: [(&str, u64, &QuantileHist, String); 6] = [
            (
                "optimal",
                s.delivered_optimal,
                &s.lat_optimal,
                String::new(),
            ),
            (
                "suboptimal",
                s.degraded_suboptimal,
                &s.lat_suboptimal,
                String::new(),
            ),
            ("detour", s.degraded_detour, &s.lat_detour, String::new()),
            (
                "retry",
                s.degraded_retry,
                &s.lat_retry,
                format!("retries={}", s.retries),
            ),
            (
                "rejected",
                s.rejected_overloaded
                    + s.rejected_cancelled
                    + s.rejected_source_faulty
                    + s.rejected_destination_faulty
                    + s.rejected_unreachable,
                &s.lat_rejected,
                format!(
                    "shed={} cancelled={} src={} dst={} unreachable={}",
                    s.rejected_overloaded,
                    s.rejected_cancelled,
                    s.rejected_source_faulty,
                    s.rejected_destination_faulty,
                    s.rejected_unreachable
                ),
            ),
            ("timed_out", s.timed_out, &s.lat_timed_out, String::new()),
        ];
        for (rung, count, hist, detail) in &rungs {
            let [p50, p95, p99, max] = q_cells(hist);
            rep.row(vec![
                n.to_string(),
                (*rung).to_string(),
                count.to_string(),
                p50.clone(),
                p95.clone(),
                p99.clone(),
                max,
                detail.clone(),
            ]);
            bench_rows.push(format!(
                "    {{\"id\": \"service/n{n}/{rung}/count\", \"value\": {count}}}"
            ));
            bench_rows.push(format!(
                "    {{\"id\": \"service/n{n}/{rung}/p50_ticks\", \"value\": {p50}}}"
            ));
            bench_rows.push(format!(
                "    {{\"id\": \"service/n{n}/{rung}/p95_ticks\", \"value\": {p95}}}"
            ));
            bench_rows.push(format!(
                "    {{\"id\": \"service/n{n}/{rung}/p99_ticks\", \"value\": {p99}}}"
            ));
        }
        rep.row(vec![
            n.to_string(),
            "all".to_string(),
            s.terminals().to_string(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            format!(
                "epochs={} churn={} skipped={} detour_routes={} cells_changed={} \
                 max_in_flight={} unterminated={} overruns={} violations={} end_t={} \
                 checksum={:016x}",
                s.epochs_published,
                s.churn_applied,
                s.churn_skipped,
                o.detours,
                o.cells_changed,
                s.max_in_flight_seen,
                o.unterminated,
                o.deadline_overruns,
                s.invariant_violations,
                o.end_time,
                o.checksum
            ),
        ]);
        for v in &o.violations {
            rep.note(format!("n={n} violation: {v}"));
        }

        obs.latency.merge(&s.lat_optimal);
        obs.latency.merge(&s.lat_suboptimal);
        obs.latency.merge(&s.lat_detour);
        obs.latency.merge(&s.lat_retry);
        obs.hops.merge(&o.hops);
        obs.rounds.merge(&o.attempts_hist);
    }

    bench.push_str(&bench_rows.join(",\n"));
    bench.push_str("\n  ]\n}\n");

    rep.note(
        "rungs are the graceful-degradation ladder: optimal -> suboptimal -> detour \
         (live-state reroute) -> retry (stale snapshot, fresher epoch) -> typed \
         rejection; latencies are virtual ticks submit -> terminal"
            .to_string(),
    );
    rep.note(
        "the fixed-point invariant is checked at every epoch publication and at end \
         of run; unterminated / overruns / violations must all be zero — the repro \
         gate exits nonzero otherwise"
            .to_string(),
    );
    rep.note(
        "all columns are counts and virtual ticks; rerun with a different \
         RAYON_NUM_THREADS and the csv must be byte-identical (the run is a pure \
         function of the seed)"
            .to_string(),
    );
    let mut failures = Vec::new();
    if failed > 0 {
        failures.push(format!(
            "service: {failed} failure(s) (invariant violations / unterminated requests / \
             deadline overruns) — see the `all` rows"
        ));
    }
    let bench_path = p.out_dir.join("BENCH_service.json");
    match write(&bench_path, &bench) {
        Ok(()) => {
            rep.note(format!("bench summary: {}", bench_path.display()));
        }
        Err(e) => failures.push(format!("service: {e}")),
    }
    let about = "delivered latency / hops / attempts histograms";
    failures.extend(export(&mut rep, &p.out_dir, Some((&obs.snapshot(), about))));
    GateRun {
        report: rep,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServiceParams {
        ServiceParams {
            dims: vec![4, 6],
            requests: 400,
            churn_prob: 0.1,
            seed: 77,
            out_dir: std::env::temp_dir().join("hypersafe_service_test"),
            ..Default::default()
        }
    }

    #[test]
    fn tiny_soak_is_clean_and_deterministic() {
        let a = run(&tiny());
        let b = run(&tiny());
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert_eq!(a.report.rows, b.report.rows, "same seed, same bytes");
        let _ = std::fs::remove_dir_all(tiny().out_dir);
    }

    #[test]
    fn every_request_reaches_exactly_one_terminal_state() {
        let p = tiny();
        for &n in &p.dims {
            let o = soak_dim(&p, n);
            assert_eq!(o.unterminated, 0);
            assert_eq!(o.deadline_overruns, 0);
            assert_eq!(
                o.stats.terminal_transitions, p.requests,
                "one terminal transition per request at n={n}"
            );
            assert_eq!(o.stats.terminals(), p.requests);
        }
    }

    #[test]
    fn the_ladder_actually_degrades_under_churn() {
        let p = ServiceParams {
            dims: vec![6],
            requests: 3_000,
            churn_prob: 0.3,
            seed: 5,
            out_dir: std::env::temp_dir().join("hypersafe_service_ladder_test"),
            ..Default::default()
        };
        let o = soak_dim(&p, 6);
        let s = &o.stats;
        assert!(s.delivered_optimal > 0, "optimal rung populated");
        assert!(
            s.degraded_suboptimal + s.degraded_detour + s.degraded_retry > 0,
            "heavy churn exercises the lower rungs: {}",
            s.render()
        );
        assert_eq!(s.invariant_violations, 0);
        let _ = std::fs::remove_dir_all(p.out_dir);
    }
}
