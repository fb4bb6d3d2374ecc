//! Wall-clock benchmark of the hypersafe routing stack.
//!
//! ```text
//! perfbench --workload <svc-churn|svc-quiet|batch-route|fan-dense>
//!           --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! The inputs are generated from the seed; the library only ever sees
//! the generated inputs. Every call into the library is timed from
//! outside. `--trace 0` prints the end-to-end metrics of one workload;
//! `--trace 1` prints the per-layer metrics, recorded as spans around
//! the calls into each layer plus direct replays of single layers. The
//! last line of standard output is the JSON result. A failed
//! correctness check prints no result and exits with code 1.

mod batch;
mod fan;
mod layers;
mod stats;
mod svc;
mod trace;

use stats::{beyond, median, quantile, BestOf};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};
use trace::{Kind, Tracer, KINDS};

/// One measured phase of a workload: rounds of its request stream.
#[derive(Default)]
pub struct Phase {
    /// Passes over the workload's unit list (rounds).
    pub passes: u64,
    /// Requests per second at the units' best-of-passes cost.
    pub rps: f64,
    /// Best-of-passes wall-clock of each request unit, in ns.
    pub lat: Vec<u64>,
    /// Service epochs, `publish_next` through its `check_invariants`,
    /// pooled over a traced phase, in ns.
    pub epochs: Vec<u64>,
    /// Wall-clock of the whole phase, harness work included.
    pub wall_s: f64,
    pub attempted: u64,
    pub delivered: u64,
    pub failed: u64,
    /// Terminal-state checksum of the last pass (service workloads).
    pub checksum: u64,
    pub tracer: Option<Tracer>,
    /// Workload-specific counts.
    pub counters: Vec<(&'static str, f64)>,
}

impl Phase {
    fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    fn tracer(&self) -> &Tracer {
        self.tracer.as_ref().expect("traced phase")
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    SvcChurn,
    SvcQuiet,
    BatchRoute,
    FanDense,
}

const WORKLOADS: [Workload; 4] = [
    Workload::SvcChurn,
    Workload::SvcQuiet,
    Workload::BatchRoute,
    Workload::FanDense,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::SvcChurn => "svc-churn",
            Workload::SvcQuiet => "svc-quiet",
            Workload::BatchRoute => "batch-route",
            Workload::FanDense => "fan-dense",
        }
    }

    fn request_unit(self) -> &'static str {
        match self {
            Workload::SvcChurn | Workload::SvcQuiet => {
                "RouteProvider::attempt (req_per_s: each RoutingService::run cut into \
                 segments at the end of every provider call)"
            }
            Workload::BatchRoute => {
                "batch of 1024 pairs through route_many_seq (req_per_s counts routes)"
            }
            Workload::FanDense => "route_disjoint call",
        }
    }
}

enum Prepared {
    Svc(svc::Prepared),
    Batch(batch::Prepared),
    Fan(fan::Prepared),
}

fn prepare(w: Workload, seed: u64) -> Result<Prepared, String> {
    Ok(match w {
        Workload::SvcChurn => Prepared::Svc(svc::prepare(seed, true)?),
        Workload::SvcQuiet => Prepared::Svc(svc::prepare(seed, false)?),
        Workload::BatchRoute => Prepared::Batch(batch::prepare(seed)?),
        Workload::FanDense => Prepared::Fan(fan::prepare(seed)),
    })
}

/// `setup_s` is the median of this many groups' estimates.
const SETUP_GROUPS: usize = 5;
/// Builds of the system under test per run, eight per group. The
/// longest, batch-route's, takes about 0.12 s, so set-up uses at most
/// about 5 s of a run.
const SETUP_BUILDS: usize = 8 * SETUP_GROUPS;

impl Prepared {
    /// The units the system under test is built from: a loaded service
    /// per stream, or a safety map per fault configuration.
    fn setup_units(&self) -> usize {
        match self {
            Prepared::Svc(p) => p.streams.len(),
            Prepared::Batch(batch::Prepared { cfgs, .. })
            | Prepared::Fan(fan::Prepared { cfgs, .. }) => cfgs.len(),
        }
    }

    /// Builds unit `i` of the system under test; the unit is dropped
    /// after the clock stops.
    fn time_unit(&self, i: usize) -> Duration {
        fn timed<T>(build: impl FnOnce() -> T) -> Duration {
            let t = Instant::now();
            let unit = black_box(build());
            let d = t.elapsed();
            drop(unit);
            d
        }
        match self {
            Prepared::Svc(p) => timed(|| svc::build_stream(p, i)),
            Prepared::Batch(batch::Prepared { cfgs, .. })
            | Prepared::Fan(fan::Prepared { cfgs, .. }) => {
                timed(|| hypersafe_core::SafetyMap::compute(&cfgs[i]))
            }
        }
    }

    fn measure(
        &self,
        budget: Duration,
        tracer: Option<Tracer>,
        between: &mut dyn FnMut(),
    ) -> Result<Phase, String> {
        match self {
            Prepared::Svc(p) => svc::measure(p, budget, tracer, between),
            Prepared::Batch(p) => batch::measure(p, budget, tracer, between),
            Prepared::Fan(p) => fan::measure(p, budget, tracer, between),
        }
    }
}

/// Set-up time. The system is built a fixed number of times between the
/// passes of the measured phase, on a schedule that spreads the builds
/// evenly over the run, as the request units' passes are spread. Build
/// `j` falls in group `j mod SETUP_GROUPS`. Within a group, each unit's
/// cost is its fastest build, which takes out the time other load on
/// the host added, as for the request units; a group's estimate is the
/// sum of its units' costs, and `setup_s` is the median of the groups'
/// estimates. Each unit is dropped after its clock stops, and the
/// allocator keeps what it frees ([`keep_freed_memory`]), so the next
/// build reuses memory that is already mapped.
struct Setup<'a> {
    p: &'a Prepared,
    groups: Vec<BestOf>,
    builds: usize,
    start: Instant,
    run: Duration,
}

impl<'a> Setup<'a> {
    /// Starts with one discarded warm-up build; the schedule spreads the
    /// builds over `run` from now on.
    fn new(p: &'a Prepared, run: Duration) -> Self {
        for i in 0..p.setup_units() {
            p.time_unit(i);
        }
        Setup {
            p,
            groups: (0..SETUP_GROUPS).map(|_| BestOf::default()).collect(),
            builds: 0,
            start: Instant::now(),
            run,
        }
    }

    fn build(&mut self) {
        let group = &mut self.groups[self.builds % SETUP_GROUPS];
        for i in 0..self.p.setup_units() {
            group.record(i, self.p.time_unit(i));
        }
        self.builds += 1;
    }

    /// Makes the builds the schedule has fallen behind by.
    fn on_schedule(&mut self) {
        let share = self.start.elapsed().as_secs_f64() / self.run.as_secs_f64();
        let due = ((SETUP_BUILDS as f64 * share).ceil() as usize).min(SETUP_BUILDS);
        while self.builds < due {
            self.build();
        }
    }

    /// Makes the builds still due and returns `setup_s` and the number
    /// of builds behind it.
    fn finish(mut self) -> (f64, usize) {
        while self.builds < SETUP_BUILDS {
            self.build();
        }
        let estimates: Vec<f64> = self.groups.iter().map(BestOf::total_s).collect();
        (median(&estimates), self.builds)
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: u64,
}

#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// `p50` and `p99` of the ns samples `xs`, scaled, refusing a p99
    /// with fewer than ten samples beyond it.
    fn push_pcts(
        &mut self,
        names: [&'static str; 2],
        xs: &[u64],
        scale: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        let n = xs.len();
        if beyond(n, 0.99) < 10 {
            return Err(format!(
                "{}: {n} samples leave fewer than 10 beyond p99",
                names[1]
            ));
        }
        self.push(names[0], quantile(xs, 0.50) / scale, unit, n as u64);
        self.push(names[1], quantile(xs, 0.99) / scale, unit, n as u64);
        Ok(())
    }
}

fn end_to_end(w: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let p = prepare(w, seed)?;
    let anon_base = start_memory_window()?;
    let run = Duration::from_secs_f64(seconds);
    let mut setup = Setup::new(&p, run);
    let ph = p.measure(run, None, &mut || setup.on_schedule())?;
    let (setup_s, builds) = setup.finish();
    let mut r = Report {
        attempted: ph.attempted,
        failed: ph.failed,
        ..Report::default()
    };
    r.push("setup_s", setup_s, "s", builds as u64);
    r.push("req_per_s", ph.rps, "1/s", ph.passes);
    r.push_pcts(["lat_us_p50", "lat_us_p99"], &ph.lat, 1e3, "us")?;
    r.push(
        "delivered_share",
        ph.delivered as f64 / ph.attempted as f64,
        "share",
        ph.attempted,
    );
    r.push(
        "peak_rss_mb",
        (status_kb("RssAnon")? - anon_base) / 1024.0,
        "MB",
        1,
    );
    r.notes.push(format!(
        "request unit: {}; each unit's cost is its fastest of {} passes; \
         req_per_s is requests over the summed unit costs",
        w.request_unit(),
        ph.passes
    ));
    r.notes.push(format!(
        "setup_s: median of {SETUP_GROUPS} group estimates over {builds} builds of {} units, \
         spread over the run between passes; peak_rss_mb: peak anonymous resident memory \
         above the generated inputs ({:.3} MB when the window opened)",
        p.setup_units(),
        anon_base / 1024.0
    ));
    Ok(r)
}

/// Share of the traced run given to the workload's untraced baseline
/// and to each of the four traced phases; the rest is direct replays.
/// Baseline and traced phase get equal time, so both take their
/// best-of-passes over a similar number of passes.
const PHASE_SHARE: f64 = 0.15;

fn traced(w: Workload, seed: u64, seconds: f64, spans: Option<&str>) -> Result<Report, String> {
    let preps: Vec<Prepared> = WORKLOADS
        .iter()
        .map(|&wk| prepare(wk, seed))
        .collect::<Result<_, _>>()?;
    let at = |wk: Workload| WORKLOADS.iter().position(|&x| x == wk).expect("listed");
    let budget = |share: f64| Duration::from_secs_f64(seconds * share);
    let base = preps[at(w)].measure(budget(PHASE_SHARE), None, &mut || {})?;
    let phases: Vec<Phase> = preps
        .iter()
        .map(|p| p.measure(budget(PHASE_SHARE), Some(Tracer::new()), &mut || {}))
        .collect::<Result<_, _>>()?;
    let mine = &phases[at(w)];
    if base.checksum != mine.checksum {
        return Err(format!(
            "terminal checksum {:016x} traced vs {:016x} untraced",
            mine.checksum, base.checksum
        ));
    }
    let (Prepared::Svc(churn), Prepared::Batch(bp)) = (
        &preps[at(Workload::SvcChurn)],
        &preps[at(Workload::BatchRoute)],
    ) else {
        unreachable!("fixed workload order");
    };
    let quiet = &phases[at(Workload::SvcQuiet)];
    let churned = &phases[at(Workload::SvcChurn)];
    let fanned = &phases[at(Workload::FanDense)];
    let (qt, ct, ft) = (quiet.tracer(), churned.tracer(), fanned.tracer());

    let mut r = Report {
        attempted: base.attempted + mine.attempted,
        failed: base.failed + mine.failed,
        ..Report::default()
    };
    let run = qt.agg(Kind::ServiceRun);
    r.push(
        "simkit.service.loop_self_s",
        run.self_s(),
        "s",
        run.dur.len() as u64,
    );
    r.push(
        "simkit.service.loop_share",
        run.self_s() / quiet.wall_s,
        "share",
        run.dur.len() as u64,
    );
    r.push(
        "simkit.service.events_per_req",
        quiet.counter("events_per_req"),
        "count",
        quiet.attempted,
    );
    let cube12 = hypersafe_topology::Hypercube::new(svc::DIM);
    r.push(
        "simkit.service.epoch_load_ns_p50",
        layers::epoch_load_ns(cube12, 201),
        "ns",
        201,
    );
    let att = qt.agg(Kind::Attempt);
    r.push_pcts(
        ["core.service.attempt_ns_p50", "core.service.attempt_ns_p99"],
        &att.dur,
        1.0,
        "ns",
    )?;
    r.push(
        "core.service.attempt_s",
        att.total_s(),
        "s",
        att.dur.len() as u64,
    );
    let publish = ct.agg(Kind::Publish);
    r.push(
        "core.service.publish_us_p50",
        quantile(&publish.dur, 0.5) / 1e3,
        "us",
        publish.dur.len() as u64,
    );
    r.push(
        "core.service.publish_s",
        publish.total_s(),
        "s",
        publish.dur.len() as u64,
    );
    let check = ct.agg(Kind::Check);
    r.push(
        "core.service.check_us_p50",
        quantile(&check.dur, 0.5) / 1e3,
        "us",
        check.dur.len() as u64,
    );
    r.push(
        "core.service.check_s",
        check.total_s(),
        "s",
        check.dur.len() as u64,
    );
    r.push(
        "core.service.check_share",
        check.total_s() / churned.wall_s,
        "share",
        check.dur.len() as u64,
    );
    let churn_calls = ct.agg(Kind::Churn);
    r.push(
        "core.service.churn_ns_p50",
        quantile(&churn_calls.dur, 0.5),
        "ns",
        churn_calls.dur.len() as u64,
    );
    r.push_pcts(
        ["core.service.epoch_ms_p50", "core.service.epoch_ms_p99"],
        &churned.epochs,
        1e6,
        "ms",
    )?;
    r.push(
        "core.service.detours",
        churned.counter("detours"),
        "count",
        1,
    );
    r.push(
        "core.service.cells_changed",
        churned.counter("cells_changed"),
        "count",
        1,
    );

    let streams: Vec<&[_]> = churn.streams.iter().map(|s| &s.injections[..]).collect();
    let delta = layers::delta_replay(cube12, &streams, 3_000);
    r.push_pcts(
        [
            "core.safety_delta.apply_us_p50",
            "core.safety_delta.apply_us_p99",
        ],
        &delta.apply,
        1e3,
        "us",
    )?;
    r.push(
        "core.safety_delta.cells_touched",
        delta.cells_touched_per_event,
        "cells/event",
        delta.apply.len() as u64,
    );
    let maps = batch::build_maps(bp);
    let mut next = bp.cfgs.iter().cycle();
    let computes = 2 * bp.cfgs.len();
    r.push(
        "core.safety.compute_ms",
        layers::median_time(computes, || {
            hypersafe_core::SafetyMap::compute(next.next().expect("cycle"))
        }) * 1e3,
        "ms",
        computes as u64,
    );
    let rounds: u32 = maps.iter().map(|m| m.rounds()).sum();
    r.push(
        "core.safety.rounds",
        f64::from(rounds) / maps.len() as f64,
        "count",
        maps.len() as u64,
    );
    r.push(
        "core.safety.check_fixed_point_us",
        layers::median_time(101, || delta.map.check_fixed_point(&delta.cfg)) * 1e6,
        "us",
        101,
    );

    let light = batch::route_light_ns(bp, &maps, 2);
    r.push_pcts(
        [
            "core.route_batch.route_light_ns_p50",
            "core.route_batch.route_light_ns_p99",
        ],
        &light,
        1.0,
        "ns",
    )?;
    let routes = (batch::BATCHES * batch::BATCH) as u64;
    r.push(
        "core.route_batch.hops_per_route",
        bp.hops as f64 / routes as f64,
        "hops",
        routes,
    );
    r.push(
        "core.unicast.suboptimal",
        bp.suboptimal as f64,
        "count",
        routes,
    );
    r.push("core.unicast.failure", bp.failures as f64, "count", routes);
    let (speedup, n) = batch::t2_speedup(bp, &maps, 2);
    r.push("rayon.route_many.t2_speedup", speedup, "x", n as u64);
    r.push(
        "rayon.for_each_chunk_pair.call_us",
        layers::chunk_pair_call_us(101),
        "us",
        101,
    );

    let fan_only = ft.agg(Kind::Fan);
    r.push(
        "core.multipath.fan_ns_p50",
        quantile(&fan_only.dur, 0.5),
        "ns",
        fan_only.dur.len() as u64,
    );
    r.push_pcts(
        [
            "core.multipath.augment_us_p50",
            "core.multipath.augment_us_p99",
        ],
        &ft.agg(Kind::Augment).dur,
        1e3,
        "us",
    )?;
    r.push(
        "core.multipath.reroute_share",
        fanned.counter("reroute_share"),
        "share",
        fanned.attempted,
    );
    r.push(
        "core.multipath.paths_per_req",
        fanned.counter("paths_per_req"),
        "count",
        fanned.attempted,
    );

    let ratio = mine.rps / base.rps;
    r.push(
        "trace.traced_req_per_s_ratio",
        ratio,
        "ratio",
        mine.passes + base.passes,
    );
    let covered = mine.tracer().layer_self_s() / mine.wall_s;
    r.push("trace.self_sum_share", covered, "share", 1);
    let harness = mine.tracer().agg(Kind::Harness).self_s() / mine.wall_s;

    r.notes.push(format!(
        "{}: traced req_per_s is {:.4}x untraced; of the traced phase's {:.4} s, layer span \
         self times cover {:.2}%, harness spans {:.2}%, no span {:.2}%",
        w.name(),
        ratio,
        mine.wall_s,
        covered * 100.0,
        harness * 100.0,
        (1.0 - covered - harness) * 100.0
    ));
    r.notes.push(format!(
        "svc-churn: core.service.check_s is {:.1}% of the phase (predicted ~85%); \
         svc-quiet: simkit.service.loop_self_s is {:.1}% of the phase (predicted ~80%)",
        check.total_s() / churned.wall_s * 100.0,
        run.self_s() / quiet.wall_s * 100.0
    ));
    for (wk, ph) in WORKLOADS.iter().zip(&phases) {
        let t = ph.tracer();
        for k in KINDS {
            let a = t.agg(k);
            if !a.dur.is_empty() {
                r.notes.push(format!(
                    "span {:<11} {:<40} n={:<8} total {:.4} s  self {:.4} s  ({:.1}% of {:.3} s)",
                    wk.name(),
                    k.name(),
                    a.dur.len(),
                    a.total_s(),
                    a.self_s(),
                    a.self_s() / ph.wall_s * 100.0,
                    ph.wall_s
                ));
            }
        }
    }
    if let Some(path) = spans {
        let mut out = String::from("# id\tparent\tkind\tstart_ns\tdur_ns\tself_ns\n");
        for (wk, ph) in WORKLOADS.iter().zip(&phases) {
            ph.tracer().write_raw(wk.name(), &mut out);
        }
        std::fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))?;
        r.notes.push(format!("spans written to {path}"));
    }
    Ok(r)
}

/// A field of `/proc/self/status`, in kB.
fn status_kb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

extern "C" {
    /// glibc: returns the allocator's free memory to the system.
    fn malloc_trim(pad: usize) -> std::ffi::c_int;
    /// glibc: sets an allocator parameter; returns 0 on error.
    fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
}

/// glibc's `M_TRIM_THRESHOLD` and `M_MMAP_THRESHOLD`.
const M_TRIM_THRESHOLD: std::ffi::c_int = -1;
const M_MMAP_THRESHOLD: std::ffi::c_int = -3;

/// Keeps freed memory in the allocator's heap instead of handing it back
/// to the kernel: blocks up to 32 MiB (the largest threshold glibc takes)
/// come from the heap, and the heap is not trimmed. A rebuilt system then
/// reuses pages that are already mapped. Without this every Q12 service
/// build took ~80 fresh page faults and a Q20 map ~500; the faults made a
/// service build 2.7x slower, and their cost varies with the load on a
/// shared host.
fn keep_freed_memory() -> Result<(), String> {
    // SAFETY: mallopt only changes allocator parameters, before any
    // allocation this program times.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) != 0 && mallopt(M_TRIM_THRESHOLD, i32::MAX) != 0
    };
    ok.then_some(())
        .ok_or_else(|| "mallopt refused the allocator settings".into())
}

/// Opens the window `peak_rss_mb` covers: returns the allocator's idle
/// memory to the system and returns the anonymous resident memory left,
/// in kB. The allocator never hands memory back during the run (see
/// [`keep_freed_memory`]), so anonymous memory only grows and its value
/// at the end is its peak; the growth is the memory the system under
/// test needs to be built and run. File-backed pages, the program's own
/// code, are left out: which of them the kernel maps moved `VmHWM` by
/// up to 0.15 MB between runs of one seed.
fn start_memory_window() -> Result<f64, String> {
    // SAFETY: malloc_trim only releases free heap pages; no live
    // allocation is touched.
    unsafe {
        malloc_trim(0);
    }
    status_kb("RssAnon")
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans,
    })
}

fn json(r: &Report) -> String {
    let mut s = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.attempted, r.failed
    );
    for (i, m) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <svc-churn|svc-quiet|batch-route|fan-dense> \
                 --seed <n> --seconds <s> --trace <0|1> [--spans <file>]"
            );
            std::process::exit(2);
        }
    };
    let threads = std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let result = keep_freed_memory().and_then(|()| {
        if args.trace {
            traced(
                args.workload,
                args.seed,
                args.seconds,
                args.spans.as_deref(),
            )
        } else {
            end_to_end(args.workload, args.seed, args.seconds)
        }
    });
    let report = match result {
        Ok(r) if r.metrics.iter().all(|m| m.value.is_finite()) => r,
        Ok(_) => {
            eprintln!("perfbench: a metric is not a finite number");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("perfbench: check failed on {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} RAYON_NUM_THREADS={} \
         executor_threads={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        threads,
        rayon::num_threads()
    );
    for n in &report.notes {
        println!("note {n}");
    }
    for m in &report.metrics {
        println!(
            "metric {:<40} {:>16.6} {:<12} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("{}", json(&report));
}
