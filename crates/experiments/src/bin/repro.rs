//! `repro` — regenerate every figure and claim of the paper, and run
//! the gates that hold its extensions to their contracts.
//!
//! ```text
//! repro <subcommand> [options]
//!
//! options:
//!   --n <dim>        cube dimension (where applicable)
//!   --trials <k>     Monte-Carlo trials per point (gates: their scale knob)
//!   --seeds <k>      DST scenarios per sweep point (dst only)
//!   --max-faults <m> largest fault count in sweeps
//!   --seed <s>       master RNG seed
//!   --csv <dir>      output directory
//!   --md             print GitHub-flavored Markdown instead of text
//!   --quick          small trial counts (CI-sized run)
//! ```
//!
//! Every subcommand is one row of [`COMMANDS`], and `repro` with no
//! arguments lists them. There are three kinds:
//!
//! * **Reports** (E1–E22, E25): print their tables; `all` runs them in
//!   table order. Only under `--csv` do they write, as
//!   `<dir>/<name>.csv`; E22 and E25 add their metrics snapshot as
//!   `<dir>/<name>_obs.{json,csv}` (E25's is `obs_metrics`).
//! * **Gates** (E23, E24, E26–E29): not part of `all`. Each checks its
//!   contract and always writes its CSV and snapshot, into `--csv` or
//!   else `results`.
//! * **The schema check** validates the snapshot next to every report
//!   CSV in `--csv` (default `results`) against the compiled-in copy of
//!   `tests/goldens/obs_schema.json`.
//!
//! The exit status is 2 on a usage error and 1 when any check or any
//! write failed; each failure is one line on stderr.

use hypersafe_experiments::gate::{export, snapshot_stem, GateRun};
use hypersafe_experiments::table::Report;
use hypersafe_experiments::{
    broadcast_exp, churn_exp, congestion_exp, distribution_exp, dst, dynamic_exp, fig1, fig2, fig3,
    fig4, fig5, linkfaults_exp, loss_exp, maintenance_exp, mc_exp, multicast_exp, multipath_exp,
    obs_exp, patterns_exp, property2, rounds_compare, routing_compare, safesets, safety_scale_exp,
    service_exp, thm4, tightness_exp, traffic_exp, vectors_exp,
};
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug, Clone)]
struct Opts {
    experiment: String,
    n: Option<u8>,
    trials: Option<u32>,
    seeds: Option<u32>,
    max_faults: Option<usize>,
    seed: Option<u64>,
    csv: Option<PathBuf>,
    markdown: bool,
    quick: bool,
}

impl Opts {
    /// A report's trial count: `--trials` if given, else `default`
    /// (a tenth of it under `--quick`), never below `floor`.
    fn trials(&self, default: u32, floor: u32) -> u32 {
        let div = if self.quick { 10 } else { 1 };
        self.trials.unwrap_or((default / div).max(floor))
    }
}

/// One subcommand: its name, whether `all` runs it, and its runner.
struct Command {
    name: &'static str,
    in_all: bool,
    run: fn(&Opts) -> Vec<GateRun>,
}

/// The subcommand that runs every `in_all` row of [`COMMANDS`].
const ALL: &str = "all";

/// Every subcommand, in the order `all` runs them and usage lists them.
const COMMANDS: &[Command] = &[
    Command {
        name: "fig1",
        in_all: true,
        run: |o| reports(o, vec![fig1::run()]),
    },
    Command {
        name: "fig2",
        in_all: true,
        run: |o| {
            let mut p = fig2::Fig2Params::default();
            p.n = o.n.unwrap_or(p.n);
            p.trials = o.trials(p.trials, 20);
            p.max_faults = o
                .max_faults
                .unwrap_or(if o.quick { 14 } else { p.max_faults });
            p.seed = o.seed.unwrap_or(p.seed);
            reports(o, vec![fig2::run(&p)])
        },
    },
    Command {
        name: "fig3",
        in_all: true,
        run: |o| reports(o, vec![fig3::run()]),
    },
    Command {
        name: "fig4",
        in_all: true,
        run: |o| reports(o, vec![fig4::run()]),
    },
    Command {
        name: "fig5",
        in_all: true,
        run: |o| reports(o, vec![fig5::run()]),
    },
    Command {
        name: "safesets",
        in_all: true,
        run: |o| {
            let mut p = safesets::SafeSetParams::default();
            p.n = o.n.unwrap_or(p.n);
            p.trials = o.trials(p.trials, 20);
            p.max_faults = o.max_faults.unwrap_or(p.max_faults);
            p.seed = o.seed.unwrap_or(p.seed);
            reports(o, vec![safesets::run_example(), safesets::run_sweep(&p)])
        },
    },
    Command {
        name: "property2",
        in_all: true,
        run: |o| {
            let mut p = property2::Property2Params::default();
            p.trials = o.trials(p.trials, 10);
            p.seed = o.seed.unwrap_or(p.seed);
            if o.quick {
                p.dims = [3, 4, 5, 6];
            }
            reports(o, vec![property2::run(&p)])
        },
    },
    Command {
        name: "thm4",
        in_all: true,
        run: |o| {
            let mut p = thm4::Thm4Params::default();
            p.trials = o.trials(p.trials, 10);
            p.seed = o.seed.unwrap_or(p.seed);
            reports(o, vec![thm4::run(&p)])
        },
    },
    Command {
        name: "compare",
        in_all: true,
        run: |o| {
            let mut p = routing_compare::CompareParams::default();
            p.n = o.n.unwrap_or(p.n);
            p.trials = o.trials(p.trials, 10);
            p.max_faults = o.max_faults.unwrap_or(p.max_faults);
            p.seed = o.seed.unwrap_or(p.seed);
            reports(o, vec![routing_compare::run(&p)])
        },
    },
    Command {
        name: "rounds",
        in_all: true,
        run: |o| {
            let mut p = rounds_compare::RoundsParams::default();
            p.n = o.n.unwrap_or(p.n);
            p.trials = o.trials(p.trials, 10);
            p.max_faults = o.max_faults.unwrap_or(p.max_faults);
            p.seed = o.seed.unwrap_or(p.seed);
            reports(o, vec![rounds_compare::run(&p)])
        },
    },
    Command {
        name: "maintenance",
        in_all: true,
        run: |o| {
            let mut p = maintenance_exp::MaintenanceParams::default();
            p.n = o.n.unwrap_or(p.n);
            p.trials = o.trials(p.trials, 5);
            p.seed = o.seed.unwrap_or(p.seed);
            reports(o, vec![maintenance_exp::run(&p)])
        },
    },
    Command {
        name: "broadcast",
        in_all: true,
        run: |o| {
            let mut p = broadcast_exp::BroadcastParams::default();
            p.n = o.n.unwrap_or(p.n);
            p.trials = o.trials(p.trials, 10);
            p.max_faults = o.max_faults.unwrap_or(p.max_faults);
            p.seed = o.seed.unwrap_or(p.seed);
            reports(o, vec![broadcast_exp::run(&p)])
        },
    },
    Command {
        name: "dynamic",
        in_all: true,
        run: |o| {
            let mut p = dynamic_exp::DynamicParams::default();
            p.n = o.n.unwrap_or(p.n);
            p.trials = o.trials(p.trials, 20);
            p.seed = o.seed.unwrap_or(p.seed);
            reports(o, vec![dynamic_exp::run(&p)])
        },
    },
    Command {
        name: "distribution",
        in_all: true,
        run: |o| {
            let mut p = distribution_exp::DistributionParams::default();
            p.n = o.n.unwrap_or(p.n);
            p.trials = o.trials(p.trials, 20);
            p.seed = o.seed.unwrap_or(p.seed);
            reports(o, vec![distribution_exp::run(&p)])
        },
    },
    Command {
        name: "linkfaults",
        in_all: true,
        run: |o| {
            let mut p = linkfaults_exp::LinkFaultParams::default();
            p.n = o.n.unwrap_or(p.n);
            p.trials = o.trials(p.trials, 20);
            p.seed = o.seed.unwrap_or(p.seed);
            reports(o, vec![linkfaults_exp::run(&p)])
        },
    },
    Command {
        name: "tightness",
        in_all: true,
        run: |o| {
            let mut p = tightness_exp::TightnessParams::default();
            p.n = o.n.unwrap_or(p.n);
            p.trials = o.trials(p.trials, 5);
            p.max_faults = o.max_faults.unwrap_or(p.max_faults);
            p.seed = o.seed.unwrap_or(p.seed);
            reports(o, vec![tightness_exp::run(&p)])
        },
    },
    Command {
        name: "traffic",
        in_all: true,
        run: |o| {
            let mut p = traffic_exp::TrafficParams::default();
            p.n = o.n.unwrap_or(p.n);
            p.trials = o.trials(p.trials, 3);
            p.seed = o.seed.unwrap_or(p.seed);
            reports(o, vec![traffic_exp::run(&p)])
        },
    },
    Command {
        name: "multicast",
        in_all: true,
        run: |o| {
            let mut p = multicast_exp::MulticastParams::default();
            p.n = o.n.unwrap_or(p.n);
            p.trials = o.trials(p.trials, 20);
            p.seed = o.seed.unwrap_or(p.seed);
            reports(o, vec![multicast_exp::run(&p)])
        },
    },
    Command {
        name: "patterns",
        in_all: true,
        run: |o| {
            let mut p = patterns_exp::PatternsParams::default();
            p.n = o.n.unwrap_or(p.n);
            p.trials = o.trials(p.trials, 10);
            p.seed = o.seed.unwrap_or(p.seed);
            reports(o, vec![patterns_exp::run(&p)])
        },
    },
    Command {
        name: "vectors",
        in_all: true,
        run: |o| {
            let mut p = vectors_exp::VectorsParams::default();
            p.n = o.n.unwrap_or(p.n);
            p.trials = o.trials(p.trials, 5);
            p.max_faults = o.max_faults.unwrap_or(p.max_faults);
            p.seed = o.seed.unwrap_or(p.seed);
            reports(o, vec![vectors_exp::run(&p)])
        },
    },
    Command {
        name: "congestion",
        in_all: true,
        run: |o| {
            let mut p = congestion_exp::CongestionParams::default();
            p.n = o.n.unwrap_or(p.n);
            p.trials = o.trials(p.trials, 2);
            p.seed = o.seed.unwrap_or(p.seed);
            reports(o, vec![congestion_exp::run(&p)])
        },
    },
    Command {
        name: "loss",
        in_all: true,
        run: |o| {
            let mut p = loss_exp::LossParams::default();
            p.n = o.n.unwrap_or(p.n);
            p.trials = o.trials(p.trials, 4);
            p.max_faults = o.max_faults.unwrap_or(p.max_faults);
            p.seed = o.seed.unwrap_or(p.seed);
            if o.quick {
                // The reliable-layer runs simulate every retransmission
                // timer; shrink the cube too, not just the trials.
                p.n = p.n.min(5);
            }
            p.out_dir = o.csv.clone();
            vec![loss_exp::run(&p)]
        },
    },
    Command {
        name: "obs",
        in_all: true,
        run: |o| {
            let mut p = obs_exp::ObsParams::default();
            p.n = o.n.unwrap_or(p.n);
            p.trials = o.trials(p.trials, 3);
            p.faults = o.max_faults.unwrap_or(p.faults);
            p.seed = o.seed.unwrap_or(p.seed);
            if o.quick {
                // Like E22: the reliable layer simulates every
                // retransmission timer, so shrink the cube too.
                p.n = p.n.min(5);
                p.faults = p.faults.min(3);
            }
            p.out_dir = o.csv.clone();
            vec![obs_exp::run(&p)]
        },
    },
    // E23: seeded adversarial schedules against the invariant suite; a
    // violating point also writes a shrunk replay artifact.
    Command {
        name: "dst",
        in_all: false,
        run: |o| {
            let mut p = dst::DstParams::default();
            p.seeds = o.seeds.unwrap_or(if o.quick { 32 } else { p.seeds });
            p.dims = match o.n {
                Some(n) => vec![n],
                // CI-sized: drop the two largest cubes, keep the spread.
                None if o.quick => vec![3, 4, 5, 6],
                None => p.dims,
            };
            p.seed = o.seed.unwrap_or(p.seed);
            p.out_dir = o.csv.clone().unwrap_or(p.out_dir);
            vec![dst::run(&p)]
        },
    },
    // E24: the incremental safety-level engine against from-scratch
    // recomputes, and the batched router against its sequential path.
    Command {
        name: "churn",
        in_all: false,
        run: |o| {
            let mut p = churn_exp::ChurnParams::default();
            match o.n {
                Some(n) => p.dims = vec![n],
                // CI-sized: the small/large ends of the sweep only.
                None if o.quick => (p.dims, p.rates, p.pairs) = (vec![8, 10], vec![8, 32], 4_000),
                None => {}
            }
            p.trials = o.trials.unwrap_or(p.trials);
            p.seed = o.seed.unwrap_or(p.seed);
            p.out_dir = o.csv.clone().unwrap_or(p.out_dir);
            vec![churn_exp::run(&p)]
        },
    },
    // E26: the epoch-snapshot routing service under an open-loop
    // request + churn mix; also writes `BENCH_service.json`.
    Command {
        name: "service",
        in_all: false,
        run: |o| {
            let mut p = service_exp::ServiceParams::default();
            match o.n {
                Some(n) => p.dims = vec![n],
                // CI-sized: small cubes, a few thousand requests.
                None if o.quick => (p.dims, p.requests) = (vec![6, 8], 3_000),
                None => {}
            }
            // --trials is the request count in thousands.
            p.requests = o.trials.map_or(p.requests, |t| u64::from(t) * 1_000);
            p.seed = o.seed.unwrap_or(p.seed);
            p.out_dir = o.csv.clone().unwrap_or(p.out_dir);
            vec![service_exp::run(&p)]
        },
    },
    // E27: packed bit-plane safety kernels up to 2^20 nodes (--quick
    // stops at 2^16) against the scalar reference, under the 1
    // byte/node ceiling; wall-clock numbers merge into BENCH_*.json.
    Command {
        name: "safety-scale",
        in_all: false,
        run: |o| {
            let mut p = safety_scale_exp::SafetyScaleParams::default();
            if o.quick {
                (p.dims, p.events, p.route_pairs) = (vec![14, 16], 8, 100_000);
            }
            p.events = o.trials.unwrap_or(p.events);
            p.seed = o.seed.unwrap_or(p.seed);
            p.out_dir = o.csv.clone().unwrap_or(p.out_dir);
            vec![safety_scale_exp::run(&p)]
        },
    },
    // E28: every delivery interleaving of GS / delta-GS / ARQ on small
    // cubes; a truncated search fails like a violation.
    Command {
        name: "mc",
        in_all: false,
        run: |o| {
            let mut p = mc_exp::McParams {
                quick: o.quick,
                ..mc_exp::McParams::default()
            };
            // --trials is the state cap in millions.
            p.max_states = o.trials.map_or(p.max_states, |t| u64::from(t) * 1_000_000);
            p.out_dir = o.csv.clone().unwrap_or(p.out_dir);
            vec![mc_exp::run(&p)]
        },
    },
    // E29: k-disjoint multi-path unicast against the Menger bound, the
    // scalar router, single-path dominance and percolation.
    Command {
        name: "multipath",
        in_all: false,
        run: |o| {
            let mut p = multipath_exp::MultipathParams::default();
            if o.quick {
                // CI-sized: smaller cube, fewer pairs, three percolation points.
                (p.n, p.k, p.pairs, p.hotspot_messages) = (6, 6, 400, 800);
                p.percolation_of_threshold_bp = vec![5_000, 10_000, 11_000];
                p.percolation_pairs = 200;
            }
            if let Some(n) = o.n {
                (p.n, p.k) = (n, n);
            }
            // --trials is the pairs per point in hundreds.
            p.pairs = o.trials.map_or(p.pairs, |t| t as usize * 100);
            p.seed = o.seed.unwrap_or(p.seed);
            p.out_dir = o.csv.clone().unwrap_or(p.out_dir);
            vec![multipath_exp::run(&p)]
        },
    },
    Command {
        name: "validate-obs",
        in_all: false,
        run: validate_obs,
    },
];

fn usage() -> ! {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).chain([ALL]).collect();
    eprintln!(
        "usage: repro <{}> [--n N] [--trials K] [--seeds K] [--max-faults M] [--seed S] \
         [--csv DIR] [--md] [--quick]",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut args = std::env::args().skip(1);
    let Some(experiment) = args.next() else {
        usage()
    };
    let mut opts = Opts {
        experiment,
        n: None,
        trials: None,
        seeds: None,
        max_faults: None,
        seed: None,
        csv: None,
        markdown: false,
        quick: false,
    };
    while let Some(flag) = args.next() {
        let mut val = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--n" => {
                let n: u8 = val("--n").parse().unwrap_or_else(|_| usage());
                if !(2..=16).contains(&n) {
                    eprintln!("--n must be in 2..=16 (full-cube sweeps get huge beyond that)");
                    std::process::exit(2);
                }
                opts.n = Some(n);
            }
            "--trials" => opts.trials = Some(val("--trials").parse().unwrap_or_else(|_| usage())),
            "--seeds" => opts.seeds = Some(val("--seeds").parse().unwrap_or_else(|_| usage())),
            "--max-faults" => {
                opts.max_faults = Some(val("--max-faults").parse().unwrap_or_else(|_| usage()))
            }
            "--seed" => opts.seed = Some(val("--seed").parse().unwrap_or_else(|_| usage())),
            "--csv" => opts.csv = Some(PathBuf::from(val("--csv"))),
            "--md" => opts.markdown = true,
            "--quick" => opts.quick = true,
            _ => usage(),
        }
    }
    opts
}

/// A report subcommand's outcome: with `--csv`, each report is written
/// as `<dir>/<name>.csv`, and a failed write is its only failure.
fn reports(o: &Opts, reps: Vec<Report>) -> Vec<GateRun> {
    reps.into_iter()
        .map(|mut report| {
            let failures = o
                .csv
                .as_deref()
                .map_or_else(Vec::new, |dir| export(&mut report, dir, None));
            GateRun { report, failures }
        })
        .collect()
}

/// The schema the exported snapshots are pinned to, compiled in from
/// the checked-in golden so the binary always gates against the exact
/// bytes under review.
const OBS_SCHEMA: &str = include_str!("../../../../tests/goldens/obs_schema.json");

/// Validates the metrics snapshot next to every report CSV in the
/// `--csv` directory (default `results`) against [`OBS_SCHEMA`]; each
/// experiment writes its own, found by [`snapshot_stem`]. Finding none
/// at all fails too, since the gate would be vacuous.
fn validate_obs(o: &Opts) -> Vec<GateRun> {
    let dir = o.csv.clone().unwrap_or_else(|| PathBuf::from("results"));
    let mut report = Report::new(
        "validate_obs",
        format!("metrics snapshots in {} vs obs_schema.json", dir.display()),
        &["snapshot", "verdict"],
    );
    let mut failures = Vec::new();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .collect();
    names.sort();
    for name in names.iter().filter_map(|n| n.strip_suffix(".csv")) {
        let path = dir.join(format!("{}.json", snapshot_stem(name)));
        let Ok(doc) = std::fs::read_to_string(&path) else {
            continue;
        };
        let verdict = match hypersafe_simkit::validate_json(&doc, OBS_SCHEMA) {
            Ok(()) => "ok".to_string(),
            Err(e) => {
                failures.push(format!("validate-obs: {} FAILED: {e}", path.display()));
                "FAILED".to_string()
            }
        };
        report.row(vec![path.display().to_string(), verdict]);
    }
    if report.rows.is_empty() {
        failures.push(format!(
            "validate-obs: no snapshot found in {}",
            dir.display()
        ));
    }
    vec![GateRun { report, failures }]
}

/// Prints a run's report, and its failure lines to stderr; true when
/// there are none.
fn finish(run: &GateRun, markdown: bool) -> bool {
    if markdown {
        println!("{}", run.report.to_markdown());
    } else {
        println!("{}", run.report.render());
    }
    for line in &run.failures {
        eprintln!("{line}");
    }
    run.failures.is_empty()
}

fn main() -> ExitCode {
    let opts = parse_args();
    let all = opts.experiment == ALL;
    let commands: Vec<&Command> = COMMANDS
        .iter()
        .filter(|c| {
            if all {
                c.in_all
            } else {
                c.name == opts.experiment
            }
        })
        .collect();
    if commands.is_empty() {
        usage();
    }
    let mut passed = true;
    for command in commands {
        for run in (command.run)(&opts) {
            passed &= finish(&run, opts.markdown);
        }
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
