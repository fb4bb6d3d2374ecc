//! Adversarial-scheduler determinism, pinned two ways:
//!
//! * a **property test**: for arbitrary seeds, running the same
//!   adversarial scenario twice yields byte-identical trace output —
//!   the scheduler's entire behavior is a pure function of its seed;
//! * a **golden recording** (`tests/goldens/dst_trace.txt`): the exact
//!   trace of one fixed adversarial GS run and one fixed adversarial
//!   lossy unicast. CI executes this test under both
//!   `RAYON_NUM_THREADS=1` and `=4` — the vendored rayon pins its pool
//!   size once per process, so cross-thread-count equivalence is
//!   proved by comparing both jobs against the same checked-in bytes
//!   (the `golden_equivalence` methodology).
//!
//! Regenerate (only when intentionally changing engine behavior):
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test --test dst_determinism
//! ```

use hypersafe::safety::{run_gs_async, run_unicast_lossy, SafetyMap};
use hypersafe::simkit::{AdversarialScheduler, ReliableConfig, RunOptions, Scheduler};
use hypersafe::topology::{FaultConfig, FaultSet, Hypercube, NodeId};
use proptest::prelude::*;

fn fig1() -> (FaultConfig, SafetyMap) {
    let cube = Hypercube::new(4);
    let cfg = FaultConfig::with_node_faults(
        cube,
        FaultSet::from_binary_strs(cube, &["0011", "0100", "0110", "1001"]),
    );
    let map = SafetyMap::compute(&cfg);
    (cfg, map)
}

/// A checked, traced run under `sched` with an event budget.
fn checked_traced(sched: Box<dyn Scheduler>, max_events: u64) -> RunOptions {
    RunOptions {
        sched,
        max_events,
        trace: true,
        check: true,
        ..RunOptions::default()
    }
}

/// Renders the observable outcome of one adversarial GS + unicast pair
/// as text: the per-delivery hop trace plus the converged levels and
/// the unicast outcome line.
fn scenario_text(seed: u64) -> String {
    let (cfg, map) = fig1();
    let mut out = String::new();

    let sched: Box<dyn Scheduler> =
        Box::new(AdversarialScheduler::permute(seed).with_stretch(1 + seed % 7));
    let (run, report) = run_gs_async(&cfg, 1, checked_traced(sched, u64::MAX));
    assert!(report.violation.is_none(), "gs invariants hold");
    out.push_str(&format!("gs seed={seed:#x}\n"));
    out.push_str(&report.trace.expect("traced").render());
    for a in cfg.cube().nodes() {
        out.push_str(&format!("level {a} = {}\n", run.map.level(a)));
    }

    let s = NodeId::from_binary("1110").unwrap();
    let d = NodeId::from_binary("0001").unwrap();
    let opts = checked_traced(Box::new(AdversarialScheduler::from_seed(seed)), 1_000_000);
    let (run, report) = run_unicast_lossy(&cfg, &map, s, d, 1, ReliableConfig::default(), opts);
    assert!(report.violation.is_none(), "unicast invariants hold");
    out.push_str(&format!("unicast seed={seed:#x}\n"));
    out.push_str(&report.trace.expect("traced").render());
    out.push_str(&format!(
        "outcome {:?} trail {:?}\n",
        run.outcome,
        run.trail
            .as_deref()
            .map(|t| t.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    ));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same seed ⇒ byte-identical run, for arbitrary seeds.
    #[test]
    fn same_seed_same_bytes(seed in any::<u64>()) {
        prop_assert_eq!(scenario_text(seed), scenario_text(seed));
    }

    /// Different seeds almost always produce different schedules — the
    /// adversary actually varies with its seed (guards against the
    /// scheduler silently degenerating to FIFO).
    #[test]
    fn seeds_reach_distinct_schedules(seed in 1u64..u64::MAX) {
        // Compare against seed 0's text; identical full bytes for a
        // random nonzero seed would mean the seed is ignored.
        if scenario_text(seed) == scenario_text(0) {
            // Tolerate coincidence only for tiny schedules — fig. 1
            // schedules span dozens of events, a full collision means a bug.
            prop_assert!(false, "seed {seed:#x} reproduced seed 0's schedule exactly");
        }
    }
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/dst_trace.txt")
}

/// The fixed recording: byte-compared against the checked-in golden.
/// Running this very test under different `RAYON_NUM_THREADS` values
/// (as CI does) proves the trace does not depend on the thread count.
#[test]
fn dst_trace_matches_golden() {
    let got = scenario_text(0xD57);
    let path = golden_path();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir goldens");
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want =
        std::fs::read_to_string(&path).expect("golden missing — run with GOLDEN_REGEN=1 to record");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "dst trace diverged from the recording at line {}",
            i + 1
        );
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "dst trace line count changed"
    );
}
