//! Property-based exactness tests for the incremental safety-level
//! engine: after *any* random fault/recover churn sequence, the
//! incrementally-maintained map must be byte-identical to a
//! from-scratch [`SafetyMap::compute`] at every step — and the
//! distributed delta-GS actor run must land on the same map.

use hypersafe::safety::{run_delta_gs, ChurnEvent, SafetyMap};
use hypersafe::simkit::RunOptions;
use hypersafe::topology::{FaultConfig, Hypercube, NodeId, Topology};
use proptest::prelude::*;

/// Decodes one raw word into the next churn event for the current
/// fault state: even words (with any live fault) recover a faulty
/// node, odd words fault a healthy one. Always yields a genuine
/// transition, which is what `apply_fault`/`apply_recover` require.
fn decode_event(cfg: &FaultConfig, word: u64) -> ChurnEvent {
    let cube = cfg.cube();
    let live: Vec<NodeId> = cfg.node_faults().iter().collect();
    if !live.is_empty() && word.is_multiple_of(2) {
        ChurnEvent::Recover(live[(word / 2 % live.len() as u64) as usize])
    } else {
        let healthy: Vec<NodeId> = cube.nodes().filter(|&a| !cfg.node_faulty(a)).collect();
        ChurnEvent::Fault(healthy[(word / 2 % healthy.len() as u64) as usize])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole exactness contract: every step of every churn
    /// sequence, incremental == from-scratch, byte for byte.
    #[test]
    fn incremental_matches_scratch_at_every_step(
        n in 4u8..=8,
        words in proptest::collection::vec(any::<u64>(), 1..=16),
    ) {
        let cube = Hypercube::new(n);
        let mut cfg = FaultConfig::fault_free(cube);
        let mut map = SafetyMap::compute(&cfg);
        for &word in words.iter().take(2 * n as usize) {
            match decode_event(&cfg, word) {
                ChurnEvent::Fault(a) => {
                    cfg.node_faults_mut().insert(a);
                    map.apply_fault(&cfg, a);
                }
                ChurnEvent::Recover(a) => {
                    cfg.node_faults_mut().remove(a);
                    map.apply_recover(&cfg, a);
                }
            }
            let scratch = SafetyMap::compute(&cfg);
            prop_assert_eq!(map.store(), scratch.store());
            prop_assert_eq!(map.check_fixed_point(&cfg), None);
        }
    }

    /// The distributed form of the same contract: the delta-GS actor
    /// run converges to the centralized incremental map at every step.
    #[test]
    fn delta_gs_matches_centralized_at_every_step(
        n in 4u8..=6,
        words in proptest::collection::vec(any::<u64>(), 1..=8),
    ) {
        let cube = Hypercube::new(n);
        let mut cfg = FaultConfig::fault_free(cube);
        let mut map = SafetyMap::compute(&cfg);
        for &word in &words {
            let ev = decode_event(&cfg, word);
            let prev = map.clone();
            match ev {
                ChurnEvent::Fault(a) => {
                    cfg.node_faults_mut().insert(a);
                    map.apply_fault(&cfg, a);
                }
                ChurnEvent::Recover(a) => {
                    cfg.node_faults_mut().remove(a);
                    map.apply_recover(&cfg, a);
                }
            }
            let (run, _) = run_delta_gs(&cfg, &prev, ev, 1, RunOptions::default());
            prop_assert_eq!(run.map.store(), map.store());
            prop_assert!(run.monotone, "delta-GS levels moved against the event's direction");
        }
    }
}

/// `route_many` must produce bitwise-identical outcomes whether it
/// takes the fork/join path or the single-thread sequential fallback
/// (`RAYON_NUM_THREADS=1`). The vendored rayon resolves its thread
/// count once per process, so the fallback branch is exercised in a
/// pinned child process of this same test binary and compared by
/// fingerprint against the in-process parallel run and the plain
/// sequential loop.
#[test]
fn route_many_single_thread_fallback_matches_parallel() {
    use hypersafe::safety::{route_many, route_many_seq};
    use hypersafe::topology::FaultSet;
    use std::hash::{Hash, Hasher};

    let cube = Hypercube::new(8);
    let cfg = FaultConfig::with_node_faults(
        cube,
        FaultSet::from_binary_strs(
            cube,
            &["00000011", "00010100", "01100000", "10000001", "11110000"],
        ),
    );
    let map = SafetyMap::compute(&cfg);
    let pairs: Vec<(NodeId, NodeId)> = cube
        .nodes()
        .flat_map(|s| cube.nodes().map(move |d| (s, d)))
        .collect();
    let fingerprint = |out: &[hypersafe::safety::BatchOutcome]| -> u64 {
        let mut h = std::hash::DefaultHasher::new();
        format!("{out:?}").hash(&mut h);
        h.finish()
    };
    let expect = fingerprint(&route_many_seq(&cfg, &map, &pairs));

    if std::env::var("HYPERSAFE_ROUTE_MANY_CHILD").is_ok() {
        // Child: pinned to one worker, so route_many takes the
        // sequential fallback branch.
        assert_eq!(rayon::num_threads(), 1, "child must be pinned");
        let got = fingerprint(&route_many(&cfg, &map, &pairs));
        println!("route_many_fingerprint={got:016x}");
        assert_eq!(got, expect);
        return;
    }

    assert_eq!(
        fingerprint(&route_many(&cfg, &map, &pairs)),
        expect,
        "parallel path matches the sequential loop"
    );
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "route_many_single_thread_fallback_matches_parallel",
            "--exact",
            "--nocapture",
        ])
        .env("RAYON_NUM_THREADS", "1")
        .env("HYPERSAFE_ROUTE_MANY_CHILD", "1")
        .output()
        .expect("spawn pinned child");
    assert!(
        out.status.success(),
        "pinned child failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The libtest runner may glue the marker onto its own "test ..."
    // line, so search by substring rather than line prefix.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let hex = stdout
        .split("route_many_fingerprint=")
        .nth(1)
        .map(|rest| &rest[..16])
        .expect("child printed its fingerprint");
    let got = u64::from_str_radix(hex, 16).expect("hex fingerprint");
    assert_eq!(got, expect, "fallback outcomes identical to parallel");
}

/// n = 16 scale smoke: the plane kernels, the scalar reference, and
/// the constructive path agree on a 65,536-node cube — the largest
/// size the reference oracle can cover at test speed.
#[test]
fn scale_smoke_n16_packed_matches_scalar_reference() {
    let cube = Hypercube::new(16);
    let mut cfg = FaultConfig::fault_free(cube);
    for i in 0..24u64 {
        cfg.node_faults_mut()
            .insert(NodeId::new(i * 2731 % cube.num_nodes()));
    }
    let map = SafetyMap::compute(&cfg);
    assert_eq!(map.to_vec(), SafetyMap::compute_reference_levels(&cfg));
    assert_eq!(map.store(), SafetyMap::compute_constructive(&cfg).store());
}

/// n = 20 scale smoke: a million-node cube computes on the packed
/// planes, stays within the 1 byte/node store ceiling, and a
/// single-fault incremental update matches a from-scratch plane
/// recompute byte for byte. (No scalar oracle here — the plane
/// kernels cross-check each other, and the n = 16 smoke pins them to
/// the scalar semantics.)
#[test]
fn scale_smoke_n20_million_node_incremental() {
    let cube = Hypercube::new(20);
    let mut cfg = FaultConfig::fault_free(cube);
    for i in 1..=12u64 {
        cfg.node_faults_mut()
            .insert(NodeId::new(i * 87_381 % cube.num_nodes()));
    }
    let mut map = SafetyMap::compute(&cfg);
    assert_eq!(map.store(), SafetyMap::compute_constructive(&cfg).store());
    let bpn = map.store().memory_bytes() as f64 / cube.num_nodes() as f64;
    assert!(bpn <= 1.0, "store is {bpn:.4} bytes/node");

    let v = NodeId::new(777_777);
    assert!(!cfg.node_faulty(v));
    cfg.node_faults_mut().insert(v);
    map.apply_fault(&cfg, v);
    assert_eq!(map.store(), SafetyMap::compute(&cfg).store());
}
