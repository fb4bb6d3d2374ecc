//! Deterministic simulation testing at fixed seeds: 256 scenarios per
//! cube size through the full invariant suite, a known-hard corpus
//! pinned under `tests/corpus/`, and the shrinker's acceptance test —
//! a deliberately broken actor whose violation delta-debugs down to a
//! single injected event and replays byte-identically from its seed.

use hypersafe::safety::properties::{check_gs_convergence, check_lossy_outcome};
use hypersafe::safety::{run_gs_async, run_unicast_lossy, SafetyMap};
use hypersafe::simkit::{
    explore as mc_explore, parse_artifact_path, render_artifact, replay as mc_replay,
    shrink_injections, Actor, AdversarialScheduler, Ctx, EventEngine, HypercubeNet, Invariant,
    McCheck, McConfig, McHasher, McReplay, McReport, McSnapshot, ReliableConfig, RunOptions,
    StateHash, Time, Trace,
};
use hypersafe::topology::{FaultConfig, Hypercube, NodeId};
use hypersafe::workloads::{random_pair, uniform_faults, Sweep, STANDARD_PROFILES};
use rand::Rng;

/// One seed's full scenario on an `n`-cube, everything derived from
/// `(master, n, i)`: fault placement, adversary seeds, pair, kills.
/// Mirrors what `repro dst` sweeps, pinned here at fixed seeds so CI
/// failures name an exact reproducer.
fn check_seed(n: u8, i: u32, master: u64) -> Result<(), String> {
    let sweep = Sweep::new(1, master ^ ((n as u64) << 32) ^ i as u64);
    let mut rng = sweep.trial_rng(0);
    let cube = Hypercube::new(n);
    let m = (i as usize) % (n as usize + 2);
    let cfg = FaultConfig::with_node_faults(cube, uniform_faults(cube, m, &mut rng));

    // GS leg: reorder/stretch adversary, descent + convergence.
    let gs_seed: u64 = rng.gen();
    let opts = RunOptions {
        sched: Box::new(AdversarialScheduler::permute(gs_seed).with_stretch(1 + gs_seed % 7)),
        check: true,
        ..RunOptions::default()
    };
    let (run, report) = run_gs_async(&cfg, 1, opts);
    if let Some(v) = report.violation {
        return Err(format!("n={n} i={i}: {v}"));
    }
    check_gs_convergence(&cfg, &run).map_err(|v| format!("n={n} i={i}: {v:?}"))?;

    // Unicast leg: channel loss + seeded bursts + optional kills.
    let map = SafetyMap::compute(&cfg);
    let (mut s, mut d) = random_pair(&cfg, &mut rng);
    while s == d {
        let (s2, d2) = random_pair(&cfg, &mut rng);
        s = s2;
        d = d2;
    }
    let uni_seed: u64 = rng.gen();
    let prof = &STANDARD_PROFILES[(i as usize) % STANDARD_PROFILES.len()];
    let channel = (prof.loss > 0.0 || prof.duplicate > 0.0 || prof.jitter > 0)
        .then(|| prof.channel(uni_seed));
    let mut kills: Vec<(NodeId, Time)> = Vec::new();
    if rng.gen_bool(0.25) {
        let victim = NodeId::new(rng.gen_range(0..cube.num_nodes()));
        if victim != s && !cfg.node_faulty(victim) {
            kills.push((victim, rng.gen_range(0..30)));
        }
    }
    let opts = RunOptions {
        sched: Box::new(AdversarialScheduler::from_seed(uni_seed)),
        channel,
        max_events: 1_000_000,
        kills: kills.clone(),
        check: true,
        ..RunOptions::default()
    };
    let (run, report) = run_unicast_lossy(&cfg, &map, s, d, 1, ReliableConfig::default(), opts);
    if let Some(v) = report.violation {
        return Err(format!("n={n} i={i}: {v}"));
    }
    check_lossy_outcome(&cfg, s, d, &run, kills.len() as u64)
        .map_err(|v| format!("n={n} i={i}: {v:?}"))
}

#[test]
fn fixed_seeds_n4_pass_the_invariant_suite() {
    let failures: Vec<String> = Sweep::new(256, 0)
        .run(|i, _| check_seed(4, i, 0xD57_F1C5).err())
        .into_iter()
        .flatten()
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn fixed_seeds_n6_pass_the_invariant_suite() {
    let failures: Vec<String> = Sweep::new(256, 0)
        .run(|i, _| check_seed(6, i, 0xD57_F1C5).err())
        .into_iter()
        .flatten()
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The corpus pins seeds that historically stressed each protocol
/// hardest (most retransmissions / longest converging schedules):
/// format `n index master` per line, `#` comments. They run through
/// the same suite as the random sweep, forever.
#[test]
fn corpus_hard_seeds_stay_green() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/dst_hard_seeds.txt");
    let text = std::fs::read_to_string(&path).expect("corpus file present");
    let mut ran = 0;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // `service n seed` entries belong to the routing-service suite
        // (tests/service_lifecycle.rs replays them).
        if line.starts_with("service") {
            continue;
        }
        let mut it = line.split_whitespace();
        let n: u8 = it.next().unwrap().parse().unwrap();
        let i: u32 = it.next().unwrap().parse().unwrap();
        let master: u64 = {
            let t = it.next().unwrap();
            u64::from_str_radix(t.trim_start_matches("0x"), 16).unwrap()
        };
        check_seed(n, i, master).unwrap_or_else(|e| panic!("corpus line {line:?}: {e}"));
        ran += 1;
    }
    assert!(ran >= 2, "corpus unexpectedly empty");
}

// ---------------------------------------------------------------------
// The shrinker acceptance test: a deliberately broken actor.
// ---------------------------------------------------------------------

/// Poison tag: the one timer value that triggers the planted bug.
const POISON: u64 = 13;

/// A test-only broken actor. On a timer it relays the tag to its
/// dimension-0 neighbor; on receiving the poison value it *raises* its
/// level — exactly the monotone-descent bug the DST invariants exist
/// to catch.
#[derive(Clone)]
struct BrokenNode {
    level: u64,
}

/// The broken actor's canonical protocol state is just its level.
impl StateHash for BrokenNode {
    fn state_hash(&self, h: &mut McHasher) {
        h.write_u64(self.level);
    }
}

impl Actor for BrokenNode {
    type Msg = u64;

    fn on_message(&mut self, _ctx: &mut Ctx<u64>, _from: NodeId, msg: u64) {
        if msg == POISON {
            self.level += 1; // the planted bug
        } else {
            self.level = self.level.saturating_sub(1);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<u64>, tag: u64) {
        let dst = ctx.self_id().neighbor(0);
        ctx.send(dst, tag, 1);
    }
}

/// Levels must never rise — the same shape as `GsLevelsDescend`, over
/// the broken actor.
struct NeverRises {
    prev: Vec<u64>,
}

impl<'n> Invariant<HypercubeNet<'n>, BrokenNode> for NeverRises {
    fn name(&self) -> &'static str {
        "never-rises"
    }

    fn check(&mut self, eng: &EventEngine<'_, HypercubeNet<'n>, BrokenNode>) -> Result<(), String> {
        for (a, node) in eng.actors_iter() {
            let prev = self.prev[a.raw() as usize];
            if node.level > prev {
                return Err(format!("{a} rose from {prev} to {}", node.level));
            }
            self.prev[a.raw() as usize] = node.level;
        }
        Ok(())
    }
}

/// Runs the broken actor under the given injected timer events
/// (`(node, tag, delay)`), returning the violation (if any) and the
/// full delivery trace.
fn broken_run(
    cfg: &FaultConfig,
    seed: u64,
    injections: &[(NodeId, u64, Time)],
) -> (Option<String>, Trace) {
    let net = HypercubeNet::new(cfg);
    let opts = RunOptions {
        sched: Box::new(AdversarialScheduler::permute(seed)),
        ..RunOptions::default()
    };
    let mut eng = EventEngine::with_options(&net, opts, |_| BrokenNode { level: 100 });
    eng.set_trace(Box::new(Trace::enabled()));
    for &(dst, tag, delay) in injections {
        eng.inject(dst, tag, delay);
    }
    let mut inv = NeverRises {
        prev: vec![100; cfg.cube().num_nodes() as usize],
    };
    let res = eng.run_checked(100_000, &mut [&mut inv]);
    let trace = eng
        .take_trace()
        .and_then(|t| t.into_trace())
        .unwrap_or_default();
    (res.err().map(|v| v.to_string()), trace)
}

#[test]
fn planted_violation_shrinks_to_one_event_and_replays_byte_identically() {
    let seed = 0xB0B0_CAFE_u64;
    let cube = Hypercube::new(4);
    let cfg = FaultConfig::fault_free(cube);

    // 40 injected timer events, exactly one of them poisonous.
    let mut injections: Vec<(NodeId, u64, Time)> = (0..40u64)
        .map(|k| (NodeId::new(k % cube.num_nodes()), k % 7, 1 + k))
        .collect();
    injections[23].1 = POISON;

    let (violation, _) = broken_run(&cfg, seed, &injections);
    let violation = violation.expect("the planted bug must trip the invariant");
    assert!(violation.contains("never-rises"), "{violation}");

    // ddmin the injection list down to a 1-minimal reproducer.
    let shrunk = shrink_injections(&injections, |subset| {
        broken_run(&cfg, seed, subset).0.is_some()
    });
    assert!(
        shrunk.len() <= 10,
        "shrinker left {} events: {shrunk:?}",
        shrunk.len()
    );
    assert!(
        shrunk.iter().any(|&(_, tag, _)| tag == POISON),
        "minimal reproducer lost the poison event: {shrunk:?}"
    );
    // Still failing, and 1-minimal here means exactly the poison event.
    assert_eq!(shrunk.len(), 1, "{shrunk:?}");

    // Replay from the printed seed: two runs of the shrunk reproducer
    // render byte-identical traces and the same violation.
    println!("reproducer: seed={seed:#x} injections={shrunk:?}");
    let (v1, t1) = broken_run(&cfg, seed, &shrunk);
    let (v2, t2) = broken_run(&cfg, seed, &shrunk);
    assert_eq!(v1, v2);
    assert!(v1.is_some());
    assert_eq!(t1.render(), t2.render(), "replay diverged");
}

// ---------------------------------------------------------------------
// The same planted bug through the model checker: found exhaustively,
// ddmin-shrunk, written as a seedless path artifact, replayed
// byte-identically.
// ---------------------------------------------------------------------

/// The state-local reformulation of `NeverRises`: levels start at 100
/// and only the poison raises one above it, so `level <= 100` at every
/// reachable state is exactly the planted bug's signature.
fn mc_broken_checks<'a>() -> [McCheck<'a, BrokenNode>; 1] {
    [McCheck {
        name: "mc-never-rises",
        terminal_only: false,
        check: Box::new(|s: &McSnapshot<'_, BrokenNode>| {
            for (v, a) in s.actors.iter().enumerate() {
                if let Some(a) = a {
                    if a.level > 100 {
                        return Err(format!("node {v} rose to {}", a.level));
                    }
                }
            }
            Ok(())
        }),
    }]
}

fn mc_broken(cfg: &FaultConfig, injections: &[(NodeId, u64)]) -> McReport {
    let net = HypercubeNet::new(cfg);
    mc_explore(
        &net,
        |_| BrokenNode { level: 100 },
        injections,
        &McConfig::default(),
        &mc_broken_checks(),
    )
}

fn mc_broken_replay(cfg: &FaultConfig, injections: &[(NodeId, u64)], path: &[u32]) -> McReplay {
    let net = HypercubeNet::new(cfg);
    mc_replay(
        &net,
        |_| BrokenNode { level: 100 },
        injections,
        &McConfig::default(),
        &mc_broken_checks(),
        path,
    )
}

/// The minimal reproducer ddmin converges to: one poisoned timer on
/// node 1 (which relays the poison to node 0). The pinned artifact in
/// `tests/corpus/` replays against exactly this system.
const MC_MINIMAL_INJECTIONS: [(NodeId, u64); 1] = [(NodeId(1), POISON)];

#[test]
fn mc_finds_shrinks_and_replays_the_planted_violation() {
    let cube = Hypercube::new(2);
    let cfg = FaultConfig::fault_free(cube);

    // Six injected timers, one poisonous.
    let mut inj: Vec<(NodeId, u64)> = (0..6u64).map(|k| (NodeId::new(k % 4), k % 3)).collect();
    inj[3] = (NodeId::new(1), POISON);

    let rep = mc_broken(&cfg, &inj);
    let v = rep.violation.as_ref().expect("checker must find the bug");
    assert_eq!(v.property, "mc-never-rises");

    // ddmin over injection subsets with the checker as the oracle.
    let shrunk = shrink_injections(&inj, |sub| mc_broken(&cfg, sub).violation.is_some());
    assert_eq!(shrunk, MC_MINIMAL_INJECTIONS.to_vec(), "{shrunk:?}");

    // Counterexample of the minimal system, replayed twice: the
    // rendered schedule and the per-step state hashes must match
    // byte-for-byte — the path alone is the reproducer, no seed.
    let rep = mc_broken(&cfg, &shrunk);
    let mut v = rep
        .violation
        .clone()
        .expect("minimal system still violates");
    let r1 = mc_broken_replay(&cfg, &shrunk, &v.path);
    let r2 = mc_broken_replay(&cfg, &shrunk, &v.path);
    assert_eq!(r1.rendered, r2.rendered, "replay diverged");
    assert_eq!(r1.state_hashes, r2.state_hashes);
    assert_eq!(
        r1.violation.as_ref().map(|(p, _)| p.as_str()),
        Some("mc-never-rises")
    );

    // Artifact round-trip: the path survives render + parse.
    v.rendered = r1.rendered.clone();
    let artifact = render_artifact(&v);
    println!("{artifact}");
    assert_eq!(parse_artifact_path(&artifact), Some(v.path.clone()));

    // The engine agrees: the same minimal injection trips run_checked.
    let eng_inj: Vec<(NodeId, u64, Time)> = shrunk.iter().map(|&(a, t)| (a, t, 1)).collect();
    let (violation, _) = broken_run(&cfg, 7, &eng_inj);
    assert!(violation
        .expect("engine reproduces it")
        .contains("never-rises"));
}

#[test]
fn pinned_mc_counterexample_replays_byte_identically() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/corpus/mc_broken_counterexample.txt");
    let text = std::fs::read_to_string(&path).expect("pinned mc counterexample present");
    let steps = parse_artifact_path(&text).expect("artifact has a path line");
    let cube = Hypercube::new(2);
    let cfg = FaultConfig::fault_free(cube);
    let r = mc_broken_replay(&cfg, &MC_MINIMAL_INJECTIONS, &steps);
    assert_eq!(
        r.violation.as_ref().map(|(p, _)| p.as_str()),
        Some("mc-never-rises"),
        "pinned path no longer reaches the violation"
    );
    let stored = text.split_once("--\n").expect("artifact body").1;
    assert_eq!(r.rendered, stored, "pinned replay diverged");
}

#[test]
fn clean_actor_run_passes_the_same_invariant() {
    // Same harness, no poison: the invariant holds over all 40 events.
    let cube = Hypercube::new(4);
    let cfg = FaultConfig::fault_free(cube);
    let injections: Vec<(NodeId, u64, Time)> = (0..40u64)
        .map(|k| (NodeId::new(k % cube.num_nodes()), k % 7, 1 + k))
        .collect();
    let (violation, trace) = broken_run(&cfg, 1, &injections);
    assert_eq!(violation, None);
    assert!(!trace.render().is_empty(), "relays must have produced hops");
}
