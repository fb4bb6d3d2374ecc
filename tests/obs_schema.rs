//! The exported observability snapshot (`obs_metrics.json`, also the
//! `loss_obs` / `dst_obs` / `churn_obs` variants — all the same shape)
//! is pinned by `tests/goldens/obs_schema.json`: CI validates the file
//! `repro obs --quick` writes against it, and this test validates
//! freshly generated snapshots the same way so a shape drift fails
//! locally before it fails in CI.

use hypersafe::safety::{run_gs_reliable, run_unicast_lossy, SafetyMap};
use hypersafe::simkit::{
    parse_json, validate_json, ChannelModel, JsonValue, Metrics, ReliableConfig, RunOptions,
};
use hypersafe::topology::{FaultConfig, FaultSet, Hypercube, NodeId, Topology};
use hypersafe::workloads::STANDARD_PROFILES;

const SCHEMA: &str = include_str!("goldens/obs_schema.json");

/// A populated snapshot from a real protocol run (GS convergence plus
/// one unicast on a faulty cube over a duplicating, lossy channel, so
/// every counter family is exercised).
fn populated_snapshot() -> hypersafe::simkit::MetricsSnapshot {
    let cube = Hypercube::new(5);
    let faults = FaultSet::from_nodes(cube, [NodeId::new(3), NodeId::new(17)]);
    let cfg = FaultConfig::with_node_faults(cube, faults);
    let prof = STANDARD_PROFILES
        .iter()
        .find(|p| p.name == "moderate")
        .expect("standard profile");
    let rcfg = ReliableConfig::default();
    let observed = |channel: ChannelModel| RunOptions {
        channel: Some(channel),
        max_events: 2_000_000,
        observe: true,
        ..RunOptions::default()
    };
    let (gs, report) = run_gs_reliable(&cfg, rcfg, 1, observed(prof.channel(7)));
    assert!(gs.quiescent, "GS ran out of event budget");
    let mut obs = report.metrics.expect("observed");
    let map = SafetyMap::compute(&cfg);
    let (s, d) = (NodeId::new(0), NodeId::new(cube.num_nodes() - 1));
    let (_, report) = run_unicast_lossy(&cfg, &map, s, d, 1, rcfg, observed(prof.channel(11)));
    obs.merge(&report.metrics.expect("observed"));
    obs.snapshot()
}

#[test]
fn generated_snapshot_matches_the_checked_in_schema() {
    let snap = populated_snapshot();
    let json = snap.to_json();
    validate_json(&json, SCHEMA).expect("snapshot drifted from tests/goldens/obs_schema.json");
}

#[test]
fn empty_snapshot_matches_the_schema_too() {
    // The degenerate export (no runs merged) must stay valid — CI's
    // quick path may produce sparse per-node/per-dim arrays.
    let json = Metrics::new(0, 0).snapshot().to_json();
    validate_json(&json, SCHEMA).expect("empty snapshot drifted from the schema");
}

#[test]
fn schema_rejects_shape_drift() {
    let snap = populated_snapshot();
    let json = snap.to_json();
    // A renamed key must be caught...
    let renamed = json.replacen("\"sends\":", "\"send_count\":", 1);
    assert!(
        validate_json(&renamed, SCHEMA).is_err(),
        "renamed key slipped through"
    );
    // ...and so must a type change.
    let retyped = json.replacen("\"schema\":\"hypersafe.obs.v1\"", "\"schema\":1", 1);
    assert!(
        validate_json(&retyped, SCHEMA).is_err(),
        "retyped field slipped through"
    );
}

#[test]
fn snapshot_json_totals_agree_with_per_node_rows() {
    let snap = populated_snapshot();
    let doc = parse_json(&snap.to_json()).expect("snapshot must parse");
    let num = |v: &JsonValue| match v {
        JsonValue::Num(x) => *x as u64,
        other => panic!("expected number, got {other:?}"),
    };
    let JsonValue::Arr(nodes) = doc.get("per_node").expect("per_node") else {
        panic!("per_node must be an array");
    };
    let sent_sum: u64 = nodes
        .iter()
        .map(|n| num(n.get("sent").expect("sent")))
        .sum();
    let totals = doc.get("totals").expect("totals");
    assert_eq!(num(totals.get("sends").expect("sends")), sent_sum);
}
