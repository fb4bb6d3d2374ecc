//! The one end-of-run path of the gated experiments (E23 `dst`, E24
//! `churn`, E26 `service`, E27 `safety-scale`, E28 `mc`, E29
//! `multipath`) and of the two snapshot reports (E22 `loss`, E25
//! `obs`): the checksums their CSVs carry, the [`GateRun`] outcome,
//! and the one [`export`] that writes a report's CSV next to its
//! metrics snapshot.
//!
//! A checksum is a pure function of the outcomes, so a CSV is
//! byte-identical at any thread count exactly when the outcomes are.

use crate::table::Report;
use hypersafe_core::{BatchOutcome, Decision};
use hypersafe_simkit::MetricsSnapshot;
use std::path::Path;

/// The FNV-1a offset basis: every checksum column starts here.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step: folds the word `v` into the running hash `h`.
pub(crate) fn fnv1a(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x100_0000_01b3)
}

/// A batched route's outcome as one word: decision class and first
/// dimension, hops walked, and delivery.
pub(crate) fn batch_outcome_word(o: &BatchOutcome) -> u64 {
    let tag = match o.decision {
        Decision::Optimal { first_dim, .. } => 0x10 | first_dim as u64,
        Decision::Suboptimal { first_dim } => 0x40 | first_dim as u64,
        Decision::Failure => 0x80,
        Decision::AlreadyThere => 0x81,
    };
    tag << 40 | (o.hops as u64) << 8 | o.delivered as u64
}

/// A gated run's outcome: the report plus one line per failed check or
/// failed write. `repro` prints the lines to stderr and exits nonzero
/// unless there are none.
pub struct GateRun {
    /// Renderable summary table.
    pub report: Report,
    /// Failure lines; empty on a passing run.
    pub failures: Vec<String>,
}

/// The file stem of report `name`'s metrics snapshot: `<name>_obs`,
/// except E25's, whose whole output is the snapshot, which is
/// `obs_metrics`. `repro validate-obs` finds snapshots by this rule.
pub fn snapshot_stem(name: &str) -> String {
    if name == "obs" {
        "obs_metrics".to_string()
    } else {
        format!("{name}_obs")
    }
}

/// Writes `body` to `path`, creating its directory; an error comes back
/// as the line `<path> write failed: <error>`.
pub(crate) fn write(path: &Path, body: &str) -> Result<(), String> {
    path.parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, body))
        .map_err(|e| format!("{} write failed: {e}", path.display()))
}

/// Writes `rep` as `<dir>/<name>.csv` and, when given, the snapshot as
/// `<dir>/<stem>.json` + `<dir>/<stem>.csv` (stem by
/// [`snapshot_stem`]; `about` says what the snapshot holds). Notes
/// every path written on `rep` and returns one failure line per failed
/// write.
pub fn export(rep: &mut Report, dir: &Path, snap: Option<(&MetricsSnapshot, &str)>) -> Vec<String> {
    let mut failures = Vec::new();
    match rep.write_csv(dir) {
        Ok(path) => {
            rep.note(format!("csv: {}", path.display()));
        }
        Err(e) => failures.push(format!("{}: csv write failed: {e}", rep.name)),
    }
    if let Some((snap, about)) = snap {
        let stem = snapshot_stem(&rep.name);
        let json = dir.join(format!("{stem}.json"));
        let csv = dir.join(format!("{stem}.csv"));
        match write(&json, &snap.to_json()).and_then(|()| write(&csv, &snap.to_csv())) {
            Ok(()) => {
                rep.note(format!(
                    "metrics snapshot ({about}): {} and {}",
                    json.display(),
                    csv.display()
                ));
            }
            Err(e) => failures.push(format!("{}: {e}", rep.name)),
        }
    }
    failures
}

/// The sorted names of the files in `dir`, for tests that pin what a
/// gate writes.
#[cfg(test)]
pub(crate) fn files_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}
