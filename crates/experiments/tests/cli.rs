//! End-to-end checks of the `repro` binary: exit codes and where it
//! writes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty scratch directory unique to this test process.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro_cli_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn repro(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("repro runs")
}

/// `--csv` pointing below a regular file, so every write fails.
fn unwritable(dir: &Path) -> String {
    let file = dir.join("file");
    std::fs::write(&file, "").unwrap();
    file.join("out").display().to_string()
}

#[test]
fn a_failed_write_fails_a_gate() {
    let dir = scratch("gate_write");
    let out = repro(&dir, &["churn", "--quick", "--csv", &unwritable(&dir)]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("churn: csv write failed"), "{stderr}");
    assert!(stderr.contains("churn_obs.json write failed"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failed_write_fails_a_report() {
    let dir = scratch("report_write");
    let out = repro(&dir, &["fig1", "--csv", &unwritable(&dir)]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("fig1: csv write failed"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn obs_writes_nothing_without_csv() {
    let dir = scratch("obs_no_csv");
    let out = repro(&dir, &["obs", "--quick"]);
    assert!(out.status.success(), "{out:?}");
    assert!(!dir.join("results").exists(), "obs wrote without --csv");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn obs_snapshot_lands_under_csv_and_validates() {
    let dir = scratch("obs_csv");
    let csv = dir.join("out").display().to_string();
    assert!(repro(&dir, &["obs", "--quick", "--csv", &csv])
        .status
        .success());
    for file in ["obs.csv", "obs_metrics.json", "obs_metrics.csv"] {
        assert!(dir.join("out").join(file).exists(), "{file} missing");
    }
    let out = repro(&dir, &["validate-obs", "--csv", &csv]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("obs_metrics.json"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn validate_obs_fails_on_an_empty_directory() {
    let dir = scratch("validate_empty");
    let out = repro(&dir, &["validate-obs", "--csv", &dir.display().to_string()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("no snapshot found"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unknown_subcommand_prints_usage_and_exits_2() {
    let dir = scratch("usage");
    let out = repro(&dir, &["nope"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    for name in ["fig1", "obs", "multipath", "validate-obs", "all"] {
        assert!(stderr.contains(name), "usage lacks {name}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
