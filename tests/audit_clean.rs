//! Self-audit regression: `dbox audit` must run clean over the seven
//! simulation crates — zero unsuppressed findings, zero stale
//! suppressions, zero legacy annotations. This is the determinism gate
//! that used to be `scripts/lint_determinism.sh`; keeping it as a test
//! means a hazard (or a rotting `// det-ok` excuse) fails `cargo test`
//! before it ever reaches CI.

use std::path::{Path, PathBuf};

use digibox_analysis::audit::{audit_paths, AuditOptions, DEFAULT_CRATES};
use digibox_model::json;

/// The workspace root, two levels above `crates/integration`.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn simulation_crates_audit_clean() {
    let root = repo_root();
    let paths: Vec<PathBuf> = DEFAULT_CRATES.iter().map(|c| root.join(c)).collect();
    let report = audit_paths(&paths, &AuditOptions::default()).expect("audit walks the tree");
    assert!(report.files >= 50, "walked only {} files — path set wrong?", report.files);
    assert!(
        report.is_clean(),
        "determinism audit found hazards:\n{}",
        report.render_pretty()
    );
    // the one excused hash-order iteration (registry object store) stays
    // excused through its checked det-ok annotation, not by accident
    assert!(report.suppressed >= 1, "expected the registry det-ok(DH0002) suppression");
}

#[test]
fn audit_report_is_byte_stable() {
    let root = repo_root();
    let paths: Vec<PathBuf> = DEFAULT_CRATES.iter().map(|c| root.join(c)).collect();
    let a = json::encode(&audit_paths(&paths, &AuditOptions::default()).unwrap());
    let b = json::encode(&audit_paths(&paths, &AuditOptions::default()).unwrap());
    assert_eq!(a, b, "two runs over the same tree must render identically");
}

#[test]
fn obs_crate_is_also_clean() {
    // crates/obs sits outside the kernel envelope (so outside the default
    // set), but it feeds digests and snapshots — hold it to the same bar.
    let report =
        audit_paths(&[repo_root().join("crates/obs")], &AuditOptions::default()).unwrap();
    assert!(report.is_clean(), "{}", report.render_pretty());
}
