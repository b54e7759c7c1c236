//! `dbox lint` over the shipped library and over fixture ensembles.
//!
//! This test deliberately avoids materializing a testbed: the analyzer
//! works on manifests + catalog programs alone, which is exactly the point
//! of linting *before* the kernel runs.

use std::collections::BTreeMap;

use digibox_analysis::{lint_catalog, lint_ensemble, Ensemble, LintCode, Options, Severity};
use digibox_core::properties::DigiCondition;
use digibox_core::{Condition, SceneProperty};
use digibox_devices::full_catalog;
use digibox_net::SimDuration;
use digibox_registry::{InstanceDecl, SetupManifest};

fn decl(name: &str, kind: &str, managed: bool) -> InstanceDecl {
    InstanceDecl {
        name: name.into(),
        kind: kind.into(),
        version: "v1".into(),
        managed,
        params: BTreeMap::new(),
    }
}

/// The whole built-in library is lint-clean: every mock and scene writes
/// only fields the relevant schema declares.
#[test]
fn builtin_library_is_lint_clean() {
    let report = lint_catalog(&full_catalog(), &Options::default());
    assert!(report.is_clean(), "library regressed:\n{}", report.render_pretty());
}

/// Every registered kind can be probed; probing is deterministic.
#[test]
fn probing_covers_and_is_deterministic() {
    let catalog = full_catalog();
    let a = digibox_analysis::profile_catalog(&catalog);
    let b = digibox_analysis::profile_catalog(&catalog);
    assert_eq!(a.len(), catalog.len());
    for (kind, pa) in &a {
        let pb = &b[kind];
        assert_eq!(pa.on_loop.writes, pb.on_loop.writes, "{kind} probe not deterministic");
        assert_eq!(pa.on_model.att_writes, pb.on_model.att_writes);
    }
    // spot-check: the paper's fig. 5 room coordinates occupancy sensors
    assert!(a["Room"].att_writes().any(|(k, p)| k == "Occupancy" && p == "triggered"));
}

/// The paper-walkthrough ensemble lints down to a single note: the lamp
/// attachment is application-driven, which static analysis cannot see.
#[test]
fn walkthrough_ensemble_lints_to_one_note() {
    let mut m = SetupManifest::new("meeting-room", 42);
    m.instances.push(decl("O1", "Occupancy", true));
    m.instances.push(decl("O2", "Occupancy", true));
    m.instances.push(decl("D1", "Underdesk", true));
    m.instances.push(decl("L1", "Lamp", false));
    m.instances.push(decl("MeetingRoom", "Room", false));
    for child in ["O1", "O2", "D1", "L1"] {
        m.attachments.push((child.into(), "MeetingRoom".into()));
    }
    let ensemble = Ensemble::new(m).with_properties(vec![SceneProperty::never(
        "lamp-off-when-empty",
        vec![
            DigiCondition::new("L1", Condition::eq("power.status", "on")),
            DigiCondition::new("O1", Condition::eq("triggered", false)),
        ],
    )]);
    let report = lint_ensemble(&full_catalog(), &ensemble, &Options::default());
    assert!(!report.has_errors(), "{}", report.render_pretty());
    assert_eq!(report.warnings(), 0, "{}", report.render_pretty());
    assert_eq!(report.infos(), 1, "{}", report.render_pretty());
    assert_eq!(report.diagnostics[0].code, LintCode::InertAttachment);
    assert_eq!(report.diagnostics[0].severity, Severity::Info);
}

/// A manifest that trips every graph/kind code at once; lint reports all
/// of them (it does not stop at the first, unlike `validate`).
#[test]
fn broken_graph_reports_every_code() {
    let mut m = SetupManifest::new("broken", 1);
    m.instances.push(decl("a/b", "Lamp", false)); // DL0004
    m.instances.push(decl("F1", "Fna", false)); // DL0005
    m.instances.push(decl("X", "Lamp", false));
    m.instances.push(decl("X", "Fan", false)); // DL0008
    m.instances.push(decl("L2", "Lamp", false));
    m.instances.push(decl("O1", "Occupancy", false));
    m.instances.push(decl("R1", "Room", false));
    m.instances.push(decl("R2", "Room", false));
    m.attachments.push(("ghost".into(), "R1".into())); // DL0007
    m.attachments.push(("O1".into(), "R1".into()));
    m.attachments.push(("O1".into(), "R2".into())); // DL0010
    m.attachments.push(("L2".into(), "X".into())); // DL0009 (Lamp parent)
    m.attachments.push(("R1".into(), "R2".into()));
    m.attachments.push(("R2".into(), "R1".into())); // DL0006
    let report = lint_ensemble(&full_catalog(), &Ensemble::new(m), &Options::default());
    let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code.as_str()).collect();
    for expected in ["DL0004", "DL0005", "DL0006", "DL0007", "DL0008", "DL0009", "DL0010"] {
        assert!(codes.contains(&expected), "missing {expected} in {codes:?}");
    }
    assert!(report.has_errors());
}

/// Write-conflict detection on real library programs: an unmanaged
/// Temperature under a Room fights the room's thermal coordination.
#[test]
fn unmanaged_temperature_under_room_conflicts() {
    let mut m = SetupManifest::new("conflict", 1);
    m.instances.push(decl("T1", "Temperature", false));
    m.instances.push(decl("R1", "Room", false));
    m.attachments.push(("T1".into(), "R1".into()));
    let report = lint_ensemble(&full_catalog(), &Ensemble::new(m), &Options::default());
    let conflict = report
        .diagnostics
        .iter()
        .find(|d| d.code == LintCode::WriteConflict)
        .unwrap_or_else(|| panic!("expected DL0001:\n{}", report.render_pretty()));
    assert_eq!(conflict.span.digi.as_deref(), Some("T1"));
    assert!(conflict.message.contains("managed=true"));

    // the walkthrough idiom — managed child — is clean
    let mut m = SetupManifest::new("ok", 1);
    m.instances.push(decl("T1", "Temperature", true));
    m.instances.push(decl("R1", "Room", false));
    m.attachments.push(("T1".into(), "R1".into()));
    let report = lint_ensemble(&full_catalog(), &Ensemble::new(m), &Options::default());
    assert!(report.is_clean(), "{}", report.render_pretty());
}

/// Property vacuity over a real ensemble: unknown digi, missing path,
/// contradiction, unreachable conclusion.
#[test]
fn property_codes_fire() {
    let mut m = SetupManifest::new("props", 1);
    m.instances.push(decl("O1", "Occupancy", true));
    m.instances.push(decl("R1", "Room", false));
    m.attachments.push(("O1".into(), "R1".into()));
    let properties = vec![
        SceneProperty::never(
            "ghost-digi",
            vec![DigiCondition::new("L9", Condition::eq("power.status", "on"))], // DL0011
        ),
        SceneProperty::never(
            "typo-path",
            vec![DigiCondition::new("O1", Condition::eq("trigered", true))], // DL0012
        ),
        SceneProperty::always(
            "empty-band",
            vec![
                DigiCondition::new("R1", Condition::gt("temp_c", 30.0)),
                DigiCondition::new("R1", Condition::lt("temp_c", 10.0)), // DL0013
            ],
        ),
        SceneProperty::leads_to(
            "never-concludes",
            vec![DigiCondition::new("O1", Condition::eq("triggered", true))],
            vec![DigiCondition::new("R1", Condition::gt("ambient_c", 30.0))], // DL0014
            SimDuration::from_secs(2),
        ),
    ];
    let ensemble = Ensemble::new(m).with_properties(properties);
    let report = lint_ensemble(&full_catalog(), &ensemble, &Options::default());
    let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code.as_str()).collect();
    for expected in ["DL0011", "DL0012", "DL0013", "DL0014"] {
        assert!(codes.contains(&expected), "missing {expected} in {codes:?}");
    }
    assert_eq!(report.diagnostics.len(), 4, "{}", report.render_pretty());
}

/// Suppression: per-digi `lint_allow` params and the JSON output contract.
#[test]
fn suppression_and_json_output() {
    let mut m = SetupManifest::new("suppress", 1);
    let mut lamp = decl("L1", "Lamp", false);
    lamp.params.insert("lint_allow".into(), digibox_model::Value::Str("DL0002".into()));
    m.instances.push(lamp);
    m.instances.push(decl("R1", "Room", false));
    m.attachments.push(("L1".into(), "R1".into()));
    let report = lint_ensemble(&full_catalog(), &Ensemble::new(m), &Options::default());
    assert!(report.is_clean(), "{}", report.render_pretty());
    assert_eq!(report.suppressed, 1);

    // JSON is valid and carries the counts
    let json = digibox_model::json::encode(&report);
    let parsed = digibox_model::Value::from_json(&json).expect("lint JSON parses");
    assert_eq!(parsed.get("suppressed").and_then(|v| v.as_int()), Some(1));
    assert_eq!(parsed.get("errors").and_then(|v| v.as_int()), Some(0));
    assert!(parsed.get("findings").and_then(|v| v.as_list()).is_some_and(|a| a.is_empty()));
}
