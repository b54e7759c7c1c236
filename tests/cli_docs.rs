//! Documentation regression: `docs/CLI.md` must cover the CLI that
//! actually ships. Every verb and every long flag in `dbox --help`
//! (exported as [`digibox_cli::usage`]) has to appear in the reference —
//! so the doc cannot silently drift when a verb is added or renamed.

fn cli_reference() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/CLI.md");
    std::fs::read_to_string(path).expect("docs/CLI.md is readable")
}

/// Verbs from the usage text: the token after "dbox " on each usage line.
fn usage_verbs() -> Vec<String> {
    let mut verbs: Vec<String> = digibox_cli::usage()
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("dbox "))
        .filter_map(|rest| rest.split_whitespace().next())
        .map(String::from)
        .collect();
    verbs.sort();
    verbs.dedup();
    verbs
}

#[test]
fn every_usage_verb_is_documented() {
    let doc = cli_reference();
    let verbs = usage_verbs();
    assert!(verbs.len() >= 20, "usage text lists the full verb set: {verbs:?}");
    for verb in &verbs {
        assert!(
            doc.contains(&format!("`dbox {verb}")),
            "docs/CLI.md has no section or example for `dbox {verb}`"
        );
    }
}

#[test]
fn every_usage_flag_is_documented() {
    let doc = cli_reference();
    let mut flags: Vec<&str> = digibox_cli::usage()
        .split_whitespace()
        .filter(|w| w.starts_with("--"))
        .map(|w| w.trim_matches(|c: char| !c.is_alphanumeric() && c != '-'))
        .collect();
    flags.sort();
    flags.dedup();
    assert!(!flags.is_empty());
    for flag in flags {
        assert!(doc.contains(flag), "docs/CLI.md does not mention {flag}");
    }
}

#[test]
fn documented_verbs_exist() {
    // The reverse direction: every `### dbox <verb>` heading in the doc
    // must be a real verb, so removed commands get scrubbed from the doc.
    let doc = cli_reference();
    let verbs = usage_verbs();
    for line in doc.lines() {
        let Some(rest) = line.strip_prefix("### `dbox ") else { continue };
        let verb = rest.split([' ', '`']).next().unwrap_or_default();
        assert!(
            verbs.contains(&verb.to_string()),
            "docs/CLI.md documents unknown verb {verb:?}"
        );
    }
}

#[test]
fn exit_codes_are_documented() {
    let doc = cli_reference();
    for needle in ["exit code", "0", "1", "2"] {
        assert!(doc.contains(needle), "docs/CLI.md must describe exit codes ({needle})");
    }
}
