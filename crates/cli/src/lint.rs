//! `dbox lint` — static analysis over the current session (or a manifest
//! file, or the built-in library), before any simulation runs.
//!
//! Unlike the other verbs this one has its own exit-code contract, so it
//! is intercepted in [`crate::invoke`] rather than routed through
//! `invoke_inner`:
//!
//! * `0` — clean, or only warnings/notes;
//! * `2` — at least one error-severity finding, or a rejected `--allow`
//!   code (a typoed allow must not silently un-waive anything);
//! * `1` — operational failure (bad flags, unreadable file, broken
//!   session).

use std::path::Path;

use digibox_analysis::{lint_ensemble, lint_catalog, parse_allow_codes, Ensemble, LintCode, Options, Report};
use digibox_devices::full_catalog;
use digibox_model::json;
use digibox_registry::SetupManifest;

use crate::{Outcome, Session};

const LINT_USAGE: &str = "\
usage:
  dbox lint                     lint the current session's ensemble
  dbox lint --file <setup.dml>  lint a setup manifest file
  dbox lint --library           lint the built-in mock/scene library
options:
  --format json                 machine-readable findings
  --allow DL0002,DL0012         suppress codes for this run
";

pub fn run(dir: &Path, args: &[String]) -> Outcome {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Outcome { stdout: LINT_USAGE.to_string(), code: 0 };
    }
    match run_inner(dir, args) {
        Ok((report, json)) => {
            let stdout = if json { json::encode(&report) + "\n" } else { report.render_pretty() };
            let code = if report.has_errors() { 2 } else { 0 };
            Outcome { stdout, code }
        }
        Err((code, e)) => Outcome { stdout: format!("error: {e}\n"), code },
    }
}

/// Errors carry their exit code: `1` for operational failures, `2` for a
/// rejected `--allow` code.
fn run_inner(dir: &Path, args: &[String]) -> Result<(Report, bool), (i32, String)> {
    let fail = |msg: String| (1, msg);
    let mut json = false;
    let mut opts = Options::default();
    let mut library = false;
    let mut file: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("pretty") => json = false,
                other => return Err(fail(format!("unknown --format {other:?}\n{LINT_USAGE}"))),
            },
            "--allow" => {
                let codes =
                    it.next().ok_or_else(|| fail(format!("--allow needs codes\n{LINT_USAGE}")))?;
                // validated: a typoed code used to be silently ignored,
                // leaving its findings live while the user believed them
                // waived
                let set = parse_allow_codes(codes, LintCode::all().map(LintCode::as_str))
                    .map_err(|e| (2, e))?;
                opts.allow.extend(set);
            }
            "--library" => library = true,
            "--file" => {
                file = Some(
                    it.next().ok_or_else(|| fail(format!("--file needs a path\n{LINT_USAGE}")))?.clone(),
                );
            }
            other => return Err(fail(format!("unknown argument {other:?}\n{LINT_USAGE}"))),
        }
    }

    let catalog = full_catalog();
    let report = if library {
        lint_catalog(&catalog, &opts)
    } else if let Some(path) = file {
        let text = std::fs::read_to_string(&path).map_err(|e| fail(format!("{path}: {e}")))?;
        let manifest = SetupManifest::from_dml(&text).map_err(fail)?;
        lint_ensemble(&catalog, &Ensemble::new(manifest), &opts)
    } else {
        // lint whatever the session journal materializes to
        let session = Session::load(dir).map_err(fail)?;
        let testbed = session.materialize().map_err(fail)?;
        let manifest = testbed.describe("session");
        let properties = testbed.properties().to_vec();
        lint_ensemble(&catalog, &Ensemble::new(manifest).with_properties(properties), &opts)
    };
    Ok((report, json))
}

#[cfg(test)]
mod lintcheck {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dbox-lint-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn library_mode_is_clean() {
        let dir = tmpdir("lib");
        let out = run(&dir, &["--library".to_string()]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("0 error(s)"), "{}", out.stdout);
    }

    #[test]
    fn file_mode_reports_errors_with_exit_2() {
        let dir = tmpdir("file");
        let path = dir.join("bad.dml");
        let mut m = SetupManifest::new("bad", 1);
        m.instances.push(digibox_registry::InstanceDecl {
            name: "F1".into(),
            kind: "Fna".into(),
            version: "v1".into(),
            managed: false,
            params: Default::default(),
        });
        std::fs::write(&path, m.to_dml()).unwrap();
        let out = run(&dir, &["--file".to_string(), path.display().to_string()]);
        assert_eq!(out.code, 2, "{}", out.stdout);
        assert!(out.stdout.contains("DL0005"), "{}", out.stdout);
        assert!(out.stdout.contains("did you mean"), "{}", out.stdout);
    }

    #[test]
    fn json_format_and_allow() {
        let dir = tmpdir("json");
        let path = dir.join("bad.dml");
        let mut m = SetupManifest::new("bad", 1);
        m.instances.push(digibox_registry::InstanceDecl {
            name: "a/b".into(),
            kind: "Lamp".into(),
            version: "v1".into(),
            managed: false,
            params: Default::default(),
        });
        std::fs::write(&path, m.to_dml()).unwrap();
        let args: Vec<String> =
            ["--file", &path.display().to_string(), "--format", "json"].iter().map(|s| s.to_string()).collect();
        let out = run(&dir, &args);
        assert_eq!(out.code, 2, "{}", out.stdout);
        assert!(out.stdout.contains("\"code\":\"DL0004\""), "{}", out.stdout);
        // suppressing the only finding exits clean
        let args: Vec<String> = ["--file", &path.display().to_string(), "--allow", "DL0004"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out = run(&dir, &args);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("1 suppressed"), "{}", out.stdout);
    }

    #[test]
    fn help_exits_zero() {
        let dir = tmpdir("help");
        let out = run(&dir, &["--help".to_string()]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.starts_with("usage:"), "{}", out.stdout);
    }

    #[test]
    fn unknown_allow_code_is_rejected_with_exit_2() {
        let dir = tmpdir("allow-reject");
        let args: Vec<String> =
            ["--library", "--allow", "DL0202"].iter().map(|s| s.to_string()).collect();
        let out = run(&dir, &args);
        assert_eq!(out.code, 2, "{}", out.stdout);
        assert!(out.stdout.contains("did you mean DL0002?"), "{}", out.stdout);
    }

    #[test]
    fn bad_flags_exit_1() {
        let dir = tmpdir("flags");
        let out = run(&dir, &["--nope".to_string()]);
        assert_eq!(out.code, 1);
        assert!(out.stdout.contains("usage:"), "{}", out.stdout);
    }
}
