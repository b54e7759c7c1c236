//! `dbox audit` — determinism/concurrency static analysis over the
//! simulation crates' own Rust sources.
//!
//! Same exit-code contract as `dbox lint` (intercepted in
//! [`crate::invoke`]):
//!
//! * `0` — clean, or only warnings;
//! * `2` — at least one error-severity finding, or a rejected `--allow`
//!   code (a typoed allow must not silently un-waive anything);
//! * `1` — operational failure (bad flags, unreadable path).

use std::path::Path;

use digibox_analysis::audit::{audit_paths, AuditOptions, DEFAULT_CRATES};
use digibox_analysis::{parse_allow_codes, HazardCode};
use digibox_model::json;

use crate::Outcome;

const AUDIT_USAGE: &str = "\
usage:
  dbox audit                    audit the seven simulation crates
  dbox audit <paths...>         audit specific files or directories
options:
  --format json                 canonical machine-readable report
  --allow DH0005                suppress codes for this run (validated)

hazard codes: DH0001 banned time/entropy API, DH0002 hash-order
iteration, DH0003 thread outside core::sweep/islands, DH0004 pointer identity
leak, DH0005 float accumulation (warning), DH0090 stale det-ok
suppression, DH0091 malformed det-ok annotation.
";

pub fn run(dir: &Path, args: &[String]) -> Outcome {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Outcome { stdout: AUDIT_USAGE.to_string(), code: 0 };
    }
    let mut json = false;
    let mut opts = AuditOptions::default();
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("pretty") => json = false,
                other => {
                    return Outcome {
                        stdout: format!("error: unknown --format {other:?}\n{AUDIT_USAGE}"),
                        code: 1,
                    }
                }
            },
            "--allow" => {
                let Some(codes) = it.next() else {
                    return Outcome {
                        stdout: format!("error: --allow needs codes\n{AUDIT_USAGE}"),
                        code: 1,
                    };
                };
                match parse_allow_codes(codes, HazardCode::all().map(HazardCode::as_str)) {
                    Ok(set) => opts.allow.extend(set),
                    Err(e) => return Outcome { stdout: format!("error: {e}\n"), code: 2 },
                }
            }
            flag if flag.starts_with('-') => {
                return Outcome {
                    stdout: format!("error: unknown argument {flag:?}\n{AUDIT_USAGE}"),
                    code: 1,
                }
            }
            path => paths.push(path.to_string()),
        }
    }
    if paths.is_empty() {
        // default set, resolved against the invocation directory (CI runs
        // from the repo root)
        for c in DEFAULT_CRATES {
            paths.push(dir.join(c).to_string_lossy().into_owned());
        }
    }
    match audit_paths(&paths, &opts) {
        Ok(report) => {
            let stdout = if json { json::encode(&report) + "\n" } else { report.render_pretty() };
            let code = if report.has_errors() { 2 } else { 0 };
            Outcome { stdout, code }
        }
        Err(e) => Outcome { stdout: format!("error: {e}\n"), code: 1 },
    }
}

#[cfg(test)]
mod auditcheck {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dbox-audit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_args(dir: &Path, args: &[&str]) -> Outcome {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(dir, &args)
    }

    #[test]
    fn seeded_violation_exits_2_with_span() {
        let dir = tmpdir("seeded");
        let bad = dir.join("bad.rs");
        std::fs::write(&bad, "fn now() -> u64 {\n    SystemTime::now().into()\n}\n").unwrap();
        let out = run_args(&dir, &[bad.to_str().unwrap()]);
        assert_eq!(out.code, 2, "{}", out.stdout);
        assert!(out.stdout.contains("DH0001"), "{}", out.stdout);
        assert!(out.stdout.contains("bad.rs:2:5"), "{}", out.stdout);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_format_is_canonical() {
        let dir = tmpdir("json");
        let bad = dir.join("bad.rs");
        std::fs::write(&bad, "let r = thread_rng();\n").unwrap();
        let out = run_args(&dir, &[bad.to_str().unwrap(), "--format", "json"]);
        assert_eq!(out.code, 2, "{}", out.stdout);
        assert!(out.stdout.contains("\"code\":\"DH0001\""), "{}", out.stdout);
        assert!(out.stdout.contains("\"errors\":1"), "{}", out.stdout);
        assert!(out.stdout.ends_with('\n'));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn allow_waives_and_unknown_allow_exits_2() {
        let dir = tmpdir("allow");
        let bad = dir.join("warn.rs");
        std::fs::write(
            &bad,
            "let w: HashMap<u32, f64> = HashMap::new();\nlet t: f64 = w.values().sum();\n",
        )
        .unwrap();
        let out = run_args(&dir, &[bad.to_str().unwrap(), "--allow", "DH0005"]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("1 allowed"), "{}", out.stdout);

        // typoed code: rejected loudly, not silently ignored
        let out = run_args(&dir, &[bad.to_str().unwrap(), "--allow", "DH005"]);
        assert_eq!(out.code, 2, "{}", out.stdout);
        assert!(out.stdout.contains("did you mean DH0005?"), "{}", out.stdout);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_file_exits_0_and_help_works() {
        let dir = tmpdir("clean");
        let good = dir.join("good.rs");
        std::fs::write(&good, "fn main() { println!(\"SystemTime::now in a string\"); }\n")
            .unwrap();
        let out = run_args(&dir, &[good.to_str().unwrap()]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("1 file(s), 0 error(s)"), "{}", out.stdout);
        let out = run_args(&dir, &["--help"]);
        assert_eq!(out.code, 0);
        assert!(out.stdout.starts_with("usage:"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_path_is_operational_failure() {
        let dir = tmpdir("missing");
        let out = run_args(&dir, &["no/such/dir"]);
        assert_eq!(out.code, 1, "{}", out.stdout);
        assert!(out.stdout.starts_with("error:"), "{}", out.stdout);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
