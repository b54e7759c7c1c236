//! `dbox stats` — the deterministic metrics snapshot.
//!
//! Materializes the session (a pure replay of the journal, §3.5's
//! reproducibility property) and freezes the observability registry:
//! every counter, gauge and histogram the kernel, broker, digis and
//! control plane recorded, timestamped only in virtual time. Because
//! materialization is deterministic, two invocations on the same session
//! print byte-identical output — the JSON form is canonical (sorted keys,
//! no whitespace) precisely so its digest is stable.

use crate::Session;

/// Execute `dbox stats [--format json|pretty]` against a loaded session.
pub fn run(session: &Session, args: &[String]) -> Result<String, String> {
    let format = match args.iter().position(|a| a == "--format") {
        Some(i) => args
            .get(i + 1)
            .map(String::as_str)
            .ok_or("usage: dbox stats [--format json|pretty]")?,
        None => "pretty",
    };
    let snap = session.materialize()?.obs_snapshot();
    match format {
        "json" => Ok(format!("{}\n", snap.to_json())),
        "pretty" => {
            let json = snap.to_json();
            let digest = digibox_registry::sha256(json.as_bytes()).to_string();
            Ok(format!("{}stats digest {}\n", snap.render(), &digest[..12]))
        }
        other => Err(format!("unknown stats format {other:?} (json|pretty)")),
    }
}
