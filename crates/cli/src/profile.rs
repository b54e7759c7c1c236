//! `dbox profile` — a virtual-time span profile in folded-stack form.
//!
//! Materializes the session and prints the observability layer's span
//! tree as `path;to;frame count` lines — the input format of standard
//! flamegraph tooling (`flamegraph.pl`, inferno, speedscope). Weights are
//! deterministic entry counts, not wall-clock samples: handlers execute
//! in zero virtual time, so "how often does this path run" is the
//! profile a simulated ensemble can answer reproducibly.

use crate::Session;

/// Execute `dbox profile` against a loaded session.
pub fn run(session: &Session, _args: &[String]) -> Result<String, String> {
    let snap = session.materialize()?.obs_snapshot();
    let folded = snap.folded();
    if folded.is_empty() {
        return Ok("no spans recorded (run some digis first)\n".to_string());
    }
    Ok(folded)
}
