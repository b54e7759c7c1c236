//! `dbox record` — capture the session's run as a named, content-addressed
//! trace in the local registry.
//!
//! Recording is a *pure read*: the session is materialized (the same
//! deterministic replay every other read-only verb does), its trace and
//! stats are captured, and the objects land in `.dbox/registry` under the
//! ref `trace/<name>`. The session journal is untouched, so recording has
//! no observable effect on any later command — `dbox stats` prints the
//! same digest before and after.
//!
//! Alongside the chunked records, the trace manifest carries the *recipe*
//! needed for verified replay in its extras:
//!
//! * `session` — the full event-sourced session (seed + journal), so
//!   `dbox replay <name>` can re-execute the run from scratch anywhere;
//! * `setup` — the `SetupManifest` of the running digis, so state
//!   playback (`--speed`, `--from-checkpoint`) can recreate the testbed;
//! * `stats` / `stats_digest` — the run's canonical stats snapshot, the
//!   byte-for-byte target a verified replay must reproduce.

use std::collections::BTreeMap;
use std::path::Path;

use digibox_registry::{sha256, Repository};
use digibox_trace::store;

use crate::{open_registry, Session};

/// Execute `dbox record [<name>]` against the workspace at `dir`.
/// With a name: record. Without: list recorded traces.
pub fn run(dir: &Path, args: &[String]) -> Result<String, String> {
    let session = Session::load(dir)?;
    let mut repo = open_registry(dir)?;

    let Some(name) = args.first() else {
        let names = store::list(&repo);
        if names.is_empty() {
            return Ok("no recorded traces (try `dbox record <name>`)\n".into());
        }
        let mut out = String::new();
        for n in names {
            let m = store::manifest(&repo, &n).map_err(|e| e.to_string())?;
            out.push_str(&format!(
                "trace/{:<20} {:>8} records  {:>4} chunks  span {}\n",
                m.name,
                m.records,
                m.chunks.len(),
                digibox_net::SimDuration::from_nanos(m.span_nanos),
            ));
        }
        return Ok(out);
    };
    if name.starts_with('-') {
        return Err(format!("unknown flag {name:?} (usage: dbox record [<name>])"));
    }

    let mut testbed = session.materialize()?;
    let records = testbed.log().records();
    let stats_json = testbed.obs_snapshot().to_json();
    let setup = testbed.snapshot(name).map_err(|e| e.to_string())?;

    let mut extras = BTreeMap::new();
    extras.insert(
        "session".to_string(),
        digibox_model::json::encode(&session),
    );
    extras.insert(
        "setup".to_string(),
        String::from_utf8(setup.to_bytes()).map_err(|e| e.to_string())?,
    );
    extras.insert("stats_digest".to_string(), sha256(stats_json.as_bytes()).to_string());
    extras.insert("stats".to_string(), stats_json);

    let before = repo.object_count();
    store::save(&mut repo, name, &records, extras).map_err(|e| e.to_string())?;
    let new_objects = repo.object_count() - before;
    let manifest = store::manifest(&repo, name).map_err(|e| e.to_string())?;
    repo.save_to_dir(&Repository::default_dir(dir)).map_err(|e| e.to_string())?;

    Ok(format!(
        "recorded trace/{name}: {} records over {}, {} chunks ({new_objects} new objects), stats digest {}\n",
        manifest.records,
        digibox_net::SimDuration::from_nanos(manifest.span_nanos),
        manifest.chunks.len(),
        &manifest.extras["stats_digest"][..12],
    ))
}
