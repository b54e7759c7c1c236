//! `dbox replay` — re-execute or play back a recorded trace.
//!
//! Three modes, dispatched from the operand and flags:
//!
//! * **Verified re-execution** (`dbox replay <ref>`): the trace carries
//!   the session recipe (seed + journal) it was recorded from, so the
//!   whole run is re-executed from scratch on a fresh kernel and the
//!   freshly produced trace is diffed record-by-record against the
//!   recording. A full replay must also reproduce the recorded stats
//!   snapshot byte-for-byte — that digest equality *is* the determinism
//!   contract. Any divergence renders the first differing record and
//!   exits 2.
//! * **State playback** (`dbox replay <ref> --speed <x>` or
//!   `--from-checkpoint`): the recorded model states are forced onto a
//!   recreated testbed at their recorded times — time-travel surgery
//!   rather than re-execution, so timestamps can be rescaled and the run
//!   can resume from the nearest 5 s checkpoint instead of t=0.
//! * **Archive playback** (`dbox replay <file>`): the original
//!   `export-trace` round trip — plays a `.dbxt` archive onto the
//!   current session's testbed. The end bound is computed in exact
//!   nanoseconds: truncating to milliseconds drops records emitted at
//!   the final virtual instant (the classic round-trip off-by-one).
//!
//! `dbox replay --diff <a> <b>` compares two traces (registry refs or
//! archive files) and pinpoints the first diverging record; stored
//! traces are bisected chunk-by-chunk so identical prefixes are never
//! decoded. Exit code 2 signals divergence, mirroring `lint`/`audit`.

use std::collections::BTreeMap;
use std::path::Path;

use digibox_core::{CheckpointStore, Testbed, TestbedConfig};
use digibox_devices::full_catalog;
use digibox_net::{SimDuration, SimTime};
use digibox_registry::{sha256, Repository, SetupManifest};
use digibox_trace::{archive, diff_report, store, ReplaySchedule, TraceRecord};

use crate::{open_registry, Outcome, Session};

const REPLAY_USAGE: &str = "\
usage:
  dbox replay <ref|file> [--until <secs>] [--speed <x>] [--from-checkpoint] [--stats-out <file>]
  dbox replay --diff <a> <b>

  <ref|file>         a recorded trace ref (trace/<name> or just <name>) or a
                     .dbxt archive written by `dbox export-trace`
  --until <secs>     stop the replay at this virtual time (inclusive)
  --speed <x>        state playback at x speed (0.5 = half, 2 = double)
  --from-checkpoint  resume state playback from the nearest 5 s checkpoint
  --stats-out <file> write the replayed stats snapshot (canonical JSON)
  --diff <a> <b>     first diverging record between two traces (exit 2)
";

/// Checkpoints are aligned to this period (mirrors the testbed's
/// periodic snapshot cadence).
const CHECKPOINT_PERIOD: SimDuration = SimDuration::from_secs(5);

struct Flags {
    until: Option<SimTime>,
    speed_milli: Option<u64>,
    from_checkpoint: bool,
    stats_out: Option<String>,
    diff: bool,
    operands: Vec<String>,
}

/// Execute `dbox replay ...` against the workspace at `dir`.
///
/// Exit codes: 0 = replay verified / traces identical, 1 = operational
/// error, 2 = divergence detected.
pub fn run(dir: &Path, args: &[String]) -> Outcome {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Outcome { stdout: REPLAY_USAGE.to_string(), code: 0 };
    }
    match run_inner(dir, args) {
        Ok(out) => out,
        Err(e) => Outcome { stdout: format!("error: {e}\n"), code: 1 },
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        until: None,
        speed_milli: None,
        from_checkpoint: false,
        stats_out: None,
        diff: false,
        operands: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--until" => {
                let v = args.get(i + 1).ok_or("--until needs a value (seconds)")?;
                flags.until = Some(SimTime::from_nanos(parse_decimal(v, 1_000_000_000)?));
                i += 2;
            }
            "--speed" => {
                let v = args.get(i + 1).ok_or("--speed needs a value (e.g. 0.5, 2)")?;
                let milli = parse_decimal(v, 1000)?;
                if milli == 0 {
                    return Err("--speed must be > 0".into());
                }
                flags.speed_milli = Some(milli);
                i += 2;
            }
            "--from-checkpoint" => {
                flags.from_checkpoint = true;
                i += 1;
            }
            "--stats-out" => {
                let v = args.get(i + 1).ok_or("--stats-out needs a file path")?;
                flags.stats_out = Some(v.clone());
                i += 2;
            }
            "--diff" => {
                flags.diff = true;
                i += 1;
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown replay flag {other:?}\n\n{REPLAY_USAGE}"));
            }
            operand => {
                flags.operands.push(operand.to_string());
                i += 1;
            }
        }
    }
    Ok(flags)
}

/// Parse a non-negative decimal like `"2.5"` into integer units of
/// `1/scale` with no floating point (so `--until 2.5` is exactly
/// 2_500_000_000 ns — float rounding here would desynchronize the cut
/// from the recorded timestamps).
fn parse_decimal(s: &str, scale: u64) -> Result<u64, String> {
    let bad = || format!("expected a non-negative decimal number, got {s:?}");
    let (whole, frac) = match s.split_once('.') {
        Some((w, f)) => (w, f),
        None => (s, ""),
    };
    if whole.is_empty() && frac.is_empty() {
        return Err(bad());
    }
    let mut value: u64 = 0;
    if !whole.is_empty() {
        value = whole
            .parse::<u64>()
            .map_err(|_| bad())?
            .checked_mul(scale)
            .ok_or_else(bad)?;
    }
    if !frac.is_empty() {
        let mut unit = scale;
        for c in frac.chars() {
            let d = c.to_digit(10).ok_or_else(bad)? as u64;
            unit /= 10;
            value = value.checked_add(d * unit).ok_or_else(bad)?;
        }
    }
    Ok(value)
}

/// Resolve a trace operand: a path on disk wins, otherwise it is treated
/// as a registry ref.
fn load_operand(repo: &Repository, operand: &str) -> Result<Vec<TraceRecord>, String> {
    if Path::new(operand).exists() {
        let bytes = std::fs::read(operand).map_err(|e| e.to_string())?;
        archive::read(&bytes).map_err(|e| format!("{operand}: {e}"))
    } else {
        store::load(repo, operand)
            .map(|(_, records)| records)
            .map_err(|e| format!("{operand}: {e}"))
    }
}

fn run_inner(dir: &Path, args: &[String]) -> Result<Outcome, String> {
    let flags = parse_flags(args)?;

    if flags.diff {
        return diff_mode(dir, &flags);
    }

    let [operand] = flags.operands.as_slice() else {
        return Err(format!("replay needs exactly one trace\n\n{REPLAY_USAGE}"));
    };
    if Path::new(operand).exists() {
        archive_mode(dir, operand, &flags)
    } else {
        let repo = open_registry(dir)?;
        let (manifest, records) =
            store::load(&repo, operand).map_err(|e| format!("{operand}: {e}"))?;
        if flags.speed_milli.is_some() || flags.from_checkpoint {
            playback_mode(&manifest, &records, &flags)
        } else {
            verified_mode(&manifest, &records, &flags)
        }
    }
}

/// `--diff <a> <b>`: first diverging record between two traces.
fn diff_mode(dir: &Path, flags: &Flags) -> Result<Outcome, String> {
    let [a, b] = flags.operands.as_slice() else {
        return Err(format!("--diff needs exactly two traces\n\n{REPLAY_USAGE}"));
    };
    let repo = open_registry(dir)?;
    let both_stored = !Path::new(a).exists() && !Path::new(b).exists();
    let report = if both_stored {
        // Stored traces bisect chunk-by-chunk: the shared prefix dedups
        // to identical chunk digests, so it is never even decoded.
        store::diff_stored(&repo, a, b).map_err(|e| e.to_string())?
    } else {
        let left = load_operand(&repo, a)?;
        let right = load_operand(&repo, b)?;
        diff_report(&left, &right)
    };
    match report {
        None => {
            let n = load_operand(&repo, a)?.len();
            Ok(Outcome { stdout: format!("traces are identical ({n} records)\n"), code: 0 })
        }
        Some(r) => Ok(Outcome { stdout: format!("{}\n", r.render()), code: 2 }),
    }
}

/// Verified re-execution: rebuild the run from the recorded session
/// recipe and require the fresh trace (and, on a full replay, the stats
/// snapshot) to match the recording exactly.
fn verified_mode(
    manifest: &store::TraceManifest,
    records: &[TraceRecord],
    flags: &Flags,
) -> Result<Outcome, String> {
    let recipe = manifest
        .extras
        .get("session")
        .ok_or("trace has no embedded session recipe (re-record with this dbox version)")?;
    let mut session: Session = digibox_model::json::decode(recipe).map_err(|e| e.to_string())?;

    let full_elapsed_ms = session.elapsed_ms;
    let mut truncated = false;
    if let Some(cut) = flags.until {
        let until_ms = cut.as_nanos() / 1_000_000;
        if until_ms < session.elapsed_ms {
            truncated = true;
            session.journal.retain(|e| e.at_ms <= until_ms);
            session.elapsed_ms = until_ms;
        }
    }

    let mut testbed = session.materialize()?;
    // On a truncated replay, both sides are compared up to the cut
    // itself (inclusive, exact nanos): journal commands settle past
    // their `at_ms`, so records past the cut can differ legitimately —
    // the original run still had its post-cut commands, the truncated
    // one doesn't. Everything at or before the cut must be identical.
    let (recorded, replayed): (Vec<TraceRecord>, Vec<TraceRecord>) = match flags.until {
        Some(cut) if truncated => (
            records.iter().filter(|r| r.ts <= cut).cloned().collect(),
            testbed.log().records().into_iter().filter(|r| r.ts <= cut).collect(),
        ),
        _ => (records.to_vec(), testbed.log().records()),
    };

    if let Some(report) = diff_report(&recorded, &replayed) {
        let mut out = format!("replay DIVERGED from trace/{}\n{}\n", manifest.name, report.render());
        out.push_str("determinism contract broken: the same recipe produced a different trace\n");
        return Ok(Outcome { stdout: out, code: 2 });
    }

    let stats_json = format!("{}\n", testbed.obs_snapshot().to_json());
    if let Some(path) = &flags.stats_out {
        std::fs::write(path, &stats_json).map_err(|e| e.to_string())?;
    }

    let mut out = format!(
        "replayed trace/{}: {} records verified",
        manifest.name,
        replayed.len()
    );
    if truncated {
        out.push_str(&format!(
            " (until {}, of {} recorded over {}ms)\n",
            flags.until.unwrap_or(SimTime::ZERO),
            manifest.records,
            full_elapsed_ms
        ));
        return Ok(Outcome { stdout: out, code: 0 });
    }
    // Full replay: the stats snapshot must be byte-for-byte identical.
    let replayed_stats = testbed.obs_snapshot().to_json();
    let digest = sha256(replayed_stats.as_bytes()).to_string();
    match manifest.extras.get("stats") {
        Some(recorded_stats) if *recorded_stats != replayed_stats => {
            out.push_str(&format!(
                "\nstats DIVERGED: replay digest {} != recorded {}\n",
                &digest[..12],
                manifest
                    .extras
                    .get("stats_digest")
                    .map(|d| &d[..12])
                    .unwrap_or("<missing>"),
            ));
            Ok(Outcome { stdout: out, code: 2 })
        }
        _ => {
            out.push_str(&format!(", stats digest {} (matches recorded)\n", &digest[..12]));
            Ok(Outcome { stdout: out, code: 0 })
        }
    }
}

/// State playback: recreate the recorded setup on a fresh testbed and
/// force the recorded states at (optionally rescaled) recorded times,
/// resuming from the nearest aligned checkpoint when asked.
fn playback_mode(
    manifest: &store::TraceManifest,
    records: &[TraceRecord],
    flags: &Flags,
) -> Result<Outcome, String> {
    let setup_bytes = manifest
        .extras
        .get("setup")
        .ok_or("trace has no embedded setup manifest (re-record with this dbox version)")?;
    let setup = SetupManifest::from_bytes(setup_bytes.as_bytes())?;

    let mut testbed = Testbed::laptop(
        full_catalog(),
        TestbedConfig { seed: setup.seed, ..Default::default() },
    );
    testbed.recreate(&setup).map_err(|e| e.to_string())?;

    let mut schedule = ReplaySchedule::from_records(records);
    if let Some(cut) = flags.until {
        schedule = schedule.until(cut);
    }

    let mut resumed = BTreeMap::new();
    let mut resume_note = String::new();
    if flags.from_checkpoint {
        // Resume from the nearest 5 s checkpoint at or before the end of
        // the (possibly already truncated) window: synthesize the
        // checkpoint states from the trace itself, force them at t=0,
        // and only play the steps after the checkpoint.
        let mark = CheckpointStore::aligned(schedule.duration(), CHECKPOINT_PERIOD);
        let mut cps = CheckpointStore::new();
        let n = cps.ingest_trace(records, mark);
        for name in schedule.sources() {
            if let Some(fields) = cps.restore(&name) {
                resumed.insert(name, fields);
            }
        }
        schedule = schedule.after(mark);
        resume_note = format!(
            " (resumed {n} states from checkpoint at {mark}, {} steps remain)",
            schedule.len()
        );
    }
    if let Some(milli) = flags.speed_milli {
        schedule = schedule
            .at_speed(milli)
            .ok_or("--speed must be > 0")?;
    }

    let span = schedule.duration();
    testbed
        .replay_from(&resumed, &schedule)
        .map_err(|e| e.to_string())?;
    // Inclusive, exact-nanos end bound: a step at exactly `span` must
    // fire (plus a settle second so forced states propagate as messages).
    testbed.run_for(SimDuration::from_nanos(span.as_nanos()) + SimDuration::from_secs(1));

    let mut out = format!(
        "played back trace/{}: {} steps over {} digis{resume_note}\n",
        manifest.name,
        schedule.len(),
        schedule.sources().len()
    );
    let mut names = schedule.sources();
    for name in resumed.keys() {
        if !names.contains(name) {
            names.push(name.clone());
        }
    }
    names.sort();
    for name in names {
        let model = testbed.check(&name).map_err(|e| e.to_string())?;
        out.push_str(&format!("  {name}: {}\n", model.fields()));
    }
    if let Some(path) = &flags.stats_out {
        let stats_json = format!("{}\n", testbed.obs_snapshot().to_json());
        std::fs::write(path, stats_json).map_err(|e| e.to_string())?;
    }
    Ok(Outcome { stdout: out, code: 0 })
}

/// Archive playback (`dbox replay <file>`): the export-trace round trip
/// on the current session's testbed.
fn archive_mode(dir: &Path, file: &str, flags: &Flags) -> Result<Outcome, String> {
    let session = Session::load(dir)?;
    let bytes = std::fs::read(file).map_err(|e| e.to_string())?;
    let mut testbed = session.materialize()?;
    if flags.speed_milli.is_some() {
        return Err(
            "--speed applies to recorded refs, not archives (record first: dbox record <name>)"
                .into(),
        );
    }
    let records =
        archive::read(&bytes).map_err(|e| format!("setup error: bad trace archive: {e}"))?;
    let mut schedule = ReplaySchedule::from_records(&records);
    testbed.replay(&schedule).map_err(|e| e.to_string())?;
    // Exact-nanos inclusive end bound. The previous implementation
    // truncated to milliseconds, which dropped records emitted at the
    // final virtual instant of the recording. With `--until` the clock
    // stops exactly at the cut: steps queued past it never run (the
    // kernel's deadline is inclusive, so a step at precisely the cut
    // does).
    let span = match flags.until {
        Some(cut) => {
            schedule = schedule.until(cut);
            SimDuration::from_nanos(cut.as_nanos().min(schedule.duration().as_nanos()))
        }
        None => {
            SimDuration::from_nanos(schedule.duration().as_nanos()) + SimDuration::from_millis(100)
        }
    };
    testbed.run_for(span);
    let mut out = format!(
        "replayed {} steps over {} digis\n",
        schedule.len(),
        schedule.sources().len()
    );
    for (name, fields) in schedule.final_states() {
        out.push_str(&format!("  {name}: {fields}\n"));
    }
    if let Some(path) = &flags.stats_out {
        let stats_json = format!("{}\n", testbed.obs_snapshot().to_json());
        std::fs::write(path, stats_json).map_err(|e| e.to_string())?;
    }
    // NOTE: replay is exploratory — it does not append to the journal.
    Ok(Outcome { stdout: out, code: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_parsing_is_exact() {
        assert_eq!(parse_decimal("2.5", 1_000_000_000).unwrap(), 2_500_000_000);
        assert_eq!(parse_decimal("2", 1000).unwrap(), 2000);
        assert_eq!(parse_decimal("0.5", 1000).unwrap(), 500);
        assert_eq!(parse_decimal(".25", 1000).unwrap(), 250);
        assert_eq!(parse_decimal("30.000000001", 1_000_000_000).unwrap(), 30_000_000_001);
        assert!(parse_decimal("x", 1000).is_err());
        assert!(parse_decimal("", 1000).is_err());
        assert!(parse_decimal("1.x", 1000).is_err());
    }

    #[test]
    fn flag_parser_collects_operands() {
        let args: Vec<String> = ["--diff", "a", "b"].iter().map(|s| s.to_string()).collect();
        let f = parse_flags(&args).unwrap();
        assert!(f.diff);
        assert_eq!(f.operands, vec!["a", "b"]);

        let args: Vec<String> =
            ["smoke", "--until", "2.5", "--speed", "0.5", "--from-checkpoint"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(f.until, Some(SimTime::from_nanos(2_500_000_000)));
        assert_eq!(f.speed_milli, Some(500));
        assert!(f.from_checkpoint);
        assert!(parse_flags(&["--bogus".to_string()]).is_err());
    }
}
