//! `dbox chaos` — execute a seeded fault campaign and print the
//! degradation-aware scorecard (paper §6: faults/failures and network
//! connectivity as prototyping dimensions).
//!
//! Like `dbox lint` this verb has its own exit-code contract and is
//! intercepted in [`crate::invoke`]:
//!
//! * `0` — campaign ran and the scorecard is clean (no post-heal
//!   violations; degradation *during* fault windows is tolerated);
//! * `2` — at least one violation after the convergence deadline;
//! * `1` — operational failure (bad flags, unreadable plan, broken
//!   setup).

use std::path::Path;

use digibox_core::campaign::Campaign;
use digibox_core::islands::{IslandEnv, IslandSpec};
use digibox_core::properties::DigiCondition;
use digibox_core::{Condition, SceneProperty, Testbed, TestbedConfig};
use digibox_devices::{demo_room, full_catalog};
use digibox_model::json::{self, JsonError, ToValue};
use digibox_model::{vmap, Value};
use digibox_net::chaos::{FaultKind, FaultPlan, FaultSpec};
use digibox_net::SimDuration;

use crate::{parse_seeds, Outcome};

const CHAOS_USAGE: &str = "\
usage:
  dbox chaos                      run the built-in demo campaign
  dbox chaos --plan <plan.json>   run a fault plan from a file
options:
  --seeds 1,2,3 | --seeds 1..3    seeds to sweep (a..b is inclusive;
                                  default 1,2,3)
  --jobs N                        worker threads (0 = all cores, default 1);
                                  the scorecard digest is identical for any N
  --islands N                     space-parallel mode (DESIGN.md §15): run the
                                  demo as two island scenes (O1/R1/L1 and
                                  O2/R2/L2) on N island worker threads (0 =
                                  all cores); fault windows land on barrier
                                  fences and the digest is identical for any N
  --format json|pretty            scorecard output format (default pretty)
  --out <file>                    also write the JSON scorecard to a file
  --print-plan                    print the effective plan as JSON and exit
exit codes: 0 clean, 2 post-heal violations, 1 operational error
";

pub fn run(_dir: &Path, args: &[String]) -> Outcome {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Outcome { stdout: CHAOS_USAGE.to_string(), code: 0 };
    }
    match run_inner(args) {
        Ok(outcome) => outcome,
        Err(e) => Outcome { stdout: format!("error: {e}\n"), code: 1 },
    }
}

fn run_inner(args: &[String]) -> Result<Outcome, String> {
    let mut seeds: Vec<u64> = vec![1, 2, 3];
    let mut jobs: usize = 1;
    let mut islands: Option<usize> = None;
    let mut json = false;
    let mut out_file: Option<String> = None;
    let mut plan_file: Option<String> = None;
    let mut print_plan = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--plan" => {
                plan_file =
                    Some(it.next().ok_or(format!("--plan needs a path\n{CHAOS_USAGE}"))?.clone());
            }
            "--seeds" => {
                let list = it.next().ok_or(format!("--seeds needs a list\n{CHAOS_USAGE}"))?;
                seeds = parse_seeds(list)?;
            }
            "--jobs" => {
                let n = it.next().ok_or(format!("--jobs needs a number\n{CHAOS_USAGE}"))?;
                jobs = n.trim().parse::<usize>().map_err(|_| format!("bad --jobs {n:?}"))?;
            }
            "--islands" => {
                let n = it.next().ok_or(format!("--islands needs a number\n{CHAOS_USAGE}"))?;
                islands =
                    Some(n.trim().parse::<usize>().map_err(|_| format!("bad --islands {n:?}"))?);
            }
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("pretty") => json = false,
                other => return Err(format!("unknown --format {other:?}\n{CHAOS_USAGE}")),
            },
            "--out" => {
                out_file =
                    Some(it.next().ok_or(format!("--out needs a path\n{CHAOS_USAGE}"))?.clone());
            }
            "--print-plan" => print_plan = true,
            other => return Err(format!("unknown argument {other:?}\n{CHAOS_USAGE}")),
        }
    }

    let plan = match plan_file {
        Some(path) => {
            let bytes = std::fs::read(&path).map_err(|e| format!("{path}: {e}"))?;
            Value::from_json(&bytes)
                .and_then(|v| plan_from_value(&v))
                .map_err(|e| format!("{path}: {e}"))?
        }
        None => demo_plan(),
    };
    if print_plan {
        let rendered = plan_to_value(&plan).to_json_pretty();
        return Ok(Outcome { stdout: rendered + "\n", code: 0 });
    }

    let campaign = Campaign::new(plan)?;
    let scorecard = match islands {
        Some(workers) => campaign.run_islands(&seeds, jobs, workers, demo_islands_specs),
        None => campaign.run_jobs(&seeds, jobs, demo_room),
    };
    if let Some(path) = out_file {
        std::fs::write(&path, json::encode(&scorecard)).map_err(|e| format!("{path}: {e}"))?;
    }
    let stdout = if json { json::encode(&scorecard) + "\n" } else { scorecard.render() };
    // Seeds that failed to even run are an operational error (1), which
    // outranks the property verdict (2/0).
    let code = if !scorecard.errors.is_empty() {
        1
    } else if scorecard.clean() {
        0
    } else {
        2
    };
    Ok(Outcome { stdout, code })
}

// ---- plan files -----------------------------------------------------------
//
// `FaultPlan` lives in `digibox_net`, which sits below the codec, so its
// JSON is written here, by the one crate that reads and writes plan files.
// `FaultKind` is externally tagged (`"CrashBroker"`, `{"Partition": {..}}`)
// and a spec's `jitter_ms` defaults to 0 when absent. Millisecond fields
// are read through `millis`, which rejects negative numbers.

fn plan_to_value(plan: &FaultPlan) -> Value {
    vmap! {
        "name" => plan.name.to_value(),
        "duration_ms" => plan.duration_ms.to_value(),
        "convergence_ms" => plan.convergence_ms.to_value(),
        "faults" => Value::List(plan.faults.iter().map(spec_to_value).collect()),
    }
}

fn plan_from_value(v: &Value) -> Result<FaultPlan, JsonError> {
    Ok(FaultPlan {
        name: json::field(v, "name")?,
        duration_ms: millis(v, "duration_ms")?,
        convergence_ms: millis(v, "convergence_ms")?,
        faults: json::field::<Vec<Value>>(v, "faults")?
            .iter()
            .map(spec_from_value)
            .collect::<Result<_, _>>()?,
    })
}

fn spec_to_value(spec: &FaultSpec) -> Value {
    vmap! {
        "at_ms" => spec.at_ms.to_value(),
        "duration_ms" => spec.duration_ms.to_value(),
        "jitter_ms" => spec.jitter_ms.to_value(),
        "kind" => kind_to_value(&spec.kind),
    }
}

fn spec_from_value(v: &Value) -> Result<FaultSpec, JsonError> {
    Ok(FaultSpec {
        at_ms: millis(v, "at_ms")?,
        duration_ms: millis(v, "duration_ms")?,
        jitter_ms: if v.get("jitter_ms").is_some() { millis(v, "jitter_ms")? } else { 0 },
        kind: kind_from_value(v.get("kind").unwrap_or(&Value::Null))
            .map_err(|e| JsonError::new(format!("field `kind`: {e}")))?,
    })
}

fn kind_to_value(kind: &FaultKind) -> Value {
    let tagged = |name: &str, fields: Value| vmap! { name => fields };
    match kind {
        FaultKind::CrashDigi { digi } => tagged("CrashDigi", vmap! { "digi" => digi.as_str() }),
        FaultKind::NodeDown { node } => tagged("NodeDown", vmap! { "node" => node.to_value() }),
        FaultKind::Partition { left, right } => {
            tagged("Partition", vmap! { "left" => left.to_value(), "right" => right.to_value() })
        }
        FaultKind::CrashBroker => Value::from("CrashBroker"),
        FaultKind::Degrade { loss, extra_delay_ms, extra_jitter_ms } => tagged(
            "Degrade",
            vmap! {
                "loss" => *loss,
                "extra_delay_ms" => extra_delay_ms.to_value(),
                "extra_jitter_ms" => extra_jitter_ms.to_value(),
            },
        ),
    }
}

fn kind_from_value(v: &Value) -> Result<FaultKind, JsonError> {
    let (name, f) = json::variant(v)?;
    Ok(match name {
        "CrashDigi" => FaultKind::CrashDigi { digi: json::field(f, "digi")? },
        "NodeDown" => FaultKind::NodeDown { node: json::field(f, "node")? },
        "Partition" => {
            FaultKind::Partition { left: json::field(f, "left")?, right: json::field(f, "right")? }
        }
        "CrashBroker" => FaultKind::CrashBroker,
        "Degrade" => FaultKind::Degrade {
            loss: json::field(f, "loss")?,
            extra_delay_ms: millis(f, "extra_delay_ms")?,
            extra_jitter_ms: millis(f, "extra_jitter_ms")?,
        },
        other => return Err(json::unknown_variant(other)),
    })
}

/// Read the millisecond count `key` of a plan file. The `u64` codec reads
/// any integer as the `u64` with the same bits, so a hand-written `-1`
/// would become `u64::MAX`; here it is an error.
fn millis(v: &Value, key: &str) -> Result<u64, JsonError> {
    let ms: i64 = json::field(v, key)?;
    u64::try_from(ms).map_err(|_| JsonError::new(format!("field `{key}`: {ms} is negative")))
}

/// The built-in demo plan: crash the lamp, partition the two nodes, then
/// degrade every link — one window of each flavour, with start jitter so
/// each seed explores a different timing.
fn demo_plan() -> FaultPlan {
    FaultPlan::new("demo", 60_000, 5_000)
        .with(FaultSpec {
            at_ms: 5_000,
            duration_ms: 4_000,
            jitter_ms: 2_000,
            kind: FaultKind::CrashDigi { digi: "L1".into() },
        })
        .with(FaultSpec {
            at_ms: 20_000,
            duration_ms: 6_000,
            jitter_ms: 1_000,
            kind: FaultKind::Partition { left: vec![0], right: vec![1] },
        })
        .with(FaultSpec {
            at_ms: 35_000,
            duration_ms: 6_000,
            jitter_ms: 3_000,
            kind: FaultKind::Degrade { loss: 0.2, extra_delay_ms: 10, extra_jitter_ms: 5 },
        })
}

/// The space-parallel demo: the same room scene twice, one complete copy
/// per island (an MQTT scene cannot span islands — each island runs its
/// own broker replica), so the demo plan's faults exercise every flavour:
/// `CrashDigi L1` hits island 0's lamp, `Partition [0]|[1]` cuts the
/// cross-island beacons, and `Degrade` shapes every link on both islands.
/// Digi names are globally unique (`O1/R1/L1` vs `O2/R2/L2`) so the
/// merged scorecard maps stay collision-free.
fn demo_islands_specs(_seed: u64) -> Vec<IslandSpec> {
    (0..2u32)
        .map(|i| {
            IslandSpec::new(format!("scene-{i}"), move |env: &IslandEnv| {
                let config = TestbedConfig {
                    seed: env.seed,
                    broker_session_timeout: Some(SimDuration::from_secs(2)),
                    home_node: Some(env.island as u32),
                    ..Default::default()
                };
                let mut tb = Testbed::new(env.topology.clone(), full_catalog(), config);
                let n = env.island + 1;
                let (o, r, l) = (format!("O{n}"), format!("R{n}"), format!("L{n}"));
                tb.run_with("Occupancy", &o, Default::default(), true)?;
                tb.run_with("Room", &r, Default::default(), false)?;
                tb.run_with("Lamp", &l, Default::default(), false)?;
                tb.run_for(SimDuration::from_secs(1));
                tb.attach(&o, &r)?;
                tb.attach(&l, &r)?;
                tb.add_property(SceneProperty::leads_to(
                    &format!("lamp-follows-vacancy-{n}"),
                    vec![DigiCondition::new(&o, Condition::eq("triggered", false))],
                    vec![DigiCondition::new(&l, Condition::eq("power.status", "off"))],
                    SimDuration::from_secs(5),
                ));
                tb.run_for(SimDuration::from_secs(2));
                Ok(tb)
            })
        })
        .collect()
}

// Pure flag-handling and plan-file tests (no simulation).
#[cfg(test)]
mod chaoscheck {
    use super::*;

    fn run_args(args: &[&str]) -> Outcome {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(Path::new("."), &args)
    }

    #[test]
    fn help_exits_zero() {
        let out = run_args(&["--help"]);
        assert_eq!(out.code, 0);
        assert!(out.stdout.starts_with("usage:"), "{}", out.stdout);
    }

    #[test]
    fn bad_flags_exit_1() {
        let out = run_args(&["--nope"]);
        assert_eq!(out.code, 1);
        assert!(out.stdout.contains("usage:"), "{}", out.stdout);
        let out = run_args(&["--seeds", "one,two"]);
        assert_eq!(out.code, 1);
        assert!(out.stdout.contains("bad seed"), "{}", out.stdout);
        let out = run_args(&["--seeds"]);
        assert_eq!(out.code, 1);
        let out = run_args(&["--jobs", "many"]);
        assert_eq!(out.code, 1);
        assert!(out.stdout.contains("bad --jobs"), "{}", out.stdout);
        let out = run_args(&["--jobs"]);
        assert_eq!(out.code, 1);
        let out = run_args(&["--islands", "lots"]);
        assert_eq!(out.code, 1);
        assert!(out.stdout.contains("bad --islands"), "{}", out.stdout);
        let out = run_args(&["--islands"]);
        assert_eq!(out.code, 1);
    }

    #[test]
    fn unreadable_plan_exits_1() {
        let out = run_args(&["--plan", "/nonexistent/plan.json"]);
        assert_eq!(out.code, 1);
        assert!(out.stdout.contains("error:"), "{}", out.stdout);
    }

    #[test]
    fn plan_json_is_pinned_and_jitter_defaults() {
        let plan = demo_plan().with(FaultSpec {
            at_ms: 50_000,
            duration_ms: 1_000,
            jitter_ms: 0,
            kind: FaultKind::CrashBroker,
        });
        let plan = plan.with(FaultSpec {
            at_ms: 52_000,
            duration_ms: 1_000,
            jitter_ms: 0,
            kind: FaultKind::NodeDown { node: 1 },
        });
        let text = plan_to_value(&plan).to_json();
        assert_eq!(
            text,
            concat!(
                r#"{"convergence_ms":5000,"duration_ms":60000,"faults":["#,
                r#"{"at_ms":5000,"duration_ms":4000,"jitter_ms":2000,"kind":{"CrashDigi":{"digi":"L1"}}},"#,
                r#"{"at_ms":20000,"duration_ms":6000,"jitter_ms":1000,"kind":{"Partition":{"left":[0],"right":[1]}}},"#,
                r#"{"at_ms":35000,"duration_ms":6000,"jitter_ms":3000,"#,
                r#""kind":{"Degrade":{"extra_delay_ms":10,"extra_jitter_ms":5,"loss":0.2}}},"#,
                r#"{"at_ms":50000,"duration_ms":1000,"jitter_ms":0,"kind":"CrashBroker"},"#,
                r#"{"at_ms":52000,"duration_ms":1000,"jitter_ms":0,"kind":{"NodeDown":{"node":1}}}],"#,
                r#""name":"demo"}"#
            )
        );
        assert_eq!(plan_from_value(&Value::from_json(&text).unwrap()).unwrap(), plan);
        // a hand-written plan may leave `jitter_ms` out
        let hand = r#"{"name":"h","duration_ms":10,"convergence_ms":1,
            "faults":[{"at_ms":1,"duration_ms":2,"kind":"CrashBroker"}]}"#;
        let back = plan_from_value(&Value::from_json(hand).unwrap()).unwrap();
        assert_eq!(back.faults[0].jitter_ms, 0);
        let bad = r#"{"name":"h","duration_ms":10,"convergence_ms":1,"faults":[{"at_ms":1,"duration_ms":2,"kind":"Meteor"}]}"#;
        let err = plan_from_value(&Value::from_json(bad).unwrap()).unwrap_err();
        assert!(err.to_string().contains("Meteor"), "{err}");
    }

    #[test]
    fn negative_millis_are_rejected() {
        let plan = |convergence: &str, fault: &str| {
            format!(
                r#"{{"name":"n","duration_ms":10000,"convergence_ms":{convergence},
                "faults":[{{{fault}}}]}}"#
            )
        };
        let crash = |at: &str, duration: &str| {
            format!(r#""at_ms":{at},"duration_ms":{duration},"kind":"CrashBroker""#)
        };
        let jitter = r#""at_ms":1,"duration_ms":2,"jitter_ms":-3,"kind":"CrashBroker""#;
        let degrade = r#""at_ms":1,"duration_ms":2,
            "kind":{"Degrade":{"loss":0.1,"extra_delay_ms":-5,"extra_jitter_ms":0}}"#;
        for (text, want) in [
            (plan("1", &crash("1", "-1")), "field `duration_ms`: -1 is negative"),
            (plan("1", &crash("-1", "2")), "field `at_ms`: -1 is negative"),
            (plan("-1", &crash("1", "2")), "field `convergence_ms`: -1 is negative"),
            (plan("1", jitter), "field `jitter_ms`: -3 is negative"),
            (plan("1", degrade), "field `extra_delay_ms`: -5 is negative"),
        ] {
            let err = plan_from_value(&Value::from_json(&text).unwrap()).unwrap_err();
            assert!(err.to_string().ends_with(want), "{text}: {err}");
        }
        // through the verb: a clean exit 1, not a panic in `validate`
        let dir = std::env::temp_dir().join(format!("dbox-chaos-neg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (i, fault) in [crash("1", "-1"), crash("-1", "2")].iter().enumerate() {
            let path = dir.join(format!("plan{i}.json"));
            let text = plan("1", fault);
            std::fs::write(&path, text).unwrap();
            let out = run_args(&["--plan", path.to_str().unwrap()]);
            assert_eq!(out.code, 1, "{}", out.stdout);
            assert!(out.stdout.contains("is negative"), "{}", out.stdout);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn demo_plan_validates() {
        assert!(demo_plan().validate().is_ok());
        assert_eq!(demo_plan().faults.len(), 3);
    }
}

// Campaign-executing tests (materialize a full testbed).
#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dbox-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run_args(args: &[&str]) -> Outcome {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(Path::new("."), &args)
    }

    #[test]
    fn print_plan_roundtrips() {
        let out = run_args(&["--print-plan"]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        let back = plan_from_value(&Value::from_json(&out.stdout).unwrap()).unwrap();
        assert_eq!(back, demo_plan());
    }

    #[test]
    fn demo_campaign_is_clean_and_writes_scorecard() {
        let dir = tmpdir("demo");
        let out_path = dir.join("scorecard.json");
        let out = run_args(&[
            "--seeds",
            "1",
            "--format",
            "json",
            "--out",
            out_path.to_str().unwrap(),
        ]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("\"clean\":true"), "{}", out.stdout);
        let written = std::fs::read_to_string(&out_path).unwrap();
        assert_eq!(written.trim(), out.stdout.trim());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jobs_flag_does_not_change_the_scorecard() {
        let a = run_args(&["--seeds", "1,2", "--jobs", "1", "--format", "json"]);
        let b = run_args(&["--seeds", "1,2", "--jobs", "4", "--format", "json"]);
        assert_eq!(a.code, 0, "{}", a.stdout);
        assert_eq!(a.stdout, b.stdout, "parallel scorecard must be byte-identical");
    }

    #[test]
    fn seed_range_matches_seed_list() {
        let range = run_args(&["--seeds", "1..2", "--format", "json"]);
        let list = run_args(&["--seeds", "1,2", "--format", "json"]);
        assert_eq!(range.code, 0, "{}", range.stdout);
        assert_eq!(range.stdout, list.stdout, "1..2 must run the same seeds as 1,2");
    }

    #[test]
    fn islands_flag_does_not_change_the_scorecard() {
        let a = run_args(&["--seeds", "1,2", "--islands", "1", "--format", "json"]);
        let b = run_args(&["--seeds", "1,2", "--islands", "4", "--format", "json"]);
        assert_eq!(a.code, 0, "{}", a.stdout);
        assert_eq!(a.stdout, b.stdout, "island scorecard must be byte-identical");
        // Both scenes' digis are present in the merged report.
        assert!(a.stdout.contains("\"O1\"") && a.stdout.contains("\"O2\""), "{}", a.stdout);
    }

    #[test]
    fn plan_file_overrides_demo() {
        let dir = tmpdir("plan-file");
        let path = dir.join("plan.json");
        let plan = FaultPlan::new("tiny", 5_000, 1_000).with(FaultSpec {
            at_ms: 1_000,
            duration_ms: 500,
            jitter_ms: 0,
            kind: FaultKind::CrashDigi { digi: "L1".into() },
        });
        std::fs::write(&path, plan_to_value(&plan).to_json()).unwrap();
        let out = run_args(&["--plan", path.to_str().unwrap(), "--seeds", "7"]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("chaos plan \"tiny\""), "{}", out.stdout);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
