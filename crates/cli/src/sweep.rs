//! `dbox sweep` — run a scene ensemble once per seed across worker
//! threads and print a canonical per-seed report with a content digest.
//!
//! Where `dbox chaos` sweeps a *fault plan*, `sweep` sweeps the plain
//! ensemble: how do violations, traffic, and trace volume vary with the
//! seed? It rides the same `core::sweep` engine, so `--jobs N` changes
//! wall-clock only — the report (and its digest) is byte-identical to
//! `--jobs 1`.
//!
//! Exit-code contract (intercepted in [`crate::invoke`] like `lint` and
//! `chaos`):
//!
//! * `0` — every seed ran and no property violations were recorded;
//! * `2` — at least one seed recorded a violation;
//! * `1` — operational failure (bad flags, or a seed that failed to run).

use std::path::Path;

use digibox_core::campaign::SeedFailure;
use digibox_core::islands::{self, IslandEnv, IslandSpec};
use digibox_core::sweep::sweep;
use digibox_core::{Testbed, TestbedConfig};
use digibox_devices::{full_catalog, lamp_follows_vacancy};
use digibox_model::json::{self, ToValue};
use digibox_model::{vmap, Value};
use digibox_net::SimDuration;

use crate::{parse_seeds, Outcome};

const SWEEP_USAGE: &str = "\
usage:
  dbox sweep                          sweep the built-in demo ensemble
  dbox sweep --run Type:Name[:managed] ...   sweep a custom ensemble
options:
  --seeds 1,2,3 | --seeds 1..16       seeds (a..b is inclusive; default 1..8)
  --jobs N                            worker threads (0 = all cores, default 0);
                                      the report digest is identical for any N
  --secs S                            virtual seconds per seed (default 30)
  --run Type:Name[:managed]           add a digi (repeatable; default demo
                                      ensemble: Occupancy O1 + Room R1 + Lamp L1
                                      with the lamp-follows-vacancy property)
  --pool Type:Prefix:N                add N digis named Prefix0..Prefix<N-1>
                                      hosted in one shared pool (repeatable;
                                      the million-digi scaling path)
  --attach child:parent               attach after startup (repeatable)
  --islands N                         space-parallel mode (DESIGN.md §15): run
                                      the scene and every --pool as its own
                                      island kernel on N worker threads (0 =
                                      all cores); the report digest is
                                      identical for any N
  --format json|pretty                output format (default pretty)
  --out <file>                        also write the JSON report to a file
exit codes: 0 clean, 2 violations, 1 operational error
";

/// One digi to start: `Type:Name[:managed]`.
#[derive(Debug, Clone, PartialEq)]
struct RunSpec {
    kind: String,
    name: String,
    managed: bool,
}

/// One shared pool to start: `Type:Prefix:N` hosts `Prefix0..Prefix<N-1>`.
#[derive(Debug, Clone, PartialEq)]
struct PoolSpec {
    kind: String,
    prefix: String,
    count: usize,
}

/// Per-seed observations, all taken from the seed's own isolated testbed.
#[derive(Default)]
struct SeedRow {
    seed: u64,
    violations: u64,
    records: u64,
    publishes_in: u64,
    publishes_out: u64,
    /// Kernel events dispatched (`kernel.events` in the obs registry).
    kernel_events: u64,
    /// Digi handler executions (`digi.on_loop` + `digi.on_model`).
    handler_runs: u64,
    /// Same-instant deliveries the kernel coalesced into batches
    /// (`kernel.batched_deliveries`) — nonzero whenever pools run.
    batched_deliveries: u64,
}

impl SeedRow {
    /// Read the counters off the testbed that ran `seed` (or off one of
    /// its islands).
    fn read(seed: u64, tb: &mut Testbed) -> SeedRow {
        let violations = tb.violations().len() as u64;
        let records = tb.log().records().len() as u64;
        let (publishes_in, publishes_out) = {
            let b = tb.broker().borrow();
            (b.stats().publishes_in, b.stats().publishes_out)
        };
        let snap = tb.obs_snapshot();
        SeedRow {
            seed,
            violations,
            records,
            publishes_in,
            publishes_out,
            kernel_events: snap.counter("kernel.events"),
            handler_runs: snap.counter("digi.on_loop") + snap.counter("digi.on_model"),
            batched_deliveries: snap.counter("kernel.batched_deliveries"),
        }
    }

    /// Add one island's counters into this seed's row.
    fn add(&mut self, island: &SeedRow) {
        self.violations += island.violations;
        self.records += island.records;
        self.publishes_in += island.publishes_in;
        self.publishes_out += island.publishes_out;
        self.kernel_events += island.kernel_events;
        self.handler_runs += island.handler_runs;
        self.batched_deliveries += island.batched_deliveries;
    }
}

impl ToValue for SeedRow {
    fn to_value(&self) -> Value {
        vmap! {
            "seed" => self.seed.to_value(),
            "violations" => self.violations.to_value(),
            "records" => self.records.to_value(),
            "publishes_in" => self.publishes_in.to_value(),
            "publishes_out" => self.publishes_out.to_value(),
            "kernel_events" => self.kernel_events.to_value(),
            "handler_runs" => self.handler_runs.to_value(),
            "batched_deliveries" => self.batched_deliveries.to_value(),
        }
    }
}

/// The merged sweep report: canonical JSON + sha256 digest, mirroring the
/// chaos `Scorecard` contract (same bytes for any `--jobs`).
struct SweepCard {
    ensemble: String,
    secs: u64,
    per_seed: Vec<SeedRow>,
    errors: Vec<SeedFailure>,
}

/// The canonical JSON: the fields plus the derived `violations` total.
impl ToValue for SweepCard {
    fn to_value(&self) -> Value {
        vmap! {
            "ensemble" => self.ensemble.to_value(),
            "secs" => self.secs.to_value(),
            "violations" => self.violations().to_value(),
            "per_seed" => self.per_seed.to_value(),
            "errors" => self.errors.to_value(),
        }
    }
}

impl SweepCard {
    fn violations(&self) -> u64 {
        self.per_seed.iter().map(|r| r.violations).sum()
    }

    fn digest(&self) -> String {
        digibox_registry::sha256(json::encode(self).as_bytes()).to_string()
    }

    fn render(&self) -> String {
        let mut out = format!(
            "sweep {:?}: {} seed(s) × {}s — {}\n",
            self.ensemble,
            self.per_seed.len() + self.errors.len(),
            self.secs,
            if !self.errors.is_empty() {
                "SEED FAILURES"
            } else if self.violations() == 0 {
                "CLEAN"
            } else {
                "VIOLATIONS"
            }
        );
        for r in &self.per_seed {
            out.push_str(&format!(
                "  seed {:>3}: violations {}; records {}; publishes {}/{}; \
                 kernel events {}; handlers {}; batched {}\n",
                r.seed,
                r.violations,
                r.records,
                r.publishes_in,
                r.publishes_out,
                r.kernel_events,
                r.handler_runs,
                r.batched_deliveries
            ));
        }
        for e in &self.errors {
            out.push_str(&format!("  seed {:>3}: FAILED — {}\n", e.seed, e.error));
        }
        out.push_str(&format!("sweep digest {}\n", &self.digest()[..12]));
        out
    }
}

pub fn run(_dir: &Path, args: &[String]) -> Outcome {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Outcome { stdout: SWEEP_USAGE.to_string(), code: 0 };
    }
    match run_inner(args) {
        Ok(outcome) => outcome,
        Err(e) => Outcome { stdout: format!("error: {e}\n"), code: 1 },
    }
}

fn run_inner(args: &[String]) -> Result<Outcome, String> {
    let mut seeds: Vec<u64> = (1..=8).collect();
    let mut jobs: usize = 0;
    let mut secs: u64 = 30;
    let mut runs: Vec<RunSpec> = Vec::new();
    let mut pools: Vec<PoolSpec> = Vec::new();
    let mut attaches: Vec<(String, String)> = Vec::new();
    let mut islands: Option<usize> = None;
    let mut json = false;
    let mut out_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => {
                let list = it.next().ok_or(format!("--seeds needs a list\n{SWEEP_USAGE}"))?;
                seeds = parse_seeds(list)?;
            }
            "--jobs" => {
                let n = it.next().ok_or(format!("--jobs needs a number\n{SWEEP_USAGE}"))?;
                jobs = n.trim().parse::<usize>().map_err(|_| format!("bad --jobs {n:?}"))?;
            }
            "--secs" => {
                let n = it.next().ok_or(format!("--secs needs a number\n{SWEEP_USAGE}"))?;
                secs = n.trim().parse::<u64>().map_err(|_| format!("bad --secs {n:?}"))?;
            }
            "--run" => {
                let spec = it.next().ok_or(format!("--run needs Type:Name\n{SWEEP_USAGE}"))?;
                runs.push(parse_run_spec(spec)?);
            }
            "--pool" => {
                let spec = it.next().ok_or(format!("--pool needs Type:Prefix:N\n{SWEEP_USAGE}"))?;
                pools.push(parse_pool_spec(spec)?);
            }
            "--attach" => {
                let spec =
                    it.next().ok_or(format!("--attach needs child:parent\n{SWEEP_USAGE}"))?;
                let (c, p) = spec
                    .split_once(':')
                    .ok_or_else(|| format!("bad --attach {spec:?} (want child:parent)"))?;
                attaches.push((c.to_string(), p.to_string()));
            }
            "--islands" => {
                let n = it.next().ok_or(format!("--islands needs a number\n{SWEEP_USAGE}"))?;
                islands =
                    Some(n.trim().parse::<usize>().map_err(|_| format!("bad --islands {n:?}"))?);
            }
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("pretty") => json = false,
                other => return Err(format!("unknown --format {other:?}\n{SWEEP_USAGE}")),
            },
            "--out" => {
                out_file =
                    Some(it.next().ok_or(format!("--out needs a path\n{SWEEP_USAGE}"))?.clone());
            }
            other => return Err(format!("unknown argument {other:?}\n{SWEEP_USAGE}")),
        }
    }

    let demo = runs.is_empty() && pools.is_empty();
    if demo {
        runs = demo_ensemble();
        if attaches.is_empty() {
            attaches = vec![("O1".into(), "R1".into()), ("L1".into(), "R1".into())];
        }
    }
    let base = if demo { "demo" } else { "custom" };
    let ensemble =
        if islands.is_some() { format!("{base}+islands") } else { base.to_string() };

    // The whole sweep: every worker builds its own testbed/kernel from the
    // shared specs; merge order is canonical, so the digest is stable
    // across --jobs values. With --islands each seed additionally splits
    // into space-parallel island kernels — worker-count invariant too.
    let outcome = sweep(&seeds, jobs, |seed| {
        if let Some(workers) = islands {
            return island_sweep_row(seed, workers, secs, &runs, &pools, &attaches, demo);
        }
        let mut tb =
            build_testbed(seed, &runs, &pools, &attaches, demo).map_err(|e| e.to_string())?;
        tb.run_for(SimDuration::from_secs(secs));
        Ok(SeedRow::read(seed, &mut tb))
    });

    let mut per_seed = Vec::new();
    let mut errors = Vec::new();
    for run in outcome.runs {
        match run.result {
            Ok(row) => per_seed.push(row),
            Err(e) => errors.push(SeedFailure { seed: run.seed, error: e.to_string() }),
        }
    }
    let card = SweepCard { ensemble, secs, per_seed, errors };

    if let Some(path) = out_file {
        std::fs::write(&path, json::encode(&card)).map_err(|e| format!("{path}: {e}"))?;
    }
    let stdout = if json { json::encode(&card) + "\n" } else { card.render() };
    let code = if !card.errors.is_empty() {
        1
    } else if card.violations() == 0 {
        0
    } else {
        2
    };
    Ok(Outcome { stdout, code })
}

fn parse_pool_spec(spec: &str) -> Result<PoolSpec, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let [kind, prefix, count] = parts.as_slice() else {
        return Err(format!("bad --pool {spec:?} (want Type:Prefix:N)"));
    };
    if kind.is_empty() || prefix.is_empty() {
        return Err(format!("bad --pool {spec:?} (want Type:Prefix:N)"));
    }
    let count: usize =
        count.trim().parse().map_err(|_| format!("bad --pool count {count:?}"))?;
    if count == 0 {
        return Err(format!("bad --pool {spec:?} (N must be >= 1)"));
    }
    Ok(PoolSpec { kind: kind.to_string(), prefix: prefix.to_string(), count })
}

fn parse_run_spec(spec: &str) -> Result<RunSpec, String> {
    let mut parts = spec.split(':');
    let kind = parts.next().unwrap_or_default();
    let name = parts.next().unwrap_or_default();
    if kind.is_empty() || name.is_empty() {
        return Err(format!("bad --run {spec:?} (want Type:Name[:managed])"));
    }
    let managed = match parts.next() {
        None => false,
        Some("managed") => true,
        Some(other) => return Err(format!("bad --run modifier {other:?} (only 'managed')")),
    };
    if parts.next().is_some() {
        return Err(format!("bad --run {spec:?} (too many ':')"));
    }
    Ok(RunSpec { kind: kind.to_string(), name: name.to_string(), managed })
}

/// The demo ensemble mirrors `dbox chaos`: a managed occupancy sensor
/// driving a room with a lamp, plus the paper's lamp-follows-vacancy
/// property so the sweep has something to check.
fn demo_ensemble() -> Vec<RunSpec> {
    vec![
        RunSpec { kind: "Occupancy".into(), name: "O1".into(), managed: true },
        RunSpec { kind: "Room".into(), name: "R1".into(), managed: false },
        RunSpec { kind: "Lamp".into(), name: "L1".into(), managed: false },
    ]
}

/// An island-scoped testbed on the shared cluster: owns node
/// `env.island`, every foreign node cordoned (see `core::islands`).
fn island_testbed(env: &IslandEnv) -> digibox_core::Result<Testbed> {
    Ok(Testbed::new(
        env.topology.clone(),
        full_catalog(),
        TestbedConfig {
            seed: env.seed,
            home_node: Some(env.island as u32),
            ..Default::default()
        },
    ))
}

/// One seed in space-parallel mode: island 0 hosts the scene (`--run`
/// digis, attaches, demo property), every `--pool` gets its own island
/// kernel, and the per-island rows are summed. The worker count changes
/// wall-clock only — cross-island traffic is merged canonically, so the
/// row (and the sweep digest) is byte-identical for any `--islands N`.
fn island_sweep_row(
    seed: u64,
    workers: usize,
    secs: u64,
    runs: &[RunSpec],
    pools: &[PoolSpec],
    attaches: &[(String, String)],
    demo: bool,
) -> Result<SeedRow, String> {
    let mut specs: Vec<IslandSpec> = Vec::new();
    {
        let runs = runs.to_vec();
        let attaches = attaches.to_vec();
        specs.push(IslandSpec::new("scene", move |env: &IslandEnv| {
            let mut tb = island_testbed(env)?;
            for spec in &runs {
                tb.run_with(&spec.kind, &spec.name, Default::default(), spec.managed)?;
            }
            tb.run_for(SimDuration::from_secs(1));
            for (child, parent) in &attaches {
                tb.attach(child, parent)?;
            }
            if demo {
                tb.add_property(lamp_follows_vacancy());
            }
            tb.run_for(SimDuration::from_secs(1));
            Ok(tb)
        }));
    }
    for pool in pools {
        let pool = pool.clone();
        specs.push(IslandSpec::new(format!("pool-{}", pool.prefix), move |env: &IslandEnv| {
            let mut tb = island_testbed(env)?;
            let names: Vec<String> =
                (0..pool.count).map(|i| format!("{}{i}", pool.prefix)).collect();
            tb.run_pool(&pool.kind, &names, Default::default(), false)?;
            // Same settle cadence as the single-kernel path.
            tb.run_for(SimDuration::from_secs(1));
            tb.run_for(SimDuration::from_secs(1));
            Ok(tb)
        }));
    }
    let run = islands::run(
        seed,
        specs,
        workers,
        SimDuration::from_secs(secs),
        &[],
        |_, tb, _t0| SeedRow::read(seed, tb),
    )?;
    let mut row = SeedRow { seed, ..SeedRow::default() };
    for island in &run.results {
        row.add(island);
    }
    Ok(row)
}

fn build_testbed(
    seed: u64,
    runs: &[RunSpec],
    pools: &[PoolSpec],
    attaches: &[(String, String)],
    demo: bool,
) -> digibox_core::Result<Testbed> {
    let mut tb =
        Testbed::laptop(full_catalog(), TestbedConfig { seed, ..Default::default() });
    for spec in runs {
        tb.run_with(&spec.kind, &spec.name, Default::default(), spec.managed)?;
    }
    for spec in pools {
        let names: Vec<String> =
            (0..spec.count).map(|i| format!("{}{i}", spec.prefix)).collect();
        tb.run_pool(&spec.kind, &names, Default::default(), false)?;
    }
    tb.run_for(SimDuration::from_secs(1));
    for (child, parent) in attaches {
        tb.attach(child, parent)?;
    }
    if demo {
        tb.add_property(lamp_follows_vacancy());
    }
    tb.run_for(SimDuration::from_secs(1));
    Ok(tb)
}

// Pure flag-handling tests (no simulation).
#[cfg(test)]
mod sweepcheck {
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
        for bad in [
            vec!["--nope"],
            vec!["--seeds", "one"],
            vec!["--seeds", "9..3"],
            vec!["--jobs", "many"],
            vec!["--secs", "soon"],
            vec!["--run", "NoName"],
            vec!["--run", "Lamp:L1:bogus"],
            vec!["--pool", "NoPrefix"],
            vec!["--pool", "Occupancy:P:zero"],
            vec!["--pool", "Occupancy:P:0"],
            vec!["--attach", "orphan"],
            vec!["--islands", "lots"],
            vec!["--format", "xml"],
        ] {
            let out = run_args(&bad);
            assert_eq!(out.code, 1, "args {bad:?} gave: {}", out.stdout);
            assert!(out.stdout.starts_with("error:"), "{}", out.stdout);
        }
    }

    #[test]
    fn seed_parsing() {
        assert_eq!(parse_seeds("1,2,3").unwrap(), vec![1, 2, 3]);
        assert_eq!(parse_seeds(" 7 ").unwrap(), vec![7]);
        assert_eq!(parse_seeds("1..4").unwrap(), vec![1, 2, 3, 4], "a..b is inclusive");
        assert_eq!(parse_seeds("16..16").unwrap(), vec![16]);
        assert!(parse_seeds("4..1").is_err());
        assert!(parse_seeds("a..b").is_err());
    }

    #[test]
    fn run_spec_parsing() {
        assert_eq!(
            parse_run_spec("Lamp:L1").unwrap(),
            RunSpec { kind: "Lamp".into(), name: "L1".into(), managed: false }
        );
        assert_eq!(
            parse_run_spec("Occupancy:O1:managed").unwrap(),
            RunSpec { kind: "Occupancy".into(), name: "O1".into(), managed: true }
        );
        assert!(parse_run_spec("Lamp").is_err());
        assert!(parse_run_spec(":L1").is_err());
    }

    #[test]
    fn pool_spec_parsing() {
        assert_eq!(
            parse_pool_spec("Occupancy:P:100").unwrap(),
            PoolSpec { kind: "Occupancy".into(), prefix: "P".into(), count: 100 }
        );
        assert!(parse_pool_spec("Occupancy:P").is_err());
        assert!(parse_pool_spec("Occupancy:P:100:extra").is_err());
        assert!(parse_pool_spec(":P:100").is_err());
        assert!(parse_pool_spec("Occupancy::100").is_err());
        assert!(parse_pool_spec("Occupancy:P:0").is_err());
    }

    #[test]
    fn card_json_is_canonical() {
        let card = SweepCard {
            ensemble: "demo".into(),
            secs: 30,
            per_seed: vec![SeedRow {
                seed: 1,
                violations: 0,
                records: 42,
                publishes_in: 7,
                publishes_out: 9,
                kernel_events: 120,
                handler_runs: 33,
                batched_deliveries: 5,
            }],
            errors: vec![SeedFailure { seed: 13, error: "panicked: boom".into() }],
        };
        let j = json::encode(&card);
        assert_eq!(
            j,
            "{\"ensemble\":\"demo\",\"errors\":[{\"error\":\"panicked: boom\",\"seed\":13}],\
             \"per_seed\":[{\"batched_deliveries\":5,\"handler_runs\":33,\"kernel_events\":120,\
             \"publishes_in\":7,\"publishes_out\":9,\"records\":42,\"seed\":1,\
             \"violations\":0}],\"secs\":30,\"violations\":0}"
        );
        assert_eq!(Value::from_json(&j).unwrap(), card.to_value());
        assert_eq!(card.digest(), card.digest());
        assert_eq!(card.digest().len(), 64);
        assert!(card.render().contains("seed  13: FAILED — panicked: boom"));
    }
}

// Sweep-executing tests (materialize full testbeds).
#[cfg(test)]
mod tests {
    use super::*;

    fn run_args(args: &[&str]) -> Outcome {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(Path::new("."), &args)
    }

    #[test]
    fn demo_sweep_digest_is_jobs_invariant() {
        let base = ["--seeds", "1..4", "--secs", "10", "--format", "json"];
        let one = {
            let mut a = base.to_vec();
            a.extend(["--jobs", "1"]);
            run_args(&a)
        };
        let many = {
            let mut a = base.to_vec();
            a.extend(["--jobs", "4"]);
            run_args(&a)
        };
        assert!(one.code == 0 || one.code == 2, "{}", one.stdout);
        assert_eq!(one.stdout, many.stdout, "--jobs must not change the report");
    }

    #[test]
    fn custom_ensemble_sweeps() {
        let out = run_args(&[
            "--seeds", "1,2",
            "--secs", "5",
            "--run", "Fan:F1",
            "--run", "Room:R1",
            "--attach", "F1:R1",
            "--format", "json",
        ]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("\"ensemble\":\"custom\""), "{}", out.stdout);
    }

    #[test]
    fn pooled_ensemble_sweeps_with_jobs_invariant_digest() {
        let base = [
            "--seeds", "1,2",
            "--secs", "5",
            "--pool", "Occupancy:P:50",
            "--format", "json",
        ];
        let one = {
            let mut a = base.to_vec();
            a.extend(["--jobs", "1"]);
            run_args(&a)
        };
        let many = {
            let mut a = base.to_vec();
            a.extend(["--jobs", "2"]);
            run_args(&a)
        };
        assert_eq!(one.code, 0, "{}", one.stdout);
        assert!(one.stdout.contains("\"ensemble\":\"custom\""), "{}", one.stdout);
        assert_eq!(one.stdout, many.stdout, "--jobs must not change the pooled report");
    }

    #[test]
    fn island_sweep_digest_is_worker_invariant() {
        let base = [
            "--seeds", "1,2",
            "--secs", "5",
            "--pool", "Occupancy:P:20",
            "--format", "json",
        ];
        let one = {
            let mut a = base.to_vec();
            a.extend(["--islands", "1"]);
            run_args(&a)
        };
        let many = {
            let mut a = base.to_vec();
            a.extend(["--islands", "4"]);
            run_args(&a)
        };
        assert!(one.code == 0 || one.code == 2, "{}", one.stdout);
        assert!(one.stdout.contains("\"ensemble\":\"custom+islands\""), "{}", one.stdout);
        assert_eq!(one.stdout, many.stdout, "--islands must not change the report");
    }

    #[test]
    fn unknown_digi_type_is_a_seed_failure() {
        let out = run_args(&["--seeds", "1,2", "--secs", "1", "--run", "Nonexistent:X1"]);
        assert_eq!(out.code, 1, "{}", out.stdout);
        assert!(out.stdout.contains("FAILED"), "{}", out.stdout);
        // ...but the sweep itself completed: both seeds are reported
        assert!(out.stdout.contains("seed   1") && out.stdout.contains("seed   2"),
            "{}", out.stdout);
    }
}
