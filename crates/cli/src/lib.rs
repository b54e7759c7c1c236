//! `dbox` — the Digibox CLI (paper, Table 1).
//!
//! | command | functionality |
//! |---|---|
//! | `dbox run <Type> <name>` / `dbox stop <name>` | run/stop a mock or scene |
//! | `dbox check <name>` / `dbox watch <name>` | display model (changes) |
//! | `dbox attach <name> <scene>` (`-d` to detach) | (de)attach |
//! | `dbox edit <name> k=v ...` | set intent fields |
//! | `dbox commit <setup> [-m msg]` | snapshot the setup into the repo |
//! | `dbox push <setup> --to DIR` / `dbox pull <setup> --from DIR` | share |
//! | `dbox replay <trace-file>` | replay a trace |
//! | plus: `sim`, `list`, `types`, `export-trace`, `log` |
//!
//! ## How state persists without a daemon
//!
//! The paper's CLI talks to a long-running Kubernetes cluster. This binary
//! is daemonless: the workspace directory holds an *event-sourced session*
//! — a journal of every state-changing command with its virtual timestamp.
//! Each invocation deterministically re-materializes the testbed by
//! replaying the journal (same seed ⇒ bit-identical state, the
//! reproducibility property of §3.5), applies the new command, and appends
//! it. Commit/push/pull use an on-disk content-addressed repository under
//! `.dbox/registry`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use digibox_core::{Testbed, TestbedConfig};
use digibox_devices::full_catalog;
use digibox_model::json::{self, FromValue, JsonError, ToValue};
use digibox_model::{dml, vmap, Value};
use digibox_net::SimDuration;
use digibox_registry::Repository;

mod audit;
mod chaos;
mod fuzz;
mod lint;
mod profile;
mod record;
mod replay;
mod stats;
mod sweep;

/// One state-changing command in the journal. JSON: the variant's fields
/// plus a `cmd` tag in snake case (`run`, `stop`, ..., `set_managed`).
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Run { kind: String, name: String, managed: bool, params: BTreeMap<String, Value> },
    Stop { name: String },
    Attach { child: String, parent: String },
    Detach { child: String, parent: String },
    Edit { name: String, updates: Value },
    SetManaged { name: String, managed: bool },
    /// Pure time advancement (`dbox sim <secs>`).
    Advance,
}

/// A journal entry: the virtual time at which the command was applied.
/// JSON: one object holding `at_ms` and the fields of the [`Command`].
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub at_ms: u64,
    pub command: Command,
}

/// The persisted session.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Session {
    pub seed: u64,
    pub journal: Vec<Entry>,
    /// Total virtual time the session has advanced to.
    pub elapsed_ms: u64,
}

impl ToValue for Command {
    fn to_value(&self) -> Value {
        match self {
            Command::Run { kind, name, managed, params } => vmap! {
                "cmd" => "run",
                "kind" => kind.as_str(),
                "name" => name.as_str(),
                "managed" => *managed,
                "params" => params.to_value(),
            },
            Command::Stop { name } => vmap! { "cmd" => "stop", "name" => name.as_str() },
            Command::Attach { child, parent } => {
                vmap! { "cmd" => "attach", "child" => child.as_str(), "parent" => parent.as_str() }
            }
            Command::Detach { child, parent } => {
                vmap! { "cmd" => "detach", "child" => child.as_str(), "parent" => parent.as_str() }
            }
            Command::Edit { name, updates } => {
                vmap! { "cmd" => "edit", "name" => name.as_str(), "updates" => updates.clone() }
            }
            Command::SetManaged { name, managed } => {
                vmap! { "cmd" => "set_managed", "name" => name.as_str(), "managed" => *managed }
            }
            Command::Advance => vmap! { "cmd" => "advance" },
        }
    }
}

impl FromValue for Command {
    fn from_value(v: &Value) -> Result<Command, JsonError> {
        let f = |key| json::field::<String>(v, key);
        Ok(match f("cmd")?.as_str() {
            "run" => Command::Run {
                kind: f("kind")?,
                name: f("name")?,
                managed: json::field(v, "managed")?,
                params: json::field(v, "params")?,
            },
            "stop" => Command::Stop { name: f("name")? },
            "attach" => Command::Attach { child: f("child")?, parent: f("parent")? },
            "detach" => Command::Detach { child: f("child")?, parent: f("parent")? },
            "edit" => Command::Edit { name: f("name")?, updates: json::field(v, "updates")? },
            "set_managed" => {
                Command::SetManaged { name: f("name")?, managed: json::field(v, "managed")? }
            }
            "advance" => Command::Advance,
            other => return Err(json::unknown_variant(other)),
        })
    }
}

impl ToValue for Entry {
    fn to_value(&self) -> Value {
        let mut v = self.command.to_value();
        v.as_map_mut().expect("commands are objects").insert("at_ms".into(), self.at_ms.to_value());
        v
    }
}

impl FromValue for Entry {
    fn from_value(v: &Value) -> Result<Entry, JsonError> {
        Ok(Entry { at_ms: json::field(v, "at_ms")?, command: Command::from_value(v)? })
    }
}

impl ToValue for Session {
    fn to_value(&self) -> Value {
        vmap! {
            "seed" => self.seed.to_value(),
            "journal" => self.journal.to_value(),
            "elapsed_ms" => self.elapsed_ms.to_value(),
        }
    }
}

impl FromValue for Session {
    fn from_value(v: &Value) -> Result<Session, JsonError> {
        Ok(Session {
            seed: json::field(v, "seed")?,
            journal: json::field(v, "journal")?,
            elapsed_ms: json::field(v, "elapsed_ms")?,
        })
    }
}

impl Session {
    pub fn new(seed: u64) -> Session {
        Session { seed, journal: Vec::new(), elapsed_ms: 0 }
    }

    pub fn state_path(dir: &Path) -> PathBuf {
        dir.join(".dbox").join("session.json")
    }

    pub fn load(dir: &Path) -> Result<Session, String> {
        let path = Session::state_path(dir);
        if !path.exists() {
            return Ok(Session::new(42));
        }
        let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
        json::decode(bytes).map_err(|e| e.to_string())
    }

    pub fn save(&self, dir: &Path) -> Result<(), String> {
        let path = Session::state_path(dir);
        std::fs::create_dir_all(path.parent().expect("state path has a parent"))
            .map_err(|e| e.to_string())?;
        std::fs::write(path, json::encode_pretty(self)).map_err(|e| e.to_string())
    }

    /// Deterministically re-materialize the testbed by replaying the
    /// journal on a fresh kernel.
    pub fn materialize(&self) -> Result<Testbed, String> {
        let mut testbed = Testbed::laptop(
            full_catalog(),
            TestbedConfig { seed: self.seed, ..Default::default() },
        );
        for entry in &self.journal {
            let now_ms = testbed.now().as_millis();
            if entry.at_ms > now_ms {
                testbed.run_for(SimDuration::from_millis(entry.at_ms - now_ms));
            }
            apply(&mut testbed, &entry.command).map_err(|e| format!("replaying journal: {e}"))?;
        }
        let now_ms = testbed.now().as_millis();
        if self.elapsed_ms > now_ms {
            testbed.run_for(SimDuration::from_millis(self.elapsed_ms - now_ms));
        }
        Ok(testbed)
    }

    /// Apply a new command on a materialized testbed and append it to the
    /// journal.
    pub fn execute(&mut self, testbed: &mut Testbed, command: Command) -> Result<(), String> {
        let at_ms = testbed.now().as_millis();
        apply(testbed, &command)?;
        self.journal.push(Entry { at_ms, command });
        self.elapsed_ms = testbed.now().as_millis().max(self.elapsed_ms);
        Ok(())
    }

    /// Advance virtual time (persisted).
    pub fn advance(&mut self, testbed: &mut Testbed, span: SimDuration) {
        let at_ms = testbed.now().as_millis();
        testbed.run_for(span);
        self.journal.push(Entry { at_ms, command: Command::Advance });
        self.elapsed_ms = testbed.now().as_millis();
    }
}

/// How much virtual time a command advances once applied: `run` lets the
/// container start, `attach` lets the scene's mirror warm and `edit` lets
/// the intent reach the digi, so the next command sees the result.
fn settle_ms(command: &Command) -> u64 {
    match command {
        Command::Run { .. } => 500,
        Command::Attach { .. } | Command::Edit { .. } => 200,
        _ => 0,
    }
}

fn apply(testbed: &mut Testbed, command: &Command) -> Result<(), String> {
    match command {
        Command::Run { kind, name, managed, params } => {
            testbed.run_with(kind, name, params.clone(), *managed)
        }
        Command::Stop { name } => testbed.stop(name),
        Command::Attach { child, parent } => testbed.attach(child, parent),
        Command::Detach { child, parent } => testbed.detach(child, parent),
        Command::Edit { name, updates } => testbed.edit(name, updates.clone()),
        Command::SetManaged { name, managed } => testbed.set_managed(name, *managed),
        Command::Advance => Ok(()),
    }
    .map_err(|e| e.to_string())?;
    let settle = settle_ms(command);
    if settle > 0 {
        testbed.run_for(SimDuration::from_millis(settle));
    }
    Ok(())
}

/// Open the workspace's content-addressed registry (`.dbox/registry`);
/// a workspace with no registry yet gets an empty one.
fn open_registry(dir: &Path) -> Result<Repository, String> {
    Repository::load_from_dir(&Repository::default_dir(dir)).map_err(|e| e.to_string())
}

/// Parse `k=v` CLI arguments into a value map (DML scalar syntax for
/// values: `power=on intensity=0.7 managed=true`).
pub fn parse_kv_args(args: &[String]) -> Result<Value, String> {
    let mut map = BTreeMap::new();
    for arg in args {
        let (k, v) = arg
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got {arg:?}"))?;
        let doc = dml::parse(&format!("v: {v}\n")).map_err(|e| e.to_string())?;
        let value = doc.get("v").cloned().unwrap_or(Value::Null);
        map.insert(k.to_string(), value);
    }
    Ok(Value::Map(map))
}

/// Parse a `--seeds` value for `sweep` and `chaos`: a comma list
/// (`1,2,3`) or an inclusive range (`a..b`).
fn parse_seeds(list: &str) -> Result<Vec<u64>, String> {
    let list = list.trim();
    if let Some((a, b)) = list.split_once("..") {
        let a: u64 = a.trim().parse().map_err(|_| format!("bad range start {a:?}"))?;
        let b: u64 = b.trim().parse().map_err(|_| format!("bad range end {b:?}"))?;
        if a > b {
            return Err(format!("empty seed range {a}..{b}"));
        }
        return Ok((a..=b).collect());
    }
    list.split(',')
        .map(|s| s.trim().parse::<u64>().map_err(|_| format!("bad seed {s:?}")))
        .collect()
}

/// The outcome of one CLI invocation (what `main` prints).
pub struct Outcome {
    pub stdout: String,
    pub code: i32,
}

impl Outcome {
    fn ok(stdout: String) -> Outcome {
        Outcome { stdout, code: 0 }
    }

    fn err(msg: String) -> Outcome {
        Outcome { stdout: format!("error: {msg}\n"), code: 1 }
    }
}

/// The `dbox --help` text, exported so documentation can be checked
/// against it (see `tests/cli_docs.rs`: every verb and flag in this text
/// must be covered by `docs/CLI.md`).
pub fn usage() -> &'static str {
    USAGE
}

/// Run one CLI invocation against the workspace at `dir`.
pub fn invoke(dir: &Path, args: &[String]) -> Outcome {
    // `lint`, `audit`, `chaos`, and `sweep` have their own exit-code
    // contracts (2 = findings / violations), so they bypass the Ok/Err
    // mapping below.
    if args.first().map(String::as_str) == Some("lint") {
        return lint::run(dir, &args[1..]);
    }
    if args.first().map(String::as_str) == Some("audit") {
        return audit::run(dir, &args[1..]);
    }
    if args.first().map(String::as_str) == Some("chaos") {
        return chaos::run(dir, &args[1..]);
    }
    if args.first().map(String::as_str) == Some("sweep") {
        return sweep::run(dir, &args[1..]);
    }
    // `replay` exits 2 when a replay or `--diff` detects divergence.
    if args.first().map(String::as_str) == Some("replay") {
        return replay::run(dir, &args[1..]);
    }
    match invoke_inner(dir, args) {
        Ok(out) => Outcome::ok(out),
        Err(e) => Outcome::err(e),
    }
}

const USAGE: &str = "\
dbox — scene-centric IoT prototyping (Digibox)

usage:
  dbox run <Type> <name> [--managed] [k=v ...]   run a mock or scene
  dbox stop <name>                               stop it
  dbox check <name>                              print its model
  dbox watch <name> [secs]                       advance time, print its changes
  dbox attach <child> <scene>                    attach to a scene
  dbox attach -d <child> <scene>                 detach
  dbox edit <name> k=v [k=v ...]                 set intent fields
  dbox sim <secs>                                advance virtual time
  dbox list                                      list running digis
  dbox types                                     list available types
  dbox commit <setup> [-m <msg>]                 commit setup to local repo
  dbox push <setup> --to <dir>                   push to a remote repo dir
  dbox pull <setup> --from <dir>                 pull + recreate a setup
  dbox lint [--library|--file <setup.dml>]       static-analyze the ensemble
  dbox audit [--format json] [--allow CODE] [paths...]  determinism audit of the simulation sources
  dbox chaos [--plan <plan.json>] [--seeds 1..3] [--islands N]  fault campaign + scorecard
  dbox sweep [--seeds 1..16] [--jobs N] [--pool T:P:N] [--islands N]  parallel seed sweep + report
  dbox fuzz [--seeds 1,2,3] [--iters N]          seeded MQTT codec fuzzer
  dbox stats [--format json|pretty]              deterministic metrics snapshot
  dbox profile                                   folded-stack span profile
  dbox log [name]                                print trace (paper format)
  dbox log --summary                             per-digi activity table
  dbox ps                                        pods and nodes (runtime view)
  dbox violations                                property violations so far
  dbox infer <name>                              infer a schema from the trace
  dbox export-trace <file>                       write trace archive
  dbox record [<name>]                           record the run as trace/<name> (no arg: list)
  dbox replay <ref|file> [--until <secs>] [--speed <x>] [--from-checkpoint] [--stats-out <file>]
                                                 re-execute and verify a recorded trace
  dbox replay --diff <a> <b>                     first diverging record between two traces
";

fn invoke_inner(dir: &Path, args: &[String]) -> Result<String, String> {
    let mut session = Session::load(dir)?;
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        "fuzz" => fuzz::run(&args[1..]),
        "stats" => stats::run(&session, &args[1..]),
        "profile" => profile::run(&session, &args[1..]),
        "run" => {
            let kind = args.get(1).ok_or("usage: dbox run <Type> <name>")?.clone();
            let name = args.get(2).ok_or("usage: dbox run <Type> <name>")?.clone();
            let rest = &args[3..];
            let managed = rest.iter().any(|a| a == "--managed");
            let kv: Vec<String> = rest.iter().filter(|a| a.contains('=')).cloned().collect();
            let params = parse_kv_args(&kv)?
                .as_map()
                .cloned()
                .unwrap_or_default();
            let mut testbed = session.materialize()?;
            session.execute(&mut testbed, Command::Run { kind: kind.clone(), name: name.clone(), managed, params })?;
            session.save(dir)?;
            Ok(format!("running {kind} {name}\n"))
        }
        "stop" => {
            let name = args.get(1).ok_or("usage: dbox stop <name>")?.clone();
            let mut testbed = session.materialize()?;
            session.execute(&mut testbed, Command::Stop { name: name.clone() })?;
            session.save(dir)?;
            Ok(format!("stopped {name}\n"))
        }
        "check" => {
            let name = args.get(1).ok_or("usage: dbox check <name>")?;
            let mut testbed = session.materialize()?;
            let model = testbed.check(name).map_err(|e| e.to_string())?;
            let doc = vmap! { "meta" => model.meta.to_value(), "fields" => model.fields().clone() };
            Ok(dml::to_string(&doc))
        }
        "watch" => {
            let name = args.get(1).ok_or("usage: dbox watch <name> [secs]")?.clone();
            let secs: u64 = args.get(2).map(|s| s.parse().unwrap_or(5)).unwrap_or(5);
            let mut testbed = session.materialize()?;
            testbed.digi_addr(&name).map_err(|e| e.to_string())?; // existence check
            let cursor = testbed.log().since(None).last().map(|r| r.seq);
            session.advance(&mut testbed, SimDuration::from_secs(secs));
            let mut records = testbed.log().since(cursor);
            records.retain(|r| r.source == name);
            session.save(dir)?;
            let mut out = String::new();
            for r in &records {
                out.push_str(&r.paper_line());
                out.push('\n');
            }
            out.push_str(&format!("({} records in {secs}s)\n", records.len()));
            Ok(out)
        }
        "attach" => {
            let detach = args.get(1).map(String::as_str) == Some("-d");
            let base = if detach { 2 } else { 1 };
            let child = args.get(base).ok_or("usage: dbox attach [-d] <child> <scene>")?.clone();
            let parent = args.get(base + 1).ok_or("usage: dbox attach [-d] <child> <scene>")?.clone();
            let mut testbed = session.materialize()?;
            let command = if detach {
                Command::Detach { child: child.clone(), parent: parent.clone() }
            } else {
                Command::Attach { child: child.clone(), parent: parent.clone() }
            };
            session.execute(&mut testbed, command)?;
            session.save(dir)?;
            Ok(format!("{} {child} {} {parent}\n", if detach { "detached" } else { "attached" }, if detach { "from" } else { "to" }))
        }
        "edit" => {
            let name = args.get(1).ok_or("usage: dbox edit <name> k=v ...")?.clone();
            let updates = parse_kv_args(&args[2..])?;
            let mut testbed = session.materialize()?;
            session.execute(&mut testbed, Command::Edit { name: name.clone(), updates })?;
            session.save(dir)?;
            Ok(format!("edited {name}\n"))
        }
        "sim" => {
            let secs: u64 = args
                .get(1)
                .ok_or("usage: dbox sim <secs>")?
                .parse()
                .map_err(|_| "secs must be a number")?;
            let mut testbed = session.materialize()?;
            session.advance(&mut testbed, SimDuration::from_secs(secs));
            session.save(dir)?;
            Ok(format!("advanced to t={}\n", testbed.now()))
        }
        "list" => {
            let mut testbed = session.materialize()?;
            let mut out = String::new();
            for name in testbed.digi_names() {
                let model = testbed.check(&name).map_err(|e| e.to_string())?;
                out.push_str(&format!(
                    "{name:<20} {:<14} managed={} rev={}\n",
                    model.meta.kind, model.meta.managed, model.revision()
                ));
            }
            if out.is_empty() {
                out = "no digis running (try `dbox run Lamp L1`)\n".into();
            }
            Ok(out)
        }
        "types" => {
            let catalog = full_catalog();
            let mut out = String::from("available types (mocks and scenes):\n");
            for kind in catalog.kinds() {
                let p = catalog.make(kind).map_err(|e| e.to_string())?;
                out.push_str(&format!(
                    "  {kind:<18} {:<7} {}\n",
                    if p.is_scene() { "scene" } else { "mock" },
                    p.program_id()
                ));
            }
            Ok(out)
        }
        "commit" => {
            let setup = args.get(1).ok_or("usage: dbox commit <setup> [-m msg]")?.clone();
            let message = args
                .iter()
                .position(|a| a == "-m")
                .and_then(|i| args.get(i + 1))
                .cloned()
                .unwrap_or_else(|| "dbox commit".into());
            let mut repo = open_registry(dir)?;
            let testbed = session.materialize()?;
            let digest =
                testbed.commit(&mut repo, &setup, &message, &setup).map_err(|e| e.to_string())?;
            repo.save_to_dir(&Repository::default_dir(dir)).map_err(|e| e.to_string())?;
            Ok(format!("committed {setup} @ {}\n", digest.short()))
        }
        "push" => {
            let setup = args.get(1).ok_or("usage: dbox push <setup> --to <dir>")?.clone();
            let to = args
                .iter()
                .position(|a| a == "--to")
                .and_then(|i| args.get(i + 1))
                .ok_or("usage: dbox push <setup> --to <dir>")?;
            let repo = open_registry(dir)?;
            let remote_dir = PathBuf::from(to);
            let mut remote = Repository::load_from_dir(&remote_dir).map_err(|e| e.to_string())?;
            let n = repo.push(&mut remote, &setup).map_err(|e| e.to_string())?;
            remote.save_to_dir(&remote_dir).map_err(|e| e.to_string())?;
            Ok(format!("pushed {setup}: {n} objects transferred\n"))
        }
        "pull" => {
            let setup = args.get(1).ok_or("usage: dbox pull <setup> --from <dir>")?.clone();
            let from = args
                .iter()
                .position(|a| a == "--from")
                .and_then(|i| args.get(i + 1))
                .ok_or("usage: dbox pull <setup> --from <dir>")?;
            let remote = Repository::load_from_dir(Path::new(from)).map_err(|e| e.to_string())?;
            let head = remote.resolve(&setup).map_err(|e| e.to_string())?;
            let commit = remote.load_commit(&head).map_err(|e| e.to_string())?;
            let manifest = remote.load_setup(&commit).map_err(|e| e.to_string())?;
            // recreate = replay the manifest as journal commands on a fresh
            // session (seeded from the manifest for reproducibility)
            let mut fresh = Session::new(manifest.seed);
            let mut testbed = fresh.materialize()?;
            for inst in &manifest.instances {
                fresh.execute(
                    &mut testbed,
                    Command::Run {
                        kind: inst.kind.clone(),
                        name: inst.name.clone(),
                        managed: inst.managed,
                        params: inst.params.clone(),
                    },
                )?;
            }
            for (child, parent) in &manifest.attachments {
                fresh.execute(
                    &mut testbed,
                    Command::Attach { child: child.clone(), parent: parent.clone() },
                )?;
            }
            fresh.save(dir)?;
            // keep the pulled objects locally too
            let mut local = open_registry(dir)?;
            local.pull(&remote, &setup).map_err(|e| e.to_string())?;
            local.save_to_dir(&Repository::default_dir(dir)).map_err(|e| e.to_string())?;
            Ok(format!(
                "pulled {setup}: {} instances, {} attachments recreated\n",
                manifest.instances.len(),
                manifest.attachments.len()
            ))
        }
        "log" => {
            let testbed = session.materialize()?;
            let records = testbed.log().records();
            if args.get(1).map(String::as_str) == Some("--summary") {
                return Ok(digibox_trace::analysis::TraceSummary::analyze(&records).render());
            }
            let mut out = String::new();
            for r in records.iter().filter(|r| match args.get(1) {
                Some(name) => &r.source == name,
                None => true,
            }) {
                out.push_str(&r.paper_line());
                out.push('\n');
            }
            Ok(out)
        }
        "ps" => {
            let testbed = session.materialize()?;
            let (pods, cpu_used, cpu_cap) = testbed.cluster_utilization();
            let mut out = format!("{pods} pods, cpu {cpu_used}/{cpu_cap} millicores\n");
            for name in testbed.digi_names() {
                let phase = testbed
                    .pod_phase(&name)
                    .map(|p| format!("{p:?}"))
                    .unwrap_or_else(|| "?".into());
                out.push_str(&format!("{name:<20} {phase}\n"));
            }
            Ok(out)
        }
        "violations" => {
            let testbed = session.materialize()?;
            let violations = testbed.violations();
            if violations.is_empty() {
                return Ok("no property violations\n".into());
            }
            let mut out = String::new();
            for v in violations {
                out.push_str(&v.paper_line());
                out.push('\n');
            }
            Ok(out)
        }
        "infer" => {
            let name = args.get(1).ok_or("usage: dbox infer <name>")?;
            let mut testbed = session.materialize()?;
            let records = testbed.log().records();
            let samples = digibox_trace::analysis::model_samples(&records, name);
            if samples.is_empty() {
                return Err(format!("no model samples for {name:?} in the trace"));
            }
            let model = testbed.check(name).map_err(|e| e.to_string())?;
            let schema =
                digibox_model::infer_schema(&model.meta.kind, &model.meta.version, &samples);
            let json = json::encode_pretty(&schema);
            Ok(format!("inferred from {} samples:\n{json}\n", samples.len()))
        }
        "export-trace" => {
            let file = args.get(1).ok_or("usage: dbox export-trace <file>")?;
            let testbed = session.materialize()?;
            let bytes = digibox_trace::archive::write(&testbed.log().records());
            std::fs::write(file, &bytes).map_err(|e| e.to_string())?;
            Ok(format!("wrote {} bytes to {file}\n", bytes.len()))
        }
        "record" => record::run(dir, &args[1..]),
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dbox-cli-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn run(dir: &Path, args: &[&str]) -> Outcome {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        invoke(dir, &args)
    }

    #[test]
    fn session_json_is_pinned() {
        let mut params = BTreeMap::new();
        params.insert("seed".to_string(), Value::Int(7));
        let commands = [
            Command::Run { kind: "Lamp".into(), name: "L1".into(), managed: false, params },
            Command::Stop { name: "L1".into() },
            Command::Attach { child: "L1".into(), parent: "R1".into() },
            Command::Detach { child: "L1".into(), parent: "R1".into() },
            Command::Edit { name: "L1".into(), updates: digibox_model::vmap! { "power" => "on" } },
            Command::SetManaged { name: "O1".into(), managed: true },
            Command::Advance,
        ];
        let session = Session {
            seed: u64::MAX,
            journal: commands
                .into_iter()
                .enumerate()
                .map(|(i, command)| Entry { at_ms: i as u64 * 500, command })
                .collect(),
            elapsed_ms: 4_000,
        };
        let text = json::encode(&session);
        assert_eq!(
            text,
            concat!(
                r#"{"elapsed_ms":4000,"journal":["#,
                r#"{"at_ms":0,"cmd":"run","kind":"Lamp","managed":false,"name":"L1","params":{"seed":7}},"#,
                r#"{"at_ms":500,"cmd":"stop","name":"L1"},"#,
                r#"{"at_ms":1000,"child":"L1","cmd":"attach","parent":"R1"},"#,
                r#"{"at_ms":1500,"child":"L1","cmd":"detach","parent":"R1"},"#,
                r#"{"at_ms":2000,"cmd":"edit","name":"L1","updates":{"power":"on"}},"#,
                r#"{"at_ms":2500,"cmd":"set_managed","managed":true,"name":"O1"},"#,
                r#"{"at_ms":3000,"cmd":"advance"}],"seed":-1}"#
            )
        );
        assert_eq!(json::decode::<Session>(&text).unwrap(), session);
        assert_eq!(json::decode::<Session>(json::encode_pretty(&session)).unwrap(), session);
        assert!(json::decode::<Session>(r#"{"elapsed_ms":0,"journal":[{"at_ms":0,"cmd":"fly"}],"seed":1}"#).is_err());
    }

    #[test]
    fn lint_and_audit_json_is_one_document_and_one_newline() {
        let dir = tmpdir("json-newline");
        let src = dir.join("clock.rs");
        std::fs::write(&src, "let t = SystemTime::now();\n").unwrap();
        let lint = run(&dir, &["lint", "--library", "--format", "json"]);
        let audit = run(&dir, &["audit", src.to_str().unwrap(), "--format", "json"]);
        assert_eq!((lint.code, audit.code), (0, 2), "{}{}", lint.stdout, audit.stdout);
        for out in [lint, audit] {
            let body = out.stdout.strip_suffix('\n').expect("ends in a newline");
            assert!(!body.ends_with('\n'), "more than one newline: {:?}", out.stdout);
            Value::from_json(body).unwrap_or_else(|e| panic!("{e}: {}", out.stdout));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_kv() {
        let v = parse_kv_args(&["power=on".into(), "level=0.7".into(), "n=3".into(), "b=true".into()])
            .unwrap();
        assert_eq!(v.get("power").unwrap().as_str(), Some("on"));
        assert_eq!(v.get("level").unwrap().as_float(), Some(0.7));
        assert_eq!(v.get("n").unwrap().as_int(), Some(3));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert!(parse_kv_args(&["no-equals".into()]).is_err());
    }

    #[test]
    fn run_check_edit_cycle() {
        let dir = tmpdir("cycle");
        let out = run(&dir, &["run", "Lamp", "L1"]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        let out = run(&dir, &["edit", "L1", "power=on", "intensity=0.5"]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        let out = run(&dir, &["check", "L1"]);
        assert_eq!(out.code, 0);
        assert!(out.stdout.contains("status: \"on\"") || out.stdout.contains("status: on"),
            "check output:\n{}", out.stdout);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_journal_is_deterministic() {
        let dir = tmpdir("determinism");
        run(&dir, &["run", "Occupancy", "O1"]);
        run(&dir, &["sim", "5"]);
        let a = run(&dir, &["check", "O1"]).stdout;
        // `check` does not mutate: materializing again gives the same state
        let b = run(&dir, &["check", "O1"]).stdout;
        assert_eq!(a, b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn list_and_types() {
        let dir = tmpdir("list");
        let out = run(&dir, &["types"]);
        assert!(out.stdout.contains("Lamp"));
        assert!(out.stdout.contains("Room"));
        let out = run(&dir, &["list"]);
        assert!(out.stdout.contains("no digis"));
        run(&dir, &["run", "Fan", "F1"]);
        let out = run(&dir, &["list"]);
        assert!(out.stdout.contains("F1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stop_removes() {
        let dir = tmpdir("stop");
        run(&dir, &["run", "Fan", "F1"]);
        let out = run(&dir, &["stop", "F1"]);
        assert_eq!(out.code, 0);
        let out = run(&dir, &["check", "F1"]);
        assert_eq!(out.code, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn attach_and_watch() {
        let dir = tmpdir("attach");
        run(&dir, &["run", "Occupancy", "O1", "--managed"]);
        run(&dir, &["run", "Room", "R1"]);
        let out = run(&dir, &["attach", "O1", "R1"]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        let out = run(&dir, &["watch", "R1", "5"]);
        assert_eq!(out.code, 0);
        assert!(out.stdout.contains("records in 5s"), "{}", out.stdout);
        // detach
        let out = run(&dir, &["attach", "-d", "O1", "R1"]);
        assert_eq!(out.code, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_push_pull_roundtrip() {
        let home = tmpdir("push-home");
        let away = tmpdir("pull-away");
        let remote = tmpdir("remote-repo");
        run(&home, &["run", "Lamp", "L1"]);
        run(&home, &["run", "Room", "R1"]);
        run(&home, &["attach", "L1", "R1"]);
        let out = run(&home, &["commit", "my-setup", "-m", "first"]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        let out = run(&home, &["push", "my-setup", "--to", remote.to_str().unwrap()]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        // a second developer pulls and has the same digis
        let out = run(&away, &["pull", "my-setup", "--from", remote.to_str().unwrap()]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        let out = run(&away, &["list"]);
        assert!(out.stdout.contains("L1"), "{}", out.stdout);
        assert!(out.stdout.contains("R1"));
        let out = run(&away, &["check", "R1"]);
        assert!(out.stdout.contains("attach: [L1]"), "{}", out.stdout);
        for d in [home, away, remote] {
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn export_and_replay_trace() {
        let dir = tmpdir("trace");
        run(&dir, &["run", "Occupancy", "O1"]);
        run(&dir, &["sim", "5"]);
        let trace_file = dir.join("run.dbxt");
        let out = run(&dir, &["export-trace", trace_file.to_str().unwrap()]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        let out = run(&dir, &["replay", trace_file.to_str().unwrap()]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("replayed"), "{}", out.stdout);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_command_prints_usage() {
        let dir = tmpdir("unknown");
        let out = run(&dir, &["frobnicate"]);
        assert_eq!(out.code, 1);
        assert!(out.stdout.contains("usage"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_then_replay_ref_verifies() {
        let dir = tmpdir("record-replay");
        run(&dir, &["run", "Occupancy", "O1", "--managed"]);
        run(&dir, &["run", "Lamp", "L1"]);
        run(&dir, &["sim", "10"]);
        let out = run(&dir, &["record", "smoke"]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("recorded trace/smoke"), "{}", out.stdout);
        // listing shows it
        let out = run(&dir, &["record"]);
        assert!(out.stdout.contains("trace/smoke"), "{}", out.stdout);
        // verified re-execution reproduces the trace and the stats digest
        let out = run(&dir, &["replay", "smoke"]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("matches recorded"), "{}", out.stdout);
        // the `trace/<name>` spelling resolves too
        let out = run(&dir, &["replay", "trace/smoke"]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recording_has_no_observable_effect() {
        let dir = tmpdir("record-pure");
        run(&dir, &["run", "Occupancy", "O1"]);
        run(&dir, &["sim", "5"]);
        let before = run(&dir, &["stats", "--format", "json"]).stdout;
        let out = run(&dir, &["record", "pure"]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        let after = run(&dir, &["stats", "--format", "json"]).stdout;
        assert_eq!(before, after, "recording must not perturb the session");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_diff_modes() {
        let dir = tmpdir("replay-diff");
        // unmanaged, so the sensor keeps generating events and `b` grows
        // past `a`
        run(&dir, &["run", "Occupancy", "O1"]);
        run(&dir, &["sim", "10"]);
        run(&dir, &["record", "a"]);
        run(&dir, &["sim", "5"]);
        run(&dir, &["record", "b"]);
        // identical: exit 0
        let out = run(&dir, &["replay", "--diff", "a", "a"]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("identical"), "{}", out.stdout);
        // a is a strict prefix of b: exit 2 with a rendered divergence
        let out = run(&dir, &["replay", "--diff", "a", "b"]);
        assert_eq!(out.code, 2, "{}", out.stdout);
        assert!(out.stdout.contains("diverge"), "{}", out.stdout);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_playback_with_speed_and_checkpoint() {
        let dir = tmpdir("replay-playback");
        run(&dir, &["run", "Occupancy", "O1", "--managed"]);
        run(&dir, &["sim", "12"]);
        run(&dir, &["record", "pb"]);
        let out = run(&dir, &["replay", "pb", "--speed", "2"]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("played back trace/pb"), "{}", out.stdout);
        let out = run(&dir, &["replay", "pb", "--from-checkpoint"]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("resumed"), "{}", out.stdout);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_until_truncates() {
        let dir = tmpdir("replay-until");
        run(&dir, &["run", "Occupancy", "O1", "--managed"]);
        run(&dir, &["sim", "10"]);
        run(&dir, &["record", "cut"]);
        let out = run(&dir, &["replay", "cut", "--until", "3"]);
        assert_eq!(out.code, 0, "{}", out.stdout);
        assert!(out.stdout.contains("until"), "{}", out.stdout);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
